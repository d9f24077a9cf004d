//! Plain (fixed-width little-endian) encoding.
//!
//! The fallback encoding every physical type supports. Values are laid out
//! back to back with no headers, exactly the type's width each.

use crate::error::{ColumnarError, Result};

/// Appends `values` as little-endian `i64`s.
pub fn encode_i64(values: &[i64], out: &mut Vec<u8>) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `values` as little-endian IEEE-754 `f32`s.
pub fn encode_f32(values: &[f32], out: &mut Vec<u8>) {
    out.reserve(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `values` as little-endian IEEE-754 `f64`s.
pub fn encode_f64(values: &[f64], out: &mut Vec<u8>) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends the `count` fixed-width little-endian values at `*pos` to `out`.
/// The bounds check precedes the reservation, so a corrupt count cannot
/// over-reserve.
fn decode_le<T, const W: usize>(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    context: &'static str,
    from_le_bytes: impl Fn([u8; W]) -> T,
    out: &mut Vec<T>,
) -> Result<()> {
    let end = count
        .checked_mul(W)
        .and_then(|need| pos.checked_add(need))
        .filter(|&e| e <= buf.len())
        .ok_or(ColumnarError::UnexpectedEof { context })?;
    out.reserve(count);
    out.extend(buf[*pos..end].chunks_exact(W).map(|c| from_le_bytes(c.try_into().expect("chunk"))));
    *pos = end;
    Ok(())
}

/// Appends `count` little-endian `i64`s read from `buf` at `*pos` to a
/// caller-owned buffer.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] if fewer than `count * 8` bytes
/// remain.
pub fn decode_i64_into(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<i64>,
) -> Result<()> {
    decode_le(buf, pos, count, "plain i64", i64::from_le_bytes, out)
}

/// Like [`decode_i64_into`] for little-endian IEEE-754 `f32`s.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] if fewer than `count * 4` bytes
/// remain.
pub fn decode_f32_into(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<f32>,
) -> Result<()> {
    decode_le(buf, pos, count, "plain f32", f32::from_le_bytes, out)
}

/// Like [`decode_i64_into`] for little-endian IEEE-754 `f64`s.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] if fewer than `count * 8` bytes
/// remain.
pub fn decode_f64_into(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<f64>,
) -> Result<()> {
    decode_le(buf, pos, count, "plain f64", f64::from_le_bytes, out)
}

/// Like [`decode_i64_into`], but materializing only the elements covered by
/// `ranges` (sorted, non-overlapping, half-open element-index intervals) —
/// the prefix-pushdown path. Plain pages are random-access, so each range is
/// a direct byte-slice copy; the skipped elements are never touched. The
/// whole `count * 8`-byte stream is bounds-checked (and `*pos` advanced past
/// it) before any allocation, so a corrupt count cannot over-reserve.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] if fewer than `count * 8` bytes
/// remain, [`ColumnarError::CorruptFile`] when a range exceeds `count`.
pub fn decode_i64_ranges(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    ranges: &[(usize, usize)],
    out: &mut Vec<i64>,
) -> Result<()> {
    let end = count
        .checked_mul(8)
        .and_then(|need| pos.checked_add(need))
        .filter(|&e| e <= buf.len())
        .ok_or(ColumnarError::UnexpectedEof { context: "plain i64" })?;
    let need = super::validate_ranges(ranges, count)?;
    out.reserve(need);
    for &(start, stop) in ranges {
        out.extend(
            buf[*pos + start * 8..*pos + stop * 8]
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("chunk"))),
        );
    }
    *pos = end;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one of the `decode_*_into` functions appends to an empty buffer.
    fn decoded<T>(
        decode: fn(&[u8], &mut usize, usize, &mut Vec<T>) -> Result<()>,
        buf: &[u8],
        pos: &mut usize,
        count: usize,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        decode(buf, pos, count, &mut out).map(|()| out)
    }

    #[test]
    fn i64_roundtrip() {
        let values = [0i64, -1, i64::MAX, i64::MIN, 42];
        let mut buf = Vec::new();
        encode_i64(&values, &mut buf);
        assert_eq!(buf.len(), values.len() * 8);
        assert_eq!(decoded(decode_i64_into, &buf, &mut 0, values.len()).unwrap(), values);
    }

    #[test]
    fn f32_roundtrip_preserves_bits() {
        let values = [0.0f32, -0.0, 1.5, f32::INFINITY, f32::MIN_POSITIVE];
        let mut buf = Vec::new();
        encode_f32(&values, &mut buf);
        let back = decoded(decode_f32_into, &buf, &mut 0, values.len()).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_nan_roundtrips_bitwise() {
        let values = [f32::NAN];
        let mut buf = Vec::new();
        encode_f32(&values, &mut buf);
        let back = decoded(decode_f32_into, &buf, &mut 0, 1).unwrap();
        assert_eq!(values[0].to_bits(), back[0].to_bits());
    }

    #[test]
    fn f64_roundtrip() {
        let values = [std::f64::consts::PI, -1e300, 0.0];
        let mut buf = Vec::new();
        encode_f64(&values, &mut buf);
        assert_eq!(decoded(decode_f64_into, &buf, &mut 0, 3).unwrap(), values);
    }

    #[test]
    fn short_buffer_errors() {
        let mut buf = Vec::new();
        encode_i64(&[1, 2], &mut buf);
        assert!(decoded(decode_i64_into, &buf, &mut 0, 3).is_err());
        assert!(decoded(decode_f32_into, &buf[..3], &mut 0, 1).is_err());
    }

    #[test]
    fn sequential_decodes_advance_position() {
        let mut buf = Vec::new();
        encode_i64(&[10, 20], &mut buf);
        encode_f32(&[1.0], &mut buf);
        let mut pos = 0;
        assert_eq!(decoded(decode_i64_into, &buf, &mut pos, 2).unwrap(), vec![10, 20]);
        assert_eq!(decoded(decode_f32_into, &buf, &mut pos, 1).unwrap(), vec![1.0]);
        assert_eq!(pos, buf.len());
    }
}
