//! Delta encoding for integer sequences.
//!
//! Stores the first value verbatim, then zigzag-varint deltas. Monotonic or
//! slowly-varying sequences (list offsets, timestamps, row ids) compress to a
//! byte or two per value.

use super::varint;
use crate::error::Result;

/// Encodes `values` as first-value + zigzag deltas, appending to `out`.
pub fn encode_i64(values: &[i64], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    let mut prev = 0i64;
    for (i, &v) in values.iter().enumerate() {
        if i == 0 {
            varint::write_i64(out, v);
        } else {
            varint::write_i64(out, v.wrapping_sub(prev));
        }
        prev = v;
    }
}

/// Decodes a stream produced by [`encode_i64`], whose count only the stream
/// knows (a dictionary), appending to a caller-owned buffer.
///
/// Preallocation is clamped to the bytes remaining in `buf`: every encoded
/// delta occupies at least one byte, so a corrupt leading count can never
/// reserve more memory than the input could legitimately describe.
///
/// # Errors
///
/// Propagates varint decode errors on truncated or corrupt input.
pub fn decode_i64_appending(buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> Result<()> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count > super::MAX_PAGE_ELEMENTS {
        return Err(crate::ColumnarError::CorruptFile {
            detail: format!("delta stream declares {count} values"),
        });
    }
    out.reserve(count.min(buf.len().saturating_sub(*pos)));
    decode_values(buf, pos, count, out)
}

/// Like [`decode_i64_appending`], appending `expected` values to a caller-owned
/// buffer. The stream's own count must equal `expected` (known to the
/// caller from the page header), checked before any allocation.
///
/// # Errors
///
/// Returns [`crate::ColumnarError::CountMismatch`] when the stream count
/// disagrees with `expected`, plus any varint decode error.
pub fn decode_i64_into(
    buf: &[u8],
    pos: &mut usize,
    expected: usize,
    out: &mut Vec<i64>,
) -> Result<()> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count != expected {
        return Err(crate::ColumnarError::CountMismatch { declared: expected, actual: count });
    }
    out.reserve(count);
    decode_values(buf, pos, count, out)
}

/// Like [`decode_i64_into`], materializing only the elements covered by
/// `ranges` (sorted, non-overlapping, half-open element-index intervals) —
/// the prefix-pushdown path. The varint delta stream is inherently
/// sequential, so skipped elements are still decoded to carry the running
/// value forward, but they are never stored; the decode hard-stops at the
/// end of the last range instead of walking the page tail. The stream count
/// is validated against `expected` before any allocation.
///
/// # Errors
///
/// Same as [`decode_i64_into`], plus [`crate::ColumnarError::CorruptFile`]
/// when a range exceeds `expected`.
pub fn decode_i64_ranges(
    buf: &[u8],
    pos: &mut usize,
    expected: usize,
    ranges: &[(usize, usize)],
    out: &mut Vec<i64>,
) -> Result<()> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count != expected {
        return Err(crate::ColumnarError::CountMismatch { declared: expected, actual: count });
    }
    let need = super::validate_ranges(ranges, count)?;
    if count == 0 || need == 0 {
        return Ok(());
    }
    out.reserve(need);
    let last_needed = ranges.last().map_or(0, |&(_, stop)| stop);
    let mut prev = varint::read_i64(buf, pos)?;
    let mut ranges = ranges.iter().copied().peekable();
    let mut idx = 0usize; // element index of `prev`
    if let Some(&(start, stop)) = ranges.peek() {
        if start == 0 && stop > 0 {
            out.push(prev);
        }
    }
    let mut raw = [0u64; 64];
    let mut decoded = [0i64; 64];
    while idx + 1 < last_needed {
        let take = (last_needed - (idx + 1)).min(64).min(count - 1 - idx);
        varint::read_u64_group(buf, pos, &mut raw[..take])?;
        for (d, &r) in decoded.iter_mut().zip(&raw[..take]) {
            prev = prev.wrapping_add(varint::zigzag_decode(r));
            *d = prev;
        }
        // Gather the in-range overlap of this group of elements
        // [idx + 1, idx + 1 + take).
        let lo = idx + 1;
        let hi = lo + take;
        while let Some(&(start, stop)) = ranges.peek() {
            if start >= hi {
                break;
            }
            let s = start.max(lo);
            let e = stop.min(hi);
            if s < e {
                out.extend_from_slice(&decoded[s - lo..e - lo]);
            }
            if stop <= hi {
                let _ = ranges.next();
            } else {
                break;
            }
        }
        idx += take;
    }
    Ok(())
}

/// Shared decode core: first value, then zigzag deltas in batches of 64
/// through the byte-sliced group decoder ([`varint::read_u64_group`]).
fn decode_values(buf: &[u8], pos: &mut usize, count: usize, out: &mut Vec<i64>) -> Result<()> {
    if count == 0 {
        return Ok(());
    }
    let mut prev = varint::read_i64(buf, pos)?;
    out.push(prev);
    let mut remaining = count - 1;
    let mut raw = [0u64; 64];
    let mut decoded = [0i64; 64];
    while remaining > 0 {
        let take = remaining.min(64);
        varint::read_u64_group(buf, pos, &mut raw[..take])?;
        for (d, &r) in decoded.iter_mut().zip(&raw[..take]) {
            prev = prev.wrapping_add(varint::zigzag_decode(r));
            *d = prev;
        }
        out.extend_from_slice(&decoded[..take]);
        remaining -= take;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64]) -> usize {
        let mut buf = Vec::new();
        encode_i64(values, &mut buf);
        let (mut pos, mut back) = (0, Vec::new());
        decode_i64_appending(&buf, &mut pos, &mut back).unwrap();
        assert_eq!(back, values);
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn empty_roundtrips() {
        assert_eq!(roundtrip(&[]), 1);
    }

    #[test]
    fn monotonic_offsets_compress_well() {
        // Typical sparse-feature offsets: +20 average step.
        let values: Vec<i64> = (0..4096).map(|i| i * 20).collect();
        let len = roundtrip(&values);
        assert!(len < values.len() * 2, "offsets took {len} bytes");
    }

    #[test]
    fn constant_sequence_is_one_byte_per_delta() {
        let values = vec![1_000_000i64; 100];
        let len = roundtrip(&values);
        // count + first value + 99 zero deltas.
        assert!(len <= 1 + 4 + 99);
    }

    #[test]
    fn extremes_roundtrip_via_wrapping() {
        roundtrip(&[i64::MIN, i64::MAX, 0, -1, 1, i64::MAX, i64::MIN]);
    }

    #[test]
    fn random_walk_roundtrips() {
        let mut v = 0i64;
        let values: Vec<i64> = (0..1000)
            .map(|i| {
                v = v.wrapping_add(if i % 3 == 0 { -7 } else { 13 });
                v
            })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut buf = Vec::new();
        encode_i64(&[1, 2, 3], &mut buf);
        buf.pop();
        assert!(decode_i64_appending(&buf, &mut 0, &mut Vec::new()).is_err());
    }

    #[test]
    fn corrupt_count_cannot_over_reserve() {
        // A 10-byte varint claiming u64::MAX values followed by nothing:
        // preallocation is clamped to the remaining input, and the decode
        // then fails on truncation instead of allocating terabytes.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, u64::MAX);
        let mut out = Vec::new();
        assert!(decode_i64_appending(&buf, &mut 0, &mut out).is_err());
        assert!(out.capacity() <= 64);
    }

    #[test]
    fn decode_into_checks_expected_count_first() {
        let mut buf = Vec::new();
        encode_i64(&[5, 6, 7], &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(decode_i64_into(&buf, &mut pos, 2, &mut out).is_err());
        assert!(out.is_empty());
        let mut pos = 0;
        decode_i64_into(&buf, &mut pos, 3, &mut out).unwrap();
        assert_eq!(out, vec![5, 6, 7]);
    }

    #[test]
    fn long_streams_roundtrip_across_group_boundaries() {
        for n in [63usize, 64, 65, 128, 129, 1000] {
            let values: Vec<i64> = (0..n as i64).map(|i| i * 37 - 400).collect();
            roundtrip(&values);
        }
    }
}
