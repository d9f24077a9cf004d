//! Hybrid run-length / bit-packed encoding for unsigned integers.
//!
//! The stream is a sequence of runs. Each run starts with a varint header:
//! the low bit selects the run kind, the remaining bits carry the length.
//!
//! * `header & 1 == 0`: **RLE run** — `header >> 1` repetitions of a single
//!   value stored once, bit-packed at the stream's bit width (rounded up to a
//!   whole byte count for that one value).
//! * `header & 1 == 1`: **literal run** — `header >> 1` values bit-packed
//!   back to back.
//!
//! The stream is prefixed by one byte holding the bit width. This mirrors
//! Parquet's RLE/bit-packing hybrid, which TorchArrow reads when extracting
//! features, so the decode cost modeled by `presto-hwsim` corresponds to real
//! work performed here.

use super::{bitpack, varint};
use crate::error::{ColumnarError, Result};

/// Minimum repetitions before the encoder switches to an RLE run.
const MIN_RLE_RUN: usize = 4;

/// Encodes `values` into `out` using the hybrid RLE/bit-pack scheme.
///
/// The bit width is chosen from the maximum value present.
pub fn encode(values: &[u64], out: &mut Vec<u8>) {
    let max = values.iter().copied().max().unwrap_or(0);
    let width = bitpack::width_for(max);
    out.push(width as u8);
    varint::write_u64(out, values.len() as u64);

    let mut i = 0;
    let mut literal_start = 0;
    while i < values.len() {
        // Measure the run of equal values starting at i.
        let run_val = values[i];
        let mut run_len = 1;
        while i + run_len < values.len() && values[i + run_len] == run_val {
            run_len += 1;
        }
        if run_len >= MIN_RLE_RUN {
            flush_literals(&values[literal_start..i], width, out);
            write_rle_run(run_val, run_len, width, out);
            i += run_len;
            literal_start = i;
        } else {
            i += run_len;
        }
    }
    flush_literals(&values[literal_start..], width, out);
}

fn flush_literals(values: &[u64], width: u32, out: &mut Vec<u8>) {
    if values.is_empty() {
        return;
    }
    varint::write_u64(out, ((values.len() as u64) << 1) | 1);
    // Infallible: width was derived from the global maximum.
    bitpack::pack(values, width, out).expect("literal values fit chosen width");
}

fn write_rle_run(value: u64, len: usize, width: u32, out: &mut Vec<u8>) {
    varint::write_u64(out, (len as u64) << 1);
    if width > 0 {
        let byte_len = (width as usize).div_ceil(8);
        out.extend_from_slice(&value.to_le_bytes()[..byte_len]);
    }
}

/// Decodes a stream produced by [`encode`], appending into a caller-owned
/// buffer.
///
/// Preallocation is clamped to what the remaining input could describe
/// (at most 8 values per byte once the run framing is paid), so a corrupt
/// count cannot force an oversized reservation.
///
/// With `expected = Some(n)` the stream's declared count must equal `n`
/// (checked before any allocation) — the page reader passes its row count
/// here, so a corrupt length stream errors instead of materializing.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] on truncated input and
/// [`ColumnarError::CountMismatch`] when the run headers disagree with the
/// declared value count, or the declared count with `expected`.
pub fn decode_into(
    buf: &[u8],
    pos: &mut usize,
    expected: Option<usize>,
    values: &mut Vec<u64>,
) -> Result<()> {
    let Some(&width) = buf.get(*pos) else {
        return Err(ColumnarError::UnexpectedEof { context: "rle bit width" });
    };
    *pos += 1;
    let width = u32::from(width);
    if width > 64 {
        return Err(ColumnarError::ValueOutOfRange {
            detail: format!("rle bit width {width} exceeds 64"),
        });
    }
    let count = varint::read_u64(buf, pos)? as usize;
    match expected {
        Some(expected) => {
            if count != expected {
                return Err(ColumnarError::CountMismatch { declared: expected, actual: count });
            }
        }
        // No caller-known count: RLE expands (zero-width runs consume no
        // input), so only the global page ceiling bounds growth.
        None => {
            if count > super::MAX_PAGE_ELEMENTS {
                return Err(ColumnarError::CorruptFile {
                    detail: format!("rle stream declares {count} values"),
                });
            }
        }
    }
    values.reserve(count.min(buf.len().saturating_sub(*pos).saturating_mul(8).max(64)));
    let base = values.len();
    decode_runs(buf, pos, width, count, base, values)
}

/// Run-decoding core of [`decode_into`]; `base` is the output length before
/// this stream's values.
fn decode_runs(
    buf: &[u8],
    pos: &mut usize,
    width: u32,
    count: usize,
    base: usize,
    values: &mut Vec<u64>,
) -> Result<()> {
    while values.len() - base < count {
        let header = varint::read_u64(buf, pos)?;
        let len = (header >> 1) as usize;
        if len == 0 {
            return Err(ColumnarError::CorruptFile { detail: "zero-length rle run".into() });
        }
        if values.len() - base + len > count {
            return Err(ColumnarError::CountMismatch {
                declared: count,
                actual: values.len() - base + len,
            });
        }
        if header & 1 == 1 {
            bitpack::unpack_into(buf, pos, len, width, values)?;
        } else {
            let value = if width == 0 {
                0
            } else {
                let byte_len = (width as usize).div_ceil(8);
                if buf.len() < *pos + byte_len {
                    return Err(ColumnarError::UnexpectedEof { context: "rle run value" });
                }
                let mut raw = [0u8; 8];
                raw[..byte_len].copy_from_slice(&buf[*pos..*pos + byte_len]);
                *pos += byte_len;
                u64::from_le_bytes(raw)
            };
            values.extend(std::iter::repeat_n(value, len));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64]) -> usize {
        let mut buf = Vec::new();
        encode(values, &mut buf);
        let (mut pos, mut back) = (0, Vec::new());
        decode_into(&buf, &mut pos, None, &mut back).unwrap();
        assert_eq!(back, values);
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_all_equal_compresses() {
        let values = vec![7u64; 10_000];
        let len = roundtrip(&values);
        // One width byte + count varint + one run header + one value byte.
        assert!(len < 16, "10k identical values took {len} bytes");
    }

    #[test]
    fn roundtrip_all_distinct() {
        let values: Vec<u64> = (0..1000).collect();
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_mixed_runs_and_literals() {
        let mut values = Vec::new();
        for i in 0..50u64 {
            values.push(i);
            values.extend(std::iter::repeat_n(i % 3, (i % 7) as usize));
        }
        roundtrip(&values);
    }

    #[test]
    fn roundtrip_zeros_are_tiny() {
        let values = vec![0u64; 4096];
        let len = roundtrip(&values);
        assert!(len <= 8, "4k zeros took {len} bytes");
    }

    #[test]
    fn roundtrip_large_values() {
        roundtrip(&[u64::MAX, u64::MAX, u64::MAX, u64::MAX, 1, 2, 3]);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        encode(&[1, 2, 3, 4, 5, 5, 5, 5, 5, 5], &mut buf);
        for cut in 1..buf.len() {
            let cut_off = decode_into(&buf[..cut], &mut 0, None, &mut Vec::new());
            assert!(cut_off.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn decode_into_enforces_expected_count() {
        let mut buf = Vec::new();
        encode(&[1, 2, 3, 4], &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(matches!(
            decode_into(&buf, &mut pos, Some(5), &mut out),
            Err(ColumnarError::CountMismatch { .. })
        ));
        assert!(out.is_empty());
        let mut pos = 0;
        decode_into(&buf, &mut pos, Some(4), &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn zero_width_allocation_bomb_is_rejected() {
        // Regression: width-0 runs consume no input, so a crafted count of
        // 2^40 with one matching run header used to materialize terabytes
        // of zeros. The page-element ceiling now rejects the count.
        let mut bomb = vec![0u8]; // width 0
        varint::write_u64(&mut bomb, 1u64 << 40); // count
        varint::write_u64(&mut bomb, (1u64 << 40) << 1); // one RLE run
        assert!(matches!(
            decode_into(&bomb, &mut 0, None, &mut Vec::new()),
            Err(ColumnarError::CorruptFile { .. })
        ));
        // With a caller-expected count the mismatch fires first.
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(decode_into(&bomb, &mut pos, Some(8), &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn corrupt_count_cannot_over_reserve() {
        // Width byte + varint count of u64::MAX and no run data: capacity
        // stays bounded by the (tiny) remaining input and decode errors.
        let mut buf = vec![1u8];
        varint::write_u64(&mut buf, u64::MAX);
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(decode_into(&buf, &mut pos, None, &mut out).is_err());
        assert!(out.capacity() <= 64);
    }

    #[test]
    fn short_runs_stay_literal() {
        // Runs of length 3 are below MIN_RLE_RUN; stream must still roundtrip.
        let values = [9, 9, 9, 1, 2, 2, 2, 3];
        roundtrip(&values);
    }
}
