//! Delta-binary-packed blocks: the batched sparse-id/offset codec.
//!
//! The Parquet `DELTA_BINARY_PACKED` idea adapted to this crate: deltas are
//! grouped into miniblocks of [`MINIBLOCK`] values, each miniblock carries
//! its own frame-of-reference (`min_delta`) and bit width, and the packed
//! bits decode through the word-based group kernel in
//! [`super::bitpack::unpack_group`] — 64 values per step, no per-value
//! branches and no intermediate `Vec` (miniblocks stage through one stack
//! buffer and prefix-sum straight into the caller's output).
//!
//! Stream layout (all integers varint unless noted):
//!
//! ```text
//! varint   count                 (number of values)
//! zigzag   first value           (present when count > 0)
//! miniblocks of up to MINIBLOCK deltas, covering values[1..]:
//!   zigzag  min_delta            (frame of reference, wrapping arithmetic)
//!   u8      bit width            (0..=64, of delta - min_delta)
//!   bits    ceil(m * width / 8) bytes, m = deltas in this miniblock
//! ```
//!
//! Compared to the zigzag-varint delta stream ([`super::delta`]) this is
//! both smaller on uniformly distributed ids (no 1-bit-per-byte varint
//! framing tax) and several times faster to decode, which is why the writer
//! cost model prefers it whenever its estimated size is competitive.

use super::bitpack::{self, GROUP};
use super::varint;
use crate::error::{ColumnarError, Result};

/// Values per miniblock. A multiple of [`GROUP`] so every full miniblock
/// decodes through the word kernel alone.
pub const MINIBLOCK: usize = 128;

/// Derives one miniblock's frame: fills `deltas[..chunk.len()]`, advances
/// `prev` past the chunk, and returns `(min_delta, bit_width)`. The single
/// source of truth for the miniblock framing — [`encode_i64`] and
/// [`encoded_len`] both consume it, so the size estimate cannot drift from
/// the real encoder.
fn miniblock_frame(prev: &mut i64, chunk: &[i64], deltas: &mut [i64; MINIBLOCK]) -> (i64, u32) {
    let mut min_delta = i64::MAX;
    for (d, &v) in deltas.iter_mut().zip(chunk) {
        *d = v.wrapping_sub(*prev);
        min_delta = min_delta.min(*d);
        *prev = v;
    }
    let mut max_packed = 0u64;
    for &d in &deltas[..chunk.len()] {
        max_packed = max_packed.max(d.wrapping_sub(min_delta) as u64);
    }
    (min_delta, bitpack::width_for(max_packed))
}

/// Encodes `values` as first-value + delta-binary-packed miniblocks,
/// appending to `out`.
pub fn encode_i64(values: &[i64], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    let Some(&first) = values.first() else {
        return;
    };
    varint::write_i64(out, first);
    let mut prev = first;
    let mut deltas = [0i64; MINIBLOCK];
    let mut packed = [0u64; MINIBLOCK];
    for chunk in values[1..].chunks(MINIBLOCK) {
        let (min_delta, width) = miniblock_frame(&mut prev, chunk, &mut deltas);
        varint::write_i64(out, min_delta);
        out.push(width as u8);
        for (p, &d) in packed.iter_mut().zip(&deltas[..chunk.len()]) {
            *p = d.wrapping_sub(min_delta) as u64;
        }
        bitpack::pack(&packed[..chunk.len()], width, out).expect("packed deltas fit chosen width");
    }
}

/// Exact encoded size [`encode_i64`] would produce, without materializing
/// the stream. Used by the writer's cost model; shares the framing scan
/// with the encoder via `miniblock_frame`.
#[must_use]
pub fn encoded_len(values: &[i64]) -> usize {
    let mut total = varint::encoded_len_u64(values.len() as u64);
    let Some(&first) = values.first() else {
        return total;
    };
    total += varint::encoded_len_u64(varint::zigzag_encode(first));
    let mut prev = first;
    let mut deltas = [0i64; MINIBLOCK];
    for chunk in values[1..].chunks(MINIBLOCK) {
        let (min_delta, width) = miniblock_frame(&mut prev, chunk, &mut deltas);
        total += varint::encoded_len_u64(varint::zigzag_encode(min_delta)) + 1;
        total += bitpack::packed_len(chunk.len(), width);
    }
    total
}

/// Decodes a stream produced by [`encode_i64`], appending `expected` values
/// to `out`.
///
/// The stream's own count must equal `expected` (the caller knows it from
/// the page header); checking *before* any allocation means a corrupt count
/// can neither over-reserve nor over-produce.
///
/// # Errors
///
/// Returns [`ColumnarError::CountMismatch`] when the stream disagrees with
/// `expected`, [`ColumnarError::ValueOutOfRange`] for bit widths above 64
/// and [`ColumnarError::UnexpectedEof`] on truncation.
pub fn decode_i64_into(
    buf: &[u8],
    pos: &mut usize,
    expected: usize,
    out: &mut Vec<i64>,
) -> Result<()> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count != expected {
        return Err(ColumnarError::CountMismatch { declared: expected, actual: count });
    }
    if count == 0 {
        return Ok(());
    }
    out.reserve(count);
    let mut prev = varint::read_i64(buf, pos)?;
    out.push(prev);
    let mut remaining = count - 1;
    let mut packed = [0u64; GROUP];
    let mut decoded = [0i64; GROUP];
    while remaining > 0 {
        let m = remaining.min(MINIBLOCK);
        let min_delta = varint::read_i64(buf, pos)?;
        let Some(&width) = buf.get(*pos) else {
            return Err(ColumnarError::UnexpectedEof { context: "miniblock bit width" });
        };
        *pos += 1;
        let width = u32::from(width);
        if width > 64 {
            return Err(ColumnarError::ValueOutOfRange {
                detail: format!("miniblock bit width {width} exceeds 64"),
            });
        }
        let total_bytes = bitpack::packed_len(m, width);
        let Some(data) = pos.checked_add(total_bytes).and_then(|end| buf.get(*pos..end)) else {
            return Err(ColumnarError::UnexpectedEof { context: "miniblock payload" });
        };
        *pos += total_bytes;

        let mut done = 0usize;
        while done < m {
            let take = (m - done).min(GROUP);
            if take == GROUP && width > 0 {
                let start = done * width as usize / 8; // byte-aligned: done is a GROUP multiple
                bitpack::unpack_group(&data[start..start + 8 * width as usize], width, &mut packed);
            } else if width == 0 {
                packed[..take].fill(0);
            } else {
                let mut bit = (done * width as usize) as u64;
                for p in &mut packed[..take] {
                    *p = bitpack::read_bits(data, bit, width);
                    bit += u64::from(width);
                }
            }
            for (d, &p) in decoded.iter_mut().zip(&packed[..take]) {
                prev = prev.wrapping_add(min_delta).wrapping_add(p as i64);
                *d = prev;
            }
            out.extend_from_slice(&decoded[..take]);
            done += take;
        }
        remaining -= m;
    }
    Ok(())
}

/// Like [`decode_i64_into`], materializing only the elements covered by
/// `ranges` (sorted, non-overlapping, half-open element-index intervals) —
/// the prefix-pushdown path. Deltas are cumulative, so every miniblock up
/// to the last needed element is still decoded, but only in-range elements
/// are stored, and the decode hard-stops after the miniblock containing the
/// last needed one. (Lists long enough for whole miniblocks to fall between
/// two ranges are stored as head and tail pages — see [`crate::column`] —
/// and a prefix read never walks their tails at all.) The stream count
/// is validated against `expected` before any allocation, and a crafted
/// header cannot allocate beyond the ranges' total length — the same
/// [`super::MAX_PAGE_ELEMENTS`]-bounded budget discipline as the full
/// decode.
///
/// # Errors
///
/// Same as [`decode_i64_into`], plus [`ColumnarError::CorruptFile`] when a
/// range exceeds `expected`.
pub fn decode_i64_ranges(
    buf: &[u8],
    pos: &mut usize,
    expected: usize,
    ranges: &[(usize, usize)],
    out: &mut Vec<i64>,
) -> Result<()> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count != expected {
        return Err(ColumnarError::CountMismatch { declared: expected, actual: count });
    }
    let need = super::validate_ranges(ranges, count)?;
    if count == 0 || need == 0 {
        return Ok(());
    }
    out.reserve(need);
    let last_needed = ranges.last().map_or(0, |&(_, stop)| stop);
    let mut prev = varint::read_i64(buf, pos)?;
    let mut ranges = ranges.iter().copied().peekable();
    if let Some(&(start, stop)) = ranges.peek() {
        if start == 0 && stop > 0 {
            out.push(prev);
        }
    }
    let mut idx = 1usize; // element index of the next delta-coded value
    let mut remaining = count - 1;
    let mut packed = [0u64; GROUP];
    let mut decoded = [0i64; GROUP];
    while remaining > 0 && idx < last_needed {
        let m = remaining.min(MINIBLOCK);
        let min_delta = varint::read_i64(buf, pos)?;
        let Some(&width) = buf.get(*pos) else {
            return Err(ColumnarError::UnexpectedEof { context: "miniblock bit width" });
        };
        *pos += 1;
        let width = u32::from(width);
        if width > 64 {
            return Err(ColumnarError::ValueOutOfRange {
                detail: format!("miniblock bit width {width} exceeds 64"),
            });
        }
        let total_bytes = bitpack::packed_len(m, width);
        let Some(data) = pos.checked_add(total_bytes).and_then(|end| buf.get(*pos..end)) else {
            return Err(ColumnarError::UnexpectedEof { context: "miniblock payload" });
        };
        *pos += total_bytes;

        let mut done = 0usize;
        while done < m {
            let take = (m - done).min(GROUP);
            if take == GROUP && width > 0 {
                let start = done * width as usize / 8; // byte-aligned: done is a GROUP multiple
                bitpack::unpack_group(&data[start..start + 8 * width as usize], width, &mut packed);
            } else if width == 0 {
                packed[..take].fill(0);
            } else {
                let mut bit = (done * width as usize) as u64;
                for p in &mut packed[..take] {
                    *p = bitpack::read_bits(data, bit, width);
                    bit += u64::from(width);
                }
            }
            for (d, &p) in decoded.iter_mut().zip(&packed[..take]) {
                prev = prev.wrapping_add(min_delta).wrapping_add(p as i64);
                *d = prev;
            }
            // Gather the in-range overlap of elements [lo, lo + take).
            let lo = idx + done;
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
            done += take;
        }
        idx += m;
        remaining -= m;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64]) -> usize {
        let mut buf = Vec::new();
        encode_i64(values, &mut buf);
        assert_eq!(buf.len(), encoded_len(values), "size estimate must be exact");
        let mut pos = 0;
        let mut back = Vec::new();
        decode_i64_into(&buf, &mut pos, values.len(), &mut back).unwrap();
        assert_eq!(back, values);
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn empty_roundtrips() {
        assert_eq!(roundtrip(&[]), 1);
    }

    #[test]
    fn single_value_roundtrips() {
        roundtrip(&[42]);
        roundtrip(&[i64::MIN]);
    }

    #[test]
    fn monotonic_offsets_pack_tightly() {
        let values: Vec<i64> = (0..4096).map(|i| i * 20).collect();
        // Constant delta 20 → width 0 after frame-of-reference: ~3 bytes
        // per miniblock.
        let len = roundtrip(&values);
        assert!(len < 256, "constant-step offsets took {len} bytes");
    }

    #[test]
    fn random_vocab_ids_beat_varint_deltas() {
        // RM-style sparse ids: uniform in a 500k vocabulary.
        let mut x = 7u64;
        let values: Vec<i64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 500_000) as i64
            })
            .collect();
        let block_len = roundtrip(&values);
        let mut varint_buf = Vec::new();
        super::super::delta::encode_i64(&values, &mut varint_buf);
        assert!(block_len < varint_buf.len(), "block {block_len} >= varint {}", varint_buf.len());
    }

    #[test]
    fn extremes_roundtrip_via_wrapping() {
        roundtrip(&[i64::MIN, i64::MAX, 0, -1, 1, i64::MAX, i64::MIN]);
    }

    #[test]
    fn all_miniblock_boundaries_roundtrip() {
        for n in [1usize, 63, 64, 65, 127, 128, 129, 255, 256, 257, 384, 1000] {
            let values: Vec<i64> = (0..n as i64).map(|i| i * i - 7 * i).collect();
            roundtrip(&values);
        }
    }

    #[test]
    fn negative_walks_roundtrip() {
        let mut v = 0i64;
        let values: Vec<i64> = (0..777)
            .map(|i| {
                v = v.wrapping_add(if i % 3 == 0 { -1_000_003 } else { 13 });
                v
            })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn count_mismatch_is_an_error_before_decode() {
        let mut buf = Vec::new();
        encode_i64(&[1, 2, 3], &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(matches!(
            decode_i64_into(&buf, &mut pos, 4, &mut out),
            Err(ColumnarError::CountMismatch { .. })
        ));
        assert!(out.is_empty(), "mismatch must be detected before producing values");
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let values: Vec<i64> = (0..300).map(|i| i * 31 % 1000).collect();
        let mut buf = Vec::new();
        encode_i64(&values, &mut buf);
        for cut in 0..buf.len() {
            let mut out = Vec::new();
            let mut pos = 0;
            assert!(
                decode_i64_into(&buf[..cut], &mut pos, values.len(), &mut out).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn out_of_range_width_is_an_error() {
        // Hand-crafted stream: count=2, first=0, min_delta=0, width=200.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, 2);
        varint::write_i64(&mut bad, 0);
        varint::write_i64(&mut bad, 0);
        bad.push(200);
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(matches!(
            decode_i64_into(&bad, &mut pos, 2, &mut out),
            Err(ColumnarError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn huge_count_cannot_over_reserve() {
        // count = u64::MAX with no payload: the expected-count check fires
        // before any allocation.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, u64::MAX);
        let mut out = Vec::new();
        let mut pos = 0;
        assert!(decode_i64_into(&bad, &mut pos, 3, &mut out).is_err());
        assert_eq!(out.capacity(), 0);
    }
}
