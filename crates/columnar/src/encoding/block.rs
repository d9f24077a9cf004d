//! Delta-binary-packed blocks: the batched sparse-id/offset codec.
//!
//! The Parquet `DELTA_BINARY_PACKED` idea adapted to this crate: deltas are
//! grouped into miniblocks of [`MINIBLOCK`] values, each miniblock carries
//! its own frame-of-reference (`min_delta`) and bit width, and the packed
//! bits decode through the width-specialized group kernel
//! [`super::bitpack::unpack_group`]: 64 values per step, eight byte-aligned
//! sub-groups of eight values in `width` bytes each, one word load per
//! value. One miniblock walk sits under both decodes and hands each
//! decoded group to its caller: the full decode prefix-sums it straight
//! into the output, the ranged decode gathers its ranges from it.
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

/// Values per miniblock. A multiple of [`GROUP`], so only a stream's last
/// miniblock can end in a partial group.
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
/// can neither over-reserve nor over-produce. The prefix sum writes each
/// decoded group straight into `out`'s reserved tail.
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
    let count = read_count(buf, pos, expected)?;
    if count == 0 {
        return Ok(());
    }
    out.reserve(count);
    let mut prev = varint::read_i64(buf, pos)?;
    out.push(prev);
    walk(buf, pos, count, count, |_, min_delta, deltas| {
        // A local running sum: `prev` itself is a captured reference the
        // compiler keeps in memory, one store-to-load round trip a value.
        let mut sum = prev;
        out.extend(deltas.iter().map(|&d| {
            sum = sum.wrapping_add(min_delta.wrapping_add(d as i64));
            sum
        }));
        prev = sum;
    })
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
    let count = read_count(buf, pos, expected)?;
    let need = super::validate_ranges(ranges, count)?;
    if count == 0 || need == 0 {
        return Ok(());
    }
    out.reserve(need);
    let stop = ranges.last().map_or(0, |&(_, stop)| stop);
    let mut ranges = ranges.iter().copied().peekable();
    // Appends the in-range overlap of elements [lo, lo + values.len()).
    let mut gather = |lo: usize, values: &[i64]| {
        let hi = lo + values.len();
        while let Some(&(start, stop)) = ranges.peek() {
            if start >= hi {
                break;
            }
            let (s, e) = (start.max(lo), stop.min(hi));
            if s < e {
                out.extend_from_slice(&values[s - lo..e - lo]);
            }
            if stop > hi {
                break;
            }
            let _ = ranges.next();
        }
    };
    let mut prev = varint::read_i64(buf, pos)?;
    gather(0, &[prev]);
    let mut decoded = [0i64; GROUP];
    walk(buf, pos, count, stop, |lo, min_delta, deltas| {
        let decoded = &mut decoded[..deltas.len()];
        let mut sum = prev;
        for (v, &d) in decoded.iter_mut().zip(deltas) {
            sum = sum.wrapping_add(min_delta.wrapping_add(d as i64));
            *v = sum;
        }
        prev = sum;
        gather(lo, decoded);
    })
}

/// Reads the stream's value count, which must equal `expected`.
fn read_count(buf: &[u8], pos: &mut usize, expected: usize) -> Result<usize> {
    let count = varint::read_u64(buf, pos)? as usize;
    if count != expected {
        return Err(ColumnarError::CountMismatch { declared: expected, actual: count });
    }
    Ok(count)
}

/// The one miniblock walk under both decodes: reads the miniblocks of a
/// `count`-value stream (positioned after its first value) up to the one
/// holding element `stop - 1`, and hands each group of up to [`GROUP`]
/// deltas to `group` as `(element index of its first value, min_delta,
/// frame-relative deltas)`.
fn walk(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    stop: usize,
    mut group: impl FnMut(usize, i64, &[u64]),
) -> Result<()> {
    let mut idx = 1usize; // element index of the next delta-coded value
    while idx < stop {
        let m = (count - idx).min(MINIBLOCK);
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
        let mut lo = idx;
        bitpack::for_each_group(data, m, width, |deltas| {
            group(lo, min_delta, deltas);
            lo += deltas.len();
        });
        idx += m;
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

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// The reference the kernel is checked against: `width` bits from bit
    /// `bit` of `data`, LSB-first, one bit at a time.
    fn read_bits_naive(data: &[u8], bit: usize, width: u32) -> u64 {
        (0..width as usize)
            .map(|b| u64::from(data[(bit + b) / 8] >> ((bit + b) % 8) & 1) << b)
            .fold(0, |v, b| v | b)
    }

    /// Every width 0..=64, every group-tail length 0..64, through each of
    /// the kernel's callers: `unpack_into` (three full groups plus the
    /// tail), the full block decode and the ranged block decode (a full
    /// miniblock, then a full group and the tail), all against the naive
    /// reader; the ranged decode must equal the full decode gathered.
    #[test]
    fn kernel_matches_a_bit_at_a_time_reader_at_every_width_and_tail() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for width in 0..=64u32 {
            let mask = ((1u128 << width) - 1) as u64;
            for tail in 0..GROUP {
                let n = 3 * GROUP + tail;
                let values: Vec<u64> = (0..n).map(|_| xorshift(&mut x) & mask).collect();
                let mut packed = Vec::new();
                bitpack::pack(&values, width, &mut packed).unwrap();
                let naive: Vec<u64> =
                    (0..n).map(|i| read_bits_naive(&packed, i * width as usize, width)).collect();
                assert_eq!(naive, values, "pack, width {width}");
                let mut got = vec![7];
                bitpack::unpack_into(&packed, &mut 0, n, width, &mut got).unwrap();
                assert_eq!(got[1..], naive, "unpack_into, width {width} tail {tail}");

                // One stream of n + 1 values: the first, then n deltas of
                // `width` bits over one frame of reference.
                let (first, min_delta) = (xorshift(&mut x) as i64, xorshift(&mut x) as i64);
                let mut stream = Vec::new();
                varint::write_u64(&mut stream, n as u64 + 1);
                varint::write_i64(&mut stream, first);
                let mut expect = vec![first];
                for chunk in values.chunks(MINIBLOCK) {
                    varint::write_i64(&mut stream, min_delta);
                    stream.push(width as u8);
                    let at = stream.len();
                    bitpack::pack(chunk, width, &mut stream).unwrap();
                    for i in 0..chunk.len() {
                        let d = read_bits_naive(&stream[at..], i * width as usize, width);
                        let prev = expect[expect.len() - 1];
                        expect.push(prev.wrapping_add(min_delta.wrapping_add(d as i64)));
                    }
                }
                let mut full = Vec::new();
                decode_i64_into(&stream, &mut 0, n + 1, &mut full).unwrap();
                assert_eq!(full, expect, "full decode, width {width} tail {tail}");

                let mut cuts: Vec<usize> =
                    (0..6).map(|_| xorshift(&mut x) as usize % (n + 2)).collect();
                cuts.sort_unstable();
                let ranges: Vec<(usize, usize)> = cuts.chunks(2).map(|c| (c[0], c[1])).collect();
                let mut ranged = Vec::new();
                decode_i64_ranges(&stream, &mut 0, n + 1, &ranges, &mut ranged).unwrap();
                let gathered: Vec<i64> =
                    ranges.iter().flat_map(|&(s, e)| full[s..e].iter().copied()).collect();
                assert_eq!(ranged, gathered, "ranged decode, width {width} ranges {ranges:?}");
            }
        }
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
