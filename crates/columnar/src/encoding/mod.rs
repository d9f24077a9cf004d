//! Value encodings: plain, varint/delta, delta-bitpacked blocks,
//! RLE/bit-pack hybrid and dictionary.
//!
//! The writer picks an encoding per page based on estimated size (see
//! [`choose_i64_encoding`]); the page header records the choice so readers
//! can dispatch without configuration. The chooser can be overridden per
//! writer through [`crate::schema::WritePolicy`]; tests force each of
//! [`Encoding::ALL`] in turn that way.

pub mod bitpack;
pub mod block;
pub mod delta;
pub mod dictionary;
pub mod plain;
pub mod rle;
pub mod varint;

use crate::error::{ColumnarError, Result};

/// The encoding applied to one page's value stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Encoding {
    /// Fixed-width little-endian values.
    Plain,
    /// First value + zigzag varint deltas (integers only).
    Delta,
    /// Sorted dictionary + RLE-compressed indices (integers only).
    Dictionary,
    /// Delta-binary-packed miniblocks (integers only). See [`block`].
    DeltaBitpack,
}

impl Encoding {
    /// Every encoding, in on-disk tag order.
    pub const ALL: [Encoding; 4] =
        [Encoding::Plain, Encoding::Delta, Encoding::Dictionary, Encoding::DeltaBitpack];

    /// Stable on-disk tag.
    pub(crate) fn to_tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Delta => 1,
            Encoding::Dictionary => 2,
            Encoding::DeltaBitpack => 3,
        }
    }

    /// Inverse of [`Encoding::to_tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Encoding::Plain),
            1 => Ok(Encoding::Delta),
            2 => Ok(Encoding::Dictionary),
            3 => Ok(Encoding::DeltaBitpack),
            other => {
                Err(ColumnarError::CorruptFile { detail: format!("unknown encoding tag {other}") })
            }
        }
    }

    /// Name for diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Delta => "delta",
            Encoding::Dictionary => "dictionary",
            Encoding::DeltaBitpack => "delta_bitpack",
        }
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hard sanity ceiling on the element count any single page, column chunk
/// or bare self-describing stream may declare: 2^28 ≈ 268M values (2 GiB
/// of `i64`), orders of magnitude above any legitimate partition column.
///
/// RLE-class encodings legitimately expand (one run header can encode
/// millions of repeats from a handful of bytes), so input-proportional
/// clamps cannot bound their output; this ceiling is what stops a crafted
/// count — per page *or* amplified across many tiny pages of one chunk —
/// from driving `extend`-style growth into an allocation abort. The writer
/// enforces the same limit per chunk, so the bound never rejects real
/// data.
pub const MAX_PAGE_ELEMENTS: usize = 1 << 28;

/// Values inspected exactly before the cost model switches to sampling.
const SAMPLE_EXACT: usize = 1024;

/// Gap samples taken from large pages when estimating varint delta size.
const GAP_SAMPLES: usize = 256;

/// Miniblocks measured from large pages when estimating bitpacked size.
const MINIBLOCK_SAMPLES: usize = 8;

/// Distinct-ratio sample used to pre-screen dictionary viability.
const DICT_SAMPLE: usize = 128;

/// Picks the cheapest encoding for an integer page by estimating sizes.
///
/// Sample-based: pages up to `SAMPLE_EXACT` (1024) values are costed exactly;
/// larger pages extrapolate varint size from strided delta samples,
/// bitpacked size from a handful of real miniblocks, and dictionary
/// viability from a distinct-ratio sample (so the chooser itself stays off
/// the write hot path's O(n log n) floor). Plain is the fallback, and ties
/// between the delta family go to [`Encoding::DeltaBitpack`], whose decode
/// is several times faster than the varint loop.
#[must_use]
pub fn choose_i64_encoding(values: &[i64]) -> Encoding {
    if values.is_empty() {
        return Encoding::Plain;
    }
    let n = values.len();
    let plain_len = n * 8;

    let (delta_len, bitpack_len) = if n <= SAMPLE_EXACT {
        (exact_delta_varint_len(values), block::encoded_len(values))
    } else {
        (sampled_delta_varint_len(values), sampled_bitpack_len(values))
    };

    let dict_len =
        if dictionary_plausible(values) { dictionary::estimated_len(values) } else { usize::MAX };

    let best_delta =
        if bitpack_len <= delta_len { Encoding::DeltaBitpack } else { Encoding::Delta };
    let best_delta_len = bitpack_len.min(delta_len);
    if dict_len <= best_delta_len && dict_len < plain_len {
        Encoding::Dictionary
    } else if best_delta_len < plain_len {
        best_delta
    } else {
        Encoding::Plain
    }
}

/// Exact byte count of the zigzag-varint delta stream.
fn exact_delta_varint_len(values: &[i64]) -> usize {
    let mut total = varint::encoded_len_u64(values.len() as u64)
        + varint::encoded_len_u64(varint::zigzag_encode(values[0]));
    for w in values.windows(2) {
        total += varint::encoded_len_u64(varint::zigzag_encode(w[1].wrapping_sub(w[0])));
    }
    total
}

/// Varint delta size extrapolated from [`GAP_SAMPLES`] strided gaps.
fn sampled_delta_varint_len(values: &[i64]) -> usize {
    let gaps = values.len() - 1;
    let stride = (gaps / GAP_SAMPLES).max(1);
    let mut sampled_bytes = 0usize;
    let mut sampled = 0usize;
    let mut i = 1;
    while i < values.len() {
        sampled_bytes +=
            varint::encoded_len_u64(varint::zigzag_encode(values[i].wrapping_sub(values[i - 1])));
        sampled += 1;
        i += stride;
    }
    let header = varint::encoded_len_u64(values.len() as u64)
        + varint::encoded_len_u64(varint::zigzag_encode(values[0]));
    header + sampled_bytes * gaps / sampled.max(1)
}

/// Delta-bitpacked size extrapolated from [`MINIBLOCK_SAMPLES`] real
/// miniblocks spread across the page.
fn sampled_bitpack_len(values: &[i64]) -> usize {
    let miniblocks = (values.len() - 1).div_ceil(block::MINIBLOCK).max(1);
    let step = (miniblocks / MINIBLOCK_SAMPLES).max(1);
    let mut sampled_bytes = 0usize;
    let mut sampled = 0usize;
    let mut mb = 0usize;
    while mb < miniblocks {
        let start = 1 + mb * block::MINIBLOCK;
        let end = (start + block::MINIBLOCK).min(values.len());
        // Cost one miniblock exactly: min-delta varint + width byte + bits.
        let mut min_delta = i64::MAX;
        for w in values[start - 1..end].windows(2) {
            min_delta = min_delta.min(w[1].wrapping_sub(w[0]));
        }
        let mut max_packed = 0u64;
        for w in values[start - 1..end].windows(2) {
            max_packed = max_packed.max(w[1].wrapping_sub(w[0]).wrapping_sub(min_delta) as u64);
        }
        sampled_bytes += varint::encoded_len_u64(varint::zigzag_encode(min_delta))
            + 1
            + bitpack::packed_len(end - start, bitpack::width_for(max_packed));
        sampled += 1;
        mb += step;
    }
    let header = varint::encoded_len_u64(values.len() as u64)
        + varint::encoded_len_u64(varint::zigzag_encode(values[0]));
    header + sampled_bytes * miniblocks / sampled.max(1)
}

/// Cheap pre-screen: dictionary encoding only pays off when the distinct
/// ratio is low, which a small strided sample detects reliably.
fn dictionary_plausible(values: &[i64]) -> bool {
    if values.len() <= DICT_SAMPLE {
        return true;
    }
    let stride = (values.len() / DICT_SAMPLE).max(1);
    let mut sample: Vec<i64> = values.iter().step_by(stride).copied().collect();
    let n = sample.len();
    sample.sort_unstable();
    sample.dedup();
    // More than ~60% distinct in the sample: the dictionary would be nearly
    // as large as the data; skip the exact O(n log n) costing.
    sample.len() * 10 <= n * 6
}

/// Encodes an integer slice with the given encoding, appending to `out`.
pub fn encode_i64(encoding: Encoding, values: &[i64], out: &mut Vec<u8>) {
    match encoding {
        Encoding::Plain => plain::encode_i64(values, out),
        Encoding::Delta => delta::encode_i64(values, out),
        Encoding::Dictionary => dictionary::encode_i64(values, out),
        Encoding::DeltaBitpack => block::encode_i64(values, out),
    }
}

/// Decodes `count` integers written by [`encode_i64`], appending to a
/// caller-owned buffer. Every encoding validates `count` against its own
/// stream metadata *before* decoding (and clamps any preallocation to what
/// the remaining input could hold), so corrupt counts surface as errors
/// instead of oversized reservations.
///
/// # Errors
///
/// Propagates decode errors; returns [`ColumnarError::CountMismatch`] when the
/// self-describing encodings disagree with `count`.
pub fn decode_i64_into(
    encoding: Encoding,
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<i64>,
) -> Result<()> {
    decode_i64_with(encoding, buf, pos, count, &mut dictionary::DictScratch::default(), out)
}

/// [`decode_i64_into`] staging a dictionary page's dictionary and indices in
/// the caller's recycled `dict` — what the chunk decoder calls, so that a
/// warm read allocates its outputs and nothing else under every encoding.
///
/// # Errors
///
/// Same as [`decode_i64_into`].
pub fn decode_i64_with(
    encoding: Encoding,
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    dict: &mut dictionary::DictScratch,
    out: &mut Vec<i64>,
) -> Result<()> {
    let base = out.len();
    match encoding {
        Encoding::Plain => plain::decode_i64_into(buf, pos, count, out)?,
        Encoding::Delta => delta::decode_i64_into(buf, pos, count, out)?,
        Encoding::Dictionary => dictionary::decode_i64_into(buf, pos, count, dict, out)?,
        Encoding::DeltaBitpack => block::decode_i64_into(buf, pos, count, out)?,
    }
    debug_assert_eq!(out.len() - base, count);
    Ok(())
}

/// Validates prefix-pushdown `ranges` against a stream of `count` elements:
/// sorted, non-overlapping, half-open, every bound within `count`. Returns
/// the total number of covered elements — the exact (and, because every
/// range lies inside a [`MAX_PAGE_ELEMENTS`]-bounded stream, safely bounded)
/// output reservation for a ranged decode.
///
/// # Errors
///
/// Returns [`ColumnarError::CorruptFile`] on any malformed range.
pub(crate) fn validate_ranges(ranges: &[(usize, usize)], count: usize) -> Result<usize> {
    let mut need = 0usize;
    let mut cursor = 0usize;
    for &(start, stop) in ranges {
        if start < cursor || stop < start || stop > count {
            return Err(ColumnarError::CorruptFile {
                detail: format!(
                    "decode range {start}..{stop} invalid for a {count}-element stream"
                ),
            });
        }
        need += stop - start;
        cursor = stop;
    }
    Ok(need)
}

/// Decodes only the elements of `ranges` (sorted, non-overlapping, half-open
/// element-index intervals) from a stream written by [`encode_i64`],
/// appending them to `out` in order — the prefix-pushdown decode. Plain
/// pages gather by direct byte-range slicing; the sequential delta codecs
/// skip storing out-of-range elements and hard-stop after the last needed
/// one; dictionary pages decode their dictionary and index stream into the
/// recycled `dict` staging and look up the in-range indices only. `*pos` is
/// **not** guaranteed to advance past the whole stream — callers frame
/// pages via the page header, not the codec.
///
/// Every encoding validates `count` against its own stream metadata before
/// reserving, and the reservation is bounded by the ranges' covered length,
/// so a crafted stream can neither over-allocate nor over-produce.
///
/// # Errors
///
/// Same as [`decode_i64_into`], plus [`ColumnarError::CorruptFile`] for
/// malformed ranges.
pub fn decode_i64_ranges(
    encoding: Encoding,
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    ranges: &[(usize, usize)],
    dict: &mut dictionary::DictScratch,
    out: &mut Vec<i64>,
) -> Result<()> {
    let base = out.len();
    let need = validate_ranges(ranges, count)?;
    match encoding {
        Encoding::Plain => plain::decode_i64_ranges(buf, pos, count, ranges, out)?,
        Encoding::Delta => delta::decode_i64_ranges(buf, pos, count, ranges, out)?,
        Encoding::DeltaBitpack => block::decode_i64_ranges(buf, pos, count, ranges, out)?,
        Encoding::Dictionary => {
            dictionary::decode_i64_ranges(buf, pos, count, ranges, dict, out)?;
        }
    }
    debug_assert_eq!(out.len() - base, need);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for (tag, e) in Encoding::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(e.to_tag()), tag);
            assert_eq!(Encoding::from_tag(e.to_tag()).unwrap(), e);
        }
        assert!(Encoding::from_tag(200).is_err());
    }

    #[test]
    fn chooser_prefers_dictionary_for_low_cardinality() {
        let values: Vec<i64> = (0..4096).map(|i| (i % 8) as i64 * 1_000_003).collect();
        assert_eq!(choose_i64_encoding(&values), Encoding::Dictionary);
    }

    #[test]
    fn chooser_prefers_delta_bitpack_for_monotonic() {
        // Constant step: the frame-of-reference miniblocks collapse to
        // width 0, beating the byte-per-delta varint stream.
        let values: Vec<i64> = (0..4096).map(|i| i * 17).collect();
        assert_eq!(choose_i64_encoding(&values), Encoding::DeltaBitpack);
    }

    #[test]
    fn chooser_prefers_delta_bitpack_for_vocab_ids() {
        // Uniform ids in a 500k vocabulary — the RM sparse-feature shape.
        let mut x = 3u64;
        let values: Vec<i64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 500_000) as i64
            })
            .collect();
        assert_eq!(choose_i64_encoding(&values), Encoding::DeltaBitpack);
    }

    #[test]
    fn sampled_and_exact_cost_models_agree_on_shape() {
        // A page just above the exact-costing threshold must still pick the
        // same encoding as its exactly-costed prefix.
        let values: Vec<i64> = (0..(SAMPLE_EXACT as i64 * 4)).map(|i| i * 11 + (i % 5)).collect();
        assert_eq!(choose_i64_encoding(&values), choose_i64_encoding(&values[..SAMPLE_EXACT]),);
    }

    #[test]
    fn chooser_falls_back_to_plain_for_noise() {
        // Large pseudo-random 63-bit values: no structure to exploit.
        let mut x = 0x9e3779b97f4a7c15u64;
        let values: Vec<i64> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 1) as i64 * if x & 1 == 0 { 1 } else { -1 }
            })
            .collect();
        assert_eq!(choose_i64_encoding(&values), Encoding::Plain);
    }

    #[test]
    fn all_encodings_roundtrip_same_data() {
        let values: Vec<i64> = (0..1000).map(|i| (i % 50) * 3 - 20).collect();
        for e in Encoding::ALL {
            let mut buf = Vec::new();
            encode_i64(e, &values, &mut buf);
            let mut back = Vec::new();
            decode_i64_into(e, &buf, &mut 0, values.len(), &mut back).unwrap();
            assert_eq!(back, values, "{e}");
        }
    }

    #[test]
    fn count_mismatch_detected() {
        let mut buf = Vec::new();
        encode_i64(Encoding::Delta, &[1, 2, 3], &mut buf);
        assert!(matches!(
            decode_i64_into(Encoding::Delta, &buf, &mut 0, 4, &mut Vec::new()),
            Err(ColumnarError::CountMismatch { .. })
        ));
    }

    /// Ranged decode must equal gathering the same ranges from a full decode,
    /// for every encoding and for range shapes that exercise miniblock /
    /// varint-group boundaries, the first element, singletons, and tails.
    #[test]
    fn ranged_decode_matches_full_decode_gather() {
        let dict = &mut dictionary::DictScratch::default();
        let values: Vec<i64> = (0..1000).map(|i| (i * 37) % 450 - 20).collect();
        let range_sets: &[&[(usize, usize)]] = &[
            &[],
            &[(0, 1)],
            &[(0, 1000)],
            &[(999, 1000)],
            &[(0, 3), (5, 9), (700, 701)],
            &[(126, 130), (254, 258)], // straddles 128-miniblock boundaries
            &[(63, 65), (191, 193)],   // straddles 64-group boundaries
            &[(0, 8), (128, 136), (512, 520), (992, 1000)],
            &[(500, 500), (600, 608)], // empty range is legal
            &[(0, 0), (5, 9)],         // leading empty range must not emit element 0
        ];
        for e in Encoding::ALL {
            let mut buf = Vec::new();
            encode_i64(e, &values, &mut buf);
            for ranges in range_sets {
                let mut out = Vec::new();
                let mut pos = 0;
                decode_i64_ranges(e, &buf, &mut pos, values.len(), ranges, dict, &mut out)
                    .unwrap_or_else(|err| panic!("{e} {ranges:?}: {err}"));
                let expect: Vec<i64> =
                    ranges.iter().flat_map(|&(s, t)| values[s..t].iter().copied()).collect();
                assert_eq!(out, expect, "{e} {ranges:?}");
            }
        }
    }

    #[test]
    fn ranged_decode_handles_tiny_streams() {
        let dict = &mut dictionary::DictScratch::default();
        for n in [0usize, 1, 2, 63, 64, 65, 127, 128, 129] {
            let values: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
            for e in Encoding::ALL {
                let mut buf = Vec::new();
                encode_i64(e, &values, &mut buf);
                let mut out = Vec::new();
                let mut pos = 0;
                let take = n.min(2);
                decode_i64_ranges(e, &buf, &mut pos, n, &[(0, take)], dict, &mut out).unwrap();
                assert_eq!(out, values[..take], "{e} n={n}");
            }
        }
    }

    #[test]
    fn malformed_ranges_are_rejected_without_allocating() {
        let dict = &mut dictionary::DictScratch::default();
        let values: Vec<i64> = (0..100).collect();
        // Unsorted, overlapping, inverted, and out-of-bounds range lists.
        let bad: &[&[(usize, usize)]] =
            &[&[(5, 10), (0, 3)], &[(0, 10), (5, 20)], &[(10, 5)], &[(90, 101)], &[(101, 101)]];
        for e in Encoding::ALL {
            let mut buf = Vec::new();
            encode_i64(e, &values, &mut buf);
            for ranges in bad {
                let mut out = Vec::new();
                let mut pos = 0;
                assert!(matches!(
                    decode_i64_ranges(e, &buf, &mut pos, values.len(), ranges, dict, &mut out),
                    Err(ColumnarError::CorruptFile { .. })
                ));
                assert_eq!(out.capacity(), 0, "{e} {ranges:?} reserved before validation");
            }
        }
    }

    /// A stream whose declared count disagrees with the caller's expectation
    /// must fail before any reservation on the ranged path too — the ranges
    /// cannot widen the budget a corrupt header would otherwise claim.
    #[test]
    fn ranged_decode_checks_stream_count_before_allocating() {
        let dict = &mut dictionary::DictScratch::default();
        for e in Encoding::ALL {
            let mut buf = Vec::new();
            encode_i64(e, &(0..16).collect::<Vec<i64>>(), &mut buf);
            let mut out = Vec::new();
            let mut pos = 0;
            let err =
                decode_i64_ranges(e, &buf, &mut pos, 1 << 27, &[(0, 1 << 27)], dict, &mut out);
            assert!(err.is_err(), "{e}");
            assert_eq!(out.capacity(), 0, "{e} reserved before count validation");
        }
    }
}
