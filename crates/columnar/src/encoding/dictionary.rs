//! Dictionary encoding for low-cardinality integer columns.
//!
//! Distinct values are collected into a dictionary (delta-encoded, since it is
//! stored sorted) and the data stream becomes dictionary indices compressed
//! with the RLE/bit-pack hybrid. Categorical RecSys features with a few
//! thousand distinct ids compress by an order of magnitude this way.

use super::{delta, rle};
use crate::error::{ColumnarError, Result};
use std::collections::BTreeMap;

/// Encodes `values` as a sorted dictionary plus RLE-compressed indices.
pub fn encode_i64(values: &[i64], out: &mut Vec<u8>) {
    let mut dict: BTreeMap<i64, u64> = BTreeMap::new();
    for &v in values {
        let next = dict.len() as u64;
        dict.entry(v).or_insert(next);
    }
    // Re-number so indices follow sorted order (BTreeMap iterates sorted);
    // sorted dictionaries delta-encode tightly.
    let sorted: Vec<i64> = dict.keys().copied().collect();
    for (rank, key) in sorted.iter().enumerate() {
        *dict.get_mut(key).expect("key present") = rank as u64;
    }
    delta::encode_i64(&sorted, out);
    let indices: Vec<u64> = values.iter().map(|v| dict[v]).collect();
    rle::encode(&indices, out);
}

/// Recycled staging of the dictionary decode: the page's dictionary and
/// its index stream.
#[derive(Debug, Default)]
pub struct DictScratch {
    dict: Vec<i64>,
    indices: Vec<u64>,
}

/// Decodes a stream produced by [`encode_i64`], appending `expected` values
/// into a caller-owned buffer; the index stream's declared count must equal
/// `expected`. Dictionary and indices are staged in `scratch`, so a caller
/// that recycles it allocates nothing here.
///
/// # Errors
///
/// Returns [`ColumnarError::CorruptFile`] when an index exceeds the
/// dictionary and [`ColumnarError::CountMismatch`] when the stream disagrees
/// with `expected`, plus any underlying decode error.
pub fn decode_i64_into(
    buf: &[u8],
    pos: &mut usize,
    expected: usize,
    scratch: &mut DictScratch,
    out: &mut Vec<i64>,
) -> Result<()> {
    decode_i64_ranges(buf, pos, expected, &[(0, expected)], scratch, out)
}

/// Like [`decode_i64_into`], appending only the elements of `ranges`
/// (already validated against `expected` by the caller). The dictionary and
/// the index stream still decode whole — RLE runs have no random access —
/// and only in-range indices are looked up.
///
/// # Errors
///
/// Same as [`decode_i64_into`]; an out-of-range index outside every range
/// is not looked at.
pub fn decode_i64_ranges(
    buf: &[u8],
    pos: &mut usize,
    expected: usize,
    ranges: &[(usize, usize)],
    scratch: &mut DictScratch,
    out: &mut Vec<i64>,
) -> Result<()> {
    let DictScratch { dict, indices } = scratch;
    dict.clear();
    indices.clear();
    delta::decode_i64_appending(buf, pos, dict)?;
    rle::decode_into(buf, pos, Some(expected), indices)?;
    out.reserve(ranges.iter().map(|&(start, stop)| stop - start).sum());
    ranges.iter().try_for_each(|&(start, stop)| lookup_into(dict, &indices[start..stop], out))
}

/// Maps indices through the dictionary, validating range.
fn lookup_into(dict: &[i64], indices: &[u64], out: &mut Vec<i64>) -> Result<()> {
    for &idx in indices {
        let v = dict.get(idx as usize).copied().ok_or_else(|| ColumnarError::CorruptFile {
            detail: format!("dictionary index {idx} out of range ({} entries)", dict.len()),
        })?;
        out.push(v);
    }
    Ok(())
}

/// Estimated encoded size, used by the writer to pick an encoding.
#[must_use]
pub fn estimated_len(values: &[i64]) -> usize {
    let mut distinct: Vec<i64> = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    // Exact delta-encoded dictionary size (it is stored sorted).
    let mut dict_len = 1; // count varint (approx)
    let mut prev = 0i64;
    for (i, &v) in distinct.iter().enumerate() {
        let delta = if i == 0 { v } else { v.wrapping_sub(prev) };
        dict_len += super::varint::encoded_len_u64(super::varint::zigzag_encode(delta));
        prev = v;
    }
    let width = super::bitpack::width_for(distinct.len().saturating_sub(1) as u64);
    dict_len + super::bitpack::packed_len(values.len(), width) + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64]) -> usize {
        let mut buf = Vec::new();
        encode_i64(values, &mut buf);
        let (mut pos, mut back) = (0, Vec::new());
        decode_i64_into(&buf, &mut pos, values.len(), &mut DictScratch::default(), &mut back)
            .unwrap();
        assert_eq!(back, values);
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn empty_roundtrips() {
        roundtrip(&[]);
    }

    #[test]
    fn single_value_repeated() {
        let len = roundtrip(&vec![42i64; 10_000]);
        assert!(len < 32, "10k copies of one value took {len} bytes");
    }

    #[test]
    fn low_cardinality_compresses() {
        let values: Vec<i64> = (0..8192).map(|i| ((i * 37) % 16) as i64 * 1000).collect();
        let len = roundtrip(&values);
        assert!(len < 8192, "16-distinct column took {len} bytes");
    }

    #[test]
    fn high_cardinality_still_roundtrips() {
        let values: Vec<i64> = (0..2000).map(|i| i * 7919 - 1_000_000).collect();
        roundtrip(&values);
    }

    #[test]
    fn negative_values_roundtrip() {
        roundtrip(&[-5, -5, 3, -5, 3, i64::MIN, i64::MAX, -5]);
    }

    #[test]
    fn corrupt_index_detected() {
        let mut buf = Vec::new();
        // Dictionary with one entry, then hand-craft an index stream with 7.
        delta::encode_i64(&[10], &mut buf);
        rle::encode(&[7], &mut buf);
        let decoded =
            decode_i64_into(&buf, &mut 0, 1, &mut DictScratch::default(), &mut Vec::new());
        assert!(matches!(decoded, Err(ColumnarError::CorruptFile { .. })));
    }

    #[test]
    fn estimate_tracks_reality_loosely() {
        let values: Vec<i64> = (0..4096).map(|i| (i % 100) as i64).collect();
        let mut buf = Vec::new();
        encode_i64(&values, &mut buf);
        let est = estimated_len(&values);
        assert!(est >= buf.len() / 4 && est <= buf.len() * 4, "est {est} real {}", buf.len());
    }
}
