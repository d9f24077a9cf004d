//! Pages: the unit of encoding and checksumming inside a column chunk
//! (unchanged since format version 2; current container magic `PSTOCOL4`,
//! whose footer additionally records each chunk's page count — see
//! [`crate::file`] for the footer layout and [`crate::stats::ColumnStats`]
//! for the per-chunk entry).
//!
//! Layout of one page:
//!
//! ```text
//! u8       encoding tag (value stream encoding)
//! u8       compression tag (None | Lz)
//! varint   row count
//! varint   element count (== row count for scalar columns)
//! varint   stored payload length in bytes
//! u32 LE   CRC-32 of the stored payload
//! pad      zero bytes up to the next PAYLOAD_ALIGN file boundary
//! payload  [lists only: RLE row-length stream, value encoding tag,
//!          zero bytes up to the next PAYLOAD_ALIGN payload boundary]
//!          value stream, optionally LZ-compressed
//! ```
//!
//! A long list column's chunk is written in two parts (see
//! [`crate::column`]), each made of pages with this same header under their
//! own CRC:
//!
//! ```text
//! head page  rows = the page's rows, elements = Σ min(len, K)
//!            payload: RLE row-length stream (the full lengths), varint K,
//!            value encoding tag, padding, the first min(len, K) values of
//!            every list back to back
//! tail page  rows = the rows it continues, elements = Σ (len − min(len, K))
//!            payload: the value stream alone, encoded as the header says
//! ```
//!
//! so what a head page's header counts is what its payload holds, and K is
//! covered by the page checksum.
//!
//! Encoding tags: `0` plain, `1` delta-varint, `2` dictionary, `3`
//! delta-bitpacked miniblocks ([`crate::encoding::block`]: per-miniblock
//! frame-of-reference + bit width, 128 values each, decoded 64 at a time
//! through word loads). Tag 3 is new in version 3; the page layout is
//! otherwise identical to version 2, so the current reader accepts v2 and
//! v3 files unchanged — a v2 file simply never uses tag 3, and versions
//! differ only in their footer stats layout (v4 adds page and null-row
//! counts per chunk).
//!
//! Which encoding and compression a page gets is decided per *column* by
//! [`crate::schema::WritePolicy`]: a sample-based cost model picks the
//! integer encoding, and hot column types (sparse ids, labels/offsets) skip
//! LZ compression ("uncompressed-if-hot") so they stay lazy-decodable.
//!
//! Both paddings are *recomputed* by the reader from its position (they are
//! never stored), so they cost at most `PAYLOAD_ALIGN - 1` bytes each and no
//! metadata. Their purpose is **lazy plain-page decode**: with the payload
//! and the list value stream pinned to 8-byte file offsets, a reader over an
//! in-memory blob ([`crate::BlobRead::as_shared`]) can hand out
//! [`crate::Buffer`] views that alias the stored bytes directly.
//!
//! This module writes pages and takes them apart — `read_page_header`
//! (parse, bound, checksum), `page_payload` (decompress) and
//! `read_list_prefix` (a list payload's length stream, K and value
//! encoding) — and decodes nothing: what becomes of a page's values is
//! decided per chunk, by the one decoder in [`crate::column`].

use crate::array::Array;
use crate::checksum::crc32;
use crate::compress::{self, Compression};
use crate::encoding::{self, rle, varint, Encoding};
use crate::error::{ColumnarError, Result};
use crate::schema::{DataType, WritePolicy};

/// Default number of rows the writer packs into one page.
pub const DEFAULT_PAGE_ROWS: usize = 4096;

/// File-offset alignment the writer gives every page payload and list value
/// stream; 8 covers every [`crate::PlainValue`] type.
pub const PAYLOAD_ALIGN: usize = 8;

/// Zero bytes needed to advance `pos` to the next [`PAYLOAD_ALIGN`] boundary.
#[inline]
fn padding_for(pos: u64) -> usize {
    let align = PAYLOAD_ALIGN as u64;
    ((align - pos % align) % align) as usize
}

/// Encodes `array` (already sliced to page size by the caller) into `out`
/// under a [`WritePolicy`]: the policy picks the integer encoding (cost model
/// or forced) and decides per column type whether the payload is
/// LZ-compressed, which is kept only when it makes the page smaller. Returns
/// the encoding that was chosen.
///
/// # Errors
///
/// Returns [`ColumnarError::ValueOutOfRange`] for a page past
/// [`encoding::MAX_PAGE_ELEMENTS`].
pub fn write_page_policy(
    array: &Array,
    policy: &WritePolicy,
    out: &mut Vec<u8>,
) -> Result<Encoding> {
    if array.len() > encoding::MAX_PAGE_ELEMENTS
        || array.element_count() > encoding::MAX_PAGE_ELEMENTS
    {
        return Err(ColumnarError::ValueOutOfRange {
            detail: format!(
                "page of {} rows / {} elements exceeds MAX_PAGE_ELEMENTS; reduce page_rows",
                array.len(),
                array.element_count()
            ),
        });
    }
    let mut payload = Vec::new();
    let encoding = match array {
        Array::Int64(values) => {
            let enc = policy.i64_encoding(values);
            encoding::encode_i64(enc, values, &mut payload);
            enc
        }
        Array::Float32(values) => {
            encoding::plain::encode_f32(values, &mut payload);
            Encoding::Plain
        }
        Array::Float64(values) => {
            encoding::plain::encode_f64(values, &mut payload);
            Encoding::Plain
        }
        Array::ListInt64 { offsets, values } => {
            let lengths: Vec<u64> = offsets.windows(2).map(|w| u64::from(w[1] - w[0])).collect();
            write_list_payload(&lengths, None, values, policy, &mut payload)
        }
    };
    let compression = policy.compression_for(array.data_type());
    seal_page(encoding, array.len(), array.element_count(), payload, compression, out);
    Ok(encoding)
}

/// A list page's payload: the RLE length stream, `k` when this is a head
/// page, the value encoding tag, then the values on a [`PAYLOAD_ALIGN`]
/// boundary of the payload — which, with the payload's own file alignment,
/// puts plain-encoded list values on a file boundary and makes them
/// eligible for lazy decode.
fn write_list_payload(
    lengths: &[u64],
    k: Option<u64>,
    values: &[i64],
    policy: &WritePolicy,
    payload: &mut Vec<u8>,
) -> Encoding {
    rle::encode(lengths, payload);
    if let Some(k) = k {
        varint::write_u64(payload, k);
    }
    let enc = policy.i64_encoding(values);
    payload.push(enc.to_tag());
    let pad = padding_for(payload.len() as u64);
    payload.resize(payload.len() + pad, 0);
    encoding::encode_i64(enc, values, payload);
    enc
}

/// Writes one head page of a head/tail list chunk: the full `lengths` of its
/// rows, `k`, and `values` — the first `min(len, k)` values of each list.
pub(crate) fn write_head_page(
    lengths: &[u64],
    k: u64,
    values: &[i64],
    policy: &WritePolicy,
    out: &mut Vec<u8>,
) {
    let mut payload = Vec::new();
    let enc = write_list_payload(lengths, Some(k), values, policy, &mut payload);
    let compression = policy.compression_for(DataType::ListInt64);
    seal_page(enc, lengths.len(), values.len(), payload, compression, out);
}

/// Writes one tail page: `values` is what the lists of `rows` rows hold
/// past their first `k`, back to back.
pub(crate) fn write_tail_page(
    rows: usize,
    values: &[i64],
    policy: &WritePolicy,
    out: &mut Vec<u8>,
) {
    let mut payload = Vec::new();
    let enc = policy.i64_encoding(values);
    encoding::encode_i64(enc, values, &mut payload);
    let compression = policy.compression_for(DataType::ListInt64);
    seal_page(enc, rows, values.len(), payload, compression, out);
}

/// Compresses `payload` when that makes it smaller, then appends the page
/// header, the alignment padding and the stored payload to `out`.
fn seal_page(
    encoding: Encoding,
    rows: usize,
    elements: usize,
    payload: Vec<u8>,
    compression: Compression,
    out: &mut Vec<u8>,
) {
    let (stored_compression, stored) = match compression {
        Compression::None => (Compression::None, payload),
        Compression::Lz => {
            let packed = compress::compress(&payload);
            if packed.len() < payload.len() {
                (Compression::Lz, packed)
            } else {
                (Compression::None, payload)
            }
        }
    };
    out.push(encoding.to_tag());
    out.push(stored_compression.to_tag());
    varint::write_u64(out, rows as u64);
    varint::write_u64(out, elements as u64);
    varint::write_u64(out, stored.len() as u64);
    out.extend_from_slice(&crc32(&stored).to_le_bytes());
    // Pad the payload to PAYLOAD_ALIGN relative to the start of `out` —
    // the file start when called through `FileWriter`. The reader recomputes
    // the same padding from its own (absolute) position.
    let pad = padding_for(out.len() as u64);
    out.resize(out.len() + pad, 0);
    out.extend_from_slice(&stored);
}

/// Parsed page header, with the payload located (and checksummed) but not
/// yet decoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageHeader {
    /// Value-stream encoding.
    pub encoding: Encoding,
    /// Payload compression.
    pub compression: Compression,
    /// Rows in this page.
    pub rows: usize,
    /// Elements in this page (== rows for scalar columns).
    pub elements: usize,
    /// Absolute offset of the stored payload in `buf`.
    pub payload_start: usize,
    /// Stored payload length in bytes.
    pub payload_len: usize,
}

/// Parses one page header at `*pos`, verifies the payload checksum and
/// advances `*pos` past the entire page.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] on truncation,
/// [`ColumnarError::ChecksumMismatch`] on payload corruption and tag errors
/// from unknown encodings/compressions.
pub(crate) fn read_page_header(buf: &[u8], pos: &mut usize, base: u64) -> Result<PageHeader> {
    let Some(&enc_tag) = buf.get(*pos) else {
        return Err(ColumnarError::UnexpectedEof { context: "page encoding tag" });
    };
    *pos += 1;
    let encoding = Encoding::from_tag(enc_tag)?;
    let Some(&comp_tag) = buf.get(*pos) else {
        return Err(ColumnarError::UnexpectedEof { context: "page compression tag" });
    };
    *pos += 1;
    let compression = Compression::from_tag(comp_tag)?;
    let rows = varint::read_u64(buf, pos)? as usize;
    let elements = varint::read_u64(buf, pos)? as usize;
    // The writer never produces pages above this ceiling, so a larger
    // declared count is corruption — rejecting it here bounds every
    // downstream decode allocation (RLE-class encodings expand, so input
    // size alone cannot).
    if rows > encoding::MAX_PAGE_ELEMENTS || elements > encoding::MAX_PAGE_ELEMENTS {
        return Err(ColumnarError::CorruptFile {
            detail: format!("page declares {rows} rows / {elements} elements"),
        });
    }
    let payload_len = varint::read_u64(buf, pos)? as usize;
    if buf.len() < *pos + 4 {
        return Err(ColumnarError::UnexpectedEof { context: "page checksum" });
    }
    let stored_crc = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes"));
    *pos += 4;
    // Skip the writer's payload alignment padding (recomputed, not stored).
    *pos += padding_for(base + *pos as u64);
    let stored = pos
        .checked_add(payload_len)
        .and_then(|end| buf.get(*pos..end))
        .ok_or(ColumnarError::UnexpectedEof { context: "page payload" })?;
    let payload_start = *pos;
    *pos += payload_len;
    let actual_crc = crc32(stored);
    if actual_crc != stored_crc {
        return Err(ColumnarError::ChecksumMismatch { expected: stored_crc, actual: actual_crc });
    }
    Ok(PageHeader { encoding, compression, rows, elements, payload_start, payload_len })
}

/// The page's decode-ready payload: borrowed from `buf` when stored
/// uncompressed, otherwise decompressed into `staging`. The second return
/// is the payload's absolute offset in `buf` when (and only when) the bytes
/// are the stored ones — the precondition for zero-copy views.
pub(crate) fn page_payload<'a>(
    header: &PageHeader,
    buf: &'a [u8],
    staging: &'a mut Vec<u8>,
) -> Result<(&'a [u8], Option<usize>)> {
    let stored = &buf[header.payload_start..header.payload_start + header.payload_len];
    match header.compression {
        Compression::None => Ok((stored, Some(header.payload_start))),
        Compression::Lz => {
            staging.clear();
            compress::decompress_into(stored, staging)?;
            Ok((&staging[..], None))
        }
    }
}

/// Locates the list value stream within a list page's payload: appends the
/// RLE length stream to `lengths` (the caller clears it when it wants one
/// page's), reads `k` when this is a head page, then the value encoding tag,
/// and skips the value-stream alignment padding. Returns the value encoding,
/// the payload-relative offset where the value stream begins, and `k`
/// (`u64::MAX` — every list whole — for an ordinary list page).
pub(crate) fn read_list_prefix(
    payload: &[u8],
    rows: usize,
    head: bool,
    lengths: &mut Vec<u64>,
) -> Result<(Encoding, usize, u64)> {
    let mut p = 0usize;
    rle::decode_into(payload, &mut p, Some(rows), lengths)?;
    let k = if head { varint::read_u64(payload, &mut p)? } else { u64::MAX };
    let Some(&value_tag) = payload.get(p) else {
        return Err(ColumnarError::UnexpectedEof { context: "list value encoding tag" });
    };
    p += 1;
    let value_enc = Encoding::from_tag(value_tag)?;
    // Skip the writer's value-stream alignment padding (relative to the
    // payload start, which is itself file-aligned).
    p += padding_for(p as u64);
    Ok((value_enc, p, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::read_chunk;
    use crate::io::DecodeScratch;

    /// `array` as the one page of a chunk (a page count of one, then the
    /// page), under the cost model's codecs.
    fn write_page(array: &Array) -> Vec<u8> {
        write_page_under(array, &WritePolicy::default())
    }

    fn write_page_under(array: &Array, policy: &WritePolicy) -> Vec<u8> {
        let mut buf = vec![1];
        write_page_policy(array, policy, &mut buf).unwrap();
        buf
    }

    /// That chunk through the chunk decoder, read as `like`: pages are not
    /// decoded anywhere else.
    fn read_page(buf: &[u8], like: &Array) -> Result<(Array, usize)> {
        let totals = (like.len(), like.element_count());
        let scratch = &mut DecodeScratch::default();
        read_chunk(buf, 0, like.data_type(), totals, None, None, scratch)
    }

    /// Under the cost model's codecs, then with each encoding forced.
    fn roundtrip(array: Array) {
        let forced = Encoding::ALL.map(|e| WritePolicy::default().with_forced_encoding(e));
        for policy in [WritePolicy::default()].into_iter().chain(forced) {
            let buf = write_page_under(&array, &policy);
            assert_eq!(read_page(&buf, &array).unwrap(), (array.clone(), buf.len()), "{policy:?}");
        }
    }

    #[test]
    fn int64_page_roundtrips() {
        roundtrip(Array::Int64((0..5000).map(|i| i * 3 - 100).collect()));
    }

    #[test]
    fn float32_page_roundtrips() {
        roundtrip(Array::Float32((0..4096).map(|i| i as f32 * 0.25).collect()));
    }

    #[test]
    fn float64_page_roundtrips() {
        roundtrip(Array::Float64(vec![1.5, -2.5, 0.0].into()));
    }

    #[test]
    fn list_page_roundtrips() {
        let lists: Vec<Vec<i64>> =
            (0..500).map(|i| (0..(i % 7)).map(|j| i as i64 * 100 + j as i64).collect()).collect();
        roundtrip(Array::from_lists(lists).unwrap());
    }

    #[test]
    fn empty_pages_roundtrip() {
        roundtrip(Array::Int64(vec![].into()));
        roundtrip(Array::Float32(vec![].into()));
        roundtrip(Array::from_lists(Vec::<Vec<i64>>::new()).unwrap());
    }

    #[test]
    fn bitflip_in_payload_is_caught() {
        // A short page and a 16 KiB one (the checksum's folded route): one
        // flipped bit in the first, a middle and the last payload byte.
        let long = Array::Float32((0..4096).map(|i| i as f32 * 0.25).collect());
        for (array, min_payload) in [(Array::Int64((0..100).collect()), 1), (long, 4096)] {
            let mut buf = write_page(&array);
            let header = read_page_header(&buf, &mut 1, 0).unwrap();
            assert!(header.payload_len >= min_payload, "payload {}", header.payload_len);
            assert_eq!(header.payload_start + header.payload_len, buf.len());
            for offset in [0, header.payload_len / 2, header.payload_len - 1] {
                buf[header.payload_start + offset] ^= 0x40;
                assert!(
                    matches!(read_page(&buf, &array), Err(ColumnarError::ChecksumMismatch { .. })),
                    "flip at payload byte {offset} of {}",
                    header.payload_len
                );
                buf[header.payload_start + offset] ^= 0x40;
            }
            assert_eq!(read_page(&buf, &array).unwrap().0, array);
        }
    }

    #[test]
    fn truncated_page_is_caught() {
        let array = Array::Float32(vec![1.0; 64].into());
        let buf = write_page(&array);
        for cut in 0..buf.len() {
            assert!(read_page(&buf[..cut], &array).is_err());
        }
    }

    #[test]
    fn wrong_type_fails_cleanly() {
        // A list page read as Int64 must error, not panic.
        let lists = Array::from_lists([vec![1i64, 2, 3]]).unwrap();
        let buf = write_page(&lists);
        assert!(read_page(&buf, &Array::Int64(vec![1].into())).is_err());
    }

    #[test]
    fn absurd_declared_counts_are_rejected_at_the_header() {
        // A crafted header claiming 2^40 rows must fail before any decode
        // allocation — RLE-class payloads expand, so this ceiling is the
        // only bound on a zero-width allocation bomb.
        let mut buf = vec![1, Encoding::Plain.to_tag()];
        buf.push(Compression::None.to_tag());
        varint::write_u64(&mut buf, 1u64 << 40); // rows
        varint::write_u64(&mut buf, 1u64 << 40); // elements
        varint::write_u64(&mut buf, 0); // payload len
        buf.extend_from_slice(&crc32(&[]).to_le_bytes());
        let like = Array::from_lists([vec![1i64]]).unwrap();
        assert!(matches!(read_page(&buf, &like), Err(ColumnarError::CorruptFile { .. })));
    }

    #[test]
    fn sparse_feature_like_lists_compress() {
        // Average length 20, ids in a 500k vocab — the RM2-5 shape.
        let lists: Vec<Vec<i64>> = (0..1024u64)
            .map(|i| (0..20).map(|j| ((i * 37 + j * 101) % 500_000) as i64).collect())
            .collect();
        let a = Array::from_lists(lists).unwrap();
        let raw = a.byte_size();
        let buf = write_page(&a);
        assert!(buf.len() < raw, "encoded {} raw {raw}", buf.len());
    }
}
