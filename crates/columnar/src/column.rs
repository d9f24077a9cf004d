//! Column chunks: a column's worth of pages for one row group.
//!
//! A chunk is a page count followed by that many pages. Two decode
//! strategies coexist:
//!
//! * the page-at-a-time path ([`read_chunk_at`] / [`read_chunk_shared`]),
//!   which can hand out zero-copy views over aligned plain pages; and
//! * the **batched** path ([`read_chunk_batched`]), which decodes every
//!   integer page of a chunk straight into one set of output buffers via
//!   the `*_into` codec entry points — no per-page `Vec`, no concat copy.
//!   [`crate::FileReader::read_column_with`] routes multi-page and encoded
//!   chunks here, sizing the outputs exactly from the footer's column
//!   statistics.
//!
//! # Head/tail chunks
//!
//! A list column whose lists are long is read, far more often than not,
//! for the first few values of each list ([`read_chunk_prefix`]). When a
//! chunk's mean list length reaches `4 * K` the writer therefore stores it
//! in two parts:
//!
//! ```text
//! 0x00                a page count of zero, which no other chunk has
//! varint h, h pages   head pages: every list's length, K, and its first
//!                     min(len, K) values
//! varint t, t pages   tail pages: what each list holds past K
//! ```
//!
//! Each part covers the chunk's rows in order under its own pagination: a
//! head page holds the writer's rows-per-page, a tail page at most that and
//! no more than about 64 Ki values, so that neither writing nor reading a
//! chunk of very long lists stages more than one such page.
//!
//! and the footer records where the head pages end
//! ([`crate::stats::ChunkHead`]), so a prefix read of at most K values
//! fetches, checksums and decodes the head pages alone. A full read decodes
//! both parts and interleaves them back into the array the writer was
//! given. K is the writer's choice and nobody else's: each head page records
//! it and decodes by its own copy, and there is deliberately no setting for
//! it — a file's layout follows from its data, so two writers of the same
//! batch produce the same bytes. Shorter lists, scalar columns and legacy
//! (`PSTOCOL2`/`PSTOCOL3`) files keep the one-part layout byte for byte.
//! See [`crate::page`] for the two page layouts.

use crate::array::Array;
use crate::compress::Compression;
use crate::encoding::{self, varint};
use crate::error::{ColumnarError, Result};
use crate::io::DecodeScratch;
use crate::page::{self, DEFAULT_PAGE_ROWS};
use crate::schema::{DataType, WritePolicy};
use crate::stats::{ChunkHead, ColumnStats};

/// Values of each list a head/tail chunk keeps in its head pages. Private:
/// readers take it from the file, never from here.
const HEAD_K: usize = 32;

/// Values after which a tail page is closed at the next row boundary: it
/// bounds what the writer gathers, and what a full read shifts in place, per
/// page. A single longer list still gets a page to itself.
const TAIL_PAGE_VALUES: usize = 1 << 16;

/// Mean list length, in units of [`HEAD_K`], from which a chunk is split.
/// Below it the head would be too large a share of the chunk to be worth a
/// second set of pages.
const SPLIT_MEAN_HEADS: usize = 4;

/// Slices `rows` rows starting at `start` out of an array.
///
/// Primitive payloads (and jagged *values*) are shared zero-copy windows
/// over the source array's buffers; only jagged offsets are materialized,
/// because they must be rebased to start at zero.
///
/// # Panics
///
/// Panics when the range is out of bounds; callers slice by page size.
#[must_use]
pub fn slice_array(array: &Array, start: usize, rows: usize) -> Array {
    match array {
        Array::Int64(v) => Array::Int64(v.slice(start, rows)),
        Array::Float32(v) => Array::Float32(v.slice(start, rows)),
        Array::Float64(v) => Array::Float64(v.slice(start, rows)),
        Array::ListInt64 { offsets, values } => {
            let base = offsets[start];
            let end = offsets[start + rows];
            let new_offsets: crate::Buffer<u32> =
                offsets[start..=start + rows].iter().map(|&o| o - base).collect();
            let new_values = values.slice(base as usize, (end - base) as usize);
            Array::ListInt64 { offsets: new_offsets, values: new_values }
        }
    }
}

/// Concatenates arrays of the same type into one.
///
/// A single-part concat is zero-copy: the result shares the input's
/// buffers. This is the common case on the read path (one page per chunk,
/// one row group per partition), so decoded column data is typically never
/// recopied on its way to the preprocessing kernels.
///
/// # Errors
///
/// Returns [`ColumnarError::InvalidSchema`] when types differ, or
/// [`ColumnarError::ValueOutOfRange`] when jagged offsets overflow `u32`.
pub fn concat_arrays(parts: &[Array]) -> Result<Array> {
    let Some(first) = parts.first() else {
        return Err(ColumnarError::InvalidSchema { detail: "concat of zero arrays".into() });
    };
    if parts.len() == 1 {
        return Ok(first.clone());
    }
    let dt = first.data_type();
    if parts.iter().any(|p| p.data_type() != dt) {
        return Err(ColumnarError::InvalidSchema {
            detail: "concat of arrays with differing types".into(),
        });
    }
    match dt {
        DataType::Int64 => {
            let mut out = Vec::with_capacity(parts.iter().map(Array::element_count).sum());
            for p in parts {
                out.extend_from_slice(p.as_int64().expect("checked type"));
            }
            Ok(Array::Int64(out.into()))
        }
        DataType::Float32 => {
            let mut out = Vec::with_capacity(parts.iter().map(Array::element_count).sum());
            for p in parts {
                out.extend_from_slice(p.as_float32().expect("checked type"));
            }
            Ok(Array::Float32(out.into()))
        }
        DataType::Float64 => {
            let mut out = Vec::with_capacity(parts.iter().map(Array::element_count).sum());
            for p in parts {
                out.extend_from_slice(p.as_float64().expect("checked type"));
            }
            Ok(Array::Float64(out.into()))
        }
        DataType::ListInt64 => {
            let mut offsets = vec![0u32];
            let mut values: Vec<i64> = Vec::new();
            for p in parts {
                let (po, pv) = p.as_list_int64().expect("checked type");
                let base = values.len() as u64;
                for &o in &po[1..] {
                    let off = base + u64::from(o);
                    let off = u32::try_from(off).map_err(|_| ColumnarError::ValueOutOfRange {
                        detail: "concatenated jagged array overflows u32 offsets".into(),
                    })?;
                    offsets.push(off);
                }
                values.extend_from_slice(pv);
            }
            Ok(Array::ListInt64 { offsets: offsets.into(), values: values.into() })
        }
    }
}

/// Writes `array` as a column chunk (page count + pages), returning its stats.
///
/// # Errors
///
/// Propagates page encoding failures.
pub fn write_chunk(array: &Array, page_rows: usize, out: &mut Vec<u8>) -> Result<ColumnStats> {
    write_chunk_compressed(array, page_rows, Compression::None, out)
}

/// Like [`write_chunk`] with per-page payload compression (applied to every
/// column type — the per-column policy path is [`write_chunk_policy`]).
///
/// # Errors
///
/// Propagates page encoding failures.
pub fn write_chunk_compressed(
    array: &Array,
    page_rows: usize,
    compression: Compression,
    out: &mut Vec<u8>,
) -> Result<ColumnStats> {
    let policy = WritePolicy::from_env().with_compression(compression).compressing_hot_columns();
    write_chunk_policy(array, page_rows, &policy, out)
}

/// Writes `array` as a column chunk under a [`WritePolicy`]: the policy
/// picks each page's integer encoding and decides from the column's type
/// whether payloads are compressed (the "uncompressed-if-hot" rule). A list
/// column with long lists is written in two parts (see the module docs);
/// the returned stats then carry its [`ChunkHead`].
///
/// # Errors
///
/// Propagates page encoding failures.
pub fn write_chunk_policy(
    array: &Array,
    page_rows: usize,
    policy: &WritePolicy,
    out: &mut Vec<u8>,
) -> Result<ColumnStats> {
    write_chunk_layout(array, page_rows, policy, true, out)
}

/// [`write_chunk_policy`] with the head/tail layout as the caller's call:
/// legacy container versions predate it and pass `false`.
pub(crate) fn write_chunk_layout(
    array: &Array,
    page_rows: usize,
    policy: &WritePolicy,
    may_split: bool,
    out: &mut Vec<u8>,
) -> Result<ColumnStats> {
    // The element ceiling holds per chunk, not just per page: readers use
    // it to bound whole-chunk decode allocations against crafted footers.
    if array.len() > encoding::MAX_PAGE_ELEMENTS
        || array.element_count() > encoding::MAX_PAGE_ELEMENTS
    {
        return Err(ColumnarError::ValueOutOfRange {
            detail: format!(
                "column chunk of {} rows / {} elements exceeds MAX_PAGE_ELEMENTS; \
                 split the row group",
                array.len(),
                array.element_count()
            ),
        });
    }
    let page_rows = page_rows.max(1);
    let rows = array.len();
    let n_pages = rows.div_ceil(page_rows).max(1);
    let mut stats = ColumnStats::from_array(array);
    if let Array::ListInt64 { offsets, values } = array {
        if may_split && rows > 0 && values.len() / rows >= SPLIT_MEAN_HEADS * HEAD_K {
            let (head_len, pages) = write_split_chunk(offsets, values, page_rows, policy, out);
            stats.pages = pages;
            stats.head = Some(ChunkHead { head_len, k: HEAD_K as u64 });
            return Ok(stats);
        }
    }
    varint::write_u64(out, n_pages as u64);
    let mut start = 0usize;
    for _ in 0..n_pages {
        let take = page_rows.min(rows - start);
        let page_arr = slice_array(array, start, take);
        page::write_page_policy(&page_arr, policy, out)?;
        start += take;
    }
    stats.pages = n_pages as u64;
    Ok(stats)
}

/// Writes a list chunk as head pages followed by tail pages (see the module
/// docs) and returns how many bytes in the head pages end, and the page
/// count of both parts together.
fn write_split_chunk(
    offsets: &[u32],
    values: &[i64],
    page_rows: usize,
    policy: &WritePolicy,
    out: &mut Vec<u8>,
) -> (u64, u64) {
    let chunk_start = out.len();
    let rows = offsets.len() - 1;
    let bounds = |row: usize| (offsets[row] as usize, offsets[row + 1] as usize);
    let head_of = |row: usize| {
        let (start, end) = bounds(row);
        start + (end - start).min(HEAD_K)
    };
    // Row at which each tail page ends: `page_rows` rows on, or sooner once
    // the page holds `TAIL_PAGE_VALUES`.
    let mut tail_ends: Vec<usize> = Vec::new();
    let (mut page_start, mut held) = (0usize, 0usize);
    for row in 0..rows {
        held += bounds(row).1 - head_of(row);
        if row + 1 - page_start == page_rows || held >= TAIL_PAGE_VALUES || row + 1 == rows {
            tail_ends.push(row + 1);
            (page_start, held) = (row + 1, 0);
        }
    }

    let head_pages = rows.div_ceil(page_rows);
    let mut lengths: Vec<u64> = Vec::new();
    let mut kept: Vec<i64> = Vec::new();
    varint::write_u64(out, 0);
    varint::write_u64(out, head_pages as u64);
    for first in (0..rows).step_by(page_rows) {
        lengths.clear();
        kept.clear();
        for row in first..first.saturating_add(page_rows).min(rows) {
            let (start, end) = bounds(row);
            lengths.push((end - start) as u64);
            kept.extend_from_slice(&values[start..head_of(row)]);
        }
        page::write_head_page(&lengths, HEAD_K as u64, &kept, policy, out);
    }
    let head_len = (out.len() - chunk_start) as u64;

    varint::write_u64(out, tail_ends.len() as u64);
    let mut first = 0usize;
    for &end_row in &tail_ends {
        kept.clear();
        for row in first..end_row {
            kept.extend_from_slice(&values[head_of(row)..bounds(row).1]);
        }
        page::write_tail_page(end_row - first, &kept, policy, out);
        first = end_row;
    }
    (head_len, (head_pages + tail_ends.len()) as u64)
}

/// Reads a column chunk written by [`write_chunk`], for a `buf` starting at
/// the beginning of the written buffer (alignment base 0).
///
/// # Errors
///
/// Propagates page decode failures.
pub fn read_chunk(buf: &[u8], pos: &mut usize, data_type: DataType) -> Result<Array> {
    read_chunk_at(buf, pos, data_type, 0)
}

/// Like [`read_chunk`] for a `buf` sliced (or staged) from `base` bytes into
/// the written file, so page payload alignment can be recomputed.
///
/// # Errors
///
/// Same as [`read_chunk`].
pub fn read_chunk_at(buf: &[u8], pos: &mut usize, data_type: DataType, base: u64) -> Result<Array> {
    let n_pages = varint::read_u64(buf, pos)? as usize;
    if n_pages == 0 {
        return read_split_unbudgeted(buf, pos, data_type, base);
    }
    // Every page costs at least a header byte, so the remaining input
    // bounds any legitimate page count — a corrupt count cannot
    // over-reserve.
    let mut parts = Vec::with_capacity(n_pages.min(buf.len().saturating_sub(*pos)));
    for _ in 0..n_pages {
        parts.push(page::read_page_at(buf, pos, data_type, base)?);
    }
    concat_arrays(&parts)
}

/// The running row and element totals of one chunk decode, held against
/// what the footer declared for the chunk. A page's counts are added
/// *before* its payload is decoded: the per-page element ceiling bounds one
/// page, but only this stops a crafted many-tiny-page chunk from amplifying
/// past it (each page would otherwise materialize its full declared count
/// before any comparison of totals ran).
struct Budget {
    rows: usize,
    elements: usize,
    seen_rows: usize,
    seen_elements: usize,
}

impl Budget {
    /// The writer enforces the element ceiling per *chunk* (see
    /// [`write_chunk_policy`]), so larger declared totals are corruption;
    /// this bounds the whole-chunk decode the same way the page header
    /// check bounds one page.
    fn new(rows: usize, elements: usize) -> Result<Self> {
        if rows > encoding::MAX_PAGE_ELEMENTS || elements > encoding::MAX_PAGE_ELEMENTS {
            return Err(ColumnarError::CorruptFile {
                detail: format!("chunk declares {rows} rows / {elements} elements"),
            });
        }
        Ok(Budget { rows, elements, seen_rows: 0, seen_elements: 0 })
    }

    /// `(declared, seen)` for rows, then for elements.
    fn totals(&self) -> [(usize, usize); 2] {
        [(self.rows, self.seen_rows), (self.elements, self.seen_elements)]
    }

    fn add(&mut self, rows: usize, elements: usize) -> Result<()> {
        self.seen_rows = self.seen_rows.saturating_add(rows);
        self.seen_elements = self.seen_elements.saturating_add(elements);
        match self.totals().into_iter().find(|(declared, actual)| actual > declared) {
            Some((declared, actual)) => Err(ColumnarError::CountMismatch { declared, actual }),
            None => Ok(()),
        }
    }

    /// The pages must add up to exactly what was declared.
    fn finish(&self) -> Result<()> {
        match self.totals().into_iter().find(|(declared, actual)| actual != declared) {
            Some((declared, actual)) => Err(ColumnarError::CountMismatch { declared, actual }),
            None => Ok(()),
        }
    }
}

/// Exact-size reservations are clamped to what the remaining input could
/// legitimately describe (codecs emit no fewer than one byte per ~64 values
/// after framing), in case the footer stats are corrupt.
fn reservation_limit(buf: &[u8], pos: usize) -> usize {
    buf.len().saturating_sub(pos).saturating_mul(64).max(1024)
}

/// Decodes a whole chunk of an integer column (`Int64` / `ListInt64`) in
/// one pass: every page's id and offset blocks land directly in a single
/// set of exactly-sized output buffers, with page payload staging (LZ,
/// length streams) recycled through the caller's [`crate::ReadScratch`]. A
/// head/tail list chunk decodes both parts and comes back as the array the
/// writer was given.
///
/// `rows` and `elements` come from the footer's column statistics **for the
/// one row group being read** — chunk stats are per-group, so a random
/// row-group access (the `PSTOCOL4` shuffled-read path) sizes its output
/// buffers from that group's own index entry, never from file totals. The
/// last row group of a partition whose row count is not a multiple of the
/// group size therefore allocates exactly its short length. They
/// size the outputs and every page's decoded counts are validated against
/// the running totals. Float columns and zero-copy candidates stay on the
/// page-at-a-time path ([`read_chunk_at`] / [`read_chunk_shared`]).
///
/// # Errors
///
/// Same as [`read_chunk_at`], plus [`ColumnarError::CountMismatch`] when
/// the pages disagree with the declared totals.
pub fn read_chunk_batched(
    buf: &[u8],
    pos: &mut usize,
    data_type: DataType,
    base: u64,
    rows: usize,
    elements: usize,
    scratch: &mut DecodeScratch,
) -> Result<Array> {
    debug_assert!(matches!(data_type, DataType::Int64 | DataType::ListInt64));
    let mut budget = Budget::new(rows, elements)?;
    let n_pages = varint::read_u64(buf, pos)? as usize;
    let cap_limit = reservation_limit(buf, *pos);
    let array = match data_type {
        DataType::Int64 => {
            let mut values: Vec<i64> = Vec::with_capacity(rows.min(cap_limit));
            for _ in 0..n_pages {
                let header = page::read_page_header(buf, pos, base)?;
                budget.add(header.rows, header.rows)?;
                let (payload, _) = page::page_payload(&header, buf, &mut scratch.staging)?;
                let mut p = 0usize;
                encoding::decode_i64_into(
                    header.encoding,
                    payload,
                    &mut p,
                    header.rows,
                    &mut values,
                )?;
            }
            Array::Int64(values.into())
        }
        _ if n_pages == 0 => read_split_lists(buf, pos, base, &mut budget, scratch)?,
        _ => {
            let mut offsets: Vec<u32> = Vec::with_capacity(rows.saturating_add(1).min(cap_limit));
            offsets.push(0);
            let mut values: Vec<i64> = Vec::with_capacity(elements.min(cap_limit));
            for _ in 0..n_pages {
                let header = page::read_page_header(buf, pos, base)?;
                budget.add(header.rows, header.elements)?;
                let (payload, _) = page::page_payload(&header, buf, &mut scratch.staging)?;
                scratch.lengths.clear();
                let (value_enc, value_start, _) =
                    page::read_list_prefix(payload, header.rows, false, &mut scratch.lengths)?;
                let mut p = value_start;
                encoding::decode_i64_into(
                    value_enc,
                    payload,
                    &mut p,
                    header.elements,
                    &mut values,
                )?;
                page::extend_offsets(&scratch.lengths, header.rows, &mut offsets)?;
            }
            Array::ListInt64 { offsets: offsets.into(), values: values.into() }
        }
    };
    budget.finish()?;
    array.validate()?;
    Ok(array)
}

/// The two parts of a head/tail chunk, after its `0x00` marker: the head
/// pages give every row's length and its first `k` values, which wait in
/// `scratch` while each tail page decodes straight into the output and is
/// then spread out, in place, to let its rows' head runs back in.
///
/// Everything is held to `budget` before it is decoded or reserved: the
/// lengths of a head page must sum to no more than the chunk may still
/// hold, its `min(len, k)` to exactly the values the page header declares,
/// and a tail page's header to exactly what its rows have left.
fn read_split_lists(
    buf: &[u8],
    pos: &mut usize,
    base: u64,
    budget: &mut Budget,
    scratch: &mut DecodeScratch,
) -> Result<Array> {
    let head_pages = varint::read_u64(buf, pos)? as usize;
    let cap_limit = reservation_limit(buf, *pos);
    let DecodeScratch { staging, lengths, values: heads, .. } = scratch;
    lengths.clear();
    heads.clear();
    let mut chunk_k = None;
    for _ in 0..head_pages {
        let header = page::read_page_header(buf, pos, base)?;
        budget.add(header.rows, header.elements)?;
        let (payload, _) = page::page_payload(&header, buf, staging)?;
        let first = lengths.len();
        let (value_enc, value_start, k) =
            page::read_list_prefix(payload, header.rows, true, lengths)?;
        if *chunk_k.get_or_insert(k) != k {
            return Err(ColumnarError::CorruptFile {
                detail: "head pages of one chunk disagree on K".into(),
            });
        }
        let (in_head, in_tail) = split_lengths(&lengths[first..], k);
        if in_head != header.elements as u64 {
            return Err(ColumnarError::CountMismatch {
                declared: header.elements,
                actual: usize::try_from(in_head).unwrap_or(usize::MAX),
            });
        }
        budget.add(0, usize::try_from(in_tail).unwrap_or(usize::MAX))?;
        let mut p = value_start;
        encoding::decode_i64_into(value_enc, payload, &mut p, header.elements, heads)?;
    }
    let k = chunk_k.unwrap_or(0);
    let rows = lengths.len();
    let mut offsets: Vec<u32> = Vec::with_capacity(rows.saturating_add(1).min(cap_limit));
    offsets.push(0);
    page::extend_offsets(lengths, rows, &mut offsets)?;
    let mut values: Vec<i64> = Vec::with_capacity(budget.seen_elements.min(cap_limit));
    let tail_pages = varint::read_u64(buf, pos)? as usize;
    let (mut row, mut head_at) = (0usize, 0usize);
    for _ in 0..tail_pages {
        let header = page::read_page_header(buf, pos, base)?;
        let page_lengths = row
            .checked_add(header.rows)
            .and_then(|end| lengths.get(row..end))
            .ok_or(ColumnarError::CountMismatch { declared: rows, actual: row + header.rows })?;
        let (in_head, in_tail) = split_lengths(page_lengths, k);
        if in_tail != header.elements as u64 {
            return Err(ColumnarError::CountMismatch {
                declared: header.elements,
                actual: usize::try_from(in_tail).unwrap_or(usize::MAX),
            });
        }
        let (payload, _) = page::page_payload(&header, buf, staging)?;
        let page_start = values.len();
        encoding::decode_i64_into(header.encoding, payload, &mut 0, header.elements, &mut values)?;
        // Both sums fit: the head pages' budget checks bounded them.
        let head_end = head_at + in_head as usize;
        interleave_heads(&mut values, page_start, page_lengths, k, &heads[head_at..head_end]);
        row += header.rows;
        head_at = head_end;
    }
    if row != rows {
        return Err(ColumnarError::CountMismatch { declared: rows, actual: row });
    }
    Ok(Array::ListInt64 { offsets: offsets.into(), values: values.into() })
}

/// How many of the values `lengths` describe sit in head pages and how many
/// in tail pages, when a head holds the first `k` of each list.
fn split_lengths(lengths: &[u64], k: u64) -> (u64, u64) {
    lengths.iter().fold((0u64, 0u64), |(head, tail), &len| {
        let in_head = len.min(k);
        (head.saturating_add(in_head), tail.saturating_add(len - in_head))
    })
}

/// `values[page_start..]` holds one tail page's runs back to back; grows it
/// to hold each row's head run (taken in order from `heads`) followed by
/// its tail run. Runs only ever move towards the end, so walking the rows
/// backwards never overwrites a run that has not moved yet.
fn interleave_heads(
    values: &mut Vec<i64>,
    page_start: usize,
    lengths: &[u64],
    k: u64,
    heads: &[i64],
) {
    let mut src = values.len();
    values.resize(src + heads.len(), 0);
    let mut dst = values.len();
    let mut head_end = heads.len();
    for &len in lengths.iter().rev() {
        let head = len.min(k) as usize;
        let tail = len as usize - head;
        values.copy_within(src - tail..src, dst - tail);
        src -= tail;
        dst -= tail + head;
        values[dst..dst + head].copy_from_slice(&heads[head_end - head..head_end]);
        head_end -= head;
    }
    debug_assert_eq!((src, dst, head_end), (page_start, page_start, 0));
}

/// A head/tail chunk met on a path that has no footer totals to hold it to
/// (`buf` at `*pos` is just past the `0x00` marker): only the format's own
/// ceilings bound the decode.
fn read_split_unbudgeted(
    buf: &[u8],
    pos: &mut usize,
    data_type: DataType,
    base: u64,
) -> Result<Array> {
    if data_type != DataType::ListInt64 {
        return Err(ColumnarError::CorruptFile {
            detail: format!("{data_type} chunk declares no pages"),
        });
    }
    let mut budget = Budget::new(encoding::MAX_PAGE_ELEMENTS, encoding::MAX_PAGE_ELEMENTS)?;
    let array = read_split_lists(buf, pos, base, &mut budget, &mut DecodeScratch::default())?;
    array.validate()?;
    Ok(array)
}

/// Prefix-pushdown chunk decode for list columns: like the list arm of
/// [`read_chunk_batched`], but materializes only the first `prefix` elements
/// of every list. The RLE length stream still decodes fully (it is cheap and
/// row alignment depends on it); the value stream decodes through
/// [`encoding::decode_i64_ranges`], which skips storing out-of-prefix
/// elements and hard-stops after the last needed one. The returned array's
/// offsets already reflect the truncation — downstream `FirstX` becomes a
/// no-op.
///
/// Of a head/tail chunk only the head pages are read, so `buf` may end where
/// they do ([`crate::stats::ChunkHead::head_len`]); a `prefix` deeper than
/// the head pages reach is the caller's to route to a full read, and is an
/// error here.
///
/// All of [`read_chunk_batched`]'s budget discipline applies unchanged: the
/// chunk-level [`encoding::MAX_PAGE_ELEMENTS`] ceiling, per-page running
/// totals checked before each decode, and reservations clamped to what the
/// remaining input could describe. Additionally each page's length stream
/// must account for exactly the values its header declares before any value
/// byte is decoded, so a crafted header cannot widen the ranged decode's
/// budget.
///
/// # Errors
///
/// Same as [`read_chunk_batched`].
pub fn read_chunk_prefix(
    buf: &[u8],
    pos: &mut usize,
    base: u64,
    rows: usize,
    elements: usize,
    prefix: usize,
    scratch: &mut DecodeScratch,
) -> Result<Array> {
    let mut budget = Budget::new(rows, elements)?;
    let mut n_pages = varint::read_u64(buf, pos)? as usize;
    let head_pages = n_pages == 0;
    if head_pages {
        n_pages = varint::read_u64(buf, pos)? as usize;
    }
    let cap_limit = reservation_limit(buf, *pos);
    let mut offsets: Vec<u32> = Vec::with_capacity(rows.saturating_add(1).min(cap_limit));
    offsets.push(0);
    let mut values: Vec<i64> =
        Vec::with_capacity(rows.saturating_mul(prefix).min(elements).min(cap_limit));
    let DecodeScratch { staging, lengths, ranges, dict, .. } = scratch;
    for _ in 0..n_pages {
        let header = page::read_page_header(buf, pos, base)?;
        budget.add(header.rows, header.elements)?;
        let (payload, _) = page::page_payload(&header, buf, staging)?;
        lengths.clear();
        let (value_enc, value_start, k) =
            page::read_list_prefix(payload, header.rows, head_pages, lengths)?;
        if prefix as u64 > k {
            return Err(ColumnarError::CorruptFile {
                detail: format!("prefix {prefix} read from head pages that hold {k} per list"),
            });
        }
        // Turn per-list prefixes into sorted element ranges over this page's
        // value stream — in which a list takes up `min(len, k)` places —
        // merging lists whose kept prefixes are contiguous (always the case
        // while lists are shorter than `prefix`).
        ranges.clear();
        let mut start = 0usize;
        let mut beyond = 0u64;
        for &len in lengths.iter() {
            let in_page = len.min(k);
            let stored = usize::try_from(in_page).map_err(|_| ColumnarError::CorruptFile {
                detail: "list length exceeds usize".into(),
            })?;
            beyond = beyond.saturating_add(len - in_page);
            let stop = start.saturating_add(stored.min(prefix));
            match ranges.last_mut() {
                Some(last) if last.1 == start => last.1 = stop,
                _ if stop > start => ranges.push((start, stop)),
                _ => {}
            }
            start = start.saturating_add(stored);
        }
        if start != header.elements {
            return Err(ColumnarError::CountMismatch { declared: header.elements, actual: start });
        }
        budget.add(0, usize::try_from(beyond).unwrap_or(usize::MAX))?;
        let mut p = value_start;
        encoding::decode_i64_ranges(
            value_enc,
            payload,
            &mut p,
            header.elements,
            ranges,
            dict,
            &mut values,
        )?;
        page::extend_offsets_clamped(lengths, prefix, header.rows, &mut offsets)?;
    }
    budget.finish()?;
    let array = Array::ListInt64 { offsets: offsets.into(), values: values.into() };
    array.validate()?;
    Ok(array)
}

/// Cuts every list of a list array down to its first `prefix` values, as
/// [`read_chunk_prefix`] would have read it; any other array comes back as
/// it is.
pub(crate) fn truncate_lists(array: Array, prefix: usize) -> Array {
    let Array::ListInt64 { offsets, values } = &array else { return array };
    let mut new_offsets: Vec<u32> = Vec::with_capacity(offsets.len());
    new_offsets.push(0);
    let mut new_values: Vec<i64> =
        Vec::with_capacity(values.len().min(array.len().saturating_mul(prefix)));
    for w in offsets.windows(2) {
        let (start, end) = (w[0] as usize, w[1] as usize);
        new_values.extend_from_slice(&values[start..end.min(start.saturating_add(prefix))]);
        new_offsets.push(new_values.len() as u32);
    }
    Array::ListInt64 { offsets: new_offsets.into(), values: new_values.into() }
}

/// Reads the chunk at `offset..offset + byte_len` of a shared in-memory
/// file, decoding aligned plain pages as zero-copy views over `shared`
/// (see [`page::read_page_shared`]). Single-page chunks — the common case —
/// reach the caller without any value copy.
///
/// # Errors
///
/// Same as [`read_chunk`], plus [`crate::ColumnarError::UnexpectedEof`] when
/// the range exceeds the blob.
pub fn read_chunk_shared(
    shared: &std::sync::Arc<Vec<u8>>,
    offset: u64,
    byte_len: usize,
    data_type: DataType,
) -> Result<Array> {
    let start = usize::try_from(offset).map_err(|_| crate::ColumnarError::Io {
        detail: format!("chunk offset {offset} out of addressable range"),
    })?;
    let end = start
        .checked_add(byte_len)
        .filter(|&e| e <= shared.len())
        .ok_or(crate::ColumnarError::UnexpectedEof { context: "column chunk range" })?;
    let buf = &shared[..end];
    let mut pos = start;
    let n_pages = varint::read_u64(buf, &mut pos)? as usize;
    if n_pages == 0 {
        return read_split_unbudgeted(buf, &mut pos, data_type, 0);
    }
    let mut parts = Vec::with_capacity(n_pages.min(end.saturating_sub(pos)));
    for _ in 0..n_pages {
        parts.push(page::read_page_shared(shared, end, &mut pos, data_type)?);
    }
    concat_arrays(&parts)
}

/// Peeks the page count of the chunk at `offset` without decoding; zero
/// marks a head/tail chunk.
///
/// # Errors
///
/// Propagates varint decode errors.
pub(crate) fn peek_page_count(buf: &[u8], offset: usize) -> Result<usize> {
    let mut pos = offset;
    Ok(varint::read_u64(buf, &mut pos)? as usize)
}

/// Which part of its chunk a page belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPart {
    /// A page of an ordinary, one-part chunk.
    Whole,
    /// A head page of a head/tail chunk.
    Head,
    /// A tail page of a head/tail chunk.
    Tail,
}

/// One page as its header describes it (see [`page_summaries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSummary {
    /// The part of the chunk the page belongs to.
    pub part: ChunkPart,
    /// Encoding of the page's value stream.
    pub encoding: encoding::Encoding,
    /// Compression of the stored payload.
    pub compression: Compression,
    /// Rows the page covers.
    pub rows: usize,
    /// Values the page holds.
    pub elements: usize,
    /// Stored payload length in bytes.
    pub stored_bytes: usize,
}

/// Walks the page headers of the chunk at the start of `buf` (read from
/// `base` bytes into its file), verifying each payload's checksum and
/// decoding nothing — what an inspection tool prints.
///
/// # Errors
///
/// Propagates page header failures, checksum mismatches included.
pub fn page_summaries(buf: &[u8], base: u64) -> Result<Vec<PageSummary>> {
    let mut pos = 0usize;
    let n_pages = varint::read_u64(buf, &mut pos)? as usize;
    let parts: &[ChunkPart] =
        if n_pages == 0 { &[ChunkPart::Head, ChunkPart::Tail] } else { &[ChunkPart::Whole] };
    let mut pages = Vec::new();
    for &part in parts {
        let n_pages =
            if n_pages == 0 { varint::read_u64(buf, &mut pos)? as usize } else { n_pages };
        for _ in 0..n_pages {
            let header = page::read_page_header(buf, &mut pos, base)?;
            pages.push(PageSummary {
                part,
                encoding: header.encoding,
                compression: header.compression,
                rows: header.rows,
                elements: header.elements,
                stored_bytes: header.payload_len,
            });
        }
    }
    Ok(pages)
}

/// Convenience wrapper using [`DEFAULT_PAGE_ROWS`].
///
/// # Errors
///
/// Same as [`write_chunk`].
pub fn write_chunk_default(array: &Array, out: &mut Vec<u8>) -> Result<ColumnStats> {
    write_chunk(array, DEFAULT_PAGE_ROWS, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_roundtrip(array: Array, page_rows: usize) {
        let mut buf = Vec::new();
        let stats = write_chunk(&array, page_rows, &mut buf).unwrap();
        assert_eq!(stats.rows, array.len() as u64);
        let mut pos = 0;
        let back = read_chunk(&buf, &mut pos, array.data_type()).unwrap();
        assert_eq!(back, array);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn multi_page_int_chunk() {
        chunk_roundtrip(Array::Int64((0..10_000).collect()), 1024);
    }

    #[test]
    fn multi_page_list_chunk() {
        let lists: Vec<Vec<i64>> = (0..3000).map(|i| vec![i as i64; (i % 5) + 1]).collect();
        chunk_roundtrip(Array::from_lists(lists).unwrap(), 512);
    }

    #[test]
    fn single_row_pages() {
        chunk_roundtrip(Array::Float32(vec![1.0, 2.0, 3.0].into()), 1);
    }

    #[test]
    fn empty_chunk_roundtrips() {
        chunk_roundtrip(Array::Int64(vec![].into()), 4096);
        chunk_roundtrip(Array::from_lists(Vec::<Vec<i64>>::new()).unwrap(), 4096);
    }

    #[test]
    fn batched_reader_matches_page_at_a_time() {
        let array = Array::Int64((0..5000).map(|i| i * 7 % 997).collect());
        let mut buf = Vec::new();
        write_chunk(&array, 512, &mut buf).unwrap();
        let mut pos = 0;
        let back = read_chunk_batched(
            &buf,
            &mut pos,
            DataType::Int64,
            0,
            5000,
            5000,
            &mut DecodeScratch::default(),
        )
        .unwrap();
        assert_eq!(back, array);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn batched_reader_stops_before_decoding_past_declared_totals() {
        // Ten 512-row pages but a declared total of 512: the second page's
        // header must trip the budget check *before* its payload decodes —
        // this is what stops a many-tiny-page chunk from amplifying the
        // per-page element ceiling.
        let array = Array::Int64((0..5120).collect());
        let mut buf = Vec::new();
        write_chunk(&array, 512, &mut buf).unwrap();
        let mut pos = 0;
        let err = read_chunk_batched(
            &buf,
            &mut pos,
            DataType::Int64,
            0,
            512,
            512,
            &mut DecodeScratch::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::CountMismatch { .. }));
    }

    #[test]
    fn batched_reader_rejects_absurd_chunk_totals() {
        let mut pos = 0;
        let err = read_chunk_batched(
            &[1, 0, 0],
            &mut pos,
            DataType::ListInt64,
            0,
            usize::MAX,
            usize::MAX,
            &mut DecodeScratch::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ColumnarError::CorruptFile { .. }));
    }

    /// Lists of every shape the head/tail layout distinguishes — empty,
    /// shorter than K, exactly K, far longer — at a mean well past the
    /// split threshold.
    fn long_lists(rows: usize) -> Array {
        let shapes = [0usize, 1, HEAD_K - 1, HEAD_K, HEAD_K + 1, 40 * HEAD_K];
        let lists: Vec<Vec<i64>> = (0..rows)
            .map(|r| (0..shapes[r % shapes.len()]).map(|j| (r * 1000 + j) as i64 % 7919).collect())
            .collect();
        Array::from_lists(lists).unwrap()
    }

    fn batched(buf: &[u8], array: &Array) -> Result<Array> {
        let mut pos = 0;
        let back = read_chunk_batched(
            buf,
            &mut pos,
            DataType::ListInt64,
            0,
            array.len(),
            array.element_count(),
            &mut DecodeScratch::default(),
        )?;
        assert_eq!(pos, buf.len());
        Ok(back)
    }

    fn prefix(buf: &[u8], array: &Array, x: usize) -> Result<Array> {
        let (rows, elements) = (array.len(), array.element_count());
        read_chunk_prefix(buf, &mut 0, 0, rows, elements, x, &mut DecodeScratch::default())
    }

    #[test]
    fn long_lists_are_written_head_then_tail_and_read_back_whole() {
        let array = long_lists(50);
        for page_rows in [1usize, 7, 4096] {
            for forced in
                [None, Some(encoding::Encoding::Plain), Some(encoding::Encoding::Dictionary)]
            {
                let policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
                let mut buf = Vec::new();
                let stats = write_chunk_policy(&array, page_rows, &policy, &mut buf).unwrap();
                let head = stats.head.expect("mean length is past the threshold");
                assert_eq!(head.k, HEAD_K as u64);
                assert_eq!(stats.pages, 2 * 50usize.div_ceil(page_rows) as u64);
                assert_eq!(buf[0], 0, "a split chunk opens with a page count of zero");
                // Every full-read path puts the two parts back together.
                assert_eq!(batched(&buf, &array).unwrap(), array, "page_rows {page_rows}");
                assert_eq!(read_chunk(&buf, &mut 0, DataType::ListInt64).unwrap(), array);
                let shared = std::sync::Arc::new(buf.clone());
                let lazy = read_chunk_shared(&shared, 0, buf.len(), DataType::ListInt64).unwrap();
                assert_eq!(lazy, array);
                // The page headers say which part is which.
                let pages = page_summaries(&buf, 0).unwrap();
                assert_eq!(pages.len() as u64, stats.pages);
                let (heads, tails) = pages.split_at(pages.len() / 2);
                assert!(heads.iter().all(|p| p.part == ChunkPart::Head));
                assert!(tails.iter().all(|p| p.part == ChunkPart::Tail));
                let held = |pages: &[PageSummary]| pages.iter().map(|p| p.elements).sum::<usize>();
                assert_eq!(held(heads) + held(tails), array.element_count());
                // A prefix read needs the head pages and nothing after them.
                let head_bytes = &buf[..head.head_len as usize];
                for x in [0, 1, HEAD_K - 1, HEAD_K] {
                    let expect = truncate_lists(array.clone(), x);
                    assert_eq!(prefix(head_bytes, &array, x).unwrap(), expect, "x {x}");
                    assert_eq!(prefix(&buf, &array, x).unwrap(), expect, "x {x}, whole chunk");
                }
                assert!(matches!(
                    prefix(&buf, &array, HEAD_K + 1),
                    Err(ColumnarError::CorruptFile { .. })
                ));
            }
        }
    }

    #[test]
    fn tail_pages_close_once_they_hold_enough_values() {
        // 40 lists of 10,000: one head page, and a tail page every seven
        // rows (7 × 9,968 is the first multiple past 64 Ki).
        let lists: Vec<Vec<i64>> =
            (0..40).map(|r| (0..10_000).map(|j| (r * 31 + j) as i64).collect()).collect();
        let array = Array::from_lists(lists).unwrap();
        let mut buf = Vec::new();
        let stats = write_chunk(&array, 4096, &mut buf).unwrap();
        let pages = page_summaries(&buf, 0).unwrap();
        assert_eq!(pages.len() as u64, stats.pages);
        let tails: Vec<_> = pages.iter().filter(|p| p.part == ChunkPart::Tail).collect();
        assert_eq!(pages.len() - tails.len(), 1);
        assert_eq!(tails.iter().map(|p| p.rows).collect::<Vec<_>>(), [7, 7, 7, 7, 7, 5]);
        assert!(tails.iter().all(|p| p.elements == p.rows * (10_000 - HEAD_K)));
        assert_eq!(batched(&buf, &array).unwrap(), array);
        assert_eq!(read_chunk(&buf, &mut 0, DataType::ListInt64).unwrap(), array);
    }

    #[test]
    fn chunks_below_the_threshold_keep_the_one_part_layout() {
        // One value short of a mean of 4·K, and an all-empty chunk.
        let mut lists = vec![vec![7i64; SPLIT_MEAN_HEADS * HEAD_K]; 10];
        lists[3].pop();
        for array in [
            Array::from_lists(lists).unwrap(),
            Array::from_lists(vec![Vec::<i64>::new(); 20]).unwrap(),
            Array::from_lists(Vec::<Vec<i64>>::new()).unwrap(),
        ] {
            let mut buf = Vec::new();
            let stats = write_chunk(&array, 4, &mut buf).unwrap();
            assert_eq!(stats.head, None);
            assert_ne!(buf[0], 0);
            assert_eq!(read_chunk(&buf, &mut 0, DataType::ListInt64).unwrap(), array);
        }
        // At the threshold it splits — unless the container predates it.
        let array = Array::from_lists(vec![vec![7i64; SPLIT_MEAN_HEADS * HEAD_K]; 10]).unwrap();
        let mut buf = Vec::new();
        assert!(write_chunk(&array, 4, &mut buf).unwrap().head.is_some());
        let mut legacy = Vec::new();
        let stats =
            write_chunk_layout(&array, 4, &WritePolicy::default(), false, &mut legacy).unwrap();
        assert_eq!((stats.head, stats.pages), (None, 3));
        assert_eq!(read_chunk(&legacy, &mut 0, DataType::ListInt64).unwrap(), array);
    }

    /// A hand-made head/tail chunk of one page per part: `lengths`, a head
    /// page claiming `k` and holding `head`, a tail page holding `tail`.
    fn crafted(lengths: &[u64], k: u64, head: &[i64], tail: &[i64]) -> Vec<u8> {
        let policy = WritePolicy::default();
        let mut buf = vec![0, 1];
        page::write_head_page(lengths, k, head, &policy, &mut buf);
        buf.push(1);
        page::write_tail_page(lengths.len(), tail, &policy, &mut buf);
        buf
    }

    #[test]
    fn any_k_a_chunk_is_consistent_with_decodes_exactly() {
        let array = Array::from_lists([vec![1i64, 2, 3], vec![], vec![4, 5]]).unwrap();
        let all = [1i64, 2, 3, 4, 5];
        for (k, head, tail) in [
            (0u64, &all[..0], &all[..]),
            (2, &[1i64, 2, 4, 5][..], &[3i64][..]),
            (3, &all[..], &all[..0]),
            (u64::MAX, &all[..], &all[..0]),
        ] {
            let buf = crafted(&[3, 0, 2], k, head, tail);
            assert_eq!(batched(&buf, &array).unwrap(), array, "k {k}");
            for x in 0..5usize {
                let got = prefix(&buf, &array, x);
                if x as u64 <= k {
                    assert_eq!(got.unwrap(), truncate_lists(array.clone(), x), "k {k} x {x}");
                } else {
                    assert!(got.is_err(), "k {k} x {x}");
                }
            }
        }
    }

    #[test]
    fn a_chunk_whose_parts_disagree_is_an_error_on_every_path() {
        let array = Array::from_lists([vec![1i64, 2, 3], vec![], vec![4, 5]]).unwrap();
        let lengths = [3u64, 0, 2];
        for (what, buf) in [
            ("head holds fewer than Σ min(len, K)", crafted(&lengths, 2, &[1, 2, 4], &[3])),
            ("head holds more than Σ min(len, K)", crafted(&lengths, 2, &[1, 2, 4, 5, 6], &[3])),
            ("tail holds fewer than what is left", crafted(&lengths, 2, &[1, 2, 4, 5], &[])),
            ("tail holds more than what is left", crafted(&lengths, 2, &[1, 2, 4, 5], &[3, 9])),
            (
                "lengths sum past the declared elements",
                crafted(&[3, 1, 2], 2, &[1, 2, 9, 4, 5], &[3]),
            ),
        ] {
            assert!(batched(&buf, &array).is_err(), "{what}");
            // Without footer totals only the chunk's own parts can disagree.
            if !what.starts_with("lengths") {
                assert!(read_chunk(&buf, &mut 0, DataType::ListInt64).is_err(), "{what}");
            }
            if !what.starts_with("tail") {
                assert!(prefix(&buf, &array, 1).is_err(), "{what}");
            }
        }
        // Two head pages that disagree on K, and tail pages that cover more
        // rows than the head pages described.
        let policy = WritePolicy::default();
        let mut buf = vec![0, 2];
        page::write_head_page(&[3, 0], 2, &[1, 2], &policy, &mut buf);
        page::write_head_page(&[2], 3, &[4, 5], &policy, &mut buf);
        buf.push(2);
        page::write_tail_page(2, &[3], &policy, &mut buf);
        page::write_tail_page(1, &[], &policy, &mut buf);
        assert!(matches!(batched(&buf, &array), Err(ColumnarError::CorruptFile { .. })));
        let mut buf = vec![0, 1];
        page::write_head_page(&lengths, 2, &[1, 2, 4, 5], &policy, &mut buf);
        buf.push(1);
        page::write_tail_page(4, &[3], &policy, &mut buf);
        assert!(matches!(batched(&buf, &array), Err(ColumnarError::CountMismatch { .. })));
        // A scalar chunk has no second part to find.
        assert!(read_chunk(&[0, 1], &mut 0, DataType::Int64).is_err());
        assert!(read_chunk(&[0, 1], &mut 0, DataType::Float32).is_err());
    }

    #[test]
    fn a_flipped_k_is_a_checksum_mismatch() {
        // K sits in the head page's payload, right after the length stream,
        // so the page checksum covers it.
        let array = Array::from_lists([vec![1i64, 2, 3], vec![], vec![4, 5]]).unwrap();
        let lengths = [3u64, 0, 2];
        let mut buf = crafted(&lengths, 2, &[1, 2, 4, 5], &[3]);
        let header = page::read_page_header(&buf, &mut 2, 0).unwrap();
        let mut length_stream = Vec::new();
        encoding::rle::encode(&lengths, &mut length_stream);
        let k_at = header.payload_start + length_stream.len();
        assert_eq!(buf[k_at], 2);
        for bit in 0..8 {
            buf[k_at] ^= 1 << bit;
            for result in [batched_unframed(&buf, &array), prefix(&buf, &array, 1)] {
                assert!(matches!(result, Err(ColumnarError::ChecksumMismatch { .. })), "bit {bit}");
            }
            buf[k_at] ^= 1 << bit;
        }
        assert_eq!(batched(&buf, &array).unwrap(), array);
    }

    #[test]
    fn a_split_chunk_cut_anywhere_is_an_error_or_the_exact_prefix() {
        let array = long_lists(12);
        let mut buf = Vec::new();
        let stats = write_chunk(&array, 5, &mut buf).unwrap();
        let head_len = stats.head.unwrap().head_len as usize;
        let expect = truncate_lists(array.clone(), 3);
        for cut in 0..buf.len() {
            assert!(batched_unframed(&buf[..cut], &array).is_err(), "cut {cut}");
            match prefix(&buf[..cut], &array, 3) {
                Ok(got) => {
                    assert!(cut >= head_len, "cut {cut} inside the head pages decoded");
                    assert_eq!(got, expect);
                }
                Err(_) => assert!(cut < head_len, "cut {cut} is past the head pages"),
            }
        }
    }

    /// [`batched`] without its own framing assertion, for inputs that are
    /// expected to fail.
    fn batched_unframed(buf: &[u8], array: &Array) -> Result<Array> {
        let (rows, elements) = (array.len(), array.element_count());
        let scratch = &mut DecodeScratch::default();
        read_chunk_batched(buf, &mut 0, DataType::ListInt64, 0, rows, elements, scratch)
    }

    #[test]
    fn a_split_chunk_is_held_to_the_declared_totals_before_it_decodes() {
        // Twelve rows declared as five: the second head page (rows 5..10
        // fit, 10..12 do not) must trip the budget before its payload is
        // touched, and nothing may be reserved past what was declared.
        let array = long_lists(12);
        let mut buf = Vec::new();
        write_chunk(&array, 5, &mut buf).unwrap();
        let mut scratch = DecodeScratch::default();
        for (rows, elements) in [(5, array.element_count()), (12, 100)] {
            let err = read_chunk_batched(
                &buf,
                &mut 0,
                DataType::ListInt64,
                0,
                rows,
                elements,
                &mut scratch,
            )
            .unwrap_err();
            assert!(matches!(err, ColumnarError::CountMismatch { .. }), "{err}");
            assert!(scratch.lengths.capacity() <= 64.max(2 * rows), "lengths over-reserved");
            assert!(scratch.values.capacity() <= 64.max(2 * elements), "heads over-reserved");
            let err =
                read_chunk_prefix(&buf, &mut 0, 0, rows, elements, 4, &mut scratch).unwrap_err();
            assert!(matches!(err, ColumnarError::CountMismatch { .. }), "{err}");
        }
    }

    #[test]
    fn truncate_lists_cuts_lists_and_nothing_else() {
        let a = Array::from_lists([vec![1i64, 2, 3], vec![], vec![4]]).unwrap();
        assert_eq!(
            truncate_lists(a.clone(), 2),
            Array::from_lists([vec![1i64, 2], vec![], vec![4]]).unwrap()
        );
        assert_eq!(
            truncate_lists(a.clone(), 0),
            Array::from_lists(vec![Vec::<i64>::new(); 3]).unwrap()
        );
        assert_eq!(truncate_lists(a.clone(), usize::MAX), a);
        let scalar = Array::Int64(vec![1, 2].into());
        assert_eq!(truncate_lists(scalar.clone(), 0), scalar);
    }

    #[test]
    fn slice_rebases_jagged_offsets() {
        let a = Array::from_lists([vec![1i64], vec![2, 3], vec![4, 5, 6], vec![]]).unwrap();
        let s = slice_array(&a, 1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.list_at(0), &[2, 3]);
        assert_eq!(s.list_at(1), &[4, 5, 6]);
        s.validate().unwrap();
    }

    #[test]
    fn concat_rejects_mixed_types() {
        let err = concat_arrays(&[Array::Int64(vec![1].into()), Array::Float32(vec![1.0].into())])
            .unwrap_err();
        assert!(matches!(err, ColumnarError::InvalidSchema { .. }));
    }

    #[test]
    fn concat_of_lists_preserves_rows() {
        let a = Array::from_lists([vec![1i64], vec![2, 3]]).unwrap();
        let b = Array::from_lists([vec![], vec![4i64, 5]]).unwrap();
        let c = concat_arrays(&[a, b]).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.list_at(3), &[4, 5]);
        c.validate().unwrap();
    }

    #[test]
    fn zero_page_rows_is_clamped() {
        chunk_roundtrip(Array::Int64(vec![5, 6].into()), 0);
    }
}
