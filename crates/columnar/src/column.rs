//! Column chunks: a column's worth of pages for one row group.
//!
//! A chunk is a page count followed by that many pages, and there is one
//! decoder for it, [`read_chunk`]: one walk over the pages (count → page
//! header → footer budget → payload, see [`crate::page`]) feeding one sink
//! per data type. Every read of [`crate::FileReader`] — whole file, one row
//! group, projected, prefix — is this function over the chunk's bytes.
//!
//! # What the decoder decides, and from what
//!
//! No route is a caller's choice; each is selected by what the decoder sees
//! in the bytes and arguments it was given.
//!
//! * **View** — a scalar or list value stream becomes a zero-copy
//!   [`Buffer`] over the blob's own allocation. Selected when the blob
//!   shares its allocation, the chunk is one plain, uncompressed, aligned
//!   page, and the limit cuts no list.
//! * **Append** — every page decodes straight into one exactly-sized output:
//!   no per-page `Vec`, no concat. Selected otherwise.
//! * **Ranged** — a list page's value stream goes through
//!   [`encoding::decode_i64_ranges`], which stores only the kept prefixes
//!   and stops after the last. Selected for the pages of which the limit
//!   cuts at least one list.
//! * **Head-only** — a head/tail chunk (below) is read to the end of its
//!   head pages. Selected when a limit is given, which must be at most the
//!   pages' K.
//!
//! A full read is `limit = None`, and an ordinary list page is a head page
//! whose K is unbounded. Whatever the route, a page's row and element counts
//! are added to the budget the footer declared for the chunk *before* its
//! payload is decoded, outputs are reserved from the declared totals clamped
//! to what the input could describe, and the result passes
//! [`Array::validate`].
//!
//! # Head/tail chunks
//!
//! A list column whose lists are long is read, far more often than not,
//! for the first few values of each list. When a chunk's mean list length
//! reaches `4 * K` the writer therefore stores it in two parts:
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
use crate::buffer::{Buffer, PlainValue};
use crate::compress::Compression;
use crate::encoding::dictionary::DictScratch;
use crate::encoding::{self, plain, varint, Encoding};
use crate::error::{ColumnarError, Result};
use crate::io::DecodeScratch;
use crate::page::{self, PageHeader};
use crate::schema::{DataType, WritePolicy};
use crate::stats::{ChunkHead, ColumnStats};
use std::sync::Arc;

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
        DataType::Int64 => Ok(Array::Int64(concat_values(parts, Array::as_int64))),
        DataType::Float32 => Ok(Array::Float32(concat_values(parts, Array::as_float32))),
        DataType::Float64 => Ok(Array::Float64(concat_values(parts, Array::as_float64))),
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

/// The values of same-typed scalar `parts`, back to back.
fn concat_values<T: Copy>(parts: &[Array], values: fn(&Array) -> Option<&[T]>) -> Buffer<T> {
    let mut out = Vec::with_capacity(parts.iter().map(Array::element_count).sum());
    for part in parts {
        out.extend_from_slice(values(part).expect("checked type"));
    }
    out.into()
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
pub fn write_chunk(
    array: &Array,
    page_rows: usize,
    policy: &WritePolicy,
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
        if rows > 0 && values.len() / rows >= SPLIT_MEAN_HEADS * HEAD_K {
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
    /// [`write_chunk`]), so larger declared totals are corruption;
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

/// The one page walk. Every page of every read passes through
/// [`Walk::page`]: its header is parsed, bounded and checksummed, its counts
/// are added to the footer's budget, and only then is its payload handed out
/// to be decoded.
struct Walk<'a> {
    buf: &'a [u8],
    pos: usize,
    /// File offset of `buf[0]`, from which payload alignment is recomputed.
    base: u64,
    budget: Budget,
}

impl<'a> Walk<'a> {
    /// A page count — or the `0x00` that opens a head/tail chunk.
    fn count(&mut self) -> Result<usize> {
        Ok(varint::read_u64(self.buf, &mut self.pos)? as usize)
    }

    /// Exact-size reservations are clamped to what the remaining input could
    /// legitimately describe (codecs emit no fewer than one byte per ~64
    /// values after framing), in case the footer stats are corrupt.
    fn reservation_limit(&self) -> usize {
        self.buf.len().saturating_sub(self.pos).saturating_mul(64).max(1024)
    }

    /// The next page: its header, its decode-ready payload, and the
    /// payload's file offset when (and only when) those are the stored bytes
    /// — the precondition for a view. A tail page adds nothing to the
    /// budget: the head pages counted its rows, and their lengths its values.
    fn page<'s>(
        &mut self,
        part: ChunkPart,
        staging: &'s mut Vec<u8>,
    ) -> Result<(PageHeader, &'s [u8], Option<u64>)>
    where
        'a: 's,
    {
        let header = page::read_page_header(self.buf, &mut self.pos, self.base)?;
        if part != ChunkPart::Tail {
            self.budget.add(header.rows, header.elements)?;
        }
        let (payload, stored_at) = page::page_payload(&header, self.buf, staging)?;
        Ok((header, payload, stored_at.map(|at| self.base + at as u64)))
    }
}

/// Decodes the column chunk at the start of `bytes` — the one chunk decoder,
/// see the module docs for what it decides and from what. `bytes` was read
/// from `base` bytes into its file; `rows` and `elements` are what the footer
/// declares for this chunk of this row group, and both size the outputs and
/// bound the decode; `limit` keeps only the first so many values of every
/// list (scalar columns ignore it); `shared` is the allocation holding the
/// whole file when `bytes` is a window of it, which is what a view aliases.
/// Returns the array and how many bytes of `bytes` the chunk's pages took.
///
/// Of a head/tail chunk under a `limit`, only the head pages are read, so
/// `bytes` may end where they do ([`ChunkHead::head_len`]); a `limit` deeper
/// than those pages reach is the caller's to turn into a full read.
///
/// # Errors
///
/// [`ColumnarError::CountMismatch`] when the pages disagree with the
/// declared totals or with each other, [`ColumnarError::ChecksumMismatch`],
/// [`ColumnarError::UnexpectedEof`] and [`ColumnarError::CorruptFile`] on
/// damaged or truncated pages, plus the codecs' own decode errors.
pub fn read_chunk(
    bytes: &[u8],
    base: u64,
    data_type: DataType,
    (rows, elements): (usize, usize),
    limit: Option<usize>,
    shared: Option<&Arc<Vec<u8>>>,
    scratch: &mut DecodeScratch,
) -> Result<(Array, usize)> {
    let mut walk = Walk { buf: bytes, pos: 0, base, budget: Budget::new(rows, elements)? };
    let array = match data_type {
        DataType::Int64 => {
            Array::Int64(read_scalars(&mut walk, shared, scratch, encoding::decode_i64_with)?)
        }
        DataType::Float32 => Array::Float32(read_scalars(
            &mut walk,
            shared,
            scratch,
            floats(plain::decode_f32_into),
        )?),
        DataType::Float64 => Array::Float64(read_scalars(
            &mut walk,
            shared,
            scratch,
            floats(plain::decode_f64_into),
        )?),
        DataType::ListInt64 => read_lists(&mut walk, shared, limit, scratch)?,
    };
    walk.budget.finish()?;
    array.validate()?;
    Ok((array, walk.pos))
}

/// A float page's decode: the format stores floats plain and nothing else.
fn floats<T>(
    decode: fn(&[u8], &mut usize, usize, &mut Vec<T>) -> Result<()>,
) -> impl Fn(Encoding, &[u8], &mut usize, usize, &mut DictScratch, &mut Vec<T>) -> Result<()> {
    move |encoding, payload, pos, count, _, out| match encoding {
        Encoding::Plain => decode(payload, pos, count, out),
        other => Err(ColumnarError::CorruptFile { detail: format!("float page encoded {other}") }),
    }
}

/// A zero-copy view of the `count` plain values at `value_start` of a stored
/// payload, when they are all that is left of it; `None` means "copy-decode
/// instead" (not shared, compressed, length mismatch or misaligned).
fn view<T: PlainValue>(
    shared: Option<&Arc<Vec<u8>>>,
    stored_at: Option<u64>,
    payload: &[u8],
    value_start: usize,
    count: usize,
) -> Option<Buffer<T>> {
    let at = usize::try_from(stored_at?).ok()?.checked_add(value_start)?;
    let byte_len = count.checked_mul(std::mem::size_of::<T>())?;
    if payload.len().checked_sub(value_start)? != byte_len {
        return None;
    }
    Buffer::from_shared_le_bytes(Arc::clone(shared?), at, count)
}

/// Appends all `count` values of the stream at `pos` of a page's payload,
/// which must end where the payload does: a page header's encoding tag sits
/// outside the page checksum, and a stream read as another encoding, when it
/// decodes at all, rarely ends on the same byte.
fn decode_rest<T>(
    decode: impl Fn(Encoding, &[u8], &mut usize, usize, &mut DictScratch, &mut Vec<T>) -> Result<()>,
    encoding: Encoding,
    payload: &[u8],
    mut pos: usize,
    count: usize,
    dict: &mut DictScratch,
    out: &mut Vec<T>,
) -> Result<()> {
    decode(encoding, payload, &mut pos, count, dict, out)?;
    match payload.len() - pos {
        0 => Ok(()),
        left => Err(ColumnarError::CorruptFile {
            detail: format!("{left} bytes left over after a page's {encoding} stream"),
        }),
    }
}

/// Sizes a chunk's output when its first page is about to be appended — a
/// chunk that becomes a view never reserves.
fn reserve_once<T>(out: &mut Vec<T>, want: usize) {
    if out.capacity() == 0 {
        out.reserve_exact(want);
    }
}

/// The sink of scalar columns: the chunk's one page as a view when it can
/// be one, else every page appended to one output.
fn read_scalars<T: PlainValue>(
    walk: &mut Walk<'_>,
    shared: Option<&Arc<Vec<u8>>>,
    scratch: &mut DecodeScratch,
    decode: impl Fn(Encoding, &[u8], &mut usize, usize, &mut DictScratch, &mut Vec<T>) -> Result<()>,
) -> Result<Buffer<T>> {
    let n_pages = walk.count()?;
    if n_pages == 0 {
        return Err(ColumnarError::CorruptFile { detail: "scalar chunk declares no pages".into() });
    }
    let reserve = walk.budget.rows.min(walk.reservation_limit());
    let mut values: Vec<T> = Vec::new();
    for _ in 0..n_pages {
        let (header, payload, stored_at) = walk.page(ChunkPart::Whole, &mut scratch.staging)?;
        if header.elements != header.rows {
            return Err(ColumnarError::CountMismatch {
                declared: header.rows,
                actual: header.elements,
            });
        }
        let viewable = shared.filter(|_| n_pages == 1 && header.encoding == Encoding::Plain);
        if let Some(values) = view(viewable, stored_at, payload, 0, header.rows) {
            return Ok(values);
        }
        reserve_once(&mut values, reserve);
        let (encoding, dict) = (header.encoding, &mut scratch.dict);
        decode_rest(&decode, encoding, payload, 0, header.rows, dict, &mut values)?;
    }
    Ok(values.into())
}

/// The sink of list columns. Every row's length waits in `scratch` until the
/// offsets are built from them, cut to the limit, in one pass at the end;
/// the value streams go by the table in the module docs. The two parts of a
/// head/tail chunk read in full meet here too: the head pages' values wait
/// in `scratch` while each tail page decodes straight into the output and is
/// then spread out, in place, to let its rows' head runs back in.
///
/// Everything is held to the page header and the budget before it is decoded
/// or reserved: a page's lengths must put exactly the values its header
/// declares into its value stream (`min(len, K)` of each list) and no more
/// past it than the chunk may still hold, and a tail page's header must
/// declare exactly what its rows have left.
fn read_lists(
    walk: &mut Walk<'_>,
    shared: Option<&Arc<Vec<u8>>>,
    limit: Option<usize>,
    scratch: &mut DecodeScratch,
) -> Result<Array> {
    let marker = walk.count()?;
    let split = marker == 0;
    let head_pages = if split { walk.count()? } else { marker };
    let (part, both_parts) =
        if split { (ChunkPart::Head, limit.is_none()) } else { (ChunkPart::Whole, false) };
    let reserve = limit
        .map_or(walk.budget.elements, |x| walk.budget.rows.saturating_mul(x))
        .min(walk.budget.elements)
        .min(walk.reservation_limit());
    let DecodeScratch { staging, lengths, values: heads, ranges, dict } = scratch;
    lengths.clear();
    heads.clear();
    let mut values: Vec<i64> = Vec::new();
    let mut viewed = None;
    let mut chunk_k = None;
    for _ in 0..head_pages {
        let (header, payload, stored_at) = walk.page(part, staging)?;
        let first = lengths.len();
        let (value_enc, value_start, k) =
            page::read_list_prefix(payload, header.rows, split, lengths)?;
        if *chunk_k.get_or_insert(k) != k {
            return Err(ColumnarError::CorruptFile {
                detail: "head pages of one chunk disagree on K".into(),
            });
        }
        if header.encoding != value_enc {
            return Err(ColumnarError::CorruptFile {
                detail: format!("page header says {}, its payload {value_enc}", header.encoding),
            });
        }
        if let Some(x) = limit.filter(|&x| x as u64 > k) {
            return Err(ColumnarError::CorruptFile {
                detail: format!("prefix {x} read from head pages that hold {k} per list"),
            });
        }
        let (stored, beyond) = split_lengths(&lengths[first..], k);
        if stored != header.elements as u64 {
            return Err(ColumnarError::CountMismatch {
                declared: header.elements,
                actual: usize::try_from(stored).unwrap_or(usize::MAX),
            });
        }
        walk.budget.add(0, usize::try_from(beyond).unwrap_or(usize::MAX))?;
        let kept =
            limit.map_or(stored as usize, |x| prefix_ranges(&lengths[first..], k, x, ranges));
        let count = header.elements;
        let viewable = shared.filter(|_| marker == 1 && value_enc == Encoding::Plain);
        if kept < count {
            reserve_once(&mut values, reserve);
            let (pos, out) = (&mut { value_start }, &mut values);
            encoding::decode_i64_ranges(value_enc, payload, pos, count, ranges, dict, out)?;
        } else if let Some(all) = view(viewable, stored_at, payload, value_start, count) {
            viewed = Some(all);
        } else {
            let decode = encoding::decode_i64_with;
            let out = if both_parts {
                &mut *heads
            } else {
                reserve_once(&mut values, reserve);
                &mut values
            };
            decode_rest(decode, value_enc, payload, value_start, count, dict, out)?;
        }
    }
    if both_parts {
        let k = chunk_k.unwrap_or(0);
        let tail_pages = walk.count()?;
        let (mut row, mut head_at) = (0usize, 0usize);
        for _ in 0..tail_pages {
            let (header, payload, _) = walk.page(ChunkPart::Tail, staging)?;
            let page_lengths = row
                .checked_add(header.rows)
                .and_then(|end| lengths.get(row..end))
                .ok_or(ColumnarError::CountMismatch {
                declared: lengths.len(),
                actual: row.saturating_add(header.rows),
            })?;
            let (in_head, in_tail) = split_lengths(page_lengths, k);
            if in_tail != header.elements as u64 {
                return Err(ColumnarError::CountMismatch {
                    declared: header.elements,
                    actual: usize::try_from(in_tail).unwrap_or(usize::MAX),
                });
            }
            let page_start = values.len();
            reserve_once(&mut values, reserve);
            let (decode, encoding, count) =
                (encoding::decode_i64_with, header.encoding, header.elements);
            decode_rest(decode, encoding, payload, 0, count, dict, &mut values)?;
            // Both sums fit: the head pages' budget checks bounded them.
            let head_end = head_at + in_head as usize;
            interleave_heads(&mut values, page_start, page_lengths, k, &heads[head_at..head_end]);
            row += header.rows;
            head_at = head_end;
        }
        if row != lengths.len() {
            return Err(ColumnarError::CountMismatch { declared: lengths.len(), actual: row });
        }
    }
    let offsets = offsets_of(lengths, limit.unwrap_or(usize::MAX))?;
    let values = viewed.unwrap_or_else(|| values.into());
    Ok(Array::ListInt64 { offsets: offsets.into(), values })
}

/// The offsets of lists of these `lengths`, each cut to `prefix` values.
fn offsets_of(lengths: &[u64], prefix: usize) -> Result<Vec<u32>> {
    let mut offsets = Vec::with_capacity(lengths.len() + 1);
    offsets.push(0);
    let mut acc = 0u64;
    for &len in lengths {
        acc = acc.saturating_add(len.min(prefix as u64));
        offsets.push(u32::try_from(acc).map_err(|_| ColumnarError::ValueOutOfRange {
            detail: "list offsets overflow u32".into(),
        })?);
    }
    Ok(offsets)
}

/// Turns per-list prefixes into sorted element ranges over a page's value
/// stream — in which a list takes up `min(len, k)` places, that sum already
/// checked against the page header — merging lists whose kept prefixes are
/// contiguous (always the case while lists are shorter than `prefix`).
/// Returns how many values the ranges keep.
fn prefix_ranges(
    lengths: &[u64],
    k: u64,
    prefix: usize,
    ranges: &mut Vec<(usize, usize)>,
) -> usize {
    ranges.clear();
    let (mut start, mut kept) = (0usize, 0usize);
    for &len in lengths {
        let stored = len.min(k) as usize;
        let stop = start + stored.min(prefix);
        match ranges.last_mut() {
            Some(last) if last.1 == start => last.1 = stop,
            _ if stop > start => ranges.push((start, stop)),
            _ => {}
        }
        kept += stop - start;
        start += stored;
    }
    kept
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

/// Cuts every list of a list array down to its first `prefix` values, as
/// [`read_chunk`] under that limit would have read it; any other array comes
/// back as it is.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `array` as one chunk at the start of a buffer, under the cost model's
    /// codecs.
    fn written(array: &Array, page_rows: usize) -> (Vec<u8>, ColumnStats) {
        written_under(array, page_rows, WritePolicy::default())
    }

    fn written_under(
        array: &Array,
        page_rows: usize,
        policy: WritePolicy,
    ) -> (Vec<u8>, ColumnStats) {
        let mut buf = Vec::new();
        let stats = write_chunk(array, page_rows, &policy, &mut buf).unwrap();
        (buf, stats)
    }

    /// The cost model's policy, then each encoding forced.
    fn every_policy() -> impl Iterator<Item = WritePolicy> {
        let forced = Encoding::ALL.map(|e| WritePolicy::default().with_forced_encoding(e));
        [WritePolicy::default()].into_iter().chain(forced)
    }

    /// The decoder over a borrowed buffer, held to the totals of `like`:
    /// the array and how many bytes it took.
    fn decode(buf: &[u8], like: &Array, limit: Option<usize>) -> Result<(Array, usize)> {
        let totals = (like.len(), like.element_count());
        let scratch = &mut DecodeScratch::default();
        read_chunk(buf, 0, like.data_type(), totals, limit, None, scratch)
    }

    /// ...and over a shared allocation, where one plain page is a view.
    fn decode_shared(buf: &[u8], like: &Array) -> Result<(Array, usize)> {
        let totals = (like.len(), like.element_count());
        let (shared, scratch) = (Arc::new(buf.to_vec()), &mut DecodeScratch::default());
        read_chunk(&shared, 0, like.data_type(), totals, None, Some(&shared), scratch)
    }

    fn chunk_roundtrip(array: Array, page_rows: usize) {
        for policy in every_policy() {
            let (buf, stats) = written_under(&array, page_rows, policy);
            assert_eq!(stats.rows, array.len() as u64);
            let back = (array.clone(), buf.len());
            assert_eq!(decode(&buf, &array, None).unwrap(), back, "{policy:?}");
            assert_eq!(decode_shared(&buf, &array).unwrap(), back, "{policy:?}");
        }
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
        // Ten pages appended to one output, and the same values as one page
        // (a view, when that page is plain): one array.
        let array = Array::Int64((0..5000).map(|i| i * 7 % 997).collect());
        let (paged, _) = written(&array, 512);
        let (one_page, _) = written(&array, 5000);
        assert_eq!(paged[0], 10);
        assert_eq!(decode(&paged, &array, None).unwrap(), (array.clone(), paged.len()));
        assert_eq!(decode_shared(&paged, &array).unwrap().0, array);
        let (viewed, used) = decode_shared(&one_page, &array).unwrap();
        assert_eq!((&viewed, used), (&array, one_page.len()));
        let Array::Int64(values) = &viewed else { panic!("an Int64 chunk") };
        let header = page::read_page_header(&one_page, &mut 1, 0).unwrap();
        assert_eq!(values.is_byte_backed(), header.encoding == Encoding::Plain);
    }

    #[test]
    fn batched_reader_stops_before_decoding_past_declared_totals() {
        // Ten 512-row pages but a declared total of 512: the second page's
        // header must trip the budget check *before* its payload decodes —
        // this is what stops a many-tiny-page chunk from amplifying the
        // per-page element ceiling.
        let (buf, _) = written(&Array::Int64((0..5120).collect()), 512);
        let declared = Array::Int64((0..512).collect());
        for result in [decode(&buf, &declared, None), decode_shared(&buf, &declared)] {
            assert!(matches!(result, Err(ColumnarError::CountMismatch { .. })));
        }
    }

    #[test]
    fn batched_reader_rejects_absurd_chunk_totals() {
        let (absurd, scratch) = ((usize::MAX, usize::MAX), &mut DecodeScratch::default());
        let err = read_chunk(&[1, 0, 0], 0, DataType::ListInt64, absurd, None, None, scratch)
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

    /// A full read, which must take all of `buf`.
    fn whole(buf: &[u8], array: &Array) -> Result<Array> {
        let (back, used) = decode(buf, array, None)?;
        assert_eq!(used, buf.len());
        Ok(back)
    }

    fn prefix(buf: &[u8], array: &Array, x: usize) -> Result<Array> {
        Ok(decode(buf, array, Some(x))?.0)
    }

    #[test]
    fn long_lists_are_written_head_then_tail_and_read_back_whole() {
        let array = long_lists(50);
        for page_rows in [1usize, 7, 4096] {
            for policy in every_policy() {
                let mut buf = Vec::new();
                let stats = write_chunk(&array, page_rows, &policy, &mut buf).unwrap();
                let head = stats.head.expect("mean length is past the threshold");
                assert_eq!(head.k, HEAD_K as u64);
                assert_eq!(stats.pages, 2 * 50usize.div_ceil(page_rows) as u64);
                assert_eq!(buf[0], 0, "a split chunk opens with a page count of zero");
                // A full read puts the two parts back together on both routes.
                assert_eq!(whole(&buf, &array).unwrap(), array, "page_rows {page_rows}");
                assert_eq!(decode_shared(&buf, &array).unwrap(), (array.clone(), buf.len()));
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
                    let read = (expect, head_bytes.len());
                    assert_eq!(decode(head_bytes, &array, Some(x)).unwrap(), read, "x {x}");
                    assert_eq!(decode(&buf, &array, Some(x)).unwrap(), read, "x {x}, whole chunk");
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
        let (buf, stats) = written(&array, 4096);
        let pages = page_summaries(&buf, 0).unwrap();
        assert_eq!(pages.len() as u64, stats.pages);
        let tails: Vec<_> = pages.iter().filter(|p| p.part == ChunkPart::Tail).collect();
        assert_eq!(pages.len() - tails.len(), 1);
        assert_eq!(tails.iter().map(|p| p.rows).collect::<Vec<_>>(), [7, 7, 7, 7, 7, 5]);
        assert!(tails.iter().all(|p| p.elements == p.rows * (10_000 - HEAD_K)));
        assert_eq!(whole(&buf, &array).unwrap(), array);
        assert_eq!(decode_shared(&buf, &array).unwrap().0, array);
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
            let (buf, stats) = written(&array, 4);
            assert_eq!(stats.head, None);
            assert_ne!(buf[0], 0);
            assert_eq!(whole(&buf, &array).unwrap(), array);
        }
        // At the threshold it splits.
        let array = Array::from_lists(vec![vec![7i64; SPLIT_MEAN_HEADS * HEAD_K]; 10]).unwrap();
        let (buf, stats) = written(&array, 4);
        assert!(stats.head.is_some());
        assert_eq!(whole(&buf, &array).unwrap(), array);
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
            assert_eq!(whole(&buf, &array).unwrap(), array, "k {k}");
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
            assert!(whole(&buf, &array).is_err(), "{what}");
            assert!(decode_shared(&buf, &array).is_err(), "{what}");
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
        assert!(matches!(whole(&buf, &array), Err(ColumnarError::CorruptFile { .. })));
        let mut buf = vec![0, 1];
        page::write_head_page(&lengths, 2, &[1, 2, 4, 5], &policy, &mut buf);
        buf.push(1);
        page::write_tail_page(4, &[3], &policy, &mut buf);
        assert!(matches!(whole(&buf, &array), Err(ColumnarError::CountMismatch { .. })));
        // A scalar chunk has no second part to find.
        for scalar in [Array::Int64(Buffer::empty()), Array::Float32(Buffer::empty())] {
            assert!(matches!(
                decode(&[0, 1], &scalar, None),
                Err(ColumnarError::CorruptFile { .. })
            ));
        }
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
            for result in [unframed(&buf, &array), prefix(&buf, &array, 1)] {
                assert!(matches!(result, Err(ColumnarError::ChecksumMismatch { .. })), "bit {bit}");
            }
            buf[k_at] ^= 1 << bit;
        }
        assert_eq!(whole(&buf, &array).unwrap(), array);
    }

    #[test]
    fn a_page_read_as_another_encoding_is_caught_where_anything_can_tell() {
        // The header's encoding tag is outside the page checksum. All-distinct
        // values under the dictionary codec, read as plain deltas: the
        // stream opens with the dictionary's size — the row count — and its
        // sorted dictionary decodes as the values; only the index stream
        // left over after it gives the page away.
        let array = Array::Int64(vec![5, 3, 9, 1, 7].into());
        let policy = WritePolicy::default().with_forced_encoding(Encoding::Dictionary);
        let mut buf = Vec::new();
        write_chunk(&array, 4096, &policy, &mut buf).unwrap();
        assert_eq!(whole(&buf, &array).unwrap(), array);
        assert_eq!(buf[1], Encoding::Dictionary.to_tag());
        buf[1] = Encoding::Delta.to_tag();
        assert!(matches!(decode(&buf, &array, None), Err(ColumnarError::CorruptFile { .. })));
        // A list page names its value encoding in its payload too, and the
        // two must agree.
        let lists = Array::from_lists([vec![1i64, 2], vec![3]]).unwrap();
        let (mut buf, _) = written(&lists, 4096);
        buf[1] ^= 1;
        for limit in [None, Some(1)] {
            let got = decode(&buf, &lists, limit);
            assert!(matches!(got, Err(ColumnarError::CorruptFile { .. })), "{limit:?}");
        }
    }

    #[test]
    fn a_split_chunk_cut_anywhere_is_an_error_or_the_exact_prefix() {
        let array = long_lists(12);
        let (buf, stats) = written(&array, 5);
        let head_len = stats.head.unwrap().head_len as usize;
        let expect = truncate_lists(array.clone(), 3);
        for cut in 0..buf.len() {
            assert!(unframed(&buf[..cut], &array).is_err(), "cut {cut}");
            match prefix(&buf[..cut], &array, 3) {
                Ok(got) => {
                    assert!(cut >= head_len, "cut {cut} inside the head pages decoded");
                    assert_eq!(got, expect);
                }
                Err(_) => assert!(cut < head_len, "cut {cut} is past the head pages"),
            }
        }
    }

    /// [`whole`] without its own framing assertion, for inputs that are
    /// expected to fail.
    fn unframed(buf: &[u8], array: &Array) -> Result<Array> {
        Ok(decode(buf, array, None)?.0)
    }

    #[test]
    fn a_split_chunk_is_held_to_the_declared_totals_before_it_decodes() {
        // Twelve rows declared as five: the second head page (rows 5..10
        // fit, 10..12 do not) must trip the budget before its payload is
        // touched, and nothing may be reserved past what was declared.
        let array = long_lists(12);
        let (buf, _) = written(&array, 5);
        let mut scratch = DecodeScratch::default();
        for (rows, elements) in [(5, array.element_count()), (12, 100)] {
            for limit in [None, Some(4)] {
                let totals = (rows, elements);
                let err =
                    read_chunk(&buf, 0, DataType::ListInt64, totals, limit, None, &mut scratch)
                        .unwrap_err();
                assert!(matches!(err, ColumnarError::CountMismatch { .. }), "{err}");
                assert!(scratch.lengths.capacity() <= 64.max(2 * rows), "lengths over-reserved");
                assert!(scratch.values.capacity() <= 64.max(2 * elements), "heads over-reserved");
            }
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
