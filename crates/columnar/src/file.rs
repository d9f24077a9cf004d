//! The columnar file container: row groups of column chunks plus a footer.
//!
//! File layout (`PSTOCOL4`):
//!
//! ```text
//! magic  "PSTOCOL4"                      (8 bytes)
//! column chunks, back to back            (row-group major, column minor)
//! footer: schema, row-group index        (self-describing, see below)
//! u32 LE  CRC-32 of the footer bytes
//! u32 LE  footer length
//! magic  "PSTOCOL4"                      (8 bytes)
//! ```
//!
//! The footer is a varint-encoded tree:
//!
//! ```text
//! footer      := schema row_group_index
//! schema      := n_fields { name_len name_bytes type_tag }*
//! index       := n_groups { group }*
//! group       := rows { chunk }*            one chunk per schema field
//! chunk       := offset byte_len stats      absolute offset + length in bytes
//! stats       := rows elements pages null_rows flags [minmax] [head]   (v4)
//!              | rows elements flags [minmax]             (v2/v3 legacy)
//! flags       := one byte: 0x01 = minmax follows, 0x02 = head follows (v4
//!                only); any other bit is corruption
//! minmax      := min_i64 max_i64                (zigzag varints)
//! head        := head_len k                     a chunk stored in two parts:
//!                                               its head pages end head_len
//!                                               bytes in and hold the first
//!                                               k values of every list
//! ```
//!
//! Version 4 makes the footer a true **row-group index**: writers emit
//! mini-batch-aligned row groups ([`FileWriter::with_group_rows`] +
//! [`FileWriter::write_batch`]) and every chunk entry carries the group's
//! own page count and null-row count next to its offset/size/row/element
//! stats, so a reader can fetch any single group — `read_row_group(g)` /
//! `read_projected_with(g, ..)` — with exactly one ranged read per
//! projected column and exactly-sized decode buffers, without touching any
//! other group. This random access is what the shuffled epoch streaming in
//! `presto-ops` (the shuffled fleet) is built on. [`FileMeta::locate_row`] /
//! [`FileMeta::start_rows`] map global row numbers onto groups.
//!
//! Version 3 added the delta-bitpacked block encoding (page encoding tag 3,
//! see [`crate::encoding::block`]) and the per-column [`WritePolicy`].
//! Version 2 (PR 2) 8-byte-aligns every page payload (see
//! [`crate::page::PAYLOAD_ALIGN`]). The reader accepts `PSTOCOL2` and
//! `PSTOCOL3` files as-is — same container layout, legacy per-chunk stats
//! (their [`ColumnStats::pages`]/[`ColumnStats::null_rows`] read back as 0 =
//! unknown), and in practice one whole-partition row group, which v4
//! readers simply treat as an index of length 1. Version-1 files fail at
//! open with a clear bad-magic error instead of a misleading decode
//! failure. Mixed leading/trailing magics are rejected as corruption.
//!
//! The footer-at-the-end design is what lets a reader fetch metadata with two
//! small reads and then issue *exactly one ranged read per projected column*,
//! which is the selective-extraction property the PreSto paper's Extract
//! phase depends on (Section II-B).
//!
//! # Reading
//!
//! There is one chunk read, [`FileReader::read_column_limit_with`]: fetch
//! the [`ChunkMeta::read_len`] bytes of one column chunk, decode them with
//! [`column::read_chunk`] against the footer's row and element counts for
//! that group, and require that the pages end exactly where the footer says
//! the bytes do and hold the group's rows. It takes the two things a caller
//! can bring — an element limit (below) and a [`ReadScratch`] to stage and
//! decode in — and every other read method is a loop over it, kept because
//! callers outside the crate use it: [`FileReader::read_projected_with`] and
//! [`FileReader::read_projected_limits_with`] (`presto-ops`' Extract: columns
//! by name, the worker's scratch, the plan's limits),
//! [`FileReader::read_row_group`], [`FileReader::read_projected`] and
//! [`FileReader::read_column`] (tools, examples and tests: they bring one
//! scratch of their own per call). What the decoder does with the bytes —
//! zero-copy views over a shared blob, one exactly-sized output otherwise —
//! it decides itself; see [`crate::column`]. Files of all three magics go
//! through the same read: the version only selects the footer's stats layout.
//!
//! # Prefix pushdown
//!
//! [`FileReader::read_projected_limits_with`] /
//! [`FileReader::read_column_limit_with`] accept a per-column element
//! limit: `Some(x)` on a list column materializes only the first `x`
//! elements of every list. This is the storage half of the late-
//! materialization contract with `presto-ops`:
//!
//! - **Who may request a prefix.** Only a query planner that has proven
//!   every consumer of the column truncates it first — in `presto-ops`,
//!   plan compilation emits `Prefix(x)` only when *every* reading chain is
//!   headed by `FirstX`, taking the max `x` across readers. The reader
//!   itself does not validate that claim; a too-small limit silently drops
//!   data, exactly like projecting away a needed column would.
//! - **Why offsets stay full.** The RLE length stream always decodes
//!   completely: it is a few bytes per list, row alignment and the
//!   per-page element budget checks depend on it, and it is what lets the
//!   value stream stop early (the last needed element's position is known
//!   only from the lengths). Only the *value* stream is cut short — plain
//!   pages gather by byte range, delta pages skip storing out-of-prefix
//!   elements and hard-stop after the last needed one (see
//!   [`crate::encoding::block`]).
//! - **What comes back.** A compact [`Array::ListInt64`] whose offsets
//!   already reflect the truncation — `min(len, x)` per list — so a
//!   downstream `FirstX(x)` is a no-op. Lists shorter than `x` are
//!   returned whole; empty lists stay empty. Row counts are unchanged,
//!   which keeps the group-level `rows` invariant intact.
//! - **What it costs.** One ranged read of [`ChunkMeta::read_len`] bytes.
//!   For most chunks that is the whole chunk: every page is fetched and
//!   checksummed, and the saving is in the decode. A list column whose
//!   lists are long is different on disk: the writer stores such a chunk as
//!   *head pages* (every list's length and first K values) followed by
//!   *tail pages* (the rest), each page under its own CRC, and records
//!   where the head pages end in the chunk's footer entry
//!   ([`crate::stats::ChunkHead`]). A prefix read of at most K values then
//!   fetches, checksums and decodes the head pages and touches nothing
//!   else — on the long-history shape (lists of ≈ 512, `x` = 8) about a
//!   fifteenth of the chunk. A deeper prefix, and every full read, takes
//!   both parts and gets back exactly the array the writer was given. See
//!   [`crate::column`] for the layout and the rule that picks it.
//!
//! A chunk without long lists is written, and read, byte for byte as it was
//! before the two-part layout existed, and the layout needs no new magic:
//! it is announced per chunk by a footer flag bit that older `PSTOCOL4`
//! files never set.

use crate::array::Array;
use crate::checksum::crc32;
use crate::column;
use crate::compress::Compression;
use crate::encoding::varint;
use crate::error::{ColumnarError, Result};
use crate::io::{BlobRead, ReadScratch};
use crate::page::DEFAULT_PAGE_ROWS;
use crate::schema::{DataType, Field, Schema, WritePolicy};
use crate::stats::ColumnStats;

/// Magic bytes at both ends of every file the writer produces by default.
pub const MAGIC: &[u8; 8] = b"PSTOCOL4";

/// Version-3 magic the reader still accepts (legacy per-chunk stats, no
/// row-group index guarantees — typically one whole-partition group).
pub const MAGIC_V3: &[u8; 8] = b"PSTOCOL3";

/// Version-2 magic the reader still accepts (same as v3 minus the
/// delta-bitpacked page encoding).
pub const MAGIC_V2: &[u8; 8] = b"PSTOCOL2";

/// Container format versions this crate can read. It writes the newest
/// only; the older two live on as checked-in fixtures
/// (`tests/data/v{2,3}_rm1_200rows_seed42.pstocol`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatVersion {
    /// `PSTOCOL2`: aligned page payloads, legacy footer stats.
    V2,
    /// `PSTOCOL3`: v2 plus delta-bitpacked pages, legacy footer stats.
    V3,
    /// `PSTOCOL4`: v3 plus the row-group index footer (per-chunk page and
    /// null-row counts). The current default.
    V4,
}

impl FormatVersion {
    /// Resolves magic bytes to a version; `None` for unknown magics.
    #[must_use]
    pub fn from_magic(magic: &[u8]) -> Option<Self> {
        match magic {
            m if m == MAGIC => Some(FormatVersion::V4),
            m if m == MAGIC_V3 => Some(FormatVersion::V3),
            m if m == MAGIC_V2 => Some(FormatVersion::V2),
            _ => None,
        }
    }

    /// True when footers of this version carry the v4 stats layout.
    #[must_use]
    fn v4_stats(self) -> bool {
        matches!(self, FormatVersion::V4)
    }
}

/// Footer metadata for one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Absolute byte offset of the chunk in the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub byte_len: u64,
    /// Column statistics.
    pub stats: ColumnStats,
}

impl ChunkMeta {
    /// Bytes the one ranged read of this chunk fetches under an element
    /// `limit` ([`FileReader::read_column_limit_with`]): the head pages
    /// alone when the chunk has them and they reach `limit` values deep,
    /// the whole chunk otherwise. This is both what the reader does and what
    /// byte accounting (the ISP fleet's P2P traffic) should charge.
    #[must_use]
    pub fn read_len(&self, limit: Option<usize>) -> u64 {
        match (self.stats.head, limit) {
            (Some(head), Some(x)) if x as u64 <= head.k => head.head_len,
            _ => self.byte_len,
        }
    }
}

/// Footer metadata for one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub rows: u64,
    /// One entry per schema field, in schema order.
    pub columns: Vec<ChunkMeta>,
}

/// Parsed footer of a columnar file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// The table schema.
    pub schema: Schema,
    /// Row groups in file order.
    pub row_groups: Vec<RowGroupMeta>,
}

impl FileMeta {
    /// Total rows across all row groups.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.row_groups.iter().map(|rg| rg.rows).sum()
    }

    /// Global row number at which each row group starts (one entry per
    /// group, in file order). `start_rows()[g] + locate_row` arithmetic is
    /// how shuffled readers map epoch positions back to file coordinates.
    #[must_use]
    pub fn start_rows(&self) -> Vec<u64> {
        let mut starts = Vec::with_capacity(self.row_groups.len());
        let mut acc = 0u64;
        for rg in &self.row_groups {
            starts.push(acc);
            acc += rg.rows;
        }
        starts
    }

    /// Locates global row number `row` as `(group index, offset within
    /// group)` by walking the group index; `None` when `row` is past the
    /// end of the file. Empty groups are skipped, never returned.
    #[must_use]
    pub fn locate_row(&self, row: u64) -> Option<(usize, u64)> {
        let mut acc = 0u64;
        let mut candidate = None;
        for (g, rg) in self.row_groups.iter().enumerate() {
            if row < acc + rg.rows {
                candidate = Some((g, row - acc));
                break;
            }
            acc += rg.rows;
        }
        candidate
    }

    fn write(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.schema.len() as u64);
        for field in self.schema.fields() {
            varint::write_u64(out, field.name().len() as u64);
            out.extend_from_slice(field.name().as_bytes());
            out.push(field.data_type().to_tag());
        }
        varint::write_u64(out, self.row_groups.len() as u64);
        for rg in &self.row_groups {
            varint::write_u64(out, rg.rows);
            for chunk in &rg.columns {
                varint::write_u64(out, chunk.offset);
                varint::write_u64(out, chunk.byte_len);
                chunk.stats.write(out);
            }
        }
    }

    /// Parses a footer whose CRC already matched. A matching CRC is an
    /// integrity check, not a trust boundary (whoever can write the footer
    /// can write its checksum), so every count is bounded by the bytes left
    /// before anything is allocated for it.
    fn read(buf: &[u8], version: FormatVersion) -> Result<Self> {
        let mut pos = 0usize;
        // A field is at least a name length and a type tag.
        let n_fields = read_count(buf, &mut pos, 2, "field")?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let name_len = varint::read_u64(buf, &mut pos)?;
            let name_bytes = usize::try_from(name_len)
                .ok()
                .and_then(|len| pos.checked_add(len))
                .and_then(|end| buf.get(pos..end))
                .ok_or_else(|| ColumnarError::CorruptFile {
                    detail: format!("field name of {name_len} bytes exceeds the footer"),
                })?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| ColumnarError::CorruptFile {
                    detail: "field name is not utf-8".into(),
                })?
                .to_owned();
            pos += name_bytes.len();
            let Some(&tag) = buf.get(pos) else {
                return Err(ColumnarError::UnexpectedEof { context: "field type tag" });
            };
            pos += 1;
            fields.push(Field::new(name, DataType::from_tag(tag)?));
        }
        let schema = Schema::new(fields)?;
        // A group is a row count plus, per column, an offset, a length and
        // the stats (rows, elements, [pages, null rows,] min/max flag).
        let chunk_min = if version.v4_stats() { 7 } else { 5 };
        let n_groups = read_count(buf, &mut pos, 1 + chunk_min * schema.len(), "row group")?;
        let mut row_groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let rows = varint::read_u64(buf, &mut pos)?;
            let mut columns = Vec::with_capacity(schema.len());
            for _ in 0..schema.len() {
                let offset = varint::read_u64(buf, &mut pos)?;
                let byte_len = varint::read_u64(buf, &mut pos)?;
                let stats = ColumnStats::read(buf, &mut pos, version.v4_stats())?;
                if stats.head.is_some_and(|head| head.head_len > byte_len) {
                    return Err(ColumnarError::CorruptFile {
                        detail: format!("head pages run past their {byte_len}-byte chunk"),
                    });
                }
                columns.push(ChunkMeta { offset, byte_len, stats });
            }
            row_groups.push(RowGroupMeta { rows, columns });
        }
        Ok(FileMeta { schema, row_groups })
    }
}

/// Reads a varint count of footer records of at least `min_bytes` each,
/// refusing a count the rest of the footer is too short to hold.
fn read_count(buf: &[u8], pos: &mut usize, min_bytes: usize, what: &str) -> Result<usize> {
    let count = varint::read_u64(buf, pos)?;
    let fits = (buf.len() - *pos) / min_bytes;
    if count > fits as u64 {
        return Err(ColumnarError::CorruptFile {
            detail: format!("footer declares {count} {what}s, has room for {fits}"),
        });
    }
    Ok(count as usize)
}

/// Streaming writer producing an in-memory columnar file.
///
/// # Long list columns
///
/// A list chunk whose mean list length is at least 128 (four times the 32
/// values a head page keeps per list) is written as head pages followed by
/// tail pages, so that the prefix reads such columns mostly get
/// ([`FileReader::read_column_limit_with`]) cost a fraction of the chunk;
/// see [`crate::column`]. The choice is made per chunk from the data in it,
/// and neither it nor the 32 can be set: a file's bytes are a function of
/// the batch, the page and group sizes and the [`WritePolicy`] alone, the
/// readers take both numbers from the file, and there is no second layout
/// for anyone to forget to test.
///
/// # Examples
///
/// ```
/// use presto_columnar::{Array, DataType, Field, FileWriter, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("label", DataType::Int64),
///     Field::new("dense_0", DataType::Float32),
/// ])?;
/// let mut writer = FileWriter::new(schema);
/// writer.write_row_group(&[
///     Array::Int64(vec![0, 1].into()),
///     Array::Float32(vec![0.5, 1.5].into()),
/// ])?;
/// let bytes = writer.finish();
/// assert!(bytes.len() > 16);
/// # Ok::<(), presto_columnar::ColumnarError>(())
/// ```
#[derive(Debug)]
pub struct FileWriter {
    schema: Schema,
    page_rows: usize,
    group_rows: Option<usize>,
    policy: WritePolicy,
    buf: Vec<u8>,
    row_groups: Vec<RowGroupMeta>,
}

impl FileWriter {
    /// Creates a writer with the default page size.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Self::with_page_rows(schema, DEFAULT_PAGE_ROWS)
    }

    /// Creates a writer with an explicit page size (rows per page).
    ///
    /// The starting [`WritePolicy`] is [`WritePolicy::default`]: cost-model
    /// encoding selection and no compression.
    #[must_use]
    pub fn with_page_rows(schema: Schema, page_rows: usize) -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        FileWriter {
            schema,
            page_rows: page_rows.max(1),
            group_rows: None,
            policy: WritePolicy::default(),
            buf,
            row_groups: Vec::new(),
        }
    }

    /// Sets the target rows per row group for [`FileWriter::write_batch`]:
    /// batches split into mini-batch-aligned groups of `group_rows` rows
    /// (the last group of a batch may be shorter). Group splits share the
    /// batch's buffers ([`column::slice_array`]); only jagged offsets are
    /// rebased.
    ///
    /// Smaller groups give a shuffled reader finer-grained randomness and
    /// work stealing but amplify per-group read overhead (footer entries,
    /// page headers, ranged reads); `repro-all ablation-shuffle` sweeps the
    /// trade-off.
    #[must_use]
    pub fn with_group_rows(mut self, group_rows: usize) -> Self {
        self.group_rows = Some(group_rows.max(1));
        self
    }

    /// Enables per-page payload compression for subsequently written row
    /// groups. Hot column types (sparse ids, integer labels/offsets) keep
    /// skipping compression so they stay lazy-decodable — the
    /// "uncompressed-if-hot" rule; use [`FileWriter::with_policy`] with
    /// [`WritePolicy::compressing_hot_columns`] to compress everything.
    #[must_use]
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.policy.compression = compression;
        self
    }

    /// Replaces the writer's per-column [`WritePolicy`].
    #[must_use]
    pub fn with_policy(mut self, policy: WritePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Appends one row group; `columns` must match the schema in count,
    /// order, type and row count.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::InvalidSchema`] on arity/type mismatches and
    /// [`ColumnarError::CountMismatch`] when column lengths differ.
    pub fn write_row_group(&mut self, columns: &[Array]) -> Result<()> {
        if columns.len() != self.schema.len() {
            return Err(ColumnarError::InvalidSchema {
                detail: format!(
                    "row group has {} columns, schema has {}",
                    columns.len(),
                    self.schema.len()
                ),
            });
        }
        let rows = columns.first().map_or(0, Array::len);
        for (field, col) in self.schema.fields().iter().zip(columns) {
            if col.data_type() != field.data_type() {
                return Err(ColumnarError::InvalidSchema {
                    detail: format!(
                        "column {:?} is {} but schema says {}",
                        field.name(),
                        col.data_type(),
                        field.data_type()
                    ),
                });
            }
            if col.len() != rows {
                return Err(ColumnarError::CountMismatch { declared: rows, actual: col.len() });
            }
            col.validate()?;
        }
        let mut metas = Vec::with_capacity(columns.len());
        for col in columns {
            let offset = self.buf.len() as u64;
            let stats = column::write_chunk(col, self.page_rows, &self.policy, &mut self.buf)?;
            let byte_len = self.buf.len() as u64 - offset;
            metas.push(ChunkMeta { offset, byte_len, stats });
        }
        self.row_groups.push(RowGroupMeta { rows: rows as u64, columns: metas });
        Ok(())
    }

    /// Appends a batch of rows, split into row groups of the configured
    /// [`FileWriter::with_group_rows`] target (one group holding the whole
    /// batch when no target is set). Validation runs once on the full
    /// batch; the splits are zero-copy windows except for rebased jagged
    /// offsets. An empty batch writes nothing.
    ///
    /// # Errors
    ///
    /// Same as [`FileWriter::write_row_group`].
    pub fn write_batch(&mut self, columns: &[Array]) -> Result<()> {
        let rows = columns.first().map_or(0, Array::len);
        let group_rows = match self.group_rows {
            Some(g) if rows > 0 => g,
            _ => return self.write_row_group(columns),
        };
        // Validate once up front (write_row_group re-validates per group,
        // which is cheap relative to encoding but catches length mismatches
        // before any bytes are emitted).
        if columns.len() != self.schema.len() {
            return Err(ColumnarError::InvalidSchema {
                detail: format!(
                    "batch has {} columns, schema has {}",
                    columns.len(),
                    self.schema.len()
                ),
            });
        }
        for col in columns {
            if col.len() != rows {
                return Err(ColumnarError::CountMismatch { declared: rows, actual: col.len() });
            }
        }
        let mut start = 0usize;
        while start < rows {
            let take = group_rows.min(rows - start);
            let group: Vec<Array> =
                columns.iter().map(|c| column::slice_array(c, start, take)).collect();
            self.write_row_group(&group)?;
            start += take;
        }
        Ok(())
    }

    /// Finalizes the file and returns its bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let meta = FileMeta { schema: self.schema.clone(), row_groups: self.row_groups.clone() };
        let mut footer = Vec::new();
        meta.write(&mut footer);
        let footer_crc = crc32(&footer);
        let footer_len = footer.len() as u32;
        self.buf.extend_from_slice(&footer);
        self.buf.extend_from_slice(&footer_crc.to_le_bytes());
        self.buf.extend_from_slice(&footer_len.to_le_bytes());
        self.buf.extend_from_slice(MAGIC);
        self.buf
    }
}

/// Reader with per-column random access over any [`BlobRead`] backend.
#[derive(Debug)]
pub struct FileReader<B> {
    blob: B,
    meta: FileMeta,
    version: FormatVersion,
}

impl<B: BlobRead> FileReader<B> {
    /// Opens a columnar file, validating magic numbers and the footer CRC.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::CorruptFile`] / [`ColumnarError::ChecksumMismatch`]
    /// on structural damage.
    pub fn open(blob: B) -> Result<Self> {
        let total = blob.blob_len();
        let tail_len = 8 + 4 + 4;
        if total < (8 + tail_len) as u64 {
            return Err(ColumnarError::CorruptFile {
                detail: format!("file of {total} bytes is too small"),
            });
        }
        let head = blob.read_at(0, 8)?;
        let Some(version) = FormatVersion::from_magic(&head) else {
            return Err(ColumnarError::CorruptFile { detail: "bad leading magic".into() });
        };
        let tail = blob.read_at(total - tail_len as u64, tail_len)?;
        if tail[8..] != head {
            return Err(ColumnarError::CorruptFile { detail: "bad trailing magic".into() });
        }
        let footer_crc = u32::from_le_bytes(tail[0..4].try_into().expect("4 bytes"));
        let footer_len = u32::from_le_bytes(tail[4..8].try_into().expect("4 bytes")) as u64;
        let footer_end = total - tail_len as u64;
        if footer_len > footer_end - 8 {
            return Err(ColumnarError::CorruptFile {
                detail: format!("footer length {footer_len} exceeds file"),
            });
        }
        let footer = blob.read_at(footer_end - footer_len, footer_len as usize)?;
        let actual = crc32(&footer);
        if actual != footer_crc {
            return Err(ColumnarError::ChecksumMismatch { expected: footer_crc, actual });
        }
        let meta = FileMeta::read(&footer, version)?;
        Ok(FileReader { blob, meta, version })
    }

    /// The parsed footer.
    #[must_use]
    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }

    /// The container version this file was written with.
    #[must_use]
    pub fn version(&self) -> FormatVersion {
        self.version
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Number of row groups.
    #[must_use]
    pub fn row_group_count(&self) -> usize {
        self.meta.row_groups.len()
    }

    /// Reads one column of one row group in full, with a single ranged read.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::UnknownColumn`] for bad indices plus any
    /// decode error.
    pub fn read_column(&self, row_group: usize, column: usize) -> Result<Array> {
        self.read_column_limit_with(row_group, column, None, &mut ReadScratch::new())
    }

    /// The footer's entry for one chunk, with its group and column type.
    fn chunk(
        &self,
        row_group: usize,
        column: usize,
    ) -> Result<(&RowGroupMeta, &ChunkMeta, DataType)> {
        let rg = self.meta.row_groups.get(row_group).ok_or_else(|| {
            ColumnarError::UnknownColumn { name: format!("row group {row_group}") }
        })?;
        let chunk = rg
            .columns
            .get(column)
            .ok_or_else(|| ColumnarError::UnknownColumn { name: format!("column {column}") })?;
        let field = self.meta.schema.field(column).expect("meta/schema in sync");
        Ok((rg, chunk, field.data_type()))
    }

    /// The one chunk read, of which every other read method is a loop: the
    /// [`ChunkMeta::read_len`] bytes of one column chunk, decoded by
    /// [`column::read_chunk`] against the footer's row and element counts
    /// for that group, which must end exactly where the footer says the
    /// bytes do and hold the group's rows.
    ///
    /// The bytes are borrowed from storage memory when the backend exposes
    /// it ([`BlobRead::as_shared`], under which aligned plain pages come
    /// back as views of it, or [`BlobRead::as_slice`]) and the scratch's
    /// staging buffer is then not touched; otherwise they are fetched with
    /// one positioned read into that recycled buffer. Either way a caller
    /// that reuses one [`ReadScratch`] across columns and partitions stages
    /// and decodes without allocating anything but the returned array.
    ///
    /// `limit` is the prefix pushdown (see the module docs): `Some(x)` on a
    /// list column materializes only the first `x` elements of every list,
    /// and the offsets of the returned array already reflect the truncation;
    /// `None` — or any limit on a scalar column — reads the column in full.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::UnknownColumn`] for bad indices,
    /// [`ColumnarError::CorruptFile`] when the chunk's pages do not fill the
    /// byte range the footer gives them, [`ColumnarError::CountMismatch`]
    /// when they do not hold the group's rows, plus any storage or decode
    /// error.
    pub fn read_column_limit_with(
        &self,
        row_group: usize,
        column: usize,
        limit: Option<usize>,
        scratch: &mut ReadScratch,
    ) -> Result<Array> {
        let (rg, chunk, data_type) = self.chunk(row_group, column)?;
        let limit = limit.filter(|_| data_type == DataType::ListInt64);
        // Deeper than the head pages reach: both parts, then cut.
        let deep = limit.filter(|&x| chunk.stats.head.is_some_and(|head| x as u64 > head.k));
        let len = usize::try_from(chunk.read_len(limit)).unwrap_or(usize::MAX);
        // Corrupt metadata must surface as Err — not as an overflow panic, and
        // not after a staging buffer has been sized by it.
        let past_the_blob = ColumnarError::UnexpectedEof { context: "column chunk range" };
        if chunk.offset.checked_add(len as u64).is_none_or(|end| end > self.blob.blob_len()) {
            return Err(past_the_blob);
        }
        let shared = self.blob.as_shared();
        let memory = shared.as_deref().map(Vec::as_slice).or_else(|| self.blob.as_slice());
        let (bytes, decode) = match memory {
            None => scratch.read_split(&self.blob, chunk.offset, len)?,
            Some(all) => {
                let start = chunk.offset as usize;
                (all.get(start..start + len).ok_or(past_the_blob)?, scratch.decode_parts())
            }
        };
        let totals = (
            usize::try_from(rg.rows).unwrap_or(usize::MAX),
            usize::try_from(chunk.stats.elements).unwrap_or(usize::MAX),
        );
        let (array, used) = column::read_chunk(
            bytes,
            chunk.offset,
            data_type,
            totals,
            if deep.is_some() { None } else { limit },
            shared.as_ref(),
            decode,
        )?;
        if used != bytes.len() {
            return Err(ColumnarError::CorruptFile {
                detail: format!("chunk's pages end at byte {used}, the footer says {len}"),
            });
        }
        if array.len() as u64 != rg.rows {
            return Err(ColumnarError::CountMismatch {
                declared: rg.rows as usize,
                actual: array.len(),
            });
        }
        Ok(match deep {
            Some(x) => column::truncate_lists(array, x),
            None => array,
        })
    }

    /// Reads several columns by name.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::UnknownColumn`] for unknown names plus any
    /// decode error.
    pub fn read_projected(&self, row_group: usize, names: &[&str]) -> Result<Vec<Array>> {
        self.read_projected_with(row_group, names, &mut ReadScratch::new())
    }

    /// Like [`FileReader::read_projected`], reusing a [`ReadScratch`] for
    /// every chunk read (see [`FileReader::read_column_limit_with`]).
    ///
    /// # Errors
    ///
    /// Same as [`FileReader::read_projected`].
    pub fn read_projected_with(
        &self,
        row_group: usize,
        names: &[&str],
        scratch: &mut ReadScratch,
    ) -> Result<Vec<Array>> {
        let idx = self.meta.schema.project(names)?;
        idx.iter().map(|&c| self.read_column_limit_with(row_group, c, None, scratch)).collect()
    }

    /// Like [`FileReader::read_projected_with`], honoring a per-column
    /// element limit — the prefix-pushdown read (see the module docs).
    /// `limits[i]` applies to `names[i]`: `Some(x)` materializes only the
    /// first `x` elements of each list in that column; `None` reads the
    /// column in full.
    ///
    /// # Errors
    ///
    /// Same as [`FileReader::read_projected_with`], plus
    /// [`ColumnarError::CountMismatch`] when `limits` and `names` disagree
    /// in length.
    pub fn read_projected_limits_with(
        &self,
        row_group: usize,
        names: &[&str],
        limits: &[Option<usize>],
        scratch: &mut ReadScratch,
    ) -> Result<Vec<Array>> {
        if limits.len() != names.len() {
            return Err(ColumnarError::CountMismatch {
                declared: names.len(),
                actual: limits.len(),
            });
        }
        let idx = self.meta.schema.project(names)?;
        idx.iter()
            .zip(limits)
            .map(|(&c, &limit)| self.read_column_limit_with(row_group, c, limit, scratch))
            .collect()
    }

    /// Reads an entire row group in schema order.
    ///
    /// # Errors
    ///
    /// Same as [`FileReader::read_column`].
    pub fn read_row_group(&self, row_group: usize) -> Result<Vec<Array>> {
        let mut scratch = ReadScratch::new();
        (0..self.meta.schema.len())
            .map(|c| self.read_column_limit_with(row_group, c, None, &mut scratch))
            .collect()
    }

    /// Returns the wrapped blob.
    pub fn into_inner(self) -> B {
        self.blob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyBlob};
    use crate::io::{CountingBlob, Device, DeviceModel, MemBlob};
    use std::sync::Arc;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Field::new("label", DataType::Int64),
            Field::new("dense_0", DataType::Float32),
            Field::new("sparse_0", DataType::ListInt64),
        ])
        .unwrap()
    }

    fn sample_columns(rows: usize, salt: i64) -> Vec<Array> {
        vec![
            Array::Int64((0..rows as i64).map(|i| (i + salt) % 2).collect()),
            Array::Float32((0..rows).map(|i| i as f32 * 0.5).collect()),
            Array::from_lists((0..rows).map(|i| vec![salt + i as i64; i % 4]).collect::<Vec<_>>())
                .unwrap(),
        ]
    }

    fn sample_file(groups: usize, rows: usize) -> Vec<u8> {
        let mut w = FileWriter::with_page_rows(sample_schema(), 128);
        for g in 0..groups {
            w.write_row_group(&sample_columns(rows, g as i64)).unwrap();
        }
        w.finish()
    }

    /// Truncates every list of a `ListInt64` array to its first `x`
    /// elements (any other array is returned as it is) — the reference
    /// semantics prefix pushdown must match.
    fn truncate_lists(array: &Array, x: usize) -> Array {
        let Array::ListInt64 { offsets, values } = array else { return array.clone() };
        let lists: Vec<Vec<i64>> = offsets
            .windows(2)
            .map(|w| {
                let (s, e) = (w[0] as usize, w[1] as usize);
                values[s..s + (e - s).min(x)].to_vec()
            })
            .collect();
        Array::from_lists(lists).unwrap()
    }

    /// What the tables below need of a reader, whatever blob it reads through.
    trait Route {
        fn meta(&self) -> &FileMeta;
        fn read(&self, group: usize, column: usize, limit: Option<usize>) -> Result<Array>;
    }

    impl<B: BlobRead> Route for FileReader<B> {
        fn meta(&self) -> &FileMeta {
            FileReader::meta(self)
        }

        fn read(&self, group: usize, column: usize, limit: Option<usize>) -> Result<Array> {
            self.read_column_limit_with(group, column, limit, &mut ReadScratch::new())
        }
    }

    /// `bytes` opened on every way a file's bytes reach the decoder: borrowed
    /// from the blob's shared allocation (where one plain page is a view),
    /// and staged by positioned reads — through a blob that exposes no
    /// memory, from behind an emulated device, and past a fault injector
    /// with nothing to inject.
    fn routes(bytes: &[u8]) -> Vec<(&'static str, Box<dyn Route>)> {
        let mem = MemBlob::new(bytes.to_vec());
        let device = Arc::new(Device::new(DeviceModel::new(std::time::Duration::from_nanos(1), 4)));
        let quiet = FaultPlan::new(7).arm();
        vec![
            ("shared", Box::new(FileReader::open(mem.clone()).unwrap())),
            ("staged", Box::new(FileReader::open(CountingBlob::new(mem.clone())).unwrap())),
            ("device", Box::new(FileReader::open(mem.clone().behind_device(device)).unwrap())),
            ("faulty", Box::new(FileReader::open(FaultyBlob::new(mem, quiet, 0, 0)).unwrap())),
        ]
    }

    /// No limit, then limits on every side of the 32 values a head page keeps.
    const LIMITS: [Option<usize>; 7] =
        [None, Some(0), Some(1), Some(31), Some(32), Some(33), Some(usize::MAX)];

    /// The one table of the one decoder: on every route, every group of the
    /// file reads back as its window of `expect`, in full and — a limit being
    /// the truncation of the full read — under every limit.
    fn assert_table(bytes: &[u8], expect: &[Array], what: &str) {
        for (route, reader) in routes(bytes) {
            let mut start = 0usize;
            for (g, rg) in reader.meta().row_groups.iter().enumerate() {
                let rows = rg.rows as usize;
                for (c, whole) in expect.iter().enumerate() {
                    let window = column::slice_array(whole, start, rows);
                    for limit in LIMITS {
                        let cut = truncate_lists(&window, limit.unwrap_or(usize::MAX));
                        let got = reader.read(g, c, limit).unwrap();
                        assert_eq!(got, cut, "{what}: {route}, group {g}, column {c}, {limit:?}");
                    }
                }
                start += rows;
            }
            assert_eq!(start, expect[0].len(), "{what}: {route}");
        }
    }

    #[test]
    fn full_roundtrip() {
        let bytes = sample_file(3, 500);
        let reader = FileReader::open(MemBlob::new(bytes)).unwrap();
        assert_eq!(reader.row_group_count(), 3);
        assert_eq!(reader.meta().total_rows(), 1500);
        for g in 0..3 {
            let cols = reader.read_row_group(g).unwrap();
            assert_eq!(cols, sample_columns(500, g as i64));
        }
    }

    #[test]
    fn projection_reads_only_requested_chunks() {
        let bytes = sample_file(1, 2000);
        let total_len = bytes.len() as u64;
        let blob = CountingBlob::new(MemBlob::new(bytes));
        let reader = FileReader::open(blob).unwrap();
        let after_open = reader.into_inner();
        after_open.reset();
        let reader = FileReader::open(after_open).unwrap();
        let metadata_traffic = reader.into_inner();
        let open_cost = metadata_traffic.bytes_read();
        let reader = FileReader::open(metadata_traffic).unwrap();
        reader.read_projected(0, &["label"]).unwrap();
        let blob = reader.into_inner();
        // Subtract the second open()'s metadata reads; what's left is the
        // ranged read for the projected column chunk only.
        let label_traffic = blob.bytes_read() - 2 * open_cost;
        assert!(
            label_traffic < total_len / 4,
            "projected read touched {label_traffic} of {total_len} bytes"
        );
    }

    #[test]
    fn scratch_reads_match_allocating_reads() {
        use crate::io::ReadScratch;
        let bytes = sample_file(2, 300);
        // MemBlob decodes straight from storage memory...
        let reader = FileReader::open(MemBlob::new(bytes.clone())).unwrap();
        let mut scratch = ReadScratch::new();
        for g in 0..2 {
            let plain = reader.read_projected(g, &["label", "sparse_0"]).unwrap();
            let scratched =
                reader.read_projected_with(g, &["label", "sparse_0"], &mut scratch).unwrap();
            assert_eq!(plain, scratched);
        }
        assert_eq!(scratch.capacity(), 0, "slice-backed blob must not touch the scratch");
        // ...while an opaque backend stages chunks in the recycled buffer.
        let reader = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).unwrap();
        let a = reader.read_projected_with(0, &["dense_0"], &mut scratch).unwrap();
        let b = reader.read_projected(0, &["dense_0"]).unwrap();
        assert_eq!(a, b);
        assert!(scratch.capacity() > 0);
    }

    #[test]
    fn prefix_limit_reads_match_truncated_full_reads() {
        // List lengths 0..=3: shorter than, equal to and longer than a limit;
        // the cost model's codecs, then each one forced.
        let expect: Vec<Array> = (0..3)
            .map(|c| {
                let groups = [sample_columns(300, 0).remove(c), sample_columns(300, 1).remove(c)];
                column::concat_arrays(&groups).unwrap()
            })
            .collect();
        for forced in [None].into_iter().chain(crate::Encoding::ALL.map(Some)) {
            let policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
            let mut w = FileWriter::with_page_rows(sample_schema(), 128).with_policy(policy);
            for g in 0..2 {
                w.write_row_group(&sample_columns(300, g)).unwrap();
            }
            assert_table(&w.finish(), &expect, &format!("two groups of short lists, {forced:?}"));
        }
        // Mismatched limits length is rejected.
        let reader = FileReader::open(MemBlob::new(sample_file(2, 300))).unwrap();
        assert!(reader
            .read_projected_limits_with(0, &["label"], &[None, Some(1)], &mut ReadScratch::new())
            .is_err());
    }

    #[test]
    fn shared_blob_decodes_plain_f32_pages_lazily() {
        // Single-page chunks: multi-page chunks concatenate (and so copy).
        let bytes = {
            let mut w = FileWriter::with_page_rows(sample_schema(), 1024);
            w.write_row_group(&sample_columns(512, 1)).unwrap();
            w.finish()
        };
        let blob = MemBlob::new(bytes.clone());
        let blob_start = blob.as_bytes().as_ptr() as usize;
        let blob_end = blob_start + blob.as_bytes().len();
        let reader = FileReader::open(blob).unwrap();
        let cols = reader.read_row_group(0).unwrap();
        // dense_0 is a plain-encoded f32 column: with an aligned payload its
        // decoded buffer must alias the blob's memory, not a copy.
        let Array::Float32(values) = &cols[1] else { panic!("dense_0 is f32") };
        assert!(values.is_byte_backed(), "plain f32 page should decode lazily");
        let p = values.as_slice().as_ptr() as usize;
        assert!((blob_start..blob_end).contains(&p), "decoded data must live inside the blob");
        // Bit-identical to the staged copy-decode path (opaque backend).
        let opaque = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).unwrap();
        assert_eq!(cols, opaque.read_row_group(0).unwrap());
    }

    #[test]
    fn shared_blob_decodes_plain_list_values_lazily() {
        // Plain-encoded list values are the lazy-decode subject, so pin the
        // encoding rather than rely on the cost model's choice.
        let lists: Vec<Vec<i64>> = (0..600u64)
            .map(|i| {
                (0..(i % 5))
                    .map(|j| {
                        // splitmix-style scramble: neighbors are uncorrelated.
                        let mut v = (i * 5 + j + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        v ^= v >> 31;
                        v.wrapping_mul(0xbf58_476d_1ce4_e5b9) as i64
                    })
                    .collect()
            })
            .collect();
        let schema = Schema::new(vec![Field::new("ids", DataType::ListInt64)]).unwrap();
        let mut w = FileWriter::with_page_rows(schema, 1024)
            .with_policy(WritePolicy::default().with_forced_encoding(crate::Encoding::Plain));
        w.write_row_group(&[Array::from_lists(lists.clone()).unwrap()]).unwrap();
        let bytes = w.finish();
        let reader = FileReader::open(MemBlob::new(bytes.clone())).unwrap();
        let cols = reader.read_row_group(0).unwrap();
        let Array::ListInt64 { values, .. } = &cols[0] else { panic!("list column") };
        assert!(values.is_byte_backed(), "plain list values should decode lazily");
        let opaque = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).unwrap();
        assert_eq!(cols, opaque.read_row_group(0).unwrap());
    }

    #[test]
    fn lazy_and_copy_decode_agree_across_page_sizes() {
        for page_rows in [1usize, 7, 128, 4096] {
            let mut w = FileWriter::with_page_rows(sample_schema(), page_rows);
            w.write_row_group(&sample_columns(300, 3)).unwrap();
            assert_table(&w.finish(), &sample_columns(300, 3), &format!("page_rows {page_rows}"));
        }
    }

    #[test]
    fn read_by_name_matches_read_by_index() {
        let bytes = sample_file(1, 100);
        let reader = FileReader::open(MemBlob::new(bytes)).unwrap();
        let by_name = reader.read_projected(0, &["sparse_0"]).unwrap();
        assert_eq!(by_name, [reader.read_column(0, 2).unwrap()]);
    }

    #[test]
    fn unknown_column_and_group_error() {
        let bytes = sample_file(1, 10);
        let reader = FileReader::open(MemBlob::new(bytes)).unwrap();
        assert!(reader.read_projected(0, &["nope"]).is_err());
        assert!(reader.read_column(5, 0).is_err());
        assert!(reader.read_column(0, 99).is_err());
    }

    #[test]
    fn writer_rejects_schema_violations() {
        let mut w = FileWriter::new(sample_schema());
        // Wrong arity.
        assert!(w.write_row_group(&[Array::Int64(vec![1].into())]).is_err());
        // Wrong type order.
        assert!(w
            .write_row_group(&[
                Array::Float32(vec![1.0].into()),
                Array::Float32(vec![1.0].into()),
                Array::from_lists([vec![1i64]]).unwrap(),
            ])
            .is_err());
        // Mismatched row counts.
        assert!(w
            .write_row_group(&[
                Array::Int64(vec![1, 2].into()),
                Array::Float32(vec![1.0].into()),
                Array::from_lists([vec![1i64]]).unwrap(),
            ])
            .is_err());
    }

    #[test]
    fn corrupt_footer_detected() {
        let mut bytes = sample_file(1, 50);
        // Flip a bit inside the footer (just before the 16-byte tail).
        let idx = bytes.len() - 20;
        bytes[idx] ^= 0x01;
        assert!(FileReader::open(MemBlob::new(bytes)).is_err());
    }

    /// A container around `footer` whose checksum matches: what anyone able
    /// to write a file can produce.
    fn file_with_footer(footer: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(footer);
        bytes.extend_from_slice(&crc32(footer).to_le_bytes());
        bytes.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        bytes.extend_from_slice(MAGIC);
        bytes
    }

    fn assert_corrupt(footer: &[u8]) {
        let result = FileReader::open(MemBlob::new(file_with_footer(footer)));
        assert!(matches!(result, Err(ColumnarError::CorruptFile { .. })), "{result:?}");
    }

    #[test]
    fn hostile_footer_counts_are_bounded_by_the_footer() {
        // 2^60 fields, then one honest field followed by 2^60 row groups:
        // neither may reach `Vec::with_capacity`.
        let mut footer = Vec::new();
        varint::write_u64(&mut footer, 1 << 60);
        footer.resize(20, 0);
        assert_corrupt(&footer);

        let mut footer = vec![1, 1, b'a', DataType::Int64.to_tag()];
        varint::write_u64(&mut footer, 1 << 60);
        footer.resize(20, 0);
        assert_corrupt(&footer);
    }

    #[test]
    fn hostile_footer_name_length_cannot_overflow() {
        // One field whose name claims u64::MAX bytes: `pos + name_len` wraps.
        let mut footer = vec![1];
        varint::write_u64(&mut footer, u64::MAX);
        footer.resize(20, b'a');
        assert_corrupt(&footer);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_file(1, 10);
        bytes[0] = b'X';
        assert!(matches!(
            FileReader::open(MemBlob::new(bytes)),
            Err(ColumnarError::CorruptFile { .. })
        ));
        let mut bytes = sample_file(1, 10);
        let n = bytes.len();
        bytes[n - 1] = b'X';
        assert!(FileReader::open(MemBlob::new(bytes)).is_err());
    }

    #[test]
    fn tiny_file_rejected() {
        assert!(FileReader::open(MemBlob::new(vec![0; 10])).is_err());
    }

    #[test]
    fn compressed_files_roundtrip_and_shrink() {
        use crate::compress::Compression;
        // Repetitive labels + low-cardinality lists: compressible content.
        let schema = sample_schema();
        let cols = sample_columns(2000, 1);
        let plain = {
            let mut w = FileWriter::with_page_rows(schema.clone(), 256);
            w.write_row_group(&cols).unwrap();
            w.finish()
        };
        let packed = {
            let mut w = FileWriter::with_page_rows(schema, 256).with_compression(Compression::Lz);
            w.write_row_group(&cols).unwrap();
            w.finish()
        };
        assert!(packed.len() <= plain.len(), "{} > {}", packed.len(), plain.len());
        assert_table(&packed, &cols, "lz");
    }

    #[test]
    fn empty_row_group_list_roundtrips() {
        let w = FileWriter::new(sample_schema());
        let bytes = w.finish();
        let reader = FileReader::open(MemBlob::new(bytes)).unwrap();
        assert_eq!(reader.row_group_count(), 0);
        assert_eq!(reader.meta().total_rows(), 0);
        assert_eq!(reader.version(), FormatVersion::V4);
    }

    #[test]
    fn write_batch_splits_into_target_sized_groups() {
        let cols = sample_columns(200, 5);
        let mut w = FileWriter::with_page_rows(sample_schema(), 64).with_group_rows(64);
        w.write_batch(&cols).unwrap();
        let reader = FileReader::open(MemBlob::new(w.finish())).unwrap();
        assert_eq!(reader.row_group_count(), 4);
        let rows: Vec<u64> = reader.meta().row_groups.iter().map(|rg| rg.rows).collect();
        assert_eq!(rows, vec![64, 64, 64, 8]);
        assert_eq!(reader.meta().total_rows(), 200);
        // Each group reads back as the matching row window of the batch.
        let mut start = 0usize;
        for (g, take) in [(0usize, 64usize), (1, 64), (2, 64), (3, 8)] {
            let expect: Vec<Array> =
                cols.iter().map(|c| column::slice_array(c, start, take)).collect();
            assert_eq!(reader.read_row_group(g).unwrap(), expect, "group {g}");
            start += take;
        }
    }

    #[test]
    fn write_batch_group_size_edge_cases() {
        // Group size larger than the batch → one group; group size 1 → one
        // group per row.
        let cols = sample_columns(5, 2);
        let mut w = FileWriter::new(sample_schema()).with_group_rows(1000);
        w.write_batch(&cols).unwrap();
        let r = FileReader::open(MemBlob::new(w.finish())).unwrap();
        assert_eq!(r.row_group_count(), 1);
        assert_eq!(r.read_row_group(0).unwrap(), cols);

        let mut w = FileWriter::new(sample_schema()).with_group_rows(1);
        w.write_batch(&cols).unwrap();
        let r = FileReader::open(MemBlob::new(w.finish())).unwrap();
        assert_eq!(r.row_group_count(), 5);
        for g in 0..5 {
            let expect: Vec<Array> = cols.iter().map(|c| column::slice_array(c, g, 1)).collect();
            assert_eq!(r.read_row_group(g).unwrap(), expect);
        }

        // No group target set → write_batch degenerates to one group.
        let mut w = FileWriter::new(sample_schema());
        w.write_batch(&cols).unwrap();
        let r = FileReader::open(MemBlob::new(w.finish())).unwrap();
        assert_eq!(r.row_group_count(), 1);

        // Empty batch writes nothing even with a group target.
        let mut w = FileWriter::new(sample_schema()).with_group_rows(4);
        w.write_batch(&sample_columns(0, 0)).unwrap();
        let r = FileReader::open(MemBlob::new(w.finish())).unwrap();
        assert_eq!(r.row_group_count(), 1); // single empty group via write_row_group
        assert_eq!(r.meta().total_rows(), 0);
    }

    #[test]
    fn locate_row_and_start_rows_index_the_groups() {
        let mut w = FileWriter::with_page_rows(sample_schema(), 64).with_group_rows(64);
        w.write_batch(&sample_columns(200, 1)).unwrap();
        let reader = FileReader::open(MemBlob::new(w.finish())).unwrap();
        let meta = reader.meta();
        assert_eq!(meta.start_rows(), vec![0, 64, 128, 192]);
        assert_eq!(meta.locate_row(0), Some((0, 0)));
        assert_eq!(meta.locate_row(63), Some((0, 63)));
        assert_eq!(meta.locate_row(64), Some((1, 0)));
        assert_eq!(meta.locate_row(199), Some((3, 7)));
        assert_eq!(meta.locate_row(200), None);
        assert_eq!(meta.locate_row(u64::MAX), None);
    }

    #[test]
    fn v4_footer_records_pages_and_null_rows() {
        let mut w = FileWriter::with_page_rows(sample_schema(), 128);
        w.write_row_group(&sample_columns(500, 0)).unwrap();
        let reader = FileReader::open(MemBlob::new(w.finish())).unwrap();
        let rg = &reader.meta().row_groups[0];
        // 500 rows at 128 rows/page → 4 pages per chunk.
        for chunk in &rg.columns {
            assert_eq!(chunk.stats.pages, 4);
        }
        // sample_columns gives rows with i % 4 == 0 empty lists: 125 of 500.
        assert_eq!(rg.columns[2].stats.null_rows, 125);
        assert_eq!(rg.columns[0].stats.null_rows, 0);
    }

    /// `bytes` — a `PSTOCOL4` file none of whose chunks is in two parts — as
    /// the container `magic` names would hold it: that magic at both ends,
    /// and the footer in the legacy layout, written here by hand.
    fn as_legacy(bytes: &[u8], magic: &[u8; 8]) -> Vec<u8> {
        let meta = FileReader::open(MemBlob::new(bytes.to_vec())).unwrap().meta;
        let mut footer = Vec::new();
        FileMeta { row_groups: Vec::new(), ..meta.clone() }.write(&mut footer);
        footer.pop(); // the (zero) group count, rewritten below
        varint::write_u64(&mut footer, meta.row_groups.len() as u64);
        for rg in &meta.row_groups {
            varint::write_u64(&mut footer, rg.rows);
            for chunk in &rg.columns {
                assert_eq!(chunk.stats.head, None);
                for field in [chunk.offset, chunk.byte_len, chunk.stats.rows, chunk.stats.elements]
                {
                    varint::write_u64(&mut footer, field);
                }
                let minmax = chunk.stats.min_i64.zip(chunk.stats.max_i64);
                footer.push(u8::from(minmax.is_some()));
                for bound in minmax.into_iter().flat_map(|(min, max)| [min, max]) {
                    varint::write_i64(&mut footer, bound);
                }
            }
        }
        let footer_len = u32::from_le_bytes(bytes[bytes.len() - 12..][..4].try_into().unwrap());
        let mut out = bytes[..bytes.len() - 16 - footer_len as usize].to_vec();
        out[..8].copy_from_slice(magic);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&crc32(&footer).to_le_bytes());
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(magic);
        out
    }

    #[test]
    fn legacy_versions_write_and_read_back() {
        // Nothing writes the legacy containers any more, so "write" is by
        // hand (`as_legacy`); reading them is the reader's own business.
        let cols = sample_columns(300, 2);
        let mut w = FileWriter::with_page_rows(sample_schema(), 128);
        w.write_row_group(&cols).unwrap();
        let current = w.finish();
        for (version, magic) in [(FormatVersion::V2, MAGIC_V2), (FormatVersion::V3, MAGIC_V3)] {
            let bytes = as_legacy(&current, magic);
            assert_eq!((&bytes[..8], &bytes[bytes.len() - 8..]), (&magic[..], &magic[..]));
            let reader = FileReader::open(MemBlob::new(bytes.clone())).unwrap();
            assert_eq!(reader.version(), version);
            // Legacy footers carry no page/null counts.
            let chunk = &reader.meta().row_groups[0].columns[0];
            assert_eq!(chunk.stats.pages, 0);
            assert_eq!(chunk.stats.null_rows, 0);
            assert_table(&bytes, &cols, &format!("{version:?}"));
        }
    }

    #[test]
    fn legacy_fixtures_read_the_same_on_every_route_and_under_every_limit() {
        // What these files hold is pinned, against the generator that wrote
        // them, in `tests/format_compat.rs`; here they are two more shapes
        // for the table.
        for (fixture, version) in [
            (
                &include_bytes!("../../../tests/data/v2_rm1_200rows_seed42.pstocol")[..],
                FormatVersion::V2,
            ),
            (
                &include_bytes!("../../../tests/data/v3_rm1_200rows_seed42.pstocol")[..],
                FormatVersion::V3,
            ),
        ] {
            let reader = FileReader::open(MemBlob::new(fixture.to_vec())).unwrap();
            assert_eq!((reader.version(), reader.meta().total_rows()), (version, 200));
            let expect = reader.read_row_group(0).unwrap();
            assert_table(fixture, &expect, &format!("{version:?} fixture"));
        }
    }

    #[test]
    fn mixed_valid_version_magics_are_rejected() {
        // Leading v4, trailing v3 — both valid magics, but mismatched.
        let mut bytes = sample_file(1, 10);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(MAGIC_V3);
        assert!(matches!(
            FileReader::open(MemBlob::new(bytes)),
            Err(ColumnarError::CorruptFile { .. })
        ));
    }

    #[test]
    fn last_short_row_group_decodes_batched_exactly() {
        // Regression for group-subset buffer sizing: the batched decoder
        // must size the short trailing group (8 rows) from that group's own
        // index entry, not file totals (200 rows). Multi-page chunks force
        // the batched path; the opaque backend forces staging reads.
        let cols = sample_columns(200, 7);
        let mut w = FileWriter::with_page_rows(sample_schema(), 4).with_group_rows(64);
        w.write_batch(&cols).unwrap();
        let bytes = w.finish();
        let shared = FileReader::open(MemBlob::new(bytes.clone())).unwrap();
        assert_eq!(shared.meta().row_groups.last().unwrap().rows, 8);
        assert_table(&bytes, &cols, "64-row groups of 4-row pages");
    }

    fn history_schema() -> Schema {
        Schema::new(vec![
            Field::new("label", DataType::Int64),
            Field::new("history", DataType::ListInt64),
            Field::new("recent", DataType::ListInt64),
        ])
        .unwrap()
    }

    /// `history` mixes empty, short, exactly-32 and very long lists at a
    /// mean far past the split threshold; `recent` stays short.
    fn history_columns(rows: usize) -> Vec<Array> {
        let shapes = [0usize, 3, 32, 33, 31, 1500];
        let history = (0..rows).map(|r| {
            // splitmix-style scramble: neighbors are uncorrelated, so no
            // codec shrinks the tail pages to nothing.
            let scramble = |j: usize| {
                let v = ((r * 2000 + j + 1) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((v ^ (v >> 31)) % 100_003) as i64
            };
            (0..shapes[r % shapes.len()]).map(scramble).collect()
        });
        vec![
            Array::Int64((0..rows as i64).collect()),
            Array::from_lists(history.collect::<Vec<Vec<i64>>>()).unwrap(),
            Array::from_lists((0..rows).map(|r| vec![r as i64; r % 5]).collect::<Vec<_>>())
                .unwrap(),
        ]
    }

    fn history_file(page_rows: usize, group_rows: Option<usize>, policy: WritePolicy) -> Vec<u8> {
        let mut w = FileWriter::with_page_rows(history_schema(), page_rows).with_policy(policy);
        if let Some(group_rows) = group_rows {
            w = w.with_group_rows(group_rows);
        }
        w.write_batch(&history_columns(40)).unwrap();
        w.finish()
    }

    #[test]
    fn head_tail_chunks_read_back_on_every_route() {
        for page_rows in [1usize, 7, 4096] {
            for group_rows in [None, Some(16)] {
                let base = WritePolicy::default();
                let lz = base.with_compression(Compression::Lz).compressing_hot_columns();
                let forced = crate::Encoding::ALL.map(|e| base.with_forced_encoding(e));
                for policy in [base, lz].into_iter().chain(forced) {
                    let what =
                        format!("page_rows {page_rows} group_rows {group_rows:?} {policy:?}");
                    let bytes = history_file(page_rows, group_rows, policy);
                    let shared = FileReader::open(MemBlob::new(bytes.clone())).unwrap();
                    for rg in &shared.meta().row_groups {
                        assert_eq!(rg.columns[1].stats.head.map(|h| h.k), Some(32), "{what}");
                        assert_eq!(rg.columns[2].stats.head, None, "{what}");
                    }
                    assert_table(&bytes, &history_columns(40), &what);
                }
            }
        }
    }

    #[test]
    fn every_list_shape_under_every_forced_encoding_passes_the_table() {
        // Lists below, at and far above the mean of 4 × 32 that splits a
        // chunk, and none at all; pages of one row, a few, and all of them.
        let schema = Schema::new(vec![Field::new("lists", DataType::ListInt64)]).unwrap();
        for len in [0usize, 127, 128, 1500] {
            let lists: Vec<Vec<i64>> = (0..24)
                .map(|r| (0..len).map(|j| ((r * 7919 + j * 31) % 1009) as i64).collect())
                .collect();
            let column = [Array::from_lists(lists).unwrap()];
            for forced in [None].into_iter().chain(crate::Encoding::ALL.map(Some)) {
                for page_rows in [1usize, 5, 4096] {
                    let policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
                    let mut w =
                        FileWriter::with_page_rows(schema.clone(), page_rows).with_policy(policy);
                    w.write_row_group(&column).unwrap();
                    let bytes = w.finish();
                    let split = FileReader::open(MemBlob::new(bytes.clone())).unwrap().meta;
                    assert_eq!(split.row_groups[0].columns[0].stats.head.is_some(), len >= 128);
                    assert_table(&bytes, &column, &format!("{len}-long lists, {forced:?}"));
                }
            }
        }
    }

    #[test]
    fn a_prefix_read_fetches_the_head_pages_and_nothing_else() {
        let bytes = history_file(4096, None, WritePolicy::default());
        let reader = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).unwrap();
        let chunk = reader.meta().row_groups[0].columns[1].clone();
        let head = chunk.stats.head.unwrap();
        assert!(head.head_len * 8 < chunk.byte_len, "{head:?} of {}", chunk.byte_len);
        let mut scratch = ReadScratch::new();
        for (limit, bytes) in [
            (Some(0), head.head_len),
            (Some(8), head.head_len),
            (Some(32), head.head_len),
            (Some(33), chunk.byte_len),
            (None, chunk.byte_len),
        ] {
            assert_eq!(chunk.read_len(limit), bytes, "{limit:?}");
            reader.blob.reset();
            reader.read_column_limit_with(0, 1, limit, &mut scratch).unwrap();
            assert_eq!(
                (reader.blob.read_calls(), reader.blob.bytes_read()),
                (1, bytes),
                "{limit:?}"
            );
        }
        // A chunk with no head pages is fetched whole under any limit.
        let recent = &reader.meta().row_groups[0].columns[2];
        assert_eq!(recent.read_len(Some(1)), recent.byte_len);
    }

    /// `bytes` with its footer rewritten by `edit` (and re-checksummed):
    /// what anyone able to write a file can produce.
    fn refooter(bytes: &[u8], edit: impl FnOnce(&mut FileMeta)) -> Vec<u8> {
        let mut meta = FileReader::open(MemBlob::new(bytes.to_vec())).unwrap().meta;
        edit(&mut meta);
        let footer_len = u32::from_le_bytes(bytes[bytes.len() - 12..][..4].try_into().unwrap());
        let mut out = bytes[..bytes.len() - 16 - footer_len as usize].to_vec();
        let mut footer = Vec::new();
        meta.write(&mut footer);
        out.extend_from_slice(&footer);
        out.extend_from_slice(&crc32(&footer).to_le_bytes());
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(MAGIC);
        out
    }

    #[test]
    fn a_footer_that_lies_about_the_head_is_an_error_or_the_exact_answer() {
        use crate::stats::ChunkHead;
        let bytes = history_file(7, None, WritePolicy::default());
        let cols = history_columns(40);
        let honest = FileReader::open(MemBlob::new(bytes.clone())).unwrap();
        let chunk = honest.meta().row_groups[0].columns[1].clone();
        let head = chunk.stats.head.unwrap();
        let with_head = |column: usize, head: Option<ChunkHead>| {
            refooter(&bytes, |meta| meta.row_groups[0].columns[column].stats.head = head)
        };
        let mut scratch = crate::io::ReadScratch::new();
        let mut prefix = |file: Vec<u8>, column: usize, x: usize| {
            let reader = FileReader::open(MemBlob::new(file))?;
            assert_eq!(reader.read_column(0, column)?, cols[column], "full reads ignore the head");
            reader.read_column_limit_with(0, column, Some(x), &mut scratch)
        };

        // Past the chunk: refused at open, before any read is sized by it.
        let past = ChunkHead { head_len: chunk.byte_len + 1, ..head };
        let opened = FileReader::open(MemBlob::new(with_head(1, Some(past))));
        assert!(matches!(opened, Err(ColumnarError::CorruptFile { .. })));
        // Short of, or past, where the head pages really end.
        for head_len in [0, 1, head.head_len - 1, head.head_len + 1, chunk.byte_len] {
            let lie = ChunkHead { head_len, ..head };
            assert!(prefix(with_head(1, Some(lie)), 1, 8).is_err(), "head_len {head_len}");
        }
        // A footer K deeper than the pages': the head pages refuse. One
        // shallower: both parts are fetched and cut, nothing is wrong. No
        // head at all: the whole chunk is fetched and the decoder, stopping
        // where the head pages do, has not used what the footer says is there.
        let deep = ChunkHead { k: 100, ..head };
        assert!(prefix(with_head(1, Some(deep)), 1, 50).is_err());
        for shallow in [ChunkHead { k: 4, ..head }, ChunkHead { k: 0, ..head }] {
            let got = prefix(with_head(1, Some(shallow)), 1, 8).unwrap();
            assert_eq!(got, truncate_lists(&cols[1], 8), "{shallow:?}");
        }
        let unannounced = prefix(with_head(1, None), 1, 8);
        assert!(matches!(unannounced, Err(ColumnarError::CorruptFile { .. })), "{unannounced:?}");
        // A head claimed for a chunk that has none.
        let recent = honest.meta().row_groups[0].columns[2].byte_len;
        let whole = ChunkHead { head_len: recent, k: 32 };
        assert_eq!(prefix(with_head(2, Some(whole)), 2, 2).unwrap(), truncate_lists(&cols[2], 2));
        let part = ChunkHead { head_len: recent / 2, k: 32 };
        assert!(prefix(with_head(2, Some(part)), 2, 2).is_err());
    }

    #[test]
    fn a_flipped_bit_is_caught_by_the_part_that_holds_it() {
        let bytes = history_file(4096, None, WritePolicy::default());
        let cols = history_columns(40);
        let chunk = FileReader::open(MemBlob::new(bytes.clone())).unwrap().meta().row_groups[0]
            .columns[1]
            .clone();
        let head_len = chunk.stats.head.unwrap().head_len;
        let flipped = |at: u64| {
            let mut bytes = bytes.clone();
            bytes[at as usize] ^= 0x10;
            FileReader::open(MemBlob::new(bytes)).unwrap()
        };
        let mut scratch = crate::io::ReadScratch::new();
        // In the head pages' payload: no read of the column survives.
        for at in [chunk.offset + head_len / 2, chunk.offset + head_len - 1] {
            let reader = flipped(at);
            for limit in [Some(8), Some(33), None] {
                let got = reader.read_column_limit_with(0, 1, limit, &mut scratch);
                assert!(matches!(got, Err(ColumnarError::ChecksumMismatch { .. })), "{limit:?}");
            }
        }
        // In the tail pages' payload: a prefix read never looks.
        for at in
            [chunk.offset + (head_len + chunk.byte_len) / 2, chunk.offset + chunk.byte_len - 1]
        {
            let reader = flipped(at);
            let got = reader.read_column_limit_with(0, 1, Some(8), &mut scratch).unwrap();
            assert_eq!(got, truncate_lists(&cols[1], 8));
            for limit in [Some(33), None] {
                let got = reader.read_column_limit_with(0, 1, limit, &mut scratch);
                assert!(matches!(got, Err(ColumnarError::ChecksumMismatch { .. })), "{limit:?}");
            }
        }
    }

    #[test]
    fn reads_through_a_corrupting_medium_are_errors_or_exact() {
        use crate::fault::{FaultPlan, FaultyBlob};
        let cols = history_columns(40);
        let mut scratch = crate::io::ReadScratch::new();
        let (mut failed, mut exact) = (0, 0);
        for page_rows in [1usize, 7, 4096] {
            let bytes = history_file(page_rows, None, WritePolicy::default());
            for seed in 0..40u64 {
                let plan = FaultPlan::new(seed).with_corrupt_rate(0.3).with_transient_rate(0.1);
                let blob = FaultyBlob::new(MemBlob::new(bytes.clone()), plan.arm(), 0, 0);
                let Ok(reader) = FileReader::open(blob) else { continue };
                for limit in [Some(8), Some(33), None] {
                    match reader.read_column_limit_with(0, 1, limit, &mut scratch) {
                        Ok(got) => {
                            let expect =
                                limit.map_or(cols[1].clone(), |x| truncate_lists(&cols[1], x));
                            assert_eq!(got, expect, "page_rows {page_rows} seed {seed} {limit:?}");
                            exact += 1;
                        }
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        assert!(failed > 20 && exact > 20, "{failed} failed, {exact} exact");
    }

    #[test]
    fn a_byte_range_past_the_file_is_refused_before_anything_is_sized_by_it() {
        let bytes = sample_file(1, 50);
        for (offset, byte_len) in [(8, 1u64 << 60), (u64::MAX, 16), (u64::MAX - 7, 8), (1 << 40, 0)]
        {
            let lie = refooter(&bytes, |meta| {
                let chunk = &mut meta.row_groups[0].columns[1];
                (chunk.offset, chunk.byte_len) = (offset, byte_len);
            });
            for (route, reader) in routes(&lie) {
                let got = reader.read(0, 1, None);
                assert!(
                    matches!(got, Err(ColumnarError::UnexpectedEof { .. })),
                    "{route}: {offset} + {byte_len}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn a_chunk_must_end_where_the_footer_says_its_bytes_do() {
        // `byte_len` one longer than the chunk's pages (still inside the
        // file: the next chunk, or the footer, lends the byte), and one
        // shorter. Longer used to be accepted in silence by every full read.
        let bytes = history_file(7, None, WritePolicy::default());
        let cols = history_columns(40);
        for column in 0..3 {
            for longer in [true, false] {
                let lie = refooter(&bytes, |meta| {
                    let chunk = &mut meta.row_groups[0].columns[column];
                    chunk.byte_len = if longer { chunk.byte_len + 1 } else { chunk.byte_len - 1 };
                });
                for (route, reader) in routes(&lie) {
                    for limit in LIMITS {
                        let what = format!("column {column}, longer {longer}, {route}, {limit:?}");
                        let got = reader.read(0, column, limit);
                        // The head pages of `history` are where they were,
                        // and a prefix read looks at nothing else.
                        if column == 1 && limit.is_some_and(|x| x <= 32) {
                            assert_eq!(got.unwrap(), truncate_lists(&cols[1], limit.unwrap()));
                        } else if longer {
                            assert!(
                                matches!(got, Err(ColumnarError::CorruptFile { .. })),
                                "{what}"
                            );
                        } else {
                            assert!(got.is_err(), "{what}");
                        }
                    }
                }
            }
        }
    }
}
