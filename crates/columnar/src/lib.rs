//! # presto-columnar
//!
//! A from-scratch columnar file format, the storage substrate of the PreSto
//! reproduction (ISCA 2024). It stands in for Apache Parquet, which the paper
//! assumes for raw feature storage, and preserves the two properties the
//! paper's Extract phase relies on:
//!
//! 1. **Selective extraction** — each column chunk is independently
//!    addressable, so a reader fetching features X and W never touches Y and
//!    Z (Section II-B of the paper).
//! 2. **Partition locality** — a row group is written contiguously, so a
//!    mini-batch's worth of data lives in one device-local byte range
//!    (the Tectonic placement assumption in Section IV-B).
//!
//! ## Quick start
//!
//! ```
//! use presto_columnar::{Array, DataType, Field, FileReader, FileWriter, MemBlob, Schema};
//!
//! // A tiny RecSys-shaped table: click label, one dense, one sparse feature.
//! let schema = Schema::new(vec![
//!     Field::new("label", DataType::Int64),
//!     Field::new("dense_0", DataType::Float32),
//!     Field::new("sparse_0", DataType::ListInt64),
//! ])?;
//!
//! let mut writer = FileWriter::new(schema);
//! writer.write_row_group(&[
//!     Array::Int64(vec![0, 1, 0].into()),
//!     Array::Float32(vec![0.1, 7.0, 3.5].into()),
//!     Array::from_lists([vec![11_i64, 42], vec![], vec![7]])?,
//! ])?;
//! let bytes = writer.finish();
//!
//! // Selectively extract just the sparse feature.
//! let reader = FileReader::open(MemBlob::new(bytes))?;
//! let cols = reader.read_projected(0, &["sparse_0"])?;
//! assert_eq!(cols[0].list_at(0), &[11, 42]);
//! # Ok::<(), presto_columnar::ColumnarError>(())
//! ```
//!
//! ## Zero-copy reads
//!
//! The read path is built to touch column bytes once:
//!
//! * [`BlobRead::read_at_into`] / [`BlobRead::read_many_into`] fill
//!   caller-provided buffers; a reused [`ReadScratch`] makes a row group's
//!   chunk staging allocation-free (all of a group's chunks go out as one
//!   submission, see [`io`]), and in-memory blobs skip staging entirely
//!   (decoders run straight over [`MemBlob`]'s shared bytes).
//! * [`Array`] payloads live in reference-counted [`Buffer`]s: cloning an
//!   array, slicing it on a page boundary, or concatenating a single part
//!   shares storage instead of copying, and uniquely owned buffers hand
//!   their storage to consumers via [`Buffer::into_vec`] /
//!   [`Buffer::make_mut`] for in-place transformation.
//! * [`FsBlob`] uses positioned reads (`pread`), so parallel readers of one
//!   file never serialize behind a seek cursor.
//!
//! ## Format internals
//!
//! Values are encoded per page with one of [`Encoding::Plain`],
//! [`Encoding::Delta`], [`Encoding::Dictionary`] or
//! [`Encoding::DeltaBitpack`] (delta-binary-packed miniblocks, the sparse-id
//! hot path), chosen by a sample-based size estimate that a per-column
//! [`WritePolicy`] can override; jagged list columns store an RLE run of row
//! lengths before the value stream, and a chunk of long lists is stored as
//! head pages (lengths + the first 32 values of each list) followed by tail
//! pages, so that a prefix read fetches the head pages alone (see
//! [`mod@column`]). Pages are stored as encoded, with no codec over them,
//! so an aligned plain page is lazy-decodable. Pages are CRC-32 protected,
//! as is the footer: every read verifies every page it touches, through
//! one function ([`checksum::crc32`]) that folds with carry-less multiplies
//! where the CPU has them and walks lookup tables elsewhere, to the same
//! value. See the [`encoding`] module for the bit-level details.
//!
//! ## `unsafe`
//!
//! The crate has two `unsafe` sites, each behind a safe interface and each
//! with a `// SAFETY:` argument (CI's structure gate keeps it at these two
//! files): [`buffer`] reinterprets aligned stored bytes as plain values for
//! zero-copy views, and [`checksum`] calls the `PCLMULQDQ` kernel after
//! detecting the CPU features it needs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array;
pub mod buffer;
pub mod checksum;
pub mod column;
pub mod encoding;
pub mod error;
pub mod fault;
pub mod file;
pub mod io;
pub mod page;
pub mod schema;
pub mod stats;

pub use array::Array;
pub use buffer::{Buffer, PlainValue};
pub use encoding::Encoding;
pub use error::{ColumnarError, Result};
pub use fault::{DeviceDeath, FaultInjector, FaultPlan, FaultSite, FaultStats, FaultyBlob};
pub use file::{ChunkMeta, FileMeta, FileReader, FileWriter, RowGroupMeta, MAGIC};
pub use io::{
    BlobRead, CountingBlob, Device, DeviceModel, DeviceStats, FsBlob, MemBlob, ReadScratch,
};
pub use schema::{DataType, Field, Schema, WritePolicy};
pub use stats::{ChunkHead, ColumnStats};
