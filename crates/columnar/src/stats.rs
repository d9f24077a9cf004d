//! Per-column-chunk statistics recorded in the file footer.
//!
//! Readers use these to size buffers and (in the hwsim layer) to price decode
//! work without touching payload bytes. Because every column chunk belongs to
//! exactly one row group, these stats are **per-group** metadata: the chunk
//! decoder ([`crate::column`]) sizes its output buffers from, and holds every
//! page to, the claimed group's own `rows`/`elements`, never file totals —
//! which is what makes random row-group access as exactly-sized as a
//! whole-partition read, including the last short group of a
//! group-size-misaligned partition.
//!
//! Each entry records the chunk's rows, elements, page count and null-row
//! count (rows with zero elements — only list columns can have them), then
//! a flag byte: bit `0x01` says a min/max pair follows, bit `0x02` that a
//! [`ChunkHead`] follows — the chunk was written in two parts (see
//! [`crate::column`]) and a prefix read may stop at the end of its head
//! pages. Any other bit is rejected as corruption, so the next extension
//! cannot be misread by this reader.

use crate::array::Array;
use crate::encoding::varint;
use crate::error::{ColumnarError, Result};

/// Flag bit: a zigzag min/max pair follows.
const FLAG_MINMAX: u8 = 0x01;
/// Flag bit: a [`ChunkHead`] follows.
const FLAG_HEAD: u8 = 0x02;

/// The head region of a list chunk written in two parts: its head pages
/// hold every list's length and first `k` values and end `head_len` bytes
/// into the chunk; the tail pages after them hold the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHead {
    /// Bytes from the chunk's offset to the end of its last head page.
    pub head_len: u64,
    /// Values of each list the head pages hold. The head pages record the
    /// same number themselves and decode by their own copy; this one only
    /// decides how many bytes a prefix read fetches.
    pub k: u64,
}

/// Statistics for one column chunk (one column of one row group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Number of rows in the chunk.
    pub rows: u64,
    /// Number of scalar elements (= rows for scalars, flattened length for lists).
    pub elements: u64,
    /// Number of pages in the chunk.
    pub pages: u64,
    /// Rows with zero elements — empty lists for jagged columns, always 0
    /// for scalar columns (the format has no scalar nulls).
    pub null_rows: u64,
    /// Minimum integer value, when the column is integer-typed and non-empty.
    pub min_i64: Option<i64>,
    /// Maximum integer value, when the column is integer-typed and non-empty.
    pub max_i64: Option<i64>,
    /// The head region, when the chunk writer split a long list column into
    /// head and tail pages; `None` for every other chunk.
    pub head: Option<ChunkHead>,
}

impl ColumnStats {
    /// Computes statistics from an in-memory array (`pages` and `head` are
    /// filled in by the chunk writer, which decides the pagination).
    #[must_use]
    pub fn from_array(array: &Array) -> Self {
        let (min_i64, max_i64) = match array {
            Array::Int64(v) => (v.iter().min().copied(), v.iter().max().copied()),
            Array::ListInt64 { values, .. } => {
                (values.iter().min().copied(), values.iter().max().copied())
            }
            _ => (None, None),
        };
        let null_rows = match array {
            Array::ListInt64 { offsets, .. } => {
                offsets.windows(2).filter(|w| w[0] == w[1]).count() as u64
            }
            _ => 0,
        };
        ColumnStats {
            rows: array.len() as u64,
            elements: array.element_count() as u64,
            pages: 0,
            null_rows,
            min_i64,
            max_i64,
            head: None,
        }
    }

    /// Writes the stats layout [`ColumnStats::read`] reads.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.rows);
        varint::write_u64(out, self.elements);
        varint::write_u64(out, self.pages);
        varint::write_u64(out, self.null_rows);
        let minmax = self.min_i64.zip(self.max_i64);
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        out.push(flag(minmax.is_some(), FLAG_MINMAX) | flag(self.head.is_some(), FLAG_HEAD));
        if let Some((min, max)) = minmax {
            varint::write_i64(out, min);
            varint::write_i64(out, max);
        }
        if let Some(head) = self.head {
            varint::write_u64(out, head.head_len);
            varint::write_u64(out, head.k);
        }
    }

    /// Reads one entry at `*pos`; unknown flag bits are corruption.
    pub(crate) fn read(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let rows = varint::read_u64(buf, pos)?;
        let elements = varint::read_u64(buf, pos)?;
        let pages = varint::read_u64(buf, pos)?;
        let null_rows = varint::read_u64(buf, pos)?;
        let flags =
            buf.get(*pos).copied().ok_or(ColumnarError::UnexpectedEof { context: "stats flag" })?;
        *pos += 1;
        if flags & !(FLAG_MINMAX | FLAG_HEAD) != 0 {
            return Err(ColumnarError::CorruptFile {
                detail: format!("unknown stats flag bits {flags:#04x}"),
            });
        }
        let (min_i64, max_i64) = if flags & FLAG_MINMAX != 0 {
            (Some(varint::read_i64(buf, pos)?), Some(varint::read_i64(buf, pos)?))
        } else {
            (None, None)
        };
        let head = if flags & FLAG_HEAD != 0 {
            Some(ChunkHead {
                head_len: varint::read_u64(buf, pos)?,
                k: varint::read_u64(buf, pos)?,
            })
        } else {
            None
        };
        Ok(ColumnStats { rows, elements, pages, null_rows, min_i64, max_i64, head })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_int_array() {
        let s = ColumnStats::from_array(&Array::Int64(vec![3, -1, 7].into()));
        assert_eq!(s.rows, 3);
        assert_eq!(s.elements, 3);
        assert_eq!(s.null_rows, 0);
        assert_eq!(s.min_i64, Some(-1));
        assert_eq!(s.max_i64, Some(7));
    }

    #[test]
    fn stats_from_list_array_count_elements_and_empty_rows() {
        let a = Array::from_lists([vec![5i64, 1], vec![], vec![9], vec![]]).unwrap();
        let s = ColumnStats::from_array(&a);
        assert_eq!(s.rows, 4);
        assert_eq!(s.elements, 3);
        assert_eq!(s.null_rows, 2);
        assert_eq!(s.min_i64, Some(1));
        assert_eq!(s.max_i64, Some(9));
    }

    #[test]
    fn stats_from_float_array_have_no_minmax() {
        let s = ColumnStats::from_array(&Array::Float32(vec![1.0, 2.0].into()));
        assert_eq!(s.min_i64, None);
        assert_eq!(s.max_i64, None);
        assert_eq!(s.null_rows, 0);
    }

    #[test]
    fn serialization_roundtrips_v4() {
        for s in [
            ColumnStats {
                rows: 0,
                elements: 0,
                pages: 1,
                null_rows: 0,
                min_i64: None,
                max_i64: None,
                head: None,
            },
            ColumnStats {
                rows: 10,
                elements: 200,
                pages: 3,
                null_rows: 4,
                min_i64: Some(-5),
                max_i64: Some(i64::MAX),
                head: Some(ChunkHead { head_len: 77, k: 32 }),
            },
        ] {
            let mut buf = Vec::new();
            s.write(&mut buf);
            let mut pos = 0;
            assert_eq!(ColumnStats::read(&buf, &mut pos).unwrap(), s);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_stats_error() {
        let s = ColumnStats {
            rows: 1,
            elements: 1,
            pages: 1,
            null_rows: 0,
            min_i64: Some(1),
            max_i64: Some(2),
            head: None,
        };
        let mut buf = Vec::new();
        s.write(&mut buf);
        buf.pop();
        let mut pos = 0;
        assert!(ColumnStats::read(&buf, &mut pos).is_err());
    }

    #[test]
    fn unknown_flag_bits_are_corruption() {
        let s = ColumnStats::from_array(&Array::Int64(vec![1, 2].into()));
        let mut buf = Vec::new();
        s.write(&mut buf);
        let flag_at = 4; // rows, elements, pages, null_rows: one byte each
        assert_eq!(buf[flag_at], FLAG_MINMAX);
        for bad in [0x04u8, 0x80, 0xff] {
            let mut hostile = buf.clone();
            hostile[flag_at] |= bad;
            let err = ColumnStats::read(&hostile, &mut 0).unwrap_err();
            assert!(matches!(err, ColumnarError::CorruptFile { .. }), "{bad:#x}: {err}");
        }
    }
}
