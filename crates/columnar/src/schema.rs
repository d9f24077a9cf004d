//! Logical schema: fields, data types, lookup by name — and the per-column
//! write policy ([`WritePolicy`]) deciding how each column's pages are
//! encoded and compressed.
//!
//! A RecSys training table is modeled exactly the way the PreSto paper
//! describes it (Section II-B): each row is a user sample, each column is a
//! feature. Dense features are `Float32`, sparse features are variable-length
//! lists of categorical ids (`ListInt64`), and the click label is `Int64`.

use crate::compress::Compression;
use crate::encoding::{self, Encoding};
use crate::error::{ColumnarError, Result};
use std::fmt;

/// Physical/logical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DataType {
    /// 64-bit signed integers (labels, raw categorical values).
    Int64,
    /// 32-bit IEEE-754 floats (dense features).
    Float32,
    /// 64-bit IEEE-754 floats (normalized dense features).
    Float64,
    /// Variable-length lists of 64-bit ids (sparse features).
    ListInt64,
}

impl DataType {
    /// Width in bytes of one element of this type, for sizing estimates.
    ///
    /// For [`DataType::ListInt64`] this is the width of a single list
    /// *element*, not of the whole list.
    #[must_use]
    pub fn element_width(self) -> usize {
        match self {
            DataType::Int64 | DataType::Float64 | DataType::ListInt64 => 8,
            DataType::Float32 => 4,
        }
    }

    /// Stable on-disk tag for the type.
    #[must_use]
    pub(crate) fn to_tag(self) -> u8 {
        match self {
            DataType::Int64 => 0,
            DataType::Float32 => 1,
            DataType::Float64 => 2,
            DataType::ListInt64 => 3,
        }
    }

    /// Inverse of [`DataType::to_tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(DataType::Int64),
            1 => Ok(DataType::Float32),
            2 => Ok(DataType::Float64),
            3 => Ok(DataType::ListInt64),
            other => {
                Err(ColumnarError::CorruptFile { detail: format!("unknown data type tag {other}") })
            }
        }
    }

    /// Name used in error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "Int64",
            DataType::Float32 => "Float32",
            DataType::Float64 => "Float64",
            DataType::ListInt64 => "ListInt64",
        }
    }

    /// True for the Extract hot-path column types — sparse-id lists and
    /// integer label/offset columns — whose decode speed dominates
    /// preprocessing. The default [`WritePolicy`] keeps these uncompressed
    /// so they stay lazy-decodable (an LZ-compressed payload must always be
    /// materialized before decode).
    #[must_use]
    pub fn is_hot(self) -> bool {
        matches!(self, DataType::Int64 | DataType::ListInt64)
    }
}

/// Per-column write-side policy: which compression each column's pages get
/// and how integer value streams are encoded.
///
/// Two levers, both per column (chunk), not per file:
///
/// * **Uncompressed-if-hot** — [`WritePolicy::compression_for`] applies the
///   configured compression only to cold column types; hot ones
///   ([`DataType::is_hot`]) stay uncompressed so plain pages remain
///   zero-copy-decodable and encoded pages decode straight from storage
///   memory. Set [`WritePolicy::compress_hot`] to compress everything (the
///   archival trade-off).
/// * **Encoding override** — [`WritePolicy::i64_encoding`] normally runs
///   the sample-based cost model ([`encoding::choose_i64_encoding`]); a
///   [`WritePolicy::forced_encoding`] pins every integer stream to one
///   codec. Tests loop over [`Encoding::ALL`] through
///   [`WritePolicy::with_forced_encoding`] so each decode path runs on
///   data the cost model would not route to it.
///
/// The policy is the writer's only input besides the data: nothing is read
/// from the process environment, so the same columns always give the same
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WritePolicy {
    /// Compression for cold (and, with `compress_hot`, all) columns.
    pub compression: Compression,
    /// Also compress hot columns, trading Extract speed for bytes.
    pub compress_hot: bool,
    /// Pin every integer value stream to one encoding (`None` = cost model).
    pub forced_encoding: Option<Encoding>,
}

impl WritePolicy {
    /// Returns this policy with the given cold-column compression.
    #[must_use]
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Returns this policy with compression applied to hot columns too.
    #[must_use]
    pub fn compressing_hot_columns(mut self) -> Self {
        self.compress_hot = true;
        self
    }

    /// Returns this policy with every integer stream pinned to `encoding`.
    #[must_use]
    pub fn with_forced_encoding(mut self, encoding: Encoding) -> Self {
        self.forced_encoding = Some(encoding);
        self
    }

    /// The compression a column of `data_type` receives under this policy.
    #[must_use]
    pub fn compression_for(&self, data_type: DataType) -> Compression {
        if data_type.is_hot() && !self.compress_hot {
            Compression::None
        } else {
            self.compression
        }
    }

    /// The encoding an integer value stream receives under this policy.
    #[must_use]
    pub fn i64_encoding(&self, values: &[i64]) -> Encoding {
        self.forced_encoding.unwrap_or_else(|| encoding::choose_i64_encoding(values))
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, typed column in a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Creates a field with the given name and type.
    #[must_use]
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }

    /// The field name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field type.
    #[must_use]
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

/// An ordered collection of uniquely named [`Field`]s.
///
/// # Examples
///
/// ```
/// use presto_columnar::{DataType, Field, Schema};
///
/// let schema = Schema::new(vec![
///     Field::new("label", DataType::Int64),
///     Field::new("dense_0", DataType::Float32),
///     Field::new("sparse_0", DataType::ListInt64),
/// ])?;
/// assert_eq!(schema.len(), 3);
/// assert_eq!(schema.index_of("dense_0"), Some(1));
/// # Ok::<(), presto_columnar::ColumnarError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema from fields.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::InvalidSchema`] if the field list is empty or
    /// contains duplicate names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        if fields.is_empty() {
            return Err(ColumnarError::InvalidSchema { detail: "schema has no fields".into() });
        }
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name() == f.name()) {
                return Err(ColumnarError::InvalidSchema {
                    detail: format!("duplicate field name {:?}", f.name()),
                });
            }
        }
        Ok(Schema { fields })
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields (never true for a valid schema).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in declaration order.
    #[must_use]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at `idx`, if in range.
    #[must_use]
    pub fn field(&self, idx: usize) -> Option<&Field> {
        self.fields.get(idx)
    }

    /// Index of the field named `name`.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name() == name)
    }

    /// Resolves a list of column names to indices, preserving order.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::UnknownColumn`] on the first name that does
    /// not exist.
    pub fn project(&self, names: &[&str]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|n| {
                self.index_of(n).ok_or_else(|| ColumnarError::UnknownColumn { name: (*n).into() })
            })
            .collect()
    }

    /// Iterator over the fields.
    pub fn iter(&self) -> std::slice::Iter<'_, Field> {
        self.fields.iter()
    }
}

impl<'a> IntoIterator for &'a Schema {
    type Item = &'a Field;
    type IntoIter = std::slice::Iter<'a, Field>;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("label", DataType::Int64),
            Field::new("dense_0", DataType::Float32),
            Field::new("sparse_0", DataType::ListInt64),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_schema() {
        assert!(matches!(Schema::new(vec![]), Err(ColumnarError::InvalidSchema { .. })));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err =
            Schema::new(vec![Field::new("x", DataType::Int64), Field::new("x", DataType::Float32)])
                .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("sparse_0"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field(1).unwrap().data_type(), DataType::Float32);
    }

    #[test]
    fn projection_preserves_order_and_errors() {
        let s = sample();
        assert_eq!(s.project(&["sparse_0", "label"]).unwrap(), vec![2, 0]);
        assert!(matches!(s.project(&["label", "nope"]), Err(ColumnarError::UnknownColumn { .. })));
    }

    #[test]
    fn data_type_tags_roundtrip() {
        for dt in [DataType::Int64, DataType::Float32, DataType::Float64, DataType::ListInt64] {
            assert_eq!(DataType::from_tag(dt.to_tag()).unwrap(), dt);
        }
        assert!(DataType::from_tag(99).is_err());
    }

    #[test]
    fn element_widths() {
        assert_eq!(DataType::Float32.element_width(), 4);
        assert_eq!(DataType::ListInt64.element_width(), 8);
    }

    #[test]
    fn hot_columns_skip_compression_by_default() {
        let policy = WritePolicy::default().with_compression(Compression::Lz);
        assert_eq!(policy.compression_for(DataType::ListInt64), Compression::None);
        assert_eq!(policy.compression_for(DataType::Int64), Compression::None);
        assert_eq!(policy.compression_for(DataType::Float32), Compression::Lz);
        assert_eq!(policy.compression_for(DataType::Float64), Compression::Lz);
        let archival = policy.compressing_hot_columns();
        assert_eq!(archival.compression_for(DataType::ListInt64), Compression::Lz);
    }

    #[test]
    fn forced_encoding_overrides_cost_model() {
        let values: Vec<i64> = (0..512).map(|i| i * 17).collect();
        let policy = WritePolicy::default();
        assert_ne!(policy.i64_encoding(&values), Encoding::Plain);
        let forced = policy.with_forced_encoding(Encoding::Plain);
        assert_eq!(forced.i64_encoding(&values), Encoding::Plain);
    }

    #[test]
    fn schema_iterates() {
        let s = sample();
        let names: Vec<_> = (&s).into_iter().map(Field::name).collect();
        assert_eq!(names, vec!["label", "dense_0", "sparse_0"]);
    }
}
