//! Logical schema: fields, data types, lookup by name — and the per-column
//! write policy ([`WritePolicy`]) deciding how each column's pages are
//! encoded.
//!
//! A RecSys training table is modeled exactly the way the PreSto paper
//! describes it (Section II-B): each row is a user sample, each column is a
//! feature. Dense features are `Float32`, sparse features are variable-length
//! lists of categorical ids (`ListInt64`), and the click label is `Int64`.

use crate::encoding::{self, Encoding};
use crate::error::{ColumnarError, Result};
use std::fmt;
use std::sync::Arc;

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
}

/// Write-side policy: how integer value streams are encoded.
///
/// [`WritePolicy::i64_encoding`] normally runs the sample-based cost model
/// ([`encoding::choose_i64_encoding`]) per page; a
/// [`WritePolicy::forced_encoding`] pins every integer stream to one codec.
/// Tests loop over [`Encoding::ALL`] through
/// [`WritePolicy::with_forced_encoding`] so each decode path runs on data the
/// cost model would not route to it. Pages are stored as encoded: there is
/// no compression to choose.
///
/// The policy is the writer's only input besides the data: nothing is read
/// from the process environment, so the same columns always give the same
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WritePolicy {
    /// Pin every integer value stream to one encoding (`None` = cost model).
    pub forced_encoding: Option<Encoding>,
}

impl WritePolicy {
    /// Returns this policy with every integer stream pinned to `encoding`.
    #[must_use]
    pub fn with_forced_encoding(mut self, encoding: Encoding) -> Self {
        self.forced_encoding = Some(encoding);
        self
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
///
/// The name is shared, so cloning a field (as every projected schema does)
/// copies a pointer, not the string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    name: Arc<str>,
    data_type: DataType,
}

impl Field {
    /// Creates a field with the given name and type.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
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
/// Name lookups ([`Schema::index_of`], [`Schema::project`]) are binary
/// searches over one permutation of the field positions sorted by name,
/// built once in [`Schema::new`] — which is also how duplicates are found,
/// as equal neighbours. The names themselves are not copied.
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
    /// Field positions in name order.
    by_name: Vec<usize>,
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
        let mut by_name: Vec<usize> = (0..fields.len()).collect();
        by_name.sort_unstable_by(|&a, &b| fields[a].name().cmp(fields[b].name()));
        if let Some(pair) = by_name.windows(2).find(|p| fields[p[0]].name() == fields[p[1]].name())
        {
            return Err(ColumnarError::InvalidSchema {
                detail: format!("duplicate field name {:?}", fields[pair[0]].name()),
            });
        }
        Ok(Schema { fields, by_name })
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
        let at = self.by_name.binary_search_by(|&i| self.fields[i].name().cmp(name)).ok()?;
        Some(self.by_name[at])
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
    fn wide_schema_resolves_every_name_and_rejects_duplicates() {
        let names: Vec<String> =
            (0..4096).map(|i| format!("f{}", (i * 2654435761u64) % 4099)).collect();
        let fields = names.iter().map(|n| Field::new(n.as_str(), DataType::Int64)).collect();
        let s = Schema::new(fields).unwrap();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(s.index_of(name), Some(i));
        }
        assert_eq!(s.index_of("f4099"), None);
        let refs: Vec<&str> = names.iter().rev().map(String::as_str).collect();
        assert_eq!(s.project(&refs).unwrap(), (0..4096).rev().collect::<Vec<_>>());
        let mut fields: Vec<Field> = s.fields().to_vec();
        fields.push(Field::new(names[1234].as_str(), DataType::Float32));
        let err = Schema::new(fields).unwrap_err();
        assert_eq!(
            err.to_string(),
            ColumnarError::InvalidSchema {
                detail: format!("duplicate field name {:?}", names[1234])
            }
            .to_string()
        );
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
