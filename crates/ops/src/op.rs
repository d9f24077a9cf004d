//! The typed operator vocabulary of the preprocessing plan IR.
//!
//! Every transform the pipeline can run is one [`Op`]. The paper's three
//! core operators ([`Op::SigridHash`], [`Op::Bucketize`], [`Op::LogNorm`])
//! are joined by the richer vocabulary Meta's ingestion study documents for
//! production RecSys pipelines:
//!
//! * [`Op::FirstX`] — truncate each sparse list to its first `x` ids
//!   (TorchArrow `firstx`), bounding per-row work and embedding pooling.
//! * [`Op::NGram`] — hash every length-`n` window of a sparse list into a
//!   new id (n-gram / feature-cross hashing).
//! * [`Op::MapId`] — remap raw ids through a bounded lookup table
//!   (dictionary-style id normalization).
//! * [`Op::Clamp`] / [`Op::FillMissing`] — dense cleanup: bound outliers to
//!   a `[lo, hi]` range and replace NaN/sentinel missing values before
//!   normalization (the TorchArrow `clamp` / `fill_null` pair).
//!
//! Ops are *typed*: each consumes and produces a [`ValueKind`], and the
//! graph validator ([`crate::graph`]) rejects chains whose kinds do not
//! line up. [`OpTag`] is the parameter-free discriminant the per-op cost
//! model and the per-op [`StageTimings`](crate::StageTimings) buckets key
//! on.

use crate::bucketize::Bucketizer;
use crate::sigridhash::SigridHasher;
use std::fmt;
use std::sync::Arc;

/// The kind of column data flowing between ops in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// One `f32` per row (a dense feature).
    Dense,
    /// A jagged list of `i64` ids per row (offsets + flat values).
    List,
    /// Exactly one `i64` id per row (e.g. a Bucketize output).
    Ids,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKind::Dense => write!(f, "dense"),
            ValueKind::List => write!(f, "list"),
            ValueKind::Ids => write!(f, "ids"),
        }
    }
}

/// Parameter-free operator discriminant: the key of the per-op cost model
/// and the per-op timing buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpTag {
    /// Seeded hash modulo the embedding-table size (Algorithm 2).
    SigridHash,
    /// Boundary search turning dense values into ids (Algorithm 1).
    Bucketize,
    /// Dense `ln(1 + x)` normalization.
    LogNorm,
    /// List truncation to the first `x` ids.
    FirstX,
    /// Windowed n-gram / feature-cross hashing.
    NGram,
    /// Id remap through a bounded lookup table.
    MapId,
    /// Dense range clamp to `[lo, hi]`.
    Clamp,
    /// Dense NaN/missing-value replacement.
    FillMissing,
}

impl OpTag {
    /// Every operator tag, in cost-model order.
    pub const ALL: [OpTag; 8] = [
        OpTag::SigridHash,
        OpTag::Bucketize,
        OpTag::LogNorm,
        OpTag::FirstX,
        OpTag::NGram,
        OpTag::MapId,
        OpTag::Clamp,
        OpTag::FillMissing,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpTag::SigridHash => "SigridHash",
            OpTag::Bucketize => "Bucketize",
            OpTag::LogNorm => "LogNorm",
            OpTag::FirstX => "FirstX",
            OpTag::NGram => "NGram",
            OpTag::MapId => "MapId",
            OpTag::Clamp => "Clamp",
            OpTag::FillMissing => "FillMissing",
        }
    }
}

impl fmt::Display for OpTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A bounded id-remap table: ids in `[0, table.len())` map to
/// `table[id]`, everything else to `default_id` (dictionary-style
/// normalization, TorchArrow/Meta `mapid`).
///
/// The table is shared (`Arc`) so cloning a plan never copies vocabulary
/// data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap {
    table: Arc<[i64]>,
    default_id: i64,
}

impl IdMap {
    /// Wraps a remap table; out-of-range ids map to `default_id`.
    #[must_use]
    pub fn new(table: Vec<i64>, default_id: i64) -> Self {
        IdMap { table: table.into(), default_id }
    }

    /// A deterministic pseudo-random remap of `size` ids into
    /// `[0, out_bound)` — the shape of a trained id dictionary without
    /// shipping one (used by the scenario builders and tests).
    ///
    /// # Panics
    ///
    /// Panics when `out_bound == 0`.
    #[must_use]
    pub fn shuffled(seed: u64, size: usize, out_bound: u64) -> Self {
        assert!(out_bound > 0, "remap output bound must be positive");
        let table: Vec<i64> = (0..size as u64)
            .map(|i| (splitmix64(i ^ seed.rotate_left(17)) % out_bound) as i64)
            .collect();
        IdMap::new(table, 0)
    }

    /// Number of table entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the table is empty (every id maps to the default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The default id for out-of-range inputs.
    #[must_use]
    pub fn default_id(&self) -> i64 {
        self.default_id
    }

    /// Remaps one id.
    #[must_use]
    pub fn map_one(&self, id: i64) -> i64 {
        usize::try_from(id).ok().and_then(|i| self.table.get(i)).copied().unwrap_or(self.default_id)
    }

    /// Remaps a flat id slice into a caller-provided buffer.
    pub fn apply_into(&self, ids: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.reserve(ids.len());
        out.extend(ids.iter().map(|&v| self.map_one(v)));
    }

    /// Remaps a flat id slice in place.
    pub fn apply_in_place(&self, ids: &mut [i64]) {
        for v in ids {
            *v = self.map_one(*v);
        }
    }
}

/// SplitMix64 finalizer (same mixer family as `SigridHasher`), used for the
/// deterministic shuffled remap table.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One preprocessing operator with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Sparse normalization: seeded hash modulo the table size, elementwise
    /// over `List` or `Ids` input.
    SigridHash(SigridHasher),
    /// Feature generation: table-guided boundary search, `Dense → Ids`.
    Bucketize(Bucketizer),
    /// Dense normalization: `ln(1 + max(x, 0))`, `Dense → Dense`.
    LogNorm,
    /// Truncate each list to its first `x` ids, `List → List` (rewrites
    /// offsets).
    FirstX(usize),
    /// Hash every length-`n` window of each list into one id; row output
    /// length is `max(len - n + 1, 0)`. `List → List` (rewrites offsets).
    NGram {
        /// Window length (`>= 1`); `n == 2` is a pairwise feature cross.
        n: usize,
        /// Hasher bounding the crossed ids to an embedding-table size.
        hasher: SigridHasher,
    },
    /// Remap ids through a bounded table, elementwise over `List` or `Ids`.
    MapId(IdMap),
    /// Dense cleanup: bound each value to `[lo, hi]` (`x.max(lo).min(hi)`,
    /// so NaN inputs become `lo` — apply [`Op::FillMissing`] first when
    /// missing values need a different fill). `Dense → Dense`.
    Clamp {
        /// Lower bound (inclusive).
        lo: f32,
        /// Upper bound (inclusive); must be `>= lo`.
        hi: f32,
    },
    /// Dense cleanup: replace NaN (the missing-value sentinel) with a fill
    /// constant. `Dense → Dense`.
    FillMissing(f32),
}

impl Op {
    /// The parameter-free discriminant.
    #[must_use]
    pub fn tag(&self) -> OpTag {
        match self {
            Op::SigridHash(_) => OpTag::SigridHash,
            Op::Bucketize(_) => OpTag::Bucketize,
            Op::LogNorm => OpTag::LogNorm,
            Op::FirstX(_) => OpTag::FirstX,
            Op::NGram { .. } => OpTag::NGram,
            Op::MapId(_) => OpTag::MapId,
            Op::Clamp { .. } => OpTag::Clamp,
            Op::FillMissing(_) => OpTag::FillMissing,
        }
    }

    /// Output kind when applied to `input`, or `None` on a type mismatch.
    #[must_use]
    pub fn output_kind(&self, input: ValueKind) -> Option<ValueKind> {
        match (self, input) {
            (Op::LogNorm | Op::Clamp { .. } | Op::FillMissing(_), ValueKind::Dense) => {
                Some(ValueKind::Dense)
            }
            (Op::Bucketize(_), ValueKind::Dense) => Some(ValueKind::Ids),
            (Op::SigridHash(_) | Op::MapId(_), ValueKind::List | ValueKind::Ids) => Some(input),
            (Op::FirstX(_) | Op::NGram { .. }, ValueKind::List) => Some(ValueKind::List),
            _ => None,
        }
    }

    /// True when the op maps each input element to exactly one output
    /// element without touching list structure (offsets pass through).
    #[must_use]
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            Op::SigridHash(_) | Op::MapId(_) | Op::LogNorm | Op::Clamp { .. } | Op::FillMissing(_)
        )
    }

    /// True when the op rewrites list offsets ([`Op::FirstX`],
    /// [`Op::NGram`]).
    #[must_use]
    pub fn restructures_list(&self) -> bool {
        matches!(self, Op::FirstX(_) | Op::NGram { .. })
    }

    /// Cost-model hint: comparisons per element for search-style ops
    /// (`⌈log₂ m⌉` for Bucketize), 1 otherwise.
    #[must_use]
    pub fn search_depth(&self) -> u32 {
        match self {
            Op::Bucketize(b) => (b.num_boundaries().max(2) as f64).log2().ceil() as u32,
            _ => 1,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::SigridHash(h) => write!(f, "SigridHash(d={})", h.max_value()),
            Op::Bucketize(b) => write!(f, "Bucketize(m={})", b.num_boundaries()),
            Op::LogNorm => write!(f, "LogNorm"),
            Op::FirstX(x) => write!(f, "FirstX({x})"),
            Op::NGram { n, hasher } => write!(f, "NGram(n={n}, d={})", hasher.max_value()),
            Op::MapId(m) => write!(f, "MapId(|table|={})", m.len()),
            Op::Clamp { lo, hi } => write!(f, "Clamp({lo}..{hi})"),
            Op::FillMissing(v) => write!(f, "FillMissing({v})"),
        }
    }
}

/// Hashes every length-`n` window of each list into one id, appending the
/// new `(offsets, values)` into caller-provided buffers (cleared first).
///
/// Window ids are combined with an FNV-1a fold and bounded by `hasher`, so
/// `n == 2` is a pairwise feature cross of adjacent ids. Rows shorter than
/// `n` produce empty lists. `n == 0` is treated as `n == 1`.
pub fn ngram_into(
    offsets: &[u32],
    values: &[i64],
    n: usize,
    hasher: &SigridHasher,
    out_offsets: &mut Vec<u32>,
    out_values: &mut Vec<i64>,
) {
    let n = n.max(1);
    let rows = offsets.len().saturating_sub(1);
    out_offsets.clear();
    out_offsets.reserve(rows + 1);
    out_offsets.push(0);
    out_values.clear();
    out_values.reserve(values.len());
    for row in 0..rows {
        let start = offsets[row] as usize;
        let end = offsets[row + 1] as usize;
        let list = &values[start..end];
        if list.len() >= n {
            for window in list.windows(n) {
                out_values.push(hasher.hash_one(combine_window(window)));
            }
        }
        out_offsets.push(out_values.len() as u32);
    }
}

/// FNV-1a fold of an id window into one combined id (the cross key).
#[inline]
fn combine_window(window: &[i64]) -> i64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in window {
        acc = (acc ^ v as u64).wrapping_mul(0x100_0000_01b3);
    }
    acc as i64
}

/// Clamps a dense slice into `out` (cleared first): `x.max(lo).min(hi)`,
/// the branch-free form, so NaN inputs land on `lo` rather than passing
/// through (`f32::max` returns its non-NaN argument).
pub fn clamp_into(src: &[f32], lo: f32, hi: f32, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(src.len());
    out.extend(src.iter().map(|&x| x.max(lo).min(hi)));
}

/// In-place counterpart of [`clamp_into`].
pub fn clamp_in_place(values: &mut [f32], lo: f32, hi: f32) {
    for v in values {
        *v = v.max(lo).min(hi);
    }
}

/// Replaces NaN (the missing-value sentinel) with `fill`, writing into
/// `out` (cleared first).
pub fn fill_missing_into(src: &[f32], fill: f32, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(src.len());
    out.extend(src.iter().map(|&x| if x.is_nan() { fill } else { x }));
}

/// In-place counterpart of [`fill_missing_into`].
pub fn fill_missing_in_place(values: &mut [f32], fill: f32) {
    for v in values {
        if v.is_nan() {
            *v = fill;
        }
    }
}

/// Truncates each list to its first `x` ids, appending the new
/// `(offsets, values)` into caller-provided buffers (cleared first), so a
/// warm scratch truncates without allocating. Rows shorter than `x` are
/// kept whole, and `x == 0` empties every list.
pub fn firstx_into(
    offsets: &[u32],
    values: &[i64],
    x: usize,
    out_offsets: &mut Vec<u32>,
    out_values: &mut Vec<i64>,
) {
    let rows = offsets.len().saturating_sub(1);
    out_offsets.clear();
    out_offsets.reserve(rows + 1);
    out_offsets.push(0);
    out_values.clear();
    for row in 0..rows {
        let start = offsets[row] as usize;
        let end = offsets[row + 1] as usize;
        let take = (end - start).min(x);
        out_values.extend_from_slice(&values[start..start + take]);
        out_offsets.push(out_values.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jagged(lists: &[&[i64]]) -> (Vec<u32>, Vec<i64>) {
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        for l in lists {
            values.extend_from_slice(l);
            offsets.push(values.len() as u32);
        }
        (offsets, values)
    }

    #[test]
    fn op_kinds_type_check() {
        let hash = Op::SigridHash(SigridHasher::new(1, 100).unwrap());
        let bucket = Op::Bucketize(Bucketizer::new(vec![0.0, 1.0]).unwrap());
        assert_eq!(Op::LogNorm.output_kind(ValueKind::Dense), Some(ValueKind::Dense));
        assert_eq!(Op::LogNorm.output_kind(ValueKind::List), None);
        assert_eq!(bucket.output_kind(ValueKind::Dense), Some(ValueKind::Ids));
        assert_eq!(bucket.output_kind(ValueKind::Ids), None);
        assert_eq!(hash.output_kind(ValueKind::List), Some(ValueKind::List));
        assert_eq!(hash.output_kind(ValueKind::Ids), Some(ValueKind::Ids));
        assert_eq!(hash.output_kind(ValueKind::Dense), None);
        assert_eq!(Op::FirstX(3).output_kind(ValueKind::List), Some(ValueKind::List));
        assert_eq!(Op::FirstX(3).output_kind(ValueKind::Ids), None);
        let map = Op::MapId(IdMap::shuffled(1, 16, 8));
        assert_eq!(map.output_kind(ValueKind::Ids), Some(ValueKind::Ids));
    }

    #[test]
    fn elementwise_and_restructuring_partition_the_vocabulary() {
        let hash = Op::SigridHash(SigridHasher::new(1, 100).unwrap());
        let ngram = Op::NGram { n: 2, hasher: SigridHasher::new(2, 64).unwrap() };
        assert!(hash.is_elementwise() && !hash.restructures_list());
        assert!(!ngram.is_elementwise() && ngram.restructures_list());
        assert!(Op::FirstX(1).restructures_list());
        assert!(Op::LogNorm.is_elementwise());
        // Bucketize is neither: it is a rowwise Dense → Ids map.
        let bucket = Op::Bucketize(Bucketizer::new(vec![0.0]).unwrap());
        assert!(!bucket.is_elementwise() && !bucket.restructures_list());
    }

    #[test]
    fn mapid_remaps_in_range_and_defaults_out_of_range() {
        let map = IdMap::new(vec![10, 20, 30], -1);
        assert_eq!(map.map_one(0), 10);
        assert_eq!(map.map_one(2), 30);
        assert_eq!(map.map_one(3), -1);
        assert_eq!(map.map_one(-5), -1);
        assert_eq!(map.map_one(i64::MAX), -1);
        let mut out = Vec::new();
        map.apply_into(&[1, 99, 0], &mut out);
        assert_eq!(out, vec![20, -1, 10]);
        let mut in_place = vec![1, 99, 0];
        map.apply_in_place(&mut in_place);
        assert_eq!(in_place, out);
    }

    #[test]
    fn shuffled_map_is_deterministic_and_bounded() {
        let a = IdMap::shuffled(7, 100, 13);
        let b = IdMap::shuffled(7, 100, 13);
        assert_eq!(a, b);
        assert_ne!(a, IdMap::shuffled(8, 100, 13));
        for id in 0..100 {
            assert!((0..13).contains(&a.map_one(id)));
        }
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        assert_eq!(a.default_id(), 0);
    }

    #[test]
    fn ngram_hashes_windows_and_handles_short_rows() {
        let hasher = SigridHasher::new(9, 1000).unwrap();
        let (o, v) = jagged(&[&[1, 2, 3], &[4], &[], &[5, 6]]);
        let mut oo = Vec::new();
        let mut ov = Vec::new();
        ngram_into(&o, &v, 2, &hasher, &mut oo, &mut ov);
        assert_eq!(oo, vec![0, 2, 2, 2, 3]);
        assert_eq!(ov.len(), 3);
        for &id in &ov {
            assert!((0..1000).contains(&id));
        }
        // Deterministic and window-sensitive.
        let first = ov.clone();
        ngram_into(&o, &v, 2, &hasher, &mut oo, &mut ov);
        assert_eq!(ov, first);
        assert_ne!(ov[0], ov[1], "windows (1,2) and (2,3) should differ");
    }

    #[test]
    fn ngram_of_one_is_plain_hashing() {
        let hasher = SigridHasher::new(3, 500).unwrap();
        let (o, v) = jagged(&[&[7, 8], &[9]]);
        let mut oo = Vec::new();
        let mut ov = Vec::new();
        ngram_into(&o, &v, 1, &hasher, &mut oo, &mut ov);
        assert_eq!(oo, o);
        let expected: Vec<i64> = v.iter().map(|&x| hasher.hash_one(combine_window(&[x]))).collect();
        assert_eq!(ov, expected);
        // n == 0 clamps to 1.
        ngram_into(&o, &v, 0, &hasher, &mut oo, &mut ov);
        assert_eq!(ov, expected);
    }

    #[test]
    fn firstx_into_matches_allocating_firstx() {
        let lists: &[&[i64]] = &[&[1, 2, 3, 4], &[5], &[], &[6, 7]];
        let (o, v) = jagged(lists);
        // x = 0 empties every list; x = 4 is the longest list (identity).
        for x in [0, 1, 2, 4, 10] {
            let truncated: Vec<&[i64]> = lists.iter().map(|l| &l[..l.len().min(x)]).collect();
            let (expect_o, expect_v) = jagged(&truncated);
            let mut oo = vec![99u32]; // dirty buffers must be fine
            let mut ov = vec![-1i64];
            firstx_into(&o, &v, x, &mut oo, &mut ov);
            assert_eq!((oo, ov), (expect_o, expect_v), "x = {x}");
        }
    }

    #[test]
    fn clamp_and_fill_missing_are_typed_dense_cleanup() {
        let clamp = Op::Clamp { lo: -1.0, hi: 1.0 };
        let fill = Op::FillMissing(0.0);
        assert_eq!(clamp.output_kind(ValueKind::Dense), Some(ValueKind::Dense));
        assert_eq!(clamp.output_kind(ValueKind::List), None);
        assert_eq!(fill.output_kind(ValueKind::Dense), Some(ValueKind::Dense));
        assert_eq!(fill.output_kind(ValueKind::Ids), None);
        assert!(clamp.is_elementwise() && !clamp.restructures_list());
        assert!(fill.is_elementwise() && !fill.restructures_list());
        assert_eq!(clamp.tag(), OpTag::Clamp);
        assert_eq!(fill.tag(), OpTag::FillMissing);
        assert_eq!(clamp.to_string(), "Clamp(-1..1)");
        assert_eq!(fill.to_string(), "FillMissing(0)");
    }

    #[test]
    fn clamp_kernels_bound_values_and_swallow_nan() {
        let src = [-5.0, 0.5, 7.0, f32::NAN];
        let mut out = vec![9.9];
        clamp_into(&src, -1.0, 1.0, &mut out);
        assert_eq!(out, vec![-1.0, 0.5, 1.0, -1.0]);
        let mut v = src;
        clamp_in_place(&mut v, -1.0, 1.0);
        assert_eq!(v.to_vec(), out);
    }

    #[test]
    fn fill_missing_kernels_replace_only_nan() {
        let src = [1.0, f32::NAN, -2.0, f32::NAN];
        let mut out = Vec::new();
        fill_missing_into(&src, 0.25, &mut out);
        assert_eq!(out, vec![1.0, 0.25, -2.0, 0.25]);
        let mut v = src;
        fill_missing_in_place(&mut v, 0.25);
        assert_eq!(v.to_vec(), out);
    }

    #[test]
    fn search_depth_follows_boundary_count() {
        let bucket = Op::Bucketize(Bucketizer::log_spaced(1024, 1.0e6).unwrap());
        assert_eq!(bucket.search_depth(), 10);
        assert_eq!(Op::LogNorm.search_depth(), 1);
    }

    #[test]
    fn display_names_are_informative() {
        let hash = Op::SigridHash(SigridHasher::new(1, 100).unwrap());
        assert_eq!(hash.to_string(), "SigridHash(d=100)");
        assert_eq!(Op::FirstX(4).to_string(), "FirstX(4)");
        assert_eq!(OpTag::NGram.to_string(), "NGram");
        assert_eq!(ValueKind::List.to_string(), "list");
    }
}
