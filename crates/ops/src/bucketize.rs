//! Bucketize — feature generation (Algorithm 1 of the paper).
//!
//! Transforms a dense feature into a sparse categorical feature: the output
//! id is the index of the bucket the value falls into. Matches TorchArrow's
//! `bucketize`, where `id = #{ boundaries[j] <= value }` over `m` boundaries,
//! yielding ids in `[0, m]` (NaN compares false everywhere and lands in 0).
//!
//! # The table-guided search
//!
//! A binary search (`partition_point`) is ~12 dependent, unpredictable
//! steps at `m = 4096`. Instead, [`Bucketizer::new`] builds once a table
//! keyed by the high bits of a monotone `u32` image of the `f32` (the sign
//! bit flipped for positives, every bit for negatives, `-0` folded onto
//! `+0`): cell `c` holds the number of boundaries ≤ the cell's smallest
//! key. The table spans only the keys from the first boundary to the last;
//! a value's key is clamped into that span, so everything below the first
//! boundary (and NaN) lands in cell 0, whose count is 0, and everything at
//! or above the last in the last cell. The cell's count is a lower bound of
//! the id, and no cell's key range holds more than `window − 1`
//! boundaries, so a branch-free search over the `window` boundaries from
//! there finishes the lookup in `log₂ window` selects — a NaN padding past
//! the last boundary compares false, like a boundary above every value.
//! Every step compares the value itself against a boundary, so ids equal
//! the `partition_point` definition by construction, for every input.
//!
//! Cells are as fine as `CELLS_PER_BOUNDARY · m` (8·m) cells allow: the
//! table costs at most 32 bytes per boundary, shared by every clone of the
//! `Bucketizer`. Log-spaced boundaries are near-uniform in key space, so
//! there the window is 4 (two steps); boundaries clustered far tighter than
//! their overall key span widen the window, which degrades to a branch-free
//! binary search over `m`, never worse. [`Bucketizer::apply_into`] runs the
//! same steps in lockstep over `LANES` (64) values at a time: the key
//! arithmetic vectorises and the table and boundary loads of different
//! values overlap instead of waiting on each other.

use std::fmt;
use std::hint::select_unpredictable;
use std::sync::Arc;

/// Table cells allowed per boundary (each cell is one `u32`).
const CELLS_PER_BOUNDARY: usize = 8;

/// Values searched side by side by `Bucketizer::apply_into`.
const LANES: usize = 64;

/// Error constructing a [`Bucketizer`].
#[derive(Debug, Clone, PartialEq)]
pub enum BucketizeError {
    /// The boundary list was empty.
    Empty,
    /// Boundaries were not strictly increasing at the reported index.
    NotIncreasing {
        /// Index `i` such that `boundaries[i] >= boundaries[i + 1]`.
        index: usize,
    },
    /// A boundary was NaN.
    NanBoundary {
        /// Index of the NaN entry.
        index: usize,
    },
}

impl fmt::Display for BucketizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BucketizeError::Empty => write!(f, "bucket boundary list is empty"),
            BucketizeError::NotIncreasing { index } => {
                write!(f, "bucket boundaries not strictly increasing at index {index}")
            }
            BucketizeError::NanBoundary { index } => {
                write!(f, "bucket boundary at index {index} is NaN")
            }
        }
    }
}

impl std::error::Error for BucketizeError {}

/// A validated, sorted bucket boundary array plus its search table.
///
/// Cloning is cheap: clones share the boundaries and the table.
///
/// # Examples
///
/// ```
/// use presto_ops::Bucketizer;
///
/// let b = Bucketizer::new(vec![0.0, 10.0, 100.0])?;
/// assert_eq!(b.bucket_id(-5.0), 0);  // below all boundaries
/// assert_eq!(b.bucket_id(0.0), 1);   // boundaries are inclusive lower edges
/// assert_eq!(b.bucket_id(50.0), 2);
/// assert_eq!(b.bucket_id(1e9), 3);   // above all boundaries
/// # Ok::<(), presto_ops::BucketizeError>(())
/// ```
#[derive(Clone)]
pub struct Bucketizer {
    search: Arc<Search>,
}

/// The boundaries and the table that guides the search into them.
struct Search {
    /// The `m` boundaries, then `window − 1` NaNs, so a search window never
    /// reads past the end.
    padded: Vec<f32>,
    m: usize,
    /// One below the first boundary's key: keys are taken relative to it.
    base: u32,
    /// The last boundary's key relative to `base`: relative keys are
    /// clamped into `[0, top]`.
    top: u32,
    /// Keys per cell, as a power of two.
    shift: u32,
    /// `cells[c]`: boundaries whose key is ≤ `base + (c << shift)`.
    cells: Vec<u32>,
    /// `log₂ window`: the steps that finish a lookup.
    steps: u32,
}

/// The search step of width `half` from `at`: `half` if `value` is at or
/// above the last boundary it would skip, else 0.
#[inline]
fn step(padded: &[f32], at: u32, half: u32, value: f32) -> u32 {
    select_unpredictable(padded[(at + half - 1) as usize] <= value, half, 0)
}

/// Monotone `u32` image of a non-NaN `f32`: `a <= b` iff
/// `key(a) <= key(b)`, with `-0.0` and `+0.0` one key.
#[inline]
fn key(v: f32) -> u32 {
    let bits = (v + 0.0).to_bits();
    bits ^ (((bits as i32) >> 31) as u32 | 0x8000_0000)
}

impl Search {
    fn new(boundaries: Vec<f32>) -> Search {
        let m = boundaries.len();
        let base = key(boundaries[0]) - 1;
        let top = key(boundaries[m - 1]) - base;
        let max_cells = CELLS_PER_BOUNDARY * m;
        // The finest cells that fit: `(top >> shift) + 1` of them.
        let shift = (0..32).find(|&s| ((top >> s) as usize) < max_cells).unwrap_or(31);
        let count = |c: usize| {
            let min = base + ((c as u32) << shift);
            let below = boundaries.partition_point(|&b| key(b) <= min);
            u32::try_from(below).expect("fewer than 2^32 boundaries")
        };
        let cells: Vec<u32> = (0..=(top >> shift) as usize).map(count).collect();
        let widest = cells
            .windows(2)
            .map(|pair| pair[1] - pair[0])
            .chain([m as u32 - cells[cells.len() - 1]])
            .max()
            .unwrap_or(0);
        let window = (widest as usize + 1).next_power_of_two();
        let mut padded = boundaries;
        padded.resize(m + window - 1, f32::NAN);
        Search { padded, m, base, top, shift, cells, steps: window.trailing_zeros() }
    }

    /// The table cell `value` falls into (NaN: cell 0).
    #[inline]
    fn cell(&self, value: f32) -> u32 {
        let k = if value.is_nan() { 0 } else { key(value) };
        k.saturating_sub(self.base).min(self.top) >> self.shift
    }

    /// Step widths, widest first: `window / 2, …, 2, 1`.
    fn halves(&self) -> impl Iterator<Item = u32> {
        (0..self.steps).rev().map(|i| 1 << i)
    }
}

impl Bucketizer {
    /// Validates a strictly increasing boundary array and builds its search
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`BucketizeError`] on empty, NaN-containing or non-increasing
    /// input.
    pub fn new(boundaries: Vec<f32>) -> Result<Self, BucketizeError> {
        if boundaries.is_empty() {
            return Err(BucketizeError::Empty);
        }
        if let Some(index) = boundaries.iter().position(|b| b.is_nan()) {
            return Err(BucketizeError::NanBoundary { index });
        }
        if let Some(index) = boundaries.windows(2).position(|w| w[0] >= w[1]) {
            return Err(BucketizeError::NotIncreasing { index });
        }
        Ok(Bucketizer { search: Arc::new(Search::new(boundaries)) })
    }

    /// `m` boundaries `max_value^(i/m) − 1` for `i = 0, …, m − 1`, i.e.
    /// log-spaced over `[0, max_value^((m−1)/m) − 1]`: the shape used for
    /// count-like dense features. Deduplicated to stay strictly increasing,
    /// so fewer than `m` boundaries may result for tiny ranges.
    ///
    /// # Errors
    ///
    /// Returns [`BucketizeError::Empty`] when `m == 0` or `max_value < 1.0`.
    pub fn log_spaced(m: usize, max_value: f32) -> Result<Self, BucketizeError> {
        if m == 0 || max_value < 1.0 {
            return Err(BucketizeError::Empty);
        }
        let log_max = max_value.ln();
        let mut strict: Vec<f32> = Vec::with_capacity(m);
        for i in 0..m {
            let b = (log_max * i as f32 / m as f32).exp() - 1.0;
            if strict.last().is_none_or(|&last| b > last) {
                strict.push(b);
            }
        }
        Bucketizer::new(strict)
    }

    /// Quantile boundaries estimated from a data sample: `m` cut points that
    /// split the sample into equal-mass buckets (duplicates collapsed).
    ///
    /// # Errors
    ///
    /// Returns [`BucketizeError::Empty`] when `m == 0` or the sample has no
    /// finite values.
    pub fn from_quantiles(sample: &[f32], m: usize) -> Result<Self, BucketizeError> {
        if m == 0 {
            return Err(BucketizeError::Empty);
        }
        let mut sorted: Vec<f32> = sample.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return Err(BucketizeError::Empty);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let mut boundaries = Vec::with_capacity(m);
        for i in 1..=m {
            // Cut point i sits at rank i·n/(m+1), so the m cuts split the
            // sample into m+1 equal-mass buckets. (A previous formula used
            // i·(n−1)/(m+1), which never reaches the top of the sample and
            // starved the last bucket; see `quantiles_reach_sample_top`.)
            let idx = (i * sorted.len()) / (m + 1);
            let candidate = sorted[idx.min(sorted.len() - 1)];
            if boundaries.last().is_none_or(|&last| candidate > last) {
                boundaries.push(candidate);
            }
        }
        if boundaries.is_empty() {
            boundaries.push(sorted[0]);
        }
        Bucketizer::new(boundaries)
    }

    /// The boundary array.
    #[must_use]
    pub fn boundaries(&self) -> &[f32] {
        &self.search.padded[..self.search.m]
    }

    /// Number of boundaries `m`; output ids span `[0, m]`.
    #[must_use]
    pub fn num_boundaries(&self) -> usize {
        self.search.m
    }

    /// `SearchBucketID` from Algorithm 1: the number of boundaries
    /// `<= value` (NaN: bucket 0), through the table-guided search.
    #[must_use]
    pub fn bucket_id(&self, value: f32) -> i64 {
        let s = &*self.search;
        let start = s.cells[s.cell(value) as usize];
        i64::from(s.halves().fold(start, |at, half| at + step(&s.padded, at, half, value)))
    }

    /// Bucketizes a full dense column (the Algorithm 1 loop).
    #[must_use]
    pub fn apply(&self, values: &[f32]) -> Vec<i64> {
        let mut out = Vec::new();
        self.apply_into(values, &mut out);
        out
    }

    /// Bucketizes into a caller-provided buffer, reusing its capacity: the
    /// steps of [`Bucketizer::bucket_id`] run in lockstep over 64 values at
    /// a time, so the ids are the same.
    pub fn apply_into(&self, values: &[f32], out: &mut Vec<i64>) {
        let s = &*self.search;
        let (cells, padded) = (&s.cells[..], &s.padded[..]);
        out.clear();
        out.reserve(values.len());
        let mut lanes = [0u32; LANES];
        for chunk in values.chunks(LANES) {
            let at = &mut lanes[..chunk.len()];
            for (a, &v) in at.iter_mut().zip(chunk) {
                *a = s.cell(v);
            }
            // The table lookup and the widest step in one pass.
            let mut halves = s.halves();
            let widest = halves.next().expect("a window spans at least 2");
            for (a, &v) in at.iter_mut().zip(chunk) {
                let start = cells[*a as usize];
                *a = start + step(padded, start, widest, v);
            }
            for half in halves {
                for (a, &v) in at.iter_mut().zip(chunk) {
                    *a += step(padded, *a, half, v);
                }
            }
            out.extend(at.iter().map(|&a| i64::from(a)));
        }
    }
}

impl PartialEq for Bucketizer {
    fn eq(&self, other: &Self) -> bool {
        self.boundaries() == other.boundaries()
    }
}

/// Prints the boundaries only: the table is derived from them.
impl fmt::Debug for Bucketizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bucketizer").field("boundaries", &self.boundaries()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_match_linear_scan() {
        let b = Bucketizer::new(vec![1.0, 2.5, 7.0, 9.0]).unwrap();
        for v in [-1.0f32, 0.0, 1.0, 2.0, 2.5, 3.0, 8.9, 9.0, 100.0] {
            let linear = b.boundaries().iter().filter(|&&x| x <= v).count() as i64;
            assert_eq!(b.bucket_id(v), linear, "value {v}");
        }
    }

    #[test]
    fn ids_are_in_range_and_monotone() {
        let b = Bucketizer::log_spaced(1024, 1.0e6).unwrap();
        let mut prev = -1i64;
        for i in 0..2000 {
            let v = i as f32 * 500.0;
            let id = b.bucket_id(v);
            assert!((0..=b.num_boundaries() as i64).contains(&id));
            assert!(id >= prev, "bucket ids must be monotone in the value");
            prev = id;
        }
    }

    #[test]
    fn empty_boundaries_rejected() {
        assert_eq!(Bucketizer::new(vec![]), Err(BucketizeError::Empty));
    }

    #[test]
    fn unsorted_boundaries_rejected() {
        assert_eq!(
            Bucketizer::new(vec![1.0, 1.0]),
            Err(BucketizeError::NotIncreasing { index: 0 })
        );
        assert_eq!(
            Bucketizer::new(vec![1.0, 3.0, 2.0]),
            Err(BucketizeError::NotIncreasing { index: 1 })
        );
    }

    #[test]
    fn nan_boundary_rejected() {
        assert_eq!(
            Bucketizer::new(vec![1.0, f32::NAN]),
            Err(BucketizeError::NanBoundary { index: 1 })
        );
    }

    #[test]
    fn nan_value_goes_to_bucket_zero() {
        let b = Bucketizer::new(vec![0.0, 1.0]).unwrap();
        assert_eq!(b.bucket_id(f32::NAN), 0);
    }

    #[test]
    fn log_spaced_has_requested_scale() {
        let b = Bucketizer::log_spaced(256, 1.0e6).unwrap();
        assert!(b.num_boundaries() > 200, "got {}", b.num_boundaries());
        assert!(b.num_boundaries() <= 256);
        // First boundary at exp(0)-1 = 0.
        assert_eq!(b.boundaries()[0], 0.0);
    }

    #[test]
    fn quantile_boundaries_balance_buckets() {
        let sample: Vec<f32> = (0..10_000).map(|i| (i % 1000) as f32).collect();
        let b = Bucketizer::from_quantiles(&sample, 9).unwrap();
        let ids = b.apply(&sample);
        let mut counts = vec![0usize; b.num_boundaries() + 1];
        for id in ids {
            counts[id as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(max < min * 4, "bucket skew: max {max} min {min}");
    }

    #[test]
    fn quantiles_reach_sample_top() {
        // Regression: with m cuts over n = m + 1 distinct values, every
        // value must become its own bucket — including the top one. The old
        // index formula ((i * (n - 1)) / (m + 1)) stopped one short and
        // merged the two largest values into one bucket.
        let sample: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let b = Bucketizer::from_quantiles(&sample, 9).unwrap();
        assert_eq!(b.boundaries(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        // The top value is separated from its neighbor.
        assert_ne!(b.bucket_id(9.0), b.bucket_id(8.0));
    }

    #[test]
    fn quantile_last_bucket_is_not_starved() {
        // With a uniform sample, the mass above the last cut must be about
        // one bucket's worth, not two.
        let sample: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let m = 4;
        let b = Bucketizer::from_quantiles(&sample, m).unwrap();
        let ids = b.apply(&sample);
        let top = ids.iter().filter(|&&id| id == m as i64).count();
        let expected = sample.len() / (m + 1);
        assert!(
            top <= expected + expected / 2,
            "last bucket got {top} of {} samples, expected ~{expected}",
            sample.len()
        );
    }

    #[test]
    fn large_m_apply_matches_bucket_id() {
        // Lockstep apply vs the scalar route, across non-power-of-two sizes,
        // boundary-exact values and lengths that end mid-chunk.
        for m in [17usize, 100, 1023, 1024, 1025] {
            let boundaries: Vec<f32> = (0..m).map(|i| i as f32 * 3.5).collect();
            let b = Bucketizer::new(boundaries).unwrap();
            let mut probes: Vec<f32> = (0..2 * m).map(|i| i as f32 * 1.75 - 10.0).collect();
            probes.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e30, 1e30]);
            let expected: Vec<i64> = probes.iter().map(|&v| b.bucket_id(v)).collect();
            assert_eq!(b.apply(&probes), expected, "m={m}");
            assert_ids_are_the_reference(&b, &probes);
        }
    }

    #[test]
    fn small_and_large_m_paths_agree() {
        // One search route for every m: tiny tables and large ones alike
        // answer the linear-scan definition.
        let values: Vec<f32> = (-50..50).map(|i| i as f32 * 7.31).collect();
        for m in [1usize, 2, 15, 16, 17, 64] {
            let boundaries: Vec<f32> = (0..m).map(|i| i as f32 * 11.0 - 100.0).collect();
            let b = Bucketizer::new(boundaries).unwrap();
            for &v in &values {
                let linear = b.boundaries().iter().filter(|&&x| x <= v).count() as i64;
                assert_eq!(b.bucket_id(v), linear, "m={m} v={v}");
            }
            let applied = b.apply(&values);
            let expected: Vec<i64> = values.iter().map(|&v| b.bucket_id(v)).collect();
            assert_eq!(applied, expected, "m={m}");
        }
    }

    #[test]
    fn small_path_handles_nan_and_infinities() {
        let b = Bucketizer::new(vec![0.0, 1.0]).unwrap();
        let out = b.apply(&[f32::NAN, f32::NEG_INFINITY, f32::INFINITY]);
        assert_eq!(out, vec![0, 0, 2]);
    }

    /// The definition: the number of boundaries `<= v`.
    fn reference(b: &Bucketizer, v: f32) -> i64 {
        b.boundaries().partition_point(|&x| x <= v) as i64
    }

    /// Every boundary, its ±1-ULP neighbours, and the specials.
    fn probes(boundaries: &[f32]) -> Vec<f32> {
        let mut probes: Vec<f32> =
            boundaries.iter().flat_map(|&x| [x.next_down(), x, x.next_up()]).collect();
        probes.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffff_ffff),
        ]);
        probes
    }

    /// `bucket_id` and the lockstep `apply` both equal the definition on
    /// `values`, and NaN lands in bucket 0.
    fn assert_ids_are_the_reference(b: &Bucketizer, values: &[f32]) {
        let applied = b.apply(values);
        for (&v, &id) in values.iter().zip(&applied) {
            let want = reference(b, v);
            assert_eq!(b.bucket_id(v), want, "bucket_id({v:e}) m={}", b.num_boundaries());
            assert_eq!(id, want, "apply({v:e}) m={}", b.num_boundaries());
            if v.is_nan() {
                assert_eq!(id, 0);
            }
        }
    }

    #[test]
    fn log_spaced_ids_are_the_reference() {
        // The datagen dense shape: (8·Exp(1))², capped at 1e6.
        let dense: Vec<f32> = (1..4000)
            .map(|i| {
                let e = -(1.0 - f64::from(i) / 4000.0).ln() * 8.0;
                (e * e).min(1.0e6) as f32
            })
            .collect();
        for m in [1usize, 2, 16, 17, 1024, 4096] {
            let b = Bucketizer::log_spaced(m, 1.0e6).unwrap();
            assert_ids_are_the_reference(&b, &probes(b.boundaries()));
            assert_ids_are_the_reference(&b, &dense);
        }
    }

    #[test]
    fn quantile_ids_are_the_reference() {
        // Negatives, heavy duplicates and a point mass at zero.
        let sample: Vec<f32> = (0..5000)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -((i % 37) as f32) * 0.25,
                2 => (i % 11) as f32,
                _ => (i as f32).sqrt() * 1.5 - 20.0,
            })
            .collect();
        for m in [1usize, 3, 16, 100, 1000] {
            let b = Bucketizer::from_quantiles(&sample, m).unwrap();
            assert_ids_are_the_reference(&b, &probes(b.boundaries()));
            assert_ids_are_the_reference(&b, &sample);
        }
    }

    #[test]
    fn signed_boundaries_are_the_reference() {
        let sets: [Vec<f32>; 6] = [
            vec![-1000.0, -10.0, -1.0, -0.001], // negative only
            (1..=300).map(|i| -(i as f32).powi(2)).rev().collect(),
            vec![-1.0, -f32::MIN_POSITIVE, 0.0, f32::MIN_POSITIVE, 1.0], // straddles 0
            vec![-0.0, 1.0],                                             // -0 boundary
            vec![f32::NEG_INFINITY, -1.0, 0.0, f32::INFINITY],           // infinite boundaries
            vec![-f32::from_bits(1), f32::from_bits(1)],                 // subnormals around 0
        ];
        for boundaries in sets {
            let b = Bucketizer::new(boundaries).unwrap();
            assert_ids_are_the_reference(&b, &probes(b.boundaries()));
        }
    }

    #[test]
    fn signed_zeros_share_a_bucket() {
        // `0.0 <= -0.0` holds, so either zero counts a zero boundary.
        for zero in [0.0f32, -0.0] {
            let b = Bucketizer::new(vec![-1.0, zero, 1.0]).unwrap();
            assert_eq!(b.bucket_id(0.0), 2);
            assert_eq!(b.bucket_id(-0.0), 2);
            assert_eq!(b.apply(&[0.0, -0.0]), vec![2, 2]);
        }
    }

    #[test]
    fn clustered_boundaries_stay_exact() {
        // 2,000 adjacent floats around 1.0 next to one far boundary: the
        // table cannot split the cluster, so the window covers it.
        let mut boundaries: Vec<f32> =
            (0..2000u32).map(|i| f32::from_bits(1.0f32.to_bits() + i)).collect();
        boundaries.push(1e30);
        let b = Bucketizer::new(boundaries).unwrap();
        assert_ids_are_the_reference(&b, &probes(b.boundaries()));
    }

    #[test]
    fn table_stays_within_its_cell_budget() {
        for m in [1usize, 2, 17, 1024, 4096] {
            let b = Bucketizer::log_spaced(m, 1.0e6).unwrap();
            let s = &*b.search;
            assert!(s.cells.len() <= CELLS_PER_BOUNDARY * m, "m={m}: {} cells", s.cells.len());
            assert_eq!(s.padded.len(), m + (1 << s.steps) - 1);
        }
        // Log-spaced boundaries are near-uniform in key space: two steps.
        assert_eq!(Bucketizer::log_spaced(4096, 1.0e6).unwrap().search.steps, 2);
    }

    #[test]
    fn clones_share_the_table_and_debug_prints_boundaries() {
        let b = Bucketizer::new(vec![0.5, 2.0]).unwrap();
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.search, &c.search));
        assert_eq!(b, c);
        assert_eq!(format!("{b:?}"), "Bucketizer { boundaries: [0.5, 2.0] }");
    }

    #[test]
    fn apply_into_reuses_buffer() {
        let b = Bucketizer::new(vec![5.0]).unwrap();
        let mut out = Vec::with_capacity(4);
        b.apply_into(&[1.0, 9.0], &mut out);
        assert_eq!(out, vec![0, 1]);
        b.apply_into(&[6.0], &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn infinities_clamp_to_extremes() {
        let b = Bucketizer::new(vec![0.0, 1.0]).unwrap();
        assert_eq!(b.bucket_id(f32::NEG_INFINITY), 0);
        assert_eq!(b.bucket_id(f32::INFINITY), 2);
    }
}
