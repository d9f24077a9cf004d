//! Property-based tests of the preprocessing kernels: the algorithmic
//! invariants of Algorithms 1 and 2 hold for arbitrary inputs.

use presto::ops::{lognorm, Bucketizer, SigridHasher, FEATURE_BUFFER_ELEMS};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_boundaries() -> impl Strategy<Value = Vec<f32>> {
    // Strictly increasing via cumulative positive gaps.
    vec(0.001f32..1000.0, 1..64).prop_map(|gaps| {
        let mut acc = -500.0f32;
        gaps.into_iter()
            .map(|g| {
                acc += g;
                acc
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bucket_id_equals_linear_scan(
        boundaries in arb_boundaries(),
        values in vec(-2000.0f32..2000.0, 0..200),
    ) {
        let b = Bucketizer::new(boundaries.clone()).expect("strictly increasing");
        for &v in &values {
            let linear = boundaries.iter().filter(|&&x| x <= v).count() as i64;
            prop_assert_eq!(b.bucket_id(v), linear);
        }
    }

    #[test]
    fn bucket_ids_are_monotone_in_value(
        boundaries in arb_boundaries(),
        mut values in vec(-2000.0f32..2000.0, 2..100),
    ) {
        let b = Bucketizer::new(boundaries).expect("valid");
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let ids = b.apply(&values);
        for w in ids.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn bucket_ids_stay_in_range(
        boundaries in arb_boundaries(),
        values in vec(any::<f32>(), 0..100),
    ) {
        let b = Bucketizer::new(boundaries).expect("valid");
        for id in b.apply(&values) {
            prop_assert!((0..=b.num_boundaries() as i64).contains(&id));
        }
    }

    #[test]
    fn sigridhash_respects_modulus(
        seed in any::<u64>(),
        max in 1u64..1_000_000,
        ids in vec(any::<i64>(), 0..200),
    ) {
        let h = SigridHasher::new(seed, max).expect("positive max");
        for out in h.apply(&ids) {
            prop_assert!((0..max as i64).contains(&out));
        }
    }

    #[test]
    fn sigridhash_is_a_pure_function(
        seed in any::<u64>(),
        max in 1u64..1_000_000,
        id in any::<i64>(),
    ) {
        let a = SigridHasher::new(seed, max).expect("valid");
        let b = SigridHasher::new(seed, max).expect("valid");
        prop_assert_eq!(a.hash_one(id), b.hash_one(id));
    }

    #[test]
    fn sigridhash_preserves_list_structure(
        seed in any::<u64>(),
        lists in vec(vec(any::<i64>(), 0..10), 0..40),
    ) {
        let h = SigridHasher::new(seed, 500_000).expect("valid");
        // Hashing the concatenation == concatenating the per-list hashes.
        let flat: Vec<i64> = lists.iter().flatten().copied().collect();
        let whole = h.apply(&flat);
        let mut pieces = Vec::new();
        for l in &lists {
            pieces.extend(h.apply(l));
        }
        prop_assert_eq!(whole, pieces);
    }

    #[test]
    fn log_normalize_is_monotone_and_bounded(
        mut values in vec(-1.0e6f32..1.0e6, 2..200),
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let out = lognorm::log_normalize(&values);
        for w in out.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        for (&x, &y) in values.iter().zip(&out) {
            prop_assert!(y >= 0.0);
            prop_assert!(y <= x.max(1.0)); // ln(1+x) <= x for x >= 0
        }
    }

    #[test]
    fn log_normalize_handles_any_float(values in vec(any::<f32>(), 0..100)) {
        for y in lognorm::log_normalize(&values) {
            prop_assert!(y.is_finite());
            prop_assert!(y >= 0.0);
        }
    }

    // ---- scratch / in-place variants bit-match the allocating kernels ----

    #[test]
    fn bucketize_into_matches_apply(
        boundaries in arb_boundaries(),
        values in vec(any::<f32>(), 0..200),
        garbage in vec(any::<i64>(), 0..64),
    ) {
        let b = Bucketizer::new(boundaries).expect("valid");
        let expected: Vec<i64> = values.iter().map(|&v| b.bucket_id(v)).collect();
        prop_assert_eq!(&b.apply(&values), &expected);
        // A dirty, reused buffer must end up bit-identical too.
        let mut out = garbage;
        b.apply_into(&values, &mut out);
        prop_assert_eq!(&out, &expected);
    }

    #[test]
    fn sigridhash_variants_bit_match(
        seed in any::<u64>(),
        max in 1u64..1_000_000,
        ids in vec(any::<i64>(), 0..300),
        garbage in vec(any::<i64>(), 0..64),
    ) {
        let h = SigridHasher::new(seed, max).expect("valid");
        let expected: Vec<i64> = ids.iter().map(|&v| h.hash_one(v)).collect();
        prop_assert_eq!(&h.apply(&ids), &expected);
        let mut out = garbage;
        h.apply_into(&ids, &mut out);
        prop_assert_eq!(&out, &expected);
        let mut in_place = ids.clone();
        h.apply_in_place(&mut in_place);
        prop_assert_eq!(&in_place, &expected);
    }

    #[test]
    fn lognorm_variants_bit_match(
        values in vec(any::<f32>(), 0..=80),
        start in 0usize..=13,
        len in 0usize..=67,
        garbage in vec(any::<f32>(), 0..64),
    ) {
        // An unaligned sub-slice of 0..=67 elements, whole and cut into
        // every chunk size the executor can use: each variant equals the
        // scalar kernel bit for bit.
        let start = start.min(values.len());
        let slice = &values[start..(start + len).min(values.len())];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let expected: Vec<u32> =
            slice.iter().map(|&v| lognorm::log_normalize_one(v).to_bits()).collect();
        prop_assert_eq!(bits(&lognorm::log_normalize(slice)), expected.clone());
        // A dirty, reused buffer must end up bit-identical too.
        let mut piece = garbage;
        for chunk in chunk_sizes(slice.len()) {
            let mut out = Vec::new();
            for part in slice.chunks(chunk) {
                lognorm::log_normalize_into(part, &mut piece);
                out.extend_from_slice(&piece);
            }
            prop_assert!(bits(&out) == expected, "into, chunk {}", chunk);
            let mut in_place = slice.to_vec();
            for part in in_place.chunks_mut(chunk) {
                lognorm::log_normalize_in_place(part);
            }
            prop_assert!(bits(&in_place) == expected, "in place, chunk {}", chunk);
        }
    }
}

/// The accuracy oracle of `LogNorm`: `ln(1 + x)` in `f64`, rounded once.
fn lognorm_oracle(x: f32) -> f32 {
    if x > 0.0 {
        (x as f64).ln_1p() as f32
    } else {
        0.0
    }
}

/// The ids' definition: the number of boundaries `<= v`.
fn bucketize_reference(boundaries: &[f32], v: f32) -> i64 {
    boundaries.partition_point(|&b| b <= v) as i64
}

/// Strictly increasing boundaries of any magnitude and sign: sorted,
/// deduplicated arbitrary finite floats (subnormals and extremes included).
fn arb_wide_boundaries() -> impl Strategy<Value = Vec<f32>> {
    vec(any::<f32>(), 1..300).prop_map(|mut b| {
        b.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        b.dedup_by(|x, y| x <= y);
        b
    })
}

/// Every way the executor can cut a column of `len` elements into chunks:
/// each size from 1 to whole, and the in-storage unit's buffer.
fn chunk_sizes(len: usize) -> impl Iterator<Item = usize> {
    (1..=len + 1).chain([FEATURE_BUFFER_ELEMS])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn log_normalize_is_within_one_ulp_of_f64_ln_1p(values in vec(any::<f32>(), 0..300)) {
        for (&x, y) in values.iter().zip(lognorm::log_normalize(&values)) {
            let want = lognorm_oracle(x);
            let ulp = y.to_bits().abs_diff(want.to_bits());
            prop_assert!(ulp <= 1, "x = {:e}: got {:e}, want {:e} ({} ulp)", x, y, want, ulp);
        }
    }

    #[test]
    fn bucketize_ids_equal_the_reference(
        boundaries in arb_wide_boundaries(),
        values in vec(any::<f32>(), 0..300),
        start in 0usize..=13,
    ) {
        let b = Bucketizer::new(boundaries.clone()).expect("strictly increasing");
        let start = start.min(values.len());
        let slice = &values[start..];
        let expected: Vec<i64> =
            slice.iter().map(|&v| bucketize_reference(&boundaries, v)).collect();
        for (&v, &want) in slice.iter().zip(&expected) {
            prop_assert!(b.bucket_id(v) == want, "bucket_id({:e})", v);
        }
        prop_assert_eq!(&b.apply(slice), &expected);
        // Boundaries themselves and their neighbours, through the lockstep route.
        let edges: Vec<f32> =
            boundaries.iter().flat_map(|&x| [x.next_down(), x, x.next_up()]).collect();
        let want: Vec<i64> = edges.iter().map(|&v| bucketize_reference(&boundaries, v)).collect();
        prop_assert_eq!(b.apply(&edges), want);
        for chunk in [1, 7, 64, 65, FEATURE_BUFFER_ELEMS] {
            let mut out = Vec::new();
            let mut piece = Vec::new();
            for part in slice.chunks(chunk) {
                b.apply_into(part, &mut piece);
                out.extend_from_slice(&piece);
            }
            prop_assert!(out == expected, "chunk {}", chunk);
        }
    }
}
