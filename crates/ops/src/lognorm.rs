//! Log — dense feature normalization.
//!
//! TorchArrow's dense normalization for count-like features, compressing
//! heavy-tailed counts into a training-friendly range:
//!
//! * `y = ln(1 + x)` for `x > 0` (`+∞` stays `+∞`);
//! * `y = +0.0` for NaN (missing-value semantics), `±0` and every negative
//!   `x`, `-∞` included.
//!
//! # The definition is this file's `ln_1p`, not libm's
//!
//! [`log_normalize_one`] *is* the definition of `LogNorm`, and every batch
//! variant here — and the executor's chunked in-storage route — applies
//! that one scalar kernel elementwise. It is the musl / FreeBSD `log1pf`
//! scheme written with IEEE basic operations (`+ − × ÷`, each correctly
//! rounded; Rust never contracts them into FMAs) and bit manipulation only:
//!
//! 1. `u = 1 + x`; exponent surgery on `u`'s bits gives `k` and
//!    `f = u·2⁻ᵏ − 1` with `1 + f ∈ [√½, √2)`;
//! 2. a correction `c = (x − (u − 1)) / u` (or `(1 − (u − x)) / u` once
//!    `k ≥ 2`, and `0` once `1` is absorbed at `k ≥ 25`) recovers what
//!    rounding `1 + x` lost;
//! 3. `ln(1 + f) = 2·atanh(s)`, `s = f / (2 + f)`, by a degree-8 even
//!    polynomial in `s`; `k·ln 2` is added in a hi/lo split;
//! 4. below `1 + x < √2` the reduction is skipped (`k = 0`, `f = x`,
//!    `c = 0`), which keeps full precision for tiny `x`.
//!
//! Every case — the small-`x` reduction, the correction's two forms, the
//! absorbed-one limit, `+∞`, NaN and negatives — is computed and then
//! *selected*, never branched on, so the batch loops are straight-line code
//! that LLVM vectorises for the baseline `x86-64` target (SSE2, four lanes)
//! with no `unsafe`, intrinsics or runtime CPU dispatch. Lane width and
//! chunking cannot change a bit: each lane runs the same scalar operations.
//!
//! Accuracy, measured exhaustively over all 2,139,095,041 bit patterns in
//! `[0, +∞]`: at most **1 ULP** from `(x as f64).ln_1p() as f32`, the same
//! bound glibc 2.36's `log1pf` meets. The two disagree on 352,194 of those
//! inputs. `f32::ln_1p` is not used because it forwards to the platform
//! libm, whose last bit changes with the libm version and target — so
//! output fingerprints pinned against it were not portable. The contract is
//! pinned by a strided sweep and a golden bit table (tier 1) and by the
//! `#[ignore]`d exhaustive test CI runs in release.

/// `ln 2` split so that `k·LN2_HI` is exact for `|k| ≤ 128`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// musl's minimax coefficients of `(ln(1+s) − ln(1−s))/s − 2` in `s²`.
const LG1: f32 = f32::from_bits(0x3f2a_aaaa);
const LG2: f32 = f32::from_bits(0x3ecc_ce13);
const LG3: f32 = f32::from_bits(0x3e91_e9ee);
const LG4: f32 = f32::from_bits(0x3e78_9e26);
/// Bits of `√½`: adding `1.0 − √½` to `u`'s bits makes the exponent field
/// round at `√2` instead of at `2`.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
/// `√2 − 1` rounded up: below it, `1 + x < √2` needs no reduction.
const SQRT2_MINUS_ONE: f32 = f32::from_bits(0x3ed4_13d0);

/// Normalizes one dense value: the definition of `LogNorm`.
#[must_use]
#[inline]
pub fn log_normalize_one(value: f32) -> f32 {
    // NaN compares false, so NaN, ±0 and negatives all become +0.
    let x = if value > 0.0 { value } else { 0.0 };
    let u = 1.0 + x;
    let iu = u.to_bits() + (1.0f32.to_bits() - SQRT_HALF_BITS);
    let k = (iu >> 23) as i32 - 0x7f;
    let c = (if k >= 2 { 1.0 - (u - x) } else { x - (u - 1.0) }) / u;
    let c = if k < 25 { c } else { 0.0 };
    let f = f32::from_bits((iu & 0x007f_ffff) + SQRT_HALF_BITS) - 1.0;

    let small = x < SQRT2_MINUS_ONE;
    let f = if small { x } else { f };
    let c = if small { 0.0 } else { c };
    let dk = if small { 0.0 } else { k as f32 };

    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG1 + w * LG3) + w * (LG2 + w * LG4);
    let hfsq = 0.5 * f * f;
    let y = s * (hfsq + r) + (dk * LN2_LO + c) - hfsq + f + dk * LN2_HI;
    if x == f32::INFINITY {
        x
    } else {
        y
    }
}

/// Normalizes a dense column.
#[must_use]
pub fn log_normalize(values: &[f32]) -> Vec<f32> {
    values.iter().map(|&v| log_normalize_one(v)).collect()
}

/// Normalizes a dense column in place.
pub fn log_normalize_in_place(values: &mut [f32]) {
    for v in values {
        *v = log_normalize_one(*v);
    }
}

/// Normalizes into a caller-provided buffer, reusing its capacity.
pub fn log_normalize_into(values: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(values.iter().map(|&v| log_normalize_one(v)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accuracy oracle: `ln(1 + x)` in `f64`, rounded once to `f32`,
    /// under the same NaN / non-positive semantics.
    fn oracle(x: f32) -> f32 {
        if x > 0.0 {
            (x as f64).ln_1p() as f32
        } else {
            0.0
        }
    }

    /// Distance in ULPs between two non-negative results (`+∞` included).
    fn ulps(got: f32, want: f32) -> u32 {
        got.to_bits().abs_diff(want.to_bits())
    }

    fn assert_within_one_ulp(bits: u32) {
        let x = f32::from_bits(bits);
        let (got, want) = (log_normalize_one(x), oracle(x));
        assert!(
            got.is_sign_positive() && ulps(got, want) <= 1,
            "x = {x:e} ({bits:#010x}): got {got:e} ({:#010x}), want {want:e} ({:#010x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn known_values() {
        assert_eq!(log_normalize_one(0.0), 0.0);
        assert!((log_normalize_one(1.0) - std::f32::consts::LN_2).abs() < 1e-7);
        assert!((log_normalize_one(std::f32::consts::E - 1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negatives_clamp_to_zero() {
        assert_eq!(log_normalize_one(-5.0), 0.0);
        assert_eq!(log_normalize_one(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn nan_becomes_zero() {
        assert_eq!(log_normalize_one(f32::NAN), 0.0);
    }

    #[test]
    fn output_is_monotone_nondecreasing() {
        let mut prev = f32::NEG_INFINITY;
        for i in 0..10_000 {
            let y = log_normalize_one(i as f32 * 7.3);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn large_values_stay_finite() {
        assert!(log_normalize_one(f32::MAX).is_finite());
        assert!(log_normalize_one(1e30).is_finite());
    }

    #[test]
    fn batch_variants_agree() {
        let values: Vec<f32> = (-100..100).map(|i| i as f32 * 1.5).collect();
        let expected = log_normalize(&values);
        let mut in_place = values.clone();
        log_normalize_in_place(&mut in_place);
        assert_eq!(in_place, expected);
        let mut buf = Vec::new();
        log_normalize_into(&values, &mut buf);
        assert_eq!(buf, expected);
    }

    /// Tier 1 of the accuracy contract: every 2039th bit pattern of
    /// `[0, +∞]` (about a million inputs, all binades) plus the specials.
    #[test]
    fn strided_sweep_is_within_one_ulp_of_f64_oracle() {
        for bits in (0..=f32::INFINITY.to_bits()).step_by(2039) {
            assert_within_one_ulp(bits);
        }
        let specials = [
            0x0000_0000, // +0
            0x0000_0001, // smallest subnormal
            0x0040_0000,
            0x007f_ffff, // largest subnormal
            0x0080_0000, // MIN_POSITIVE
            0x3380_0000, // 2^-24: below it ln(1+x) rounds to x
            0x3ed4_13cf, // either side of the √2 − 1 reduction threshold
            0x3ed4_13d0,
            0x3ed4_13d1,
            0x4c00_0000, // 2^25: 1 is absorbed from here on
            0x7f7f_ffff, // f32::MAX
            0x7f80_0000, // +∞
        ];
        for bits in specials {
            assert_within_one_ulp(bits);
        }
        assert_eq!(log_normalize_one(f32::INFINITY), f32::INFINITY);
        // Everything that is not a positive number normalizes to +0.
        let zeros = [
            -0.0,
            -f32::from_bits(1),
            -f32::MIN_POSITIVE,
            -0.5,
            -1.0,
            -2.0,
            f32::MIN,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling payload
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(0xffc0_1234),
            f32::from_bits(0xffff_ffff),
        ];
        for x in zeros {
            assert_eq!(log_normalize_one(x).to_bits(), 0, "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    /// Every bit pattern of `[0, +∞]`. About 45 s in release on two cores;
    /// CI runs it with `--release -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 2^31 inputs, run in release"]
    fn exhaustive_within_one_ulp_of_f64_oracle() {
        let end = f32::INFINITY.to_bits();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let worst = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        (t..=end)
                            .step_by(threads as usize)
                            .map(|bits| {
                                let x = f32::from_bits(bits);
                                (ulps(log_normalize_one(x), oracle(x)), bits)
                            })
                            .max()
                            .unwrap_or((0, 0))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).max().expect("one worker")
        });
        assert!(worst.0 <= 1, "{} ulp at {:#010x}", worst.0, worst.1);
    }

    /// Input bits → output bits, pinned: a compiler, target or refactoring
    /// that moves one output bit fails here before it moves a fingerprint.
    #[test]
    fn golden_bits_are_pinned() {
        const GOLDEN: [(u32, u32); 78] = [
            (0x0000_0000, 0x0000_0000), // 0e0
            (0x0000_0001, 0x0000_0001), // 1e-45
            (0x0000_0400, 0x0000_0400), // 1.435e-42
            (0x007f_ffff, 0x007f_ffff), // 1.1754942e-38
            (0x0080_0000, 0x0080_0000), // 1.1754944e-38
            (0x0b5a_1c3e, 0x0b5a_1c3e), // 4.200652e-32
            (0x1e3c_e508, 0x1e3c_e508), // 1e-20
            (0x2f80_0000, 0x2f80_0000), // 2.3283064e-10
            (0x3380_0000, 0x3380_0000), // 5.9604645e-8
            (0x3380_0001, 0x3380_0001), // 5.960465e-8
            (0x34ca_62c4, 0x34ca_62c2), // 3.7697293e-7
            (0x3587_c3b9, 0x3587_c3b4), // 1.0115247e-6
            (0x3727_c5ac, 0x3727_c575), // 1e-5
            (0x38d1_b717, 0x38d1_b468), // 1e-4
            (0x3a83_126f, 0x3a83_01ab), // 1e-3
            (0x3c23_d70a, 0x3c23_06b6), // 1e-2
            (0x3d4c_cccd, 0x3d47_d832), // 5e-2
            (0x3e00_0000, 0x3df1_383b), // 1.25e-1
            (0x3e80_0000, 0x3e64_7fbe), // 2.5e-1
            (0x3ed4_13cf, 0x3eb1_721a), // 4.1421363e-1
            (0x3ed4_13d0, 0x3eb1_721a), // 4.1421366e-1
            (0x3ed4_13d1, 0x3eb1_721b), // 4.142137e-1
            (0x3f00_0000, 0x3ecf_991f), // 5e-1
            (0x3f35_04f3, 0x3f08_e8a7), // 7.0710677e-1
            (0x3f40_0000, 0x3f0f_42fb), // 7.5e-1
            (0x3f80_0000, 0x3f31_7218), // 1e0
            (0x3fa0_0000, 0x3f4f_991f), // 1.25e0
            (0x3fc0_0000, 0x3f6a_9208), // 1.5e0
            (0x3fdb_f0a9, 0x3f80_0000), // 1.7182819e0
            (0x4000_0000, 0x3f8c_9f54), // 2e0
            (0x4040_0000, 0x3fb1_7218), // 3e0
            (0x4049_0fdb, 0x3fb5_e5f7), // 3.1415927e0
            (0x4080_0000, 0x3fce_0210), // 4e0
            (0x40e0_0000, 0x4005_1592), // 7e0
            (0x4120_0000, 0x4019_771e), // 1e1
            (0x4170_0000, 0x4031_7218), // 1.5e1
            (0x41c8_0000, 0x4050_84a7), // 2.5e1
            (0x4248_0000, 0x407b_a308), // 5e1
            (0x42c8_0000, 0x4093_af11), // 1e2
            (0x4348_0000, 0x40a9_b4ac), // 2e2
            (0x447a_0000, 0x40dd_1485), // 1e3
            (0x4500_0000, 0x40f4_00e1), // 2.048e3
            (0x461c_4000, 0x4113_5df7), // 1e4
            (0x4700_0000, 0x4126_5b16), // 3.2768e4
            (0x47c3_5000, 0x4138_34fc), // 1e5
            (0x4800_0000, 0x413c_8941), // 1.31072e5
            (0x48c3_5000, 0x414e_6337), // 4e5
            (0x4974_2400, 0x415d_0c56), // 1e6
            (0x4a00_0000, 0x4168_e5c0), // 2.097152e6
            (0x4b00_0000, 0x417f_1403), // 8.388608e6
            (0x4b7f_ffff, 0x4185_1592), // 1.6777215e7
            (0x4b80_0000, 0x4185_1592), // 1.6777216e7
            (0x4bff_ffff, 0x418a_a123), // 3.355443e7
            (0x4c00_0000, 0x418a_a123), // 3.3554432e7
            (0x4c00_0001, 0x418a_a123), // 3.3554436e7
            (0x4e6e_6b28, 0x41a5_c940), // 1e9
            (0x5f80_0000, 0x4231_7218), // 1.8446744e19
            (0x7149_f2ca, 0x428a_27b5), // 1e30
            (0x7e80_0000, 0x42ae_ac50), // 8.507059e37
            (0x7f7f_ffff, 0x42b1_7218), // 3.4028235e38
            (0x7f80_0000, 0x7f80_0000), // inf
            (0x3dcc_cccd, 0x3dc3_31fc), // 1e-1
            (0x3e99_999a, 0x3e86_549c), // 3e-1
            (0x3f33_3333, 0x3f07_d741), // 7e-1
            (0x3fd9_999a, 0x3f7e_45c0), // 1.7e0
            (0x4148_0000, 0x4026_9278), // 1.25e1
            (0x4205_3333, 0x4062_3fd2), // 3.33e1
            (0x4389_b333, 0x40b3_e630), // 2.754e2
            (0x45ff_ff33, 0x4110_2d27), // 8.1919e3
            (0x477f_ff00, 0x4131_7218), // 6.5535e4
            (0x47f1_2065, 0x413b_9417), // 1.2345679e5
            (0x4974_23ff, 0x415d_0c56), // 9.9999994e5
            (0x3c01_a62f, 0x3c01_238d), // 7.913156e-3 (glibc's log1pf differs)
            (0x3d24_f2ed, 0x3d21_b6d4), // 4.0270735e-2 (glibc's log1pf differs)
            (0x3e48_38bf, 0x3e36_dff8), // 1.9552897e-1 (glibc's log1pf differs)
            (0x3f6b_d9b2, 0x3f27_2ad2), // 9.212905e-1 (glibc's log1pf differs)
            (0x408f_233d, 0x3fd9_943c), // 4.4730515e0 (glibc's log1pf differs)
            (0x41b2_6b9f, 0x4049_820e), // 2.230255e1 (glibc's log1pf differs)
        ];
        assert!(GOLDEN.len() >= 64);
        for (input, output) in GOLDEN {
            let got = log_normalize_one(f32::from_bits(input)).to_bits();
            assert_eq!(got, output, "input {input:#010x}: got {got:#010x}, pinned {output:#010x}");
        }
    }
}
