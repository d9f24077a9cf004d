//! CRC-32 (IEEE 802.3 polynomial, reflected, `0xedb88320`) protecting page
//! payloads and footers. Every Extract path verifies every page it touches
//! through [`crc32`], so this module's throughput bounds decode throughput.
//!
//! # What runs where
//!
//! One value, two routes, chosen inside the private `update` from what the
//! code can observe (target, CPU, input length) — there is no switch:
//!
//! * **Carry-less-multiply folding** (`clmul::fold`, x86_64 with
//!   `pclmulqdq` + `sse4.1`, detected at run time) for inputs of at least
//!   64 bytes, the four 16-byte lanes it starts from. The input is treated
//!   as a polynomial over GF(2): the four 128-bit lanes are folded forward
//!   512 bits at a time over 64-byte blocks (two `PCLMULQDQ` per lane), the
//!   four lanes fold into one, remaining 16-byte blocks fold by 128 bits,
//!   and the final 128 bits reduce 128 → 64 → 32 by one more fold and a
//!   Barrett reduction. ≈ 22 GB/s from a 4 KiB page up on a 2-CPU x86-64
//!   box, where the table route runs at ≈ 1.4 GB/s. To see it on a real
//!   file: `columnar-inspect --verify` prints the GB/s of a whole-file read
//!   (every page checksummed), and `presto-e2e --trace 1` prints the
//!   `columnar.crc.ns_per_kib` ledger line.
//! * **Slicing-by-8 tables** (`update_table`: eight lazily built 256-entry
//!   tables, 8 input bytes per iteration) for inputs shorter than 64 bytes
//!   (`crc32(&[])` of an empty payload, tiny pages), for the < 16-byte tail
//!   the folded kernel leaves, and for every non-x86_64 target or CPU
//!   without the two features.
//!
//! Both routes take and return the same pre-inversion state, so
//! [`Crc32::update`] stays incremental across any split and every stored
//! checksum keeps its value: this is a faster route to the same number, not
//! a format change.
//!
//! There is deliberately no third route. A `VPCLMULQDQ`/AVX-512 kernel would
//! fold four times as much per instruction, but after the 128-bit kernel
//! the checksum is under a tenth of Extract on the most checksum-bound
//! workload, which cannot pay for another code path; an aarch64 `PMULL`
//! kernel could be neither compiled nor run where this crate is tested, so
//! aarch64 takes the table path.
//!
//! # Constants
//!
//! From Gopal, Ozturk, Guilford, et al. (Intel, 2009), *Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction*, for the
//! bit-reflected polynomial: each fold constant is `x^n mod P(x)`,
//! bit-reflected and shifted left once (the shift cancels the extra bit a
//! reflected carry-less product gains). `K1`/`K2` are `n = 4·128 ± 32`
//! (fold by 512 bits), `K3`/`K4` are `n = 128 ± 32` (fold by 128), `K5` is
//! `n = 64`; `P_X` is the reflected 33-bit polynomial and `MU` the
//! reflected `⌊x^64 / P(x)⌋` of the Barrett step. The module's tests
//! compare the folded route with the bytewise textbook loop over every
//! length and alignment around the thresholds; that comparison, not this
//! paragraph, is the proof the constants are right.

/// Computes the CRC-32 of `data` (IEEE polynomial, reflected, init `!0`).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0u32, data)
}

/// Incremental CRC-32 hasher for multi-part payloads.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the checksum.
    #[must_use]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Advances `crc` (internal, pre-inversion state) over `data`.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: `fold` requires the `pclmulqdq` and `sse4.1` CPU features
        // (both detected just above; `sse2` is part of the x86_64 baseline)
        // and at least four blocks (`data.len() >= 64`).
        let crc = unsafe { clmul::fold(crc, blocks) };
        return update_table(crc, tail);
    }
    update_table(crc, data)
}

/// The folded route: see the module docs.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`fold`] takes: the four 16-byte lanes it starts from.
    pub(super) const MIN_LEN: usize = 64;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Advances the pre-inversion state `crc` over `blocks`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    ///
    /// # Panics
    ///
    /// When `blocks` has fewer than four elements.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let load = |block: &[u8; 16]| {
            // SAFETY: `block` is 16 readable bytes by its type, and
            // `_mm_loadu_si128` has no alignment requirement.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        };
        // `lane · x^n  ⊕  next`, with `keys` = (x^(n+32), x^(n-32)) mod P.
        let fold_into = |lane: __m128i, next: __m128i, keys: __m128i| {
            let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
            let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(next, lo), hi)
        };
        let low32 = _mm_set_epi32(0, 0, 0, !0);

        let (head, mut blocks) = blocks.split_at(4);
        // The running state joins the message as its first 32 bits.
        let mut x0 = _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(crc as i32));
        let (mut x1, mut x2, mut x3) = (load(&head[1]), load(&head[2]), load(&head[3]));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while let Some((four, rest)) = blocks.split_first_chunk::<4>() {
            x0 = fold_into(x0, load(&four[0]), k1k2);
            x1 = fold_into(x1, load(&four[1]), k1k2);
            x2 = fold_into(x2, load(&four[2]), k1k2);
            x3 = fold_into(x3, load(&four[3]), k1k2);
            blocks = rest;
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        for block in blocks {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 → 64 bits: fold the low half over the high half, then the low
        // 32 bits of that over the rest.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // 64 → 32 bits, Barrett: T1 = (x mod x^32)·µ, T2 = (T1 mod x^32)·P,
        // and the state is bits 32..64 of x ⊕ T2.
        let p_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

/// The table route (slicing-by-8): see the module docs.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let tables = tables();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the current state into the first four bytes, then look all
        // eight bytes up in parallel tables — one XOR tree per 8 bytes
        // instead of eight dependent table lookups.
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        crc = tables[7][(lo & 0xff) as usize]
            ^ tables[6][((lo >> 8) & 0xff) as usize]
            ^ tables[5][((lo >> 16) & 0xff) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xff) as usize]
            ^ tables[2][((hi >> 8) & 0xff) as usize]
            ^ tables[1][((hi >> 16) & 0xff) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        let idx = ((crc ^ u32::from(byte)) & 0xff) as usize;
        crc = (crc >> 8) ^ tables[0][idx];
    }
    crc
}

fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        for t in 1..8 {
            for i in 0..256usize {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            }
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello columnar world";
        let mut h = Crc32::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    /// The textbook loop, one bit at a time, on the pre-inversion state.
    fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            }
        }
        crc
    }

    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_path_matches_bytewise_reference() {
        // Every length from 0 to 64 covers all remainder cases around the
        // table route's 8-byte chunking.
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for len in 0..=data.len() {
            let expect = bytewise(!0, &data[..len]);
            assert_eq!(update_table(!0, &data[..len]), expect, "len {len}");
            assert_eq!(crc32(&data[..len]), !expect, "len {len}");
        }
    }

    #[test]
    fn routes_agree_at_every_length_alignment_and_state() {
        // Dispatching `update` (folded where the CPU allows) vs the table
        // route called directly vs the textbook loop: every length through
        // several fold-by-4 blocks plus every remainder, at every start
        // alignment of a 16-byte lane, from the default and two arbitrary
        // running states.
        let data = pseudo_random(1100 + 16);
        for init in [!0u32, 0, 0x1234_5678] {
            for start in 0..16 {
                let mut expect = init;
                for len in 0..=1100 {
                    let slice = &data[start..start + len];
                    assert_eq!(
                        update(init, slice),
                        expect,
                        "init {init:#x} start {start} len {len}"
                    );
                    assert_eq!(update_table(init, slice), expect, "table, start {start} len {len}");
                    expect = bytewise(expect, &data[start + len..=start + len]);
                }
            }
        }
    }

    #[test]
    fn one_mebibyte_buffer_matches_both_references() {
        // Long enough that a wrong fold-by-4 constant cannot hide, and
        // neither lane-aligned nor a whole number of 16-byte blocks.
        let data = pseudo_random((1 << 20) + 3 + 5);
        let slice = &data[3..];
        let expect = bytewise(!0, slice);
        assert_eq!(update_table(!0, slice), expect);
        assert_eq!(crc32(slice), !expect);
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(&[0]), crc32(&[0, 0]));
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Crc32::default().finalize(), Crc32::new().finalize());
    }
}
