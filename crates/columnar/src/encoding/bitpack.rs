//! Fixed-width bit packing for unsigned integers.
//!
//! Packs each value into exactly `bit_width` bits, LSB-first within bytes —
//! the same layout Parquet's RLE/bit-packing hybrid uses. A `bit_width` of 0
//! encodes a run of zeros in zero bytes.
//!
//! Every packed stream in the crate decodes through one kernel,
//! [`unpack_group`]: block ids (full and ranged, [`super::block`]) and the
//! RLE literal runs behind list lengths ([`super::rle`], via
//! [`unpack_into`]). It works on groups of [`GROUP`] = 64 values, which at
//! width `W` take exactly `8 × W` bytes; each group is eight byte-aligned
//! sub-groups of eight values in `W` bytes each. The kernel dispatches on
//! the width once per group to a copy specialized for it, where each value
//! is one unaligned little-endian word load at a constant offset, a
//! constant shift and a mask — no per-value width arithmetic, and no
//! separate path for a stream's partial last group.

use crate::error::{ColumnarError, Result};

/// Smallest bit width able to represent `max_value`.
///
/// Zero maps to width 0 (all values are zero and occupy no bits).
#[must_use]
pub fn width_for(max_value: u64) -> u32 {
    64 - max_value.leading_zeros()
}

/// Packs `values` at `bit_width` bits each, appending to `out`.
///
/// Full 64-value groups take the word-based kernel ([`pack_group`]), the
/// encode-side mirror of [`unpack_group`]: every full group spans exactly
/// `8 × bit_width` bytes, so it assembles whole `u64` words with two
/// branch-free shifts per value instead of feeding a bit accumulator one
/// value at a time. Only the trailing partial group falls back to the
/// accumulator — and since full groups always end word-aligned, the byte
/// stream is identical to the historical value-at-a-time encoder.
///
/// # Errors
///
/// Returns [`ColumnarError::ValueOutOfRange`] if any value needs more than
/// `bit_width` bits, or if `bit_width > 64`.
pub fn pack(values: &[u64], bit_width: u32, out: &mut Vec<u8>) -> Result<()> {
    if bit_width > 64 {
        return Err(ColumnarError::ValueOutOfRange {
            detail: format!("bit width {bit_width} exceeds 64"),
        });
    }
    if bit_width == 0 {
        if let Some(bad) = values.iter().find(|&&v| v != 0) {
            return Err(ColumnarError::ValueOutOfRange {
                detail: format!("value {bad} does not fit in 0 bits"),
            });
        }
        return Ok(());
    }
    let mask = if bit_width == 64 { u64::MAX } else { (1u64 << bit_width) - 1 };
    let mut chunks = values.chunks_exact(GROUP);
    for chunk in &mut chunks {
        if let Some(&bad) = chunk.iter().find(|&&v| v & !mask != 0) {
            return Err(ColumnarError::ValueOutOfRange {
                detail: format!("value {bad} does not fit in {bit_width} bits"),
            });
        }
        let group: &[u64; GROUP] = chunk.try_into().expect("exact chunk of GROUP");
        pack_group(group, bit_width, out);
    }
    pack_tail(chunks.remainder(), bit_width, mask, out)
}

/// Packs one full group of [`GROUP`] values at `bit_width` bits
/// (`1 <= bit_width <= 64`), appending exactly `8 × bit_width` bytes.
///
/// The mirror of [`unpack_group`]: each value lands in at most two adjacent
/// `u64` words via branch-free shifts — the `(v >> 1) >> (63 - shift)` form
/// keeps the high-word contribution defined (and zero) when `shift == 0`.
/// Values must already fit in `bit_width` bits (callers validate; extra
/// bits would corrupt neighboring values).
pub fn pack_group(values: &[u64; GROUP], bit_width: u32, out: &mut Vec<u8>) {
    debug_assert!((1..=64).contains(&bit_width));
    let width = bit_width as usize;
    // One padding word so the `idx + 1` store below never branches; a full
    // group ends exactly at a word boundary, so it stays zero.
    let mut words = [0u64; 65];
    let mut bit = 0usize;
    for &v in values {
        let idx = bit >> 6;
        let shift = (bit & 63) as u32;
        words[idx] |= v << shift;
        words[idx + 1] |= (v >> 1) >> (63 - shift);
        bit += width;
    }
    debug_assert_eq!(words[width], 0, "masked values cannot spill past the group");
    for w in &words[..width] {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Value-at-a-time accumulator for the trailing partial group (fewer than
/// [`GROUP`] values). `mask` must match `bit_width`.
fn pack_tail(values: &[u64], bit_width: u32, mask: u64, out: &mut Vec<u8>) -> Result<()> {
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for &v in values {
        if v & !mask != 0 {
            return Err(ColumnarError::ValueOutOfRange {
                detail: format!("value {v} does not fit in {bit_width} bits"),
            });
        }
        let mut remaining = bit_width;
        let mut chunk = v;
        while remaining > 0 {
            let take = remaining.min(64 - acc_bits);
            let take_mask = if take == 64 { u64::MAX } else { (1u64 << take) - 1 };
            // take == 64 implies acc_bits == 0, so the shift below is by 0.
            acc |= (chunk & take_mask) << acc_bits;
            acc_bits += take;
            chunk = if take == 64 { 0 } else { chunk >> take };
            remaining -= take;
            if acc_bits == 64 {
                out.extend_from_slice(&acc.to_le_bytes());
                acc = 0;
                acc_bits = 0;
            }
        }
    }
    if acc_bits > 0 {
        let bytes = (acc_bits as usize).div_ceil(8);
        out.extend_from_slice(&acc.to_le_bytes()[..bytes]);
    }
    Ok(())
}

/// Unpacks `count` values of `bit_width` bits each from `buf` starting at
/// `*pos`, advancing `*pos` past the consumed bytes.
///
/// # Errors
///
/// Returns [`ColumnarError::UnexpectedEof`] when the buffer is too short and
/// [`ColumnarError::ValueOutOfRange`] for widths above 64.
pub fn unpack(buf: &[u8], pos: &mut usize, count: usize, bit_width: u32) -> Result<Vec<u64>> {
    let mut values = Vec::new();
    unpack_into(buf, pos, count, bit_width, &mut values)?;
    Ok(values)
}

/// Values per unpack group: 64 values of `w` bits occupy exactly `8 * w`
/// bytes, so every full group starts byte-aligned.
pub const GROUP: usize = 64;

/// Like [`unpack`], appending to a caller-owned buffer instead of
/// allocating.
///
/// Every group, the tail included, goes through [`unpack_group`]. The
/// reservation is `count`, which the length check bounds by the input (a
/// zero-width run carries no payload: its count is bounded by the caller,
/// whose run headers and block counts are validated against the declared
/// element count before this is reached).
///
/// # Errors
///
/// Same as [`unpack`].
pub fn unpack_into(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    bit_width: u32,
    out: &mut Vec<u64>,
) -> Result<()> {
    if bit_width > 64 {
        return Err(ColumnarError::ValueOutOfRange {
            detail: format!("bit width {bit_width} exceeds 64"),
        });
    }
    let end = usize::try_from((count as u128 * u128::from(bit_width)).div_ceil(8))
        .ok()
        .and_then(|need| pos.checked_add(need))
        .filter(|&e| e <= buf.len())
        .ok_or(ColumnarError::UnexpectedEof { context: "bitpacked run" })?;
    let data = &buf[*pos..end];
    *pos = end;
    out.reserve(count);
    for_each_group(data, count, bit_width, |values| out.extend_from_slice(values));
    Ok(())
}

/// Unpacks `count` values of `bit_width` bits (`0..=64`) from `data`
/// (`packed_len(count, bit_width)` bytes), handing them to `each` one group
/// of up to [`GROUP`] at a time: every group but the last holds exactly
/// [`GROUP`].
pub(crate) fn for_each_group(
    data: &[u8],
    count: usize,
    bit_width: u32,
    mut each: impl FnMut(&[u64]),
) {
    let group_bytes = 8 * bit_width as usize;
    let mut values = [0u64; GROUP];
    let mut done = 0;
    while done < count {
        let start = done / GROUP * group_bytes;
        unpack_group(&data[start..data.len().min(start + group_bytes)], bit_width, &mut values);
        let take = (count - done).min(GROUP);
        each(&values[..take]);
        done += take;
    }
}

/// Unpacks one group of [`GROUP`] values at `bit_width` bits (`0..=64`)
/// from `bytes` into `out`: `8 × bit_width` bytes for a full group, fewer
/// for a stream's tail, whose missing values come out as zeros.
///
/// Dispatches on the width once, to a kernel specialized for it
/// (`unpack_width`). A full group is read in place; a tail is first copied
/// into a zero-padded stack group, so both take the same kernel.
///
/// # Panics
///
/// If `bit_width > 64` (every caller has rejected such a width already).
pub fn unpack_group(bytes: &[u8], bit_width: u32, out: &mut [u64; GROUP]) {
    let full = 8 * bit_width as usize;
    if bytes.len() < full {
        let mut staged = [0u8; 8 * 64];
        staged[..bytes.len()].copy_from_slice(bytes);
        return unpack_group(&staged[..full], bit_width, out);
    }
    macro_rules! by_width {
        ($($w:literal)*) => {
            match bit_width {
                0 => out.fill(0),
                $($w => unpack_width::<$w>(&bytes[..full], out),)*
                _ => unreachable!("bit width {bit_width} exceeds 64"),
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
        64);
}

/// The group kernel at width `W` (`1..=64`) over a full group's `8 × W`
/// bytes. Eight values of `W` bits take exactly `W` bytes, so the group is
/// eight byte-aligned sub-groups of eight, and value `k` starts at byte
/// `k·W / 8`, bit `k·W % 8` — constants once the loops unroll. Each value
/// is one unaligned little-endian load (`u64`, or `u128` where the value
/// ends past the eighth byte: only `W > 57`), one constant shift and one
/// mask. A load that would run past the group ends at its last byte
/// instead, with the shift grown to match.
fn unpack_width<const W: usize>(group: &[u8], out: &mut [u64; GROUP]) {
    let group = &group[..8 * W];
    let mask = ((1u128 << W) - 1) as u64;
    for j in 0..8 {
        for i in 0..8 {
            let bit = (8 * j + i) * W;
            let wide = bit % 8 + W > 64;
            let at = (bit / 8).min(8 * W - if wide { 16 } else { 8 });
            let shift = bit - 8 * at;
            let word = if wide {
                (u128::from_le_bytes(group[at..at + 16].try_into().expect("16 bytes")) >> shift)
                    as u64
            } else {
                u64::from_le_bytes(group[at..at + 8].try_into().expect("8 bytes")) >> shift
            };
            out[8 * j + i] = word & mask;
        }
    }
}

/// Number of bytes `count` values occupy at `bit_width` bits.
#[must_use]
pub fn packed_len(count: usize, bit_width: u32) -> usize {
    (count as u64 * u64::from(bit_width)).div_ceil(8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u32) {
        let mut buf = Vec::new();
        pack(values, width, &mut buf).unwrap();
        assert_eq!(buf.len(), packed_len(values.len(), width));
        let mut pos = 0;
        let back = unpack(&buf, &mut pos, values.len(), width).unwrap();
        assert_eq!(back, values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn width_for_boundaries() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_small_widths() {
        roundtrip(&[0, 1, 1, 0, 1, 0, 0, 1, 1], 1);
        roundtrip(&[3, 0, 2, 1, 3, 3], 2);
        roundtrip(&[7, 6, 5, 4, 3, 2, 1, 0], 3);
    }

    #[test]
    fn roundtrip_byte_spanning_widths() {
        roundtrip(&[100, 200, 255, 0, 17], 8);
        roundtrip(&[1000, 0, 511, 512], 10);
        roundtrip(&[123_456, 1, 0, 999_999], 20);
    }

    #[test]
    fn roundtrip_full_width() {
        roundtrip(&[u64::MAX, 0, 42, u64::MAX - 1], 64);
    }

    #[test]
    fn zero_width_encodes_zeros_for_free() {
        let mut buf = Vec::new();
        pack(&[0, 0, 0], 0, &mut buf).unwrap();
        assert!(buf.is_empty());
        let mut pos = 0;
        assert_eq!(unpack(&buf, &mut pos, 3, 0).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn zero_width_rejects_nonzero() {
        let mut buf = Vec::new();
        assert!(pack(&[1], 0, &mut buf).is_err());
    }

    #[test]
    fn overflow_value_rejected() {
        let mut buf = Vec::new();
        assert!(pack(&[8], 3, &mut buf).is_err());
    }

    #[test]
    fn short_buffer_detected() {
        let mut buf = Vec::new();
        pack(&[5, 6, 7], 3, &mut buf).unwrap();
        buf.pop();
        let mut pos = 0;
        assert!(matches!(unpack(&buf, &mut pos, 3, 3), Err(ColumnarError::UnexpectedEof { .. })));
    }

    #[test]
    fn width_above_64_rejected() {
        let mut buf = Vec::new();
        assert!(pack(&[1], 65, &mut buf).is_err());
        let mut pos = 0;
        assert!(unpack(&[], &mut pos, 0, 65).is_err());
    }

    #[test]
    fn empty_input_is_fine() {
        roundtrip(&[], 7);
    }

    #[test]
    fn group_kernel_matches_scalar_reads_at_every_width() {
        // 3 full groups + a partial tail per width: the kernel reads full
        // groups in place and the tail from a padded copy, and both must
        // round-trip bit for bit.
        for width in 1..=64u32 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let mut x = 0x0123_4567_89ab_cdefu64 ^ u64::from(width);
            let values: Vec<u64> = (0..3 * GROUP + 17)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & mask
                })
                .collect();
            roundtrip(&values, width);
        }
    }

    #[test]
    fn unpack_into_appends_after_existing_values() {
        let mut buf = Vec::new();
        pack(&[5, 6, 7], 3, &mut buf).unwrap();
        let mut out = vec![99u64];
        let mut pos = 0;
        unpack_into(&buf, &mut pos, 3, 3, &mut out).unwrap();
        assert_eq!(out, vec![99, 5, 6, 7]);
    }

    /// The historical value-at-a-time encoder, kept as the byte-exactness
    /// reference for the word-based group packer.
    fn pack_reference(values: &[u64], bit_width: u32) -> Vec<u8> {
        let mask = if bit_width == 64 { u64::MAX } else { (1u64 << bit_width) - 1 };
        let mut out = Vec::new();
        pack_tail(values, bit_width, mask, &mut out).unwrap();
        out
    }

    #[test]
    fn group_packer_is_byte_identical_to_scalar_accumulator() {
        // The format must not move under the encode-side kernel: 2 full
        // groups + a tail, every width, byte-for-byte equal to the
        // historical accumulator.
        for width in 1..=64u32 {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let mut x = 0xdead_beef_cafe_f00du64 ^ u64::from(width).rotate_left(17);
            let values: Vec<u64> = (0..2 * GROUP + 23)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & mask
                })
                .collect();
            let mut grouped = Vec::new();
            pack(&values, width, &mut grouped).unwrap();
            assert_eq!(grouped, pack_reference(&values, width), "width {width}");
        }
    }

    #[test]
    fn group_packer_rejects_overflow_inside_a_full_group() {
        let mut values = vec![0u64; GROUP];
        values[GROUP / 2] = 8; // needs 4 bits
        let mut buf = Vec::new();
        let err = pack(&values, 3, &mut buf).unwrap_err();
        assert!(matches!(err, ColumnarError::ValueOutOfRange { .. }));
    }

    #[test]
    fn group_sized_runs_are_byte_aligned() {
        for width in [1u32, 7, 20, 33, 64] {
            assert_eq!(packed_len(GROUP, width), 8 * width as usize);
        }
    }
}
