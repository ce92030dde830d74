//! Per-tier bit-identity parity suite for the data-plane kernels.
//!
//! The GEMM parity suite tolerates small numeric drift between tiers; this
//! one does not. Data-plane kernels (scale scan, deterministic level
//! quantization, wire bit-packing, packed dequantization, AXPY, fused
//! dequantize-accumulate) are contracted to produce the *same bits* on
//! every tier, which is what lets the aggregator's fold run vectorized
//! under the committed scalar-recorded golden fixtures. Each property draws
//! lengths up to 300, straddling the 8- and 16-lane vector widths and the
//! 64-element blocks of the 512-bit `max_abs` (tails included), splices
//! non-finite specials into the float inputs, and compares every available
//! tier against the scalar reference via `to_bits`.

use fedca_tensor::dataplane::{
    axpy_on, axpy_quantized_on, dequantize_packed_on, max_abs_on, pack_levels_on, packed_len,
    quantize_levels_on, unpack_levels,
};
use fedca_tensor::gemm::{available_kernels, Kernel};
use proptest::prelude::*;

const SPECIALS: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-41];

/// Splices special values into `x` at pseudo-positions drawn by the test.
fn splice(x: &mut [f32], specials: &[(usize, usize)]) {
    for &(pos, kind) in specials {
        if !x.is_empty() {
            x[pos % x.len()] = SPECIALS[kind % SPECIALS.len()];
        }
    }
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The dequantization rule written out: `level / num_levels · scale`.
fn dequantize_ref(levels: &[i8], scale: f32, num_levels: u8) -> Vec<f32> {
    let l = num_levels as f32;
    levels.iter().map(|&lev| lev as f32 / l * scale).collect()
}

fn derived(bits: u8) -> (u8, u32) {
    let num_levels = ((1u16 << (bits - 1)) - 1).max(1) as u8;
    let width = (bits + 1).min(8) as u32;
    (num_levels, width)
}

proptest! {
    #[test]
    fn max_abs_matches_scalar_bitwise(
        (mut x, specials) in (
            prop::collection::vec(-8.0f32..8.0, 0..300),
            prop::collection::vec((0usize..300, 0usize..8), 0..4),
        )
    ) {
        splice(&mut x, &specials);
        let want = max_abs_on(Kernel::Scalar, &x);
        for k in available_kernels() {
            let got = max_abs_on(k, &x);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "max_abs kernel {}", k.name());
        }
    }

    #[test]
    fn quantize_levels_matches_scalar_bitwise(
        (mut x, specials, bits) in (
            prop::collection::vec(-4.0f32..4.0, 1..300),
            prop::collection::vec((0usize..300, 0usize..8), 0..3),
            1u8..9,
        )
    ) {
        splice(&mut x, &specials);
        let (num_levels, _) = derived(bits);
        // The quantizers derive scale from the data; a zero-scale vector
        // takes the all-zero-levels early return and never reaches the
        // kernel, so mirror that precondition here.
        let scale = max_abs_on(Kernel::Scalar, &x);
        prop_assume!(scale != 0.0);
        let mut want = vec![0i8; x.len()];
        quantize_levels_on(Kernel::Scalar, &x, scale, num_levels, &mut want);
        for k in available_kernels() {
            let mut got = vec![0i8; x.len()];
            quantize_levels_on(k, &x, scale, num_levels, &mut got);
            prop_assert_eq!(&got, &want, "quantize_levels kernel {} bits {}", k.name(), bits);
        }
    }

    #[test]
    fn pack_unpack_match_scalar_bitwise(
        (raw, bits) in (
            prop::collection::vec(0usize..256, 0..300),
            1u8..9,
        )
    ) {
        let (num_levels, width) = derived(bits);
        // Legal encoder levels only: out-of-range levels overflow their
        // offset-binary field (documented precondition).
        let span = 2 * num_levels as i32 + 1;
        let levels: Vec<i8> = raw
            .iter()
            .map(|&b| ((b as i32 % span) - num_levels as i32) as i8)
            .collect();
        let mut want = vec![0u8; packed_len(levels.len(), width)];
        pack_levels_on(Kernel::Scalar, &levels, num_levels, width, &mut want);
        for k in available_kernels() {
            let mut got = vec![0u8; want.len()];
            pack_levels_on(k, &levels, num_levels, width, &mut got);
            prop_assert_eq!(&got, &want, "pack_levels kernel {} bits {}", k.name(), bits);
        }
        let mut back = vec![0i8; levels.len()];
        unpack_levels(&want, num_levels, width, &mut back);
        prop_assert_eq!(&back, &levels, "round trip bits {}", bits);
    }

    #[test]
    fn axpy_matches_scalar_bitwise(
        (mut x, mut y, specials, alpha) in (
            prop::collection::vec(-8.0f32..8.0, 0..300),
            prop::collection::vec(-8.0f32..8.0, 0..300),
            prop::collection::vec((0usize..300, 0usize..8), 0..4),
            -2.0f32..2.0,
        )
    ) {
        let n = x.len().min(y.len());
        x.truncate(n);
        y.truncate(n);
        splice(&mut x, &specials);
        let mut want = y.clone();
        axpy_on(Kernel::Scalar, alpha, &x, &mut want);
        for k in available_kernels() {
            let mut got = y.clone();
            axpy_on(k, alpha, &x, &mut got);
            prop_assert_eq!(bits_of(&got), bits_of(&want), "axpy kernel {}", k.name());
        }
    }

    #[test]
    fn fused_axpy_quantized_matches_scalar_and_unfused(
        (packed, y0, bits, scale, alpha) in (
            prop::collection::vec(0usize..256, 0..300),
            prop::collection::vec(-8.0f32..8.0, 0..300),
            1u8..9,
            -3.0f32..3.0,
            -2.0f32..2.0,
        )
    ) {
        let packed: Vec<u8> = packed.iter().map(|&b| b as u8).collect();
        let (num_levels, width) = derived(bits);
        let n = y0.len();
        prop_assume!(packed.len() >= packed_len(n, width));
        // Scalar fused is the reference...
        let mut want = y0.clone();
        axpy_quantized_on(Kernel::Scalar, alpha, scale, num_levels, width, &packed, &mut want);
        // ...and must itself equal unpack → dequantize → axpy.
        let mut levels = vec![0i8; n];
        unpack_levels(&packed, num_levels, width, &mut levels);
        let dense = dequantize_ref(&levels, scale, num_levels);
        let mut unfused = y0.clone();
        axpy_on(Kernel::Scalar, alpha, &dense, &mut unfused);
        prop_assert_eq!(bits_of(&want), bits_of(&unfused), "fused != unfused (scalar)");
        for k in available_kernels() {
            let mut got = y0.clone();
            axpy_quantized_on(k, alpha, scale, num_levels, width, &packed, &mut got);
            prop_assert_eq!(bits_of(&got), bits_of(&want), "axpy_quantized kernel {}", k.name());
        }
    }

    #[test]
    fn dequantize_packed_matches_scalar_bitwise(
        (packed, n, bits, scale) in (
            prop::collection::vec(0usize..256, 0..300),
            0usize..300,
            1u8..9,
            -3.0f32..3.0,
        )
    ) {
        let packed: Vec<u8> = packed.iter().map(|&b| b as u8).collect();
        let (num_levels, width) = derived(bits);
        prop_assume!(packed.len() >= packed_len(n, width));
        let mut want = vec![0.0f32; n];
        dequantize_packed_on(Kernel::Scalar, &packed, scale, num_levels, width, &mut want);
        // Equals the two-step unpack + dequantize — on arbitrary bytes, so
        // malformed wire input decodes identically on every tier too...
        let mut levels = vec![0i8; n];
        unpack_levels(&packed, num_levels, width, &mut levels);
        let two_step = dequantize_ref(&levels, scale, num_levels);
        prop_assert_eq!(bits_of(&want), bits_of(&two_step), "packed != two-step (scalar)");
        for k in available_kernels() {
            let mut got = vec![0.0f32; n];
            dequantize_packed_on(k, &packed, scale, num_levels, width, &mut got);
            prop_assert_eq!(bits_of(&got), bits_of(&want), "dequantize_packed kernel {}", k.name());
        }
    }

}

/// Exact-ties regression: the values where round-half-to-even and
/// round-half-away-from-zero disagree. A proptest range rarely lands on
/// exact halves, so pin them explicitly for every tier.
#[test]
fn quantize_ties_round_away_from_zero_on_every_tier() {
    // scale = 8, num_levels = 4 ⇒ t = x / 2, so x = ±1, ±3, ±5, ±7 land
    // exactly on half-integer t where the rounding modes differ.
    let x: Vec<f32> = vec![1.0, -1.0, 3.0, -3.0, 5.0, -5.0, 7.0, -7.0, 8.0, -8.0, 0.5];
    let scale = 8.0f32;
    let num_levels = 4u8;
    let mut want = vec![0i8; x.len()];
    quantize_levels_on(Kernel::Scalar, &x, scale, num_levels, &mut want);
    assert_eq!(want, vec![1, -1, 2, -2, 3, -3, 4, -4, 4, -4, 0]);
    for k in available_kernels() {
        let mut got = vec![0i8; x.len()];
        quantize_levels_on(k, &x, scale, num_levels, &mut got);
        assert_eq!(got, want, "ties diverge on kernel {}", k.name());
    }
}

/// The decode rule over its whole 8-bit domain: every field value 0..=255
/// (so every level, malformed ones included) for every level count 1..=255
/// the decoders accept and two scales, through the decoder and the fused
/// fold. The vector tiers replace the division by a corrected reciprocal
/// (`dataplane` header): this pins every (level, count) pair instead of a
/// sample of them, and at scale 1.0 it compares that quotient itself with
/// the scalar `level / L`.
#[test]
fn decode_every_8bit_field_on_every_tier() {
    let packed: Vec<u8> = (0..=255).collect();
    let y0: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.0625).collect();
    let alpha = 0.3f32;
    for num_levels in 1u8..=255 {
        for scale in [1.0f32, -0.0123] {
            let mut want = vec![0.0f32; packed.len()];
            dequantize_packed_on(Kernel::Scalar, &packed, scale, num_levels, 8, &mut want);
            let mut want_y = y0.clone();
            axpy_quantized_on(
                Kernel::Scalar,
                alpha,
                scale,
                num_levels,
                8,
                &packed,
                &mut want_y,
            );
            for k in available_kernels() {
                let mut got = vec![0.0f32; packed.len()];
                dequantize_packed_on(k, &packed, scale, num_levels, 8, &mut got);
                assert_eq!(
                    bits_of(&got),
                    bits_of(&want),
                    "dequantize_packed kernel {} L {num_levels} scale {scale}",
                    k.name()
                );
                let mut got_y = y0.clone();
                axpy_quantized_on(k, alpha, scale, num_levels, 8, &packed, &mut got_y);
                assert_eq!(
                    bits_of(&got_y),
                    bits_of(&want_y),
                    "axpy_quantized kernel {} L {num_levels} scale {scale}",
                    k.name()
                );
            }
        }
    }
}
