//! QSGD-style stochastic quantization ([Alistarh et al., NeurIPS '17]).
//!
//! Each value is mapped to one of `2^bits − 1` signed levels of the layer's
//! max-magnitude scale, with *stochastic* rounding so the quantizer is
//! unbiased: `E[dequantize(quantize(x))] = x`. Unbiasedness is what lets
//! quantized FedAvg converge, and the property tests pin it down.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A quantized vector: per-element signed level plus one f32 scale.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantizedVec {
    /// Bits per element this was quantized with.
    pub bits: u8,
    /// Scale such that `value ≈ level / levels · scale`.
    pub scale: f32,
    /// Signed levels in `[-num_levels, +num_levels]` where
    /// `num_levels = max(2^(bits-1) - 1, 1)`; stored widened for simplicity
    /// (the wire codec bit-packs them).
    pub levels: Vec<i8>,
    /// Number of positive quantization levels.
    pub num_levels: u8,
}

/// Quantizes `x` to `bits` ∈ [1, 8] bits per element with stochastic
/// rounding.
///
/// # Panics
/// Panics if `bits` is outside `[1, 8]`.
pub fn quantize(x: &[f32], bits: u8, rng: &mut impl Rng) -> QuantizedVec {
    let mut levels = vec![0; x.len()];
    let (scale, num_levels) = quantize_into(x, bits, rng, &mut levels);
    QuantizedVec {
        bits,
        scale,
        levels,
        num_levels,
    }
}

/// [`quantize`] into a caller-provided level buffer (every element is
/// written), returning `(scale, num_levels)`. Draws from `rng` exactly as
/// [`quantize`] does.
///
/// # Panics
/// Panics if `bits` is outside `[1, 8]` or `levels.len() != x.len()`.
pub fn quantize_into(x: &[f32], bits: u8, rng: &mut impl Rng, levels: &mut [i8]) -> (f32, u8) {
    let (scale, num_levels) = scale_and_levels(x, bits, levels);
    if scale != 0.0 {
        let l = num_levels as f32;
        for (o, &v) in levels.iter_mut().zip(x) {
            let t = v / scale * l; // in [-l, l]
            let floor = t.floor();
            let frac = t - floor;
            let lev = if rng.gen_range(0.0..1.0f32) < frac {
                floor + 1.0
            } else {
                floor
            };
            *o = lev.clamp(-l, l) as i8;
        }
    }
    (scale, num_levels)
}

/// Positive quantization levels at `bits` ∈ [1, 8]: `2^(bits-1) − 1`
/// steps, at least 1. The wire reader rejects any other count.
pub(crate) fn num_levels(bits: u8) -> u8 {
    ((1u16 << (bits - 1)) - 1).max(1) as u8
}

/// Shared preamble of both quantizers: validates `bits`, derives the level
/// count ([`num_levels`]) and scans the max-|x| scale through the
/// dispatched data-plane kernel. A zero scale zeroes `levels`, which is
/// then already the final answer.
fn scale_and_levels(x: &[f32], bits: u8, levels: &mut [i8]) -> (f32, u8) {
    assert!((1..=8).contains(&bits), "bits must be in [1, 8]");
    assert_eq!(levels.len(), x.len(), "level buffer length mismatch");
    let num_levels = num_levels(bits);
    let scale = fedca_tensor::dataplane::max_abs(x);
    if scale == 0.0 {
        levels.fill(0);
    }
    (scale, num_levels)
}

/// Deterministic round-to-nearest quantization to `bits` ∈ [1, 8] per
/// element. Unlike [`quantize`], identical inputs always produce identical
/// levels, and the reconstruction error is bounded by half a step:
/// `|x − deq(q(x))| ≤ scale / num_levels / 2`. This is the quantizer the
/// runner's upload path uses (its determinism is what keeps trajectories
/// reproducible across worker counts), while the stochastic variant
/// remains available for the unbiased-QSGD baselines.
///
/// # Panics
/// Panics if `bits` is outside `[1, 8]`.
pub fn quantize_det(x: &[f32], bits: u8) -> QuantizedVec {
    let mut levels = vec![0; x.len()];
    let (scale, num_levels) = quantize_det_into(x, bits, &mut levels);
    QuantizedVec {
        bits,
        scale,
        levels,
        num_levels,
    }
}

/// [`quantize_det`] into a caller-provided level buffer (every element is
/// written), returning `(scale, num_levels)`.
///
/// # Panics
/// Panics if `bits` is outside `[1, 8]` or `levels.len() != x.len()`.
pub fn quantize_det_into(x: &[f32], bits: u8, levels: &mut [i8]) -> (f32, u8) {
    let (scale, num_levels) = scale_and_levels(x, bits, levels);
    if scale != 0.0 {
        fedca_tensor::dataplane::quantize_levels(x, scale, num_levels, levels);
    }
    (scale, num_levels)
}

/// Reconstructs the dense vector, `level / num_levels · scale` per element
/// in a plain scalar loop (the reference the wire decoder is held to). A
/// zero scale gives exact zeros (`level/l · 0.0` would produce `-0.0` for
/// negative levels).
pub fn dequantize(q: &QuantizedVec) -> Vec<f32> {
    if q.scale == 0.0 {
        return vec![0.0; q.levels.len()];
    }
    let l = q.num_levels as f32;
    q.levels
        .iter()
        .map(|&lev| lev as f32 / l * q.scale)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_vector_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = quantize(&[0.0; 16], 4, &mut rng);
        assert_eq!(dequantize(&q), vec![0.0; 16]);
    }

    #[test]
    fn max_magnitude_element_is_representable() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = [0.5f32, -2.0, 1.0];
        let q = quantize(&x, 8, &mut rng);
        let d = dequantize(&q);
        // The max-|x| element maps to ±scale exactly (level ±num_levels).
        assert!((d[1] + 2.0).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn error_bounded_by_one_level() {
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<f32> = (0..500).map(|i| ((i as f32) * 0.7).sin() * 3.0).collect();
        for bits in [2u8, 4, 8] {
            let q = quantize(&x, bits, &mut rng);
            let d = dequantize(&q);
            let step = q.scale / q.num_levels as f32;
            for (a, b) in x.iter().zip(&d) {
                assert!(
                    (a - b).abs() <= step + 1e-6,
                    "bits={bits}: |{a} - {b}| > step {step}"
                );
            }
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        // A value exactly halfway between two levels must round up half the
        // time: the mean reconstruction converges to the input.
        let mut rng = StdRng::seed_from_u64(4);
        let x = [1.0f32, 0.35]; // scale = 1.0
        let trials = 4000;
        let mut sum = 0.0f64;
        for _ in 0..trials {
            let q = quantize(&x, 3, &mut rng); // 3 positive levels
            sum += dequantize(&q)[1] as f64;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - 0.35).abs() < 0.01,
            "biased quantizer: mean {mean} vs 0.35"
        );
    }

    #[test]
    fn one_bit_quantization_is_sign_times_scale_or_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = [3.0f32, -3.0, 0.0];
        let q = quantize(&x, 1, &mut rng);
        assert_eq!(q.num_levels, 1);
        let d = dequantize(&q);
        assert_eq!(d[0], 3.0);
        assert_eq!(d[1], -3.0);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn rejects_zero_bits() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = quantize(&[1.0], 0, &mut rng);
    }
}
