//! # fedca-compress
//!
//! The classical communication-efficiency baselines the FedCA paper
//! positions itself against (§2.2): **quantization** — fewer bits per
//! element (QSGD, [Alistarh et al., NeurIPS '17]) — and **sparsification** —
//! fewer elements per update (top-k with error feedback, as in Gaia-style
//! systems). FedCA is *orthogonal* to these (§6), so the repository also
//! ships an ablation bench combining them with FedCA.
//!
//! The crate additionally provides the binary [`wire`] codec used to put
//! updates on the simulated network: the byte counts the virtual links
//! charge are exactly the encoded lengths, so quantized/sparsified uploads
//! genuinely shrink transmission time in experiments.

pub mod error_feedback;
pub mod f16;
pub mod quantize;
pub mod sparsify;
pub mod wire;

pub use error_feedback::ErrorFeedback;
pub use f16::{f16_to_f32, f32_to_f16};
pub use quantize::{dequantize, quantize, quantize_det, QuantizedVec};
pub use sparsify::{densify, top_k, SparseVec};

/// Reusable buffers for [`Compression::compress_into`]: once they have seen
/// a model's largest layer, compressing allocates nothing (top-k excepted,
/// whose selection builds its own index vectors).
#[derive(Debug, Default)]
pub struct CodecScratch {
    levels: Vec<i8>,
    halves: Vec<u16>,
    sparse: Option<SparseVec>,
}

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Client-side update compression configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Compression {
    /// Full-precision f32 (the paper's default transport).
    #[default]
    None,
    /// Deterministic 8-bit round-to-nearest quantization (one f32 scale
    /// per layer): ~4× smaller uploads, error ≤ step/2 per element, and —
    /// unlike [`Compression::Quantize`] — reproducible bit-for-bit across
    /// runs. The upload path pairs it with error feedback.
    Int8,
    /// IEEE binary16: 2× smaller uploads at ~3 decimal digits of
    /// precision, deterministic (round to nearest, ties to even).
    F16,
    /// QSGD-style stochastic quantization to `bits` ∈ {1..=8} per element
    /// (plus one f32 scale per layer).
    Quantize {
        /// Bits per element.
        bits: u8,
    },
    /// Top-k sparsification keeping a `keep` fraction of elements (with
    /// local error feedback across rounds).
    TopK {
        /// Fraction of elements kept, in `(0, 1]`.
        keep: f32,
    },
}

impl Compression {
    /// Approximate wire bytes for `n` elements under this compression
    /// (indices for sparse vectors are 4-byte offsets; quantized payloads
    /// are bit-packed with one f32 scale). [`wire::message_wire_len`]
    /// gives the exact framed size; this estimator exists for planning
    /// deadlines before an update is materialized.
    pub fn wire_bytes(&self, n: usize) -> f64 {
        match *self {
            Compression::None => 4.0 * n as f64,
            Compression::Int8 => n as f64 + 4.0,
            Compression::F16 => 2.0 * n as f64,
            Compression::Quantize { bits } => {
                // The codec packs signed levels offset-binary in `bits + 1`
                // bits (sign costs one bit), capped at a byte.
                let width = (bits + 1).min(8) as f64;
                (n as f64 * width / 8.0) + 4.0
            }
            Compression::TopK { keep } => {
                let kept = (n as f32 * keep).ceil() as f64;
                kept * (4.0 + 4.0)
            }
        }
    }

    /// Exact encoded size ([`wire::Payload::wire_len`]) of what
    /// [`Compression::compress`] produces for `n` elements — known before
    /// compressing, so an upload's buffer can be sized once.
    pub fn payload_wire_len(&self, n: usize) -> usize {
        match *self {
            Compression::None => wire::dense_payload_wire_len(n),
            Compression::Int8 => wire::quantized_payload_wire_len(n, 8),
            Compression::F16 => wire::f16_payload_wire_len(n),
            Compression::Quantize { bits } => wire::quantized_payload_wire_len(n, bits),
            Compression::TopK { keep } => {
                wire::sparse_payload_wire_len(sparsify::kept_count(n, keep))
            }
        }
    }

    /// [`Compression::compress`] without the owned payload: the result
    /// borrows `x` (no compression) or `scratch`, ready for
    /// [`wire::MessageWriter::put`]. Same values, same `rng` draws.
    pub fn compress_into<'a>(
        &self,
        x: &'a [f32],
        rng: &mut impl Rng,
        scratch: &'a mut CodecScratch,
    ) -> wire::PayloadRef<'a> {
        let quantized = |bits, (scale, num_levels), levels| wire::PayloadRef::Quantized {
            bits,
            num_levels,
            scale,
            levels,
        };
        match *self {
            Compression::None => wire::PayloadRef::Dense(x),
            Compression::Int8 => {
                scratch.levels.resize(x.len(), 0);
                let header = quantize::quantize_det_into(x, 8, &mut scratch.levels);
                quantized(8, header, &scratch.levels)
            }
            Compression::F16 => {
                scratch.halves.clear();
                scratch.halves.extend(x.iter().map(|&v| f32_to_f16(v)));
                wire::PayloadRef::F16(&scratch.halves)
            }
            Compression::Quantize { bits } => {
                scratch.levels.resize(x.len(), 0);
                let header = quantize::quantize_into(x, bits, rng, &mut scratch.levels);
                quantized(bits, header, &scratch.levels)
            }
            Compression::TopK { keep } => {
                let s = scratch.sparse.insert(top_k(x, keep));
                wire::PayloadRef::Sparse {
                    len: s.len,
                    indices: &s.indices,
                    values: &s.values,
                }
            }
        }
    }

    /// Compresses one layer's values into its wire payload. `rng` is only
    /// consumed by the stochastic [`Compression::Quantize`] variant, so
    /// deterministic schemes stay deterministic regardless of rng state.
    pub fn compress(&self, x: &[f32], rng: &mut impl Rng) -> wire::Payload {
        match *self {
            Compression::None => wire::Payload::Dense(x.to_vec()),
            Compression::Int8 => wire::Payload::Quantized(quantize_det(x, 8)),
            Compression::F16 => wire::Payload::F16(x.iter().map(|&v| f32_to_f16(v)).collect()),
            Compression::Quantize { bits } => wire::Payload::Quantized(quantize(x, bits, rng)),
            Compression::TopK { keep } => wire::Payload::Sparse(top_k(x, keep)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CODECS: [Compression; 5] = [
        Compression::None,
        Compression::Int8,
        Compression::F16,
        Compression::Quantize { bits: 4 },
        Compression::TopK { keep: 0.1 },
    ];

    fn values(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() * 2.5).collect()
    }

    #[test]
    fn payload_wire_len_is_known_before_compressing() {
        for c in CODECS {
            for n in [0usize, 1, 7, 64, 1001] {
                let payload = c.compress(&values(n), &mut StdRng::seed_from_u64(3));
                assert_eq!(c.payload_wire_len(n), payload.wire_len(), "{c:?} n={n}");
            }
        }
    }

    #[test]
    fn compress_into_matches_compress_with_a_reused_scratch() {
        let mut scratch = CodecScratch::default();
        for c in CODECS {
            // Shrinking and growing sizes: stale scratch contents must not leak,
            // and an all-zero layer must come out as all-zero levels.
            for x in [values(300), values(17), vec![0.0; 40], values(512)] {
                let owned = c.compress(&x, &mut StdRng::seed_from_u64(9));
                let borrowed = c.compress_into(&x, &mut StdRng::seed_from_u64(9), &mut scratch);
                assert_eq!(borrowed, owned.as_ref(), "{c:?} n={}", x.len());
            }
        }
    }

    #[test]
    fn wire_bytes_orderings() {
        let n = 10_000;
        let full = Compression::None.wire_bytes(n);
        let q8 = Compression::Quantize { bits: 8 }.wire_bytes(n);
        let q2 = Compression::Quantize { bits: 2 }.wire_bytes(n);
        let s10 = Compression::TopK { keep: 0.1 }.wire_bytes(n);
        assert!(q8 < full);
        assert!(q2 < q8);
        assert!(s10 < full);
        // 10% top-k with index+value = 8 bytes/kept ≈ 20% of full size.
        assert!((s10 / full - 0.2).abs() < 0.01);
    }
}
