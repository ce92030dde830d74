//! # fedca-compress
//!
//! The classical communication-efficiency baselines the FedCA paper
//! positions itself against (§2.2): **quantization** — fewer bits per
//! element (QSGD, [Alistarh et al., NeurIPS '17]) — and **sparsification** —
//! fewer elements per update (top-k with error feedback, as in Gaia-style
//! systems). FedCA is *orthogonal* to these (§6), so the repository also
//! ships an ablation bench combining them with FedCA.
//!
//! Its other half is the update [`wire`] codec, the one byte format the
//! crate owns: the byte counts the virtual links charge are exactly the
//! encoded lengths, so quantized/sparsified uploads genuinely shrink
//! transmission time in experiments, and the bytes a client prices are the
//! bytes the server decodes. [`Compression::encode_layer`] compresses
//! straight into a [`wire::MessageWriter`]; [`wire::PayloadView::decode_into`]
//! is the one decoder. (The shard processes' frame envelope is not an update
//! format; it lives with its one speaker, `fedca-core`'s `transport`.)

pub mod error_feedback;
pub mod quantize;
pub mod sparsify;
pub mod wire;

pub use error_feedback::ErrorFeedback;
pub use quantize::{dequantize, quantize, quantize_det, QuantizedVec};
pub use sparsify::{densify, top_k, SparseVec};

/// The quantizers' level buffer, reused by [`Compression::encode_layer`]:
/// once it has seen a model's largest layer, encoding allocates nothing
/// (top-k excepted, whose selection builds its own index vectors).
#[derive(Debug, Default)]
pub struct CodecScratch {
    levels: Vec<i8>,
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
    /// Exact encoded size ([`wire::Payload::wire_len`]) of what
    /// [`Compression::compress`] produces for `n` elements — known before
    /// compressing, so an upload's buffer can be sized once.
    pub fn payload_wire_len(&self, n: usize) -> usize {
        match *self {
            Compression::None => wire::dense_payload_wire_len(n),
            Compression::Int8 => wire::quantized_payload_wire_len(n, 8),
            Compression::Quantize { bits } => wire::quantized_payload_wire_len(n, bits),
            Compression::TopK { keep } => {
                wire::sparse_payload_wire_len(sparsify::kept_count(n, keep))
            }
        }
    }

    /// [`Compression::compress`] straight onto the wire: quantizes or
    /// sparsifies `x` and frames it as layer `id` of `writer`'s open
    /// message, through `scratch` instead of an owned payload. Same bytes as
    /// [`wire::encode`] of `compress`'s result, same `rng` draws.
    pub fn encode_layer(
        &self,
        writer: &mut wire::MessageWriter,
        id: u32,
        x: &[f32],
        rng: &mut impl Rng,
        scratch: &mut CodecScratch,
    ) {
        let levels = &mut scratch.levels;
        match *self {
            Compression::None => writer.put_dense(id, x),
            Compression::Int8 => {
                levels.resize(x.len(), 0);
                let (scale, num_levels) = quantize::quantize_det_into(x, 8, levels);
                writer.put_quantized(id, 8, num_levels, scale, levels);
            }
            Compression::Quantize { bits } => {
                levels.resize(x.len(), 0);
                let (scale, num_levels) = quantize::quantize_into(x, bits, rng, levels);
                writer.put_quantized(id, bits, num_levels, scale, levels);
            }
            Compression::TopK { keep } => {
                let s = top_k(x, keep);
                writer.put_sparse(id, s.len, &s.indices, &s.values);
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

    const CODECS: [Compression; 4] = [
        Compression::None,
        Compression::Int8,
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
    fn encode_layer_writes_what_encode_writes_with_a_reused_scratch() {
        let mut scratch = CodecScratch::default();
        for c in CODECS {
            // Shrinking and growing sizes: stale scratch contents must not leak,
            // and an all-zero layer must come out as all-zero levels.
            for x in [values(300), values(17), vec![0.0; 40], values(512)] {
                let owned = c.compress(&x, &mut StdRng::seed_from_u64(9));
                let want = wire::encode(&wire::UpdateMessage {
                    round: 1,
                    client: 2,
                    layers: vec![(3, owned)],
                });
                let mut w = wire::MessageWriter::with_capacity(want.len());
                w.begin(1, 2, 1);
                c.encode_layer(&mut w, 3, &x, &mut StdRng::seed_from_u64(9), &mut scratch);
                assert_eq!(w.finish(), want, "{c:?} n={}", x.len());
            }
        }
    }
}
