//! Periodical sampling: cheap, a-priori statistical-progress curves (§4.1).
//!
//! Naively, a client would snapshot the whole model after every iteration
//! (WRN-28: ~14 GB per round). FedCA exploits two observations:
//!
//! * **Periodical profiling** — curves are stable across consecutive rounds
//!   (Fig. 4), so profile only at *anchor rounds* (every `profile_period`
//!   participations of the client — DESIGN.md §4) and reuse the curve until
//!   the next anchor. Anchor rounds run
//!   unoptimized (no early stop, no eager transmission — footnote 3).
//! * **Intra-layer sampling** — parameters within a layer evolve at a
//!   similar pace (Fig. 5), so record only `min(50%, 100)` scalars per
//!   layer.
//!
//! The profiler gathers sampled accumulated updates after each anchor-round
//! iteration and converts them into per-layer and whole-model progress
//! curves at round end. The client finishes only an anchor round that was
//! not cut short: after a crash it keeps the previous curves, and the next
//! `begin_anchor` discards the partial recording.

use crate::params::ModelLayout;
use crate::progress::progress_curve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Progress curves profiled at an anchor round.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfiledCurves {
    /// The round the curves were profiled at.
    pub anchor_round: usize,
    /// Iterations recorded (`K` of the anchor round).
    pub k: usize,
    /// Whole-model curve `P_1 … P_K` over the concatenated samples.
    pub model: Vec<f32>,
    /// Per-layer curves, indexed like the layout's layers.
    pub layers: Vec<Vec<f32>>,
}

struct Recording {
    round: usize,
    /// One concatenated sampled accumulated-update vector per iteration.
    snapshots: Vec<Vec<f32>>,
}

/// The per-layer parameter sample, drawn from the profiler's seed.
struct Sample {
    /// Per-layer sampled indices, *local* to the layer's span.
    indices: Vec<Vec<usize>>,
    /// Where each layer's samples live in the concatenated sample vector.
    ranges: Vec<Range<usize>>,
    total: usize,
}

impl Sample {
    /// `min(ceil(len/2), max_samples)` distinct random indices per layer.
    fn draw(layout: &ModelLayout, max_samples: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices = Vec::with_capacity(layout.num_layers());
        let mut ranges = Vec::with_capacity(layout.num_layers());
        let mut offset = 0usize;
        for l in 0..layout.num_layers() {
            let len = layout.layer_len(l);
            let take = (len.div_ceil(2)).min(max_samples).max(1).min(len);
            // Partial Fisher-Yates over 0..len gives `take` distinct indices.
            let mut pool: Vec<usize> = (0..len).collect();
            for i in 0..take {
                let j = rng.gen_range(i..len);
                pool.swap(i, j);
            }
            let mut chosen = pool[..take].to_vec();
            chosen.sort_unstable();
            indices.push(chosen);
            ranges.push(offset..offset + take);
            offset += take;
        }
        Sample {
            indices,
            ranges,
            total: offset,
        }
    }
}

/// Every client's per-layer sample cap: `min(ceil(len/2), 100)` (paper: min(50%, 100)).
pub const MAX_SAMPLES_PER_LAYER: usize = 100;

/// Per-client sampling profiler.
///
/// The sample is drawn on first use — the first anchor round, or the first
/// query of it — so a client that never profiles (FedAvg, FedProx, FedAda,
/// or FedCA between anchors) never pays for it. When it is drawn does not
/// change what is drawn: it is a pure function of `(layout, max_samples,
/// seed)`.
pub struct SampledProfiler {
    layout: Arc<ModelLayout>,
    max_samples: usize,
    seed: u64,
    sample: OnceLock<Sample>,
    recording: Option<Recording>,
    curves: Option<ProfiledCurves>,
}

impl SampledProfiler {
    /// A profiler whose per-layer parameter sample is `min(ceil(len/2),
    /// max_samples)` distinct random indices per layer (paper: min(50%,
    /// 100)). Deterministic per `seed`; drawn on first use.
    pub fn new(layout: Arc<ModelLayout>, max_samples: usize, seed: u64) -> Self {
        assert!(max_samples > 0, "need at least one sample per layer");
        SampledProfiler {
            layout,
            max_samples,
            seed,
            sample: OnceLock::new(),
            recording: None,
            curves: None,
        }
    }

    fn sample(&self) -> &Sample {
        self.sample
            .get_or_init(|| Sample::draw(&self.layout, self.max_samples, self.seed))
    }

    /// Total sampled scalars across all layers (§5.5 reports 618 for CNN,
    /// 905 for LSTM, 9 974 for WRN at paper scale).
    pub fn sampled_param_count(&self) -> usize {
        self.sample().total
    }

    /// Per-layer sampled indices (local to each layer's span), sorted
    /// ascending. Deterministic per `(seed, layout)`.
    pub fn sample_indices(&self) -> &[Vec<usize>] {
        &self.sample().indices
    }

    /// Where each layer's samples live in the concatenated sample vector;
    /// consecutive and non-overlapping by construction.
    pub fn sample_ranges(&self) -> &[Range<usize>] {
        &self.sample().ranges
    }

    /// Peak profiling memory for a `k`-iteration anchor round, in bytes
    /// (one f32 per sample per iteration).
    pub fn memory_bytes(&self, k: usize) -> usize {
        self.sampled_param_count() * k * std::mem::size_of::<f32>()
    }

    /// Starts recording an anchor round (drawing the sample if this is the
    /// profiler's first use).
    pub fn begin_anchor(&mut self, round: usize) {
        self.sample();
        self.recording = Some(Recording {
            round,
            snapshots: Vec::new(),
        });
    }

    /// Records the sampled accumulated update after one iteration:
    /// `current − round_start`, gathered at the sampled indices only.
    ///
    /// # Panics
    /// Panics if not recording or the vectors don't match the layout.
    pub fn record_iteration(&mut self, round_start: &[f32], current: &[f32]) {
        let rec = self
            .recording
            .as_mut()
            .expect("not recording an anchor round");
        assert_eq!(
            round_start.len(),
            self.layout.total_params(),
            "length mismatch"
        );
        assert_eq!(current.len(), round_start.len(), "length mismatch");
        let sample = self.sample.get().expect("drawn by begin_anchor");
        let mut snap = Vec::with_capacity(sample.total);
        for l in 0..self.layout.num_layers() {
            let base = self.layout.range(l).start;
            for &local in &sample.indices[l] {
                let idx = base + local;
                snap.push(current[idx] - round_start[idx]);
            }
        }
        rec.snapshots.push(snap);
    }

    /// Finishes the anchor round, computing and storing the curves.
    ///
    /// # Panics
    /// Panics if not recording or no iterations were recorded.
    pub fn finish_anchor(&mut self) -> &ProfiledCurves {
        let rec = self
            .recording
            .take()
            .expect("not recording an anchor round");
        assert!(
            !rec.snapshots.is_empty(),
            "anchor round recorded no iterations"
        );
        let model = progress_curve(&rec.snapshots);
        let mut layers = Vec::with_capacity(self.layout.num_layers());
        for l in 0..self.layout.num_layers() {
            let r = self.sample_ranges()[l].clone();
            let layer_snaps: Vec<Vec<f32>> = rec
                .snapshots
                .iter()
                .map(|s| s[r.clone()].to_vec())
                .collect();
            layers.push(progress_curve(&layer_snaps));
        }
        self.curves = Some(ProfiledCurves {
            anchor_round: rec.round,
            k: model.len(),
            model,
            layers,
        });
        self.curves.as_ref().expect("just set")
    }

    /// The most recently profiled curves, if any anchor round has finished.
    pub fn curves(&self) -> Option<&ProfiledCurves> {
        self.curves.as_ref()
    }

    /// Overwrites the stored curves (eviction and shard hand-off). Sample
    /// indices are deterministic per `(seed, layout)` and never restored.
    pub fn restore_curves(&mut self, curves: Option<ProfiledCurves>) {
        self.curves = curves;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedca_nn::model::ParamSpan;

    fn layout(sizes: &[usize]) -> Arc<ModelLayout> {
        let mut spans = Vec::new();
        let mut off = 0;
        for (i, &s) in sizes.iter().enumerate() {
            spans.push(ParamSpan {
                name: format!("l{i}.weight"),
                range: off..off + s,
            });
            off += s;
        }
        Arc::new(ModelLayout::from_spans(&spans))
    }

    #[test]
    fn sample_sizes_follow_min_rule() {
        let l = layout(&[10, 400, 3]);
        let p = SampledProfiler::new(l, 100, 1);
        // 10 -> ceil(5), 400 -> min(200,100)=100, 3 -> ceil(2).
        assert_eq!(p.sample_indices()[0].len(), 5);
        assert_eq!(p.sample_indices()[1].len(), 100);
        assert_eq!(p.sample_indices()[2].len(), 2);
        assert_eq!(p.sampled_param_count(), 107);
        assert_eq!(p.memory_bytes(50), 107 * 50 * 4);
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let l = layout(&[64]);
        let p = SampledProfiler::new(l, 100, 2);
        let idx = &p.sample_indices()[0];
        assert_eq!(idx.len(), 32);
        let mut dedup = idx.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), idx.len(), "duplicate sample indices");
        assert!(idx.iter().all(|&i| i < 64));
    }

    #[test]
    fn recorded_curve_reaches_one() {
        let l = layout(&[8, 4]);
        let mut p = SampledProfiler::new(l.clone(), 100, 3);
        p.begin_anchor(0);
        let start = vec![0.0f32; 12];
        // Linear drift: current = start + i*dir.
        let dir: Vec<f32> = (0..12).map(|i| (i as f32 - 5.0) * 0.1).collect();
        for i in 1..=5 {
            let cur: Vec<f32> = dir.iter().map(|d| d * i as f32).collect();
            p.record_iteration(&start, &cur);
        }
        let curves = p.finish_anchor().clone();
        assert_eq!(curves.k, 5);
        assert!((curves.model.last().unwrap() - 1.0).abs() < 1e-6);
        for layer_curve in &curves.layers {
            assert!((layer_curve.last().unwrap() - 1.0).abs() < 1e-6);
            // Linear drift: P_i = i/K.
            assert!((layer_curve[0] - 0.2).abs() < 1e-5, "{layer_curve:?}");
        }
        assert!(p.curves().is_some());
    }

    #[test]
    fn sampled_curve_tracks_full_curve() {
        // A big layer whose parameters all follow the same saturating pace,
        // plus per-parameter noise: the sampled curve must approximate the
        // full curve (the Fig. 5 claim).
        let n = 2000;
        let l = layout(&[n]);
        let mut p = SampledProfiler::new(l, 100, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let dir: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let start = vec![0.0f32; n];
        let k = 20;
        let mut full_snaps = Vec::new();
        p.begin_anchor(0);
        for i in 1..=k {
            let mag = 1.0 - (-(i as f32) / 4.0).exp();
            let cur: Vec<f32> = dir
                .iter()
                .map(|d| d * mag + rng.gen_range(-0.01..0.01f32))
                .collect();
            p.record_iteration(&start, &cur);
            full_snaps.push(cur);
        }
        let sampled = p.finish_anchor().model.clone();
        let full = crate::progress::progress_curve(&full_snaps);
        for (s, f) in sampled.iter().zip(&full) {
            assert!((s - f).abs() < 0.05, "sampled {s} vs full {f}");
        }
    }

    #[test]
    #[should_panic(expected = "not recording")]
    fn record_without_begin_panics() {
        let l = layout(&[4]);
        let mut p = SampledProfiler::new(l, 10, 5);
        p.record_iteration(&[0.0; 4], &[0.0; 4]);
    }
}
