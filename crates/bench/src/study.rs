//! Statistical-pattern study harness (paper §3.2.2, Figs. 2–5).
//!
//! The paper measures intra-round statistical-progress curves on a small
//! 4-client testbed by snapshotting parameters after every local iteration
//! of a *real* training trajectory. This module reproduces that: it trains
//! a federation with plain FedAvg, and at the rounds of interest replays a
//! client's local round while recording **full** (unsampled) parameter
//! snapshots, from which whole-model and per-layer curves are computed —
//! and, per layer, the curve over just the parameters that client's own
//! [`SampledProfiler`](fedca_core::profiler::SampledProfiler) samples.

use crate::{Log, Totals};
use fedca_core::params::ModelLayout;
use fedca_core::progress::progress_curve;
use fedca_core::{FlConfig, Scheme, Trainer, Workload};
use fedca_data::BatchSampler;
use fedca_nn::{softmax_cross_entropy, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Local iterations `K` of the testbed, per `[smoke, scaled, paper]` tier.
pub const TESTBED_K: [usize; 3] = [12, 40, 250];

/// The early and the late round Figs. 2, 3 and 5 look at, per tier.
pub const EARLY_LATE_ROUNDS: [[usize; 2]; 3] = [[1, 4], [3, 24], [10, 200]];

/// The consecutive early-stage and late-stage rounds Fig. 4 looks at, per
/// tier — a superset of [`EARLY_LATE_ROUNDS`], so one testbed run recording
/// these serves Figs. 2–5.
pub const CONSECUTIVE_ROUNDS: [&[usize]; 3] = [
    &[1, 2, 4, 5],
    &[3, 4, 5, 6, 7, 20, 21, 22, 23, 24],
    &[10, 11, 12, 13, 14, 196, 197, 198, 199, 200],
];

/// Full-resolution progress curves for one `(round, client)` pair.
#[derive(Clone, Debug)]
pub struct RecordedCurves {
    /// Whole-model curve `P_1 … P_K`.
    pub model: Vec<f32>,
    /// `(layer name, curve)` per named parameter tensor.
    pub layers: Vec<(String, Vec<f32>)>,
    /// Per layer (indexed like `layers`), the curve over only the
    /// parameters the client's profiler samples.
    pub sampled: Vec<Vec<f32>>,
}

/// Replays one client's local round (`fl`'s K, batch size and optimizer
/// settings) against `global`, returning the full accumulated-update
/// snapshot after every iteration (`snapshots[i] = G_{i+1}` flattened over
/// the whole model).
pub fn record_local_snapshots(
    workload: &Workload,
    fl: &FlConfig,
    global: &[f32],
    shard: &[usize],
    seed: u64,
) -> Vec<Vec<f32>> {
    let mut model = (workload.model_factory)();
    model.set_flat_params(global);
    let mut sampler = BatchSampler::new(shard.to_vec(), fl.batch_size);
    let mut rng = StdRng::seed_from_u64(seed);
    let opt = Sgd::new(fl.lr, fl.weight_decay);
    let mut snapshots: Vec<Vec<f32>> = Vec::with_capacity(fl.local_iters);
    for _ in 0..fl.local_iters {
        let idx = sampler.next_batch(&mut rng);
        let (x, y) = workload.train.batch(&idx);
        let logits = model.forward(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        model.recycle(logits);
        model.zero_grad();
        model.backward_params(&grad);
        model.step(&opt, None);
        let cur = model.flat_params();
        snapshots.push(cur.iter().zip(global).map(|(c, g)| c - g).collect());
    }
    snapshots
}

/// Converts one local round's snapshots into whole-model, per-layer and
/// per-layer sampled progress curves; `sample` holds each layer's
/// layer-local sampled indices.
fn curves_of(
    snapshots: &[Vec<f32>],
    layout: &ModelLayout,
    sample: &[Vec<usize>],
) -> RecordedCurves {
    let layer_curve = |l: usize, idx: &[usize]| {
        let start = layout.range(l).start;
        let at = |s: &Vec<f32>| idx.iter().map(|&i| s[start + i]).collect();
        progress_curve(&snapshots.iter().map(at).collect::<Vec<_>>())
    };
    let mut curves = RecordedCurves {
        model: progress_curve(snapshots),
        layers: Vec::new(),
        sampled: Vec::new(),
    };
    for (l, idx) in sample.iter().enumerate() {
        let all: Vec<usize> = (0..layout.layer_len(l)).collect();
        curves
            .layers
            .push((layout.name(l).to_string(), layer_curve(l, &all)));
        curves.sampled.push(layer_curve(l, idx));
    }
    curves
}

/// Curves per `(round, client)` of one model's testbed trajectory.
pub type Curves = BTreeMap<(usize, usize), RecordedCurves>;

/// The paper's motivation testbed: 4 clients, all selected each round,
/// `k` local iterations, homogeneous and static devices.
pub fn testbed_config(workload: &Workload, k: usize, seed: u64) -> FlConfig {
    FlConfig {
        n_clients: 4,
        clients_per_round: 4,
        local_iters: k,
        batch_size: 16,
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        aggregation_fraction: 1.0,
        dirichlet_alpha: 0.1,
        seed,
        heterogeneity: false,
        dynamicity: false,
        ..FlConfig::default()
    }
}

/// The RNG seed a recording replays `client`'s local round at `round` with.
pub fn replay_seed(seed: u64, round: usize, client: usize) -> u64 {
    seed ^ (round as u64) << 8 ^ client as u64
}

/// One full §3.2.2-style study: trains `workload` with FedAvg on the
/// [testbed](testbed_config) and records curves for every `(round, client)`
/// in `rounds × clients`. Recording replays a client's round on a fresh
/// model with its own RNG stream, so what is recorded never changes the
/// trajectory or any other pair's curves.
pub fn progress_study(
    workload: &Workload,
    rounds: &[usize],
    clients: &[usize],
    k: usize,
    seed: u64,
    log: &mut Log,
) -> Curves {
    let fl = testbed_config(workload, k, seed);
    let mut trainer = Trainer::new(fl.clone(), Scheme::FedAvg, workload.clone());
    trainer.eval_every = 0; // no accuracy needed; keep the study fast
    let layout = trainer.layout().clone();
    let last = *rounds.iter().max().expect("need rounds");
    let mut out = BTreeMap::new();
    for round in 0..=last {
        if rounds.contains(&round) {
            let global: Vec<f32> = trainer.global_params().to_vec();
            for &c in clients {
                let client = trainer.client(c);
                let shard = client.shard.clone();
                let sample = client.profiler.sample_indices().to_vec();
                log.note(&format!(
                    "  recording {} round {round} client {c} ({} samples)",
                    workload.name,
                    shard.len()
                ));
                let replay = replay_seed(seed, round, c);
                let snapshots = record_local_snapshots(workload, &fl, &global, &shard, replay);
                out.insert((round, c), curves_of(&snapshots, &layout, &sample));
            }
        }
        trainer.run_round();
    }
    for line in Totals::of(trainer.records()).notes() {
        log.note(&line);
    }
    out
}

/// Appends one curve as CSV rows `label,iteration,progress`.
pub fn push_curve(rows: &mut Vec<String>, label: &str, curve: &[f32]) {
    rows.extend(
        curve
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{label},{},{:.4}", i + 1, p)),
    );
}
