//! Statistical-pattern study harness (paper §3.2.2, Figs. 2–5).
//!
//! The paper measures intra-round statistical-progress curves on a small
//! 4-client testbed by snapshotting parameters after every local iteration
//! of a *real* training trajectory. This module reproduces that: it trains
//! a federation with plain FedAvg, and at the rounds of interest replays a
//! client's local round while recording **full** (unsampled) parameter
//! snapshots, from which whole-model and per-layer curves are computed.

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
/// these serves Figs. 2–4.
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

/// Converts one local round's snapshots into whole-model and per-layer
/// progress curves.
fn curves_of(snapshots: &[Vec<f32>], layout: &ModelLayout) -> RecordedCurves {
    let layers = (0..layout.num_layers())
        .map(|l| {
            let r = layout.range(l);
            let layer_snaps: Vec<Vec<f32>> =
                snapshots.iter().map(|s| s[r.clone()].to_vec()).collect();
            (layout.name(l).to_string(), progress_curve(&layer_snaps))
        })
        .collect();
    RecordedCurves {
        model: progress_curve(snapshots),
        layers,
    }
}

/// Curves per `(round, client)` of one model's testbed trajectory.
pub type Curves = BTreeMap<(usize, usize), RecordedCurves>;

/// One full §3.2.2-style study: trains `workload` with FedAvg on a small
/// 4-client testbed and records full curves for every `(round, client)` in
/// `rounds × clients`. Recording replays a client's round on a fresh model
/// with its own RNG stream, so what is recorded never changes the
/// trajectory or any other pair's curves.
pub fn progress_study(
    workload: &Workload,
    rounds: &[usize],
    clients: &[usize],
    k: usize,
    seed: u64,
    log: &mut Log,
) -> Curves {
    // The paper's motivation testbed: 4 clients, all selected each round.
    let fl = FlConfig {
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
    };
    let mut trainer = Trainer::new(fl.clone(), Scheme::FedAvg, workload.clone());
    trainer.eval_every = 0; // no accuracy needed; keep the study fast
    let layout = trainer.layout().clone();
    let last = *rounds.iter().max().expect("need rounds");
    let mut out = BTreeMap::new();
    for round in 0..=last {
        if rounds.contains(&round) {
            let global: Vec<f32> = trainer.global_params().to_vec();
            for &c in clients {
                let shard = trainer.client(c).shard.clone();
                log.note(&format!(
                    "  recording {} round {round} client {c} ({} samples)",
                    workload.name,
                    shard.len()
                ));
                let replay_seed = seed ^ (round as u64) << 8 ^ c as u64;
                let snapshots = record_local_snapshots(workload, &fl, &global, &shard, replay_seed);
                out.insert((round, c), curves_of(&snapshots, &layout));
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
