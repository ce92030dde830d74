//! Statistical-pattern study harness (paper §3.2.2, Figs. 2–5).
//!
//! The paper measures intra-round statistical-progress curves on a small
//! 4-client testbed by snapshotting parameters after every local iteration
//! of a *real* training trajectory. This module reproduces that: it trains
//! a federation with plain FedAvg, and at the rounds of interest replays a
//! client's local round while recording **full** (unsampled) parameter
//! snapshots, from which whole-model and per-layer curves are computed.

use crate::note;
use fedca_core::params::ModelLayout;
use fedca_core::progress::progress_curve;
use fedca_core::{FlConfig, Scheme, Trainer, Workload};
use fedca_data::BatchSampler;
use fedca_nn::{softmax_cross_entropy, Sgd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Full-resolution progress curves for one `(round, client)` pair.
#[derive(Clone, Debug)]
pub struct RecordedCurves {
    /// Whole-model curve `P_1 … P_K`.
    pub model: Vec<f32>,
    /// `(layer name, curve)` per named parameter tensor.
    pub layers: Vec<(String, Vec<f32>)>,
}

/// Replays one client's local round against `global`, returning the full
/// accumulated-update snapshot after every iteration (`snapshots[i] =
/// G_{i+1}` flattened over the whole model).
#[allow(clippy::too_many_arguments)]
pub fn record_local_snapshots(
    workload: &Workload,
    global: &[f32],
    shard: &[usize],
    k: usize,
    batch_size: usize,
    lr: f32,
    weight_decay: f32,
    seed: u64,
) -> Vec<Vec<f32>> {
    let mut model = (workload.model_factory)();
    model.set_flat_params(global);
    let mut sampler = BatchSampler::new(shard.to_vec(), batch_size);
    let mut rng = StdRng::seed_from_u64(seed);
    let opt = Sgd::new(lr, weight_decay);
    let mut snapshots: Vec<Vec<f32>> = Vec::with_capacity(k);
    for _ in 0..k {
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

/// Replays one client's local round and converts the snapshots into
/// whole-model and per-layer progress curves.
#[allow(clippy::too_many_arguments)]
pub fn record_full_curves(
    workload: &Workload,
    layout: &Arc<ModelLayout>,
    global: &[f32],
    shard: &[usize],
    k: usize,
    batch_size: usize,
    lr: f32,
    weight_decay: f32,
    seed: u64,
) -> RecordedCurves {
    let snapshots = record_local_snapshots(
        workload,
        global,
        shard,
        k,
        batch_size,
        lr,
        weight_decay,
        seed,
    );
    let model_curve = progress_curve(&snapshots);
    let layers = (0..layout.num_layers())
        .map(|l| {
            let r = layout.range(l);
            let layer_snaps: Vec<Vec<f32>> =
                snapshots.iter().map(|s| s[r.clone()].to_vec()).collect();
            (layout.name(l).to_string(), progress_curve(&layer_snaps))
        })
        .collect();
    RecordedCurves {
        model: model_curve,
        layers,
    }
}

/// One full §3.2.2-style study: trains `workload` with FedAvg on a small
/// 4-client testbed and records full curves for the requested
/// `(round, client)` pairs.
///
/// Returns `curves[&(round, client)]`.
pub fn progress_study(
    workload: &Workload,
    rounds_of_interest: &[usize],
    clients: &[usize],
    k: usize,
    seed: u64,
) -> BTreeMap<(usize, usize), RecordedCurves> {
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
        dropout_prob: 0.0,
        compression: Default::default(),
        faults: Default::default(),
        trace: Default::default(),
        checkpoint: Default::default(),
        population: Default::default(),
        shard: Default::default(),
    };
    let mut trainer = Trainer::new(fl.clone(), Scheme::FedAvg, workload.clone());
    trainer.eval_every = 0; // no accuracy needed; keep the study fast
    let layout = trainer.layout().clone();
    let last = *rounds_of_interest.iter().max().expect("need rounds");
    let mut out = BTreeMap::new();
    for round in 0..=last {
        if rounds_of_interest.contains(&round) {
            let global: Vec<f32> = trainer.global_params().to_vec();
            for &c in clients {
                let shard = trainer.client(c).shard.clone();
                note(&format!(
                    "  recording {} round {round} client {c} ({} samples)",
                    workload.name,
                    shard.len()
                ));
                let curves = record_full_curves(
                    workload,
                    &layout,
                    &global,
                    &shard,
                    k,
                    fl.batch_size,
                    fl.lr,
                    fl.weight_decay,
                    seed ^ (round as u64) << 8 ^ c as u64,
                );
                out.insert((round, c), curves);
            }
        }
        trainer.run_round();
    }
    let host_ms: f64 = trainer.records().iter().map(|r| r.host_ms).sum();
    let rounds_run = trainer.records().len();
    let n_crashed: usize = trainer.records().iter().map(|r| r.n_crashed).sum();
    let n_dropped: usize = trainer.records().iter().map(|r| r.n_dropped).sum();
    let n_missed: usize = trainer.records().iter().map(|r| r.n_deadline_missed).sum();
    let n_rejected: usize = trainer.records().iter().map(|r| r.n_rejected).sum();
    let n_hydrated: usize = trainer.records().iter().map(|r| r.n_hydrated).sum();
    let n_evicted: usize = trainer.records().iter().map(|r| r.n_evicted).sum();
    let hydrate_us: f64 = trainer.records().iter().map(|r| r.hydrate_host_us).sum();
    let decode_us: f64 = trainer.records().iter().map(|r| r.decode_host_us).sum();
    let aggregate_us: f64 = trainer.records().iter().map(|r| r.aggregate_host_us).sum();
    note(&format!(
        "  throughput: {rounds_run} rounds in {:.0} ms host time ({:.1} rounds/s); \
         faults: {n_crashed} crashed, {n_dropped} dropped, {n_missed} deadline-missed, \
         {n_rejected} rejected; store: {n_hydrated} hydrated, {n_evicted} evicted, \
         {:.0} µs hydrating",
        host_ms,
        rounds_run as f64 / (host_ms / 1e3).max(1e-9),
        hydrate_us,
    ));
    note(&format!(
        "  data plane: {:.0} µs ingest-decode, {:.0} µs close-fold \
         ({:.1} µs/round fold)",
        decode_us,
        aggregate_us,
        aggregate_us / (rounds_run as f64).max(1.0),
    ));
    let n_hb_missed: usize = trainer.records().iter().map(|r| r.n_heartbeat_missed).sum();
    let n_quarantined: usize = trainer.records().iter().map(|r| r.n_quarantined).sum();
    let n_reassigned: usize = trainer.records().iter().map(|r| r.n_reassigned).sum();
    note(&format!(
        "  shards: {n_hb_missed} heartbeats missed, {n_quarantined} quarantined, \
         {n_reassigned} ordinals re-run in the root",
    ));
    out
}

/// Prints one curve as CSV rows `label,iteration,progress`.
pub fn print_curve(label: &str, curve: &[f32]) {
    for (i, p) in curve.iter().enumerate() {
        println!("{label},{},{:.4}", i + 1, p);
    }
}
