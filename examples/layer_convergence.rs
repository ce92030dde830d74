//! Layer convergence: profiles one client's anchor round and prints
//! per-layer statistical-progress curves — the phenomenon behind FedCA's
//! eager transmission (paper Fig. 3: layers converge at different paces,
//! some crossing T_e = 0.95 long before round end).
//!
//! Run with: `cargo run --release --example layer_convergence`

use fedca::core::client::{run_client_round, ClientOptions, ClientState, RoundPlan};
use fedca::core::executor::ClientArena;
use fedca::core::params::ModelLayout;
use fedca::core::profiler::SampledProfiler;
use fedca::core::{FedCaOptions, FlConfig, Workload};
use fedca::data::BatchSampler;
use fedca::sim::device::{DeviceSpeed, DynamicsConfig};
use fedca::sim::network::Link;
use fedca_compress::ErrorFeedback;
use std::sync::Arc;

fn main() {
    let workload = Workload::cnn(fedca::core::workload::Scale::Scaled, 11);
    let mut arena = ClientArena::from_model((workload.model_factory)());
    let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
    let global = arena.model.flat_params();

    let shard: Vec<usize> = (0..600).collect();
    let mut client = ClientState {
        id: 0,
        shard: shard.clone(),
        sampler: BatchSampler::new(shard, 16),
        device: DeviceSpeed::new(1.0, DynamicsConfig::static_device(), 1),
        uplink: Link::paper_client(),
        downlink: Link::paper_client(),
        profiler: SampledProfiler::new(layout.clone(), 100, 3),
        seed: 5,
        error_feedback: ErrorFeedback::new(),
    };
    let fl = FlConfig {
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        batch_size: 16,
        ..FlConfig::scaled()
    };
    let opts = ClientOptions {
        prox_mu: 0.0,
        fedca: Some(FedCaOptions::v3()),
    };
    let k = 40;
    let plan = RoundPlan {
        round: 0,
        start: 0.0,
        deadline: 1e9,
        planned_iters: k,
        is_anchor: true,
        faults: Default::default(),
    };
    println!("profiling a {k}-iteration anchor round on the CNN workload…");
    let report = run_client_round(
        &mut client,
        &mut arena,
        &layout,
        &global,
        &workload.train,
        &workload,
        &fl,
        &opts,
        &plan,
    );
    assert_eq!(report.iters_done, k);

    let curves = client.profiler.curves().expect("anchor profiled");
    println!(
        "\nsampled {} parameters ({} bytes of profiling memory for K={k})",
        client.profiler.sampled_param_count(),
        client.profiler.memory_bytes(k),
    );
    println!("\nper-layer statistical progress (P_i at selected iterations):");
    println!(
        "{:28} {:>6} {:>6} {:>6} {:>6}  first iter with P ≥ 0.95",
        "layer", "i=5", "i=10", "i=20", "i=40"
    );
    for (l, curve) in curves.layers.iter().enumerate() {
        let cross = curve
            .iter()
            .position(|&p| p >= 0.95)
            .map(|i| (i + 1).to_string())
            .unwrap_or_else(|| "never".into());
        println!(
            "{:28} {:6.3} {:6.3} {:6.3} {:6.3}  {}",
            layout.name(l),
            curve[4],
            curve[9],
            curve[19],
            curve[39],
            cross
        );
    }
    let early = curves
        .layers
        .iter()
        .filter(|c| c.iter().position(|&p| p >= 0.95).is_some_and(|i| i + 1 < k))
        .count();
    println!(
        "\n{early}/{} layers stabilize before round end -> candidates for eager transmission.",
        curves.layers.len()
    );
}
