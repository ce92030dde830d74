//! Integration tests of FedCA's individual mechanisms across crate
//! boundaries: profiling fidelity, eager-transmission overlap on the
//! network model, and error-feedback repair with injected divergence.

use fedca::core::client::{run_client_round, ClientOptions, ClientState, RoundPlan};
use fedca::core::eager::LayerOutcome;
use fedca::core::executor::ClientArena;
use fedca::core::params::ModelLayout;
use fedca::core::profiler::SampledProfiler;
use fedca::core::{FedCaOptions, FlConfig, TraceConfig, TraceEvent, Workload};
use fedca::data::BatchSampler;
use fedca::sim::device::{DeviceSpeed, DynamicsConfig};
use fedca::sim::network::Link;
use fedca_compress::ErrorFeedback;
use std::sync::Arc;

fn client_for(w: &Workload, id: usize, layout: &Arc<ModelLayout>) -> ClientState {
    let shard: Vec<usize> = (0..w.train.len().min(400)).collect();
    ClientState {
        id,
        shard: shard.clone(),
        sampler: BatchSampler::new(shard, 8),
        device: DeviceSpeed::new(1.0, DynamicsConfig::static_device(), 10 + id as u64),
        uplink: Link::paper_client(),
        downlink: Link::paper_client(),
        profiler: SampledProfiler::new(layout.clone(), 100, 20 + id as u64),
        seed: 30 + id as u64,
        error_feedback: ErrorFeedback::new(),
    }
}

fn fl_for(w: &Workload) -> FlConfig {
    FlConfig {
        lr: w.lr,
        weight_decay: w.weight_decay,
        batch_size: 8,
        ..FlConfig::scaled()
    }
}

/// Runs an anchor round followed by a normal round; returns (client, model,
/// layout, global, reports of both rounds).
fn two_rounds(
    w: &Workload,
    opts: &ClientOptions,
    k: usize,
    deadline: f64,
) -> (
    ClientState,
    Vec<fedca::core::client::ClientRoundReport>,
    Arc<ModelLayout>,
) {
    let mut arena = ClientArena::from_model((w.model_factory)());
    let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
    let global = arena.model.flat_params();
    let mut client = client_for(w, 0, &layout);
    // Traced: the reports carry the rounds' own event buffers.
    let fl = FlConfig {
        trace: TraceConfig::enabled(),
        ..fl_for(w)
    };
    let anchor_plan = RoundPlan {
        round: 0,
        start: 0.0,
        deadline: 1e9,
        planned_iters: k,
        is_anchor: true,
        faults: Default::default(),
    };
    let r0 = run_client_round(
        &mut client,
        &mut arena,
        &layout,
        &global,
        &w.train,
        w,
        &fl,
        opts,
        &anchor_plan,
    );
    let start = r0.upload_done;
    let plan = RoundPlan {
        round: 1,
        start,
        deadline,
        planned_iters: k,
        is_anchor: false,
        faults: Default::default(),
    };
    let r1 = run_client_round(
        &mut client,
        &mut arena,
        &layout,
        &global,
        &w.train,
        w,
        &fl,
        opts,
        &plan,
    );
    (client, vec![r0, r1], layout)
}

#[test]
fn profiled_curves_are_monotone_ish_and_end_at_one() {
    let w = Workload::tiny_mlp(40);
    let opts = ClientOptions {
        prox_mu: 0.0,
        fedca: Some(FedCaOptions::v3()),
    };
    let (client, _, _) = two_rounds(&w, &opts, 12, 1e9);
    let curves = client.profiler.curves().expect("profiled");
    assert_eq!(curves.k, 12);
    assert!((curves.model.last().unwrap() - 1.0).abs() < 1e-5);
    for layer in &curves.layers {
        assert!((layer.last().unwrap() - 1.0).abs() < 1e-5);
        // Real SGD curves wobble, but the overall trend must be upward:
        // the final value exceeds the first.
        assert!(layer.last().unwrap() >= &layer[0]);
    }
}

#[test]
fn eager_transmissions_overlap_with_compute_on_the_uplink() {
    let w = Workload::cnn(fedca::core::workload::Scale::Scaled, 41);
    let mut opts_cfg = FedCaOptions::v3();
    opts_cfg.early_stop = false; // isolate eager behaviour
    opts_cfg.config.eager_threshold = 0.90;
    let opts = ClientOptions {
        prox_mu: 0.0,
        fedca: Some(opts_cfg),
    };
    let (_, mut reports, _) = two_rounds(&w, &opts, 25, 1e9);
    let r1 = reports.pop().expect("two rounds");
    let eager_layers = r1
        .eager_outcomes
        .iter()
        .filter(|o| !matches!(o, LayerOutcome::Regular))
        .count();
    assert!(eager_layers > 0, "no eager transmissions at T_e=0.90");
    // The round's own journal: one send per eager layer, each queued on the
    // uplink while the client was still computing (the overlap the
    // mechanism exists for)...
    let sends: Vec<(f64, f64)> = r1
        .trace
        .into_iter()
        .filter_map(|e| match e.event {
            TraceEvent::EagerTransmit { bytes, .. } => Some((e.time, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(sends.len(), eager_layers);
    for &(at, _) in &sends {
        assert!(
            r1.download_done < at && at < r1.compute_done,
            "eager send at {at} outside compute ({} .. {})",
            r1.download_done,
            r1.compute_done
        );
    }
    // ... and off the link before compute ended: the final upload starts
    // at compute_done, not queued behind the eager bytes.
    let final_bytes = r1.bytes_uploaded - sends.iter().map(|&(_, b)| b).sum::<f64>();
    let alone = Link::paper_client().serialize_time(final_bytes);
    let took = r1.upload_done - r1.compute_done;
    assert!(
        (took - alone).abs() <= 1e-9 * alone,
        "final upload took {took}s, {alone}s on an idle link"
    );
}

#[test]
fn eager_without_divergence_shrinks_the_final_payload() {
    let w = Workload::cnn(fedca::core::workload::Scale::Scaled, 42);
    // Baseline: plain FedAvg-style client (everything in the final upload).
    let baseline_opts = ClientOptions::default();
    let (_, base_reports, _) = two_rounds(&w, &baseline_opts, 25, 1e9);
    let base_upload_gap = base_reports[1].upload_done - base_reports[1].compute_done;

    let mut cfg = FedCaOptions::v3();
    cfg.early_stop = false;
    cfg.config.eager_threshold = 0.90;
    let opts = ClientOptions {
        prox_mu: 0.0,
        fedca: Some(cfg),
    };
    let (_, reports, _) = two_rounds(&w, &opts, 25, 1e9);
    let eager_upload_gap = reports[1].upload_done - reports[1].compute_done;
    assert!(
        eager_upload_gap < base_upload_gap,
        "eager transmission did not shorten the critical-path upload: {eager_upload_gap:.3}s vs {base_upload_gap:.3}s"
    );
}

#[test]
fn retransmission_repairs_reported_updates() {
    // With retransmission ON, every reported layer must be either the final
    // update or a snapshot that is cosine-similar to it (≥ T_r). With it
    // OFF, stale snapshots are reported as-is.
    let w = Workload::cnn(fedca::core::workload::Scale::Scaled, 43);
    let mut cfg = FedCaOptions::v3();
    cfg.early_stop = false;
    cfg.config.eager_threshold = 0.5; // aggressively early => stale snapshots
    cfg.config.retransmit_threshold = 0.9; // strict check
    let opts = ClientOptions {
        prox_mu: 0.0,
        fedca: Some(cfg.clone()),
    };
    let (_, reports, layout) = two_rounds(&w, &opts, 25, 1e9);
    let r1 = &reports[1];
    let any_retrans = r1
        .eager_outcomes
        .iter()
        .any(|o| matches!(o, LayerOutcome::Retransmitted { .. }));
    // With such an aggressive eager threshold on a 25-iteration round, at
    // least one layer should have drifted enough to need repair.
    assert!(any_retrans, "no retransmission at T_e=0.5, T_r=0.9");
    for l in 0..layout.num_layers() {
        match &r1.eager_outcomes[l] {
            LayerOutcome::Eager { .. } => {
                // Accepted snapshot: must satisfy the similarity bound.
                // (The update vec holds the snapshot; we can't recompute the
                // final update here, but resolve() guaranteed cos ≥ T_r.)
            }
            LayerOutcome::Regular | LayerOutcome::Retransmitted { .. } => {
                // Reported update is the final one by construction.
            }
        }
    }
}

#[test]
fn early_stop_reacts_to_injected_slowdown() {
    // A device that collapses to 1/5 speed mid-round under a realistic
    // deadline: FedCA stops; plain FedAvg grinds through all iterations.
    let w = Workload::tiny_mlp(44);
    let k = 30;
    let seed_model = (w.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(seed_model.spans()));
    let global = seed_model.flat_params();
    let fl = fl_for(&w);

    let run = |fedca: Option<FedCaOptions>| {
        let mut client = client_for(&w, 9, &layout);
        // Slow device: base speed 0.2 (always 5x slower than nominal).
        client.device = DeviceSpeed::new(0.2, DynamicsConfig::static_device(), 77);
        let opts = ClientOptions {
            prox_mu: 0.0,
            fedca: fedca.clone(),
        };
        let mut arena = ClientArena::from_model((w.model_factory)());
        let anchor = RoundPlan {
            round: 0,
            start: 0.0,
            deadline: 1e9,
            planned_iters: k,
            is_anchor: true,
            faults: Default::default(),
        };
        let r0 = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &opts,
            &anchor,
        );
        // Deadline sized for a nominal-speed client: k * iter_work + slack.
        let deadline = k as f64 * w.iter_work_seconds * 1.5;
        let plan = RoundPlan {
            round: 1,
            start: r0.upload_done,
            deadline,
            planned_iters: k,
            is_anchor: false,
            faults: Default::default(),
        };
        run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &opts,
            &plan,
        )
    };
    let fedca_report = run(Some(FedCaOptions::v1()));
    let fedavg_report = run(None);
    assert_eq!(fedavg_report.iters_done, k);
    assert!(
        fedca_report.early_stopped && fedca_report.iters_done < k,
        "FedCA did not stop a 5x-slow client (did {} iters)",
        fedca_report.iters_done
    );
    assert!(fedca_report.upload_done < fedavg_report.upload_done);
}

#[test]
fn anchor_memory_matches_sampling_rule() {
    // Paper §5.5: CNN profiling samples 618 scalars. Our LeNet-5 naming and
    // shapes reproduce that count exactly at paper scale.
    let w = Workload::cnn(fedca::core::workload::Scale::Paper, 45);
    let model = (w.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    let prof = SampledProfiler::new(layout, 100, 1);
    assert_eq!(prof.sampled_param_count(), 618);
    // 125-iteration anchor at 4 bytes/sample: ~0.3 MB, "negligible".
    assert!(prof.memory_bytes(125) < 1_000_000);
}
