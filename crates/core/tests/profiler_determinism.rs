//! `SampledProfiler` determinism contract (§4.1 / §5.5): the per-layer
//! parameter sample is a pure function of `(seed, layout)` — whenever it is
//! first drawn —, the sampled spans tile the concatenated sample vector
//! without overlap, and the `min(ceil(len/2), max_samples)` cap holds for
//! every layer.

use fedca_core::client::RoundPlan;
use fedca_core::executor::{ClientDone, ClientWork, RoundCtx, RoundExecutor};
use fedca_core::params::ModelLayout;
use fedca_core::population::{ClientFactory, ClientStore};
use fedca_core::profiler::{SampledProfiler, MAX_SAMPLES_PER_LAYER};
use fedca_core::{FlConfig, Scheme, Workload};
use fedca_nn::model::ParamSpan;
use fedca_sim::faults::ClientFaults;
use fedca_sim::stream::{mix, DOMAIN_PROFILER};
use std::sync::Arc;

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

fn model_layout(seed: u64) -> Arc<ModelLayout> {
    let w = Workload::tiny_mlp(seed);
    let model = (w.model_factory)();
    Arc::new(ModelLayout::from_spans(model.spans()))
}

#[test]
fn same_seed_and_layout_reproduce_the_exact_sample() {
    for seed in [0u64, 7, 0x5A4D, u64::MAX] {
        let a = SampledProfiler::new(model_layout(1), 100, seed);
        let b = SampledProfiler::new(model_layout(1), 100, seed);
        assert_eq!(a.sample_indices(), b.sample_indices(), "seed {seed}");
        assert_eq!(a.sample_ranges(), b.sample_ranges(), "seed {seed}");
        assert_eq!(a.sampled_param_count(), b.sampled_param_count());
    }
}

#[test]
fn a_sample_first_drawn_at_the_anchor_round_is_the_one_drawn_at_construction() {
    // A hydrated FedCA client carries an undrawn sample; it is checked out,
    // moved through the executor, and draws it in `begin_anchor`.
    let workload = Workload::tiny_mlp(1);
    let layout = model_layout(1);
    let scheme = Scheme::fedca_default();
    let fl = FlConfig {
        n_clients: 16,
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        ..FlConfig::scaled()
    };
    let mut store = ClientStore::new(ClientFactory::new(&fl, &workload, layout.clone()));
    let id = 5;
    store.hydrate(id).unwrap();
    let ctx = Arc::new(RoundCtx {
        layout: layout.clone(),
        workload: workload.clone(),
        fl: fl.clone(),
        opts: scheme.client_options(),
        global: (workload.model_factory)().flat_params(),
    });
    let executor = RoundExecutor::new(1);
    executor
        .submit(ClientWork {
            ord: 0,
            client: store.checkout(id).unwrap(),
            plan: RoundPlan {
                round: 0,
                start: 0.0,
                deadline: 1e9,
                planned_iters: 3,
                is_anchor: true,
                faults: ClientFaults::none(),
            },
            ctx,
        })
        .unwrap();
    let ClientDone::Completed(done) = executor.recv().unwrap() else {
        panic!("the anchor round failed");
    };
    let profiler = &done.client.profiler;
    assert!(profiler.curves().is_some(), "the anchor round profiled");

    let queried_at_construction = SampledProfiler::new(
        layout,
        MAX_SAMPLES_PER_LAYER,
        mix(fl.seed, DOMAIN_PROFILER, id as u64),
    );
    let indices = queried_at_construction.sample_indices().to_vec();
    let ranges = queried_at_construction.sample_ranges().to_vec();
    assert_eq!(profiler.sample_indices(), indices.as_slice());
    assert_eq!(profiler.sample_ranges(), ranges.as_slice());
}

#[test]
fn different_seeds_draw_different_samples() {
    // A layer far larger than the cap: two seeds agreeing on all 100 of
    // 10_000 indices would be astronomically unlikely.
    let l = layout(&[10_000]);
    let a = SampledProfiler::new(l.clone(), 100, 1);
    let b = SampledProfiler::new(l, 100, 2);
    assert_ne!(a.sample_indices(), b.sample_indices());
    // The *shape* is still seed-independent.
    assert_eq!(a.sample_ranges(), b.sample_ranges());
    assert_eq!(a.sampled_param_count(), b.sampled_param_count());
}

#[test]
fn sample_ranges_tile_the_concatenated_vector_without_overlap() {
    let p = SampledProfiler::new(layout(&[10, 400, 3, 1, 250]), 100, 11);
    let ranges = p.sample_ranges();
    assert_eq!(ranges.len(), 5);
    let mut expected_start = 0usize;
    for (l, r) in ranges.iter().enumerate() {
        assert_eq!(
            r.start,
            expected_start,
            "layer {l} does not start where layer {} ended",
            l.wrapping_sub(1)
        );
        assert_eq!(
            r.len(),
            p.sample_indices()[l].len(),
            "layer {l} range disagrees with its index count"
        );
        expected_start = r.end;
    }
    assert_eq!(expected_start, p.sampled_param_count());
}

#[test]
fn per_layer_cap_is_min_half_rounded_up_then_max_samples() {
    // Layer sizes spanning every branch of the rule: tiny (floor at 1),
    // odd (ceil), even, at the cap boundary, and far past it.
    let sizes = [1usize, 3, 10, 199, 200, 201, 5000];
    let max_samples = 100;
    let p = SampledProfiler::new(layout(&sizes), max_samples, 3);
    for (l, &len) in sizes.iter().enumerate() {
        let expected = len.div_ceil(2).min(max_samples).max(1).min(len);
        assert_eq!(
            p.sample_indices()[l].len(),
            expected,
            "layer {l} (len {len}) violates the min(ceil(len/2), {max_samples}) rule"
        );
    }
}

#[test]
fn in_layer_indices_are_sorted_distinct_and_in_span() {
    let sizes = [10usize, 400, 3, 250];
    let p = SampledProfiler::new(layout(&sizes), 100, 17);
    for (l, idx) in p.sample_indices().iter().enumerate() {
        assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "layer {l} indices not strictly ascending (sorted + distinct): {idx:?}"
        );
        assert!(
            idx.iter().all(|&i| i < sizes[l]),
            "layer {l} index escapes the layer span"
        );
    }
}
