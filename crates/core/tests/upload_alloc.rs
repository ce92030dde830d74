//! Pins the allocation profile of a warmed-up client round's upload tail.
//!
//! On a 199 434-parameter MLP under `Int8` and `Quantize { bits: 4 }`,
//! everything model-sized the round touches — the flat delta, the
//! quantization levels, the error-feedback residual — lives in the worker's
//! arena or the client's state, the encoder writes straight into the wire
//! buffer, and the residual is read back from that buffer in place, so a
//! warmed-up `run_client_round` makes exactly ONE allocation of 100 KB or
//! more: the wire buffer its report carries away. `TopK` is not pinned:
//! `top_k` builds its own index and value vectors for every layer.
//!
//! Everything runs inside ONE `#[test]` — libtest runs tests on parallel
//! threads by default, and a second test's allocations would pollute the
//! global counter mid-measurement.

use fedca_compress::{Compression, ErrorFeedback};
use fedca_core::client::{run_client_round, ClientOptions, ClientState, RoundPlan};
use fedca_core::executor::ClientArena;
use fedca_core::params::ModelLayout;
use fedca_core::profiler::SampledProfiler;
use fedca_core::{FlConfig, Workload};
use fedca_data::synthetic::{image_task, ImageTaskConfig};
use fedca_data::BatchSampler;
use fedca_nn::layers::{Flatten, Linear, Relu, Sequential};
use fedca_nn::Model;
use fedca_sim::device::{DeviceSpeed, DynamicsConfig};
use fedca_sim::faults::ClientFaults;
use fedca_sim::network::Link;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const LARGE: usize = 100 * 1024;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PARAMS: usize = 768 * 256 + 256 + 256 * 10 + 10;

/// `Flatten → Linear(768,256) → ReLU → Linear(256,10)` on 3×16×16 images.
fn wide_workload(seed: u64) -> Workload {
    let cfg = ImageTaskConfig {
        channels: 3,
        hw: 16,
        classes: 10,
        train_samples: 256,
        test_samples: 32,
        noise: 2.5,
    };
    let (train, test) = image_task(&cfg, seed);
    Workload {
        name: "wide".into(),
        model_factory: Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            Model::new(
                Sequential::new()
                    .push(Flatten::new())
                    .push(Linear::new("fc1", 768, 256, &mut rng))
                    .push(Relu::new())
                    .push(Linear::new("fc2", 256, 10, &mut rng)),
            )
        }),
        train: Arc::new(train),
        test: Arc::new(test),
        iter_work_seconds: 0.10,
        wire_model_bytes: 4.0 * PARAMS as f64,
        target_accuracy: 0.90,
        lr: 0.01,
        weight_decay: 0.001,
        spec: None,
    }
}

#[test]
fn warmed_up_lossy_round_allocates_only_the_wire_buffer() {
    let w = wide_workload(5);
    for compression in [Compression::Int8, Compression::Quantize { bits: 4 }] {
        let mut arena = ClientArena::new(&w);
        assert_eq!(arena.model.num_params(), PARAMS);
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let shard: Vec<usize> = (0..w.train.len()).collect();
        let mut client = ClientState {
            id: 0,
            shard: shard.clone(),
            sampler: BatchSampler::new(shard, 8),
            device: DeviceSpeed::new(1.0, DynamicsConfig::static_device(), 42),
            uplink: Link::new(1.0e6),
            downlink: Link::new(1.0e6),
            profiler: SampledProfiler::new(layout.clone(), 100, 7),
            seed: 99,
            error_feedback: ErrorFeedback::new(),
        };
        let fl = FlConfig {
            lr: w.lr,
            weight_decay: w.weight_decay,
            batch_size: 8,
            compression,
            ..FlConfig::scaled()
        };
        let mut round = |round: usize| {
            let plan = RoundPlan {
                round,
                start: round as f64 * 1e3,
                deadline: 1e9,
                planned_iters: 2,
                is_anchor: false,
                faults: ClientFaults::none(),
            };
            let before = LARGE_ALLOCS.load(Ordering::Relaxed);
            let report = run_client_round(
                &mut client,
                &mut arena,
                &layout,
                &global,
                &w.train,
                &w,
                &fl,
                &ClientOptions::default(),
                &plan,
            );
            let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
            (report, large)
        };
        // Warm-up: sizes the arena scratch, the workspace pool and the residual.
        let (_, cold) = round(0);
        assert!(
            cold > 1,
            "{compression:?}: the first round sizes its buffers ({cold})"
        );
        for r in 1..=2 {
            let (report, large) = round(r);
            let wire = report.wire_update.expect("upload sent");
            assert!(wire.len() >= LARGE, "the wire buffer itself is large");
            assert_eq!(report.wire_bytes_uploaded, wire.len() as f64);
            assert_eq!(
                large, 1,
                "{compression:?} round {r}: a warmed-up round makes one large allocation, \
                 the wire buffer"
            );
        }
    }
}
