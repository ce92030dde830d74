//! Direct coverage for the `RoundExecutor` receive API: `recv_timeout`
//! bounds the wait on an idle pool instead of hanging, a halted (dropped)
//! pool surfaces as `ExecutorError::Disconnected`, real client work
//! drains through `recv_timeout` exactly once per submission, and a
//! cohort sent in multi-client chunks resolves every ordinal once, with a
//! panicking client failing alone.

use fedca_compress::ErrorFeedback;
use fedca_core::client::{ClientOptions, ClientState, RoundPlan};
use fedca_core::config::FlConfig;
use fedca_core::executor::{
    chunk_len, ClientDone, ClientWork, ExecutorError, RoundCtx, RoundExecutor,
};
use fedca_core::params::ModelLayout;
use fedca_core::profiler::SampledProfiler;
use fedca_core::Workload;
use fedca_data::BatchSampler;
use fedca_sim::device::{DeviceSpeed, DynamicsConfig};
use fedca_sim::faults::ClientFaults;
use fedca_sim::network::Link;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn make_client(workload: &Workload, id: usize) -> ClientState {
    let shard: Vec<usize> = (0..workload.train.len()).collect();
    let model = (workload.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    ClientState {
        id,
        shard: shard.clone(),
        sampler: BatchSampler::new(shard, 8),
        device: DeviceSpeed::new(1.0, DynamicsConfig::static_device(), 42 + id as u64),
        uplink: Link::new(1.0e6),
        downlink: Link::new(1.0e6),
        profiler: SampledProfiler::new(layout, 100, 7 + id as u64),
        seed: 99 + id as u64,
        error_feedback: ErrorFeedback::new(),
    }
}

fn make_ctx(workload: &Workload) -> Arc<RoundCtx> {
    let model = (workload.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    let global = model.flat_params();
    let fl = FlConfig {
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        batch_size: 8,
        ..FlConfig::scaled()
    };
    Arc::new(RoundCtx {
        layout,
        workload: workload.clone(),
        fl,
        opts: ClientOptions::default(),
        global,
    })
}

fn make_work(workload: &Workload, ctx: &Arc<RoundCtx>, ord: usize) -> ClientWork {
    ClientWork {
        ord,
        client: make_client(workload, ord),
        plan: RoundPlan {
            round: 0,
            start: 0.0,
            deadline: 1e9,
            planned_iters: 3,
            is_anchor: false,
            faults: ClientFaults::none(),
        },
        ctx: Arc::clone(ctx),
    }
}

#[test]
fn recv_timeout_on_an_idle_pool_returns_timeout_not_a_hang() {
    let pool = RoundExecutor::new(2);
    let t0 = Instant::now();
    let result = pool.recv_timeout(Duration::from_millis(30));
    let elapsed = t0.elapsed();
    assert!(
        matches!(result, Err(ExecutorError::Timeout)),
        "idle pool must time out"
    );
    assert!(elapsed >= Duration::from_millis(30), "returned too early");
    assert!(
        elapsed < Duration::from_secs(5),
        "recv_timeout hung far past its bound: {elapsed:?}"
    );
}

#[test]
fn halted_pool_disconnects_every_api_surface() {
    let w = Workload::tiny_mlp(5);
    let ctx = make_ctx(&w);
    let mut pool = RoundExecutor::new(2);
    pool.halt();
    assert_eq!(pool.n_workers(), 0, "halt joins every worker");
    assert!(matches!(pool.recv(), Err(ExecutorError::Disconnected)));
    assert!(matches!(
        pool.recv_timeout(Duration::from_millis(50)),
        Err(ExecutorError::Disconnected)
    ));
    assert!(matches!(
        pool.submit(make_work(&w, &ctx, 0)),
        Err(ExecutorError::Disconnected)
    ));
}

#[test]
fn real_work_drains_through_recv_timeout_exactly_once_per_submission() {
    let w = Workload::tiny_mlp(5);
    let ctx = make_ctx(&w);
    let pool = RoundExecutor::new(2);
    const N: usize = 3;
    for ord in 0..N {
        pool.submit(make_work(&w, &ctx, ord)).expect("pool alive");
    }
    let mut ords = BTreeSet::new();
    for _ in 0..N {
        match pool
            .recv_timeout(Duration::from_secs(30))
            .expect("work must resolve well within the bound")
        {
            ClientDone::Completed(done) => {
                assert_eq!(done.report.iters_done, 3);
                assert!(done.report.upload_done.is_finite());
                assert!(done.host_us > 0.0, "wall-clock delta must be recorded");
                assert!(
                    ords.insert(done.ord),
                    "ordinal {} delivered twice",
                    done.ord
                );
            }
            ClientDone::Failed(f) => panic!("fault-free client failed: {}", f.panic_msg),
        }
    }
    assert_eq!(ords, (0..N).collect::<BTreeSet<_>>());
    // The queue is drained: the next bounded receive times out.
    assert!(matches!(
        pool.recv_timeout(Duration::from_millis(20)),
        Err(ExecutorError::Timeout)
    ));
}

#[test]
fn a_panic_inside_a_chunk_fails_only_its_client() {
    let w = Workload::tiny_mlp(5);
    let ctx = make_ctx(&w);
    let mut pool = RoundExecutor::new(2);
    const N: usize = 64;
    const PANICKER: usize = 3;
    // At a cap of 8 the first message carries ordinals 0..8, so the
    // panicking client shares its chunk with seven others.
    assert_eq!(chunk_len(8, N, pool.n_workers()), 8);
    let work = (0..N)
        .map(|ord| {
            let mut work = make_work(&w, &ctx, ord);
            if ord == PANICKER {
                work.plan.faults.panic_at_iter = Some(1);
            }
            work
        })
        .collect();
    let mut resolved = BTreeSet::new();
    pool.run_cohort_chunked(work, 8, |done| {
        let ord = match done {
            ClientDone::Completed(done) => {
                assert_ne!(done.ord, PANICKER, "the panicking client completed");
                assert_eq!(done.report.iters_done, 3);
                done.ord
            }
            ClientDone::Failed(f) => {
                assert_eq!((f.ord, f.client_id), (PANICKER, PANICKER));
                f.ord
            }
        };
        assert!(resolved.insert(ord), "ordinal {ord} resolved twice");
    })
    .expect("pool alive");
    assert_eq!(resolved, (0..N).collect::<BTreeSet<_>>());

    // The pool survives the unwind and serves the next cohort, which the
    // previous cohort's cost now sizes.
    let work = (0..N).map(|ord| make_work(&w, &ctx, ord)).collect();
    let mut completed = 0;
    pool.run_cohort(work, |done| match done {
        ClientDone::Completed(_) => completed += 1,
        ClientDone::Failed(f) => panic!("fault-free client failed: {}", f.panic_msg),
    })
    .expect("pool alive");
    assert_eq!(completed, N);
    // Nothing is left over for the one-client API.
    assert!(matches!(
        pool.recv_timeout(Duration::from_millis(20)),
        Err(ExecutorError::Timeout)
    ));
}
