//! Direct coverage for the `ShardPool` API, mirroring `executor_api.rs` —
//! the pool speaks the executor's vocabulary, `ClientWork` in and
//! `ClientDone` out: every wait is bounded (an idle pool times out instead
//! of hanging), work dispatched with `begin_round` drains through
//! `recv_timeout` exactly once per item with the client's state coming
//! home, and a killed shard's outstanding ordinals are re-run in the root and
//! complete like any other — then the shard respawns lazily on the next
//! round that routes it work.

use fedca_core::client::RoundPlan;
use fedca_core::config::FlConfig;
use fedca_core::executor::{ClientDone, ClientWork, RoundCtx};
use fedca_core::params::ModelLayout;
use fedca_core::population::ClientFactory;
use fedca_core::shard::{DoneMsg, FromShard, ShardError, ShardPool};
use fedca_core::trace::TraceEvent;
use fedca_core::{Scheme, Workload};
use fedca_sim::faults::ClientFaults;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Re-exec entry point: the pool spawns this very test binary as its shard
// child processes (see `shard::test_child_args`).
fedca_core::shard_child_entry!();

const SEED: u64 = 77;

fn pool_fl(n_shards: usize) -> FlConfig {
    let mut fl = FlConfig {
        n_clients: 8,
        clients_per_round: 4,
        local_iters: 3,
        batch_size: 8,
        seed: SEED,
        ..FlConfig::scaled()
    };
    fl.shard.n_shards = n_shards;
    fl.shard.child_args = fedca_core::shard::test_child_args();
    fl
}

/// A pool plus what the root would hand it: the factory the shard children
/// derive their clients from, and the round context.
struct Fixture {
    pool: ShardPool,
    factory: ClientFactory,
    ctx: Arc<RoundCtx>,
}

fn make_pool(n_shards: usize) -> Fixture {
    let fl = pool_fl(n_shards);
    let scheme = Scheme::fedca_default();
    let workload = Workload::tiny_mlp(SEED);
    let spec = workload
        .spec
        .clone()
        .expect("tiny_mlp is a registry workload");
    let model = (workload.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    let pool = ShardPool::new(&fl, &scheme, spec, 1).expect("shard pool must come up");
    let factory = ClientFactory::new(&fl, &workload, layout.clone());
    let ctx = Arc::new(RoundCtx {
        layout,
        global: model.flat_params(),
        opts: scheme.client_options(),
        workload,
        fl,
    });
    Fixture { pool, factory, ctx }
}

impl Fixture {
    /// Clients `0..n` on their first participation, keyed `ord == id`.
    fn work(&self, round: usize, n: usize) -> Vec<ClientWork> {
        (0..n)
            .map(|ord| ClientWork {
                ord,
                client: self.factory.build(ord),
                plan: RoundPlan {
                    round,
                    start: 0.0,
                    deadline: 1e9,
                    planned_iters: 3,
                    is_anchor: false,
                    faults: ClientFaults::none(),
                },
                ctx: Arc::clone(&self.ctx),
            })
            .collect()
    }
}

fn ord_of(done: &ClientDone) -> usize {
    match done {
        ClientDone::Completed(c) => c.ord,
        ClientDone::Failed(f) => f.ord,
    }
}

#[test]
fn recv_timeout_on_an_idle_pool_returns_timeout_not_a_hang() {
    let mut fx = make_pool(1);
    let t0 = Instant::now();
    let result = fx.pool.recv_timeout(Duration::from_millis(30));
    let elapsed = t0.elapsed();
    // A timeout on an idle pool is a caller bug, not a stall: nothing is
    // outstanding, so the watchdog has nothing to kill and says so.
    assert!(
        matches!(result, Err(ShardError::Timeout)),
        "idle pool must time out, got {:?}",
        result.map(|d| ord_of(&d))
    );
    assert!(elapsed >= Duration::from_millis(30), "returned too early");
    assert!(
        elapsed < Duration::from_secs(5),
        "recv_timeout hung far past its bound: {elapsed:?}"
    );
}

#[test]
fn real_work_drains_through_recv_timeout_exactly_once_per_item() {
    let mut fx = make_pool(2);
    const N: usize = 4;
    fx.pool
        .begin_round(fx.work(0, N))
        .expect("dispatch on a healthy pool");
    let ords = drain_completed(&mut fx.pool, N, "work must resolve well within the bound");
    assert_eq!(ords, (0..N).collect::<BTreeSet<_>>());
    // The round is drained: the next bounded receive times out.
    assert!(matches!(
        fx.pool.recv_timeout(Duration::from_millis(20)),
        Err(ShardError::Timeout)
    ));
}

/// Drains `n` events, all of which must be completions with the client's
/// state home and its wire update aboard; returns their ordinals.
fn drain_completed(pool: &mut ShardPool, n: usize, what: &str) -> BTreeSet<usize> {
    let mut ords = BTreeSet::new();
    for _ in 0..n {
        match pool.recv_timeout(Duration::from_secs(60)).expect(what) {
            ClientDone::Completed(done) => {
                assert_eq!(done.client.id, done.ord, "work was keyed id == ord");
                assert_eq!(done.report.client_id, done.ord);
                assert_eq!(done.report.iters_done, 3);
                assert!(
                    done.client.uplink.busy_until() > 0.0,
                    "the trained state comes home"
                );
                let update = done.report.wire_update.as_ref();
                assert!(
                    update.is_some_and(|b| !b.is_empty()),
                    "a fault-free client's wire update travels with it"
                );
                assert!(ords.insert(done.ord), "ordinal {} twice", done.ord);
            }
            ClientDone::Failed(f) => panic!("{what}: healthy work failed: {}", f.panic_msg),
        }
    }
    ords
}

#[test]
fn killed_shard_reruns_outstanding_work_locally_then_respawns_lazily() {
    let mut fx = make_pool(1);
    const N: usize = 3;

    // Kill shard 0 at dispatch of round 0, before any work can land: the
    // root runs the cohort itself, and nothing is reported as failed.
    fx.pool.schedule_kill(0, 0, 0);
    fx.pool
        .begin_round(fx.work(0, N))
        .expect("dispatch still succeeds; the kill degrades to a local run");
    assert_eq!(fx.pool.child_pid_for_test(0), None, "the child is gone");
    let ords = drain_completed(&mut fx.pool, N, "the local results must already be queued");
    assert_eq!(ords, (0..N).collect::<BTreeSet<_>>());
    let notes = fx.pool.take_round_notes();
    let quarantines: Vec<_> = notes
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::ShardQuarantined { reason, .. } => Some(reason.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(quarantines, ["killed by kill plan"]);
    let reassigned = notes
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::OrdinalReassigned { shard: 0, .. }))
        .count();
    assert_eq!(reassigned, N, "every re-run ordinal is journaled");

    // The next round that routes the dead shard work respawns it, and the
    // same cohort now completes on the shard.
    fx.pool
        .begin_round(fx.work(1, N))
        .expect("lazy respawn on dispatch");
    assert!(fx.pool.child_pid_for_test(0).is_some(), "respawned");
    let ords = drain_completed(&mut fx.pool, N, "respawned shard must serve the round");
    assert_eq!(ords, (0..N).collect::<BTreeSet<_>>());
    assert!(
        fx.pool.take_round_notes().is_empty(),
        "a healthy round is silent"
    );
}

/// The handshake happens once, on the raw socket: a `Hello` arriving over
/// the link afterwards is a protocol fault like any other — the shard is
/// quarantined and every ordinal still completes exactly once.
#[test]
fn a_hello_after_the_handshake_is_a_protocol_fault() {
    let mut fx = make_pool(1);
    const N: usize = 3;
    fx.pool
        .begin_round(fx.work(0, N))
        .expect("dispatch on a healthy pool");
    let inc = fx.pool.incarnation_for_test(0);
    fx.pool
        .inject_msg_for_test(0, inc, FromShard::Hello { shard_id: 0 }, Vec::new());
    let ords = drain_completed(&mut fx.pool, N, "every ordinal must complete");
    assert_eq!(ords, (0..N).collect::<BTreeSet<_>>());
    let quarantines: Vec<_> = fx
        .pool
        .take_round_notes()
        .into_iter()
        .filter_map(|ev| match ev {
            TraceEvent::ShardQuarantined { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(quarantines, ["protocol: Hello after the handshake"]);
}

/// Exactly-once ingest property: duplicated, reordered, and
/// stale-incarnation `Done`/`Failed` frames injected straight into the
/// coordinator's event queue resolve each ordinal exactly once, never
/// double-fold, and never wedge the pool. A link delivers each frame once
/// and dies on any sequence gap, so nothing but a test produces these; the
/// coordinator's ordinal-keyed claim must stay correct all the same. Randomized injection schedules are drawn from
/// a fixed-seed [`proptest::TestRng`] directly — each case drives real
/// shard processes, so the shim's fixed 256-case `proptest!` loop would
/// be prohibitive.
#[test]
fn injected_duplicate_and_stale_frames_never_double_resolve_an_ordinal() {
    let mut fx = make_pool(1);
    const N: usize = 3;

    // Round 0: run clean and re-encode the completions as the socket
    // messages to replay.
    fx.pool
        .begin_round(fx.work(0, N))
        .expect("dispatch on a healthy pool");
    let mut captured: Vec<(DoneMsg, Vec<u8>)> = Vec::new();
    for _ in 0..N {
        match fx
            .pool
            .recv_timeout(Duration::from_secs(60))
            .expect("round 0 must resolve")
        {
            ClientDone::Completed(done) => {
                let (msg, payload) = DoneMsg::from_completion(0, done);
                captured.push((msg, payload.expect("fault-free client sent its update")));
            }
            ClientDone::Failed(f) => panic!("clean round failed: {}", f.panic_msg),
        }
    }
    assert_eq!(captured.len(), N);

    let mut rng = proptest::TestRng::new(0xD0D0_CAFE);
    for case in 0..3usize {
        let round = case + 1;
        fx.pool.begin_round(fx.work(round, N)).expect("dispatch");
        let inc = fx.pool.incarnation_for_test(0);
        // Storm the queue with ghosts in a randomized order, racing the
        // shard's real events: current-incarnation duplicates (round
        // rewritten so only the ordinal dedup can reject the extras),
        // stale-incarnation copies (must be discarded wholesale), and
        // duplicate Failed frames for already-raced ordinals.
        for _ in 0..8 {
            let pick = (0usize..N).sample(&mut rng);
            let (msg, payload) = &captured[pick];
            let mut msg = msg.clone();
            msg.round = round;
            let stale = (0usize..4).sample(&mut rng) == 0;
            let use_inc = if stale { inc.wrapping_sub(1) } else { inc };
            if (0usize..4).sample(&mut rng) == 0 {
                fx.pool.inject_msg_for_test(
                    0,
                    use_inc,
                    FromShard::Failed {
                        round,
                        ord: msg.ord,
                        client_id: msg.client_id,
                        panic_msg: "ghost failure".into(),
                    },
                    Vec::new(),
                );
            } else {
                fx.pool
                    .inject_msg_for_test(0, use_inc, FromShard::Done(msg), payload.clone());
            }
        }
        // Exactly N resolutions, one per ordinal, whichever copy won.
        let mut resolved = BTreeSet::new();
        for _ in 0..N {
            let done = fx
                .pool
                .recv_timeout(Duration::from_secs(60))
                .expect("each ordinal must resolve exactly once");
            let ord = ord_of(&done);
            assert!(resolved.insert(ord), "ordinal {ord} resolved twice");
        }
        assert_eq!(resolved, (0..N).collect::<BTreeSet<_>>());
        // Fully drained: no ghost may produce an extra event, and nothing
        // is outstanding (the timeout is idleness, not a stall).
        assert!(matches!(
            fx.pool.recv_timeout(Duration::from_millis(30)),
            Err(ShardError::Timeout)
        ));
    }
}

#[test]
fn mid_round_kill_reruns_exactly_the_unresolved_ordinals() {
    let mut fx = make_pool(1);
    const N: usize = 3;

    // Let exactly one event land, then kill the shard: the remaining two
    // ordinals must complete on the root without any unbounded wait.
    fx.pool.schedule_kill(0, 0, 1);
    fx.pool
        .begin_round(fx.work(0, N))
        .expect("dispatch on a healthy pool");
    let t0 = Instant::now();
    let ords = drain_completed(&mut fx.pool, N, "every ordinal must complete");
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "kill path must not consume the full receive bound"
    );
    assert_eq!(ords, (0..N).collect::<BTreeSet<_>>());
    let reassigned = fx
        .pool
        .take_round_notes()
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::OrdinalReassigned { .. }))
        .count();
    assert_eq!(reassigned, N - 1, "the kill fires after exactly one event");
}
