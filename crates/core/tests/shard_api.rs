//! Direct coverage for the `ShardPool` API, mirroring `executor_api.rs` —
//! the pool speaks the executor's vocabulary, `ClientWork` in and
//! `ClientDone` out: every wait is bounded (an idle pool times out instead
//! of hanging), work dispatched with `begin_round` drains through
//! `recv_timeout` exactly once per item with the client's state coming
//! home, and a message the protocol does not allow is a fault that shuts
//! the pool down.

use fedca_core::client::RoundPlan;
use fedca_core::config::FlConfig;
use fedca_core::executor::{ClientDone, ClientWork, RoundCtx};
use fedca_core::params::ModelLayout;
use fedca_core::population::ClientFactory;
use fedca_core::shard::{FromShard, ShardError, ShardPool, ENV_SHARD_ID, ENV_SOCKET};
use fedca_core::transport::{encode_message, read_frame, MAX_FRAME_LEN};
use fedca_core::{Scheme, Workload};
use fedca_sim::faults::ClientFaults;
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Re-exec entry point: the pool spawns this very test binary as its shard
// child processes (see `shard::test_child_args`).
fedca_core::shard_child_entry!();

/// A second re-exec entry point: a child that completes the handshake, then
/// sends another `Hello` as its first link frame and reads until the
/// coordinator hangs up. Without the socket variable it is an instant no-op
/// pass, like `shard_child_entry`.
#[test]
fn second_hello_child_entry() {
    let Ok(path) = std::env::var(ENV_SOCKET) else {
        return;
    };
    let shard_id = std::env::var(ENV_SHARD_ID).unwrap().parse().unwrap();
    let hello = |seq| encode_message(seq, &FromShard::Hello { shard_id }, None).unwrap();
    let mut stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    read_frame(&mut stream, MAX_FRAME_LEN).expect("read Init");
    stream.write_all(&hello(0)).expect("send Hello");
    stream.write_all(&hello(0)).expect("send the second Hello");
    while let Ok(Some(_)) = read_frame(&mut stream, MAX_FRAME_LEN) {}
}

const SEED: u64 = 77;

fn pool_fl(n_shards: usize, child_entry: &str) -> FlConfig {
    let mut fl = FlConfig {
        n_clients: 8,
        clients_per_round: 4,
        local_iters: 3,
        batch_size: 8,
        seed: SEED,
        ..FlConfig::scaled()
    };
    fl.shard.n_shards = n_shards;
    fl.shard.child_args = vec![child_entry.into(), "--exact".into(), "--nocapture".into()];
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
    make_pool_of(n_shards, "shard_child_entry")
}

fn make_pool_of(n_shards: usize, child_entry: &str) -> Fixture {
    let fl = pool_fl(n_shards, child_entry);
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

/// The handshake happens once, on the raw socket: a `Hello` arriving over
/// the link afterwards is a protocol fault, which names the shard, kills
/// every child and leaves the pool shut down.
#[test]
fn a_hello_after_the_handshake_is_a_protocol_fault() {
    let mut fx = make_pool_of(1, "second_hello_child_entry");
    fx.pool
        .begin_round(fx.work(0, 3))
        .expect("dispatch on a pool that is up");
    match fx.pool.recv_timeout(Duration::from_secs(60)) {
        Err(ShardError::Protocol(why)) => {
            assert_eq!(why, "shard 0: Hello after the handshake")
        }
        other => panic!(
            "expected a protocol fault, got {:?}",
            other.map(|d| ord_of(&d))
        ),
    }
    assert!(matches!(
        fx.pool.begin_round(fx.work(1, 3)),
        Err(ShardError::Disconnected)
    ));
}
