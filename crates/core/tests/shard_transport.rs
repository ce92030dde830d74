//! Failover table: whatever happens to a shard, the trajectory is the
//! in-process one.
//!
//! The shard layer has one failure rule — a link fault, a failed (re)spawn,
//! handshake or dispatch, or an io timeout kills the child and runs the
//! shard's outstanding `ClientWork` on the root's local executor — so every
//! way of losing a shard must produce round records, final parameters and a
//! canonical trace bit-identical to a run that never left the process, for
//! every topology in the parity matrix, with client-side chaos faults still
//! on. `n_reassigned > 0` proves the failover path (not a lucky healthy run)
//! produced the result, and the offstream trace must say which check fired
//! and which ordinals moved. Every case runs inside a watchdog so a bug that
//! wedges the coordinator fails fast instead of hanging the suite.
//! `scripts/check.sh` runs this suite in release mode too.

use fedca_core::config::{FaultConfig, FlConfig};
use fedca_core::metrics::RoundRecord;
use fedca_core::trace::{TraceConfig, TraceEvent};
use fedca_core::{Scheme, Trainer, Workload};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

// Re-exec entry point: the coordinator spawns this very test binary as
// its shard child processes (see `shard::test_child_args`).
fedca_core::shard_child_entry!();

/// A second re-exec entry point: a child that connects and then never says
/// a word — no `Hello`, no pongs. Without the socket variable it is an
/// instant no-op pass, like `shard_child_entry`.
#[test]
fn mute_child_entry() {
    if let Ok(path) = std::env::var(fedca_core::shard::ENV_SOCKET) {
        let _stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
        thread::sleep(Duration::from_secs(600));
    }
}

const SEED: u64 = 47;
const ROUNDS: usize = 4;

/// Hard wall-clock budget for one guarded run. Failover costs a process
/// kill and a local re-run, plus a sub-second watchdog in the timeout
/// scenarios; the budget is generous so loaded CI machines never flake,
/// while a true hang (an unbounded wait) still fails fast.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `f` on its own thread and panics if it does not finish within the
/// watchdog budget — the no-hang assertion every case rides on.
fn run_guarded<T, F>(label: &str, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(format!("failover-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog subject");
    let out = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("failover case `{label}` hung or died: {e:?}"));
    handle
        .join()
        .expect("failover case panicked after reporting");
    out
}

/// Client-side chaos stays ON: losing a shard must be invisible even while
/// clients crash, panic, and lose results in virtual time.
fn base_fl() -> FlConfig {
    FlConfig {
        n_clients: 12,
        clients_per_round: 6,
        local_iters: 4,
        batch_size: 8,
        seed: SEED,
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
        ..FlConfig::scaled()
    }
}

fn sharded_fl(shards: usize, child_entry: &str) -> FlConfig {
    let mut fl = base_fl();
    fl.shard.n_shards = shards;
    fl.shard.child_args = vec![child_entry.into(), "--exact".into(), "--nocapture".into()];
    fl
}

fn trainer(fl: FlConfig, n_workers: usize) -> Trainer {
    let mut t = Trainer::new_with_workers(
        fl,
        Scheme::fedca_default(),
        Workload::tiny_mlp(SEED),
        n_workers,
    );
    t.eval_every = 2;
    t
}

type Fingerprint = (Vec<RoundRecord>, Vec<f32>, String);

fn fingerprint(t: &Trainer) -> Fingerprint {
    (
        t.records().iter().map(RoundRecord::canonical).collect(),
        t.global_params().to_vec(),
        t.tracer().canonical_jsonl(),
    )
}

/// The in-process reference trajectory, computed once.
fn reference() -> &'static Fingerprint {
    static REF: OnceLock<Fingerprint> = OnceLock::new();
    REF.get_or_init(|| {
        let mut t = trainer(base_fl(), 2);
        t.run(ROUNDS);
        fingerprint(&t)
    })
}

/// SIGSTOPs a process: it stays connected and alive but does nothing, so
/// no EOF, no error and no frame ever reaches the coordinator — only the
/// heartbeat can tell. Returns once every thread of the process reads
/// stopped: `kill` only leaves the signal pending, and on a busy host the
/// child's woken main thread can wait for a CPU longer than a `tiny_mlp`
/// round takes — the child then serves the whole round "stopped".
fn sigstop(pid: u32) {
    let status = std::process::Command::new("sh")
        .args(["-c", &format!("kill -STOP {pid}")])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -STOP {pid} failed");
    let all_stopped = || {
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("child is alive");
        tasks.flatten().all(|task| {
            // "tid (comm) S …": the state letter follows the last ')'.
            let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
            let state = stat.rsplit(')').next().unwrap_or_default();
            state.trim_start().starts_with('T')
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !all_stopped() {
        assert!(Instant::now() < deadline, "pid {pid} never stopped");
        thread::sleep(Duration::from_millis(1));
    }
}

/// One way of losing shards: how to configure the federation, what to do
/// to the pool before each round, and what the quarantine reason must name.
struct Scenario {
    name: &'static str,
    configure: fn(usize) -> FlConfig,
    before_round: fn(&mut Trainer, usize, usize),
    reason_names: &'static str,
}

fn healthy_children(shards: usize) -> FlConfig {
    sharded_fl(shards, "shard_child_entry")
}

fn kill_plan(t: &mut Trainer, round: usize, shard: usize, after_done: usize) {
    t.shard_pool_mut()
        .expect("trainer is sharded")
        .schedule_kill(round, shard, after_done);
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "kill at dispatch",
        configure: healthy_children,
        before_round: |t, round, shards| {
            for s in 0..shards {
                kill_plan(t, round, s, 0);
            }
        },
        reason_names: "killed by kill plan",
    },
    Scenario {
        // Six clients over at most four shards: some shard always has two,
        // so the even rounds' kill after one event always strands an
        // ordinal; the odd rounds kill after two.
        name: "kill after k events",
        configure: healthy_children,
        before_round: |t, round, shards| {
            for s in 0..shards {
                kill_plan(t, round, s, 1 + round % 2);
            }
        },
        reason_names: "killed by kill plan",
    },
    Scenario {
        name: "alternating kill every round",
        configure: healthy_children,
        before_round: |t, round, shards| {
            kill_plan(t, round, round % shards, 0);
            kill_plan(t, round, (round + 1) % shards, 1);
        },
        reason_names: "killed by kill plan",
    },
    Scenario {
        name: "child that never says Hello",
        configure: |shards| {
            let mut fl = sharded_fl(shards, "mute_child_entry");
            fl.shard.handshake_timeout_secs = 0.3;
            fl
        },
        before_round: |_, _, _| {},
        reason_names: "handshake",
    },
    Scenario {
        name: "child stopped so only the heartbeat can notice",
        configure: |shards| {
            let mut fl = healthy_children(shards);
            fl.shard.heartbeat_period_ms = 40.0;
            fl.shard.heartbeat_missed_limit = 3;
            fl
        },
        // Round 1 stops every child (all were spawned with the pool), so
        // every ordinal of that round is stranded; by round 3 the shards
        // that had work in round 2 are back up.
        before_round: |t, round, shards| {
            if round % 2 == 0 {
                return;
            }
            let pool = t.shard_pool_mut().expect("trainer is sharded");
            let live: Vec<u32> = (0..shards)
                .filter_map(|s| pool.child_pid_for_test(s))
                .collect();
            assert!(!live.is_empty(), "round {round}: no live child to stop");
            live.into_iter().for_each(sigstop);
        },
        reason_names: "heartbeat",
    },
    Scenario {
        name: "every (re)spawn fails",
        // libtest finds no such test, runs nothing and exits before the
        // child ever connects.
        configure: |shards| sharded_fl(shards, "no_such_child_entry"),
        before_round: |_, _, _| {},
        reason_names: "failed to start shard process",
    },
];

#[test]
fn every_way_of_losing_a_shard_matches_the_in_process_run_on_every_topology() {
    // Force the reference before the sweep so its cost is not billed to
    // the first guarded case.
    let (ref_records, ref_params, ref_trace) = reference();
    for scenario in SCENARIOS {
        for shards in [1usize, 2, 4] {
            for workers in [1usize, 4] {
                let label = format!("{}: {shards} shards x {workers} workers", scenario.name);
                let (fp, reassigned, notes) = run_guarded(&label, move || {
                    let mut t = trainer((scenario.configure)(shards), workers);
                    for round in 0..ROUNDS {
                        (scenario.before_round)(&mut t, round, shards);
                        t.run_round();
                    }
                    let reassigned: usize = t.records().iter().map(|r| r.n_reassigned).sum();
                    let notes: Vec<TraceEvent> = t
                        .tracer()
                        .ring_records()
                        .into_iter()
                        .map(|rec| rec.event)
                        .filter(|ev| !ev.is_canonical())
                        .collect();
                    (fingerprint(&t), reassigned, notes)
                });
                assert_eq!(&fp.0, ref_records, "round records diverged [{label}]");
                assert_eq!(&fp.1, ref_params, "final parameters diverged [{label}]");
                assert_eq!(&fp.2, ref_trace, "canonical trace diverged [{label}]");
                assert!(reassigned > 0, "the failover path never ran [{label}]");
                // The trace stays auditable: every quarantine names the
                // check that fired, every re-run ordinal is journaled.
                let moved = notes
                    .iter()
                    .filter(|ev| matches!(ev, TraceEvent::OrdinalReassigned { .. }))
                    .count();
                assert_eq!(moved, reassigned, "unjournaled re-runs [{label}]");
                let reasons: Vec<&str> = notes
                    .iter()
                    .filter_map(|ev| match ev {
                        TraceEvent::ShardQuarantined { reason, .. } => Some(reason.as_str()),
                        _ => None,
                    })
                    .collect();
                assert!(
                    reasons.iter().any(|r| r.contains(scenario.reason_names)),
                    "no quarantine names `{}` [{label}]: {reasons:?}",
                    scenario.reason_names
                );
            }
        }
    }
}
