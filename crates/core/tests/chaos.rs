//! Chaos harness: whole-federation runs under deterministic fault
//! injection, swept across seeds and fault mixes.
//!
//! Every run executes inside a watchdog thread with a hard wall-clock
//! budget, so a regression that deadlocks the round executor (a worker
//! dying without reporting, a `recv()` that blocks forever) fails the test
//! instead of hanging the suite. The sweep width is controlled by the
//! `FEDCA_CHAOS_SEEDS` environment variable (default 8 so plain
//! `cargo test` stays fast; `scripts/chaos.sh` runs the full 32-seed
//! acceptance sweep).

use fedca_core::config::FaultConfig;
use fedca_core::metrics::TrainerOutput;
use fedca_core::runner::Trainer;
use fedca_core::trace::TraceConfig;
use fedca_core::{FlConfig, Scheme, Workload};
use fedca_sim::faults::FaultPlan;
use proptest::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Hard wall-clock budget for one guarded federation run. Fault-free runs
/// of this size finish in well under a second; the budget is generous so
/// loaded CI machines never flake, while a true deadlock still fails fast.
const WATCHDOG: Duration = Duration::from_secs(120);

fn chaos_seeds() -> Vec<u64> {
    let n: u64 = std::env::var("FEDCA_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    (0..n).collect()
}

fn tiny_fl(seed: u64, faults: FaultConfig) -> FlConfig {
    FlConfig {
        n_clients: 8,
        clients_per_round: 4,
        local_iters: 6,
        batch_size: 8,
        lr: 0.05,
        weight_decay: 0.0,
        aggregation_fraction: 0.9,
        dirichlet_alpha: 0.5,
        seed,
        heterogeneity: true,
        dynamicity: true,
        compression: Default::default(),
        faults,
        trace: Default::default(),
        population: Default::default(),
        shard: Default::default(),
    }
}

/// Runs `f` on its own thread and panics if it does not finish within the
/// watchdog budget — the no-deadlock/no-hang assertion every chaos case
/// rides on.
fn run_guarded<T, F>(label: &str, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(format!("chaos-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog subject");
    let out = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("chaos case `{label}` hung or died: {e:?}"));
    handle.join().expect("chaos case panicked after reporting");
    out
}

/// Three qualitatively different fault mixes per seed: an everything-on
/// chaos mix, a panic/crash-heavy mix, and a network-degradation mix.
fn mixes_for(seed: u64) -> Vec<(&'static str, FaultConfig)> {
    let chaos = FaultConfig::chaos(seed);
    let process = FaultConfig {
        crash_prob: 0.3,
        panic_prob: 0.3,
        ..FaultConfig::chaos(seed ^ 0xBAD)
    };
    let network = FaultConfig {
        crash_prob: 0.0,
        panic_prob: 0.0,
        result_loss_prob: 0.2,
        result_delay_prob: 0.5,
        bandwidth_degrade_prob: 0.6,
        ..FaultConfig::chaos(seed ^ 0x2E7)
    };
    vec![("chaos", chaos), ("process", process), ("network", network)]
}

fn assert_invariants(out: &TrainerOutput, rounds: usize, label: &str) {
    assert_eq!(out.rounds.len(), rounds, "{label}: trainer stalled");
    let mut prev_end = 0.0f64;
    for r in &out.rounds {
        assert!(
            r.end.is_finite() && r.end >= r.start,
            "{label}: round {} has a broken clock ({} -> {})",
            r.round,
            r.start,
            r.end
        );
        assert!(
            r.start >= prev_end,
            "{label}: round {} started before round {} ended",
            r.round,
            r.round.wrapping_sub(1)
        );
        prev_end = r.end;
        assert_eq!(r.iters_done.len(), r.n_selected, "{label}: ragged record");
        assert_eq!(r.early_stops.len(), r.n_selected, "{label}: ragged record");
        // Every selected client is accounted for exactly once: aggregated,
        // or lost to one named cause (a lost result counts as a missed
        // deadline).
        assert_eq!(
            r.n_aggregated + r.n_crashed + r.n_deadline_missed + r.n_rejected,
            r.n_selected,
            "{label}: round {} accounts for the wrong number of clients: {r:?}",
            r.round
        );
    }
}

#[test]
fn chaos_sweep_never_hangs_and_keeps_round_invariants() {
    for seed in chaos_seeds() {
        for (mix_name, faults) in mixes_for(seed) {
            let label = format!("{mix_name}-{seed}");
            let fl = tiny_fl(seed.wrapping_add(1), faults);
            let out = run_guarded(&label, move || {
                Trainer::new(fl, Scheme::FedAvg, Workload::tiny_mlp(seed)).run(4)
            });
            assert_invariants(&out, 4, &label);
        }
    }
}

#[test]
fn zero_probability_faults_are_byte_identical_to_fault_free() {
    // Criterion from the issue: a fault-free `FaultPlan` must leave
    // trajectories byte-identical to a run without the fault layer. The
    // seed alone (with all probabilities zero) must perturb nothing.
    for seed in chaos_seeds().into_iter().take(4) {
        let mut zeroed = FaultConfig::none();
        zeroed.seed = 0xC0FFEE ^ seed;
        let base = run_guarded("byte-identity-base", move || {
            Trainer::new(
                tiny_fl(seed + 21, FaultConfig::none()),
                Scheme::fedca_default(),
                Workload::tiny_mlp(seed),
            )
            .run(3)
        });
        let faulted = run_guarded("byte-identity-faulted", move || {
            Trainer::new(
                tiny_fl(seed + 21, zeroed),
                Scheme::fedca_default(),
                Workload::tiny_mlp(seed),
            )
            .run(3)
        });
        assert_records_identical(&base, &faulted, "zero-prob faults");
    }
}

/// Round-by-round equality of the records' canonical halves.
fn assert_records_identical(a: &TrainerOutput, b: &TrainerOutput, label: &str) {
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round counts");
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(
            ra.canonical(),
            rb.canonical(),
            "{label}: round {} diverged",
            ra.round
        );
    }
}

#[test]
fn worker_count_never_changes_the_trajectory() {
    // Determinism regression: the same seed must produce bit-identical
    // round records whatever the pool's worker count — with faults off
    // and with every fault class enabled. The 48-client row's clients (K =
    // 2, ≈ 30–60 µs each on an optimized build) are cheap enough that from
    // its second round on the executor sends chunks of several clients,
    // and where the chunks fall differs with the worker count.
    for (population, cohort, k, workers) in [(8, 4, 6, 4), (64, 48, 2, 3)] {
        for (label, faults) in [
            ("fault-free", FaultConfig::none()),
            ("chaotic", FaultConfig::chaos(13)),
        ] {
            let fl = FlConfig {
                n_clients: population,
                clients_per_round: cohort,
                local_iters: k,
                ..tiny_fl(42, faults)
            };
            let run = |n_workers: usize| {
                let fl = fl.clone();
                run_guarded(label, move || {
                    Trainer::new_with_workers(
                        fl,
                        Scheme::fedca_default(),
                        Workload::tiny_mlp(9),
                        n_workers,
                    )
                    .run(4)
                })
            };
            let label = format!("{cohort} clients on {workers} workers, {label}");
            assert_records_identical(&run(1), &run(workers), &label);
        }
    }
}

#[test]
fn round_of_universal_panics_completes_instead_of_deadlocking() {
    // Regression for the executor hang: before the Failed-event protocol a
    // panicking client either unwound the trainer thread or (if the worker
    // died without reporting) blocked `recv()` forever. With panic_prob =
    // 1.0 every selected client dies every round; the round must still
    // close — at the server's deadline, with nothing aggregated.
    let faults = FaultConfig {
        panic_prob: 1.0,
        ..FaultConfig::none()
    };
    let out = run_guarded("all-panic", move || {
        Trainer::new(tiny_fl(3, faults), Scheme::FedAvg, Workload::tiny_mlp(2)).run(3)
    });
    assert_invariants(&out, 3, "all-panic");
    for r in &out.rounds {
        assert_eq!(r.n_crashed, r.n_selected, "every client must have died");
        assert_eq!(r.n_aggregated, 0, "a dead client's update was aggregated");
        assert!(r.end > r.start, "round must close at the deadline fallback");
        assert!(r.iters_done.iter().all(|&i| i == 0));
    }
}

#[test]
fn dropping_a_chaotic_trainer_joins_its_workers() {
    // Trainer drop must always join the pool, even right after rounds in
    // which workers caught injected panics. A leaked/deadlocked join would
    // trip the watchdog.
    run_guarded("drop-joins", || {
        let mut t = Trainer::new(
            tiny_fl(5, FaultConfig::chaos(5)),
            Scheme::FedAvg,
            Workload::tiny_mlp(4),
        );
        t.run(2);
        drop(t);
    });
}

/// An injected `corrupt_update` fault poisons the upload with NaNs, the
/// server's non-finite guard rejects it (counted in `n_rejected`), and the
/// aggregated global parameters stay finite.
#[test]
fn corrupt_updates_are_rejected_and_counted() {
    let faults = FaultConfig {
        corrupt_update_prob: 1.0,
        ..FaultConfig::none()
    };
    let fl = FlConfig {
        n_clients: 8,
        clients_per_round: 4,
        local_iters: 6,
        batch_size: 8,
        lr: 0.05,
        weight_decay: 0.0,
        aggregation_fraction: 0.9,
        dirichlet_alpha: 0.5,
        seed: 11,
        heterogeneity: true,
        dynamicity: true,
        compression: Default::default(),
        faults,
        trace: TraceConfig::enabled(),
        population: Default::default(),
        shard: Default::default(),
    };
    let mut t = Trainer::new_with_workers(fl, Scheme::fedca_default(), Workload::tiny_mlp(11), 2);
    t.eval_every = 0;
    t.run(3);
    for r in t.records() {
        assert_eq!(
            r.n_rejected, r.n_selected,
            "round {}: every upload is poisoned, every upload must be rejected",
            r.round
        );
        assert_eq!(r.n_aggregated, 0, "round {}: nothing aggregatable", r.round);
    }
    assert!(
        t.global_params().iter().all(|v| v.is_finite()),
        "NaN leaked into the global model"
    );
}

proptest! {
    #[test]
    fn fault_draws_are_deterministic_and_in_bounds(
        (seed, round, client, k, probs) in (0u64..1_000_000).prop_flat_map(|seed| (
            Just(seed),
            0usize..64,
            0usize..256,
            1usize..200,
            prop::collection::vec(0.0f64..1.0, 7),
        ))
    ) {
        let cfg = FaultConfig {
            seed,
            crash_prob: probs[0],
            panic_prob: probs[1],
            result_loss_prob: probs[2],
            result_delay_prob: probs[3],
            result_delay_max: 5.0,
            bandwidth_degrade_prob: probs[4],
            bandwidth_floor: 0.25,
            deadline_slip_prob: probs[5],
            deadline_slip_max: 10.0,
            corrupt_update_prob: probs[6],
        };
        let plan = FaultPlan::new(cfg.clone());
        let draw = plan.draw(round, client, k);
        // Deterministic: the same (seed, round, client) redraws identically
        // from an independently-built plan.
        prop_assert_eq!(&draw, &FaultPlan::new(cfg).draw(round, client, k));
        if let Some(it) = draw.crash_at_iter {
            prop_assert!((1..=k).contains(&it), "crash iter {} of {}", it, k);
        }
        if let Some(it) = draw.panic_at_iter {
            prop_assert!((1..=k).contains(&it), "panic iter {} of {}", it, k);
        }
        prop_assert!((0.0..=5.0).contains(&draw.result_delay));
        prop_assert!(draw.bandwidth_factor > 0.0 && draw.bandwidth_factor <= 1.0);
        prop_assert!((0.0..=10.0).contains(&draw.deadline_slip));
    }
}
