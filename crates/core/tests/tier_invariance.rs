//! One seed, one answer on every kernel tier, end to end: a FedCA study
//! leaves the same final parameters and the same round records whichever
//! tier of `fedca_tensor` computed it. The kernel suites (`gemm_parity`,
//! `tensor::simd`'s tests, `dataplane_parity`) prove it per kernel; this
//! is the one place it is checked through the layers, the optimizer, the
//! FedCA mechanisms and the aggregator at the scaled model shapes.
//!
//! Kernel dispatch latches once per process, so the test re-runs this
//! binary with `FEDCA_FORCE_KERNEL` set to each other available tier and
//! compares what the child prints. The same method checks that a tier the
//! override cannot name fails the run once, before any round.

use fedca_core::config::FlConfig;
use fedca_core::workload::Scale;
use fedca_core::{Scheme, Trainer, Workload};
use fedca_tensor::gemm::{active_kernel, available_kernels};
use std::sync::OnceLock;

const SEED: u64 = 23;
const ROUNDS: usize = 2;
/// The test a child runs, and the line it prints its fingerprint on.
const CHILD: &str = "trajectory_fingerprint";
const MARK: &str = "tier-invariance fingerprint: ";
/// The test a child runs to build a trainer and print each round's outcome.
const ROUNDS_CHILD: &str = "tiny_rounds_print_their_outcome";
const ROUND_MARK: &str = "tier-invariance round: ";

/// Re-runs this binary's test `name` alone with `FEDCA_FORCE_KERNEL=tier`.
fn child(name: &str, tier: &str) -> std::process::Output {
    let exe = std::env::current_exe().expect("test binary path");
    std::process::Command::new(exe)
        .args(["--exact", name, "--nocapture", "--test-threads", "1"])
        .env("FEDCA_FORCE_KERNEL", tier)
        .output()
        .expect("re-run the test binary")
}

/// What a run computed, as text: the bits of every final parameter and each
/// round's `end`, `mean_train_loss` and `iters_done`.
fn study(workload: Workload) -> String {
    let fl = FlConfig {
        seed: SEED,
        ..FlConfig::scaled()
    };
    let mut t = Trainer::new_with_workers(fl, Scheme::fedca_default(), workload, 2);
    t.eval_every = 0;
    t.run(ROUNDS);
    let params: Vec<u32> = t.global_params().iter().map(|v| v.to_bits()).collect();
    let rounds: Vec<_> = t
        .records()
        .iter()
        .map(|r| (r.end.to_bits(), r.mean_train_loss.to_bits(), &r.iters_done))
        .collect();
    format!("{rounds:?} {params:x?}")
}

/// Both studies on this process's tier, computed once.
fn fingerprint() -> &'static str {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    FINGERPRINT.get_or_init(|| {
        let cnn = study(Workload::cnn(Scale::Scaled, SEED));
        let lstm = study(Workload::lstm(Scale::Scaled, SEED));
        format!("cnn {cnn} lstm {lstm}")
    })
}

#[test]
fn trajectory_fingerprint() {
    println!("{MARK}{}", fingerprint());
}

#[test]
fn every_other_available_tier_computes_the_same_trajectory() {
    for tier in available_kernels() {
        if tier == active_kernel() {
            continue;
        }
        let out = child(CHILD, tier.name());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let theirs = stdout.lines().find_map(|l| Some(l.split_once(MARK)?.1));
        assert!(
            out.status.success() && theirs.is_some(),
            "tier {}: {stdout}\n{}",
            tier.name(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            theirs == Some(fingerprint()),
            "tier {} and tier {} computed different trajectories",
            tier.name(),
            active_kernel().name()
        );
    }
}

#[test]
fn tiny_rounds_print_their_outcome() {
    let fl = FlConfig {
        n_clients: 8,
        clients_per_round: 4,
        local_iters: 2,
        batch_size: 8,
        seed: SEED,
        ..FlConfig::scaled()
    };
    let mut t = Trainer::new_with_workers(fl, Scheme::FedAvg, Workload::tiny_mlp(SEED), 2);
    t.eval_every = 0;
    for r in t.run(3).rounds {
        println!(
            "{ROUND_MARK}selected {} aggregated {} crashed {}",
            r.n_selected, r.n_aggregated, r.n_crashed
        );
    }
}

/// The tier latches on the thread that builds the trainer, so a name the
/// override does not know panics there, once, and no round runs. (Latched
/// lazily in a worker's first GEMM, it failed every client of every round
/// instead, and the run exited 0.)
#[test]
fn a_bad_forced_tier_fails_once_while_the_trainer_is_built() {
    let out = child(ROUNDS_CHILD, "bogus");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ctx = format!("stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(!out.status.success(), "the child must fail\n{ctx}");
    assert!(
        stderr.contains(r#"FEDCA_FORCE_KERNEL="bogus": expected scalar, avx2 or avx512"#),
        "the override's message must be printed\n{ctx}"
    );
    assert_eq!(
        stderr.matches("panicked at").count(),
        1,
        "exactly one panic\n{ctx}"
    );
    assert!(
        stderr.lines().any(|l| {
            l.starts_with(&format!("thread '{ROUNDS_CHILD}'")) && l.contains("panicked at")
        }),
        "the panic must be on the thread that builds the trainer\n{ctx}"
    );
    assert!(!stdout.contains(ROUND_MARK), "no round may run\n{ctx}");
}
