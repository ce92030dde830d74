//! One seed, one answer on every kernel tier, end to end: a FedCA study
//! leaves the same final parameters and the same round records whichever
//! tier of `fedca_tensor` computed it. The kernel suites (`gemm_parity`,
//! `tensor::simd`'s tests, `dataplane_parity`) prove it per kernel; this
//! is the one place it is checked through the layers, the optimizer, the
//! FedCA mechanisms and the aggregator at the scaled model shapes.
//!
//! Kernel dispatch latches once per process, so the test re-runs this
//! binary with `FEDCA_FORCE_KERNEL` set to each other available tier and
//! compares what the child prints.

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
    let exe = std::env::current_exe().expect("test binary path");
    for tier in available_kernels() {
        if tier == active_kernel() {
            continue;
        }
        let out = std::process::Command::new(&exe)
            .args(["--exact", CHILD, "--nocapture", "--test-threads", "1"])
            .env("FEDCA_FORCE_KERNEL", tier.name())
            .output()
            .expect("re-run the test binary");
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
