//! End-to-end compression equivalence suite: the upload path now frames
//! every round through the `compress::wire` codec, so these tests pin down
//! (1) that `Compression::None` is a bit-exact no-op, (2) that the
//! deterministic quantizers keep the repo's reproducibility guarantees —
//! identical trajectories across worker counts, store residency modes, and
//! checkpoint/resume (error-feedback residuals included) — and (3) that
//! quantized uploads genuinely shrink the bytes the virtual network carries
//! while still learning.

use fedca_compress::Compression;
use fedca_core::config::{FaultConfig, FlConfig};
use fedca_core::metrics::RoundRecord;
use fedca_core::trace::TraceConfig;
use fedca_core::{Scheme, Trainer, Workload};

const SEED: u64 = 29;
const ROUNDS: usize = 4;

/// A small FedCA chaos study (eager transmission on) with the given
/// compression — every autonomy mechanism exercises the wire path.
fn study_fl(compression: Compression) -> FlConfig {
    FlConfig {
        n_clients: 8,
        clients_per_round: 4,
        local_iters: 6,
        batch_size: 8,
        lr: 0.05,
        weight_decay: 0.0,
        aggregation_fraction: 0.9,
        dirichlet_alpha: 0.5,
        seed: SEED,
        heterogeneity: true,
        dynamicity: true,
        dropout_prob: 0.0,
        compression,
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
        checkpoint: Default::default(),
        population: Default::default(),
        shard: Default::default(),
    }
}

fn run_study(fl: FlConfig, rounds: usize, n_workers: usize) -> Trainer {
    let mut t = Trainer::new_with_workers(
        fl,
        Scheme::fedca_default(),
        Workload::tiny_mlp(SEED),
        n_workers,
    );
    t.eval_every = 2;
    t.run(rounds);
    t
}

/// The record's canonical half, round by round.
fn canonical(t: &Trainer) -> Vec<RoundRecord> {
    t.records().iter().map(RoundRecord::canonical).collect()
}

fn assert_same_trajectory(a: &Trainer, b: &Trainer, label: &str) {
    assert_eq!(canonical(a), canonical(b), "{label}: records");
    assert_eq!(
        a.global_params(),
        b.global_params(),
        "{label}: final global parameters"
    );
    assert_eq!(
        a.tracer().canonical_jsonl(),
        b.tracer().canonical_jsonl(),
        "{label}: canonical trace"
    );
}

// ---------------------------------------------------------------------------
// Compression::None is a bit-exact no-op through the wire framing.
// ---------------------------------------------------------------------------

/// Dense payloads round-trip bit-exactly, so routing every upload through
/// encode/decode must not move a single byte of the trajectory — and the
/// exact wire accounting must price dense frames at ratio 1.0.
#[test]
fn none_compression_reports_ratio_one_and_counts_real_bytes() {
    let t = run_study(study_fl(Compression::None), ROUNDS, 2);
    for r in t.records() {
        assert!(
            r.wire_bytes_dense > 0.0,
            "round {}: no wire bytes accounted",
            r.round
        );
        assert_eq!(
            r.wire_bytes_uploaded, r.wire_bytes_dense,
            "round {}: dense frames must cost exactly their dense size",
            r.round
        );
        assert_eq!(r.compression_ratio(), 1.0, "round {}", r.round);
    }
}

// ---------------------------------------------------------------------------
// Deterministic quantization preserves the reproducibility guarantees.
// ---------------------------------------------------------------------------

/// Int8 uploads (with eager transmission on) are bit-identical between a
/// 1-worker and a 4-worker pool: compression must not observe scheduling.
#[test]
fn quantized_trajectory_is_identical_across_worker_counts() {
    let one = run_study(study_fl(Compression::Int8), ROUNDS, 1);
    let four = run_study(study_fl(Compression::Int8), ROUNDS, 4);
    assert_same_trajectory(&one, &four, "int8 1w vs 4w");
}

/// Int8 uploads are bit-identical between an unbounded client store and a
/// tiny residency cap: error-feedback residuals survive eviction and
/// rehydration exactly.
#[test]
fn quantized_trajectory_is_identical_lazy_vs_eager_store() {
    let eager = run_study(study_fl(Compression::Int8), ROUNDS, 2);
    let mut capped_fl = study_fl(Compression::Int8);
    capped_fl.population.cache_clients = 2;
    let capped = run_study(capped_fl, ROUNDS, 2);
    assert_same_trajectory(&eager, &capped, "int8 unbounded vs capped store");
}

/// Kill-at-every-round sweep under Int8: snapshotting after round `k` and
/// resuming a fresh trainer reproduces the uninterrupted run's remaining
/// records, final parameters, *and* every client's error-feedback residual
/// bit for bit.
#[test]
fn checkpoint_resume_restores_quantization_residuals_bit_identically() {
    let mut reference = Trainer::new_with_workers(
        study_fl(Compression::Int8),
        Scheme::fedca_default(),
        Workload::tiny_mlp(SEED),
        2,
    );
    reference.eval_every = 2;
    reference.run(ROUNDS);
    let ref_records = canonical(&reference);
    let ref_params = reference.global_params().to_vec();
    let ref_residuals: Vec<Vec<f32>> = (0..8)
        .map(|id| reference.client(id).error_feedback.snapshot())
        .collect();
    assert!(
        ref_residuals.iter().any(|r| !r.is_empty()),
        "no client ever exercised error feedback — the sweep proves nothing"
    );

    for k in 1..ROUNDS {
        let mut first = Trainer::new_with_workers(
            study_fl(Compression::Int8),
            Scheme::fedca_default(),
            Workload::tiny_mlp(SEED),
            2,
        );
        first.eval_every = 2;
        first.run(k);
        let env = first.snapshot().expect("snapshot");
        drop(first); // the "kill": nothing survives but the envelope

        let mut resumed = Trainer::new_with_workers(
            study_fl(Compression::Int8),
            Scheme::fedca_default(),
            Workload::tiny_mlp(SEED),
            2,
        );
        resumed.eval_every = 2;
        resumed.restore(&env).expect("restore");
        resumed.run(ROUNDS - k);

        assert_eq!(
            canonical(&resumed),
            ref_records,
            "kill after round {k}: records"
        );
        assert_eq!(
            resumed.global_params(),
            ref_params.as_slice(),
            "kill after round {k}: final parameters"
        );
        for (id, residual) in ref_residuals.iter().enumerate() {
            assert_eq!(
                &resumed.client(id).error_feedback.snapshot(),
                residual,
                "kill after round {k}: client {id} residual"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Eager transmission × compression (previously rejected) now composes.
// ---------------------------------------------------------------------------

/// Regression for the removed `Trainer::new` assertion: FedCA with eager
/// transmission *and* compression is accepted, eager sends still fire, and
/// both they and the final payloads ride the wire at the compressed size.
#[test]
fn eager_with_compression_is_accepted_and_shrinks_uploads() {
    let full = run_study(study_fl(Compression::None), ROUNDS, 2);
    let int8 = run_study(study_fl(Compression::Int8), ROUNDS, 2);

    let eager_sends: usize = int8.records().iter().map(|r| r.eager_events.len()).sum();
    assert!(eager_sends > 0, "study never eager-transmitted");

    let (full_up, full_dense): (f64, f64) = full.records().iter().fold((0.0, 0.0), |(u, d), r| {
        (u + r.wire_bytes_uploaded, d + r.wire_bytes_dense)
    });
    let (int8_up, int8_dense): (f64, f64) = int8.records().iter().fold((0.0, 0.0), |(u, d), r| {
        (u + r.wire_bytes_uploaded, d + r.wire_bytes_dense)
    });
    assert_eq!(full_up, full_dense, "uncompressed ratio must be exactly 1");
    // Int8 is 1 byte + framing per element vs 4: comfortably under 30%.
    let ratio = int8_up / int8_dense;
    assert!(
        ratio < 0.30,
        "int8 wire ratio {ratio:.3} not under 0.30 ({int8_up:.0}/{int8_dense:.0})"
    );
    // The simulated network observes the shrink too (virtual byte pricing).
    let full_bytes: f64 = full.records().iter().map(|r| r.bytes_uploaded).sum();
    let int8_bytes: f64 = int8.records().iter().map(|r| r.bytes_uploaded).sum();
    assert!(
        int8_bytes < 0.30 * full_bytes,
        "virtual bytes {int8_bytes:.0} not under 30% of {full_bytes:.0}"
    );
}

/// F16 composes the same way at a ~2× shrink and also keeps worker-count
/// bit-identity (it is fully deterministic).
#[test]
fn f16_trajectory_is_deterministic_and_halves_uploads() {
    let one = run_study(study_fl(Compression::F16), ROUNDS, 1);
    let four = run_study(study_fl(Compression::F16), ROUNDS, 4);
    assert_same_trajectory(&one, &four, "f16 1w vs 4w");
    for r in one.records() {
        if r.wire_bytes_dense > 0.0 {
            let ratio = r.compression_ratio();
            assert!(
                (0.45..0.60).contains(&ratio),
                "round {}: f16 ratio {ratio:.3} not ~0.5",
                r.round
            );
        }
    }
}

/// Quantized FedCA still learns: same study, and the quantized run's best
/// accuracy lands within a few points of full precision on this small
/// fixed-seed task (the release study in `tta_quantized` checks the
/// paper-scale 1% bound).
#[test]
fn quantized_study_still_learns() {
    let full = run_study(study_fl(Compression::None), 6, 2);
    let int8 = run_study(study_fl(Compression::Int8), 6, 2);
    let full_best = full.output().best_accuracy();
    let int8_best = int8.output().best_accuracy();
    assert!(
        int8_best >= full_best - 0.10,
        "int8 best accuracy {int8_best:.3} fell more than 10 points below \
         full precision {full_best:.3}"
    );
}
