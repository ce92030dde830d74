//! End-to-end compression equivalence suite: the upload path now frames
//! every round through the `compress::wire` codec, so these tests pin down
//! (1) that `Compression::None` is a bit-exact no-op, (2) that the
//! deterministic quantizers keep the repo's reproducibility guarantees —
//! identical trajectories across worker counts and store residency modes,
//! error-feedback residuals included, so eviction's dirty overlay carries
//! every residual through bit for bit — and (3) that
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
        compression,
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
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
/// rehydration exactly — the trajectory matches, and so does every
/// client's residual at the end.
#[test]
fn quantized_trajectory_is_identical_lazy_vs_eager_store() {
    let mut eager = run_study(study_fl(Compression::Int8), ROUNDS, 2);
    let mut capped_fl = study_fl(Compression::Int8);
    capped_fl.population.cache_clients = 2;
    let mut capped = run_study(capped_fl, ROUNDS, 2);
    assert_same_trajectory(&eager, &capped, "int8 unbounded vs capped store");

    // Every participant beyond the cap now sits in the dirty overlay, so
    // reading its residual rehydrates it from there.
    assert!(
        capped.store().n_dirty() > 0,
        "the cap never evicted a participant"
    );
    let residuals = |t: &mut Trainer| -> Vec<Vec<u32>> {
        (0..8)
            .map(|id| {
                let r = t.client(id).error_feedback.snapshot();
                r.iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    };
    let eager_residuals = residuals(&mut eager);
    assert!(
        eager_residuals.iter().any(|r| !r.is_empty()),
        "no client ever exercised error feedback — the comparison proves nothing"
    );
    assert_eq!(
        eager_residuals,
        residuals(&mut capped),
        "error-feedback residuals differ between the unbounded and the capped store"
    );
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
