//! Kill-and-recover harness: checkpoint/restore must be *bit-identical* —
//! resuming a fixed-seed chaos study from a round-`k` generation reproduces
//! the uninterrupted run's remaining records, final global parameters, and
//! canonical trace suffix exactly, for every `k`. Corrupt generations
//! (truncation, bit flips) are detected by the container checksum and fall
//! back to the previous generation; when nothing valid remains, resume is a
//! hard error, never a hang.
//!
//! The in-process sweep here complements `scripts/recovery_check.sh`,
//! which performs the same experiment across a real `kill -9` on a release
//! study subprocess.

use fedca_core::checkpoint::CheckpointConfig;
use fedca_core::config::{FaultConfig, FlConfig};
use fedca_core::metrics::RoundRecord;
use fedca_core::trace::TraceConfig;
use fedca_core::{CheckpointError, Scheme, Trainer, Workload};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const SEED: u64 = 11;
const ROUNDS: usize = 5;
const EVAL_EVERY: usize = 2;

/// Hard wall-clock budget for one guarded resume. Generous so loaded CI
/// machines never flake; a true hang still fails fast.
const WATCHDOG: Duration = Duration::from_secs(120);

/// The fixed-seed chaos study behind the sweep: FedCA with every mechanism
/// on, chaos faults armed, tracing enabled.
fn study_fl(checkpoint: CheckpointConfig) -> FlConfig {
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
        compression: Default::default(),
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
        checkpoint,
        population: Default::default(),
        shard: Default::default(),
    }
}

fn study_trainer(checkpoint: CheckpointConfig, n_workers: usize) -> Trainer {
    let mut t = Trainer::new_with_workers(
        study_fl(checkpoint),
        Scheme::fedca_default(),
        Workload::tiny_mlp(SEED),
        n_workers,
    );
    t.eval_every = EVAL_EVERY;
    t
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedca-resume-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpoint_into(dir: &Path) -> CheckpointConfig {
    CheckpointConfig::to_dir(dir.to_string_lossy().into_owned())
}

/// Round-by-round equality of the records' canonical halves.
fn assert_records_identical(a: &[RoundRecord], b: &[RoundRecord], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: round counts");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(
            ra.canonical(),
            rb.canonical(),
            "{label}: round {} diverged",
            ra.round
        );
    }
}

/// Renders canonical lines with the `seq` field renumbered from 0, so a
/// resumed run's stream (whose emit counter restarts) can be compared
/// byte-for-byte against the matching window of the uninterrupted run.
fn renumbered(stream: &str) -> String {
    let mut out = String::new();
    for (i, line) in stream.lines().enumerate() {
        let serde::Value::Object(fields) = serde_json::parse(line).expect("canonical line") else {
            panic!("canonical line is not an object: {line}");
        };
        let renum: Vec<(String, serde::Value)> = fields
            .into_iter()
            .map(|(k, v)| {
                if k == "seq" {
                    (k, serde::Value::Number(serde::Number::PosInt(i as u64)))
                } else {
                    (k, v)
                }
            })
            .collect();
        out.push_str(&serde_json::to_string(&serde::Value::Object(renum)).expect("serialize"));
        out.push('\n');
    }
    out
}

/// The canonical lines belonging to rounds `>= k` (the first line of round
/// `k` is its `RoundOpen`).
fn canonical_suffix(stream: &str, k: usize) -> String {
    let mut at = None;
    for (i, line) in stream.lines().enumerate() {
        let v = serde_json::parse(line).expect("canonical line");
        let event = v.get("event").expect("event field");
        if let Some(open) = event.get("RoundOpen") {
            let serde::Value::Number(n) = open.get("round").expect("round field") else {
                panic!("non-numeric round in {line}");
            };
            if n.as_u64() == Some(k as u64) {
                at = Some(i);
                break;
            }
        }
    }
    let at = at.unwrap_or_else(|| panic!("no RoundOpen for round {k}"));
    let mut out = String::new();
    for line in stream.lines().skip(at) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Runs `f` on its own thread and panics if it does not finish within the
/// watchdog budget — the no-hang assertion the corruption cases ride on.
fn run_guarded<T, F>(label: &str, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(format!("resume-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog subject");
    let out = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("resume case `{label}` hung or died: {e:?}"));
    handle.join().expect("resume case panicked after reporting");
    out
}

/// The tentpole acceptance test: kill the study after every possible round
/// and resume it; every resumed trajectory must be bit-identical to the
/// uninterrupted one — records, final parameters, and the canonical trace
/// suffix. The resumed trainer deliberately uses a *different* worker-pool
/// size, so recovery is also independent of scheduling.
#[test]
fn kill_at_every_round_resume_is_bit_identical() {
    let mut reference = study_trainer(CheckpointConfig::disabled(), 2);
    reference.run(ROUNDS);
    let ref_records = reference.records().to_vec();
    let ref_params = reference.global_params().to_vec();
    let ref_trace = reference.tracer().canonical_jsonl();

    for k in 1..ROUNDS {
        let dir = temp_dir(&format!("kill-{k}"));

        // The doomed run: checkpoint every round, then vanish after round
        // k (dropping the trainer stands in for `kill -9` here; the
        // subprocess variant lives in scripts/recovery_check.sh).
        {
            let mut doomed = study_trainer(checkpoint_into(&dir), 2);
            doomed.run(k);
        }

        let mut resumed = run_guarded(&format!("kill-{k}"), {
            let cfg = checkpoint_into(&dir);
            move || {
                Trainer::resume_with_workers(
                    study_fl(cfg),
                    Scheme::fedca_default(),
                    Workload::tiny_mlp(SEED),
                    1 + k % 3,
                )
                .expect("round-k generation must be valid")
            }
        });
        resumed.eval_every = EVAL_EVERY;
        assert_eq!(resumed.records().len(), k, "resume point after kill at {k}");
        resumed.run(ROUNDS - k);

        assert_records_identical(&ref_records, resumed.records(), &format!("kill at {k}"));
        assert_eq!(
            ref_params,
            resumed.global_params(),
            "kill at {k}: final parameters diverged"
        );
        assert_eq!(
            renumbered(&canonical_suffix(&ref_trace, k)),
            renumbered(&resumed.tracer().canonical_jsonl()),
            "kill at {k}: canonical trace suffix diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A bit-flipped newest generation fails its checksum and recovery falls
/// back to the generation before it — and the re-run from there still
/// converges to the uninterrupted trajectory.
#[test]
fn corrupt_newest_generation_falls_back_to_previous() {
    let mut reference = study_trainer(CheckpointConfig::disabled(), 2);
    reference.run(ROUNDS);

    let dir = temp_dir("bitflip");
    {
        let mut doomed = study_trainer(checkpoint_into(&dir), 2);
        doomed.run(3);
    }
    let newest = dir.join("checkpoint-000003.ckpt");
    let mut bytes = std::fs::read(&newest).expect("generation 3 exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).expect("rewrite");

    let mut resumed = run_guarded("bitflip", {
        let cfg = checkpoint_into(&dir);
        move || {
            Trainer::resume_with_workers(
                study_fl(cfg),
                Scheme::fedca_default(),
                Workload::tiny_mlp(SEED),
                2,
            )
            .expect("generation 2 must still be valid")
        }
    });
    resumed.eval_every = EVAL_EVERY;
    assert_eq!(resumed.records().len(), 2, "fell back to generation 2");
    resumed.run(ROUNDS - 2);
    assert_records_identical(reference.records(), resumed.records(), "bitflip fallback");
    assert_eq!(
        reference.global_params(),
        resumed.global_params(),
        "bitflip fallback: final parameters diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// When every generation is corrupt (here: all truncated mid-payload),
/// resume reports a hard `NoValidCheckpoint` error instead of hanging or
/// restoring garbage.
#[test]
fn all_generations_corrupt_is_a_hard_error_not_a_hang() {
    let dir = temp_dir("all-corrupt");
    {
        let mut doomed = study_trainer(checkpoint_into(&dir), 2);
        doomed.run(3);
    }
    for entry in std::fs::read_dir(&dir).expect("checkpoint dir") {
        let path = entry.expect("entry").path();
        let bytes = std::fs::read(&path).expect("read generation");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate generation");
    }
    let err = run_guarded("all-corrupt", {
        let cfg = checkpoint_into(&dir);
        move || {
            Trainer::resume_with_workers(
                study_fl(cfg),
                Scheme::fedca_default(),
                Workload::tiny_mlp(SEED),
                2,
            )
            .map(|t| t.records().len())
            .expect_err("every generation is corrupt")
        }
    });
    assert!(
        matches!(err, CheckpointError::NoValidCheckpoint(_)),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint from a differently-configured run (another seed) is
/// refused by the config fingerprint before any state is touched.
#[test]
fn resume_refuses_a_checkpoint_from_another_run() {
    let dir = temp_dir("mismatch");
    {
        let mut doomed = study_trainer(checkpoint_into(&dir), 2);
        doomed.run(2);
    }
    let mut other = study_fl(checkpoint_into(&dir));
    other.seed ^= 0xDEAD;
    let err =
        Trainer::resume_with_workers(other, Scheme::fedca_default(), Workload::tiny_mlp(SEED), 2)
            .map(|t| t.records().len())
            .expect_err("fingerprint must not match");
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite guard: an injected `corrupt_update` fault poisons the upload
/// with NaNs, the server's non-finite guard rejects it (counted in
/// `n_rejected`), and the aggregated global parameters stay finite.
#[test]
fn corrupt_updates_are_rejected_and_counted() {
    let faults = FaultConfig {
        corrupt_update_prob: 1.0,
        ..FaultConfig::none()
    };
    let fl = FlConfig {
        faults,
        ..study_fl(CheckpointConfig::disabled())
    };
    let mut t = Trainer::new_with_workers(fl, Scheme::fedca_default(), Workload::tiny_mlp(SEED), 2);
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
