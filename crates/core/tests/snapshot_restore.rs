//! Snapshot/restore must be *bit-identical*: restoring a fixed-seed chaos
//! study's round-`k` snapshot into a fresh trainer reproduces the
//! uninterrupted run's remaining records, final global parameters, and
//! canonical trace suffix exactly, for every `k`. A snapshot from another
//! run, or a malformed one, is refused without touching the trainer.

use fedca_core::config::{FaultConfig, FlConfig};
use fedca_core::metrics::RoundRecord;
use fedca_core::trace::TraceConfig;
use fedca_core::{CheckpointEnvelope, CheckpointError, Scheme, Trainer, TrainerError, Workload};

const SEED: u64 = 11;
const ROUNDS: usize = 5;
const EVAL_EVERY: usize = 2;
const N_CLIENTS: usize = 8;

/// The fixed-seed chaos study behind the sweep: FedCA with every mechanism
/// on, chaos faults armed, tracing enabled.
fn study_fl() -> FlConfig {
    FlConfig {
        n_clients: N_CLIENTS,
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
        population: Default::default(),
        shard: Default::default(),
    }
}

fn study_trainer(fl: FlConfig, n_workers: usize) -> Trainer {
    let mut t = Trainer::new_with_workers(
        fl,
        Scheme::fedca_default(),
        Workload::tiny_mlp(SEED),
        n_workers,
    );
    t.eval_every = EVAL_EVERY;
    t
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
/// restored run's stream (whose emit counter restarts) can be compared
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

/// Kill the study after every possible round and restore it: every
/// restored trajectory must be bit-identical to the uninterrupted one —
/// records, final parameters, and the canonical trace suffix. The restored
/// trainer deliberately uses a *different* worker-pool size, so the restore
/// is also independent of scheduling.
#[test]
fn kill_at_every_round_restore_is_bit_identical() {
    let mut reference = study_trainer(study_fl(), 2);
    reference.run(ROUNDS);
    let ref_records = reference.records().to_vec();
    let ref_params = reference.global_params().to_vec();
    let ref_trace = reference.tracer().canonical_jsonl();

    for k in 1..ROUNDS {
        // The doomed run: snapshot after round k, then vanish. Nothing
        // survives but the envelope.
        let env = {
            let mut doomed = study_trainer(study_fl(), 2);
            doomed.run(k);
            doomed
                .snapshot()
                .expect("no clients in flight between rounds")
        };

        let mut restored = study_trainer(study_fl(), 1 + k % 3);
        restored.restore(&env).expect("a snapshot of this run");
        assert_eq!(
            restored.records().len(),
            k,
            "resume point after kill at {k}"
        );
        restored.run(ROUNDS - k);

        assert_records_identical(&ref_records, restored.records(), &format!("kill at {k}"));
        assert_eq!(
            ref_params,
            restored.global_params(),
            "kill at {k}: final parameters diverged"
        );
        assert_eq!(
            renumbered(&canonical_suffix(&ref_trace, k)),
            renumbered(&restored.tracer().canonical_jsonl()),
            "kill at {k}: canonical trace suffix diverged"
        );
    }
}

/// A snapshot of a differently-configured run (another seed) is refused by
/// the config fingerprint.
#[test]
fn restore_refuses_a_snapshot_from_another_run() {
    let mut other = study_trainer(
        FlConfig {
            seed: SEED ^ 0xDEAD,
            ..study_fl()
        },
        2,
    );
    other.run(2);
    let env = other.snapshot().expect("between rounds");
    let err = study_trainer(study_fl(), 2)
        .restore(&env)
        .expect_err("fingerprint must not match");
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "unexpected error: {err}"
    );
}

/// Restores a malformed `env` into `trainer`, which must refuse it without
/// writing anything: records, clock and parameters stay as they were.
fn refuse(trainer: &mut Trainer, env: &CheckpointEnvelope, label: &str) -> CheckpointError {
    let records = trainer.records().to_vec();
    let (clock, params) = (trainer.clock(), trainer.global_params().to_vec());
    let err = trainer.restore(env).expect_err(label);
    assert_eq!(trainer.records(), records.as_slice(), "{label}: records");
    assert_eq!(trainer.clock(), clock, "{label}: clock");
    assert_eq!(
        trainer.global_params(),
        params.as_slice(),
        "{label}: params"
    );
    err
}

/// A restore is all or nothing. A malformed envelope — a participation id
/// outside the population, or a global model one parameter short — is an
/// error, not a panic, and the refused restore writes nothing: the trainer's
/// next round is exactly an untouched twin's.
#[test]
fn a_refused_restore_leaves_the_trainer_untouched() {
    let mut source = study_trainer(study_fl(), 2);
    source.run(2);
    let good = source.snapshot().expect("between rounds");
    let mut stray_participant = good.clone();
    stray_participant.participations.push((N_CLIENTS + 3, 1));
    let mut short_global = good;
    short_global.global.pop();

    let mut trainer = study_trainer(study_fl(), 2);
    let mut twin = study_trainer(study_fl(), 2);
    trainer.run(1);
    twin.run(1);
    let err = refuse(&mut trainer, &stray_participant, "stray participant");
    assert!(
        matches!(err, CheckpointError::Trainer(TrainerError::UnknownClient { id, .. }) if id == N_CLIENTS + 3),
        "stray participant: {err}"
    );
    let err = refuse(&mut trainer, &short_global, "short global");
    assert!(
        matches!(err, CheckpointError::Malformed(_)),
        "short global: {err}"
    );
    assert_eq!(
        trainer.run_round().canonical(),
        twin.run_round().canonical(),
        "the round after a refused restore"
    );
    assert_eq!(trainer.global_params(), twin.global_params());
    assert_eq!(
        trainer.tracer().canonical_jsonl(),
        twin.tracer().canonical_jsonl()
    );
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
        faults,
        ..study_fl()
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
