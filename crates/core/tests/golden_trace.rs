//! Golden-trace regression tests: the canonical event stream of a
//! fixed-seed study is byte-identical across reruns, across worker-pool
//! sizes, and against a committed fixture — extending PR 2's bit-identical
//! trajectory guarantee to the trace layer itself.
//!
//! Regenerate the fixture after an *intentional* event-taxonomy change:
//!
//! ```text
//! FEDCA_REGEN_GOLDEN=1 cargo test -p fedca-core --test golden_trace
//! ```

use fedca_core::algorithms::Scheme;
use fedca_core::config::{FaultConfig, FlConfig};
use fedca_core::trace::{TraceConfig, TraceEvent};
use fedca_core::{Trainer, Workload};
use serde::Deserialize;

const SEED: u64 = 11;
const ROUNDS: usize = 3;

/// The fixed-seed study configuration behind the fixture: FedCA with every
/// mechanism on, chaos faults armed, tracing enabled.
fn traced_fl() -> FlConfig {
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
        compression: Default::default(),
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
        population: Default::default(),
        shard: Default::default(),
    }
}

/// Runs the study on an `n_workers` pool and returns the canonical JSONL.
fn run_trace(n_workers: usize) -> String {
    let mut t = Trainer::new_with_workers(
        traced_fl(),
        Scheme::fedca_default(),
        Workload::tiny_mlp(SEED),
        n_workers,
    );
    t.eval_every = 0; // accuracy is irrelevant to the event stream
    t.run(ROUNDS);
    t.tracer().canonical_jsonl()
}

/// Byte-level comparison with a line-oriented failure message, so a
/// regression points at the first diverging record instead of dumping two
/// multi-kilobyte strings.
fn assert_streams_identical(a: &str, b: &str, label: &str) {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "{label}: first divergence at line {}", i + 1);
    }
    assert_eq!(
        a.lines().count(),
        b.lines().count(),
        "{label}: streams have different lengths"
    );
    assert_eq!(a, b, "{label}: streams differ");
}

#[test]
fn trace_is_byte_identical_across_reruns() {
    let first = run_trace(2);
    let second = run_trace(2);
    assert!(!first.is_empty(), "traced run emitted nothing");
    assert_streams_identical(&first, &second, "rerun");
}

#[test]
fn trace_is_byte_identical_across_1_vs_4_workers() {
    let serial = run_trace(1);
    let parallel = run_trace(4);
    assert_streams_identical(&serial, &parallel, "1-vs-4 workers");
}

#[test]
fn trace_matches_committed_golden_fixture() {
    let trace = run_trace(2);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_trace.jsonl");
    if std::env::var_os("FEDCA_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &trace).expect("failed to write golden fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             FEDCA_REGEN_GOLDEN=1 cargo test -p fedca-core --test golden_trace",
            path.display()
        )
    });
    assert_streams_identical(&trace, &golden, "golden fixture");
}

#[test]
fn golden_stream_parses_back_into_typed_events() {
    let trace = run_trace(2);
    let mut last_seq: Option<u64> = None;
    let mut round_opens = 0usize;
    let mut round_closes = 0usize;
    for line in trace.lines() {
        let v = serde_json::parse(line).expect("canonical line must be valid JSON");
        assert!(v.get("host_us").is_none(), "host time leaked: {line}");
        let seq = match v.get("seq").expect("seq field") {
            serde::Value::Number(n) => n.as_u64().expect("integral seq"),
            other => panic!("non-numeric seq: {other:?}"),
        };
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq must be strictly increasing");
        }
        last_seq = Some(seq);
        let event =
            TraceEvent::from_value(v.get("event").expect("event field")).expect("typed event");
        match event {
            TraceEvent::RoundOpen { .. } => round_opens += 1,
            TraceEvent::RoundClose { .. } => round_closes += 1,
            _ => {}
        }
    }
    assert_eq!(round_opens, ROUNDS, "one RoundOpen per round");
    assert_eq!(round_closes, ROUNDS, "one RoundClose per round");
}
