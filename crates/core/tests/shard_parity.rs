//! Topology-invariance suite: sharded multi-process execution must be
//! indistinguishable — bit for bit — from the in-process worker pool.
//!
//! The coordinator routes every per-client report back to the root, which
//! folds them in ordinal order exactly like the single-process path, so
//! for ANY topology in {1, 2, 4} shard processes × {1, 4} workers the
//! round records, final global parameters, and canonical trace are
//! byte-identical. The suite locks that down under chaos faults, eager
//! transmission on/off, compression None/Int8, lazy/eager client stores,
//! corrupted uploads, and (by proptest) arbitrary randomized shard
//! assignments.

use fedca_compress::Compression;
use fedca_core::config::{FaultConfig, FlConfig, ShardAssignment};
use fedca_core::metrics::RoundRecord;
use fedca_core::trace::TraceConfig;
use fedca_core::{Scheme, Trainer, Workload};
use proptest::prelude::*;
use std::sync::OnceLock;

// Re-exec entry point: the coordinator spawns this test binary with
// argv ["shard_child_entry", "--exact", "--nocapture"] and the socket env
// set, so libtest runs exactly this "test", which serves the protocol.
fedca_core::shard_child_entry!();

const SEED: u64 = 31;
const ROUNDS: usize = 5;

fn base_fl() -> FlConfig {
    FlConfig {
        n_clients: 16,
        clients_per_round: 8,
        local_iters: 6,
        batch_size: 8,
        seed: SEED,
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
        ..FlConfig::scaled()
    }
}

fn with_shards(mut fl: FlConfig, shards: usize) -> FlConfig {
    fl.shard.n_shards = shards;
    fl.shard.child_args = fedca_core::shard::test_child_args();
    fl
}

fn run_study(fl: FlConfig, scheme: Scheme, n_workers: usize) -> Trainer {
    let mut t = Trainer::new_with_workers(fl, scheme, Workload::tiny_mlp(SEED), n_workers);
    t.eval_every = 2;
    t.run(ROUNDS);
    t
}

/// The record's canonical half, round by round.
fn canonical(t: &Trainer) -> Vec<RoundRecord> {
    t.records().iter().map(RoundRecord::canonical).collect()
}

/// The triple assertion: records, parameters, trace.
fn assert_same(reference: &Trainer, sharded: &Trainer, label: &str) {
    assert_eq!(
        canonical(reference),
        canonical(sharded),
        "round records diverged [{label}]"
    );
    assert_eq!(
        reference.global_params(),
        sharded.global_params(),
        "final global parameters diverged [{label}]"
    );
    assert_eq!(
        reference.tracer().canonical_jsonl(),
        sharded.tracer().canonical_jsonl(),
        "canonical traces diverged [{label}]"
    );
}

/// The tentpole acceptance test: every topology in {1, 2, 4} shard
/// processes × {1, 4} workers reproduces the in-process run bit for bit,
/// under chaos faults and full FedCA.
#[test]
fn every_topology_is_bit_identical_to_in_process() {
    let reference = run_study(base_fl(), Scheme::fedca_default(), 2);
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 4] {
            let t = run_study(
                with_shards(base_fl(), shards),
                Scheme::fedca_default(),
                workers,
            );
            assert_same(
                &reference,
                &t,
                &format!("{shards} shards x {workers} workers"),
            );
        }
    }
}

/// The reduced variant matrix: eager transmission on/off × compression
/// None/Int8 × lazy/eager client stores, each at 2 shards × 2 workers
/// against its own in-process reference.
#[test]
fn variant_matrix_holds_across_the_wire() {
    for eager in [false, true] {
        for compression in [Compression::None, Compression::Int8] {
            for cache_clients in [0usize, 3] {
                let scheme = if eager {
                    Scheme::fedca_default()
                } else {
                    Scheme::FedCa(fedca_core::FedCaOptions::v1())
                };
                let mut fl = base_fl();
                fl.compression = compression;
                fl.population.cache_clients = cache_clients;
                let reference = run_study(fl.clone(), scheme.clone(), 2);
                let sharded = run_study(with_shards(fl, 2), scheme, 2);
                assert_same(
                    &reference,
                    &sharded,
                    &format!("eager={eager} compression={compression:?} cache={cache_clients}"),
                );
            }
        }
    }
}

/// One more row of the matrix: a `corrupt_update` fault schedule. The
/// poison travels as bytes (a NaN dense message), so the shard forwards it
/// like any other upload and the root's ingest rejects it by the one rule —
/// the rejection counts, records, parameters and trace must not depend on
/// which side of the socket the client ran.
#[test]
fn corrupt_update_schedule_holds_across_the_wire() {
    let mut fl = base_fl();
    fl.faults.corrupt_update_prob = 0.3;
    let reference = run_study(fl.clone(), Scheme::fedca_default(), 2);
    let rejected: usize = reference.records().iter().map(|r| r.n_rejected).sum();
    assert!(rejected > 0, "the schedule must actually corrupt an upload");
    let sharded = run_study(with_shards(fl, 2), Scheme::fedca_default(), 2);
    assert_same(&reference, &sharded, "corrupt_update_prob=0.3");
}

/// Reference trajectory for the proptest, computed once: the assignment
/// function must not matter, only the root-side ordinal fold.
fn reference_fingerprint() -> &'static (Vec<RoundRecord>, Vec<f32>, String) {
    static REF: OnceLock<(Vec<RoundRecord>, Vec<f32>, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let t = run_study(base_fl(), Scheme::fedca_default(), 2);
        (
            canonical(&t),
            t.global_params().to_vec(),
            t.tracer().canonical_jsonl(),
        )
    })
}

/// Property: any randomized client→shard assignment (including wildly
/// unbalanced ones) reproduces the reference trajectory bit for bit.
/// Cases are drawn from proptest strategies with a fixed-seed [`TestRng`]
/// directly — each case spawns real processes and runs a full study, so
/// the shim's fixed 256-case `proptest!` loop would be prohibitive.
#[test]
fn random_shard_assignments_are_trajectory_neutral() {
    let mut rng = proptest::TestRng::new(0x5AD_A551);
    for case in 0..4 {
        let mix_seed = (0u64..u64::MAX).sample(&mut rng);
        let shards = (2usize..4).sample(&mut rng);
        let mut fl = with_shards(base_fl(), shards);
        fl.shard.assignment = ShardAssignment::Mixed { seed: mix_seed };
        let t = run_study(fl, Scheme::fedca_default(), 2);
        let (ref_records, ref_params, ref_trace) = reference_fingerprint();
        let label = format!("case {case}: seed {mix_seed:#x}, {shards} shards");
        assert_eq!(&canonical(&t), ref_records, "records [{label}]");
        assert_eq!(t.global_params(), &ref_params[..], "params [{label}]");
        assert_eq!(&t.tracer().canonical_jsonl(), ref_trace, "trace [{label}]");
    }
}
