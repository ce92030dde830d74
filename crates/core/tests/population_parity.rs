//! Lazy-population parity suite: the client store's derive-at-id path must
//! be indistinguishable — bit for bit — from eagerly materializing the
//! whole federation.
//!
//! Four properties ride here:
//!
//! 1. **Hydration order is irrelevant** (proptest): deriving clients in any
//!    permutation, with any interleaved re-touches, yields byte-identical
//!    state per client.
//! 2. **Eager vs lazy bit-identity**: a full FedCA chaos study at `n = 128`
//!    with an unbounded cache (the eager path — every client stays
//!    resident) produces the same records, final global parameters, and
//!    canonical trace as the same study under a tiny residency cap that
//!    forces constant eviction/rehydration.
//! 3. **A million clients cost what ten thousand do**: resident and dirty
//!    entry counts are bounded by the cache cap and the participants, at
//!    either population size.
//! 4. **Residency is conserved**: after every round, the resident count is
//!    all hydrations minus all evictions, with or without chaos.

use fedca_core::config::{FaultConfig, FlConfig};
use fedca_core::metrics::RoundRecord;
use fedca_core::population::snapshot_client;
use fedca_core::trace::{TraceConfig, TraceEvent};
use fedca_core::{Scheme, Trainer, Workload};
use proptest::prelude::*;

const SEED: u64 = 23;

/// A chaos-flavoured FedCA study over `n_clients` with residency capped at
/// `cache_clients` (0 = unbounded, i.e. the eager path).
fn study_fl(n_clients: usize, cache_clients: usize) -> FlConfig {
    let mut fl = FlConfig {
        n_clients,
        clients_per_round: 8.min(n_clients),
        local_iters: 6,
        batch_size: 8,
        seed: SEED,
        faults: FaultConfig::chaos(SEED),
        trace: TraceConfig::enabled(),
        ..FlConfig::scaled()
    };
    fl.population.cache_clients = cache_clients;
    fl
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

/// The tentpole acceptance test: at `n = 128`, a residency cap tight enough
/// to evict most of the population every round changes *nothing* about the
/// trajectory — records, parameters, and the canonical trace are
/// bit-identical to the unbounded (eager) run. The worker-pool sizes differ
/// on purpose, so the parity also covers scheduling.
#[test]
fn lazy_study_is_bit_identical_to_eager_at_n_128() {
    const ROUNDS: usize = 6;
    let eager = run_study(study_fl(128, 0), ROUNDS, 2);
    let lazy = run_study(study_fl(128, 3), ROUNDS, 3);

    let canonical = |t: &Trainer| -> Vec<RoundRecord> {
        t.records().iter().map(RoundRecord::canonical).collect()
    };
    assert_eq!(
        canonical(&eager),
        canonical(&lazy),
        "round records diverged"
    );
    assert_eq!(
        eager.global_params(),
        lazy.global_params(),
        "final global parameters diverged"
    );
    assert_eq!(
        eager.tracer().canonical_jsonl(),
        lazy.tracer().canonical_jsonl(),
        "canonical traces diverged"
    );

    // The cap actually bit: the lazy run must have been evicting and
    // re-deriving clients, not coasting on a big cache.
    let rehydrations: usize = lazy.records().iter().map(|r| r.n_hydrated).sum();
    let evictions: usize = lazy.records().iter().map(|r| r.n_evicted).sum();
    assert!(evictions > 0, "cap of 3 never evicted anything");
    assert!(
        rehydrations > eager.records().iter().map(|r| r.n_hydrated).sum::<usize>(),
        "lazy run never re-derived an evicted client"
    );
    assert!(lazy.store().n_resident() <= 3, "cap not enforced");
}

/// Memory follows the cohort, not the population: a cohort-128 FedAvg study
/// under a 512-client residency cap ends every round with at most 512
/// clients resident, and preserves evicted state for no more clients than
/// ever participated — the same bounds at 10 000 and at 1 000 000 clients.
#[test]
fn store_entries_are_bounded_by_the_cap_at_any_population_size() {
    const COHORT: usize = 128;
    const CAP: usize = 4 * COHORT;
    const ROUNDS: usize = 10;
    for n_clients in [10_000, 1_000_000] {
        let workload = Workload::tiny_mlp(SEED);
        let mut fl = FlConfig {
            n_clients,
            clients_per_round: COHORT,
            local_iters: 6,
            batch_size: 8,
            lr: workload.lr,
            weight_decay: workload.weight_decay,
            seed: SEED,
            ..FlConfig::default()
        };
        fl.population.cache_clients = CAP;
        let mut t = Trainer::new_with_workers(fl, Scheme::FedAvg, workload, 2);
        t.eval_every = 0;
        for round in 0..ROUNDS {
            t.run_round();
            let resident = t.store().n_resident();
            assert!(
                resident <= CAP,
                "n={n_clients} round {round}: {resident} clients resident, cap {CAP}"
            );
        }
        let store = t.store();
        let participants = (0..n_clients)
            .filter(|&id| store.participations(id) > 0)
            .count();
        let evicted: usize = t.records().iter().map(|r| r.n_evicted).sum();
        assert!(evicted > 0, "n={n_clients}: the cap never evicted anything");
        let dirty = store.n_dirty();
        assert!(
            dirty > 0 && dirty <= participants,
            "n={n_clients}: {dirty} dirty entries for {participants} distinct participants"
        );
    }
}

/// Residency is conserved: after every round of a traced FedCA run, the
/// resident count is everything hydrated minus everything evicted, and a
/// round's `n_hydrated` is its number of fresh `ClientHydrated` events. Chaos
/// panics rebuild clients in place, which is neither.
#[test]
fn residency_is_hydrations_minus_evictions_after_every_round() {
    const ROUNDS: usize = 12;
    for faults in [FaultConfig::none(), FaultConfig::chaos(3)] {
        for cache in [0, 2, 3, 5] {
            let fl = FlConfig {
                clients_per_round: 4,
                faults: faults.clone(),
                ..study_fl(16, cache)
            };
            let tag = format!("cache {cache}, fault seed {}", faults.seed);
            let mut t = run_study(fl, 0, 2);
            let (mut hydrated, mut evicted) = (0, 0);
            for round in 0..ROUNDS {
                let (n_hydrated, n_evicted) = {
                    let r = t.run_round();
                    (r.n_hydrated, r.n_evicted)
                };
                hydrated += n_hydrated;
                evicted += n_evicted;
                assert_eq!(
                    t.store().n_resident(),
                    hydrated - evicted,
                    "{tag}, round {round}"
                );
                let fresh = t
                    .tracer()
                    .ring_records()
                    .iter()
                    .filter(|rec| match rec.event {
                        TraceEvent::ClientHydrated {
                            round: r, fresh, ..
                        } => r == round && fresh,
                        _ => false,
                    })
                    .count();
                assert_eq!(n_hydrated, fresh, "{tag}, round {round}");
            }
        }
    }
}

proptest! {
    /// Hydrating any permutation of the population — with arbitrary
    /// re-touches interleaved — produces byte-identical per-client state.
    /// The permutation is the argsort of 24 random keys, so every ordering
    /// is reachable.
    #[test]
    fn hydration_order_never_changes_derived_state(
        (keys, touches) in (
            prop::collection::vec(0u64..u64::MAX, 24),
            prop::collection::vec(0usize..24, 0..16),
        )
    ) {
        let mut perm: Vec<usize> = (0..24).collect();
        perm.sort_by_key(|&i| keys[i]);
        let mut reference = Trainer::new_with_workers(
            study_fl(24, 0),
            Scheme::fedca_default(),
            Workload::tiny_mlp(SEED),
            1,
        );
        let mut shuffled = Trainer::new_with_workers(
            study_fl(24, 0),
            Scheme::fedca_default(),
            Workload::tiny_mlp(SEED),
            1,
        );
        // Reference hydrates 0..n in order; the subject follows the random
        // permutation with re-touches sprinkled in.
        for id in 0..24 {
            let _ = reference.client(id);
        }
        for &id in perm.iter().chain(touches.iter()) {
            let _ = shuffled.client(id);
        }
        for id in 0..24 {
            let a = snapshot_client(reference.store().peek(id).expect("hydrated"));
            let b = snapshot_client(shuffled.store().peek(id).expect("hydrated"));
            prop_assert_eq!(a, b, "client {} differs by hydration order", id);
        }
    }
}
