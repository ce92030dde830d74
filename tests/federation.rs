//! Cross-crate integration tests: end-to-end federations exercising the
//! whole stack (tensor → nn → data → sim → core).

use fedca::core::{FedCaOptions, FlConfig, Scheme, Trainer, Workload};

fn tiny_fl(seed: u64) -> FlConfig {
    FlConfig {
        n_clients: 12,
        clients_per_round: 5,
        local_iters: 10,
        batch_size: 8,
        lr: 0.05,
        weight_decay: 0.0,
        aggregation_fraction: 0.9,
        dirichlet_alpha: 0.3,
        seed,
        heterogeneity: true,
        dynamicity: true,
        compression: Default::default(),
        faults: Default::default(),
        trace: Default::default(),
        population: Default::default(),
        shard: Default::default(),
    }
}

#[test]
fn fedavg_end_to_end_learns_the_tiny_task() {
    let mut t = Trainer::new(tiny_fl(1), Scheme::FedAvg, Workload::tiny_mlp(1));
    let initial = t.evaluate();
    let out = t.run(20);
    assert!(
        out.best_accuracy() > initial + 0.3,
        "no end-to-end learning: {initial} -> {}",
        out.best_accuracy()
    );
    // Virtual time strictly increases and rounds are complete records.
    for w in out.rounds.windows(2) {
        assert!(w[1].start >= w[0].end - 1e-9);
        assert!(w[1].end > w[1].start);
    }
}

#[test]
fn all_four_schemes_run_and_learn() {
    for scheme in [
        Scheme::FedAvg,
        Scheme::fedprox_default(),
        Scheme::fedada_default(),
        Scheme::fedca_default(),
    ] {
        let name = scheme.name();
        let mut t = Trainer::new(tiny_fl(2), scheme, Workload::tiny_mlp(2));
        let out = t.run(12);
        assert!(
            out.best_accuracy() > 0.5,
            "{name} failed to learn (best {})",
            out.best_accuracy()
        );
    }
}

#[test]
fn fedca_is_faster_per_round_than_fedavg_under_stragglers() {
    // Same federation, same workload, same seed: FedCA's early stopping +
    // eager transmission must cut mean round time (the paper's headline).
    let w = Workload::tiny_mlp(3);
    let mut avg = Trainer::new(tiny_fl(3), Scheme::FedAvg, w.clone());
    let mut ca = Trainer::new(tiny_fl(3), Scheme::fedca_default(), w);
    let out_avg = avg.run(12);
    let out_ca = ca.run(12);
    // Skip anchor rounds (unoptimized by design) when comparing.
    let mean = |o: &fedca::core::TrainerOutput, skip_anchor: bool| {
        let rs: Vec<_> = o
            .rounds
            .iter()
            .filter(|r| !(skip_anchor && r.is_anchor))
            .collect();
        rs.iter().map(|r| r.duration()).sum::<f64>() / rs.len() as f64
    };
    let t_avg = mean(&out_avg, false);
    let t_ca = mean(&out_ca, true);
    assert!(
        t_ca < t_avg,
        "FedCA rounds ({t_ca:.2}s) not faster than FedAvg ({t_avg:.2}s)"
    );
}

#[test]
fn fedca_triggers_both_mechanisms() {
    let mut t = Trainer::new(tiny_fl(4), Scheme::fedca_default(), Workload::tiny_mlp(4));
    let out = t.run(15);
    let stops: usize = out
        .rounds
        .iter()
        .map(|r| r.early_stops.iter().filter(|&&s| s).count())
        .sum();
    let eager: usize = out.rounds.iter().map(|r| r.eager_events.len()).sum();
    assert!(stops > 0, "early stopping never fired in 15 rounds");
    assert!(eager > 0, "eager transmission never fired in 15 rounds");
    // Anchor rounds never early-stop or eagerly transmit.
    for r in out.rounds.iter().filter(|r| r.is_anchor && r.round == 0) {
        assert!(r.early_stops.iter().all(|&s| !s));
        assert!(r.eager_events.is_empty());
    }
}

#[test]
fn partial_aggregation_drops_at_most_the_straggler_fraction() {
    let mut t = Trainer::new(tiny_fl(5), Scheme::FedAvg, Workload::tiny_mlp(5));
    let out = t.run(8);
    for r in &out.rounds {
        let min_collected = ((r.n_selected as f64) * 0.9).ceil() as usize;
        assert!(
            r.n_aggregated >= min_collected,
            "round {}: aggregated {} of {}",
            r.round,
            r.n_aggregated,
            r.n_selected
        );
    }
}

#[test]
fn identical_seeds_identical_outcomes_despite_threading() {
    // Clients run on real concurrent threads; the virtual clock must make
    // the run bit-identical anyway.
    let run = |seed| {
        let mut t = Trainer::new(
            tiny_fl(seed),
            Scheme::fedca_default(),
            Workload::tiny_mlp(6),
        );
        t.run(6)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.end.to_bits(), rb.end.to_bits(), "round {}", ra.round);
        assert_eq!(ra.accuracy, rb.accuracy);
        assert_eq!(ra.iters_done, rb.iters_done);
        assert_eq!(ra.eager_events.len(), rb.eager_events.len());
    }
    let c = run(8);
    assert!(
        a.rounds
            .iter()
            .zip(&c.rounds)
            .any(|(x, y)| x.end != y.end || x.accuracy != y.accuracy),
        "different seeds produced identical runs"
    );
}

#[test]
fn fedca_v2_without_retransmission_can_diverge_statistically() {
    // v2 reports stale eager snapshots with no error feedback; v3 repairs
    // them. Over enough rounds v3's accuracy must be at least v2's (allowing
    // noise), and v3 must actually retransmit sometimes when the threshold
    // is strict.
    let w = Workload::tiny_mlp(9);
    let mut opts = FedCaOptions::v3();
    opts.config.retransmit_threshold = 0.95; // strict: force retransmissions
    let mut t3 = Trainer::new(tiny_fl(9), Scheme::FedCa(opts), w.clone());
    let out3 = t3.run(15);
    let retrans: usize = out3
        .rounds
        .iter()
        .flat_map(|r| &r.eager_events)
        .filter(|e| e.retransmitted)
        .count();
    assert!(
        retrans > 0,
        "strict T_r never triggered a retransmission in 15 rounds"
    );
}

#[test]
fn fedada_reduces_planned_iterations_for_stragglers() {
    let mut t = Trainer::new(
        tiny_fl(10),
        Scheme::fedada_default(),
        Workload::tiny_mlp(10),
    );
    let out = t.run(10);
    // After the server learns durations, some straggler should be throttled.
    let any_reduced = out
        .rounds
        .iter()
        .skip(2)
        .any(|r| r.iters_planned.iter().any(|&k| k < 10));
    assert!(any_reduced, "FedAda never adapted workloads");
    // And planned iterations are always respected by clients (no early stop
    // mechanism in FedAda).
    for r in &out.rounds {
        for (done, planned) in r.iters_done.iter().zip(&r.iters_planned) {
            assert_eq!(done, planned);
        }
    }
}
