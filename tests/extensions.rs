//! Integration tests for the repository's extensions beyond the paper's
//! §4 mechanisms: availability churn (§3.1), the §6 future-work autonomous
//! batch-size adaptation, and the §2.2 compression baselines wired through
//! the binary codec.

use fedca::core::{FedCaOptions, FlConfig, Scheme, Trainer, Workload};
use fedca_compress::wire::{decode, encode, Payload, UpdateMessage};
use fedca_compress::{dequantize, quantize, top_k, ErrorFeedback};

fn fl(seed: u64) -> FlConfig {
    FlConfig {
        n_clients: 12,
        clients_per_round: 6,
        local_iters: 12,
        batch_size: 8,
        lr: 0.05,
        weight_decay: 0.0,
        aggregation_fraction: 0.8,
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
fn dropout_clients_never_reach_the_server() {
    // Availability churn is the fault plan's crash class.
    let mut cfg = fl(1);
    cfg.faults.crash_prob = 0.4;
    let mut t = Trainer::new(cfg, Scheme::FedAvg, Workload::tiny_mlp(1));
    let out = t.run(10);
    let total_crashed: usize = out.rounds.iter().map(|r| r.n_crashed).sum();
    assert!(total_crashed > 0, "40% churn never fired in 10 rounds");
    for r in &out.rounds {
        // Crashed clients are excluded from aggregation.
        assert!(
            r.n_aggregated <= r.n_selected - r.n_crashed,
            "round {}: aggregated {} with {} crashed of {}",
            r.round,
            r.n_aggregated,
            r.n_crashed,
            r.n_selected
        );
        // The round still completes at a finite time.
        assert!(r.end.is_finite() && r.end > r.start);
    }
    // Training still makes progress despite the churn.
    assert!(out.best_accuracy() > 0.5, "best {}", out.best_accuracy());
}

#[test]
fn adaptive_batch_extension_runs_and_keeps_learning() {
    let scheme = Scheme::FedCa(FedCaOptions::v3().with_adaptive_batch(2));
    let mut t = Trainer::new(fl(3), scheme, Workload::tiny_mlp(3));
    let out = t.run(12);
    assert!(
        out.best_accuracy() > 0.5,
        "adaptive-batch FedCA failed to learn: {}",
        out.best_accuracy()
    );
    // The extension must not break determinism.
    let scheme2 = Scheme::FedCa(FedCaOptions::v3().with_adaptive_batch(2));
    let out2 = Trainer::new(fl(3), scheme2, Workload::tiny_mlp(3)).run(12);
    for (a, b) in out.rounds.iter().zip(&out2.rounds) {
        assert_eq!(a.end, b.end);
    }
}

#[test]
fn quantized_update_transport_round_trips_through_the_codec() {
    // Simulate the client->server path with 4-bit quantization: the decoded
    // update must be within one quantization step of the original.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let update: Vec<f32> = (0..2048)
        .map(|i| ((i as f32) * 0.013).sin() * 0.1)
        .collect();
    let q = quantize(&update, 4, &mut rng);
    let msg = UpdateMessage {
        round: 5,
        client: 3,
        layers: vec![(0, Payload::Quantized(q.clone()))],
    };
    let bytes = encode(&msg);
    // 4-bit payload (packed in 5 bits/elem) must be far below fp32.
    assert!(
        (bytes.len() as f64) < update.len() as f64 * 4.0 * 0.3,
        "quantized message too large: {}",
        bytes.len()
    );
    let back = decode(&bytes).expect("decodes");
    let decoded = back.layers[0].1.to_dense();
    let step = q.scale / q.num_levels as f32;
    for (a, b) in update.iter().zip(&decoded) {
        assert!((a - b).abs() <= step + 1e-6);
    }
    // And matches the direct dequantization exactly.
    assert_eq!(decoded, dequantize(&q));
}

#[test]
fn error_feedback_preserves_information_across_rounds() {
    // Compressing with top-10% + error feedback: after many rounds the
    // cumulative transmitted signal approaches the cumulative true signal.
    // A persistent per-coordinate signal: without error feedback, top-10%
    // would transmit only the 26 largest coordinates forever and lose the
    // rest entirely; with it, the residual forces every coordinate through
    // eventually.
    let n = 256;
    let base: Vec<f32> = (0..n)
        .map(|i| 0.02 + (i as f32 * 0.37).sin().abs() * 0.05)
        .collect();
    let rounds = 60;
    let mut ef = ErrorFeedback::new();
    let mut total_sent = vec![0.0f32; n];
    let mut naive_sent = vec![0.0f32; n];
    for _ in 0..rounds {
        let mut compensated = base.clone();
        ef.apply(&mut compensated);
        let sent = fedca_compress::densify(&top_k(&compensated, 0.1));
        for (t, v) in total_sent.iter_mut().zip(&sent) {
            *t += v;
        }
        ef.absorb(&compensated, &sent);
        // Naive baseline without feedback.
        for (t, v) in naive_sent
            .iter_mut()
            .zip(fedca_compress::densify(&top_k(&base, 0.1)))
        {
            *t += v;
        }
    }
    let total_true: Vec<f32> = base.iter().map(|v| v * rounds as f32).collect();
    let rel_err = |sent: &[f32]| {
        let err: f32 = total_true
            .iter()
            .zip(sent)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt();
        let norm: f32 = total_true.iter().map(|v| v * v).sum::<f32>().sqrt();
        err / norm
    };
    let with_ef = rel_err(&total_sent);
    let without_ef = rel_err(&naive_sent);
    assert!(
        with_ef < 0.15,
        "error feedback still lost {:.0}% of the signal",
        with_ef * 100.0
    );
    assert!(
        without_ef > 3.0 * with_ef,
        "feedback ({with_ef:.3}) should beat naive top-k ({without_ef:.3}) decisively"
    );
}
