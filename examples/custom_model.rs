//! Custom model: plug your own architecture into the FedCA stack.
//!
//! Shows the full path a downstream user takes: build a model with the
//! `fedca-nn` layer API, gradient-check it, wrap it in a custom `Workload`,
//! and train it under FedCA.
//!
//! Run with: `cargo run --release --example custom_model`

use fedca::core::{FlConfig, Scheme, Trainer, Workload};
use fedca::data::synthetic::{image_task, ImageTaskConfig};
use fedca::nn::gradcheck::check_param_grads;
use fedca::nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use fedca::nn::Model;
use fedca::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A small custom conv-net: conv → BN → ReLU → pool → fc.
fn build_net(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(
        Sequential::new()
            .push(Conv2d::new("stem", 1, 8, 3, 1, 1, &mut rng))
            .push(BatchNorm2d::new("norm", 8))
            .push(Relu::new())
            .push(MaxPool2d::new())
            .push(Flatten::new())
            .push(Linear::new("head", 8 * 6 * 6, 5, &mut rng)),
    )
}

fn main() {
    // --- 1. Gradient-check the architecture before trusting it.
    let mut net = build_net(1);
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::randn([3, 1, 12, 12], 1.0, &mut rng);
    let report = check_param_grads(net.net_mut(), &x, &[0, 1, 2], 1e-3, 20);
    println!(
        "gradcheck: max relative error {:.4} over {} coordinates",
        report.max_rel_err, report.checked
    );
    assert!(report.max_rel_err < 0.05, "custom model backward is wrong");

    // --- 2. Wrap it in a Workload with your own data and system constants.
    let data_cfg = ImageTaskConfig {
        channels: 1,
        hw: 12,
        classes: 5,
        train_samples: 1500,
        test_samples: 300,
        noise: 1.2,
    };
    let (train, test) = image_task(&data_cfg, 33);
    let workload = Workload {
        name: "custom_convnet".into(),
        model_factory: Arc::new(|| build_net(1)),
        train: Arc::new(train),
        test: Arc::new(test),
        iter_work_seconds: 0.08,
        wire_model_bytes: 4.0 * 3000.0, // fp32 on the wire
        target_accuracy: 0.8,
        lr: 0.05,
        weight_decay: 0.001,
        // Not in the registry: sharded execution can't rebuild this
        // workload in a child process, so leave the spec out.
        spec: None,
    };

    // --- 3. Train it under FedCA.
    let fl = FlConfig {
        n_clients: 12,
        clients_per_round: 6,
        local_iters: 15,
        batch_size: 16,
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        seed: 33,
        ..FlConfig::scaled()
    };
    let mut trainer = Trainer::new(fl, Scheme::fedca_default(), workload);
    let out = trainer.run_until_accuracy(0.8, 25);
    match out.time_to_accuracy(0.8) {
        Some((t, round)) => {
            println!("custom model reached 80% accuracy at virtual time {t:.1}s (round {round})")
        }
        None => println!(
            "did not reach 80% in 25 rounds (best {:.3}) — tune lr/noise",
            out.best_accuracy()
        ),
    }
}
