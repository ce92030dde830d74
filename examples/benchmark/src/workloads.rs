//! The five end-to-end workloads. Each is a pure function of `--seed`:
//! the seed feeds the workload constructor and `FlConfig.seed`, and the
//! program under test sees only what these constructors generate.
//!
//! Why these five is recorded in `BENCHMARK.json` and README.md; the
//! constants here (warm-up and fingerprint round counts) are fixed and
//! never tuned per commit.

use fedca_compress::Compression;
use fedca_core::workload::Scale;
use fedca_core::{FlConfig, Scheme, Workload};
use fedca_data::synthetic::{image_task, ImageTaskConfig};
use fedca_nn::layers::{Flatten, Linear, Relu, Sequential};
use fedca_nn::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Worker threads of every in-process workload (`W` in the share
/// formulas). The sharded workload runs `W` shards of one worker each.
pub const WORKERS: usize = 2;

/// Every workload name, in the order the suite runs them.
pub const NAMES: [&str; 5] = [
    "cnn_fedca",
    "cnn_fedca_shard2",
    "lstm_fedavg",
    "pop_dense",
    "wide_int8",
];

/// Parameter count of the `wide_int8` model; the data-plane, codec and
/// server probes use the same vector length so probe and workload agree.
pub const WIDE_PARAMS: usize = 768 * 256 + 256 + 256 * 10 + 10;

/// One fully specified workload.
pub struct Spec {
    pub workload: Workload,
    pub fl: FlConfig,
    pub scheme: Scheme,
    /// `Trainer::eval_every` (0 = evaluation off).
    pub eval_every: usize,
    /// Worker threads handed to `Trainer::new_with_workers` (per shard
    /// when sharded).
    pub workers: usize,
    /// Rounds run inside set-up, before any timing.
    pub warmup: usize,
    /// Timed rounds every run completes regardless of `--seconds`; the
    /// trajectory fingerprint is taken exactly here, so it is comparable
    /// across runs of any length.
    pub fp_rounds: usize,
}

impl Spec {
    /// Parallel client slots: the divisor of `executor.busy_share`.
    pub fn slots(&self) -> usize {
        self.workers * self.fl.shard.n_shards.max(1)
    }
}

/// The cnn image task at scaled shapes; `wide_int8` trains on the same data.
fn scaled_image_task() -> ImageTaskConfig {
    ImageTaskConfig {
        channels: 3,
        hw: 16,
        classes: 10,
        train_samples: 4_000,
        test_samples: 512,
        noise: 2.5,
    }
}

/// `Flatten → Linear(768,256) → ReLU → Linear(256,10)`: 199 434 parameters,
/// so that update bytes per unit of local compute are paper-like (the
/// scaled registry models have 14–45 k parameters and the update path
/// vanishes next to training).
pub fn wide_model(seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    Model::new(
        Sequential::new()
            .push(Flatten::new())
            .push(Linear::new("fc1", 768, 256, &mut rng))
            .push(Relu::new())
            .push(Linear::new("fc2", 256, 10, &mut rng)),
    )
}

/// The hand-built `wide_int8` workload (`spec: None`, so in-process only).
pub fn wide_workload(seed: u64) -> Workload {
    let (train, test) = image_task(&scaled_image_task(), seed);
    Workload {
        name: "wide".into(),
        model_factory: Arc::new(move || wide_model(seed)),
        train: Arc::new(train),
        test: Arc::new(test),
        iter_work_seconds: 0.10,
        // The wire size is the real one: four bytes per parameter.
        wire_model_bytes: 4.0 * WIDE_PARAMS as f64,
        target_accuracy: 0.90,
        lr: 0.01,
        weight_decay: 0.001,
        spec: None,
    }
}

fn scaled_fl(w: &Workload, seed: u64) -> FlConfig {
    FlConfig {
        lr: w.lr,
        weight_decay: w.weight_decay,
        seed,
        ..FlConfig::scaled()
    }
}

/// Builds the named workload from the seed. `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Spec> {
    Some(match name {
        "cnn_fedca" | "cnn_fedca_shard2" => {
            let workload = Workload::cnn(Scale::Scaled, seed);
            let mut fl = scaled_fl(&workload, seed);
            let sharded = name == "cnn_fedca_shard2";
            if sharded {
                fl.shard.n_shards = WORKERS;
            }
            Spec {
                workload,
                fl,
                scheme: Scheme::fedca_default(),
                eval_every: 1,
                workers: if sharded { 1 } else { WORKERS },
                warmup: 8,
                fp_rounds: 24,
            }
        }
        "lstm_fedavg" => {
            let workload = Workload::lstm(Scale::Scaled, seed);
            let fl = scaled_fl(&workload, seed);
            Spec {
                workload,
                fl,
                scheme: Scheme::FedAvg,
                eval_every: 0,
                workers: WORKERS,
                warmup: 6,
                fp_rounds: 12,
            }
        }
        "pop_dense" => {
            let workload = Workload::tiny_mlp(seed);
            let mut fl = FlConfig {
                n_clients: 100_000,
                clients_per_round: 128,
                local_iters: 6,
                batch_size: 8,
                lr: workload.lr,
                weight_decay: workload.weight_decay,
                seed,
                compression: Compression::None,
                ..FlConfig::default()
            };
            fl.population.cache_clients = 512;
            Spec {
                workload,
                fl,
                scheme: Scheme::FedAvg,
                eval_every: 0,
                workers: WORKERS,
                warmup: 50,
                fp_rounds: 400,
            }
        }
        "wide_int8" => {
            let workload = wide_workload(seed);
            let fl = FlConfig {
                n_clients: 64,
                clients_per_round: 32,
                local_iters: 1,
                batch_size: 8,
                lr: workload.lr,
                weight_decay: workload.weight_decay,
                seed,
                compression: Compression::Int8,
                ..FlConfig::default()
            };
            Spec {
                workload,
                fl,
                scheme: Scheme::FedAvg,
                eval_every: 0,
                workers: WORKERS,
                warmup: 8,
                fp_rounds: 48,
            }
        }
        _ => return None,
    })
}
