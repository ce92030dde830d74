//! Cost of one real local SGD iteration (forward + backward + step) for
//! each model family at the scaled shapes — the unit of work the
//! virtual-time model prices at `iter_work_seconds`.
//!
//! The loop mirrors the client hot path: a persistent logits-gradient
//! buffer, `softmax_cross_entropy_into`, `backward_params`, and recycling
//! every tensor the model hands out, so the steady state allocates nothing.
//! `full_backward/*` is the same iteration through `Model::backward`, which
//! also computes the gradient with respect to the input batch; the gap
//! between the two is the work a training step does not do.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedca_core::workload::Scale;
use fedca_core::Workload;
use fedca_nn::{softmax_cross_entropy_into, Sgd};
use fedca_tensor::Tensor;
use std::time::Duration;

fn bench_iteration(c: &mut Criterion) {
    for name in ["cnn", "lstm", "wrn"] {
        let w = match name {
            "cnn" => Workload::cnn(Scale::Scaled, 1),
            "lstm" => Workload::lstm(Scale::Scaled, 1),
            _ => Workload::wrn(Scale::Scaled, 1),
        };
        let mut model = (w.model_factory)();
        let idx: Vec<usize> = (0..16).collect();
        let (x, y) = w.train.batch(&idx);
        let opt = Sgd::new(w.lr, w.weight_decay);
        let mut grad = Tensor::zeros([0]);
        c.bench_function(&format!("train_iteration/{name}/batch16"), |b| {
            b.iter(|| {
                let logits = model.forward(black_box(&x));
                let loss = softmax_cross_entropy_into(&logits, &y, &mut grad);
                model.recycle(logits);
                model.zero_grad();
                model.backward_params(&grad);
                model.step(&opt, None);
                black_box(loss)
            })
        });
        c.bench_function(&format!("full_backward/{name}/batch16"), |b| {
            b.iter(|| {
                let logits = model.forward(black_box(&x));
                let loss = softmax_cross_entropy_into(&logits, &y, &mut grad);
                model.recycle(logits);
                model.zero_grad();
                let gin = model.backward(&grad);
                model.recycle(gin);
                model.step(&opt, None);
                black_box(loss)
            })
        });
    }
}

criterion_group! {
    name = benches;
    // One WRN iteration costs ~100 ms; keep the total bench time bounded.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_iteration
}
criterion_main!(benches);
