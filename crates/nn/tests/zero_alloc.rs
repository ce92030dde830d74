//! Pins the zero-allocation property of a warmed-up training iteration.
//!
//! A counting global allocator wraps `System`; after a few warm-up
//! iterations populate the workspace pool and the layer caches (the GEMM's
//! strip buffer is a fixed-size thread-local), one full forward + loss + backward + step must perform
//! ZERO heap allocations for every model family — through the training
//! step's `backward_params` and through the full `backward` alike.
//!
//! Everything runs inside ONE `#[test]` — libtest runs tests on parallel
//! threads by default, and a second test's allocations would pollute the
//! global counter mid-measurement.

use fedca_nn::models::{cnn, lstm, wrn, CnnConfig, LstmConfig, WrnConfig};
use fedca_nn::{softmax_cross_entropy_into, Model, Sgd};
use fedca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn train_iteration(
    model: &mut Model,
    x: &Tensor,
    y: &[usize],
    grad: &mut Tensor,
    opt: &Sgd,
    full_backward: bool,
) {
    let logits = model.forward(x);
    let _loss = softmax_cross_entropy_into(&logits, y, grad);
    model.recycle(logits);
    model.zero_grad();
    if full_backward {
        let gin = model.backward(grad);
        model.recycle(gin);
    } else {
        model.backward_params(grad);
    }
    model.step(opt, None);
}

fn assert_zero_alloc_steady_state(name: &str, mut model: Model, x: Tensor, y: Vec<usize>) {
    let opt = Sgd::new(0.01, 1e-4);
    let mut grad = Tensor::zeros([0]);
    // One model serves both paths in turn: each warms up on its own (fills
    // the workspace pool, layer caches, and thread-local GEMM pack
    // buffers), then must run one iteration without touching the heap.
    for full_backward in [false, true] {
        for _ in 0..3 {
            train_iteration(&mut model, &x, &y, &mut grad, &opt, full_backward);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        train_iteration(&mut model, &x, &y, &mut grad, &opt, full_backward);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{name} (full_backward={full_backward}): warmed-up train iteration performed {} heap allocations",
            after - before
        );
    }
}

/// A client evaluates at batch 64 and trains at batch 16 on one model. The
/// LSTM's persistent sequence buffers resize in place to the larger shape,
/// so after one pass at each batch size, alternating the two allocates
/// nothing.
fn assert_lstm_alternates_eval_and_train_without_allocating(
    cfg: &LstmConfig,
    x_train: Tensor,
    y: Vec<usize>,
    rng: &mut StdRng,
) {
    let mut model = lstm(cfg, 7);
    let x_eval = Tensor::randn([64, 12, cfg.input_size], 1.0, rng);
    let opt = Sgd::new(0.01, 1e-4);
    let mut grad = Tensor::zeros([0]);
    let mut eval_then_train = |model: &mut Model| {
        let logits = model.forward(&x_eval);
        model.recycle(logits);
        train_iteration(model, &x_train, &y, &mut grad, &opt, false);
    };
    eval_then_train(&mut model);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        eval_then_train(&mut model);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "lstm: alternating batch 64 evaluation and batch 16 training performed {allocs} heap allocations"
    );
}

#[test]
fn warmed_up_training_iteration_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(99);
    let n = 16;

    let cfg = CnnConfig::scaled();
    let x = Tensor::randn(
        [n, cfg.in_channels, cfg.input_hw, cfg.input_hw],
        1.0,
        &mut rng,
    );
    let y: Vec<usize> = (0..n).map(|i| i % cfg.classes).collect();
    assert_zero_alloc_steady_state("cnn", cnn(&cfg, 7), x, y);

    let cfg = LstmConfig::scaled();
    let x = Tensor::randn([n, 12, cfg.input_size], 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|i| i % cfg.classes).collect();
    assert_zero_alloc_steady_state("lstm", lstm(&cfg, 7), x.clone(), y.clone());
    assert_lstm_alternates_eval_and_train_without_allocating(&cfg, x, y, &mut rng);

    let cfg = WrnConfig::scaled();
    let x = Tensor::randn(
        [n, cfg.in_channels, cfg.input_hw, cfg.input_hw],
        1.0,
        &mut rng,
    );
    let y: Vec<usize> = (0..n).map(|i| i % cfg.classes).collect();
    assert_zero_alloc_steady_state("wrn", wrn(&cfg, 7), x, y);
}
