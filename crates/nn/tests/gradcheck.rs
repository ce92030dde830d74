//! Finite-difference gradient coverage through the public gradcheck API.
//!
//! The in-module unit tests cover one canonical configuration per layer;
//! these integration tests sweep the shape/hyperparameter axes most likely
//! to hide indexing bugs — strides, padding, channel counts, kernel sizes,
//! stacked LSTM depths — all validated against central differences on a
//! softmax-cross-entropy loss.

use fedca_nn::gradcheck::{check_input_grad, check_param_grads};
use fedca_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, Lstm, MaxPool2d, Relu, Sequential};
use fedca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 2e-2; // f32 forwards + central differences
const BN_TOL: f32 = 4e-2; // batch statistics amplify rounding noise

/// Conv output spatial size for a square input.
fn conv_out(size: usize, k: usize, stride: usize, padding: usize) -> usize {
    (size + 2 * padding - k) / stride + 1
}

#[test]
fn conv2d_grads_across_strides_paddings_and_channels() {
    // (in_c, out_c, k, stride, padding, input size)
    let configs = [
        (1usize, 2usize, 3usize, 1usize, 0usize, 6usize), // valid conv
        (2, 3, 3, 2, 1, 7),                               // strided, odd input
        (3, 2, 1, 1, 0, 4),                               // 1x1 pointwise
        (2, 2, 5, 2, 2, 8),                               // big kernel, heavy pad
    ];
    for (ci, (in_c, out_c, k, stride, padding, size)) in configs.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + ci as u64);
        let out_hw = conv_out(size, k, stride, padding);
        let mut net = Sequential::new()
            .push(Conv2d::new("c", in_c, out_c, k, stride, padding, &mut rng))
            .push(Flatten::new())
            .push(Linear::new("fc", out_c * out_hw * out_hw, 3, &mut rng));
        let x = Tensor::randn([2, in_c, size, size], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[0, 2], 1e-3, 40);
        assert!(
            r.max_rel_err < TOL,
            "config {ci} ({in_c}->{out_c}, k{k} s{stride} p{padding}): param rel err {}",
            r.max_rel_err
        );
        let r = check_input_grad(&mut net, &x, &[0, 2], 1e-3, 40);
        assert!(
            r.max_rel_err < TOL,
            "config {ci}: input rel err {}",
            r.max_rel_err
        );
    }
}

#[test]
fn batchnorm_grads_across_channel_counts_and_batch_sizes() {
    for (ci, (channels, batch, size)) in [(1usize, 4usize, 5usize), (3, 2, 4), (4, 3, 3)]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(200 + ci as u64);
        let mut net = Sequential::new()
            .push(BatchNorm2d::new("bn", channels))
            .push(Relu::new())
            .push(Flatten::new())
            .push(Linear::new("fc", channels * size * size, 2, &mut rng));
        let x = Tensor::randn([batch, channels, size, size], 1.0, &mut rng);
        let labels: Vec<usize> = (0..batch).map(|i| i % 2).collect();
        let r = check_param_grads(&mut net, &x, &labels, 1e-3, 30);
        assert!(
            r.max_rel_err < BN_TOL,
            "bn config {ci} ({channels}ch, batch {batch}): param rel err {}",
            r.max_rel_err
        );
        let r = check_input_grad(&mut net, &x, &labels, 1e-3, 30);
        assert!(
            r.max_rel_err < BN_TOL,
            "bn config {ci}: input rel err {}",
            r.max_rel_err
        );
    }
}

#[test]
fn lstm_grads_across_depths_and_widths() {
    // (input size, hidden, layers, seq len)
    for (ci, (input, hidden, depth, seq)) in
        [(3usize, 4usize, 1usize, 3usize), (2, 6, 2, 4), (4, 3, 3, 2)]
            .into_iter()
            .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(300 + ci as u64);
        let mut net = Sequential::new()
            .push(Lstm::new("rnn", input, hidden, depth, &mut rng))
            .push(Linear::new("fc", hidden, 3, &mut rng));
        let x = Tensor::randn([2, seq, input], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[0, 1], 1e-2, 30);
        assert!(
            r.max_rel_err < BN_TOL,
            "lstm config {ci} (in {input}, h {hidden}, depth {depth}): param rel err {}",
            r.max_rel_err
        );
        let r = check_input_grad(&mut net, &x, &[0, 1], 1e-2, 30);
        assert!(
            r.max_rel_err < BN_TOL,
            "lstm config {ci}: input rel err {}",
            r.max_rel_err
        );
    }
}

#[test]
fn conv_pool_bn_stack_grads_end_to_end() {
    // The paper-style CNN block: conv → BN → relu → pool → fc, checked as
    // one stack so cross-layer gradient plumbing is covered too.
    let mut rng = StdRng::seed_from_u64(401);
    let mut net = Sequential::new()
        .push(Conv2d::new("c1", 1, 4, 3, 1, 1, &mut rng))
        .push(BatchNorm2d::new("bn1", 4))
        .push(Relu::new())
        .push(MaxPool2d::new())
        .push(Flatten::new())
        .push(Linear::new("fc", 4 * 3 * 3, 4, &mut rng));
    let x = Tensor::randn([3, 1, 6, 6], 1.0, &mut rng);
    let r = check_param_grads(&mut net, &x, &[0, 1, 3], 1e-3, 25);
    assert!(
        r.max_rel_err < BN_TOL,
        "stack param rel err {}",
        r.max_rel_err
    );
    let r = check_input_grad(&mut net, &x, &[0, 1, 3], 1e-3, 25);
    assert!(
        r.max_rel_err < BN_TOL,
        "stack input rel err {}",
        r.max_rel_err
    );
}
