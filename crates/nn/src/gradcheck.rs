//! Finite-difference gradient checking.
//!
//! Every layer's hand-derived backward pass is validated against central
//! differences on a scalar loss. Exposed as a library function (not just a
//! test helper) so downstream crates can gradcheck custom models too.

use crate::layer::Layer;
use crate::loss::softmax_cross_entropy;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;

/// Result of a gradient check: worst relative error over all coordinates
/// checked.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Largest relative error between analytic and numeric gradients.
    pub max_rel_err: f32,
    /// Number of coordinates compared.
    pub checked: usize,
}

fn rel_err(a: f64, b: f64) -> f64 {
    // The floor bounds how strictly near-zero gradients are compared: f32
    // forward passes give central differences only ~1e-5 of absolute
    // resolution, so demanding relative agreement on 1e-6-sized gradients
    // would only measure rounding noise.
    let denom = a.abs().max(b.abs()).max(1e-2);
    (a - b).abs() / denom
}

/// Checks parameter gradients of `layer` against central finite differences
/// through a softmax-cross-entropy head.
///
/// `x` is the input batch, `labels` one class per sample (after the layer's
/// output is flattened to `[N, C]`). `max_coords_per_param` bounds the cost
/// by probing an evenly-strided subset of each parameter.
///
/// # Panics
/// Panics if the layer output is not 2-D `[N, C]` after forward.
pub fn check_param_grads(
    layer: &mut dyn Layer,
    x: &Tensor,
    labels: &[usize],
    eps: f32,
    max_coords_per_param: usize,
) -> GradCheckReport {
    let mut ws = Workspace::new();
    // Analytic gradients.
    layer.zero_grad();
    let out = layer.forward(x, &mut ws);
    assert_eq!(out.shape().rank(), 2, "gradcheck expects [N, C] output");
    let (_, grad) = softmax_cross_entropy(&out, labels);
    let _ = layer.backward(&grad, true, &mut ws);
    let analytic: Vec<Vec<f32>> = layer
        .params()
        .iter()
        .map(|p| p.grad.as_slice().to_vec())
        .collect();

    let mut max_rel = 0.0f64;
    let mut checked = 0usize;
    for (pi, grad) in analytic.iter().enumerate() {
        let len = grad.len();
        let stride = (len / max_coords_per_param).max(1);
        let mut idx = 0;
        while idx < len {
            // f(w + eps)
            nudge(layer, pi, idx, eps);
            let out_p = layer.forward(x, &mut ws);
            let (loss_p, _) = softmax_cross_entropy(&out_p, labels);
            ws.give(out_p);
            // f(w - eps)
            nudge(layer, pi, idx, -2.0 * eps);
            let out_m = layer.forward(x, &mut ws);
            let (loss_m, _) = softmax_cross_entropy(&out_m, labels);
            ws.give(out_m);
            // restore
            nudge(layer, pi, idx, eps);
            let numeric = (loss_p as f64 - loss_m as f64) / (2.0 * eps as f64);
            let a = grad[idx] as f64;
            max_rel = max_rel.max(rel_err(a, numeric));
            checked += 1;
            idx += stride;
        }
    }
    GradCheckReport {
        max_rel_err: max_rel as f32,
        checked,
    }
}

/// Adds `delta` to coordinate `idx` of the `pi`-th parameter in traversal
/// order.
fn nudge(layer: &mut dyn Layer, pi: usize, idx: usize, delta: f32) {
    let mut i = 0;
    layer.for_each_param(&mut |p| {
        if i == pi {
            p.value.as_mut_slice()[idx] += delta;
        }
        i += 1;
    });
}

/// Checks the *input* gradient of `layer` against central differences.
pub fn check_input_grad(
    layer: &mut dyn Layer,
    x: &Tensor,
    labels: &[usize],
    eps: f32,
    max_coords: usize,
) -> GradCheckReport {
    let mut ws = Workspace::new();
    layer.zero_grad();
    let out = layer.forward(x, &mut ws);
    let (_, grad) = softmax_cross_entropy(&out, labels);
    let dx = layer
        .backward(&grad, true, &mut ws)
        .expect("input gradient was asked for");
    let analytic = dx.as_slice().to_vec();

    let mut max_rel = 0.0f64;
    let mut checked = 0usize;
    let len = x.len();
    let stride = (len / max_coords).max(1);
    let mut idx = 0;
    let mut xp = x.clone();
    while idx < len {
        xp.as_mut_slice()[idx] += eps;
        let out_p = layer.forward(&xp, &mut ws);
        let (loss_p, _) = softmax_cross_entropy(&out_p, labels);
        ws.give(out_p);
        xp.as_mut_slice()[idx] -= 2.0 * eps;
        let out_m = layer.forward(&xp, &mut ws);
        let (loss_m, _) = softmax_cross_entropy(&out_m, labels);
        ws.give(out_m);
        xp.as_mut_slice()[idx] += eps;
        let numeric = (loss_p as f64 - loss_m as f64) / (2.0 * eps as f64);
        max_rel = max_rel.max(rel_err(analytic[idx] as f64, numeric));
        checked += 1;
        idx += stride;
    }
    GradCheckReport {
        max_rel_err: max_rel as f32,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f32 = 2e-2; // f32 forward + finite differences

    #[test]
    fn linear_grads() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut layer = Linear::new("fc", 6, 4, &mut rng);
        let x = Tensor::randn([3, 6], 1.0, &mut rng);
        let r = check_param_grads(&mut layer, &x, &[0, 1, 2], 1e-2, 50);
        assert!(r.max_rel_err < TOL, "param rel err {}", r.max_rel_err);
        let r = check_input_grad(&mut layer, &x, &[0, 1, 2], 1e-2, 50);
        assert!(r.max_rel_err < TOL, "input rel err {}", r.max_rel_err);
    }

    #[test]
    fn mlp_with_relu_grads() {
        let mut rng = StdRng::seed_from_u64(72);
        let mut net = Sequential::new()
            .push(Linear::new("fc1", 5, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new("fc2", 8, 3, &mut rng));
        let x = Tensor::randn([4, 5], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[0, 1, 2, 0], 1e-2, 40);
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    }

    #[test]
    fn conv_pool_grads() {
        let mut rng = StdRng::seed_from_u64(73);
        let mut net = Sequential::new()
            .push(Conv2d::new("c1", 1, 3, 3, 1, 1, &mut rng))
            .push(Relu::new())
            .push(MaxPool2d::new())
            .push(Flatten::new())
            .push(Linear::new("fc", 3 * 3 * 3, 2, &mut rng));
        let x = Tensor::randn([2, 1, 6, 6], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[0, 1], 1e-3, 30);
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
        let r = check_input_grad(&mut net, &x, &[0, 1], 1e-3, 30);
        assert!(r.max_rel_err < TOL, "input rel err {}", r.max_rel_err);
    }

    #[test]
    fn batchnorm_grads() {
        let mut rng = StdRng::seed_from_u64(74);
        let mut net = Sequential::new()
            .push(Conv2d::new("c", 2, 2, 3, 1, 1, &mut rng))
            .push(BatchNorm2d::new("bn", 2))
            .push(Relu::new())
            .push(Flatten::new())
            .push(Linear::new("fc", 2 * 4 * 4, 2, &mut rng));
        let x = Tensor::randn([3, 2, 4, 4], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[0, 1, 0], 1e-3, 25);
        assert!(r.max_rel_err < 4e-2, "rel err {}", r.max_rel_err);
    }

    #[test]
    fn lstm_grads() {
        let mut rng = StdRng::seed_from_u64(75);
        let mut net = Sequential::new()
            .push(Lstm::new("rnn", 3, 6, 2, &mut rng))
            .push(Linear::new("fc", 6, 3, &mut rng));
        let x = Tensor::randn([2, 4, 3], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[1, 2], 1e-2, 25);
        assert!(r.max_rel_err < 4e-2, "rel err {}", r.max_rel_err);
    }

    #[test]
    fn residual_grads() {
        let mut rng = StdRng::seed_from_u64(76);
        let body = Sequential::new()
            .push(Conv2d::new("0", 2, 2, 3, 1, 1, &mut rng))
            .push(Relu::new())
            .push(Conv2d::new("2", 2, 2, 3, 1, 1, &mut rng));
        let mut net = Sequential::new()
            .push(ResidualBlock::identity(body))
            .push(Flatten::new())
            .push(Linear::new("fc", 2 * 4 * 4, 2, &mut rng));
        let x = Tensor::randn([2, 2, 4, 4], 1.0, &mut rng);
        let r = check_param_grads(&mut net, &x, &[0, 1], 1e-3, 25);
        assert!(r.max_rel_err < TOL, "rel err {}", r.max_rel_err);
    }
}
