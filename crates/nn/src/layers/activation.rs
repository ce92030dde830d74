//! Elementwise activations: the ReLU layer and the scalar sigmoid.
//!
//! ReLU caches exactly what its backward needs, the input sign pattern, in
//! a persistent slot resized in place; outputs come from the workspace.

use crate::layer::Layer;
use crate::workspace::{cache_resize, Workspace};
use fedca_tensor::Tensor;

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    // 1.0 where input > 0, else 0.0 — the backward mask.
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = cache_resize(&mut self.mask, x.dims());
        let mut y = ws.take(x.dims());
        for ((m, v), &xi) in mask
            .as_mut_slice()
            .iter_mut()
            .zip(y.as_mut_slice().iter_mut())
            .zip(x.as_slice())
        {
            if xi > 0.0 {
                *m = 1.0;
                *v = xi;
            } else {
                *m = 0.0;
                *v = 0.0;
            }
        }
        y
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        assert_eq!(mask.len(), grad_out.len(), "grad shape mismatch");
        if !need_input_grad {
            return None;
        }
        let mut g = ws.take(grad_out.dims());
        for ((gi, &go), mi) in g
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(mask.as_slice())
        {
            *gi = go * mi;
        }
        Some(g)
    }
}

/// Numerically-stable scalar sigmoid: the reference the LSTM tests check
/// the `tensor::simd` gates against.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_mask() {
        let mut ws = Workspace::new();
        let mut relu = Relu::new();
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, &mut ws);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu
            .backward(&Tensor::full([4], 1.0), true, &mut ws)
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid_scalar(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid_scalar(-100.0).abs() < 1e-6);
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid_scalar(-1000.0).is_finite());
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().num_params(), 0);
    }
}
