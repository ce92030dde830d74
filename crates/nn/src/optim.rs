//! Stochastic gradient descent with weight decay and the FedProx proximal
//! term.
//!
//! FedProx ([Li et al., MLSys '20]) adds `μ/2‖w − w_global‖²` to each
//! client's loss, i.e. `μ(w − w_global)` to each gradient. The optimizer
//! takes the round's anchor weights as an optional flat slice so clients
//! don't need a second model copy per parameter.

use crate::param::Parameter;

/// Plain SGD: `w ← w − lr · (g + wd·w [+ μ(w − w_anchor)])`.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay coefficient (coupled, PyTorch-style: added to the
    /// gradient before the update).
    pub weight_decay: f32,
    /// FedProx proximal coefficient μ; `0.0` disables the term.
    pub prox_mu: f32,
}

impl Sgd {
    /// SGD with weight decay and no proximal term.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            weight_decay,
            prox_mu: 0.0,
        }
    }

    /// Enables FedProx's proximal term with coefficient `mu`.
    pub fn with_prox(mut self, mu: f32) -> Self {
        self.prox_mu = mu;
        self
    }

    /// Updates a single parameter. `anchor_slice` is this parameter's slice
    /// of the round-start flat vector (required iff `prox_mu > 0`).
    /// [`Model::step`](crate::Model::step) drives it through its parameter
    /// visitor, tracking each parameter's offset into the anchor.
    ///
    /// # Panics
    /// Panics if a proximal term is configured without an anchor, or if the
    /// anchor slice length does not match the parameter length.
    pub fn step_param(&self, p: &mut Parameter, anchor_slice: Option<&[f32]>) {
        let n = p.len();
        let w = p.value.as_mut_slice();
        let g = p.grad.as_slice();
        if self.prox_mu > 0.0 {
            let a = anchor_slice.expect("FedProx step requires the round-start anchor weights");
            assert_eq!(a.len(), n, "anchor length mismatch");
            for i in 0..n {
                let grad = g[i] + self.weight_decay * w[i] + self.prox_mu * (w[i] - a[i]);
                w[i] -= self.lr * grad;
            }
        } else {
            for i in 0..n {
                let grad = g[i] + self.weight_decay * w[i];
                w[i] -= self.lr * grad;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::Model;
    use fedca_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn param(vals: &[f32], grads: &[f32]) -> Parameter {
        let mut p = Parameter::new("p", Tensor::from_vec([vals.len()], vals.to_vec()));
        p.grad = Tensor::from_vec([grads.len()], grads.to_vec());
        p
    }

    #[test]
    fn vanilla_sgd_step() {
        let mut p = param(&[1.0, 2.0], &[0.5, -0.5]);
        Sgd::new(0.1, 0.0).step_param(&mut p, None);
        assert_eq!(p.value.as_slice(), &[0.95, 2.05]);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = param(&[1.0], &[0.0]);
        Sgd::new(0.1, 0.5).step_param(&mut p, None);
        assert!((p.value.as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn prox_pulls_toward_anchor() {
        let mut p = param(&[2.0], &[0.0]);
        let sgd = Sgd::new(0.1, 0.0).with_prox(1.0);
        // Anchor at 0: gradient = μ(w − a) = 2, so w ← 2 − 0.1·2 = 1.8.
        sgd.step_param(&mut p, Some(&[0.0]));
        assert!((p.value.as_slice()[0] - 1.8).abs() < 1e-6);
        // At the anchor the proximal term vanishes.
        let mut q = param(&[3.0], &[0.0]);
        sgd.step_param(&mut q, Some(&[3.0]));
        assert!((q.value.as_slice()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "anchor")]
    fn prox_without_anchor_panics() {
        let mut p = param(&[1.0], &[0.0]);
        Sgd::new(0.1, 0.0).with_prox(0.01).step_param(&mut p, None);
    }

    #[test]
    fn multi_param_anchor_offsets() {
        // One linear layer: `fc.weight` (2 elements), then `fc.bias` (1).
        let mut model = Model::new(Linear::new("fc", 2, 1, &mut StdRng::seed_from_u64(0)));
        model.set_flat_params(&[1.0, 1.0, 5.0]);
        model.zero_grad();
        let sgd = Sgd::new(1.0, 0.0).with_prox(1.0);
        model.step(&sgd, Some(&[0.0, 2.0, 5.0]));
        // weight: w − 1.0·(w − anchor) = [0, 2]; bias sits on its anchor.
        assert_eq!(model.flat_params(), vec![0.0, 2.0, 5.0]);
    }
}
