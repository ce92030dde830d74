//! Fully-connected layer: `y = x · Wᵀ + b` (PyTorch weight layout).

use crate::init::kaiming_normal;
use crate::layer::Layer;
use crate::param::Parameter;
use crate::workspace::{cache_copy, Workspace};
use fedca_tensor::{ops, Tensor};

/// Dense layer with weight `[out, in]` and bias `[out]`, named
/// `<name>.weight` / `<name>.bias`.
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized dense layer. `name` is the dotted
    /// prefix (e.g. `fc1`), yielding parameters `fc1.weight`, `fc1.bias`.
    pub fn new(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let weight = kaiming_normal(&[out_features, in_features], in_features, rng);
        Linear {
            weight: Parameter::new(format!("{name}.weight"), weight),
            bias: Parameter::new(format!("{name}.bias"), Tensor::zeros([out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            x.shape().rank(),
            2,
            "Linear expects [N, in], got {}",
            x.shape()
        );
        assert_eq!(
            x.dims()[1],
            self.in_features,
            "Linear {} expects {} input features, got {}",
            self.weight.name(),
            self.in_features,
            x.dims()[1]
        );
        let n = x.dims()[0];
        // y[N, out] = x[N, in] · W[out, in]ᵀ
        let mut y = ws.take(&[n, self.out_features]);
        ops::matmul_transpose_b_into(x, &self.weight.value, &mut y);
        let b = self.bias.value.as_slice();
        let ydata = y.as_mut_slice();
        for i in 0..n {
            fedca_tensor::axpy(
                1.0,
                b,
                &mut ydata[i * self.out_features..(i + 1) * self.out_features],
            );
        }
        cache_copy(&mut self.cached_input, x);
        y
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        let n = x.dims()[0];
        assert_eq!(
            grad_out.dims(),
            &[n, self.out_features],
            "grad_out shape mismatch"
        );

        // dW[out, in] += gᵀ[out, N] · x[N, in]  == matmul_transpose_a(g, x)
        ops::matmul_transpose_a_acc(grad_out, x, &mut self.weight.grad);
        // db += column sums of g
        {
            let g = grad_out.as_slice();
            let db = self.bias.grad.as_mut_slice();
            for i in 0..n {
                fedca_tensor::axpy(
                    1.0,
                    &g[i * self.out_features..(i + 1) * self.out_features],
                    db,
                );
            }
        }
        // dx[N, in] = g[N, out] · W[out, in]
        need_input_grad.then(|| {
            let mut dx = ws.take(&[n, self.in_features]);
            ops::matmul_into(grad_out, &self.weight.value, &mut dx);
            dx
        })
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_small_case() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ws = Workspace::new();
        let mut lin = Linear::new("fc", 2, 3, &mut rng);
        // Overwrite with known values: W = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 1.0]
        lin.weight.value = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        lin.bias.value = Tensor::from_vec([3], vec![0.5, -0.5, 1.0]);
        let x = Tensor::from_vec([1, 2], vec![10.0, 20.0]);
        let y = lin.forward(&x, &mut ws);
        assert_eq!(y.as_slice(), &[50.5, 109.5, 171.0]);
    }

    #[test]
    fn param_names_and_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new("fc1", 4, 2, &mut rng);
        let names: Vec<_> = lin.params().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names, vec!["fc1.weight", "fc1.bias"]);
        assert_eq!(lin.num_params(), 4 * 2 + 2);
    }

    #[test]
    fn backward_accumulates_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ws = Workspace::new();
        let mut lin = Linear::new("fc", 2, 2, &mut rng);
        let x = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.]);
        let _ = lin.forward(&x, &mut ws);
        let g = Tensor::from_vec([2, 2], vec![1., 1., 1., 1.]);
        let _ = lin.backward(&g, true, &mut ws);
        let first = lin.weight.grad.clone();
        let _ = lin.forward(&x, &mut ws);
        let _ = lin.backward(&g, false, &mut ws);
        let mut expected = first.clone();
        expected.add_assign(&first);
        assert_eq!(lin.weight.grad, expected, "grads must accumulate");
        lin.zero_grad();
        assert_eq!(lin.weight.grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ws = Workspace::new();
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        let _ = lin.forward(&Tensor::zeros([1, 5]), &mut ws);
    }
}
