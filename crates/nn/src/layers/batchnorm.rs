//! Batch normalization over `[N, C, H, W]` (per-channel statistics).
//!
//! WideResNet's trainability depends on normalization; this is the standard
//! BN with learnable affine (`weight` = γ, `bias` = β) and one mode: every
//! forward normalizes with the statistics of its own batch, over `N·H·W`
//! per channel. There are no running statistics and no eval mode — the
//! trainer's evaluation normalizes with batch statistics too (DESIGN §4
//! item 12), so only γ and β exist, and only they enter a client's update.

use crate::layer::Layer;
use crate::param::Parameter;
use crate::workspace::{cache_resize, Workspace};
use fedca_tensor::Tensor;

/// Per-channel batch normalization with affine transform.
pub struct BatchNorm2d {
    weight: Parameter, // gamma, [C]
    bias: Parameter,   // beta,  [C]
    eps: f32,
    channels: usize,
    // Backward cache (persistent, resized in place).
    xhat: Option<Tensor>,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a BN layer for `channels` feature maps, γ=1, β=0.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            weight: Parameter::new(format!("{name}.weight"), Tensor::full([channels], 1.0)),
            bias: Parameter::new(format!("{name}.bias"), Tensor::zeros([channels])),
            eps: 1e-5,
            channels,
            xhat: None,
            inv_std: vec![0.0; channels],
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            x.shape().rank(),
            4,
            "BatchNorm2d expects [N,C,H,W], got {}",
            x.shape()
        );
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(
            c,
            self.channels,
            "BatchNorm2d {}: channel mismatch",
            self.weight.name()
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        let xd = x.as_slice();

        let xhat = cache_resize(&mut self.xhat, x.dims());
        let mut out = ws.take(x.dims());
        for ch in 0..c {
            let mut sum = 0.0f64;
            let mut sumsq = 0.0f64;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for &v in &xd[base..base + plane] {
                    sum += v as f64;
                    sumsq += (v as f64) * (v as f64);
                }
            }
            let mean = (sum / m as f64) as f32;
            let var = ((sumsq / m as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            self.inv_std[ch] = inv_std;
            let gamma = self.weight.value.as_slice()[ch];
            let beta = self.bias.value.as_slice()[ch];
            for s in 0..n {
                let base = (s * c + ch) * plane;
                let xh = &mut xhat.as_mut_slice()[base..base + plane];
                let yo = &mut out.as_mut_slice()[base..base + plane];
                for i in 0..plane {
                    let xn = (xd[base + i] - mean) * inv_std;
                    xh[i] = xn;
                    yo[i] = gamma * xn + beta;
                }
            }
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let xhat = self
            .xhat
            .as_ref()
            .expect("BatchNorm2d::backward before forward");
        assert_eq!(grad_out.dims(), xhat.dims(), "grad shape mismatch");
        let dims = xhat.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let m = (n * plane) as f32;
        let gd = grad_out.as_slice();
        let xh = xhat.as_slice();
        let mut gin = need_input_grad.then(|| ws.take(dims));

        for ch in 0..c {
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for i in 0..plane {
                    sum_dy += gd[base + i] as f64;
                    sum_dy_xhat += gd[base + i] as f64 * xh[base + i] as f64;
                }
            }
            self.bias.grad.as_mut_slice()[ch] += sum_dy as f32;
            self.weight.grad.as_mut_slice()[ch] += sum_dy_xhat as f32;

            let Some(gin) = gin.as_mut() else {
                continue;
            };
            let gamma = self.weight.value.as_slice()[ch];
            let scale = gamma * self.inv_std[ch];
            let mean_dy = (sum_dy / m as f64) as f32;
            let mean_dy_xhat = (sum_dy_xhat / m as f64) as f32;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                let gout = &mut gin.as_mut_slice()[base..base + plane];
                for i in 0..plane {
                    gout[i] = scale * (gd[base + i] - mean_dy - xh[base + i] * mean_dy_xhat);
                }
            }
        }
        gin
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
    fn training_output_is_normalized_per_channel() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new("bn", 3);
        let x = Tensor::randn([4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 7.0);
        let y = bn.forward(&x, &mut ws);
        // Each channel of y should have ~zero mean and ~unit variance.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for s in 0..4 {
                for i in 0..5 {
                    for j in 0..5 {
                        vals.push(y.at(&[s, ch, i, j]));
                    }
                }
            }
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn gamma_beta_grads_match_definitions() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let _y = bn.forward(&x, &mut ws);
        let g = Tensor::full([2, 2, 3, 3], 1.0);
        let _ = bn.backward(&g, true, &mut ws);
        // dβ = Σ dy = N*H*W = 18 per channel.
        assert!((bn.bias.grad.as_slice()[0] - 18.0).abs() < 1e-4);
        // dγ = Σ dy·x̂ = Σ x̂ ≈ 0 (normalized batch sums to 0).
        assert!(bn.weight.grad.as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn params_are_gamma_beta_only() {
        let bn = BatchNorm2d::new("bn1", 4);
        let names: Vec<_> = bn.params().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names, vec!["bn1.weight", "bn1.bias"]);
        assert_eq!(bn.num_params(), 8);
    }
}
