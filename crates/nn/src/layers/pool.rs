//! Spatial pooling over `[N, C, H, W]` feature maps.

use crate::layer::Layer;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;

fn check_4d(x: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        x.shape().rank(),
        4,
        "{what} expects [N,C,H,W], got {}",
        x.shape()
    );
    let d = x.dims();
    (d[0], d[1], d[2], d[3])
}

/// 2×2 max pooling with stride 2 (non-overlapping; the only pool the
/// LeNet-style CNN runs). Caches argmax indices for the backward pass.
#[derive(Default)]
pub struct MaxPool2d {
    argmax: Vec<usize>, // flat input index of each output's max (reused)
    input_dims: Vec<usize>,
    ready: bool,
}

impl MaxPool2d {
    /// Creates a 2×2, stride-2 max pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = check_4d(x, "MaxPool2d");
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "MaxPool2d needs H, W divisible by 2, got {h}x{w}"
        );
        let (oh, ow) = (h / 2, w / 2);
        let mut out = ws.take(&[n, c, oh, ow]);
        self.argmax.clear();
        self.argmax.resize(n * c * oh * ow, 0);
        let argmax = &mut self.argmax;
        let xd = x.as_slice();
        let od = out.as_mut_slice();
        // Row-major window visit with strict-`>` tie-breaking (the first
        // maximum wins), window indices built incrementally per row pair.
        for nc in 0..n * c {
            let in_base = nc * h * w;
            let out_base = nc * oh * ow;
            for i in 0..oh {
                let r0 = in_base + (2 * i) * w;
                let r1 = r0 + w;
                let ob = out_base + i * ow;
                for j in 0..ow {
                    let c0 = 2 * j;
                    let mut best_idx = r0 + c0;
                    let mut best = xd[best_idx];
                    if xd[r0 + c0 + 1] > best {
                        best = xd[r0 + c0 + 1];
                        best_idx = r0 + c0 + 1;
                    }
                    if xd[r1 + c0] > best {
                        best = xd[r1 + c0];
                        best_idx = r1 + c0;
                    }
                    if xd[r1 + c0 + 1] > best {
                        best = xd[r1 + c0 + 1];
                        best_idx = r1 + c0 + 1;
                    }
                    od[ob + j] = best;
                    argmax[ob + j] = best_idx;
                }
            }
        }
        self.input_dims.clear();
        self.input_dims.extend_from_slice(x.dims());
        self.ready = true;
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        assert!(self.ready, "MaxPool2d::backward before forward");
        assert_eq!(grad_out.len(), self.argmax.len(), "grad shape mismatch");
        if !need_input_grad {
            return None;
        }
        let mut gin = ws.take_zeroed(&self.input_dims);
        let gd = gin.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(self.argmax.iter()) {
            gd[idx] += g;
        }
        Some(gin)
    }
}

/// Global average pooling: `[N, C, H, W]` → `[N, C]`. Used as the WRN head.
#[derive(Default)]
pub struct AvgPool2d {
    input_dims: Vec<usize>,
    ready: bool,
}

impl AvgPool2d {
    /// Creates a global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = check_4d(x, "AvgPool2d");
        let area = (h * w) as f32;
        let mut out = ws.take(&[n, c]);
        let xd = x.as_slice();
        for (nc, o) in out.as_mut_slice().iter_mut().enumerate() {
            let base = nc * h * w;
            *o = xd[base..base + h * w].iter().sum::<f32>() / area;
        }
        self.input_dims.clear();
        self.input_dims.extend_from_slice(x.dims());
        self.ready = true;
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        assert!(self.ready, "AvgPool2d::backward before forward");
        if !need_input_grad {
            return None;
        }
        let (h, w) = (self.input_dims[2], self.input_dims[3]);
        let area = (h * w) as f32;
        let mut gin = ws.take(&self.input_dims);
        let gd = gin.as_mut_slice();
        for (nc, &g) in grad_out.as_slice().iter().enumerate() {
            let v = g / area;
            for cell in &mut gd[nc * h * w..(nc + 1) * h * w] {
                *cell = v;
            }
        }
        Some(gin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_max() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new();
        #[rustfmt::skip]
        let x = Tensor::from_vec([1, 1, 4, 4], vec![
            1., 2., 5., 6.,
            3., 4., 7., 8.,
            9., 10., 13., 14.,
            11., 12., 15., 16.,
        ]);
        let y = p.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new();
        #[rustfmt::skip]
        let x = Tensor::from_vec([1, 1, 2, 2], vec![
            1., 9.,
            3., 4.,
        ]);
        let _ = p.forward(&x, &mut ws);
        let g = p
            .backward(&Tensor::from_vec([1, 1, 1, 1], vec![5.0]), true, &mut ws)
            .unwrap();
        assert_eq!(g.as_slice(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn maxpool_multichannel_batches() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new();
        let x = Tensor::from_vec([2, 3, 4, 4], (0..96).map(|i| i as f32).collect());
        let y = p.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        // In a monotone ramp, each window max is its bottom-right element.
        assert_eq!(y.at(&[0, 0, 0, 0]), 5.0);
        assert_eq!(y.at(&[1, 2, 1, 1]), 95.0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn maxpool_rejects_indivisible() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new();
        let _ = p.forward(&Tensor::zeros([1, 1, 3, 4]), &mut ws);
    }

    #[test]
    fn avgpool_averages_and_spreads_gradient() {
        let mut ws = Workspace::new();
        let mut p = AvgPool2d::new();
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = p.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let g = p
            .backward(&Tensor::from_vec([1, 2], vec![4.0, 8.0]), true, &mut ws)
            .unwrap();
        assert_eq!(g.as_slice(), &[1., 1., 1., 1., 2., 2., 2., 2.]);
    }
}
