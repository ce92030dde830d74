//! 2-D convolution via batched im2col + one GEMM per batch.
//!
//! The weight layout is PyTorch's `[out_c, in_c, kh, kw]` flattened to
//! `[out_c, in_c·kh·kw]` so both forward and backward reduce to the packed
//! GEMM kernels in `fedca-tensor`. The im2col buffer unrolls the **whole
//! batch** into one `[in_c·k·k, N·oh·ow]` matrix (sample `s` occupies the
//! column band `[s·oh·ow, (s+1)·oh·ow)`), so forward is a single
//! `W · col` product instead of N small ones, and the buffer is cached
//! across forward/backward — the backward pass reuses it for the weight
//! gradient without re-unrolling, and no copy of the input is kept at all.

use crate::init::kaiming_normal;
use crate::layer::Layer;
use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::{ops, Tensor};

/// 2-D convolution with square kernel, configurable stride and zero padding.
pub struct Conv2d {
    weight: Parameter, // [out_c, in_c*k*k]
    bias: Parameter,   // [out_c]
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    padding: usize,
    // Batched im2col buffer [in_c·k·k, N·oh·ow], persisted across
    // forward/backward; plus the input geometry backward needs.
    col: Tensor,
    cached_dims: Option<(usize, usize, usize, usize, usize)>, // (n, h, w, oh, ow)
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// Parameters are named `<name>.weight` / `<name>.bias`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `stride == 0`.
    pub fn new(
        name: &str,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = in_c * k * k;
        let weight = kaiming_normal(&[out_c, fan_in], fan_in, rng);
        Conv2d {
            weight: Parameter::new(format!("{name}.weight"), weight),
            bias: Parameter::new(format!("{name}.bias"), Tensor::zeros([out_c])),
            in_c,
            out_c,
            k,
            stride,
            padding,
            col: Tensor::zeros([0]),
            cached_dims: None,
        }
    }

    /// Output spatial size for an input of `h`×`w`.
    ///
    /// # Panics
    /// Panics if the kernel does not fit.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let he = h + 2 * self.padding;
        let we = w + 2 * self.padding;
        assert!(
            he >= self.k && we >= self.k,
            "conv kernel {} larger than padded input {}x{}",
            self.k,
            he,
            we
        );
        (
            (he - self.k) / self.stride + 1,
            (we - self.k) / self.stride + 1,
        )
    }

    /// Unrolls one sample into `self.col`'s column band starting at `col0`.
    /// `ld` is the column stride of the batched buffer (`N·oh·ow`).
    #[allow(clippy::too_many_arguments)]
    fn im2col_sample(
        &mut self,
        x: &[f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        ld: usize,
        col0: usize,
    ) {
        let (k, s, p) = (self.k, self.stride, self.padding);
        let col = self.col.as_mut_slice();
        let mut row = 0usize;
        for c in 0..self.in_c {
            let plane = &x[c * h * w..(c + 1) * h * w];
            for di in 0..k {
                for dj in 0..k {
                    let dst = &mut col[row * ld + col0..row * ld + col0 + oh * ow];
                    if s == 1 {
                        // Stride-1 fast path: src_j = j + dj − p, so each
                        // output row is one contiguous slice of the input
                        // row flanked by the zero-padding fringe.
                        let off_j = dj as isize - p as isize;
                        let j_lo = ((-off_j).max(0) as usize).min(ow);
                        let j_hi = ((w as isize - off_j).max(j_lo as isize) as usize).min(ow);
                        for i in 0..oh {
                            let src_i = (i + di) as isize - p as isize;
                            let dst_row = &mut dst[i * ow..(i + 1) * ow];
                            if src_i < 0 || src_i >= h as isize {
                                dst_row.fill(0.0);
                                continue;
                            }
                            let src_base = src_i as usize * w;
                            dst_row[..j_lo].fill(0.0);
                            if j_hi > j_lo {
                                let s0 = src_base + (j_lo as isize + off_j) as usize;
                                dst_row[j_lo..j_hi].copy_from_slice(&plane[s0..s0 + (j_hi - j_lo)]);
                            }
                            dst_row[j_hi..].fill(0.0);
                        }
                        row += 1;
                        continue;
                    }
                    for i in 0..oh {
                        let src_i = (i * s + di) as isize - p as isize;
                        let dst_row = &mut dst[i * ow..(i + 1) * ow];
                        if src_i < 0 || src_i >= h as isize {
                            dst_row.fill(0.0);
                            continue;
                        }
                        let src_base = src_i as usize * w;
                        for (j, cell) in dst_row.iter_mut().enumerate() {
                            let src_j = (j * s + dj) as isize - p as isize;
                            *cell = if src_j < 0 || src_j >= w as isize {
                                0.0
                            } else {
                                plane[src_base + src_j as usize]
                            };
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// Scatters one sample's column band of a `[in_c·k·k, N·oh·ow]` gradient
    /// back onto that input sample.
    #[allow(clippy::too_many_arguments)]
    fn col2im_acc(
        &self,
        dcol: &[f32],
        gx: &mut [f32],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        ld: usize,
        col0: usize,
    ) {
        let (k, s, p) = (self.k, self.stride, self.padding);
        let mut row = 0usize;
        for c in 0..self.in_c {
            let plane = &mut gx[c * h * w..(c + 1) * h * w];
            for di in 0..k {
                for dj in 0..k {
                    let src = &dcol[row * ld + col0..row * ld + col0 + oh * ow];
                    if s == 1 {
                        // Stride-1 fast path mirrors `im2col_sample`: the
                        // in-bounds span of each row is contiguous, and the
                        // accumulation visits the same cells in the same
                        // j-order as the general path (bit-identical).
                        let off_j = dj as isize - p as isize;
                        let j_lo = ((-off_j).max(0) as usize).min(ow);
                        let j_hi = ((w as isize - off_j).max(j_lo as isize) as usize).min(ow);
                        for i in 0..oh {
                            let dst_i = (i + di) as isize - p as isize;
                            if dst_i < 0 || dst_i >= h as isize || j_hi == j_lo {
                                continue;
                            }
                            let base = dst_i as usize * w;
                            let d0 = base + (j_lo as isize + off_j) as usize;
                            let dst = &mut plane[d0..d0 + (j_hi - j_lo)];
                            let srow = &src[i * ow + j_lo..i * ow + j_hi];
                            for (dv, &sv) in dst.iter_mut().zip(srow) {
                                *dv += sv;
                            }
                        }
                        row += 1;
                        continue;
                    }
                    for i in 0..oh {
                        let dst_i = (i * s + di) as isize - p as isize;
                        if dst_i < 0 || dst_i >= h as isize {
                            continue;
                        }
                        let base = dst_i as usize * w;
                        for j in 0..ow {
                            let dst_j = (j * s + dj) as isize - p as isize;
                            if dst_j >= 0 && dst_j < w as isize {
                                plane[base + dst_j as usize] += src[i * ow + j];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            x.shape().rank(),
            4,
            "Conv2d expects [N,C,H,W], got {}",
            x.shape()
        );
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(
            c,
            self.in_c,
            "Conv2d {}: channel mismatch",
            self.weight.name()
        );
        let (oh, ow) = self.out_size(h, w);
        let ck2 = self.in_c * self.k * self.k;
        let ohw = oh * ow;
        let nohw = n * ohw;
        self.col.resize(&[ck2, nohw]);
        for s in 0..n {
            let xs = &x.as_slice()[s * c * h * w..(s + 1) * c * h * w];
            self.im2col_sample(xs, h, w, oh, ow, nohw, s * ohw);
        }
        // yt[out_c, N·oh·ow] = W · col — one GEMM for the whole batch.
        let mut yt = ws.take(&[self.out_c, nohw]);
        ops::matmul_into(&self.weight.value, &self.col, &mut yt);
        // Scatter to batch-major [N, out_c, oh, ow], adding the bias.
        let mut out = ws.take(&[n, self.out_c, oh, ow]);
        {
            let b = self.bias.value.as_slice();
            let yd = yt.as_slice();
            let od = out.as_mut_slice();
            for (oc, &bv) in b.iter().enumerate() {
                for s in 0..n {
                    let src = &yd[oc * nohw + s * ohw..][..ohw];
                    let dst = &mut od[(s * self.out_c + oc) * ohw..][..ohw];
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = v + bv;
                    }
                }
            }
        }
        ws.give(yt);
        self.cached_dims = Some((n, h, w, oh, ow));
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let (n, h, w, oh, ow) = self.cached_dims.expect("Conv2d::backward before forward");
        let c = self.in_c;
        let ck2 = self.in_c * self.k * self.k;
        let ohw = oh * ow;
        let nohw = n * ohw;
        assert_eq!(
            grad_out.dims(),
            &[n, self.out_c, oh, ow],
            "Conv2d::backward grad shape mismatch"
        );
        // Gather the gradient into column-band layout gt[out_c, N·oh·ow].
        let mut gt = ws.take(&[self.out_c, nohw]);
        {
            let gd = grad_out.as_slice();
            let td = gt.as_mut_slice();
            for oc in 0..self.out_c {
                for s in 0..n {
                    td[oc * nohw + s * ohw..][..ohw]
                        .copy_from_slice(&gd[(s * self.out_c + oc) * ohw..][..ohw]);
                }
            }
        }
        // dW += gt · colᵀ — reuses the forward's cached im2col buffer.
        ops::matmul_transpose_b_acc(&gt, &self.col, &mut self.weight.grad);
        // db += row sums of gt
        {
            let db = self.bias.grad.as_mut_slice();
            let gd = gt.as_slice();
            for (oc, dbv) in db.iter_mut().enumerate() {
                *dbv += gd[oc * nohw..(oc + 1) * nohw].iter().sum::<f32>();
            }
        }
        if !need_input_grad {
            ws.give(gt);
            return None;
        }
        // dcol = Wᵀ · gt, then scatter each sample's band back.
        let mut dcol = ws.take(&[ck2, nohw]);
        ops::matmul_transpose_a_into(&self.weight.value, &gt, &mut dcol);
        ws.give(gt);
        let mut gin = ws.take_zeroed(&[n, c, h, w]);
        for s in 0..n {
            let gx = &mut gin.as_mut_slice()[s * c * h * w..(s + 1) * c * h * w];
            self.col2im_acc(dcol.as_slice(), gx, h, w, oh, ow, nohw, s * ohw);
        }
        ws.give(dcol);
        Some(gin)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
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

    /// Direct (quadruple-loop) convolution used as a reference.
    fn naive_conv(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, in_c, h, ww) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let out_c = w.dims()[0];
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (ww + 2 * pad - k) / stride + 1;
        let mut out = Tensor::zeros([n, out_c, oh, ow]);
        for s in 0..n {
            for oc in 0..out_c {
                for i in 0..oh {
                    for j in 0..ow {
                        let mut acc = b.as_slice()[oc];
                        for c in 0..in_c {
                            for di in 0..k {
                                for dj in 0..k {
                                    let src_i = (i * stride + di) as isize - pad as isize;
                                    let src_j = (j * stride + dj) as isize - pad as isize;
                                    if src_i < 0
                                        || src_j < 0
                                        || src_i >= h as isize
                                        || src_j >= ww as isize
                                    {
                                        continue;
                                    }
                                    let xv = x.at(&[s, c, src_i as usize, src_j as usize]);
                                    let wv = w.at(&[oc, c * k * k + di * k + dj]);
                                    acc += xv * wv;
                                }
                            }
                        }
                        *out.at_mut(&[s, oc, i, j]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_various_configs() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ws = Workspace::new();
        for &(in_c, out_c, k, stride, pad, h, w) in &[
            (1usize, 1usize, 3usize, 1usize, 0usize, 5usize, 5usize),
            (2, 3, 3, 1, 1, 6, 6),
            (3, 4, 5, 1, 0, 8, 8),
            (2, 2, 3, 2, 1, 7, 7),
        ] {
            let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, &mut rng);
            let x = Tensor::randn([2, in_c, h, w], 1.0, &mut rng);
            let got = conv.forward(&x, &mut ws);
            let want = naive_conv(&x, &conv.weight.value, &conv.bias.value, k, stride, pad);
            assert_eq!(got.dims(), want.dims());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "{a} vs {b} (cfg {in_c},{out_c},{k},{stride},{pad})"
                );
            }
            ws.give(got);
        }
    }

    #[test]
    fn out_size_math() {
        let mut rng = StdRng::seed_from_u64(22);
        let conv = Conv2d::new("c", 1, 1, 3, 1, 1, &mut rng);
        assert_eq!(conv.out_size(32, 32), (32, 32)); // same-padding
        let conv = Conv2d::new("c", 1, 1, 5, 1, 0, &mut rng);
        assert_eq!(conv.out_size(32, 32), (28, 28)); // LeNet conv1
        let conv = Conv2d::new("c", 1, 1, 3, 2, 1, &mut rng);
        assert_eq!(conv.out_size(16, 16), (8, 8)); // stride-2 downsample
    }

    #[test]
    fn bias_gradient_is_output_grad_sum() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut ws = Workspace::new();
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn([1, 1, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, &mut ws);
        let g = Tensor::full(y.shape().clone(), 1.0);
        let _ = conv.backward(&g, false, &mut ws);
        // Each output channel has 16 cells with grad 1.0.
        assert!((conv.bias.grad.as_slice()[0] - 16.0).abs() < 1e-4);
        assert!((conv.bias.grad.as_slice()[1] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut ws = Workspace::new();
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 1, &mut rng);
        // kernel = delta at center
        conv.weight.value = Tensor::from_vec([1, 9], vec![0., 0., 0., 0., 1., 0., 0., 0., 0.]);
        conv.bias.value = Tensor::zeros([1]);
        let x = Tensor::randn([1, 1, 5, 5], 1.0, &mut rng);
        let y = conv.forward(&x, &mut ws);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
