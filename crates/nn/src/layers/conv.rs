//! 2-D convolution as im2col + GEMMs that read their operands in place.
//!
//! The weight layout is PyTorch's `[out_c, in_c, kh, kw]` flattened to
//! `[out_c, in_c·kh·kw]`. The im2col buffer `col` unrolls the **whole
//! batch** into one `[in_c·k·k, N·oh·ow]` matrix (sample `s` occupies the
//! column band `[s·oh·ow, (s+1)·oh·ow)`) and is kept from forward to
//! backward; no copy of the input is kept at all. There is one forward and
//! one backward path:
//!
//! * **forward** unrolls a few samples (`BAND_FLOATS` of `col`), multiplies
//!   that column band — `yt[:, band] = W · col[:, band]`, B read where
//!   im2col just wrote it, no packing — and moves on, so `col` is consumed
//!   from cache even when a batch-64 evaluation makes it larger than L2;
//! * **backward** forms `dW += gt · colᵀ` (the one product that reduces over
//!   `N·oh·ow`, for which `fedca_tensor::gemm` transposes `col` strip by
//!   strip in 8×8 register blocks), `db`, and — only when the caller needs
//!   it — `dcol = Wᵀ · gt` (both operands in place) scattered back by
//!   `col2im_acc`.
//!
//! Every product goes through `fedca_tensor::gemm`, so each output element
//! follows that module's one summation rule; the band-by-band
//! forward computes disjoint columns of the one whole-batch product and is
//! bit-identical to it. `tests/conv_parity.rs` checks forward, `dW`, `db`
//! and `dX` bit for bit against a naive im2col + rule-order reference.

use crate::init::kaiming_normal;
use crate::layer::Layer;
use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::{gemm, ops, Tensor};
use std::ops::Range;

/// Floats of `col` unrolled between forward GEMM calls (128 KiB): small
/// enough to still be in L2 when the GEMM reads it back.
const BAND_FLOATS: usize = 1 << 15;

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
    geom: Option<Geom>,
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
            geom: None,
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

    /// Unrolls samples `samples` of the batch `x` into their column bands of
    /// `self.col`. The kernel offsets are the outer loops, so the padding
    /// spans are worked out `k + k²` times a call and each `(c, di, dj)` row
    /// of `col` is written as one contiguous run across the samples.
    fn im2col(&mut self, x: &[f32], g: Geom, samples: Range<usize>) {
        let (k, s, p) = (self.k, self.stride, self.padding);
        let Geom { n, h, w, oh, ow } = g;
        let (ohw, chw) = (oh * ow, self.in_c * h * w);
        let x = &x[samples.start * chw..samples.end * chw];
        let col = self.col.as_mut_slice();
        for di in 0..k {
            let (i_lo, i_hi) = live_span(s, p, di, h, oh);
            for dj in 0..k {
                let (j_lo, j_hi) = live_span(s, p, dj, w, ow);
                let live = j_hi - j_lo;
                let rows = if live == 0 { 0 } else { i_hi - i_lo };
                let padded = live < ow || rows < oh;
                for c in 0..self.in_c {
                    let row = ((c * k + di) * k + dj) * n * ohw;
                    let bands = &mut col[row + samples.start * ohw..row + samples.end * ohw];
                    for (band, xs) in bands.chunks_exact_mut(ohw).zip(x.chunks_exact(chw)) {
                        if padded {
                            band.fill(0.0);
                        }
                        // First live output of the band and its source;
                        // later rows step by `ow` and by `s` input rows.
                        let mut at = i_lo * ow + j_lo;
                        let mut from = c * h * w + (i_lo * s + di).saturating_sub(p) * w;
                        from += (j_lo * s + dj).saturating_sub(p);
                        for _ in 0..rows {
                            let dst = &mut band[at..at + live];
                            if s == 1 {
                                dst.copy_from_slice(&xs[from..from + live]);
                            } else {
                                for (d, &v) in dst.iter_mut().zip(xs[from..].iter().step_by(s)) {
                                    *d = v;
                                }
                            }
                            at += ow;
                            from += s * w;
                        }
                    }
                }
            }
        }
    }

    /// Adds the `[in_c·k·k, N·oh·ow]` gradient `dcol` back onto the input
    /// batch `gx`, walking `col` as [`Conv2d::im2col`] does: every input
    /// cell receives its terms in `(di, dj, i, j)` order.
    fn col2im_acc(&self, dcol: &[f32], gx: &mut [f32], g: Geom) {
        let (k, s, p) = (self.k, self.stride, self.padding);
        let Geom { n, h, w, oh, ow } = g;
        let (ohw, chw) = (oh * ow, self.in_c * h * w);
        for di in 0..k {
            let (i_lo, i_hi) = live_span(s, p, di, h, oh);
            for dj in 0..k {
                let (j_lo, j_hi) = live_span(s, p, dj, w, ow);
                let live = j_hi - j_lo;
                let rows = if live == 0 { 0 } else { i_hi - i_lo };
                for c in 0..self.in_c {
                    let row = ((c * k + di) * k + dj) * n * ohw;
                    let bands = dcol[row..row + n * ohw].chunks_exact(ohw);
                    for (band, gs) in bands.zip(gx.chunks_exact_mut(chw)) {
                        let mut at = i_lo * ow + j_lo;
                        let mut to = c * h * w + (i_lo * s + di).saturating_sub(p) * w;
                        to += (j_lo * s + dj).saturating_sub(p);
                        for _ in 0..rows {
                            let src = &band[at..at + live];
                            if s == 1 {
                                for (d, &v) in gs[to..to + live].iter_mut().zip(src) {
                                    *d += v;
                                }
                            } else {
                                for (d, &v) in gs[to..].iter_mut().step_by(s).zip(src) {
                                    *d += v;
                                }
                            }
                            at += ow;
                            to += s * w;
                        }
                    }
                }
            }
        }
    }
}

/// Batch and image geometry of one forward call.
#[derive(Clone, Copy)]
struct Geom {
    n: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

/// Along one axis, for kernel offset `d`: the outputs `lo..hi` of `out`
/// whose source index `o·stride + d − padding` lies inside an input of
/// extent `len`; every other output reads the zero padding.
fn live_span(stride: usize, padding: usize, d: usize, len: usize, out: usize) -> (usize, usize) {
    let lo = padding.saturating_sub(d).div_ceil(stride).min(out);
    let hi = (len + padding)
        .saturating_sub(d)
        .div_ceil(stride)
        .clamp(lo, out);
    (lo, hi)
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
        let geom = Geom { n, h, w, oh, ow };
        self.col.resize(&[ck2, nohw]);
        // yt[out_c, N·oh·ow] = W · col, a few samples at a time: each band
        // of col is multiplied while the unroll that wrote it is still in
        // cache. The bands are disjoint columns of one product, so every
        // element is the one a single whole-batch GEMM computes.
        let mut yt = ws.take_zeroed(&[self.out_c, nohw]);
        let band = (BAND_FLOATS / (ck2 * ohw).max(1)).max(1);
        for s0 in (0..n).step_by(band) {
            let s1 = n.min(s0 + band);
            self.im2col(x.as_slice(), geom, s0..s1);
            gemm::gemm_acc_cols(
                self.out_c,
                nohw,
                ck2,
                self.weight.value.as_slice(),
                self.col.as_slice(),
                yt.as_mut_slice(),
                s0 * ohw..s1 * ohw,
            );
        }
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
        self.geom = Some(geom);
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let geom = self.geom.expect("Conv2d::backward before forward");
        let Geom { n, h, w, oh, ow } = geom;
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
        // dW += gt · colᵀ — reuses the forward's im2col buffer.
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
        self.col2im_acc(dcol.as_slice(), gin.as_mut_slice(), geom);
        ws.give(dcol);
        Some(gin)
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
