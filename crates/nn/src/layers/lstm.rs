//! Multi-layer LSTM with full backpropagation through time.
//!
//! Matches PyTorch's `nn.LSTM` conventions: gate order `i, f, g, o`, weights
//! `weight_ih_l{k}: [4H, in]`, `weight_hh_l{k}: [4H, H]`, two bias vectors
//! per layer. The paper's figures reference exactly these names
//! (`rnn.weight_hh_l0`, `rnn.bias_ih_l1`, `rnn.weight_ih_l1`), and FedCA's
//! per-layer eager transmission treats each as an independently-converging
//! unit, so we reproduce the naming faithfully.
//!
//! Input is `[N, T, F]`; the public layer returns the final hidden state
//! `[N, H]` of the top layer (the usual classification head for keyword
//! spotting).
//!
//! Internally the sequence runs **time-major**: [`Lstm`] transposes the input
//! to `[T, N, F]` once, and every per-step quantity of a core is the
//! contiguous block `t` of a persistent `[T, N, ·]` buffer resized in place.
//! A step therefore copies nothing — its pre-activation block is accumulated
//! into where the batched input GEMM left it, its gate gradients are written
//! where the weight-gradient GEMMs read them, and a core reads the hidden
//! states of the core below as a borrowed slice. Scratch comes from the
//! [`Workspace`], so a warmed-up forward+backward allocates nothing.

use crate::layer::Layer;
use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::gemm::gemm_acc;
use fedca_tensor::{axpy, simd, Tensor};

/// One LSTM layer (a "core"); the public [`Lstm`] stacks these.
struct LstmCore {
    w_ih: Parameter, // [4H, in]
    w_hh: Parameter, // [4H, H]
    b_ih: Parameter, // [4H]
    b_hh: Parameter, // [4H]
    input_size: usize,
    hidden: usize,
    // The sequence of the last forward, time-major. `h_all` and `c_all` are
    // `[T+1, N, H]`: block 0 is the zero initial state and block t+1 the
    // state after step t, so block t is step t's `h_prev` / `c_prev`.
    h_all: Tensor,
    c_all: Tensor,
    // Gate activations `i, f, g, o` and tanh of the new cell state,
    // `[T, N, H]` each.
    acts: [Tensor; 5],
}

impl LstmCore {
    fn new(
        prefix: &str,
        layer_idx: usize,
        input_size: usize,
        hidden: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let h4 = 4 * hidden;
        // PyTorch initializes all LSTM weights U(-1/sqrt(H), 1/sqrt(H)).
        let bound = 1.0 / (hidden as f32).sqrt();
        LstmCore {
            w_ih: Parameter::new(
                format!("{prefix}.weight_ih_l{layer_idx}"),
                Tensor::rand_uniform([h4, input_size], -bound, bound, rng),
            ),
            w_hh: Parameter::new(
                format!("{prefix}.weight_hh_l{layer_idx}"),
                Tensor::rand_uniform([h4, hidden], -bound, bound, rng),
            ),
            b_ih: Parameter::new(
                format!("{prefix}.bias_ih_l{layer_idx}"),
                Tensor::rand_uniform([h4], -bound, bound, rng),
            ),
            b_hh: Parameter::new(
                format!("{prefix}.bias_hh_l{layer_idx}"),
                Tensor::rand_uniform([h4], -bound, bound, rng),
            ),
            input_size,
            hidden,
            h_all: Tensor::zeros([0]),
            c_all: Tensor::zeros([0]),
            acts: std::array::from_fn(|_| Tensor::zeros([0])),
        }
    }

    /// Runs the layer over the time-major sequence `xs: [T, N, in]`, leaving
    /// every hidden state in `h_all[1..]` and the activations BPTT needs in
    /// the other sequence buffers.
    fn forward_seq(&mut self, xs: &[f32], n: usize, t: usize, ws: &mut Workspace) {
        let (fin, hdim) = (self.input_size, self.hidden);
        let (h4, block) = (4 * hdim, n * hdim);
        let kernel = fedca_tensor::gemm::active_kernel();
        for state in [&mut self.h_all, &mut self.c_all] {
            state.resize(&[t + 1, n, hdim]);
            state.as_mut_slice()[..block].fill(0.0);
        }
        for act in &mut self.acts {
            act.resize(&[t, n, hdim]);
        }
        // The input contribution has no recurrent dependency, so all T
        // timestep GEMMs batch into one: zx row (t·N + s) = x_t(s)·W_ihᵀ.
        // Each output element is the same strictly-sequential-k dot product
        // a per-step GEMM computes — bit-identical on every tier — and step
        // t's pre-activations are the contiguous block t of the result.
        let mut zx = ws.take_zeroed(&[t * n, h4]);
        let w_ih = self.w_ih.value.as_slice();
        gemm_acc(false, true, t * n, h4, fin, xs, w_ih, zx.as_mut_slice());
        // W_hhᵀ once per forward: the T recurrent GEMMs then read their B in
        // place instead of each staging the same transposed strips.
        let mut w_hh_t = ws.take(&[hdim, h4]);
        let w_hh = self.w_hh.value.as_slice();
        swap_leading_axes(w_hh, h4, hdim, 1, w_hh_t.as_mut_slice());
        let mut bias = ws.take(&[h4]);
        let (bi, bh) = (self.b_ih.value.as_slice(), self.b_hh.value.as_slice());
        for (k, b) in bias.as_mut_slice().iter_mut().enumerate() {
            *b = bi[k] + bh[k];
        }
        for step in 0..t {
            let at = step * block..(step + 1) * block;
            // Blocks `step` and `step + 1` of the state: before and after.
            let both = at.start..at.end + block;
            let (h_prev, h) = self.h_all.as_mut_slice()[both.clone()].split_at_mut(block);
            let (c_prev, c) = self.c_all.as_mut_slice()[both].split_at_mut(block);
            let acts = self.acts.each_mut();
            let [i, f, g, o, tanh_c] = acts.map(|a| &mut a.as_mut_slice()[at.clone()]);
            // z = x_t·W_ihᵀ + h_{t-1}·W_hhᵀ + (b_ih + b_hh) : [N, 4H]
            let z = &mut zx.as_mut_slice()[step * n * h4..(step + 1) * n * h4];
            gemm_acc(false, false, n, h4, hdim, h_prev, w_hh_t.as_slice(), z);
            for row in z.chunks_exact_mut(h4) {
                for (zk, &bk) in row.iter_mut().zip(bias.as_slice()) {
                    *zk += bk;
                }
            }
            // Gate activations and the cell update: c = f*c_prev + i*g,
            // h = o*tanh(c).
            simd::lstm_cell_forward(kernel, hdim, z, c_prev, i, f, g, o, c, tanh_c, h);
        }
        ws.give(zx);
        ws.give(w_hh_t);
        ws.give(bias);
    }

    /// BPTT over the cached sequence. `xs` is the `[T, N, in]` input the
    /// forward saw; `dh_out` is the gradient on the hidden states, time-major:
    /// all `T` blocks (from the core above) or only the last (the top core,
    /// whose earlier steps receive none). Returns `dx` as `[T, N, in]` when
    /// `need_dx` is set (the bottom layer of a training step has no consumer
    /// for it).
    fn backward_seq(
        &mut self,
        xs: &[f32],
        dh_out: &[f32],
        n: usize,
        t: usize,
        need_dx: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let (fin, hdim) = (self.input_size, self.hidden);
        let (h4, block) = (4 * hdim, n * hdim);
        let kernel = fedca_tensor::gemm::active_kernel();
        // The first step with a block in `dh_out`.
        let first = if dh_out.len() == t * block { 0 } else { t - 1 };
        assert_eq!(dh_out.len(), (t - first) * block, "dh_out shape mismatch");

        let (w_ih, w_hh) = (self.w_ih.value.as_slice(), self.w_hh.value.as_slice());
        let (dw_ih, dw_hh) = (self.w_ih.grad.as_mut_slice(), self.w_hh.grad.as_mut_slice());
        let mut dh = ws.take_zeroed(&[n, hdim]); // carried recurrent gradient
        let mut dc = ws.take_zeroed(&[n, hdim]);
        // Every step's gate gradients, each written once into its own block:
        // the A operand of that step's weight-gradient and recurrent GEMMs,
        // and as a whole of the one input-gradient GEMM after the loop.
        let mut dz_all = ws.take(&[t * n, h4]);
        for step in (0..t).rev() {
            // dh += gradient flowing directly into h_t from the output.
            if step >= first {
                let direct = &dh_out[(step - first) * block..][..block];
                axpy(1.0, direct, dh.as_mut_slice());
            }
            let at = step * block..(step + 1) * block;
            let [i, f, g, o, tanh_c] = self.acts.each_ref().map(|a| &a.as_slice()[at.clone()]);
            let (h_prev, c_prev) = (
                &self.h_all.as_slice()[at.clone()],
                &self.c_all.as_slice()[at],
            );
            let dz = &mut dz_all.as_mut_slice()[step * n * h4..(step + 1) * n * h4];
            let (dh, dc) = (dh.as_mut_slice(), dc.as_mut_slice());
            simd::lstm_cell_backward(kernel, hdim, dh, dc, i, f, g, o, tanh_c, c_prev, dz);
            // Parameter gradients: dW_ih += dz_tᵀ·x_t, dW_hh += dz_tᵀ·h_{t-1}.
            let x_t = &xs[step * n * fin..(step + 1) * n * fin];
            gemm_acc(true, false, h4, fin, n, dz, x_t, dw_ih);
            gemm_acc(true, false, h4, hdim, n, dz, h_prev, dw_hh);
            for row in dz.chunks_exact(h4) {
                axpy(1.0, row, self.b_ih.grad.as_mut_slice());
                axpy(1.0, row, self.b_hh.grad.as_mut_slice());
            }
            // Recurrent gradient, over the one already consumed: dh_{t-1} = dz_t·W_hh.
            dh.fill(0.0);
            gemm_acc(false, false, n, hdim, h4, dz, w_hh, dh);
        }
        // Input gradients for every timestep in one GEMM (same batching
        // argument as the forward's `zx`): dx row (t·N + s) = dz_all row (t·N + s)·W_ih.
        let dx = need_dx.then(|| {
            let (mut dx, dz) = (ws.take_zeroed(&[t, n, fin]), dz_all.as_slice());
            gemm_acc(false, false, t * n, fin, h4, dz, w_ih, dx.as_mut_slice());
            dx
        });
        ws.give(dh);
        ws.give(dc);
        ws.give(dz_all);
        dx
    }
}

/// `dst[b][a][..w] = src[a][b][..w]` for `src: [A, B, w]`, `dst: [B, A, w]`:
/// batch-major ↔ time-major for a sequence, a plain transpose at `w = 1`.
fn swap_leading_axes(src: &[f32], a: usize, b: usize, w: usize, dst: &mut [f32]) {
    for (ia, rows) in src.chunks_exact(b * w).enumerate() {
        for (ib, row) in rows.chunks_exact(w).enumerate() {
            dst[(ib * a + ia) * w..][..w].copy_from_slice(row);
        }
    }
}

/// Stacked LSTM returning the final hidden state of the top layer.
pub struct Lstm {
    layers: Vec<LstmCore>,
    hidden: usize,
    // The last forward's input, transposed to `[T, N, F]`: what the bottom
    // core reads, in the forward and again for its `dW_ih`.
    x_tm: Tensor,
    // `(N, T)` of the last forward.
    seq_dims: Option<(usize, usize)>,
}

impl Lstm {
    /// Creates a stacked LSTM named `prefix` (parameters
    /// `<prefix>.weight_ih_l0`, …).
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new(
        prefix: &str,
        input_size: usize,
        hidden: usize,
        num_layers: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        assert!(num_layers > 0, "LSTM needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let in_size = if l == 0 { input_size } else { hidden };
            layers.push(LstmCore::new(prefix, l, in_size, hidden, rng));
        }
        Lstm {
            layers,
            hidden,
            x_tm: Tensor::zeros([0]),
            seq_dims: None,
        }
    }

    /// Core `l` and the time-major sequence it consumes: the transposed
    /// input for the bottom core, else the hidden states of the core below.
    fn core_and_input(&mut self, l: usize, n: usize) -> (&mut LstmCore, &[f32]) {
        let (below, rest) = self.layers.split_at_mut(l);
        let xs = match below.last() {
            Some(prev) => &prev.h_all.as_slice()[n * self.hidden..],
            None => self.x_tm.as_slice(),
        };
        (&mut rest[0], xs)
    }
}

impl Layer for Lstm {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            x.shape().rank(),
            3,
            "Lstm expects [N,T,F], got {}",
            x.shape()
        );
        let (n, t, fin) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert!(t > 0, "Lstm needs at least one timestep, got {}", x.shape());
        assert_eq!(
            fin,
            self.layers[0].input_size,
            "LSTM {}: input width mismatch",
            self.layers[0].w_ih.name()
        );
        self.seq_dims = Some((n, t));
        self.x_tm.resize(&[t, n, fin]);
        swap_leading_axes(x.as_slice(), n, t, fin, self.x_tm.as_mut_slice());
        for l in 0..self.layers.len() {
            let (core, xs) = self.core_and_input(l, n);
            core.forward_seq(xs, n, t, ws);
        }
        // Return the last timestep of the top layer: [N, H].
        let top = self.layers.last().expect("LSTM has at least one layer");
        let mut out = ws.take(&[n, self.hidden]);
        out.as_mut_slice()
            .copy_from_slice(&top.h_all.as_slice()[t * n * self.hidden..]);
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let (n, t) = self.seq_dims.expect("Lstm::backward before forward");
        assert_eq!(
            grad_out.dims(),
            &[n, self.hidden],
            "Lstm grad_out must be [N,H]"
        );
        // Only the last timestep of the top layer receives output gradient;
        // every core below is fed the full `dx` sequence of the one above,
        // and only the bottom core's input gradient depends on the caller.
        let mut grad: Option<Tensor> = None;
        for l in (0..self.layers.len()).rev() {
            let (core, xs) = self.core_and_input(l, n);
            let dh_out = grad.as_ref().map_or(grad_out.as_slice(), Tensor::as_slice);
            let dx = core.backward_seq(xs, dh_out, n, t, need_input_grad || l > 0, ws);
            if let Some(consumed) = std::mem::replace(&mut grad, dx) {
                ws.give(consumed);
            }
        }
        grad.map(|dx_tm| {
            let fin = self.layers[0].input_size;
            let mut dx = ws.take(&[n, t, fin]);
            swap_leading_axes(dx_tm.as_slice(), t, n, fin, dx.as_mut_slice());
            ws.give(dx_tm);
            dx
        })
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers
            .iter()
            .flat_map(|c| vec![&c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh])
            .collect()
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for c in &mut self.layers {
            f(&mut c.w_ih);
            f(&mut c.w_hh);
            f(&mut c.b_ih);
            f(&mut c.b_hh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::sigmoid_scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_names_match_pytorch_convention() {
        let mut rng = StdRng::seed_from_u64(41);
        let lstm = Lstm::new("rnn", 10, 8, 2, &mut rng);
        let names: Vec<_> = lstm.params().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(
            names,
            vec![
                "rnn.weight_ih_l0",
                "rnn.weight_hh_l0",
                "rnn.bias_ih_l0",
                "rnn.bias_hh_l0",
                "rnn.weight_ih_l1",
                "rnn.weight_hh_l1",
                "rnn.bias_ih_l1",
                "rnn.bias_hh_l1",
            ]
        );
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ws = Workspace::new();
        let mut lstm = Lstm::new("rnn", 5, 7, 2, &mut rng);
        let x = Tensor::randn([3, 6, 5], 1.0, &mut StdRng::seed_from_u64(1));
        let y1 = lstm.forward(&x, &mut ws);
        assert_eq!(y1.dims(), &[3, 7]);
        let y2 = lstm.forward(&x, &mut ws);
        assert_eq!(y1, y2, "forward must be deterministic");
        assert!(y1.all_finite());
    }

    #[test]
    fn single_step_matches_hand_computation() {
        // 1 layer, H=1, F=1, T=1, all weights set by hand.
        let mut rng = StdRng::seed_from_u64(43);
        let mut ws = Workspace::new();
        let mut lstm = Lstm::new("rnn", 1, 1, 1, &mut rng);
        {
            let core = &mut lstm.layers[0];
            // gates: i, f, g, o rows.
            core.w_ih.value = Tensor::from_vec([4, 1], vec![0.5, 0.3, 1.0, 0.2]);
            core.w_hh.value = Tensor::from_vec([4, 1], vec![0.0, 0.0, 0.0, 0.0]);
            core.b_ih.value = Tensor::zeros([4]);
            core.b_hh.value = Tensor::zeros([4]);
        }
        let x = Tensor::from_vec([1, 1, 1], vec![2.0]);
        let y = lstm.forward(&x, &mut ws);
        // h0 = c0 = 0: i = σ(1.0), g = tanh(2.0), o = σ(0.4); c = i*g; h = o*tanh(c)
        let i = sigmoid_scalar(1.0);
        let g = 2.0f32.tanh();
        let o = sigmoid_scalar(0.4);
        let c = i * g;
        let expected = o * c.tanh();
        assert!(
            (y.as_slice()[0] - expected).abs() < 1e-6,
            "{} vs {expected}",
            y.as_slice()[0]
        );
    }

    #[test]
    #[should_panic(expected = "Lstm needs at least one timestep")]
    fn empty_sequence_is_rejected_with_a_message() {
        let mut lstm = Lstm::new("rnn", 4, 5, 2, &mut StdRng::seed_from_u64(45));
        lstm.forward(&Tensor::zeros([2, 0, 4]), &mut Workspace::new());
    }

    #[test]
    #[should_panic(expected = "Lstm::backward before forward")]
    fn backward_before_forward_is_rejected_with_a_message() {
        let mut lstm = Lstm::new("rnn", 4, 5, 2, &mut StdRng::seed_from_u64(46));
        lstm.backward(&Tensor::zeros([2, 5]), true, &mut Workspace::new());
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut ws = Workspace::new();
        let mut lstm = Lstm::new("rnn", 4, 5, 2, &mut rng);
        let x = Tensor::randn([2, 5, 4], 1.0, &mut rng);
        let _y = lstm.forward(&x, &mut ws);
        let g = Tensor::full([2, 5], 1.0);
        let dx = lstm.backward(&g, true, &mut ws).unwrap();
        assert_eq!(dx.dims(), &[2, 5, 4]);
        for p in lstm.params() {
            assert!(
                p.grad.l2_norm() > 0.0,
                "parameter {} received no gradient",
                p.name()
            );
        }
    }
}
