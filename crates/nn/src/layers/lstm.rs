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
//! The per-timestep BPTT caches are persistent slots resized in place, and
//! every sequence/gate intermediate is drawn from the [`Workspace`], so a
//! warmed-up forward+backward allocates nothing.

use crate::layer::Layer;
use crate::layers::activation::sigmoid_scalar;
use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::{ops, Tensor};

/// Per-timestep cache of one LSTM layer. Slots persist across iterations
/// and are re-dimensioned in place.
struct StepCache {
    x: Tensor,      // [N, in]  input at t
    h_prev: Tensor, // [N, H]
    c_prev: Tensor, // [N, H]
    i: Tensor,      // [N, H] gate activations
    f: Tensor,
    g: Tensor,
    o: Tensor,
    tanh_c: Tensor, // [N, H] tanh of the new cell state
}

impl StepCache {
    fn empty() -> Self {
        StepCache {
            x: Tensor::zeros([0]),
            h_prev: Tensor::zeros([0]),
            c_prev: Tensor::zeros([0]),
            i: Tensor::zeros([0]),
            f: Tensor::zeros([0]),
            g: Tensor::zeros([0]),
            o: Tensor::zeros([0]),
            tanh_c: Tensor::zeros([0]),
        }
    }
}

/// One LSTM layer (a "core"); the public [`Lstm`] stacks these.
struct LstmCore {
    w_ih: Parameter, // [4H, in]
    w_hh: Parameter, // [4H, H]
    b_ih: Parameter, // [4H]
    b_hh: Parameter, // [4H]
    input_size: usize,
    hidden: usize,
    cache: Vec<StepCache>,
    // Recurrent state buffers, reused across steps and iterations.
    h: Tensor,
    c: Tensor,
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
            cache: Vec::new(),
            h: Tensor::zeros([0]),
            c: Tensor::zeros([0]),
        }
    }

    /// Runs the layer over a sequence `[N, T, in]`, returning all hidden
    /// states `[N, T, H]` (workspace-owned) and caching activations for
    /// BPTT.
    fn forward_seq(&mut self, xs: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, t, fin) = (xs.dims()[0], xs.dims()[1], xs.dims()[2]);
        assert_eq!(
            fin,
            self.input_size,
            "LSTM {}: input width mismatch",
            self.w_ih.name()
        );
        let hdim = self.hidden;
        let h4 = 4 * hdim;
        let kernel = fedca_tensor::gemm::active_kernel();
        let fast = fedca_tensor::simd::has_fast_transcendentals(kernel);
        self.cache.truncate(t);
        while self.cache.len() < t {
            self.cache.push(StepCache::empty());
        }
        self.h.resize(&[n, hdim]);
        self.h.fill_zero();
        self.c.resize(&[n, hdim]);
        self.c.fill_zero();
        let mut out = ws.take(&[n, t, hdim]);
        let mut z = ws.take(&[n, h4]);
        // The input contribution has no recurrent dependency, so all T
        // timestep GEMMs batch into one: viewing [N, T, F] as [(N·T), F],
        // zx row (s·T + t) = x_t(s)·W_ihᵀ. Each output element is the same
        // strictly-sequential-k dot product the per-step GEMM computed, so
        // this is a pure batching restructure — bit-identical on every
        // tier — that packs W_ih once instead of T times.
        let mut zx = ws.take_zeroed(&[n * t, h4]);
        fedca_tensor::gemm::gemm_acc(
            false,
            true,
            n * t,
            h4,
            fin,
            xs.as_slice(),
            self.w_ih.value.as_slice(),
            zx.as_mut_slice(),
        );
        for step in 0..t {
            let slot = &mut self.cache[step];
            // Slice x_t out of the [N, T, F] tensor into the cache slot.
            slot.x.resize(&[n, fin]);
            for s in 0..n {
                let src = &xs.as_slice()[(s * t + step) * fin..(s * t + step + 1) * fin];
                slot.x.as_mut_slice()[s * fin..(s + 1) * fin].copy_from_slice(src);
            }
            slot.h_prev.copy_from(&self.h);
            slot.c_prev.copy_from(&self.c);
            // z = x_t·W_ihᵀ + h·W_hhᵀ + b_ih + b_hh : [N, 4H]
            for s in 0..n {
                let src = &zx.as_slice()[(s * t + step) * h4..(s * t + step + 1) * h4];
                z.as_mut_slice()[s * h4..(s + 1) * h4].copy_from_slice(src);
            }
            ops::matmul_transpose_b_acc(&self.h, &self.w_hh.value, &mut z);
            {
                let zb = z.as_mut_slice();
                let bi = self.b_ih.value.as_slice();
                let bh = self.b_hh.value.as_slice();
                for s in 0..n {
                    let row = &mut zb[s * h4..(s + 1) * h4];
                    for k in 0..h4 {
                        row[k] += bi[k] + bh[k];
                    }
                }
            }
            slot.i.resize(&[n, hdim]);
            slot.f.resize(&[n, hdim]);
            slot.g.resize(&[n, hdim]);
            slot.o.resize(&[n, hdim]);
            slot.tanh_c.resize(&[n, hdim]);
            // Gate activations and the cell update. The scalar tier keeps
            // the libm path (its trajectories back the committed golden
            // fixtures); SIMD tiers take the vectorized transcendentals,
            // which are bit-stable within a tier but not across tiers —
            // the same contract the GEMM microkernels follow.
            if fast {
                let zd = z.as_slice();
                for s in 0..n {
                    let (lo, hi) = (s * hdim, (s + 1) * hdim);
                    fedca_tensor::simd::lstm_gates_fast(
                        &zd[s * h4..(s + 1) * h4],
                        hdim,
                        &mut slot.i.as_mut_slice()[lo..hi],
                        &mut slot.f.as_mut_slice()[lo..hi],
                        &mut slot.g.as_mut_slice()[lo..hi],
                        &mut slot.o.as_mut_slice()[lo..hi],
                    );
                }
                fedca_tensor::simd::lstm_cell_update_fast(
                    slot.i.as_slice(),
                    slot.f.as_slice(),
                    slot.g.as_slice(),
                    slot.o.as_slice(),
                    slot.c_prev.as_slice(),
                    self.c.as_mut_slice(),
                    slot.tanh_c.as_mut_slice(),
                    self.h.as_mut_slice(),
                );
            } else {
                {
                    let zd = z.as_slice();
                    for s in 0..n {
                        let row = &zd[s * h4..(s + 1) * h4];
                        for k in 0..hdim {
                            slot.i.as_mut_slice()[s * hdim + k] = sigmoid_scalar(row[k]);
                            slot.f.as_mut_slice()[s * hdim + k] = sigmoid_scalar(row[hdim + k]);
                            slot.g.as_mut_slice()[s * hdim + k] = row[2 * hdim + k].tanh();
                            slot.o.as_mut_slice()[s * hdim + k] = sigmoid_scalar(row[3 * hdim + k]);
                        }
                    }
                }
                // c = f*c_prev + i*g ; h = o*tanh(c), updated in place (the
                // previous state is already copied into the cache slot).
                let cd = self.c.as_mut_slice();
                let hd = self.h.as_mut_slice();
                let tc_d = slot.tanh_c.as_mut_slice();
                let (id, fd, gd, od) = (
                    slot.i.as_slice(),
                    slot.f.as_slice(),
                    slot.g.as_slice(),
                    slot.o.as_slice(),
                );
                let cp = slot.c_prev.as_slice();
                for idx in 0..n * hdim {
                    let cv = fd[idx] * cp[idx] + id[idx] * gd[idx];
                    cd[idx] = cv;
                    let tc = cv.tanh();
                    tc_d[idx] = tc;
                    hd[idx] = od[idx] * tc;
                }
            }
            for s in 0..n {
                let dst = &mut out.as_mut_slice()[(s * t + step) * hdim..(s * t + step + 1) * hdim];
                dst.copy_from_slice(&self.h.as_slice()[s * hdim..(s + 1) * hdim]);
            }
        }
        ws.give(z);
        ws.give(zx);
        out
    }

    /// BPTT over the cached sequence. `dh_out` is `[N, T, H]` (gradient on
    /// every hidden state emitted). Returns `dx` as `[N, T, in]` when
    /// `need_dx` is set (the bottom layer of a training step has no
    /// consumer for it).
    fn backward_seq(
        &mut self,
        dh_out: &Tensor,
        need_dx: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let t = self.cache.len();
        assert!(t > 0, "LstmCore::backward_seq before forward_seq");
        let n = self.cache[0].x.dims()[0];
        let hdim = self.hidden;
        let h4 = 4 * hdim;
        let fin = self.input_size;
        assert_eq!(dh_out.dims(), &[n, t, hdim], "dh_out shape mismatch");

        let mut dx = need_dx.then(|| ws.take(&[n, t, fin]));
        let mut dh = ws.take_zeroed(&[n, hdim]); // carried recurrent gradient
        let mut dh_next = ws.take(&[n, hdim]);
        let mut dc = ws.take_zeroed(&[n, hdim]);
        let mut dz = ws.take(&[n, h4]);
        // Per-step gate gradients, gathered so the input-gradient GEMM can
        // run once over all timesteps (same batching argument as the
        // forward's `zx`; each dx row is an unchanged sequential-k dot).
        let mut dz_all = need_dx.then(|| ws.take(&[n * t, h4]));
        for step in (0..t).rev() {
            let cache = &self.cache[step];
            // dh += gradient flowing directly into h_t from the output.
            for s in 0..n {
                let src = &dh_out.as_slice()[(s * t + step) * hdim..(s * t + step + 1) * hdim];
                fedca_tensor::axpy(1.0, src, &mut dh.as_mut_slice()[s * hdim..(s + 1) * hdim]);
            }
            {
                let dhd = dh.as_slice();
                let dcd = dc.as_mut_slice();
                let dzd = dz.as_mut_slice();
                for idx in 0..n * hdim {
                    let o = cache.o.as_slice()[idx];
                    let tc = cache.tanh_c.as_slice()[idx];
                    let do_ = dhd[idx] * tc;
                    let dct = dcd[idx] + dhd[idx] * o * (1.0 - tc * tc);
                    let i = cache.i.as_slice()[idx];
                    let f = cache.f.as_slice()[idx];
                    let g = cache.g.as_slice()[idx];
                    let di = dct * g;
                    let dg = dct * i;
                    let df = dct * cache.c_prev.as_slice()[idx];
                    dcd[idx] = dct * f; // becomes dc_{t-1}
                    let (s, k) = (idx / hdim, idx % hdim);
                    let row = &mut dzd[s * h4..(s + 1) * h4];
                    row[k] = di * i * (1.0 - i);
                    row[hdim + k] = df * f * (1.0 - f);
                    row[2 * hdim + k] = dg * (1.0 - g * g);
                    row[3 * hdim + k] = do_ * o * (1.0 - o);
                }
            }
            // Parameter gradients.
            ops::matmul_transpose_a_acc(&dz, &cache.x, &mut self.w_ih.grad);
            ops::matmul_transpose_a_acc(&dz, &cache.h_prev, &mut self.w_hh.grad);
            {
                let dzd = dz.as_slice();
                let dbi = self.b_ih.grad.as_mut_slice();
                let dbh = self.b_hh.grad.as_mut_slice();
                for s in 0..n {
                    let row = &dzd[s * h4..(s + 1) * h4];
                    fedca_tensor::axpy(1.0, row, dbi);
                    fedca_tensor::axpy(1.0, row, dbh);
                }
            }
            // Stash this step's gate gradients for the batched dx GEMM.
            if let Some(dz_all) = dz_all.as_mut() {
                for s in 0..n {
                    let dst =
                        &mut dz_all.as_mut_slice()[(s * t + step) * h4..(s * t + step + 1) * h4];
                    dst.copy_from_slice(&dz.as_slice()[s * h4..(s + 1) * h4]);
                }
            }
            // Recurrent gradient.
            ops::matmul_into(&dz, &self.w_hh.value, &mut dh_next); // dh_{t-1}
            std::mem::swap(&mut dh, &mut dh_next);
        }
        // Input gradients for every timestep in one GEMM:
        // dx[(s·T+t), :] = dz_all[(s·T+t), :] · W_ih.
        if let (Some(dx), Some(dz_all)) = (dx.as_mut(), dz_all.as_ref()) {
            dx.fill_zero();
            fedca_tensor::gemm::gemm_acc(
                false,
                false,
                n * t,
                fin,
                h4,
                dz_all.as_slice(),
                self.w_ih.value.as_slice(),
                dx.as_mut_slice(),
            );
        }
        ws.give(dh);
        ws.give(dh_next);
        ws.give(dc);
        ws.give(dz);
        if let Some(dz_all) = dz_all {
            ws.give(dz_all);
        }
        dx
    }
}

/// Stacked LSTM returning the final hidden state of the top layer.
pub struct Lstm {
    layers: Vec<LstmCore>,
    hidden: usize,
    seq_len: Option<usize>,
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
            seq_len: None,
        }
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
        let (n, t) = (x.dims()[0], x.dims()[1]);
        self.seq_len = Some(t);
        let mut cur: Option<Tensor> = None;
        for core in &mut self.layers {
            let next = match &cur {
                Some(seq) => core.forward_seq(seq, ws),
                None => core.forward_seq(x, ws),
            };
            if let Some(prev) = cur.take() {
                ws.give(prev);
            }
            cur = Some(next);
        }
        let seq = cur.expect("LSTM has at least one layer");
        // Return last timestep of the top layer: [N, H].
        let hdim = self.hidden;
        let mut out = ws.take(&[n, hdim]);
        for s in 0..n {
            let src = &seq.as_slice()[(s * t + (t - 1)) * hdim..(s * t + t) * hdim];
            out.as_mut_slice()[s * hdim..(s + 1) * hdim].copy_from_slice(src);
        }
        ws.give(seq);
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let t = self.seq_len.expect("Lstm::backward before forward");
        let n = grad_out.dims()[0];
        let hdim = self.hidden;
        assert_eq!(grad_out.dims(), &[n, hdim], "Lstm grad_out must be [N,H]");
        // Only the last timestep of the top layer receives output gradient.
        let mut grad = ws.take_zeroed(&[n, t, hdim]);
        for s in 0..n {
            let dst = &mut grad.as_mut_slice()[(s * t + (t - 1)) * hdim..(s * t + t) * hdim];
            dst.copy_from_slice(&grad_out.as_slice()[s * hdim..(s + 1) * hdim]);
        }
        // Upper cores always feed the one below; only the bottom core's
        // input gradient depends on the caller.
        let mut grad = Some(grad);
        for (l, core) in self.layers.iter_mut().enumerate().rev() {
            let g = grad.take().expect("every core above the bottom returns dx");
            grad = core.backward_seq(&g, need_input_grad || l > 0, ws);
            ws.give(g);
        }
        grad
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers
            .iter()
            .flat_map(|c| vec![&c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh])
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|c| vec![&mut c.w_ih, &mut c.w_hh, &mut c.b_ih, &mut c.b_hh])
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
