//! The `Model` wrapper: a layer graph plus the flat-vector plumbing FL needs.
//!
//! FL exchanges *flat update vectors* annotated with per-parameter spans.
//! `Model` owns the canonical mapping between the layer graph's named
//! parameters and those flat vectors; everything in `fedca-core` (progress
//! metrics, aggregation, eager transmission) operates on the flat form.
//!
//! `Model` also owns the [`Workspace`] scratch arena threaded through every
//! layer's forward/backward. Callers keep the plain `forward(&x)` /
//! `backward(&g)` API; tensors those calls return should be handed back via
//! [`Model::recycle`] once consumed so the warm pool covers the next
//! iteration without heap traffic.

use crate::layer::Layer;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;
use std::ops::Range;

/// Description of one named parameter's slice within the flat vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSpan {
    /// Fully-qualified parameter name (e.g. `conv2.weight`).
    pub name: String,
    /// Element range within the flat vector.
    pub range: Range<usize>,
}

/// A trainable model: a boxed layer graph with flat-parameter accessors.
pub struct Model {
    net: Box<dyn Layer>,
    spans: Vec<ParamSpan>,
    total: usize,
    ws: Workspace,
}

impl Model {
    /// Wraps a layer graph, capturing the parameter layout.
    pub fn new(net: impl Layer + 'static) -> Self {
        let net: Box<dyn Layer> = Box::new(net);
        let mut spans = Vec::new();
        let mut offset = 0usize;
        for p in net.params() {
            let len = p.len();
            spans.push(ParamSpan {
                name: p.name().to_string(),
                range: offset..offset + len,
            });
            offset += len;
        }
        Model {
            net,
            spans,
            total: offset,
            ws: Workspace::new(),
        }
    }

    /// Forward pass. Recycle the returned tensor with [`Model::recycle`]
    /// when done with it.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.net.forward(x, &mut self.ws)
    }

    /// Full backward pass (gradients accumulate into the parameters),
    /// returning the gradient with respect to the input batch — what
    /// gradient checks and input-sensitivity probes need. Recycle the
    /// returned tensor when done with it. Training loops want
    /// [`Model::backward_params`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.net
            .backward(grad_out, true, &mut self.ws)
            .expect("a layer asked for its input gradient returns one")
    }

    /// Backward pass of a training step: accumulates the same parameter
    /// gradients as [`Model::backward`], bit for bit, but nothing consumes
    /// the gradient with respect to the input batch, so it is not computed.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let gin = self.net.backward(grad_out, false, &mut self.ws);
        debug_assert!(gin.is_none(), "no input gradient was asked for");
    }

    /// Returns a tensor produced by [`Model::forward`]/[`Model::backward`]
    /// to the internal scratch pool for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.give(t);
    }

    /// `(takes, misses)` counters of the internal scratch pool; in steady
    /// state `misses` stops growing.
    pub fn workspace_stats(&self) -> (u64, u64) {
        self.ws.stats()
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Every layer has one mode — batch norm always normalizes with batch
    /// statistics — so this switches nothing. It exists only because the
    /// benchmark's probes (`examples/benchmark`) still call it with `true`.
    ///
    /// # Panics
    /// Panics unless `training` is `true`: there is no eval mode to switch to.
    pub fn set_training(&mut self, training: bool) {
        assert!(
            training,
            "Model::set_training(false): there is no eval mode; batch norm always uses batch statistics"
        );
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.total
    }

    /// The parameter layout: name and flat range per parameter, in
    /// deterministic traversal order.
    pub fn spans(&self) -> &[ParamSpan] {
        &self.spans
    }

    /// Copies all parameters into one flat vector (traversal order).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total);
        self.flat_params_into(&mut out);
        out
    }

    /// Copies all parameters into `out` (traversal order), reusing its
    /// allocation. `out` is cleared first and ends up `num_params()` long.
    pub fn flat_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.total);
        for p in self.net.params() {
            out.extend_from_slice(p.value.as_slice());
        }
    }

    /// Writes `params − base` into `out` (traversal order) in one pass,
    /// reusing its allocation: the accumulated update of a client that
    /// started its round from `base`. Same values as
    /// [`Model::flat_params_into`] followed by an element-wise subtraction.
    ///
    /// # Panics
    /// Panics if `base.len() != num_params()`.
    pub fn flat_delta_into(&self, base: &[f32], out: &mut Vec<f32>) {
        assert_eq!(base.len(), self.total, "base parameter length mismatch");
        out.clear();
        out.reserve(self.total);
        for p in self.net.params() {
            let base = &base[out.len()..out.len() + p.len()];
            out.extend(p.value.as_slice().iter().zip(base).map(|(w, g)| w - g));
        }
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != num_params()`.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.total, "flat parameter length mismatch");
        let mut offset = 0usize;
        self.net.for_each_param(&mut |p| {
            let n = p.len();
            p.value
                .as_mut_slice()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
        debug_assert_eq!(offset, self.total);
    }

    /// Copies all gradients into one flat vector (traversal order).
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total);
        for p in self.net.params() {
            out.extend_from_slice(p.grad.as_slice());
        }
        out
    }

    /// Applies one optimizer step without collecting parameters into a
    /// temporary `Vec` (the visitor walks them in traversal order, tracking
    /// the flat offset for the FedProx anchor).
    pub fn step(&mut self, opt: &crate::optim::Sgd, anchor: Option<&[f32]>) {
        if opt.prox_mu > 0.0 {
            let anchor = anchor.expect("FedProx step requires the round-start anchor weights");
            assert_eq!(anchor.len(), self.total, "anchor length mismatch");
        }
        let mut offset = 0usize;
        self.net.for_each_param(&mut |p| {
            let n = p.len();
            opt.step_param(p, anchor.map(|a| &a[offset..offset + n]));
            offset += n;
        });
        debug_assert_eq!(offset, self.total);
    }

    /// Direct access to the wrapped layer graph.
    pub fn net_mut(&mut self) -> &mut dyn Layer {
        self.net.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        Model::new(
            Sequential::new()
                .push(Linear::new("fc1", 3, 4, &mut rng))
                .push(Relu::new())
                .push(Linear::new("fc2", 4, 2, &mut rng)),
        )
    }

    #[test]
    fn spans_cover_the_flat_vector_exactly() {
        let m = tiny_model(1);
        assert_eq!(m.num_params(), 3 * 4 + 4 + 4 * 2 + 2);
        let mut expected_start = 0;
        for span in m.spans() {
            assert_eq!(span.range.start, expected_start, "gap before {}", span.name);
            expected_start = span.range.end;
        }
        assert_eq!(expected_start, m.num_params());
        let names: Vec<_> = m.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        );
    }

    #[test]
    fn flat_params_round_trip() {
        let mut m = tiny_model(2);
        let orig = m.flat_params();
        let modified: Vec<f32> = orig.iter().map(|v| v + 1.0).collect();
        m.set_flat_params(&modified);
        assert_eq!(m.flat_params(), modified);
        m.set_flat_params(&orig);
        assert_eq!(m.flat_params(), orig);
    }

    #[test]
    fn flat_params_into_reuses_the_buffer() {
        let m = tiny_model(5);
        let mut buf = vec![f32::NAN; 3]; // stale contents must be discarded
        m.flat_params_into(&mut buf);
        assert_eq!(buf, m.flat_params());
        let cap = buf.capacity();
        m.flat_params_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
        assert_eq!(buf, m.flat_params());
    }

    #[test]
    fn flat_delta_is_params_minus_base() {
        let m = tiny_model(5);
        let base: Vec<f32> = (0..m.num_params()).map(|i| i as f32 * 0.25 - 3.0).collect();
        let want: Vec<f32> = m
            .flat_params()
            .iter()
            .zip(&base)
            .map(|(w, g)| w - g)
            .collect();
        let mut got = vec![f32::NAN; 2];
        m.flat_delta_into(&base, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn same_seed_same_model() {
        let a = tiny_model(7);
        let b = tiny_model(7);
        assert_eq!(a.flat_params(), b.flat_params());
        let c = tiny_model(8);
        assert_ne!(a.flat_params(), c.flat_params());
    }

    #[test]
    fn training_updates_move_flat_params() {
        let mut m = tiny_model(3);
        let before = m.flat_params();
        let x = Tensor::randn([4, 3], 1.0, &mut StdRng::seed_from_u64(9));
        let logits = m.forward(&x);
        let (_, grad) = crate::loss::softmax_cross_entropy(&logits, &[0, 1, 0, 1]);
        m.zero_grad();
        m.backward_params(&grad);
        m.step(&crate::optim::Sgd::new(0.1, 0.0), None);
        let after = m.flat_params();
        assert_ne!(before, after);
        assert_eq!(before.len(), after.len());
    }

    #[test]
    fn recycled_tensors_feed_the_next_iteration() {
        let mut m = tiny_model(6);
        let x = Tensor::randn([4, 3], 1.0, &mut StdRng::seed_from_u64(10));
        for _ in 0..3 {
            let y = m.forward(&x);
            let dx = m.backward(&y);
            m.recycle(y);
            m.recycle(dx);
        }
        let (_, misses_before) = m.workspace_stats();
        let y = m.forward(&x);
        let dx = m.backward(&y);
        m.recycle(y);
        m.recycle(dx);
        let (_, misses_after) = m.workspace_stats();
        assert_eq!(misses_before, misses_after, "warm pass must not miss");
    }

    #[test]
    #[should_panic(expected = "there is no eval mode")]
    fn set_training_false_names_the_missing_eval_mode() {
        let mut m = tiny_model(4);
        m.set_training(true);
        m.set_training(false);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_params_rejects_bad_length() {
        let mut m = tiny_model(4);
        m.set_flat_params(&[0.0; 3]);
    }
}
