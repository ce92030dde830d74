//! The `Layer` trait: explicit forward/backward with named parameters.

use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;

/// A differentiable module.
///
/// Contract:
/// * `forward` must be called before `backward`; the layer caches whatever
///   activations its backward pass needs (a fresh `forward` invalidates the
///   previous cache).
/// * `backward` **accumulates** into each parameter's `grad` (callers zero
///   gradients between optimizer steps via [`Layer::zero_grad`]) and, when
///   `need_input_grad` is set, returns the gradient with respect to the
///   layer's input. The flag is decided by whoever consumes that gradient:
///   a container asks a child for it iff its own caller asked or an earlier
///   child owns parameters, so a training step never computes the gradient
///   with respect to the input batch. A layer has one backward body and
///   guards only its input-gradient part, so parameter gradients come from
///   the same instructions in the same order either way (bit-identical).
/// * Parameters are reached through two visitors, [`Layer::params`]
///   (shared) and [`Layer::for_each_param`] (mutable), which walk them in
///   one deterministic order; the whole workspace relies on that order to
///   map models onto flat update vectors.
/// * A layer has one mode: there is no train/eval switch. Batch norm always
///   normalizes with the statistics of the batch it is given.
/// * Output tensors are drawn from the caller's [`Workspace`]; callers give
///   them back (directly or via `Model::recycle`) once consumed, so a
///   warmed-up training iteration allocates nothing.
pub trait Layer: Send {
    /// Forward pass on a batch. `x` layout is layer-specific but always
    /// batch-major (`[N, ...]`). Scratch and output buffers come from `ws`.
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Backward pass: consumes `d loss / d output`, accumulates parameter
    /// gradients, and returns `d loss / d input` (drawn from `ws`) — `Some`
    /// exactly when `need_input_grad` is set.
    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor>;

    /// Immutable views of the layer's parameters, in deterministic order.
    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    /// Visits every parameter mutably, in the same order as
    /// [`Layer::params`], without allocating — the one mutable path to a
    /// parameter (`zero_grad`, the optimizer step, gradient checks).
    ///
    /// Layers with parameters must override this alongside `params`.
    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.for_each_param(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
