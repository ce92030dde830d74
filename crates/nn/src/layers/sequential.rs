//! Sequential container: chains layers, preserving parameter order.

use crate::layer::Layer;
use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;

/// A feed-forward chain of layers.
///
/// Parameter traversal order is the layer order, which is what maps a model
/// onto the flat update vectors exchanged in FL rounds.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    // Index of the first layer that owns parameters (recorded at push
    // time). Backward stops there unless the caller wants the gradient with
    // respect to the chain's input.
    first_param: Option<usize>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(self, layer: impl Layer + 'static) -> Self {
        self.push_boxed(Box::new(layer))
    }

    /// Appends a boxed layer.
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        if self.first_param.is_none() && !layer.params().is_empty() {
            self.first_param = Some(self.layers.len());
        }
        self.layers.push(layer);
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        // Intermediate activations cycle back into the workspace as soon as
        // the next layer has consumed them.
        let mut cur: Option<Tensor> = None;
        for layer in &mut self.layers {
            let next = layer.forward(cur.as_ref().unwrap_or(x), ws);
            if let Some(prev) = cur.replace(next) {
                ws.give(prev);
            }
        }
        cur.unwrap_or_else(|| {
            let mut y = ws.take(x.dims());
            y.as_mut_slice().copy_from_slice(x.as_slice());
            y
        })
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        // Without a consumer for the chain's input gradient, the walk ends
        // at the first layer with parameters: that layer is asked for its
        // parameter gradients only, and the parameter-less prefix before it
        // is not visited at all.
        let first = if need_input_grad {
            0
        } else {
            self.first_param.unwrap_or(self.layers.len())
        };
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().skip(first).rev() {
            let need = need_input_grad || i > first;
            let next = layer.backward(cur.as_ref().unwrap_or(grad_out), need, ws);
            debug_assert_eq!(
                next.is_some(),
                need,
                "layer {i} broke the backward contract"
            );
            if let Some(prev) = std::mem::replace(&mut cur, next) {
                ws.give(prev);
            }
        }
        if !need_input_grad {
            return None;
        }
        Some(cur.unwrap_or_else(|| {
            let mut g = ws.take(grad_out.dims());
            g.as_mut_slice().copy_from_slice(grad_out.as_slice());
            g
        }))
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chains_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut ws = Workspace::new();
        let mut net = Sequential::new()
            .push(Linear::new("fc1", 3, 4, &mut rng))
            .push(Relu::new())
            .push(Linear::new("fc2", 4, 2, &mut rng));
        let x = Tensor::randn([5, 3], 1.0, &mut rng);
        let y = net.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[5, 2]);
        let dx = net
            .backward(&Tensor::full([5, 2], 1.0), true, &mut ws)
            .unwrap();
        assert_eq!(dx.dims(), &[5, 3]);
    }

    #[test]
    fn param_order_is_layer_order() {
        let mut rng = StdRng::seed_from_u64(52);
        let net = Sequential::new()
            .push(Linear::new("fc1", 2, 2, &mut rng))
            .push(Linear::new("fc2", 2, 2, &mut rng));
        let names: Vec<_> = net.params().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(
            names,
            vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        );
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut ws = Workspace::new();
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::from_vec([2], vec![1.0, 2.0]);
        assert_eq!(net.forward(&x, &mut ws), x);
        assert_eq!(net.backward(&x, true, &mut ws), Some(x.clone()));
        assert_eq!(net.backward(&x, false, &mut ws), None);
    }

    #[test]
    fn steady_state_forward_backward_stops_allocating() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut ws = Workspace::new();
        let mut net = Sequential::new()
            .push(Linear::new("fc1", 3, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new("fc2", 8, 2, &mut rng));
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        for _ in 0..3 {
            let y = net.forward(&x, &mut ws);
            let dx = net.backward(&y, true, &mut ws).unwrap();
            ws.give(y);
            ws.give(dx);
        }
        let (_, misses_before) = ws.stats();
        let y = net.forward(&x, &mut ws);
        let dx = net.backward(&y, true, &mut ws).unwrap();
        ws.give(y);
        ws.give(dx);
        let (_, misses_after) = ws.stats();
        assert_eq!(misses_before, misses_after, "warm pass must not miss");
    }
}
