//! Flatten: collapses all non-batch dimensions.

use crate::layer::Layer;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;

/// Reshapes `[N, d1, d2, …]` to `[N, d1·d2·…]` in forward and restores the
/// original shape in backward. Pure bookkeeping, no parameters.
#[derive(Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
    ready: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert!(x.shape().rank() >= 1, "Flatten needs a batch dimension");
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        self.input_dims.clear();
        self.input_dims.extend_from_slice(x.dims());
        self.ready = true;
        let mut y = ws.take(&[n, rest]);
        y.as_mut_slice().copy_from_slice(x.as_slice());
        y
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        assert!(self.ready, "Flatten::backward before forward");
        if !need_input_grad {
            return None;
        }
        let mut g = ws.take(&self.input_dims);
        g.as_mut_slice().copy_from_slice(grad_out.as_slice());
        Some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shape() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_vec([2, 3, 4], (0..24).map(|i| i as f32).collect());
        let y = f.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y, true, &mut ws).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn already_flat_is_identity() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_vec([3, 5], vec![1.0; 15]);
        let y = f.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[3, 5]);
    }
}
