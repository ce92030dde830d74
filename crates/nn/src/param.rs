//! Named trainable parameters.

use fedca_tensor::Tensor;

/// One trainable tensor with its gradient accumulator and fully-qualified
/// name (e.g. `conv3.0.residual.0.weight`).
///
/// Names are assigned at model construction and never change; FedCA keys all
/// per-layer bookkeeping (progress curves, eager-transmission state) on them.
#[derive(Clone, Debug)]
pub struct Parameter {
    name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Parameter {
            name: name.into(),
            value,
            grad,
        }
    }

    /// The fully-qualified parameter name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty (never true for real layers).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the gradient accumulator in place.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_has_zero_grad_of_same_shape() {
        let p = Parameter::new("w", Tensor::full([2, 3], 1.5));
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Parameter::new("b", Tensor::zeros([4]));
        p.grad.as_mut_slice()[2] = 3.0;
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
