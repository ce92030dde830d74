//! Residual block: `y = F(x) + shortcut(x)`.
//!
//! The main branch `F` is an arbitrary [`Sequential`]; the shortcut is either
//! the identity or a 1×1 strided convolution when the block changes channel
//! count or spatial resolution (the WideResNet downsampling blocks).

use crate::layer::Layer;
use crate::layers::conv::Conv2d;
use crate::layers::sequential::Sequential;
use crate::param::Parameter;
use crate::workspace::Workspace;
use fedca_tensor::Tensor;

/// A residual block with an optional projection shortcut.
pub struct ResidualBlock {
    body: Sequential,
    shortcut: Option<Conv2d>,
}

impl ResidualBlock {
    /// Block with identity shortcut. The body must preserve the input shape.
    pub fn identity(body: Sequential) -> Self {
        ResidualBlock {
            body,
            shortcut: None,
        }
    }

    /// Block with a 1×1 convolution shortcut (named `<name>.weight`), for
    /// channel/resolution changes. `stride` must match the body's stride.
    pub fn projected(
        body: Sequential,
        name: &str,
        in_c: usize,
        out_c: usize,
        stride: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        ResidualBlock {
            body,
            shortcut: Some(Conv2d::new(name, in_c, out_c, 1, stride, 0, rng)),
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut y = self.body.forward(x, ws);
        match &mut self.shortcut {
            Some(proj) => {
                let s = proj.forward(x, ws);
                y.add_assign(&s);
                ws.give(s);
            }
            None => {
                assert_eq!(
                    y.dims(),
                    x.dims(),
                    "identity residual requires shape-preserving body"
                );
                y.add_assign(x);
            }
        }
        y
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        let mut gx = self.body.backward(grad_out, need_input_grad, ws);
        match &mut self.shortcut {
            Some(proj) => {
                let gs = proj.backward(grad_out, need_input_grad, ws);
                if let (Some(gx), Some(gs)) = (gx.as_mut(), gs) {
                    gx.add_assign(&gs);
                    ws.give(gs);
                }
            }
            None => {
                if let Some(gx) = gx.as_mut() {
                    gx.add_assign(grad_out);
                }
            }
        }
        gx
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut p = self.body.params();
        if let Some(proj) = &self.shortcut {
            p.extend(proj.params());
        }
        p
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.body.for_each_param(f);
        if let Some(proj) = &mut self.shortcut {
            proj.for_each_param(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_block_with_zero_body_passes_input() {
        // A body whose conv weights are zero makes F(x) = 0 (bias also 0),
        // so y must equal x exactly.
        let mut rng = StdRng::seed_from_u64(61);
        let mut ws = Workspace::new();
        let mut conv = Conv2d::new("c", 2, 2, 3, 1, 1, &mut rng);
        conv.for_each_param(&mut |p| p.value.fill_zero());
        let mut block = ResidualBlock::identity(Sequential::new().push(conv));
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, &mut ws);
        for (a, b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Gradient splits into both branches; with zero weights the body
        // contributes nothing to dx, so dx == grad_out.
        let g = Tensor::full([1, 2, 4, 4], 1.0);
        let dx = block.backward(&g, true, &mut ws).unwrap();
        for (a, b) in dx.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn projected_block_changes_channels() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut ws = Workspace::new();
        let body = Sequential::new()
            .push(Conv2d::new("0", 2, 4, 3, 2, 1, &mut rng))
            .push(BatchNorm2d::new("1", 4))
            .push(Relu::new());
        let mut block = ResidualBlock::projected(body, "proj", 2, 4, 2, &mut rng);
        let x = Tensor::randn([2, 2, 8, 8], 1.0, &mut rng);
        let y = block.forward(&x, &mut ws);
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
        let dx = block
            .backward(&Tensor::full([2, 4, 4, 4], 1.0), true, &mut ws)
            .unwrap();
        assert_eq!(dx.dims(), &[2, 2, 8, 8]);
        // Projection weights get gradients too.
        let names: Vec<_> = block
            .params()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        assert!(names.contains(&"proj.weight".to_string()));
    }

    #[test]
    #[should_panic(expected = "shape-preserving")]
    fn identity_block_rejects_shape_change() {
        let mut rng = StdRng::seed_from_u64(63);
        let mut ws = Workspace::new();
        let body = Sequential::new().push(Conv2d::new("0", 2, 4, 3, 1, 1, &mut rng));
        let mut block = ResidualBlock::identity(body);
        let _ = block.forward(&Tensor::zeros([1, 2, 4, 4]), &mut ws);
    }
}
