//! `Model::backward_params` is `Model::backward` minus the gradient with
//! respect to the input batch: every parameter gradient must come out
//! **bitwise equal**, and the forward caches must be re-armed so consecutive
//! training iterations keep working.

use fedca_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, Relu, ResidualBlock, Sequential};
use fedca_nn::models::{cnn, lstm, mlp, wrn, CnnConfig, LstmConfig, WrnConfig};
use fedca_nn::{softmax_cross_entropy, Model, Sgd};
use fedca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn grad_bits(m: &Model) -> Vec<u32> {
    m.flat_grads().iter().map(|v| v.to_bits()).collect()
}

/// Two instances from one seed; `full` trains through `backward`, `lean`
/// through `backward_params`. Three iterations: gradients and the stepped
/// parameters must agree bit for bit after each one.
fn assert_same_gradients(name: &str, build: &dyn Fn() -> Model, x: &Tensor, classes: usize) {
    let (mut full, mut lean) = (build(), build());
    assert_eq!(full.flat_params(), lean.flat_params(), "{name}: same seed");
    let y: Vec<usize> = (0..x.dims()[0]).map(|i| i % classes).collect();
    let opt = Sgd::new(0.05, 1e-4);
    for iter in 0..3 {
        let logits = full.forward(x);
        let (_, g) = softmax_cross_entropy(&logits, &y);
        full.recycle(logits);
        full.zero_grad();
        let gin = full.backward(&g);
        assert_eq!(gin.dims(), x.dims(), "{name}: input gradient shape");
        full.recycle(gin);

        let logits = lean.forward(x);
        let (_, g_lean) = softmax_cross_entropy(&logits, &y);
        lean.recycle(logits);
        assert_eq!(
            g, g_lean,
            "{name}: iteration {iter} diverged before backward"
        );
        lean.zero_grad();
        lean.backward_params(&g_lean);

        let (a, b) = (grad_bits(&full), grad_bits(&lean));
        assert!(a.iter().any(|&v| v != 0), "{name}: no gradient at all");
        for (span, (ga, gb)) in full
            .spans()
            .iter()
            .map(|s| (s, (&a[s.range.clone()], &b[s.range.clone()])))
        {
            assert_eq!(ga, gb, "{name}: {} differs at iteration {iter}", span.name);
        }
        full.step(&opt, None);
        lean.step(&opt, None);
        assert_eq!(
            full.flat_params(),
            lean.flat_params(),
            "{name}: step {iter}"
        );
    }
}

#[test]
fn params_only_backward_is_bitwise_equal_to_the_full_backward() {
    let mut rng = StdRng::seed_from_u64(14);
    let n = 8;

    let cfg = CnnConfig::scaled();
    let img = Tensor::randn(
        [n, cfg.in_channels, cfg.input_hw, cfg.input_hw],
        1.0,
        &mut rng,
    );
    assert_same_gradients("cnn", &|| cnn(&cfg, 3), &img, cfg.classes);

    let lcfg = LstmConfig::scaled();
    let seq = Tensor::randn([n, 10, lcfg.input_size], 1.0, &mut rng);
    assert_same_gradients("lstm", &|| lstm(&lcfg, 3), &seq, lcfg.classes);

    let wcfg = WrnConfig::scaled();
    let wimg = Tensor::randn(
        [n, wcfg.in_channels, wcfg.input_hw, wcfg.input_hw],
        1.0,
        &mut rng,
    );
    assert_same_gradients("wrn", &|| wrn(&wcfg, 3), &wimg, wcfg.classes);

    let flat = Tensor::randn([n, 20], 1.0, &mut rng);
    assert_same_gradients("mlp", &|| mlp(20, 16, 4, 3), &flat, 4);

    // A parameter-less prefix: backward_params never visits the Flatten.
    let cube = Tensor::randn([n, 3, 4, 4], 1.0, &mut rng);
    let flatten_linear = || {
        let mut rng = StdRng::seed_from_u64(5);
        Model::new(
            Sequential::new()
                .push(Flatten::new())
                .push(Linear::new("fc", 48, 5, &mut rng)),
        )
    };
    assert_same_gradients("flatten_linear", &flatten_linear, &cube, 5);

    // The first layer is a container with two parameterized branches (body
    // and projection shortcut), both fed by the model input.
    let projected_first = || {
        let mut rng = StdRng::seed_from_u64(6);
        let body = Sequential::new()
            .push(Conv2d::new("b.0", 3, 6, 3, 2, 1, &mut rng))
            .push(BatchNorm2d::new("b.1", 6))
            .push(Relu::new())
            .push(Conv2d::new("b.3", 6, 6, 3, 1, 1, &mut rng));
        Model::new(
            Sequential::new()
                .push(ResidualBlock::projected(body, "proj", 3, 6, 2, &mut rng))
                .push(Relu::new())
                .push(Flatten::new())
                .push(Linear::new("fc", 6 * 2 * 2, 3, &mut rng)),
        )
    };
    assert_same_gradients("projected_first", &projected_first, &cube, 3);
}
