//! `Lstm` against the textbook it replaced: a batch-major reference that
//! slices every timestep out of `[N, T, ·]` tensors, issues one `gemm_acc`
//! per product per step and runs BPTT one cell at a time. The layer's
//! time-major, in-place, batched form changes where operands live and how
//! many GEMM calls carry them — never a product's `(m, n, k)`, its operand
//! values or its depth order — so by `gemm.rs`'s summation rule the
//! output, every parameter gradient and `dx` must match **bit for bit**, on
//! whichever tier is dispatched (`scripts/check.sh` runs this suite on the
//! portable tier too).

use fedca_nn::layers::Lstm;
use fedca_nn::{Layer, Workspace};
use fedca_tensor::gemm::{active_kernel, gemm_acc, Kernel};
use fedca_tensor::{simd, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One core's parameters, `[w_ih, w_hh, b_ih, b_hh]`: values going in,
/// gradients going in and (accumulated into) coming out.
struct Core {
    value: [Vec<f32>; 4],
    grad: [Vec<f32>; 4],
}

/// Rows `step` of a batch-major `[N, T, w]` sequence, gathered as `[N, w]`.
fn step_rows(seq: &[f32], n: usize, t: usize, w: usize, step: usize) -> Vec<f32> {
    (0..n)
        .flat_map(|s| seq[(s * t + step) * w..][..w].to_vec())
        .collect()
}

/// What one core's forward leaves for its backward, per step:
/// `[x, h_prev, c_prev, i, f, g, o, tanh_c]`, each `[N, ·]`.
type Cache = Vec<[Vec<f32>; 8]>;

/// One core over `xs: [N, T, fin]`: every hidden state, `[N, T, H]`.
fn core_forward(
    core: &Core,
    xs: &[f32],
    (n, t, fin, hdim): (usize, usize, usize, usize),
) -> (Vec<f32>, Cache) {
    let h4 = 4 * hdim;
    let [w_ih, w_hh, b_ih, b_hh] = &core.value;
    let (mut h, mut c) = (vec![0.0f32; n * hdim], vec![0.0f32; n * hdim]);
    let mut hs = vec![0.0f32; n * t * hdim];
    let mut cache = Cache::new();
    for step in 0..t {
        let x = step_rows(xs, n, t, fin, step);
        let (h_prev, c_prev) = (h.clone(), c.clone());
        let mut z = vec![0.0f32; n * h4];
        gemm_acc(false, true, n, h4, fin, &x, w_ih, &mut z);
        gemm_acc(false, true, n, h4, hdim, &h_prev, w_hh, &mut z);
        for row in z.chunks_exact_mut(h4) {
            for k in 0..h4 {
                row[k] += b_ih[k] + b_hh[k];
            }
        }
        let mut gates: [Vec<f32>; 4] = std::array::from_fn(|_| vec![0.0f32; n * hdim]);
        let mut tanh_c = vec![0.0f32; n * hdim];
        // The activations are `tensor::simd`'s portable body, whatever tier
        // the layer dispatched to; what is under test is everything else.
        let [i, f, g, o] = &mut gates;
        let (c, tc, h) = (&mut c, &mut tanh_c, &mut h);
        simd::lstm_cell_forward(Kernel::Scalar, hdim, &z, &c_prev, i, f, g, o, c, tc, h);
        for s in 0..n {
            hs[(s * t + step) * hdim..][..hdim].copy_from_slice(&h[s * hdim..][..hdim]);
        }
        let [i, f, g, o] = gates;
        cache.push([x, h_prev, c_prev, i, f, g, o, tanh_c]);
    }
    (hs, cache)
}

/// BPTT of one core from `dh_out: [N, T, H]`, the gradient on every hidden
/// state; accumulates into `core.grad` and returns `dx: [N, T, fin]`.
fn core_backward(
    core: &mut Core,
    cache: &Cache,
    dh_out: &[f32],
    (n, t, fin, hdim): (usize, usize, usize, usize),
) -> Vec<f32> {
    let h4 = 4 * hdim;
    let [w_ih, w_hh, _, _] = &core.value;
    let [dw_ih, dw_hh, db_ih, db_hh] = &mut core.grad;
    let mut dx = vec![0.0f32; n * t * fin];
    let (mut dh, mut dc) = (vec![0.0f32; n * hdim], vec![0.0f32; n * hdim]);
    for step in (0..t).rev() {
        let [x, h_prev, c_prev, i, f, g, o, tanh_c] = &cache[step];
        let direct = step_rows(dh_out, n, t, hdim, step);
        let mut dz = vec![0.0f32; n * h4];
        for idx in 0..n * hdim {
            dh[idx] += direct[idx];
            let (i, f, g, o, tc) = (i[idx], f[idx], g[idx], o[idx], tanh_c[idx]);
            let d_o = dh[idx] * tc;
            let dct = dc[idx] + dh[idx] * o * (1.0 - tc * tc);
            let (di, df, dg) = (dct * g, dct * c_prev[idx], dct * i);
            dc[idx] = dct * f;
            let row = &mut dz[idx / hdim * h4..][..h4];
            let k = idx % hdim;
            row[k] = di * i * (1.0 - i);
            row[hdim + k] = df * f * (1.0 - f);
            row[2 * hdim + k] = dg * (1.0 - g * g);
            row[3 * hdim + k] = d_o * o * (1.0 - o);
        }
        gemm_acc(true, false, h4, fin, n, &dz, x, dw_ih);
        gemm_acc(true, false, h4, hdim, n, &dz, h_prev, dw_hh);
        for row in dz.chunks_exact(h4) {
            for k in 0..h4 {
                db_ih[k] += row[k];
                db_hh[k] += row[k];
            }
        }
        dh.fill(0.0);
        gemm_acc(false, false, n, hdim, h4, &dz, w_hh, &mut dh);
        let mut dx_t = vec![0.0f32; n * fin];
        gemm_acc(false, false, n, fin, h4, &dz, w_ih, &mut dx_t);
        for s in 0..n {
            dx[(s * t + step) * fin..][..fin].copy_from_slice(&dx_t[s * fin..][..fin]);
        }
    }
    dx
}

/// The stack: each core's hidden sequence feeds the next, the output is the
/// top core's last step, and the gradient enters there and nowhere else.
/// Returns `(y: [N, H], dx: [N, T, fin])`.
fn reference(
    cores: &mut [Core],
    x: &[f32],
    grad_out: &[f32],
    (n, t, fin, hdim): (usize, usize, usize, usize),
) -> (Vec<f32>, Vec<f32>) {
    let width = |l: usize| if l == 0 { fin } else { hdim };
    let (mut seq, mut caches) = (x.to_vec(), Vec::new());
    for (l, core) in cores.iter().enumerate() {
        let (hs, cache) = core_forward(core, &seq, (n, t, width(l), hdim));
        seq = hs;
        caches.push(cache);
    }
    let y = step_rows(&seq, n, t, hdim, t - 1);
    let mut grad = vec![0.0f32; n * t * hdim];
    for s in 0..n {
        grad[(s * t + t - 1) * hdim..][..hdim].copy_from_slice(&grad_out[s * hdim..][..hdim]);
    }
    for (l, core) in cores.iter_mut().enumerate().rev() {
        grad = core_backward(core, &caches[l], &grad, (n, t, width(l), hdim));
    }
    (y, grad)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(
    lstm: &mut Lstm,
    ws: &mut Workspace,
    dims: (usize, usize, usize, usize),
    rng: &mut StdRng,
) {
    let (n, t, fin, hdim) = dims;
    let ctx = format!("{} [N,T,F,H] = {dims:?}", active_kernel().name());
    // Gradients already in the accumulators, so "added into C" is exercised.
    lstm.for_each_param(&mut |p| p.grad = Tensor::randn(p.grad.shape().clone(), 1.0, rng));
    let grads0: Vec<Vec<f32>> = lstm
        .params()
        .iter()
        .map(|p| p.grad.as_slice().to_vec())
        .collect();
    let mut cores: Vec<Core> = lstm
        .params()
        .chunks_exact(4)
        .map(|c| Core {
            value: std::array::from_fn(|k| c[k].value.as_slice().to_vec()),
            grad: std::array::from_fn(|k| c[k].grad.as_slice().to_vec()),
        })
        .collect();
    let x = Tensor::randn([n, t, fin], 1.0, rng);
    let g = Tensor::randn([n, hdim], 1.0, rng);
    let (want_y, want_dx) = reference(&mut cores, x.as_slice(), g.as_slice(), dims);
    let want_grads: Vec<&Vec<f32>> = cores.iter().flat_map(|c| c.grad.iter()).collect();

    let y = lstm.forward(&x, ws);
    assert_eq!(bits(y.as_slice()), bits(&want_y), "{ctx}: output");
    // Parameter-only backward first, then the full one from the same
    // starting gradients: both must produce the reference's gradients.
    for need_input_grad in [false, true] {
        let mut g0 = grads0.iter();
        lstm.for_each_param(&mut |p| p.grad.as_mut_slice().copy_from_slice(g0.next().unwrap()));
        let dx = lstm.backward(&g, need_input_grad, ws);
        for (p, want) in lstm.params().iter().zip(&want_grads) {
            let what = format!("{ctx}: {} (dx {need_input_grad})", p.name());
            assert_eq!(bits(p.grad.as_slice()), bits(want), "{what}");
        }
        assert_eq!(dx.is_some(), need_input_grad, "{ctx}: dx presence");
        if let Some(dx) = dx {
            assert_eq!(dx.dims(), x.dims(), "{ctx}: dx shape");
            assert_eq!(bits(dx.as_slice()), bits(&want_dx), "{ctx}: dx");
            ws.give(dx);
        }
    }
    ws.give(y);
}

#[test]
fn lstm_equals_the_step_by_step_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(22);
    // (F, H, depth): widths below, off and on the vector width; the scaled
    // model's 8 → 32 × 2; a hidden width whose 4H crosses a KC depth block.
    for (fin, hdim, depth) in [(3, 5, 1), (4, 13, 2), (8, 32, 2), (6, 13, 3), (5, 72, 1)] {
        let mut lstm = Lstm::new("rnn", fin, hdim, depth, &mut rng);
        let mut ws = Workspace::new();
        // One layer through growing and shrinking shapes, so every persistent
        // sequence buffer is reused at a size it was not created for: the
        // training batch, the evaluation batch, a single step, one sample.
        for (n, t) in [(16, 6), (64, 6), (3, 1), (1, 7), (1, 1), (5, 9)] {
            check(&mut lstm, &mut ws, (n, t, fin, hdim), &mut rng);
        }
    }
}
