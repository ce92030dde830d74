//! `Conv2d` against an oracle that shares no code with it: a naive im2col
//! (the defining index formula, bounds-checked per element) followed by
//! every product written out in `fedca_tensor::gemm`'s summation rule.
//! Forward, `dW`, `db` and `dX` must match **bit for bit**, on whichever
//! tier is dispatched (`scripts/check.sh` runs this suite on the portable
//! tier too).

use fedca_nn::layers::Conv2d;
use fedca_nn::{Layer, Workspace};
use fedca_tensor::gemm::{active_kernel, KC};
use fedca_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One output element by the summation rule, starting from the value `c`
/// already holds (see `gemm.rs`'s header).
fn dot_ref(c: f32, a: &[f32], b: &[f32]) -> f32 {
    let mut c = c;
    for (ab, bb) in a.chunks(KC).zip(b.chunks(KC)) {
        let mut chains = [0.0f32; 2];
        for (p, (&x, &y)) in ab.iter().zip(bb).enumerate() {
            chains[p % 2] = x.mul_add(y, chains[p % 2]);
        }
        c += chains[0] + chains[1];
    }
    c
}

#[derive(Clone, Copy, Debug)]
struct Case {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    hw: usize,
}

struct Oracle {
    y: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    dx: Vec<f32>,
}

/// Forward and backward of `case` over batch `x`, from weights `w`, bias
/// `b`, upstream gradient `g` and the gradients `dw0`/`db0` already
/// accumulated.
#[allow(clippy::too_many_arguments)]
fn oracle(
    case: Case,
    n: usize,
    w: &[f32],
    b: &[f32],
    x: &[f32],
    g: &[f32],
    dw0: &[f32],
    db0: &[f32],
) -> Oracle {
    let Case {
        in_c,
        out_c,
        k,
        stride,
        pad,
        hw,
    } = case;
    let o = (hw + 2 * pad - k) / stride + 1;
    let (ck2, ohw) = (in_c * k * k, o * o);
    let nohw = n * ohw;
    // col[r][q], r = (c, di, dj), q = (s, i, j); colt is its transpose.
    let mut col = vec![vec![0.0f32; nohw]; ck2];
    let mut colt = vec![vec![0.0f32; ck2]; nohw];
    // Where col[r][q] came from in x, for the scatter back.
    let mut origin = vec![vec![None; nohw]; ck2];
    for s in 0..n {
        for c in 0..in_c {
            for di in 0..k {
                for dj in 0..k {
                    let r = (c * k + di) * k + dj;
                    for i in 0..o {
                        for j in 0..o {
                            let q = s * ohw + i * o + j;
                            let (yi, xj) = (i * stride + di, j * stride + dj);
                            if yi < pad || xj < pad || yi - pad >= hw || xj - pad >= hw {
                                continue;
                            }
                            let at = ((s * in_c + c) * hw + yi - pad) * hw + xj - pad;
                            col[r][q] = x[at];
                            colt[q][r] = x[at];
                            origin[r][q] = Some(at);
                        }
                    }
                }
            }
        }
    }
    // gt[oc][q] from grad_out [N, out_c, oh, ow]; gtt is its transpose.
    let gt: Vec<Vec<f32>> = (0..out_c)
        .map(|oc| {
            (0..nohw)
                .map(|q| g[((q / ohw) * out_c + oc) * ohw + q % ohw])
                .collect()
        })
        .collect();
    let gtt: Vec<Vec<f32>> = (0..nohw)
        .map(|q| (0..out_c).map(|oc| gt[oc][q]).collect())
        .collect();

    let mut y = vec![0.0f32; n * out_c * ohw];
    for oc in 0..out_c {
        let w_row = &w[oc * ck2..(oc + 1) * ck2];
        for q in 0..nohw {
            y[((q / ohw) * out_c + oc) * ohw + q % ohw] = dot_ref(0.0, w_row, &colt[q]) + b[oc];
        }
    }
    let mut dw = dw0.to_vec();
    for oc in 0..out_c {
        for r in 0..ck2 {
            dw[oc * ck2 + r] = dot_ref(dw0[oc * ck2 + r], &gt[oc], &col[r]);
        }
    }
    let db = (0..out_c)
        .map(|oc| db0[oc] + gt[oc].iter().sum::<f32>())
        .collect();
    // dcol = Wᵀ·gt, scattered back in (c, di, dj, i, j) order per sample.
    let mut dx = vec![0.0f32; x.len()];
    for r in 0..ck2 {
        let w_col: Vec<f32> = (0..out_c).map(|oc| w[oc * ck2 + r]).collect();
        for q in 0..nohw {
            if let Some(at) = origin[r][q] {
                dx[at] += dot_ref(0.0, &w_col, &gtt[q]);
            }
        }
    }
    Oracle { y, dw, db, dx }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check(case: Case, n: usize, rng: &mut StdRng) {
    let ctx = format!("{} {case:?} batch {n}", active_kernel().name());
    let mut ws = Workspace::new();
    let Case {
        in_c,
        out_c,
        k,
        stride,
        pad,
        hw,
    } = case;
    let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, rng);
    let x = Tensor::randn([n, in_c, hw, hw], 1.0, rng);
    // A non-zero bias and gradients already in the accumulators, so the
    // "added into C once per block" half of the contract is exercised.
    conv.for_each_param(&mut |p| {
        if p.name().ends_with("bias") {
            p.value = Tensor::randn(p.value.shape().clone(), 1.0, rng);
        }
        p.grad = Tensor::randn(p.grad.shape().clone(), 1.0, rng);
    });
    let snapshot = |conv: &Conv2d, grad: bool| -> Vec<Vec<f32>> {
        conv.params()
            .iter()
            .map(|p| if grad { &p.grad } else { &p.value }.as_slice().to_vec())
            .collect()
    };
    let (values, grads0) = (snapshot(&conv, false), snapshot(&conv, true));

    // Two rounds on one layer: the second reuses every cached buffer.
    for round in 0..2 {
        conv.for_each_param(&mut |p| {
            let before = &grads0[usize::from(p.name().ends_with("bias"))];
            p.grad.as_mut_slice().copy_from_slice(before);
        });
        let y = conv.forward(&x, &mut ws);
        let g = Tensor::randn(y.shape().clone(), 1.0, rng);
        let want = oracle(
            case,
            n,
            &values[0],
            &values[1],
            x.as_slice(),
            g.as_slice(),
            &grads0[0],
            &grads0[1],
        );
        assert_eq!(
            bits(y.as_slice()),
            bits(&want.y),
            "{ctx}: forward, round {round}"
        );
        // Parameter-only backward first, then the full one from the same
        // starting gradients: both must produce the oracle's dW and db.
        assert!(conv.backward(&g, false, &mut ws).is_none());
        let lean = snapshot(&conv, true);
        conv.for_each_param(&mut |p| {
            let before = &grads0[usize::from(p.name().ends_with("bias"))];
            p.grad.as_mut_slice().copy_from_slice(before);
        });
        let dx = conv.backward(&g, true, &mut ws).expect("input gradient");
        let full = snapshot(&conv, true);
        for (got, how) in [(&lean, "params-only"), (&full, "full")] {
            assert_eq!(
                bits(&got[0]),
                bits(&want.dw),
                "{ctx}: dW ({how}), round {round}"
            );
            assert_eq!(
                bits(&got[1]),
                bits(&want.db),
                "{ctx}: db ({how}), round {round}"
            );
        }
        assert_eq!(
            bits(dx.as_slice()),
            bits(&want.dx),
            "{ctx}: dX, round {round}"
        );
        ws.give(y);
        ws.give(dx);
    }
}

#[test]
fn conv2d_equals_the_im2col_contract_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(31);
    let case = |in_c, out_c, k, stride, pad, hw| Case {
        in_c,
        out_c,
        k,
        stride,
        pad,
        hw,
    };
    // cnn's conv1 (ow = 12) and conv2, at the training batch, the evaluation
    // batch (col larger than one forward band) and a single sample.
    for n in [1, 16, 64] {
        check(case(3, 6, 5, 1, 0, 16), n, &mut rng);
        check(case(6, 16, 5, 1, 0, 6), n, &mut rng);
    }
    for n in [1, 16] {
        // wrn's 3×3 pad-1 blocks, stride 1 and the stride-2 downsample; the
        // 32-channel block's forward depth (288) crosses a KC boundary.
        check(case(8, 8, 3, 1, 1, 16), n, &mut rng);
        check(case(8, 16, 3, 2, 1, 16), n, &mut rng);
        check(case(32, 32, 3, 1, 1, 4), n, &mut rng);
        // 1×1 kernel; ow = 1, 5 and 13; padding wider than the kernel reach.
        check(case(4, 5, 1, 1, 0, 5), n, &mut rng);
        check(case(2, 3, 5, 1, 0, 5), n, &mut rng);
        check(case(3, 4, 3, 1, 0, 7), n, &mut rng);
        check(case(2, 7, 3, 1, 1, 13), n, &mut rng);
        check(case(1, 2, 3, 2, 2, 6), n, &mut rng);
    }
}
