//! Parity suite for the register-tiled GEMM.
//!
//! Checks every transpose variant against a naive f64 reference over random
//! shapes — including zero dims, non-tile-multiple m/n/k, and degenerate
//! 1×1 / single-row / single-column cases — on the dispatched tier and on
//! every tier the host can run, and every tier **bit for bit** against
//! [`dot_ref`], the one summation rule of `gemm.rs`'s header written out as
//! a scalar loop. The bits of a product depend on that rule alone — not on
//! the tier — so any re-tiling that keeps this suite green moved no
//! fingerprint.

use fedca_tensor::gemm::{
    active_kernel, available_kernels, gemm_acc, gemm_acc_cols, gemm_acc_on, Kernel, KC,
};
use fedca_tensor::{ops, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Naive f64-accumulating reference for `op(A)·op(B)`.
fn naive(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
) -> Vec<f32> {
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                c[i * n + j] += av as f64 * bv as f64;
            }
        }
    }
    c.into_iter().map(|x| x as f32).collect()
}

fn assert_close(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (&x, &y)) in got.iter().zip(want.iter()).enumerate() {
        let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
        assert!((x - y).abs() <= tol, "{ctx}[{i}]: {x} vs {y}");
    }
}

fn randn(len: usize, rng: &mut StdRng) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    Tensor::randn([len], 1.0, rng).into_vec()
}

/// Shapes that exercise the interesting structural cases: degenerate 1×1,
/// single row / single column, exact tile multiples and off-by-one around
/// every tier's tile (4×8, 6×16 and 12×16) and the KC boundary, and zero
/// dims.
fn structural_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 1, 513), // long dot product, crosses KC twice
        (1, 37, 5),  // single output row
        (29, 1, 5),  // single output column
        (4, 8, 8),   // exactly one tile, per tier
        (6, 16, 8),
        (12, 16, 8),
        (3, 7, 3), // strictly inside one tile
        (5, 15, 3),
        (5, 9, 9), // one past the tile edge
        (7, 17, 9),
        (18, 80, KC),     // exact multiples, exact KC
        (17, 13, KC + 7), // non-multiples, k crosses a KC boundary
        (0, 4, 3),        // zero dims: empty output / empty depth
        (4, 0, 3),
        (4, 3, 0),
    ]
}

/// The GEMMs `Conv2d` issues for cnn's conv1/conv2 and wrn's first block
/// (`W·col`, `gt·colᵀ`, `Wᵀ·gt`), and column tails of 1–7 past a strip.
fn conv_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (6, 2304, 75),
        (6, 75, 2304),
        (16, 64, 150),
        (150, 64, 16),
        (8, 4096, 72),
    ];
    shapes.extend((1..=7).map(|tail| (6, 32 + tail, 75)));
    shapes
}

/// Shapes around the 12×16 tile: every `m` that is one short of, exactly
/// or one past one or two full tiles (11 and 13 rows are split 11 and
/// 7 + 6; 23 and 25 rows 12 + 11 and 9 + 8 + 8), every live width of the
/// last 16-column strip, and depths that are a single step, odd (the even
/// chain takes the last depth) or cross `KC` leaving one odd depth behind.
fn tall_tile_shapes() -> Vec<(usize, usize, usize)> {
    let depths = [1, 9, KC + 1];
    let mut shapes = Vec::new();
    for (i, m) in [11, 12, 13, 23, 24, 25].into_iter().enumerate() {
        for live in 1..=16 {
            shapes.push((m, 16 + live, depths[(i + live) % depths.len()]));
        }
    }
    shapes
}

/// One output element by the summation rule, starting from the value `c`
/// already holds: per `KC` block of depth, an even-depth and an odd-depth
/// fused-multiply-add chain, each from `+0.0`, are summed and the sum is
/// added into `c` once.
fn dot_ref(c: f32, a_row: &[f32], b_col: &[f32]) -> f32 {
    let mut c = c;
    for (ab, bb) in a_row.chunks(KC).zip(b_col.chunks(KC)) {
        let mut chains = [0.0f32; 2];
        for (p, (&x, &y)) in ab.iter().zip(bb).enumerate() {
            chains[p % 2] = x.mul_add(y, chains[p % 2]);
        }
        c += chains[0] + chains[1];
    }
    c
}

#[test]
fn structural_shapes_match_f64_reference_all_variants() {
    let mut rng = StdRng::seed_from_u64(42);
    for (m, n, k) in structural_shapes() {
        for ta in [false, true] {
            for tb in [false, true] {
                let a = randn(m * k, &mut rng);
                let b = randn(k * n, &mut rng);
                let mut c = vec![0.0f32; m * n];
                gemm_acc(ta, tb, m, n, k, &a, &b, &mut c);
                let want = naive(ta, tb, m, n, k, &a, &b);
                assert_close(&c, &want, &format!("({m},{n},{k}) ta={ta} tb={tb}"));
            }
        }
    }
}

#[test]
fn ops_wrappers_route_through_the_same_kernel() {
    // The Tensor-level wrappers must agree bitwise with the raw engine —
    // they are thin shims, not separate implementations.
    let mut rng = StdRng::seed_from_u64(44);
    let (m, n, k) = (19, 11, 23);
    let a = Tensor::randn([m, k], 1.0, &mut rng);
    let b = Tensor::randn([k, n], 1.0, &mut rng);
    let mut raw = vec![0.0f32; m * n];
    gemm_acc(false, false, m, n, k, a.as_slice(), b.as_slice(), &mut raw);
    assert_eq!(ops::matmul(&a, &b).as_slice(), &raw[..]);
}

// ---------------------------------------------------------------------------
// Tiered parity: every compiled tier vs the f64 reference and vs the one
// summation rule. These run on the explicit-kernel entry point so one
// process covers all tiers regardless of what the global dispatch latched to.
// ---------------------------------------------------------------------------

#[test]
fn every_tier_matches_f64_reference_on_structural_shapes() {
    let mut rng = StdRng::seed_from_u64(45);
    for (m, n, k) in structural_shapes() {
        for ta in [false, true] {
            for tb in [false, true] {
                let a = randn(m * k, &mut rng);
                let b = randn(k * n, &mut rng);
                let want = naive(ta, tb, m, n, k, &a, &b);
                for kernel in available_kernels() {
                    let mut c = vec![0.0f32; m * n];
                    gemm_acc_on(kernel, ta, tb, m, n, k, &a, &b, &mut c);
                    assert_close(
                        &c,
                        &want,
                        &format!("{} ({m},{n},{k}) ta={ta} tb={tb}", kernel.name()),
                    );
                }
            }
        }
    }
}

/// Every tier, every transpose combination, every element: the engine's
/// output equals the summation rule bit for bit, accumulating into a
/// non-zero C. This is what makes a change of tier, tile shape, loop order
/// or packing provably unable to move a fingerprint.
#[test]
fn every_tier_equals_the_summation_rule_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(46);
    let shapes = structural_shapes()
        .into_iter()
        .chain(conv_shapes())
        .chain(tall_tile_shapes());
    for (m, n, k) in shapes {
        for ta in [false, true] {
            for tb in [false, true] {
                let a = randn(m * k, &mut rng);
                let b = randn(k * n, &mut rng);
                let c0 = randn(m * n, &mut rng);
                // Row i of op(A) and column j of op(B), gathered once.
                let rows: Vec<Vec<f32>> = (0..m)
                    .map(|i| {
                        (0..k)
                            .map(|p| if ta { a[p * m + i] } else { a[i * k + p] })
                            .collect()
                    })
                    .collect();
                let cols: Vec<Vec<f32>> = (0..n)
                    .map(|j| {
                        (0..k)
                            .map(|p| if tb { b[j * k + p] } else { b[p * n + j] })
                            .collect()
                    })
                    .collect();
                for kernel in available_kernels() {
                    let mut c = c0.clone();
                    gemm_acc_on(kernel, ta, tb, m, n, k, &a, &b, &mut c);
                    for i in 0..m {
                        for j in 0..n {
                            let want = dot_ref(c0[i * n + j], &rows[i], &cols[j]);
                            assert_eq!(
                                c[i * n + j].to_bits(),
                                want.to_bits(),
                                "{} ({m},{n},{k}) ta={ta} tb={tb} [{i},{j}]: {} vs {want}",
                                kernel.name(),
                                c[i * n + j]
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Column bands of one product are that product: any split of `0..n` —
/// mid-strip, empty, single-column — writes the bits one whole call writes
/// (`Conv2d` multiplies `col` a few samples at a time through this entry).
#[test]
fn column_bands_compose_to_the_whole_product_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(47);
    for (m, n, k) in [(6, 100, 75), (16, 37, KC + 9), (5, 16, 3)] {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let c0 = randn(m * n, &mut rng);
        let mut whole = c0.clone();
        gemm_acc(false, false, m, n, k, &a, &b, &mut whole);
        let mut banded = c0.clone();
        for cols in [0..0, 0..1, 1..n / 3, n / 3..n - 1, n - 1..n] {
            gemm_acc_cols(m, n, k, &a, &b, &mut banded, cols);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&banded), bits(&whole), "({m},{n},{k})");
    }
}

/// Dispatch sanity: the latched tier is stable, is one of the compiled
/// tiers, is the forced tier when `FEDCA_FORCE_KERNEL` is set
/// (`scripts/check.sh` runs this suite that way too) and the best available
/// one when it is not — a silent fallback to the portable tier fails here.
#[test]
fn dispatch_is_stable_and_respects_the_force_override() {
    assert!(Kernel::from_name("scalar") == Some(Kernel::Scalar));
    assert!(Kernel::from_name("avx2") == Some(Kernel::Avx2));
    assert!(Kernel::from_name("avx512") == Some(Kernel::Avx512));
    assert!(Kernel::from_name("neon").is_none());
    assert!(
        Kernel::from_name("Scalar").is_none(),
        "names are case-sensitive"
    );

    let tiers = available_kernels();
    assert!(tiers.contains(&Kernel::Scalar), "scalar is always compiled");
    let active = active_kernel();
    assert!(tiers.contains(&active), "active tier must be available");
    assert_eq!(active, active_kernel(), "dispatch must latch once");
    match std::env::var("FEDCA_FORCE_KERNEL") {
        Ok(forced) => assert_eq!(
            active.name(),
            forced,
            "FEDCA_FORCE_KERNEL={forced} but dispatch latched {}",
            active.name()
        ),
        Err(_) => assert_eq!(active, tiers[0], "unforced dispatch takes the best tier"),
    }
}

proptest! {
    #[test]
    fn random_shapes_match_f64_reference_on_every_tier(
        m in 0usize..40,
        n in 0usize..40,
        k in 0usize..80,
        ta_bit in 0u8..2,
        tb_bit in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let (ta, tb) = (ta_bit == 1, tb_bit == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let want = naive(ta, tb, m, n, k, &a, &b);
        for kernel in available_kernels() {
            let mut c = vec![0.0f32; m * n];
            gemm_acc_on(kernel, ta, tb, m, n, k, &a, &b, &mut c);
            for (i, (&x, &y)) in c.iter().zip(want.iter()).enumerate() {
                let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
                prop_assert!(
                    (x - y).abs() <= tol,
                    "{} [{i}]: {x} vs {y}", kernel.name()
                );
            }
        }
    }

    #[test]
    fn random_shapes_match_f64_reference(
        m in 0usize..40,
        n in 0usize..40,
        k in 0usize..80,
        ta_bit in 0u8..2,
        tb_bit in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let (ta, tb) = (ta_bit == 1, tb_bit == 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let mut c = vec![0.0f32; m * n];
        gemm_acc(ta, tb, m, n, k, &a, &b, &mut c);
        let want = naive(ta, tb, m, n, k, &a, &b);
        for (i, (&x, &y)) in c.iter().zip(want.iter()).enumerate() {
            let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
            prop_assert!((x - y).abs() <= tol, "[{i}]: {x} vs {y}");
        }
    }
}
