//! Parity suite for the packed register-blocked GEMM.
//!
//! Checks every transpose variant against a naive f64 reference over random
//! shapes — including zero dims, non-tile-multiple m/n/k, and degenerate
//! 1×1 / single-row / single-column cases — on the dispatched tier and on
//! every tier the host can run, and every SIMD tier against the scalar one.

use fedca_tensor::gemm::{
    active_kernel, available_kernels, gemm_acc, gemm_acc_on, Kernel, KC, MR, NR,
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
/// single row / single column, exact tile multiples, off-by-one around the
/// MR/NR/KC boundaries, and zero dims.
fn structural_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 1, 513),          // long dot product, crosses KC
        (1, 37, 5),           // single output row
        (29, 1, 5),           // single output column
        (MR, NR, 8),          // exactly one tile
        (MR - 1, NR - 1, 3),  // strictly inside one tile
        (MR + 1, NR + 1, 9),  // one past the tile edge
        (3 * MR, 5 * NR, KC), // exact multiples, exact KC
        (17, 13, KC + 7),     // non-multiples, k crosses a KC boundary
        (0, 4, 3),            // zero dims: empty output / empty depth
        (4, 0, 3),
        (4, 3, 0),
    ]
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
// Tiered parity: every compiled SIMD tier vs the f64 reference and vs the
// scalar tier. These run on the explicit-kernel entry point so one process
// covers all tiers regardless of what the global dispatch latched to.
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

/// SIMD tiers may fuse multiplies and adds (FMA) but keep the same
/// sequential-k accumulation order, so they must agree with the scalar
/// tier to within FMA rounding — a far tighter bound than the f64 check.
#[test]
fn every_tier_stays_within_fma_rounding_of_scalar() {
    let mut rng = StdRng::seed_from_u64(46);
    for (m, n, k) in structural_shapes() {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let mut scalar = vec![0.0f32; m * n];
        gemm_acc_on(Kernel::Scalar, false, false, m, n, k, &a, &b, &mut scalar);
        for kernel in available_kernels() {
            let mut c = vec![0.0f32; m * n];
            gemm_acc_on(kernel, false, false, m, n, k, &a, &b, &mut c);
            for (i, (&x, &y)) in c.iter().zip(&scalar).enumerate() {
                let tol = 2.0 * f32::EPSILON * (k as f32).max(1.0) * (1.0 + y.abs());
                assert!(
                    (x - y).abs() <= tol,
                    "{} ({m},{n},{k})[{i}]: {x} vs scalar {y}",
                    kernel.name()
                );
            }
        }
    }
}

/// Dispatch sanity: the latched tier is stable, is one of the compiled
/// tiers, and — when `scripts/simd_check.sh` runs this suite with
/// `FEDCA_FORCE_KERNEL` set — matches the forced tier exactly.
#[test]
fn dispatch_is_stable_and_respects_the_force_override() {
    assert!(Kernel::from_name("scalar") == Some(Kernel::Scalar));
    assert!(Kernel::from_name("avx2") == Some(Kernel::Avx2));
    assert!(Kernel::from_name("neon") == Some(Kernel::Neon));
    assert!(Kernel::from_name("sse9").is_none());
    assert!(
        Kernel::from_name("Scalar").is_none(),
        "names are case-sensitive"
    );

    let tiers = available_kernels();
    assert!(tiers.contains(&Kernel::Scalar), "scalar is always compiled");
    let active = active_kernel();
    assert!(tiers.contains(&active), "active tier must be available");
    assert_eq!(active, active_kernel(), "dispatch must latch once");
    if let Ok(forced) = std::env::var("FEDCA_FORCE_KERNEL") {
        assert_eq!(
            active.name(),
            forced,
            "FEDCA_FORCE_KERNEL={forced} but dispatch latched {}",
            active.name()
        );
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
