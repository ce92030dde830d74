//! Register-tiled GEMM that reads its operands where they are.
//!
//! This is the single matrix-multiply engine behind every `ops::matmul*`
//! variant and, through im2col, the convolution layers. One tile orientation
//! serves every product: a tile of C is up to `R` rows by `W` columns held
//! in registers, **lanes run along `n`**, each depth step loads one `W`-wide
//! row of B and broadcasts `R` elements of A.
//!
//! | tier     | tile `R`×`W` | accumulators                                   |
//! |----------|--------------|------------------------------------------------|
//! | portable | 4×8          | 2·`[[f32; 8]; R]`, `f32::mul_add`              |
//! | AVX2     | 6×16         | 2·R `ymm`, even pass then odd pass (16 `ymm`)  |
//! | AVX-512  | 12×16        | 2·R `zmm`, both chains in one pass (32 `zmm`)  |
//!
//! Both vector tiles keep the rule's two chains (below) per element; AVX2's
//! sixteen registers hold only one chain's accumulators at a time, so it
//! runs the even depths, parks their sums and then runs the odd depths,
//! while AVX-512's thirty-two hold both and a depth block is a single pass.
//!
//! * **A is never copied.** Element `(i, p)` is read at `i·a_rs + p·a_ps`
//!   whichever way A is stored, by a scalar broadcast.
//! * **A B stored `[k,n]` is never copied.** Its rows already run along `n`,
//!   so the tile loads them in place (`ldb = n`). This is every convolution
//!   forward (`W·col`), every `dX = g·W` and every `dW = gᵀ·x`.
//! * **A B stored `[n,k]`** (`trans_b`: Linear/LSTM forward, conv `dW`) is
//!   transposed one `KC`×`W` strip at a time into a 16 KiB thread-local
//!   buffer — 8×8 register blocks on the vector tiers — and the same tile
//!   reads the strip at `ldb = W`. The partial last strip of any B (`n` not a multiple
//!   of `W`) is staged the same way, zero-padded, so every tile loads
//!   full-width rows and only its update of C is cut to the live columns.
//! * **`m` is split evenly** into `⌈m/R⌉` tiles of `⌊m/tiles⌋` or one more
//!   rows, each instantiated for its exact height (`const R`), so no tile is
//!   padded (conv1's `m = 6` is one full AVX2 tile; lstm's `m = 16` is
//!   8 + 8 on AVX-512). No tile spills and none goes through a scalar
//!   epilogue.
//! * **Loop order** per `KC` depth block: blocks of `NB` columns, then row
//!   tiles, then the block's strips — a row tile sweeps a contiguous run of
//!   C while its rows of A and the block's rows of B stay cache-resident.
//!
//! The packed 8×4 lanes-along-`m` microkernel this replaces copied both
//! operands into strips on every call; on conv1's forward (`6×2304×75`)
//! that was 25 % dead lanes, a 691 KB re-copy of `col` and a scalar
//! epilogue: 13 GFLOP/s against 66 here, same bits (DESIGN §10 has the
//! per-shape table, including the transposed-B shapes that justify one
//! orientation rather than two).
//!
//! # Determinism: one summation rule, tiers choose width
//!
//! The bits of `C` depend on **one rule and on nothing else** — not the
//! tier, the tile shape, the loop order, the transposition, the masking or
//! which columns a call covers. For every output element, depth is cut into
//! consecutive blocks of `KC`; within a block the products `a·b` are
//! accumulated by two fused-multiply-add chains that each start from
//! `+0.0` and run in increasing depth — one over the block's even depths,
//! one over its odd depths — then `even + odd` is added into the element of
//! `C` once, blocks in increasing depth. A fused multiply-add rounds once
//! and is correctly rounded wherever it runs (`vfmadd` on AVX2 and AVX-512,
//! `fmla` on aarch64, libm's `fmaf` in an x86 build's portable tile), so the
//! rule has one answer:
//! the same seed gives the same bytes on every host, and a tier is only a
//! choice of vector width and instructions — the contract
//! [`crate::dataplane`] and [`crate::simd`] keep as well.
//! `tests/gemm_parity.rs` states the rule as a ten-line reference and
//! asserts `to_bits` equality for every tier, transposition and edge shape,
//! so a re-tiling that keeps that suite green cannot move a fingerprint.
//! The engine is single-threaded; threads belong to the round executor, one
//! level up, whose workers each issue whole GEMMs.
//!
//! # Accumulation policy
//!
//! Accumulation is **f32**. Rounding error grows like `O(√k · ε)` for random
//! data (`O(k · ε)` worst case), well inside training noise for the layer
//! sizes this workspace simulates; `ops` carries a large-`k` regression test
//! against an f64 reference pinning this. The *statistical progress* metric
//! (FedCA Eq. 1) still uses `linalg::dot`'s f64 accumulation — that path
//! aggregates entire flattened models, where precision is load-bearing.
//!
//! # SIMD dispatch
//!
//! The tier is selected once per process by [`active_kernel`]: runtime
//! feature detection picks the best compiled-in tier, and the
//! `FEDCA_FORCE_KERNEL={scalar,avx2,avx512}` environment variable overrides
//! it (so CI can prove the portable and AVX2 tiles compute the best tile's
//! bits). Under the AVX-512 tier [`crate::dataplane`] runs 512-bit bodies
//! for its int8 upload path; [`crate::simd`] and the rest of the data plane
//! run their AVX2 bodies (`Kernel::has_avx2`). Every target but AVX2 `x86_64` runs the portable
//! tile. An x86 build compiles it for the SSE2 baseline, where each `mul_add` is a call to libm's
//! `fmaf` — the same answer ~25× slower (DESIGN §4), which an x86 CPU
//! without AVX2+FMA pays and which is not a performance target.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;

/// Depth (k extent) of one accumulation block: the unit of the summation
/// rule in the module header.
pub const KC: usize = 256;
/// Columns of an in-place B walked per row tile.
const NB: usize = 256;
/// Widest register tile of any tier, in columns.
const MAX_LANES: usize = 16;

thread_local! {
    // One staged column strip of B (see `stage_b_strip`).
    // Thread-local because the callers are: the persistent executor workers
    // and the main thread each issue GEMMs; no GEMM touches the heap.
    static STRIP: RefCell<[f32; KC * MAX_LANES]> = const { RefCell::new([0.0; KC * MAX_LANES]) };
}

/// A register-tile implementation tier. Tiers differ in tile shape and
/// instructions; none of that reaches the output (module header).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable kernel, always available: the module header's rule written
    /// with `f32::mul_add` (an `fmla` on aarch64, a libm `fmaf` call in an
    /// x86 build).
    Scalar,
    /// AVX2 + FMA intrinsics (`x86_64` only, runtime-detected).
    Avx2,
    /// AVX-512F intrinsics for the GEMM tile and the int8 upload path of
    /// [`crate::dataplane`] (scale scan, quantizer, 8-bit decode and fold),
    /// the AVX2 bodies everywhere else (`x86_64` only, runtime-detected).
    Avx512,
}

impl Kernel {
    /// The tier's stable lowercase name (`scalar` / `avx2` / `avx512`), as
    /// accepted by `FEDCA_FORCE_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }

    /// Parses a `FEDCA_FORCE_KERNEL` value. Case-sensitive by design: the
    /// accepted names are exactly what [`Kernel::name`] prints.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            "avx512" => Some(Kernel::Avx512),
            _ => None,
        }
    }

    /// The tier's register tile: most output rows per tile, and its width
    /// in columns. A shape, not a contract — no output bit depends on it.
    fn tile(self) -> (usize, usize) {
        match self {
            Kernel::Scalar => (4, 8),
            Kernel::Avx2 => (6, 16),
            Kernel::Avx512 => (12, 16),
        }
    }

    /// Whether this tier implies AVX2 + FMA on the host, so that a kernel
    /// with no body of the tier's own width runs its AVX2 body: the one
    /// test behind every AVX2 branch of [`crate::dataplane`], [`crate::simd`]
    /// and B staging. A `false` here would not change a bit (the portable
    /// bodies compute the same), only run them many times slower.
    pub(crate) fn has_avx2(self) -> bool {
        matches!(self, Kernel::Avx2 | Kernel::Avx512)
    }

    /// Whether this tier can run on the current host (compiled in *and*
    /// supported by the CPU).
    pub fn is_available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            match self {
                Kernel::Scalar => true,
                Kernel::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
                Kernel::Avx512 => {
                    is_x86_feature_detected!("avx512f") && Kernel::Avx2.is_available()
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Kernel::Scalar
        }
    }

    /// Panics unless this tier can run here: the guard of every entry point
    /// that takes an explicit tier.
    pub(crate) fn assert_available(self) {
        assert!(
            self.is_available(),
            "kernel tier {} unavailable on this host",
            self.name()
        );
    }
}

/// Every tier the current host can execute, best first. `Scalar` is always
/// present (and always last), so the parity suites can iterate this to hold
/// each tier to the one rule.
pub fn available_kernels() -> Vec<Kernel> {
    [Kernel::Avx512, Kernel::Avx2, Kernel::Scalar]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// Process-wide dispatch decision, made once on first use.
static ACTIVE: OnceLock<Kernel> = OnceLock::new();

fn detect_kernel() -> Kernel {
    if let Ok(name) = std::env::var("FEDCA_FORCE_KERNEL") {
        let k = Kernel::from_name(name.trim()).unwrap_or_else(|| {
            panic!("FEDCA_FORCE_KERNEL={name:?}: expected scalar, avx2 or avx512")
        });
        assert!(
            k.is_available(),
            "FEDCA_FORCE_KERNEL={} but that tier is unavailable on this host",
            k.name()
        );
        return k;
    }
    available_kernels()[0]
}

/// The tier every implicit-dispatch entry point uses, latched on first call:
/// the `FEDCA_FORCE_KERNEL` override if set, else the best available tier.
pub fn active_kernel() -> Kernel {
    *ACTIVE.get_or_init(detect_kernel)
}

/// Instantiates a `const R`-generic tile for a runtime row count, up to
/// the tile height named first (6 or 12).
macro_rules! with_rows {
    (6, $rows:expr, $tile:ident, $($arg:expr),*) => {
        match $rows {
            1 => $tile::<1>($($arg),*),
            2 => $tile::<2>($($arg),*),
            3 => $tile::<3>($($arg),*),
            4 => $tile::<4>($($arg),*),
            5 => $tile::<5>($($arg),*),
            _ => $tile::<6>($($arg),*),
        }
    };
    (12, $rows:expr, $tile:ident, $($arg:expr),*) => {
        match $rows {
            1..=6 => with_rows!(6, $rows, $tile, $($arg),*),
            7 => $tile::<7>($($arg),*),
            8 => $tile::<8>($($arg),*),
            9 => $tile::<9>($($arg),*),
            10 => $tile::<10>($($arg),*),
            11 => $tile::<11>($($arg),*),
            _ => $tile::<12>($($arg),*),
        }
    };
}

/// `C += op(A) · op(B)` on the process-wide dispatch tier
/// ([`active_kernel`]).
///
/// Logical dims are `op(A): [m,k]`, `op(B): [k,n]`, `C: [m,n]`, all
/// row-major and densely packed. `trans_a` means A is *stored* `[k,m]`;
/// `trans_b` means B is *stored* `[n,k]`.
///
/// # Panics
/// Panics if a slice length does not match its logical dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm_cols_on(active_kernel(), trans_a, trans_b, m, n, k, a, b, c, 0..n);
}

/// [`gemm_acc`] on an explicit microkernel tier. Public so the parity suite
/// can compare every compiled tier in one process without touching the
/// latched dispatch state.
///
/// # Panics
/// Panics if a slice length does not match its logical dimensions, or if
/// `kernel` is unavailable on this host.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc_on(
    kernel: Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm_cols_on(kernel, trans_a, trans_b, m, n, k, a, b, c, 0..n);
}

/// `C[:, cols] += A · B[:, cols]` for untransposed, dense `A: [m,k]`,
/// `B: [k,n]`, `C: [m,n]`: [`gemm_acc`] over the output columns `cols` only.
/// Every element it writes is the element [`gemm_acc`] would write, so a
/// caller that produces B band by band (`Conv2d`'s im2col) can multiply
/// each band while it is still cache-hot.
///
/// # Panics
/// As [`gemm_acc`], and if `cols` does not lie within `0..n`.
pub fn gemm_acc_cols(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    cols: Range<usize>,
) {
    gemm_cols_on(active_kernel(), false, false, m, n, k, a, b, c, cols);
}

#[allow(clippy::too_many_arguments)]
fn gemm_cols_on(
    kernel: Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    cols: Range<usize>,
) {
    kernel.assert_available();
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm out length mismatch");
    assert!(cols.end <= n, "gemm column range outside the output");
    if m == 0 || k == 0 || cols.is_empty() {
        return;
    }
    // A is always read in place: element (i, p) sits at `i·a_rs + p·a_ps`.
    let (a_rs, a_ps) = if trans_a { (1, m) } else { (k, 1) };
    // B's stored row stride.
    let ld = if trans_b { k } else { n };
    let (max_rows, lanes) = kernel.tile();
    // `m` splits into equal-as-possible tiles of at most the tier's height:
    // no tile is padded and none is starved of accumulation chains.
    let tiles = m.div_ceil(max_rows);
    STRIP.with(|cell| {
        let strip = &mut *cell.borrow_mut();
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            // A transposed B is staged one strip at a time, so there the
            // strip is the block; a B read in place is walked in blocks of
            // `NB` columns so each row tile sweeps a run of C it can stream.
            let nb = if trans_b { lanes } else { NB };
            for jc in cols.clone().step_by(nb) {
                let block_end = cols.end.min(jc + nb);
                // A transposed strip is staged, and so is the block's
                // partial last strip if it has one (zero-padded), so every
                // tile loads full-width rows.
                let tail = (block_end - jc) % lanes;
                if trans_b || tail > 0 {
                    let nr = if trans_b { block_end - jc } else { tail };
                    stage_b_strip(
                        kernel,
                        strip,
                        lanes,
                        trans_b,
                        b,
                        ld,
                        p0,
                        kc,
                        block_end - nr,
                        nr,
                    );
                }
                let mut i0 = 0;
                for t in 0..tiles {
                    let rows = m / tiles + usize::from(t < m % tiles);
                    let at = &a[i0 * a_rs + p0 * a_ps..];
                    for j0 in (jc..block_end).step_by(lanes) {
                        let nr = lanes.min(block_end - j0);
                        let (bt, ldb) = if trans_b || nr < lanes {
                            (&strip[..], lanes)
                        } else {
                            // B's rows already run along n: read them in place.
                            (&b[p0 * n + j0..], n)
                        };
                        let ct = &mut c[i0 * n + j0..];
                        let s = Strides {
                            a_rs,
                            a_ps,
                            ldb,
                            ldc: n,
                        };
                        // The three bounds every tile relies on (its SAFETY contract).
                        assert!((rows - 1) * a_rs + (kc - 1) * a_ps < at.len());
                        assert!((kc - 1) * ldb + lanes <= bt.len());
                        assert!((rows - 1) * n + nr <= ct.len());
                        match kernel {
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: the availability assert confirmed avx512f at
                            // runtime; the asserts above are the tile's contract.
                            Kernel::Avx512 => unsafe {
                                with_rows!(12, rows, tile_avx512, kc, at, bt, ct, s, nr)
                            },
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: the availability assert confirmed avx2+fma at
                            // runtime; the asserts above are the tile's contract.
                            Kernel::Avx2 => unsafe {
                                with_rows!(6, rows, tile_avx2, kc, at, bt, ct, s, nr)
                            },
                            // SAFETY: bounds as above. (A tier whose arch is not
                            // compiled in was rejected by the availability assert.)
                            _ => unsafe { tile_scalar_rows(rows, kc, at, bt, ct, s, nr) },
                        }
                    }
                    i0 += rows;
                }
            }
        }
    });
}

/// How a tile's operands stride: A's row and depth steps, B's and C's row
/// steps (both run unit-stride along n).
#[derive(Clone, Copy)]
struct Strides {
    a_rs: usize,
    a_ps: usize,
    ldb: usize,
    ldc: usize,
}

/// [`tile_scalar`] for a runtime row count. Kept out of line: six inlined
/// instantiations in the driver's loop body slow every tier's dispatch.
///
/// # Safety
/// As [`tile_scalar`].
#[inline(never)]
unsafe fn tile_scalar_rows(
    rows: usize,
    kc: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    s: Strides,
    nr: usize,
) {
    with_rows!(6, rows, tile_scalar, kc, a, b, c, s, nr)
}

/// Portable tile, `R ≤ 4` rows × 8 columns: the module header's rule as
/// written — per element an even-depth and an odd-depth `mul_add` chain
/// over the depth block, summed and added into C once.
///
/// # Safety
/// `a`, `b`, `c` must satisfy the three bounds asserted by the driver.
#[inline(always)]
unsafe fn tile_scalar<const R: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    s: Strides,
    nr: usize,
) {
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut acc = [[[0.0f32; 8]; R]; 2];
    for p in 0..kc {
        let bv = *bp.add(p * s.ldb).cast::<[f32; 8]>();
        for (i, acc_row) in acc[p & 1].iter_mut().enumerate() {
            let av = *ap.add(i * s.a_rs + p * s.a_ps);
            for (x, &bj) in acc_row.iter_mut().zip(&bv) {
                *x = av.mul_add(bj, *x);
            }
        }
    }
    let [even, odd] = acc;
    for (i, (even_row, odd_row)) in even.iter().zip(&odd).enumerate() {
        for (j, (&e, &o)) in even_row[..nr].iter().zip(odd_row).enumerate() {
            *cp.add(i * s.ldc + j) += e + o;
        }
    }
}

/// AVX2+FMA tile, `R ≤ 6` rows × 16 columns (two `ymm` per row). Each
/// element keeps the rule's two FMA chains over the depth block — even
/// depths, then odd depths — which are summed and added into C once. With
/// sixteen `ymm` registers the chains run as two passes, so one pass holds
/// `2R ≤ 12` accumulators plus the two B vectors and one broadcast of A: no
/// spill, and `R < 6` simply instantiates fewer rows. The even sums wait in
/// memory while the odd pass runs. Columns past `nr` are masked out of the
/// update of C.
///
/// # Safety
/// Requires `avx2` and `fma`; `a`, `b`, `c` must satisfy the three bounds
/// asserted by the driver.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2<const R: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    s: Strides,
    nr: usize,
) {
    use std::arch::x86_64::*;
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let full = nr == 16;
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let masks = [
        _mm256_cmpgt_epi32(_mm256_set1_epi32(nr as i32), lane),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(nr as i32 - 8), lane),
    ];
    // The even chain's sums wait here while the odd chain runs.
    let mut even = [[0.0f32; 16]; R];
    for parity in 0..2 {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        let mut p = parity;
        while p < kc {
            let row = bp.add(p * s.ldb);
            let bv = [_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8))];
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*ap.add(i * s.a_rs + p * s.a_ps));
                acc_row[0] = _mm256_fmadd_ps(av, bv[0], acc_row[0]);
                acc_row[1] = _mm256_fmadd_ps(av, bv[1], acc_row[1]);
            }
            p += 2;
        }
        for (i, acc_row) in acc.iter().enumerate() {
            for (v, &x) in acc_row.iter().enumerate() {
                let held = even[i].as_mut_ptr().add(8 * v);
                if parity == 0 {
                    _mm256_storeu_ps(held, x);
                    continue;
                }
                let sum = _mm256_add_ps(_mm256_loadu_ps(held), x);
                let out = cp.add(i * s.ldc + 8 * v);
                if full {
                    _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), sum));
                } else {
                    let old = _mm256_maskload_ps(out, masks[v]);
                    _mm256_maskstore_ps(out, masks[v], _mm256_add_ps(old, sum));
                }
            }
        }
    }
}

/// AVX-512F tile, `R ≤ 12` rows × 16 columns (one `zmm` per row). With
/// thirty-two `zmm` registers both of the rule's chains stay in registers —
/// `2R ≤ 24` accumulators, each depth pair's two B rows, A broadcast from
/// memory by the FMA itself — so a depth block is one pass that advances the
/// even and the odd chain together; an odd `kc`'s last depth is even and
/// runs alone. Columns past `nr` are masked out of the update of C.
///
/// # Safety
/// Requires `avx512f`; `a`, `b`, `c` must satisfy the three bounds asserted
/// by the driver.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const R: usize>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    s: Strides,
    nr: usize,
) {
    use std::arch::x86_64::*;
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut even = [_mm512_setzero_ps(); R];
    let mut odd = [_mm512_setzero_ps(); R];
    let mut p = 0;
    while p + 1 < kc {
        let b0 = _mm512_loadu_ps(bp.add(p * s.ldb));
        let b1 = _mm512_loadu_ps(bp.add((p + 1) * s.ldb));
        for i in 0..R {
            let at = ap.add(i * s.a_rs + p * s.a_ps);
            even[i] = _mm512_fmadd_ps(_mm512_set1_ps(*at), b0, even[i]);
            odd[i] = _mm512_fmadd_ps(_mm512_set1_ps(*at.add(s.a_ps)), b1, odd[i]);
        }
        p += 2;
    }
    if p < kc {
        let b0 = _mm512_loadu_ps(bp.add(p * s.ldb));
        for (i, acc) in even.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(i * s.a_rs + p * s.a_ps));
            *acc = _mm512_fmadd_ps(av, b0, *acc);
        }
    }
    let live: __mmask16 = if nr >= 16 { !0 } else { (1 << nr) - 1 };
    // Every row of C is read before any is written: when `ldc < 16` a
    // row's 64-byte masked store overlaps the next row's load, which then
    // cannot be forwarded and waits for the store to retire (on Sapphire
    // Rapids, writing row by row made lstm's `128×8×16` `dW_ih` 1.5× slower
    // than the AVX2 tile).
    let old: [__m512; R] = std::array::from_fn(|i| _mm512_maskz_loadu_ps(live, cp.add(i * s.ldc)));
    for (i, ((&e, &o), &c0)) in even.iter().zip(&odd).zip(&old).enumerate() {
        _mm512_mask_storeu_ps(
            cp.add(i * s.ldc),
            live,
            _mm512_add_ps(c0, _mm512_add_ps(e, o)),
        );
    }
}

/// Copies depth `[p0, p0+kc)` × columns `[j0, j0+nr)` of B into `strip`,
/// depth-major at row stride `lanes` with the columns past `nr` zeroed — the
/// layout a tile reads. `ld` is B's stored row stride (`k` when transposed,
/// else `n`). Pure data movement, so no tier can change a bit here: a B
/// stored `[k,n]` is copied row by row; a B stored `[n,k]` is transposed,
/// the vector tiers in 8×8 AVX2 register blocks, the portable one in 4×4
/// blocks through a local array (four loads, a shuffle network, four
/// stores), and the edges element by element down each source row.
#[allow(clippy::too_many_arguments)]
fn stage_b_strip(
    kernel: Kernel,
    strip: &mut [f32],
    lanes: usize,
    trans_b: bool,
    b: &[f32],
    ld: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nr: usize,
) {
    let staged = strip[..kc * lanes].chunks_exact_mut(lanes);
    if !trans_b {
        for (p, row) in staged.enumerate() {
            row[..nr].copy_from_slice(&b[(p0 + p) * ld + j0..][..nr]);
            row[nr..].fill(0.0);
        }
        return;
    }
    if nr < lanes {
        staged.for_each(|row| row[nr..].fill(0.0));
    }
    let side = if kernel.has_avx2() { 8 } else { 4 };
    // Extent covered by whole blocks.
    let (jb, pb) = (nr - nr % side, kc - kc % side);
    for j in (0..jb).step_by(side) {
        for p in (0..pb).step_by(side) {
            let src = &b[(j0 + j) * ld + p0 + p..];
            let dst = &mut strip[p * lanes + j..];
            #[cfg(target_arch = "x86_64")]
            if kernel.has_avx2() {
                assert!(7 * ld + 8 <= src.len() && 7 * lanes + 8 <= dst.len());
                // SAFETY: the availability assert confirmed avx2; the assert
                // covers the eight 8-float rows read at stride `ld` and
                // written at stride `lanes`.
                unsafe { transpose_8x8_avx2(src.as_ptr(), ld, dst.as_mut_ptr(), lanes) };
                continue;
            }
            let block: [[f32; 4]; 4] =
                std::array::from_fn(|r| src[r * ld..r * ld + 4].try_into().expect("4 floats"));
            for d in 0..4 {
                let out = [block[0][d], block[1][d], block[2][d], block[3][d]];
                dst[d * lanes..d * lanes + 4].copy_from_slice(&out);
            }
        }
    }
    for j in 0..nr {
        let from = if j < jb { pb } else { 0 };
        let src = &b[(j0 + j) * ld + p0..][..kc];
        for (p, &v) in src.iter().enumerate().skip(from) {
            strip[p * lanes + j] = v;
        }
    }
}

/// `dst[c·ldd + r] = src[r·lds + c]` for an 8×8 block. Rows `r` and
/// `r + 4` are loaded as the two halves of one register, so two in-lane 4×4
/// transposes finish the job without a cross-lane shuffle.
///
/// # Safety
/// Requires `avx2`; `src` and `dst` must hold eight rows of eight floats at
/// strides `lds` / `ldd`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_8x8_avx2(src: *const f32, lds: usize, dst: *mut f32, ldd: usize) {
    use std::arch::x86_64::*;
    for half in 0..2 {
        // Columns 4·half.. of the block; `r[i]` = row i | row i + 4.
        let mut r = [_mm256_setzero_ps(); 4];
        for (i, row) in r.iter_mut().enumerate() {
            let lo = _mm_loadu_ps(src.add(i * lds + 4 * half));
            let hi = _mm_loadu_ps(src.add((i + 4) * lds + 4 * half));
            *row = _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi);
        }
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let out = dst.add(4 * half * ldd);
        _mm256_storeu_ps(out, _mm256_shuffle_ps::<0x44>(t0, t2));
        _mm256_storeu_ps(out.add(ldd), _mm256_shuffle_ps::<0xEE>(t0, t2));
        _mm256_storeu_ps(out.add(2 * ldd), _mm256_shuffle_ps::<0x44>(t1, t3));
        _mm256_storeu_ps(out.add(3 * ldd), _mm256_shuffle_ps::<0xEE>(t1, t3));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic values; exact in f32 products for short k.
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 17) as f32 - 8.0)
            .collect()
    }

    #[test]
    fn all_transpose_combos_match_naive() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (8, 4, 16), (13, 9, 21), (70, 41, 33)] {
            for &ta in &[false, true] {
                for &tb in &[false, true] {
                    let a = fill(m * k, 1);
                    let b = fill(k * n, 2);
                    let mut c = vec![0.0f32; m * n];
                    gemm_acc(ta, tb, m, n, k, &a, &b, &mut c);
                    let want = naive(ta, tb, m, n, k, &a, &b);
                    for (i, (&x, &y)) in c.iter().zip(want.iter()).enumerate() {
                        let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
                        assert!(
                            (x - y).abs() <= tol,
                            "({m},{n},{k}) ta={ta} tb={tb} [{i}]: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let (m, n, k) = (5, 6, 7);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut c = vec![1.0f32; m * n];
        gemm_acc(false, false, m, n, k, &a, &b, &mut c);
        let want = naive(false, false, m, n, k, &a, &b);
        for (&x, &y) in c.iter().zip(want.iter()) {
            assert!((x - (y + 1.0)).abs() <= 1e-3, "{x} vs {}", y + 1.0);
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c = vec![7.0f32; 6];
        gemm_acc(false, false, 2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, vec![7.0; 6]);
        gemm_acc(false, false, 0, 3, 2, &[], &[0.0; 6], &mut []);
    }

    #[test]
    #[should_panic(expected = "lhs length mismatch")]
    fn rejects_bad_lengths() {
        let mut c = vec![0.0f32; 4];
        gemm_acc(false, false, 2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    fn kernel_names_round_trip_and_scalar_is_always_available() {
        for k in [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512] {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("sse9"), None);
        let avail = available_kernels();
        assert_eq!(*avail.last().unwrap(), Kernel::Scalar);
        assert!(avail.iter().all(|k| k.is_available()));
    }

    #[test]
    fn every_available_tier_computes_the_portable_tiles_bits() {
        let (m, n, k) = (21, 14, 130);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut portable = vec![0.0f32; m * n];
        gemm_acc_on(Kernel::Scalar, false, false, m, n, k, &a, &b, &mut portable);
        for tier in available_kernels() {
            let mut c = vec![0.0f32; m * n];
            gemm_acc_on(tier, false, false, m, n, k, &a, &b, &mut c);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c), bits(&portable), "{}", tier.name());
        }
    }

    #[test]
    fn explicit_tier_entry_rejects_an_unavailable_tier() {
        let Some(missing) = [Kernel::Avx512, Kernel::Avx2]
            .into_iter()
            .find(|k| !k.is_available())
        else {
            return; // every tier runs on this host: nothing to reject
        };
        let refused = std::panic::catch_unwind(|| {
            let mut c = vec![0.0f32; 1];
            gemm_acc_on(missing, false, false, 1, 1, 1, &[1.0], &[1.0], &mut c);
        });
        assert!(refused.is_err(), "{} must be refused", missing.name());
        let refused = std::panic::catch_unwind(|| crate::dataplane::max_abs_on(missing, &[1.0]));
        assert!(
            refused.is_err(),
            "dataplane: {} must be refused",
            missing.name()
        );
    }

    #[test]
    fn both_vector_tiers_and_only_they_run_the_avx2_bodies() {
        // `simd` and most of `dataplane` (all but its four int8-path
        // kernels, and those for fields under 8 bits) have no AVX-512
        // bodies: under that tier they must take their AVX2 branch, not
        // fall back to the portable one, which computes the same bits and
        // so no parity suite can see.
        assert!(Kernel::Avx2.has_avx2());
        assert!(Kernel::Avx512.has_avx2());
        assert!(!Kernel::Scalar.has_avx2());
    }
}
