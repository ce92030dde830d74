//! The LSTM's elementwise hot loops: one definition of every output bit,
//! tiers choose width.
//!
//! The register-tiled GEMM ([`crate::gemm`]) removes most of the matrix-multiply
//! cost, which leaves the LSTM's per-gate `sigmoid`/`tanh` loop as the
//! dominant term of its iteration time (≈80k transcendentals per batch-16
//! iteration at the scaled shapes). This module owns exactly that loop and
//! its backward twin.
//!
//! # One rule
//!
//! `exp` is the classic Cephes-style polynomial (range-reduced by `log2 e`,
//! 6th-order minimax evaluated with fused multiply-adds, exponent
//! reassembled through the IEEE bit pattern); `sigmoid`, `tanh` and the
//! cell update are short fixed sequences of individually rounded ops around
//! it. It agrees with libm to a few ulps, and — unlike libm — every step is
//! correctly rounded wherever it runs, so the sequence has one answer.
//! `exp`, `sigmoid`, `tanh` and `cell_update` below **are** that
//! sequence, written once in portable Rust; the `avx2` module spells the
//! same sequence eight lanes at a time and sends what does not fill a
//! vector through the portable body (on the AVX-512 tier too, which widens
//! only the GEMM tile). The tests below hold every tier to
//! the portable bits, NaN, ±∞, −0.0 and both clamp edges included.
//! (Compiling the portable body under `avx2,fma` instead of keeping the
//! intrinsics does not vectorize the `floor`/exponent steps and costs
//! `lstm_fedavg` ~20 % — DESIGN §10.)
//!
//! [`lstm_cell_backward`] needs no intrinsics at all: mul/add/sub only, so
//! its AVX2 form is the portable loop compiled at a wider vector.

use crate::gemm::Kernel;

// Cephes exp constants (single precision).
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -87.336_55;
const LOG2EF: f32 = std::f32::consts::LOG2_E;
const C1: f32 = 0.693_359_4; // ln 2, high part
const C2: f32 = -2.121_944_4e-4; // ln 2, low part
const P0: f32 = 1.987_569_1e-4;
const P1: f32 = 1.398_199_9e-3;
const P2: f32 = 8.333_452e-3;
const P3: f32 = 4.166_579_5e-2;
const P4: f32 = 1.666_666_6e-1;
const P5: f32 = 5e-1;
/// |x| ≥ 10 comfortably rounds `tanh` to ±1 in f32; clamping there keeps
/// `2x` inside `exp`'s exact range.
const TANH_CLAMP: f32 = 10.0;

/// `x` clamped to `[lo, hi]` the way `_mm256_min_ps(x, hi)` then
/// `_mm256_max_ps(x, lo)` clamp it: a NaN goes to `hi` (`f32::clamp` would
/// keep it).
#[inline(always)]
fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    let x = if x < hi { x } else { hi };
    if x > lo {
        x
    } else {
        lo
    }
}

/// `e^x`, |rel err| ≲ 2e-7 over the clamped range.
#[inline(always)]
fn exp(x: f32) -> f32 {
    let x = clamp(x, EXP_LO, EXP_HI);
    // n = round(x / ln2) via floor(x·log2e + 0.5).
    let n = x.mul_add(LOG2EF, 0.5).floor();
    // r = x − n·ln2, split into high/low parts for extra precision.
    let r = (-n).mul_add(C2, (-n).mul_add(C1, x));
    // Minimax polynomial for e^r on [−ln2/2, ln2/2].
    let mut y = P0;
    for p in [P1, P2, P3, P4, P5] {
        y = y.mul_add(r, p);
    }
    let y = y.mul_add(r * r, r) + 1.0;
    // 2^n through the exponent field.
    y * f32::from_bits(((n as i32 + 0x7f) as u32) << 23)
}

/// σ(x) = 1 / (1 + e^{−x}).
#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(0.0 - x))
}

/// tanh(x) = 1 − 2/(e^{2x} + 1), clamped where it saturates in f32.
#[inline(always)]
fn tanh(x: f32) -> f32 {
    let x = clamp(x, -TANH_CLAMP, TANH_CLAMP);
    1.0 - 2.0 / (exp(x + x) + 1.0)
}

/// LSTM cell forward for one timestep of `c.len() / hdim` samples. `z` holds
/// the pre-activation rows `[i|f|g|o]` (each block `hdim` wide): activates
/// them into the gate buffers — `i,f,o ← σ(z)`, `g ← tanh(z)` — then
/// `c ← f⊙c_prev + i⊙g`, `tanh_c ← tanh(c)`, `h ← o⊙tanh_c`.
///
/// Every tier writes the bits of the portable body (module header).
///
/// # Panics
/// Panics if slice lengths disagree or `kernel` is unavailable on this host.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_forward(
    kernel: Kernel,
    hdim: usize,
    z: &[f32],
    c_prev: &[f32],
    i: &mut [f32],
    f: &mut [f32],
    g: &mut [f32],
    o: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    let n = c.len();
    assert!(
        z.len() == 4 * n
            && c_prev.len() == n
            && i.len() == n
            && f.len() == n
            && g.len() == n
            && o.len() == n
            && tanh_c.len() == n
            && h.len() == n
            && hdim > 0
            && n.is_multiple_of(hdim),
        "cell-forward slice lengths disagree"
    );
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the availability assert confirmed avx2+fma at runtime.
        unsafe { avx2::cell_forward(hdim, z, c_prev, i, f, g, o, c, tanh_c, h) };
        return;
    }
    cell_forward_rows(hdim, z, c_prev, i, f, g, o, c, tanh_c, h);
}

/// [`lstm_cell_forward`] written out one cell at a time.
#[allow(clippy::too_many_arguments)]
fn cell_forward_rows(
    hdim: usize,
    z: &[f32],
    c_prev: &[f32],
    i: &mut [f32],
    f: &mut [f32],
    g: &mut [f32],
    o: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    for at in 0..c.len() {
        let (row, k) = (&z[at / hdim * 4 * hdim..][..4 * hdim], at % hdim);
        i[at] = sigmoid(row[k]);
        f[at] = sigmoid(row[hdim + k]);
        g[at] = tanh(row[2 * hdim + k]);
        o[at] = sigmoid(row[3 * hdim + k]);
        (c[at], tanh_c[at], h[at]) = cell_update(i[at], f[at], g[at], o[at], c_prev[at]);
    }
}

/// `(c, tanh c, h)` of one cell from its gates and previous state.
#[inline(always)]
fn cell_update(i: f32, f: f32, g: f32, o: f32, c_prev: f32) -> (f32, f32, f32) {
    let c = f.mul_add(c_prev, i * g);
    let tanh_c = tanh(c);
    (c, tanh_c, o * tanh_c)
}

/// Elementwise LSTM cell backward for one timestep of `dz.len() / (4·hdim)`
/// samples: from the gradient `dh` on `h_t` and the carried `dc`, writes the
/// gate pre-activation gradients into `dz` (rows `[di|df|dg|do]`, each block
/// `hdim` wide) and leaves `dc` holding the gradient on `c_{t−1}`.
///
/// The body is mul/add/sub only — no FMA, no transcendental — so the copy
/// compiled for the AVX2 tier (8 lanes) and the portable one produce the
/// same bits, and `kernel` only picks the faster of the two.
///
/// # Panics
/// Panics if slice lengths disagree or `kernel` is unavailable on this host.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_backward(
    kernel: Kernel,
    hdim: usize,
    dh: &[f32],
    dc: &mut [f32],
    i: &[f32],
    f: &[f32],
    g: &[f32],
    o: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dz: &mut [f32],
) {
    let n = dh.len();
    assert!(
        dc.len() == n
            && i.len() == n
            && f.len() == n
            && g.len() == n
            && o.len() == n
            && tanh_c.len() == n
            && c_prev.len() == n
            && dz.len() == 4 * n
            && hdim > 0
            && n.is_multiple_of(hdim),
        "cell-backward slice lengths disagree"
    );
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the availability assert confirmed avx2 at runtime, which
        // is all the callee — the safe body below, compiled for avx2 —
        // requires.
        unsafe { avx2::cell_backward(hdim, dh, dc, i, f, g, o, tanh_c, c_prev, dz) };
        return;
    }
    cell_backward_rows(hdim, dh, dc, i, f, g, o, tanh_c, c_prev, dz);
}

/// The one body of [`lstm_cell_backward`], inlined into a portable and an
/// AVX2-compiled caller. Every expression is written out in the order the
/// scalar BPTT loop always used; Rust never contracts `a * b + c` into an
/// FMA, so vector width is the only thing the two compilations differ in.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cell_backward_rows(
    hdim: usize,
    dh: &[f32],
    dc: &mut [f32],
    i: &[f32],
    f: &[f32],
    g: &[f32],
    o: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dz: &mut [f32],
) {
    for (s, dz_row) in dz.chunks_exact_mut(4 * hdim).enumerate() {
        let at = s * hdim..(s + 1) * hdim;
        let (dh, dc) = (&dh[at.clone()], &mut dc[at.clone()]);
        let (i, f, g, o) = (
            &i[at.clone()],
            &f[at.clone()],
            &g[at.clone()],
            &o[at.clone()],
        );
        let (tanh_c, c_prev) = (&tanh_c[at.clone()], &c_prev[at]);
        let (dzi, rest) = dz_row.split_at_mut(hdim);
        let (dzf, rest) = rest.split_at_mut(hdim);
        let (dzg, dzo) = rest.split_at_mut(hdim);
        for k in 0..hdim {
            let tc = tanh_c[k];
            let d_o = dh[k] * tc;
            let dct = dc[k] + dh[k] * o[k] * (1.0 - tc * tc);
            let (di, df, dg) = (dct * g[k], dct * c_prev[k], dct * i[k]);
            dc[k] = dct * f[k]; // becomes dc_{t-1}
            dzi[k] = di * i[k] * (1.0 - i[k]);
            dzf[k] = df * f[k] * (1.0 - f[k]);
            dzg[k] = dg * (1.0 - g[k] * g[k]);
            dzo[k] = d_o * o[k] * (1.0 - o[k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// [`super::exp`] for one lane group.
    #[inline(always)]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        // n = round(x / ln2) via floor(x·log2e + 0.5).
        let fx = _mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5));
        let n = _mm256_floor_ps(fx);
        // r = x − n·ln2, split into high/low parts for extra precision.
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C1), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C2), r);
        // Minimax polynomial for e^r on [−ln2/2, ln2/2].
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P5));
        let r2 = _mm256_mul_ps(r, r);
        y = _mm256_fmadd_ps(y, r2, r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // 2^n through the exponent field.
        let exp_bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(0x7f),
        ));
        _mm256_mul_ps(y, _mm256_castsi256_ps(exp_bits))
    }

    /// [`super::sigmoid`] for one lane group.
    #[inline(always)]
    unsafe fn sigmoid_ps(x: __m256) -> __m256 {
        let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
        _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e))
    }

    /// [`super::tanh`] for one lane group.
    #[inline(always)]
    unsafe fn tanh_ps(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(TANH_CLAMP));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-TANH_CLAMP));
        let e2x = exp_ps(_mm256_add_ps(x, x));
        let two = _mm256_set1_ps(2.0);
        _mm256_sub_ps(
            _mm256_set1_ps(1.0),
            _mm256_div_ps(two, _mm256_add_ps(e2x, _mm256_set1_ps(1.0))),
        )
    }

    /// `out ← σ(x)` (or `tanh(x)`): whole vectors here, the rest through the
    /// portable function.
    ///
    /// # Safety
    /// Requires `avx2` and `fma`.
    #[inline(always)]
    unsafe fn activate<const TANH: bool>(x: &[f32], out: &mut [f32]) {
        let out = &mut out[..x.len()];
        let whole = x.len() - x.len() % 8;
        for p in (0..whole).step_by(8) {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            let y = if TANH { tanh_ps(v) } else { sigmoid_ps(v) };
            _mm256_storeu_ps(out.as_mut_ptr().add(p), y);
        }
        for p in whole..x.len() {
            out[p] = if TANH { tanh(x[p]) } else { sigmoid(x[p]) };
        }
    }

    /// [`super::cell_forward_rows`] eight lanes at a time: each row's four
    /// gate blocks, then the cell update over the whole step.
    ///
    /// # Safety
    /// Requires `avx2` and `fma`; slice lengths as asserted by
    /// [`super::lstm_cell_forward`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn cell_forward(
        hdim: usize,
        z: &[f32],
        c_prev: &[f32],
        i: &mut [f32],
        f: &mut [f32],
        g: &mut [f32],
        o: &mut [f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        for (s, row) in z.chunks_exact(4 * hdim).enumerate() {
            let at = s * hdim..(s + 1) * hdim;
            activate::<false>(&row[..hdim], &mut i[at.clone()]);
            activate::<false>(&row[hdim..2 * hdim], &mut f[at.clone()]);
            activate::<true>(&row[2 * hdim..3 * hdim], &mut g[at.clone()]);
            activate::<false>(&row[3 * hdim..], &mut o[at]);
        }
        let n = c.len();
        let whole = n - n % 8;
        for p in (0..whole).step_by(8) {
            let iv = _mm256_loadu_ps(i.as_ptr().add(p));
            let fv = _mm256_loadu_ps(f.as_ptr().add(p));
            let gv = _mm256_loadu_ps(g.as_ptr().add(p));
            let ov = _mm256_loadu_ps(o.as_ptr().add(p));
            let cp = _mm256_loadu_ps(c_prev.as_ptr().add(p));
            let cv = _mm256_fmadd_ps(fv, cp, _mm256_mul_ps(iv, gv));
            _mm256_storeu_ps(c.as_mut_ptr().add(p), cv);
            let tc = tanh_ps(cv);
            _mm256_storeu_ps(tanh_c.as_mut_ptr().add(p), tc);
            _mm256_storeu_ps(h.as_mut_ptr().add(p), _mm256_mul_ps(ov, tc));
        }
        for p in whole..n {
            (c[p], tanh_c[p], h[p]) = cell_update(i[p], f[p], g[p], o[p], c_prev[p]);
        }
    }

    /// [`super::cell_backward_rows`] compiled 8 lanes wide.
    ///
    /// # Safety
    /// Requires `avx2`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn cell_backward(
        hdim: usize,
        dh: &[f32],
        dc: &mut [f32],
        i: &[f32],
        f: &[f32],
        g: &[f32],
        o: &[f32],
        tanh_c: &[f32],
        c_prev: &[f32],
        dz: &mut [f32],
    ) {
        cell_backward_rows(hdim, dh, dc, i, f, g, o, tanh_c, c_prev, dz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::available_kernels;

    /// `[i, f, g, o, c, tanh_c, h]` of one [`lstm_cell_forward`] on `tier`.
    fn forward(tier: Kernel, hdim: usize, z: &[f32], c_prev: &[f32]) -> [Vec<f32>; 7] {
        let mut out: [Vec<f32>; 7] = std::array::from_fn(|_| vec![f32::NAN; c_prev.len()]);
        let [i, f, g, o, c, tanh_c, h] = &mut out;
        lstm_cell_forward(tier, hdim, z, c_prev, i, f, g, o, c, tanh_c, h);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gates_match_libm_closely() {
        let hdim = 13; // odd width: a whole vector and a remainder
        let z: Vec<f32> = (0..4 * hdim)
            .map(|k| ((k as f32) * 0.37 - 9.5).sin() * 6.0)
            .collect();
        for tier in available_kernels() {
            let [i, f, g, o, ..] = forward(tier, hdim, &z, &vec![0.0; hdim]);
            for k in 0..hdim {
                let sig = |x: f32| 1.0 / (1.0 + (-x).exp());
                assert!((i[k] - sig(z[k])).abs() < 1e-6, "i[{k}]");
                assert!((f[k] - sig(z[hdim + k])).abs() < 1e-6, "f[{k}]");
                assert!((g[k] - z[2 * hdim + k].tanh()).abs() < 1e-6, "g[{k}]");
                assert!((o[k] - sig(z[3 * hdim + k])).abs() < 1e-6, "o[{k}]");
            }
        }
    }

    #[test]
    fn vector_cell_update_matches_scalar_formula() {
        let n = 19;
        let v = |s: f32| -> Vec<f32> { (0..n).map(|k| ((k as f32) + s).cos()).collect() };
        let (z, cp) = ([v(0.1), v(0.2), v(0.3), v(0.4)].concat(), v(0.5));
        for tier in available_kernels() {
            let [i, f, g, o, c, tc, h] = forward(tier, n, &z, &cp);
            for k in 0..n {
                // Every cell, wherever it sits in a vector or past the last.
                let gates = [sigmoid(z[k]), sigmoid(z[n + k]), tanh(z[2 * n + k])];
                assert_eq!(bits(&[i[k], f[k], g[k]]), bits(&gates), "{k}");
                assert_eq!(o[k].to_bits(), sigmoid(z[3 * n + k]).to_bits(), "{k}");
                let cv = f[k].mul_add(cp[k], i[k] * g[k]);
                let want = [cv, tanh(cv), o[k] * tanh(cv)];
                assert_eq!(bits(&[c[k], tc[k], h[k]]), bits(&want), "{k}");
                assert!((tc[k] - cv.tanh()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn every_tier_equals_the_portable_body_bit_for_bit() {
        // NaN, ±∞, ±0, both clamps of `exp` and of `tanh` (as x, as −x, as
        // 2x) with their neighbours, and the subnormal edge.
        let mut edges = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for x in [
            EXP_HI,
            EXP_LO,
            EXP_HI / 2.0,
            EXP_LO / 2.0,
            TANH_CLAMP,
            120.0,
        ] {
            for x in [x, -x] {
                let step = |d: i32| f32::from_bits((x.to_bits() as i32 + d) as u32);
                edges.extend([step(-1), x, step(1)]);
            }
        }
        edges.extend([f32::MIN_POSITIVE, -1e-40, 1e-8]);
        for (rows, hdim) in [(3, 1), (3, 5), (2, 13), (4, 19), (8, 512)] {
            let n = rows * hdim;
            // Edges land on every gate and lane position as the sweep slides.
            let sweep = |len: usize, phase: usize| -> Vec<f32> {
                (0..len)
                    .map(|k| match (k + phase) % 3 {
                        0 => edges[(k / 3 + phase) % edges.len()],
                        _ => ((k as f32) * 0.61 + phase as f32).sin() * 12.0,
                    })
                    .collect()
            };
            for phase in 0..3 {
                let (z, cp) = (sweep(4 * n, phase), sweep(n, phase + 1));
                let want = forward(Kernel::Scalar, hdim, &z, &cp);
                for tier in available_kernels() {
                    let got = forward(tier, hdim, &z, &cp);
                    for (name, (got, want)) in "ifgocth".chars().zip(got.iter().zip(&want)) {
                        let ctx = format!("{} {rows}x{hdim} phase {phase}: {name}", tier.name());
                        assert_eq!(bits(got), bits(want), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_backward_is_bit_identical_on_every_tier() {
        // Odd widths: whole vectors, a remainder, and fewer lanes than one.
        for (rows, hdim) in [(1, 1), (3, 5), (2, 13), (4, 19), (16, 32)] {
            let n = rows * hdim;
            let v = |s: f32| -> Vec<f32> { (0..n).map(|k| ((k as f32) * 0.7 + s).sin()).collect() };
            let (dh, dc0) = (v(0.1), v(0.2));
            let (i, f, g, o, tc, cp) = (v(0.3), v(0.4), v(0.5), v(0.6), v(0.7), v(0.8));
            // The loop written out the slow way, one cell at a time.
            let (mut dc_ref, mut dz_ref) = (dc0.clone(), vec![0.0f32; 4 * n]);
            for idx in 0..n {
                let d_o = dh[idx] * tc[idx];
                let dct = dc_ref[idx] + dh[idx] * o[idx] * (1.0 - tc[idx] * tc[idx]);
                dc_ref[idx] = dct * f[idx];
                let row = &mut dz_ref[idx / hdim * 4 * hdim..][..4 * hdim];
                let k = idx % hdim;
                row[k] = dct * g[idx] * i[idx] * (1.0 - i[idx]);
                row[hdim + k] = dct * cp[idx] * f[idx] * (1.0 - f[idx]);
                row[2 * hdim + k] = dct * i[idx] * (1.0 - g[idx] * g[idx]);
                row[3 * hdim + k] = d_o * o[idx] * (1.0 - o[idx]);
            }
            let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            for tier in available_kernels() {
                let (mut dc, mut dz) = (dc0.clone(), vec![f32::NAN; 4 * n]);
                lstm_cell_backward(tier, hdim, &dh, &mut dc, &i, &f, &g, &o, &tc, &cp, &mut dz);
                let ctx = format!("{} {rows}x{hdim}", tier.name());
                assert_eq!(bits(&dz), bits(&dz_ref), "{ctx}: dz");
                assert_eq!(bits(&dc), bits(&dc_ref), "{ctx}: dc");
            }
        }
    }

    #[test]
    fn transcendentals_saturate_cleanly_at_the_extremes() {
        let hdim = 8;
        let mut z = vec![0.0f32; 4 * hdim];
        for k in 0..hdim {
            z[k] = 120.0; // σ → 1
            z[hdim + k] = -120.0; // σ → 0
            z[2 * hdim + k] = if k % 2 == 0 { 40.0 } else { -40.0 }; // tanh → ±1
            z[3 * hdim + k] = 0.0; // σ → 0.5
        }
        for tier in available_kernels() {
            let [i, f, g, o, ..] = forward(tier, hdim, &z, &vec![0.0; hdim]);
            for k in 0..hdim {
                assert_eq!(i[k], 1.0);
                // exp clamps rather than overflowing, so σ(−120) is a
                // subnormal whisker above zero instead of exactly 0.0.
                assert!(f[k] >= 0.0 && f[k] < 1e-30, "f[{k}] = {}", f[k]);
                assert_eq!(g[k], if k % 2 == 0 { 1.0 } else { -1.0 });
                assert_eq!(o[k], 0.5);
                assert!(i[k].is_finite() && g[k].is_finite());
            }
        }
    }
}
