//! Tier-dispatched server data-plane kernels: scale scans, deterministic
//! level quantization, wire bit-packing, the packed-bytes dequantizer every
//! decode goes through, AXPY, and the fused dequantize-accumulate the
//! aggregator folds quantized uploads with.
//!
//! These are the elementwise/integer kernels behind `compress::quantize`,
//! `compress::wire`, and the coordinator's streaming fold. They share the
//! GEMM's dispatch ([`crate::gemm::active_kernel`], `FEDCA_FORCE_KERNEL`)
//! and the crate's one contract: **one rule per kernel, tiers choose
//! width**. Each output element is a short, fixed sequence of individually
//! rounded ops; the `scalar` module is that sequence written out and every
//! other tier reproduces its bits exactly:
//!
//! * `max_abs` maxes non-negative floats — exact, order-free — and both
//!   paths ignore NaN inputs (`f32::max` returns the other operand on NaN;
//!   the vector loops keep the accumulator in `maxps`'s NaN-losing slot).
//! * `quantize_levels` rounds half away from zero like `f32::round`. The
//!   vector tiers compute round-to-nearest-even and then bump exact halves
//!   by `copysign(1, t)`; the `t − rte` probe is exact (Sterbenz), so the
//!   bump fires precisely on the ties. NaN survives the signed clamp (limit
//!   operands first) and converts to level 0, matching scalar `NaN as i8`.
//! * The decode is `level / num_levels · scale`. The scalar tier divides;
//!   the vector tiers compute the same quotient without a division: with
//!   `r = RN(1/L)` and `q = RN(level · r)`, one `fnmadd` gives the residual
//!   `level − q·L` and one `fmadd` gives `q + residual · r`. That equals the
//!   correctly rounded `level / L` for every level in −128..=127 and every
//!   `L` in 1..=255 — the whole domain an 8-bit field decodes to, which
//!   `dataplane_parity` checks exhaustively against the scalar division
//!   (`L = 0` panics on every tier: there the division gives ±inf/NaN and
//!   the correction NaN). The FMAs compute the
//!   quotient only; `· scale` and the accumulation stay separate roundings.
//! * `axpy` and the fused `axpy_quantized` are mul-then-add — this rule has
//!   no FMA, unlike the GEMM's — because `y + alpha * x` rounds the product
//!   before the sum.
//! * Bit-packing is pure integer shuffling; eight `width`-bit fields always
//!   span exactly `width` bytes, which is what the one u64-blocked packer,
//!   the same on every tier, and the vector decoders exploit.
//!
//! The AVX-512 tier has 512-bit bodies for the int8 upload path: the scale
//! scan (four independent 16-lane chains), the quantizer, and the decoder
//! and fused fold on 8-bit fields (16 bytes sign-extended per step). They
//! use AVX-512F alone — the one feature `Kernel::Avx512` checks — so the
//! float sign masks run as integer and/or. Narrower fields and `axpy` run
//! their AVX2 bodies under that tier. Every
//! other target runs the scalar path, which is free precisely because the
//! contract is bit-identity.

use crate::gemm::{active_kernel, Kernel};

/// Number of bytes `n` fields of `width` bits pack into.
pub fn packed_len(n: usize, width: u32) -> usize {
    (n as u64 * width as u64).div_ceil(8) as usize
}

/// Max of `|x_i|` over the slice, `0.0` when empty. NaN elements are
/// ignored (as `f32::max` does); the result is NaN-free and non-negative.
///
/// # Panics
/// Panics if `kernel` is unavailable on this host.
pub fn max_abs_on(kernel: Kernel, x: &[f32]) -> f32 {
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx512 {
        // SAFETY: the assert above confirmed avx512f, avx2 and fma at
        // runtime (`Kernel::is_available`).
        return unsafe { avx512::max_abs(x) };
    }
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the assert above confirmed avx2 and fma at runtime.
        return unsafe { avx2::max_abs(x) };
    }
    let _ = kernel;
    scalar::max_abs(x)
}

/// [`max_abs_on`] with the process-wide dispatched tier.
pub fn max_abs(x: &[f32]) -> f32 {
    max_abs_on(active_kernel(), x)
}

/// Deterministic round-to-nearest levels: `out[i] = round(x[i] / scale ·
/// num_levels)` clamped to `[-num_levels, num_levels]`, rounding half away
/// from zero exactly like `f32::round`.
///
/// # Panics
/// Panics if the slices differ in length, `scale == 0` (callers handle
/// the zero-vector case by emitting all-zero levels), `num_levels` is 0 or
/// above 127 (a level must fit `i8`: the scalar cast saturates where the
/// vector stores truncate) or `kernel` is unavailable on this host.
pub fn quantize_levels_on(kernel: Kernel, x: &[f32], scale: f32, num_levels: u8, out: &mut [i8]) {
    assert_eq!(x.len(), out.len(), "quantize_levels: length mismatch");
    assert!(scale != 0.0, "quantize_levels: zero scale");
    assert!(num_levels != 0, "quantize_levels: zero num_levels");
    assert!(num_levels <= 127, "quantize_levels: num_levels above 127");
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx512 {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx512::quantize_levels(x, scale, num_levels, out) };
    }
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx2::quantize_levels(x, scale, num_levels, out) };
    }
    let _ = kernel;
    scalar::quantize_levels(x, scale, num_levels, out)
}

/// [`quantize_levels_on`] with the process-wide dispatched tier.
pub fn quantize_levels(x: &[f32], scale: f32, num_levels: u8, out: &mut [i8]) {
    quantize_levels_on(active_kernel(), x, scale, num_levels, out)
}

/// Bit-packs signed levels as offset-binary (`level + num_levels`) fields
/// of `width` bits, little-endian bit order — the `compress::wire` layout.
/// One portable body on every tier: eight `width`-bit fields are always
/// exactly `width` bytes, so whole groups assemble into one u64 word with
/// three shifts per field, and the scalar loop packs the tail. Its bytes
/// are the scalar loop's (a unit test holds it to them).
///
/// Levels must lie in `[-num_levels, num_levels]` (the quantizers
/// guarantee it); out-of-range levels would overflow their field.
///
/// # Panics
/// Panics if `width` is outside `[1, 8]` or `out` is not exactly
/// [`packed_len`] bytes.
pub fn pack_levels(levels: &[i8], num_levels: u8, width: u32, out: &mut [u8]) {
    assert!((1..=8).contains(&width), "pack_levels: width out of range");
    assert_eq!(
        out.len(),
        packed_len(levels.len(), width),
        "pack_levels: output length mismatch"
    );
    if width == 8 {
        // One field per byte (the Int8 upload): no shifting at all.
        for (o, &lev) in out.iter_mut().zip(levels) {
            *o = (lev as i16 + num_levels as i16) as u8;
        }
        return;
    }
    let n = levels.len();
    let wbytes = width as usize;
    let mut g = 0usize;
    // Whole groups of 8, while an 8-byte store fits: bytes past the
    // group's `width` are zero and get overwritten by the next write.
    while (g + 1) * 8 <= n && g * wbytes + 8 <= out.len() {
        let mut word = 0u64;
        for (j, &lev) in levels[g * 8..g * 8 + 8].iter().enumerate() {
            let u = (lev as i16 + num_levels as i16) as u32 as u64;
            word |= u << (j as u32 * width);
        }
        out[g * wbytes..g * wbytes + 8].copy_from_slice(&word.to_le_bytes());
        g += 1;
    }
    // Scalar tail from the (byte-aligned) group boundary.
    scalar::pack_levels(&levels[g * 8..], num_levels, width, &mut out[g * wbytes..]);
}

/// Inverse of [`pack_levels`]: extracts `out.len()` offset-binary fields
/// and recenters them to signed levels. Arbitrary (even malformed) packed
/// bytes decode deterministically: the field value is truncated to `i8`
/// exactly as the scalar `as i8` cast does. One scalar body: its only
/// caller is the owned, test-facing `wire::decode` (the product decodes
/// with [`dequantize_packed`] and folds with [`axpy_quantized`]).
///
/// # Panics
/// Panics if `width` is outside `[1, 8]` or `packed` is shorter than
/// [`packed_len`] bytes.
pub fn unpack_levels(packed: &[u8], num_levels: u8, width: u32, out: &mut [i8]) {
    assert!(
        (1..=8).contains(&width),
        "unpack_levels: width out of range"
    );
    assert!(
        packed.len() >= packed_len(out.len(), width),
        "unpack_levels: packed buffer too short"
    );
    scalar::unpack_levels(packed, num_levels, width, out)
}

/// Dequantizes straight from packed wire bytes, skipping the widened `i8`
/// intermediate: `out[i] = unpack(i) / num_levels · scale`.
///
/// # Panics
/// Panics if `width` is outside `[1, 8]`, `num_levels == 0` (the vector
/// tiers' division-free quotient equals the division only for
/// `num_levels ≥ 1`; see the module header), `packed` is shorter than
/// [`packed_len`] bytes or `kernel` is unavailable on this host.
pub fn dequantize_packed_on(
    kernel: Kernel,
    packed: &[u8],
    scale: f32,
    num_levels: u8,
    width: u32,
    out: &mut [f32],
) {
    assert!(
        (1..=8).contains(&width),
        "dequantize_packed: width out of range"
    );
    assert!(num_levels != 0, "dequantize_packed: zero num_levels");
    assert!(
        packed.len() >= packed_len(out.len(), width),
        "dequantize_packed: packed buffer too short"
    );
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx512 {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx512::dequantize_packed(packed, scale, num_levels, width, out) };
    }
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx2::dequantize_packed(packed, scale, num_levels, width, out) };
    }
    let _ = kernel;
    scalar::dequantize_packed(packed, scale, num_levels, width, out)
}

/// [`dequantize_packed_on`] with the process-wide dispatched tier.
pub fn dequantize_packed(packed: &[u8], scale: f32, num_levels: u8, width: u32, out: &mut [f32]) {
    dequantize_packed_on(active_kernel(), packed, scale, num_levels, width, out)
}

/// `y += alpha * x`, mul-then-add per element (bit-identical across tiers).
///
/// # Panics
/// Panics if the slices differ in length or `kernel` is unavailable on
/// this host.
pub fn axpy_on(kernel: Kernel, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx2::axpy(alpha, x, y) };
    }
    let _ = kernel;
    scalar::axpy(alpha, x, y)
}

/// [`axpy_on`] with the process-wide dispatched tier.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_on(active_kernel(), alpha, x, y)
}

/// The fused data-plane headline: unpacks `width`-bit offset-binary fields,
/// dequantizes (`level / num_levels · scale`), and accumulates
/// `y[i] += alpha * value` in one pass — no widened level buffer, no dense
/// intermediate. Bit-identical to `unpack → dequantize → axpy`.
///
/// # Panics
/// Panics if `width` is outside `[1, 8]`, `num_levels == 0` (as
/// [`dequantize_packed_on`]), `packed` is shorter than [`packed_len`]
/// bytes for `y.len()` fields or `kernel` is unavailable on this host.
pub fn axpy_quantized_on(
    kernel: Kernel,
    alpha: f32,
    scale: f32,
    num_levels: u8,
    width: u32,
    packed: &[u8],
    y: &mut [f32],
) {
    assert!(
        (1..=8).contains(&width),
        "axpy_quantized: width out of range"
    );
    assert!(num_levels != 0, "axpy_quantized: zero num_levels");
    assert!(
        packed.len() >= packed_len(y.len(), width),
        "axpy_quantized: packed buffer too short"
    );
    kernel.assert_available();
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx512 {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx512::axpy_quantized(alpha, scale, num_levels, width, packed, y) };
    }
    #[cfg(target_arch = "x86_64")]
    if kernel.has_avx2() {
        // SAFETY: the availability assert above (see `max_abs_on`).
        return unsafe { avx2::axpy_quantized(alpha, scale, num_levels, width, packed, y) };
    }
    let _ = kernel;
    scalar::axpy_quantized(alpha, scale, num_levels, width, packed, y)
}

/// [`axpy_quantized_on`] with the process-wide dispatched tier.
pub fn axpy_quantized(
    alpha: f32,
    scale: f32,
    num_levels: u8,
    width: u32,
    packed: &[u8],
    y: &mut [f32],
) {
    axpy_quantized_on(active_kernel(), alpha, scale, num_levels, width, packed, y)
}

/// Scalar reference tier. Every vector tier is tested bit-identical to
/// these loops, and the wire codec's byte layout is defined by them.
mod scalar {
    pub fn max_abs(x: &[f32]) -> f32 {
        x.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    pub fn quantize_levels(x: &[f32], scale: f32, num_levels: u8, out: &mut [i8]) {
        let l = num_levels as f32;
        for (o, &v) in out.iter_mut().zip(x) {
            let t = v / scale * l;
            *o = t.round().clamp(-l, l) as i8;
        }
    }

    pub fn pack_levels(levels: &[i8], num_levels: u8, width: u32, out: &mut [u8]) {
        let mut acc: u32 = 0;
        let mut nbits: u32 = 0;
        let mut w = 0usize;
        for &lev in levels {
            let u = (lev as i16 + num_levels as i16) as u32;
            acc |= u << nbits;
            nbits += width;
            while nbits >= 8 {
                out[w] = (acc & 0xFF) as u8;
                w += 1;
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out[w] = (acc & 0xFF) as u8;
        }
    }

    pub fn unpack_levels(packed: &[u8], num_levels: u8, width: u32, out: &mut [i8]) {
        let mask: u32 = (1 << width) - 1;
        let mut acc: u32 = 0;
        let mut nbits: u32 = 0;
        let mut r = 0usize;
        for o in out.iter_mut() {
            while nbits < width {
                acc |= (packed[r] as u32) << nbits;
                r += 1;
                nbits += 8;
            }
            let u = acc & mask;
            acc >>= width;
            nbits -= width;
            *o = (u as i16 - num_levels as i16) as i8;
        }
    }

    pub fn dequantize_packed(
        packed: &[u8],
        scale: f32,
        num_levels: u8,
        width: u32,
        out: &mut [f32],
    ) {
        let l = num_levels as f32;
        let mask: u32 = (1 << width) - 1;
        let (mut acc, mut nbits, mut r) = (0u32, 0u32, 0usize);
        for o in out.iter_mut() {
            while nbits < width {
                acc |= (packed[r] as u32) << nbits;
                r += 1;
                nbits += 8;
            }
            let lev = ((acc & mask) as i16 - num_levels as i16) as i8;
            acc >>= width;
            nbits -= width;
            *o = lev as f32 / l * scale;
        }
    }

    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    pub fn axpy_quantized(
        alpha: f32,
        scale: f32,
        num_levels: u8,
        width: u32,
        packed: &[u8],
        y: &mut [f32],
    ) {
        let l = num_levels as f32;
        let mask: u32 = (1 << width) - 1;
        let (mut acc, mut nbits, mut r) = (0u32, 0u32, 0usize);
        for yi in y.iter_mut() {
            while nbits < width {
                acc |= (packed[r] as u32) << nbits;
                r += 1;
                nbits += 8;
            }
            let lev = ((acc & mask) as i16 - num_levels as i16) as i8;
            acc >>= width;
            nbits -= width;
            *yi += alpha * (lev as f32 / l * scale);
        }
    }
}

/// # Safety
/// Every `pub unsafe fn` here needs avx2 and fma on the running CPU; the
/// dispatchers above check it with `Kernel::assert_available`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Shuffle control gathering the low byte of each 32-bit lane into the
    /// first four bytes of its 128-bit half — the truncating i32→i8 cast.
    #[inline(always)]
    unsafe fn low_byte_ctrl() -> __m256i {
        _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        )
    }

    /// Stores the low byte of each of the eight i32 lanes to `dst`.
    #[inline(always)]
    unsafe fn store_low_bytes(iv: __m256i, dst: *mut i8) {
        let bytes = _mm256_shuffle_epi8(iv, low_byte_ctrl());
        let lo = _mm256_castsi256_si128(bytes);
        let hi = _mm256_extracti128_si256::<1>(bytes);
        let merged = _mm_unpacklo_epi32(lo, hi);
        _mm_storel_epi64(dst as *mut __m128i, merged);
    }

    /// Extracts eight consecutive `width`-bit fields from one u64 word into
    /// the 32-bit lanes of the result.
    #[inline(always)]
    unsafe fn unpack8(word: u64, width: u32, mask: u32) -> __m256i {
        let w = width as i64;
        let bc = _mm256_set1_epi64x(word as i64);
        let m64 = _mm256_set1_epi64x(mask as i64);
        let v0 = _mm256_and_si256(
            _mm256_srlv_epi64(bc, _mm256_setr_epi64x(0, w, 2 * w, 3 * w)),
            m64,
        );
        let v1 = _mm256_and_si256(
            _mm256_srlv_epi64(bc, _mm256_setr_epi64x(4 * w, 5 * w, 6 * w, 7 * w)),
            m64,
        );
        // Fields fit in 32 bits (width <= 8): compress the even 32-bit
        // lanes of v0 into positions 0..4 and of v1 into 4..8.
        let w0 = _mm256_permutevar8x32_epi32(v0, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
        let w1 = _mm256_permutevar8x32_epi32(v1, _mm256_setr_epi32(0, 0, 0, 0, 0, 2, 4, 6));
        _mm256_blend_epi32::<0b1111_0000>(w0, w1)
    }

    /// Truncates each i32 lane to its sign-extended low 8 bits — the
    /// scalar `as i8` cast, lifted lane-wise.
    #[inline(always)]
    unsafe fn truncate_i8(iv: __m256i) -> __m256i {
        _mm256_srai_epi32::<24>(_mm256_slli_epi32::<24>(iv))
    }

    /// The levels of eight `width`-bit fields from field `p` (a multiple of
    /// 8), as floats: one u64 word unpacked, recentered, cast to `i8`.
    #[inline(always)]
    unsafe fn word_levels(packed: &[u8], p: usize, width: u32, voff: __m256i) -> __m256 {
        let wbytes = width as usize;
        let word = u64::from_le_bytes(packed[p / 8 * wbytes..][..8].try_into().unwrap());
        let mask = (1u32 << width) - 1;
        _mm256_cvtepi32_ps(truncate_i8(_mm256_sub_epi32(
            unpack8(word, width, mask),
            voff,
        )))
    }

    /// `level / L` with no division (module header): `r = RN(1/L)`,
    /// `q = level · r`, then `q + fma(−q, L, level) · r`.
    #[inline(always)]
    unsafe fn quotient(level: __m256, vl: __m256, vr: __m256) -> __m256 {
        let q = _mm256_mul_ps(level, vr);
        _mm256_fmadd_ps(_mm256_fnmadd_ps(q, vl, level), vr, q)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn max_abs(x: &[f32]) -> f32 {
        let n = x.len();
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut acc = _mm256_setzero_ps();
        let mut p = 0;
        while p + 8 <= n {
            let a = _mm256_and_ps(_mm256_loadu_ps(x.as_ptr().add(p)), abs_mask);
            // Accumulator second: maxps returns its second operand when
            // either input is NaN, so NaN elements are ignored exactly
            // like scalar `f32::max`.
            acc = _mm256_max_ps(a, acc);
            p += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        // Lanes are NaN-free and non-negative; max over them is exact and
        // order-free, so the reduction order cannot matter.
        let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        while p < n {
            m = m.max(x[p].abs());
            p += 1;
        }
        m
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn quantize_levels(x: &[f32], scale: f32, num_levels: u8, out: &mut [i8]) {
        let n = x.len();
        let l = num_levels as f32;
        let vs = _mm256_set1_ps(scale);
        let vl = _mm256_set1_ps(l);
        let vnl = _mm256_set1_ps(-l);
        let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let mut p = 0;
        while p + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            let t = _mm256_mul_ps(_mm256_div_ps(v, vs), vl);
            // f32::round rounds half *away* from zero; the hardware rounds
            // half to even. `t - rte` is exact for |t| in this range, so
            // comparing it against copysign(0.5, t) isolates exactly the
            // ties, which get bumped by copysign(1, t).
            let rte = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(t);
            let tsign = _mm256_and_ps(t, sign_mask);
            let is_half =
                _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(t, rte), _mm256_or_ps(half, tsign));
            let bump = _mm256_and_ps(is_half, _mm256_or_ps(one, tsign));
            let rounded = _mm256_add_ps(rte, bump);
            // Limits first: min/max return the second operand on NaN, so a
            // NaN t passes through like scalar `f32::clamp`, and the
            // conversion below turns it into level 0 like `NaN as i8`.
            let clamped = _mm256_min_ps(vl, _mm256_max_ps(vnl, rounded));
            let iv = _mm256_cvtps_epi32(clamped);
            store_low_bytes(iv, out.as_mut_ptr().add(p));
            p += 8;
        }
        while p < n {
            let t = x[p] / scale * l;
            out[p] = t.round().clamp(-l, l) as i8;
            p += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dequantize_packed(
        packed: &[u8],
        scale: f32,
        num_levels: u8,
        width: u32,
        out: &mut [f32],
    ) {
        let n = out.len();
        let l = num_levels as f32;
        let (vl, vr, vs) = (
            _mm256_set1_ps(l),
            _mm256_set1_ps(1.0 / l),
            _mm256_set1_ps(scale),
        );
        let dst = out.as_mut_ptr();
        let mut p = 0;
        let voff = _mm256_set1_epi32(num_levels as i32);
        while p + 8 <= n && p / 8 * width as usize + 8 <= packed.len() {
            let lev = word_levels(packed, p, width, voff);
            _mm256_storeu_ps(dst.add(p), _mm256_mul_ps(quotient(lev, vl, vr), vs));
            p += 8;
        }
        super::scalar::dequantize_packed(
            &packed[p / 8 * width as usize..],
            scale,
            num_levels,
            width,
            &mut out[p..],
        );
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len();
        let va = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            let yv = _mm256_loadu_ps(y.as_ptr().add(p));
            // mul + add, *not* FMA: scalar `y + alpha * x` rounds the
            // product before the sum, and tiers must agree bit-for-bit.
            let r = _mm256_add_ps(yv, _mm256_mul_ps(va, xv));
            _mm256_storeu_ps(y.as_mut_ptr().add(p), r);
            p += 8;
        }
        while p < n {
            y[p] += alpha * x[p];
            p += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_quantized(
        alpha: f32,
        scale: f32,
        num_levels: u8,
        width: u32,
        packed: &[u8],
        y: &mut [f32],
    ) {
        let n = y.len();
        let l = num_levels as f32;
        let (vl, vr, vs) = (
            _mm256_set1_ps(l),
            _mm256_set1_ps(1.0 / l),
            _mm256_set1_ps(scale),
        );
        let va = _mm256_set1_ps(alpha);
        let dst = y.as_mut_ptr();
        let mut p = 0;
        let voff = _mm256_set1_epi32(num_levels as i32);
        while p + 8 <= n && p / 8 * width as usize + 8 <= packed.len() {
            let lev = word_levels(packed, p, width, voff);
            let xq = _mm256_mul_ps(quotient(lev, vl, vr), vs);
            let r = _mm256_add_ps(_mm256_loadu_ps(dst.add(p)), _mm256_mul_ps(va, xq));
            _mm256_storeu_ps(dst.add(p), r);
            p += 8;
        }
        super::scalar::axpy_quantized(
            alpha,
            scale,
            num_levels,
            width,
            &packed[p / 8 * width as usize..],
            &mut y[p..],
        );
    }
}

/// 512-bit bodies of the int8 upload path, AVX-512F intrinsics only (plus
/// the AVX2 bodies they hand narrower fields to). Each repeats its AVX2
/// body's sequence on 16 lanes; see the module header.
///
/// # Safety
/// Every `pub unsafe fn` here needs avx512f, avx2 and fma on the running
/// CPU; the dispatchers above check it with `Kernel::assert_available`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// The levels of sixteen 8-bit fields at `src`, as floats. The byte
    /// subtraction of `num_levels` wraps and the sign extension reads the
    /// result as `i8`: the scalar `(u − L) as i8`.
    #[inline(always)]
    unsafe fn byte_levels(src: *const u8, voff: __m128i) -> __m512 {
        let b = _mm_loadu_si128(src as *const __m128i);
        _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_sub_epi8(b, voff)))
    }

    /// `level / L` with no division, as `avx2::quotient`.
    #[inline(always)]
    unsafe fn quotient(level: __m512, vl: __m512, vr: __m512) -> __m512 {
        let q = _mm512_mul_ps(level, vr);
        _mm512_fmadd_ps(_mm512_fnmadd_ps(q, vl, level), vr, q)
    }

    /// `|x|` of sixteen floats from `src`, maxed into `acc` (accumulator
    /// second, so NaN elements are ignored as in `avx2::max_abs`).
    #[inline(always)]
    unsafe fn max_abs16(acc: __m512, src: *const f32) -> __m512 {
        _mm512_max_ps(_mm512_abs_ps(_mm512_loadu_ps(src)), acc)
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn max_abs(x: &[f32]) -> f32 {
        let n = x.len();
        let src = x.as_ptr();
        // Four independent chains: one `maxps` chain is latency-bound.
        let (mut a0, mut a1, mut a2, mut a3) = (
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
        );
        let mut p = 0;
        while p + 64 <= n {
            a0 = max_abs16(a0, src.add(p));
            a1 = max_abs16(a1, src.add(p + 16));
            a2 = max_abs16(a2, src.add(p + 32));
            a3 = max_abs16(a3, src.add(p + 48));
            p += 64;
        }
        while p + 16 <= n {
            a0 = max_abs16(a0, src.add(p));
            p += 16;
        }
        // Lanes are NaN-free and non-negative; max over them is exact and
        // order-free, so the reduction order cannot matter.
        let acc = _mm512_max_ps(_mm512_max_ps(a0, a1), _mm512_max_ps(a2, a3));
        let m = _mm512_reduce_max_ps(acc);
        x[p..].iter().fold(m, |m, v| m.max(v.abs()))
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn quantize_levels(x: &[f32], scale: f32, num_levels: u8, out: &mut [i8]) {
        let n = x.len();
        let l = num_levels as f32;
        let (vs, vl, vnl) = (_mm512_set1_ps(scale), _mm512_set1_ps(l), _mm512_set1_ps(-l));
        // Float and/or are AVX-512DQ, so the sign copies are integer ops.
        let sign_mask = _mm512_set1_epi32(i32::MIN);
        let half = _mm512_set1_epi32(0.5f32.to_bits() as i32);
        let one = _mm512_set1_epi32(1.0f32.to_bits() as i32);
        let mut p = 0;
        while p + 16 <= n {
            let v = _mm512_loadu_ps(x.as_ptr().add(p));
            let t = _mm512_mul_ps(_mm512_div_ps(v, vs), vl);
            // Round half to even, then bump the exact ties away from zero
            // (`avx2::quantize_levels` has the argument).
            let rte = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(t);
            let tsign = _mm512_and_si512(_mm512_castps_si512(t), sign_mask);
            let signed_half = _mm512_castsi512_ps(_mm512_or_si512(half, tsign));
            let is_half = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(_mm512_sub_ps(t, rte), signed_half);
            let signed_one = _mm512_castsi512_ps(_mm512_or_si512(one, tsign));
            let rounded = _mm512_mask_add_ps(rte, is_half, rte, signed_one);
            // Limits first, so NaN passes the clamp and converts to 0.
            let clamped = _mm512_min_ps(vl, _mm512_max_ps(vnl, rounded));
            // `vpmovdb` keeps each lane's low byte: the truncating cast.
            let bytes = _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(clamped));
            _mm_storeu_si128(out.as_mut_ptr().add(p) as *mut __m128i, bytes);
            p += 16;
        }
        super::scalar::quantize_levels(&x[p..], scale, num_levels, &mut out[p..]);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn dequantize_packed(
        packed: &[u8],
        scale: f32,
        num_levels: u8,
        width: u32,
        out: &mut [f32],
    ) {
        if width != 8 {
            return super::avx2::dequantize_packed(packed, scale, num_levels, width, out);
        }
        let n = out.len();
        let l = num_levels as f32;
        let (vl, vr, vs) = (
            _mm512_set1_ps(l),
            _mm512_set1_ps(1.0 / l),
            _mm512_set1_ps(scale),
        );
        let voff = _mm_set1_epi8(num_levels as i8);
        let dst = out.as_mut_ptr();
        let mut p = 0;
        while p + 16 <= n {
            let lev = byte_levels(packed.as_ptr().add(p), voff);
            _mm512_storeu_ps(dst.add(p), _mm512_mul_ps(quotient(lev, vl, vr), vs));
            p += 16;
        }
        super::scalar::dequantize_packed(&packed[p..], scale, num_levels, 8, &mut out[p..]);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_quantized(
        alpha: f32,
        scale: f32,
        num_levels: u8,
        width: u32,
        packed: &[u8],
        y: &mut [f32],
    ) {
        if width != 8 {
            return super::avx2::axpy_quantized(alpha, scale, num_levels, width, packed, y);
        }
        let n = y.len();
        let l = num_levels as f32;
        let (vl, vr, vs) = (
            _mm512_set1_ps(l),
            _mm512_set1_ps(1.0 / l),
            _mm512_set1_ps(scale),
        );
        let va = _mm512_set1_ps(alpha);
        let voff = _mm_set1_epi8(num_levels as i8);
        let dst = y.as_mut_ptr();
        let mut p = 0;
        while p + 16 <= n {
            let lev = byte_levels(packed.as_ptr().add(p), voff);
            let xq = _mm512_mul_ps(quotient(lev, vl, vr), vs);
            // mul + add, not FMA, as every `axpy` tier.
            let r = _mm512_add_ps(_mm512_loadu_ps(dst.add(p)), _mm512_mul_ps(va, xq));
            _mm512_storeu_ps(dst.add(p), r);
            p += 16;
        }
        super::scalar::axpy_quantized(alpha, scale, num_levels, 8, &packed[p..], &mut y[p..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_matches_wire_math() {
        assert_eq!(packed_len(0, 5), 0);
        assert_eq!(packed_len(8, 5), 5);
        assert_eq!(packed_len(9, 5), 6);
        assert_eq!(packed_len(7, 8), 7);
    }

    #[test]
    fn blocked_packer_writes_the_scalar_loops_bytes() {
        // Every width, lengths across several whole groups and every tail.
        // Both outputs start non-zero, so padding bits are checked too.
        for width in 1u32..=8 {
            // The widest level range a field holds (none at one bit).
            let num_levels = ((1u16 << (width - 1)) - 1) as u8;
            for n in 0..70 {
                let levels: Vec<i8> = (0..n as i32)
                    .map(|i| ((i * 5 + 3) % (2 * num_levels as i32 + 1) - num_levels as i32) as i8)
                    .collect();
                let mut want = vec![0xA5u8; packed_len(n, width)];
                let mut got = want.clone();
                scalar::pack_levels(&levels, num_levels, width, &mut want);
                pack_levels(&levels, num_levels, width, &mut got);
                assert_eq!(got, want, "width {width}, {n} levels");
            }
        }
    }

    #[test]
    fn scalar_round_trip_all_widths() {
        for bits in 1u8..=8 {
            let num_levels = ((1u16 << (bits - 1)) - 1).max(1) as u8;
            let width = (bits + 1).min(8) as u32;
            let levels: Vec<i8> = (0..37)
                .map(|i| (((i * 7) % (2 * num_levels as i32 + 1)) - num_levels as i32) as i8)
                .collect();
            let mut packed = vec![0u8; packed_len(levels.len(), width)];
            scalar::pack_levels(&levels, num_levels, width, &mut packed);
            let mut back = vec![0i8; levels.len()];
            unpack_levels(&packed, num_levels, width, &mut back);
            assert_eq!(back, levels, "bits={bits}");
        }
    }

    #[test]
    fn fused_equals_unpack_dequantize_axpy_scalar() {
        let num_levels = 7u8;
        let width = 4u32;
        let levels: Vec<i8> = (0..29).map(|i| (i % 15) as i8 - 7).collect();
        let mut packed = vec![0u8; packed_len(levels.len(), width)];
        pack_levels(&levels, num_levels, width, &mut packed);
        let scale = 1.375f32;
        let alpha = -0.625f32;
        let mut dense = vec![0.0f32; levels.len()];
        dequantize_packed_on(
            Kernel::Scalar,
            &packed,
            scale,
            num_levels,
            width,
            &mut dense,
        );
        let mut y_ref: Vec<f32> = (0..29).map(|i| i as f32 * 0.5).collect();
        let mut y_fused = y_ref.clone();
        axpy_on(Kernel::Scalar, alpha, &dense, &mut y_ref);
        axpy_quantized_on(
            Kernel::Scalar,
            alpha,
            scale,
            num_levels,
            width,
            &packed,
            &mut y_fused,
        );
        assert_eq!(y_ref, y_fused);
    }

    // `num_levels == 0` is rejected before dispatch, so on every tier.
    #[test]
    #[should_panic(expected = "zero num_levels")]
    fn quantize_levels_rejects_zero_levels() {
        let best = crate::gemm::available_kernels()[0];
        quantize_levels_on(best, &[1.0; 20], 1.0, 0, &mut [0; 20]);
    }

    // Above 127 a level overflows `i8`, where the tiers' casts differ.
    #[test]
    #[should_panic(expected = "num_levels above 127")]
    fn quantize_levels_rejects_more_than_127_levels() {
        let best = crate::gemm::available_kernels()[0];
        quantize_levels_on(best, &[1.0; 20], 1.0, 128, &mut [0; 20]);
    }

    #[test]
    #[should_panic(expected = "zero num_levels")]
    fn dequantize_packed_rejects_zero_levels() {
        let best = crate::gemm::available_kernels()[0];
        dequantize_packed_on(best, &[0; 20], 1.0, 0, 8, &mut [0.0; 20]);
    }

    #[test]
    #[should_panic(expected = "zero num_levels")]
    fn axpy_quantized_rejects_zero_levels() {
        let best = crate::gemm::available_kernels()[0];
        axpy_quantized_on(best, 1.0, 1.0, 0, 8, &[0; 20], &mut [0.0; 20]);
    }

    #[test]
    fn max_abs_ignores_nan_like_f32_max() {
        let x = [1.0f32, f32::NAN, -3.5, 2.0];
        for k in crate::gemm::available_kernels() {
            assert_eq!(max_abs_on(k, &x), 3.5, "kernel {}", k.name());
        }
        assert_eq!(max_abs_on(Kernel::Scalar, &[]), 0.0);
    }
}
