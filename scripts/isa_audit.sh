#!/usr/bin/env bash
# Instruction-set audit of the release `fedca-bench`. `Kernel::Avx512`
# checks avx512f alone, so the AVX-512 bodies (`::avx512::` and
# `tile_avx512` symbols) may hold AVX-512F, AVX2, FMA and base instructions
# only, and nothing else in the binary may touch a zmm or k register. The
# audit fails when
#   - an instruction in an AVX-512 body is not on the allowlist below
#     (zmm, k or a mask: F only, on zmm or a scalar; otherwise AVX, AVX2,
#     FMA or base);
#   - any xmm16–31 or ymm16–31 register appears (those need AVX-512VL);
#   - a zmm or k operand appears outside the AVX-512 bodies;
#   - an expected body is missing (inlined where the audit cannot see it).
# Usage: scripts/isa_audit.sh [BINARY]  (default target/release/fedca-bench,
# built by `cargo build --release -p fedca-bench`)
set -euo pipefail
cd "$(dirname "$0")/.."
bin="${1:-target/release/fedca-bench}"
[[ -x "$bin" ]] || { echo "isa_audit: $bin is not built" >&2; exit 2; }

F="vaddps vsubps vmulps vdivps vmaxps vminps vsqrtps vscalefps vfmadd132ps vfmadd213ps
vfmadd231ps vfnmadd132ps vfnmadd213ps vfnmadd231ps vmovups vmovaps vmovdqu32 vmovdqu64
vmovdqa32 vmovdqa64 vbroadcastss vpbroadcastd vcvtdq2ps vcvtps2dq vcvttps2dq vpmovsxbd
vpmovzxbd vpmovdb vpmovsdb vpmovusdb vpaddd vpsubd vpmulld vpslld vpsrld vpsrad vpmaxsd
vpminsd vpabsd vpandd vpandq vpandnd vpord vporq vpxord vpxorq vpternlogd vpternlogq
vrndscaleps vextractf32x4 vextractf64x4 vinsertf32x4 vinsertf64x4 vextracti32x4
vextracti64x4 vinserti32x4 vinserti64x4 vpermps vpermd vshufps vpshufd vcmpeqps vcmpltps
vcmpleps vcmpunordps vcmpneqps vcmpnltps vcmpnleps vcmpordps vpcmpeqd vpcmpgtd kmovw
kandw kandnw korw kxorw kxnorw knotw kortestw kshiftlw kshiftrw kunpckbw vmovss vaddss
vsubss vmulss vdivss vmaxss vminss vsqrtss vfmadd213ss vfmadd231ss vcmpunordss vcmpeqss"
V="vaddps vsubps vmulps vdivps vmaxps vminps vsqrtps vaddss vsubss vmulss vdivss vmaxss
vminss vsqrtss vmovss vmovups vmovaps vmovdqu vmovdqa vmovd vmovq vbroadcastss
vpbroadcastb vpbroadcastw vpbroadcastd vxorps vandps vandnps vorps vpxor vpand vpandn vpor
vshufps vshufpd vmovshdup vmovhlps vunpcklps vunpckhps vextractf128 vextracti128
vinsertf128 vinserti128 vpinsrb vpinsrd vpextrb vpextrd vpaddb vpsubb vpaddd vpsubd
vpmulld vpmovsxbd vpmovzxbd vcvtdq2ps vcvtps2dq vcvttps2dq vcvtsi2ss vcvttss2si vcvtss2si
vroundps vroundss vcmpunordss vcmpunordps vcmpeqps vcmpltps vcmpleps vfmadd132ps
vfmadd213ps vfmadd231ps vfnmadd132ps vfnmadd213ps vfnmadd231ps vfmadd231ss vfmadd213ss
vpshufb vpackssdw vpacksswb vpackusdw vpackuswb vpermps vpermd vperm2f128 vpermilps
vblendvps vpblendvb vzeroupper vtestps vptest vmovmskps vpmovmskb vucomiss vcomiss"
want="fedca_tensor::gemm::tile_avx512 fedca_tensor::dataplane::avx512::max_abs
fedca_tensor::dataplane::avx512::quantize_levels
fedca_tensor::dataplane::avx512::dequantize_packed
fedca_tensor::dataplane::avx512::axpy_quantized"

objdump -d --no-show-raw-insn -C -M intel "$bin" | awk -v F="$F" -v V="$V" -v want="$want" '
function set(list, arr,   w, i, n) { n = split(list, w, /[ \n]+/); for (i = 1; i <= n; i++) arr[w[i]] = 1 }
function bad(why) { print "isa_audit: " sym ": " why ": " ins > "/dev/stderr"; n_bad++ }
BEGIN { set(F, f); set(V, v); set(want, expect)
  base = "^(mov|movabs|movzx|movsx|movsxd|lea|add|sub|adc|sbb|imul|mul|div|idiv|inc|dec|neg|not|and|or|xor|test|cmp|bt|shl|shr|sar|rol|ror|j[a-z]+|cmov[a-z]+|set[a-z]+|push|pop|call|ret|leave|nop|int3|ud2|xchg|cdq|cqo|cdqe|data16|cs|endbr64)$" }
/^[0-9a-f]+ <.*>:$/ { sym = $0; sub(/^[^<]*</, "", sym); sub(/>:$/, "", sym)
  simd = sym ~ /::avx512::|tile_avx512/; if (sym in expect) seen[sym] = 1; next }
/^ +[0-9a-f]+:\t/ { ins = $0; sub(/^[^\t]*\t/, "", ins); sub(/ *[<#].*$/, "", ins)
  m = ins; sub(/ .*$/, "", m); ops = substr(ins, length(m) + 1)
  zmm = ops ~ /zmm/; k = m ~ /^k/ || ops ~ /(^|[^a-z0-9_])k[0-7]([^0-9]|$)/
  if (ops ~ /[xy]mm(1[6-9]|2[0-9]|3[01])/) bad("register needs AVX-512VL")
  else if (!simd) { if (zmm || k) bad("AVX-512 outside the audited bodies") }
  else if (zmm || k) { if (!(m in f) || (!zmm && m !~ /^k|ss$/)) bad("not AVX-512F (or needs VL)") }
  else if (!(m in v) && m !~ base) bad("not AVX2, FMA or base") }
END { for (s in expect) if (!(s in seen)) { print "isa_audit: missing symbol " s > "/dev/stderr"; n_bad++ }
  if (n_bad) exit 1; print "isa_audit: AVX-512 bodies are F-only; no zmm, k or VL register elsewhere" }'
