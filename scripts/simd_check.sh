#!/usr/bin/env bash
# SIMD dispatch gate, two halves:
#
#  1. Correctness: runs the GEMM, Conv2d, Lstm and backward_params parity
#     suites and the golden-trace fixture once per kernel tier the host can
#     execute, with FEDCA_FORCE_KERNEL pinning the dispatch — so the
#     portable tier stays exercised on SIMD hardware and every tier proves
#     f64-reference accuracy, bit-equality with the one summation rule
#     (gemm.rs header) through Conv2d and the time-major Lstm too, and the
#     same committed fixture bytes.
#
#  2. Performance: on hosts with a SIMD tier, re-runs the train_iteration
#     benches and requires each median to beat the packed scalar kernel
#     baseline (packed_ms in BENCH_kernels.json) by at least
#     SIMD_MIN_SPEEDUP x (default 2.0), less a SIMD_SPEEDUP_TOLERANCE
#     (default 10%) noise band: effective floor 1.8x by default. The
#     portable tier is slower than packed_ms on these shapes, so the band
#     distinguishes "dispatch silently fell back to scalar" from bench
#     jitter. Scalar-only hosts skip this half with a note.
#
# Usage: scripts/simd_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP="${SIMD_MIN_SPEEDUP:-2.0}"
TOLERANCE="${SIMD_SPEEDUP_TOLERANCE:-10}"
BASELINE="BENCH_kernels.json"

# -- which tiers can this host run? (mirrors Kernel::is_available)
TIERS="scalar"
ARCH="$(uname -m)"
if [[ "$ARCH" == "x86_64" ]] && grep -q avx2 /proc/cpuinfo && grep -q fma /proc/cpuinfo; then
  TIERS="avx2 scalar"
fi
echo "== simd_check: host tiers: $TIERS"

FAIL=0
for TIER in $TIERS; do
  echo "== gemm + conv + lstm + backward_params parity suites, golden trace (FEDCA_FORCE_KERNEL=$TIER)"
  if ! FEDCA_FORCE_KERNEL="$TIER" cargo test -q -p fedca-tensor --test gemm_parity ||
    ! FEDCA_FORCE_KERNEL="$TIER" cargo test -q -p fedca-nn \
      --test conv_parity --test lstm_parity --test backward_params ||
    ! FEDCA_FORCE_KERNEL="$TIER" cargo test -q -p fedca-core --test golden_trace; then
    echo "simd_check: parity suite failed on tier $TIER" >&2
    FAIL=1
  fi
done

if [[ "$TIERS" == "scalar" ]]; then
  echo "simd_check: no SIMD tier on this host; skipping the speedup gate"
  exit "$FAIL"
fi

echo "== train_iteration benches (release, auto-dispatched tier)"
# `tee >(cat >&2)`, not `tee /dev/stderr`: the latter reopens (and truncates)
# a log file that check.sh's stderr was redirected to.
OUT="$(cargo bench -p fedca-bench --bench training_iteration 2>&1 | tee >(cat >&2))"

FLOOR="$(awk "BEGIN{print $MIN_SPEEDUP * (1 - $TOLERANCE / 100)}")"
for NAME in $(jq -r '.benchmarks | keys[] | select(startswith("train_iteration/"))' "$BASELINE"); do
  PACKED_MS="$(jq -r ".benchmarks[\"$NAME\"].packed_ms" "$BASELINE")"
  LINE="$(grep -F "bench $NAME " <<<"$OUT" || true)"
  if [[ -z "$LINE" ]]; then
    echo "simd_check: no measurement for $NAME" >&2
    FAIL=1
    continue
  fi
  # criterion prints "time: [low median high]"; take the median + unit.
  read -r MEDIAN UNIT <<<"$(sed -E 's/.*time:\s*\[[0-9.]+ [a-zµ]+ ([0-9.]+) ([a-zµ]+) .*/\1 \2/' <<<"$LINE")"
  case "$UNIT" in
    ns) MS="$(awk "BEGIN{print $MEDIAN / 1000000}")" ;;
    µs | us) MS="$(awk "BEGIN{print $MEDIAN / 1000}")" ;;
    ms) MS="$MEDIAN" ;;
    s) MS="$(awk "BEGIN{print $MEDIAN * 1000}")" ;;
    *)
      echo "simd_check: $NAME median has unknown unit '$UNIT'" >&2
      FAIL=1
      continue
      ;;
  esac
  SPEEDUP="$(awk "BEGIN{print $PACKED_MS / $MS}")"
  if awk "BEGIN{exit !($SPEEDUP < $FLOOR)}"; then
    echo "simd_check: $NAME at ${MS} ms is only ${SPEEDUP}x the packed baseline ${PACKED_MS} ms (floor ${FLOOR}x)" >&2
    FAIL=1
  else
    echo "simd_check: $NAME ${MS} ms — ${SPEEDUP}x vs packed ${PACKED_MS} ms (floor ${FLOOR}x) — ok"
  fi
done

exit "$FAIL"
