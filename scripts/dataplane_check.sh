#!/usr/bin/env bash
# Server data-plane gate, three halves:
#
#  1. Correctness: runs the data-plane kernel parity suite AND the
#     wire-vs-dense aggregation equivalence suite once per kernel tier the
#     host can execute, with FEDCA_FORCE_KERNEL pinning the dispatch — so
#     every compiled tier proves bit-identity to the scalar reference
#     (codecs) and to the historical dense fold (aggregator).
#
#  2. Speedup: on hosts with a SIMD tier, the fused dequantize-accumulate
#     median must beat the scalar decode-then-axpy baseline
#     (data_plane/unfused_scalar in the same bench run) by at least
#     DATAPLANE_MIN_SPEEDUP x (default 2.0), less a
#     DATAPLANE_SPEEDUP_TOLERANCE (default 10%) noise band. Scalar-only
#     hosts skip this half with a note.
#
#  3. Regression band: every data_plane bench median is compared against
#     its recorded baseline in BENCH_dataplane.json (`after_us`); a median
#     more than DATAPLANE_MAX_REGRESSION (default 30%) above baseline
#     fails the gate.
#
# Usage: scripts/dataplane_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP="${DATAPLANE_MIN_SPEEDUP:-2.0}"
TOLERANCE="${DATAPLANE_SPEEDUP_TOLERANCE:-10}"
MAX_REG="${DATAPLANE_MAX_REGRESSION:-30}"
BASELINE="BENCH_dataplane.json"

# -- which tiers can this host run? (mirrors Kernel::is_available)
TIERS="scalar"
ARCH="$(uname -m)"
if [[ "$ARCH" == "x86_64" ]] && grep -q avx2 /proc/cpuinfo && grep -q fma /proc/cpuinfo; then
  TIERS="avx2 scalar"
fi
echo "== dataplane_check: host tiers: $TIERS"

FAIL=0
for TIER in $TIERS; do
  echo "== data-plane parity suite (FEDCA_FORCE_KERNEL=$TIER)"
  if ! FEDCA_FORCE_KERNEL="$TIER" cargo test -q -p fedca-tensor --test dataplane_parity; then
    echo "dataplane_check: kernel parity suite failed on tier $TIER" >&2
    FAIL=1
  fi
  echo "== wire-vs-dense aggregation equivalence (FEDCA_FORCE_KERNEL=$TIER)"
  if ! FEDCA_FORCE_KERNEL="$TIER" cargo test -q -p fedca-core \
    --test aggregation_equivalence --test ingest_zero_alloc; then
    echo "dataplane_check: aggregation equivalence failed on tier $TIER" >&2
    FAIL=1
  fi
done

echo "== data_plane benches (release, auto-dispatched tier)"
# `tee >(cat >&2)`, not `tee /dev/stderr`: the latter reopens (and truncates)
# a log file that check.sh's stderr was redirected to.
OUT="$(cargo bench -p fedca-bench --bench data_plane 2>&1 | tee >(cat >&2))"

# Extracts the median of one bench line from $OUT, in microseconds.
median_us() {
  local line
  line="$(grep -F "bench $1 " <<<"$OUT" || true)"
  [[ -z "$line" ]] && return 1
  local median unit
  read -r median unit <<<"$(sed -E 's/.*time:\s*\[[0-9.]+ [a-zµ]+ ([0-9.]+) ([a-zµ]+) .*/\1 \2/' <<<"$line")"
  case "$unit" in
    ns) awk "BEGIN{print $median / 1000}" ;;
    µs | us) echo "$median" ;;
    ms) awk "BEGIN{print $median * 1000}" ;;
    s) awk "BEGIN{print $median * 1000000}" ;;
    *) return 1 ;;
  esac
}

if [[ "$TIERS" == "scalar" ]]; then
  echo "dataplane_check: no SIMD tier on this host; skipping the fused speedup gate"
else
  FUSED="$(median_us "data_plane/fused_dequant_axpy/500k" || true)"
  UNFUSED="$(median_us "data_plane/unfused_scalar/500k" || true)"
  if [[ -z "$FUSED" || -z "$UNFUSED" ]]; then
    echo "dataplane_check: missing fused/unfused measurements" >&2
    FAIL=1
  else
    FLOOR="$(awk "BEGIN{print $MIN_SPEEDUP * (1 - $TOLERANCE / 100)}")"
    SPEEDUP="$(awk "BEGIN{print $UNFUSED / $FUSED}")"
    if awk "BEGIN{exit !($SPEEDUP < $FLOOR)}"; then
      echo "dataplane_check: fused ${FUSED} µs is only ${SPEEDUP}x the scalar unfused ${UNFUSED} µs (floor ${FLOOR}x)" >&2
      FAIL=1
    else
      echo "dataplane_check: fused ${FUSED} µs — ${SPEEDUP}x vs scalar unfused ${UNFUSED} µs (floor ${FLOOR}x) — ok"
    fi
  fi
fi

# Scalar-only hosts compare against the recorded scalar-tier medians.
KEY="after_us"
[[ "$TIERS" == "scalar" ]] && KEY="scalar_us"
for NAME in $(jq -r '.benchmarks | keys[]' "$BASELINE"); do
  BASE_US="$(jq -r ".benchmarks[\"$NAME\"].$KEY" "$BASELINE")"
  US="$(median_us "$NAME" || true)"
  if [[ -z "$US" ]]; then
    echo "dataplane_check: no measurement for $NAME" >&2
    FAIL=1
    continue
  fi
  LIMIT="$(awk "BEGIN{print $BASE_US * (1 + $MAX_REG / 100)}")"
  if awk "BEGIN{exit !($US > $LIMIT)}"; then
    echo "dataplane_check: $NAME at ${US} µs exceeds ${LIMIT} µs (baseline ${BASE_US} µs + ${MAX_REG}%)" >&2
    FAIL=1
  else
    echo "dataplane_check: $NAME ${US} µs (baseline ${BASE_US} µs, limit ${LIMIT} µs) — ok"
  fi
done

exit "$FAIL"
