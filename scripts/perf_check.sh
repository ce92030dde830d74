#!/usr/bin/env bash
# Kernel-perf regression gate (mirrors trace_check.sh):
#   re-runs the training-iteration and round-orchestration benches in
#   release mode and compares each median against the recorded baseline in
#   BENCH_kernels.json (`after_ms`). A median more than PERF_MAX_REGRESSION
#   (default 20%) above its baseline fails the gate.
#
# Benchmark noise on shared CI machines is real; the 20% band is meant to
# catch "the kernel fell off a cliff" (an accidental O(n^3) naive path, a
# lost pack-buffer reuse), not single-digit jitter.
#
# Usage: scripts/perf_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_REG="${PERF_MAX_REGRESSION:-20}"
BASELINE="BENCH_kernels.json"

echo "== kernel benches (release)"
# `tee >(cat >&2)`, not `tee /dev/stderr`: the latter reopens (and truncates)
# a log file that check.sh's stderr was redirected to.
OUT="$(cargo bench -p fedca-bench --bench training_iteration --bench round_orchestration 2>&1 | tee >(cat >&2))"

FAIL=0
for NAME in $(jq -r '.benchmarks | keys[]' "$BASELINE"); do
  BASE_MS="$(jq -r ".benchmarks[\"$NAME\"].after_ms" "$BASELINE")"
  LINE="$(grep -F "bench $NAME " <<<"$OUT" || true)"
  if [[ -z "$LINE" ]]; then
    echo "perf_check: no measurement for $NAME" >&2
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
      echo "perf_check: $NAME median has unknown unit '$UNIT'" >&2
      FAIL=1
      continue
      ;;
  esac
  LIMIT="$(awk "BEGIN{print $BASE_MS * (1 + $MAX_REG / 100)}")"
  if awk "BEGIN{exit !($MS > $LIMIT)}"; then
    echo "perf_check: $NAME at ${MS} ms exceeds ${LIMIT} ms (baseline ${BASE_MS} ms + ${MAX_REG}%)" >&2
    FAIL=1
  else
    echo "perf_check: $NAME ${MS} ms (baseline ${BASE_MS} ms, limit ${LIMIT} ms) — ok"
  fi
done

exit "$FAIL"
