#!/usr/bin/env bash
# Virtual-population gate (mirrors perf_check.sh):
#   1. runs the eager-vs-lazy parity suite in release mode — the lazy
#      client store must be bit-identical to materializing everyone;
#   2. runs `fedca-bench probe-population` once per pinned size (one process per
#      size: peak RSS is process-monotone) and compares throughput and
#      peak memory against BENCH_population.json.
#
# Throughput is gated from below and memory from above, each with a
# POPULATION_MAX_REGRESSION (default 30%) band — wide enough for shared-CI
# jitter, tight enough to catch "hydration went quadratic" or "the store
# stopped evicting" (at a million clients the latter is ~100x the memory
# baseline, not 30%).
#
# Usage: scripts/population_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_REG="${POPULATION_MAX_REGRESSION:-30}"
BASELINE="BENCH_population.json"

echo "== population parity suite (release)"
cargo test --release -q -p fedca-core --test population_parity

echo "== population scaling probe (release)"
cargo build --release -q -p fedca-bench

FAIL=0
for N in $(jq -r '.populations | keys[]' "$BASELINE"); do
  OUT="$(./target/release/fedca-bench probe-population --n-clients "$N" --cohort 128 --rounds 50 2>/dev/null)"
  RPS="$(jq -r '.rounds_per_sec' <<<"$OUT")"
  RSS="$(jq -r '.peak_rss_mib' <<<"$OUT")"
  BASE_RPS="$(jq -r ".populations[\"$N\"].rounds_per_sec" "$BASELINE")"
  BASE_RSS="$(jq -r ".populations[\"$N\"].peak_rss_mib" "$BASELINE")"

  RPS_FLOOR="$(awk "BEGIN{print $BASE_RPS * (1 - $MAX_REG / 100)}")"
  if awk "BEGIN{exit !($RPS < $RPS_FLOOR)}"; then
    echo "population_check: n=$N at ${RPS} rounds/s below floor ${RPS_FLOOR} (baseline ${BASE_RPS} - ${MAX_REG}%)" >&2
    FAIL=1
  else
    echo "population_check: n=$N ${RPS} rounds/s (baseline ${BASE_RPS}, floor ${RPS_FLOOR}) — ok"
  fi

  RSS_CEIL="$(awk "BEGIN{print $BASE_RSS * (1 + $MAX_REG / 100)}")"
  if awk "BEGIN{exit !($RSS > $RSS_CEIL)}"; then
    echo "population_check: n=$N peak RSS ${RSS} MiB exceeds ${RSS_CEIL} MiB (baseline ${BASE_RSS} + ${MAX_REG}%)" >&2
    FAIL=1
  else
    echo "population_check: n=$N peak RSS ${RSS} MiB (baseline ${BASE_RSS}, ceiling ${RSS_CEIL}) — ok"
  fi
done

exit "$FAIL"
