#!/usr/bin/env bash
# Sharded-execution gate (mirrors population_check.sh):
#   1. runs the release-mode topology suites — every topology in {1, 2, 4}
#      shard processes x {1, 4} workers must be bit-identical to the
#      in-process run (records, parameters, canonical trace) under chaos
#      faults, compression and randomized shard assignments
#      (shard_parity), through the pool API (shard_api), and under every
#      way of losing a shard: kills, a mute child, a stopped child, spawn
#      failures (shard_transport, the failover table);
#   2. runs `fedca-bench probe-shard` at 1 and 4 shard processes on the wrn
#      workload: the parameter fingerprints must match exactly (release-
#      mode topology invariance on a real workload) and the 4-shard run
#      must clear the within-run speedup gate against the 1-shard run.
#      No absolute rounds/s floor: a number recorded on another host says
#      nothing about this one.
#
# The speedup gate is core-aware: with >= 4 usable cores the 4-shard
# topology must deliver SHARD_MIN_SPEEDUP (default 1.5x) the 1-shard round
# throughput; on fewer cores a parallel speedup is physically impossible
# (the compute serializes either way), so the gate becomes an overhead
# bound — 4 shards must keep >= 0.6x of the 1-shard throughput, proving
# the protocol and process plumbing stay cheap.
#
# Usage: scripts/shard_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

CORES="$(nproc 2>/dev/null || echo 1)"
if [ "$CORES" -ge 4 ]; then
  MIN_SPEEDUP="${SHARD_MIN_SPEEDUP:-1.5}"
else
  MIN_SPEEDUP="${SHARD_MIN_SPEEDUP:-0.6}"
  echo "shard_check: $CORES core(s) — speedup gate degrades to the ${MIN_SPEEDUP}x overhead bound" >&2
fi

echo "== topology-invariance and failover suites (release)"
cargo test --release -q -p fedca-core --test shard_parity
cargo test --release -q -p fedca-core --test shard_api
cargo test --release -q -p fedca-core --test shard_transport

echo "== shard throughput probe (release, wrn)"
cargo build --release -q -p fedca-bench

FAIL=0
declare -A RPS FP
for S in 1 4; do
  OUT="$(./target/release/fedca-bench probe-shard --shards "$S" --workers 1 --rounds 6 --workload wrn 2>/dev/null)"
  RPS[$S]="$(jq -r '.rounds_per_sec' <<<"$OUT")"
  FP[$S]="$(jq -r '.params_fingerprint' <<<"$OUT")"
  echo "shard_check: $S shards ${RPS[$S]} rounds/s"
done

if [ "${FP[1]}" != "${FP[4]}" ]; then
  echo "shard_check: parameter fingerprints diverged across topologies: 1 shard ${FP[1]} vs 4 shards ${FP[4]}" >&2
  FAIL=1
else
  echo "shard_check: topology-invariant fingerprint ${FP[1]} — ok"
fi

SPEEDUP="$(awk "BEGIN{print ${RPS[4]} / ${RPS[1]}}")"
if awk "BEGIN{exit !($SPEEDUP < $MIN_SPEEDUP)}"; then
  echo "shard_check: 4-shard speedup ${SPEEDUP}x below the ${MIN_SPEEDUP}x gate ($CORES cores)" >&2
  FAIL=1
else
  echo "shard_check: 4-shard speedup ${SPEEDUP}x (gate ${MIN_SPEEDUP}x, $CORES cores) — ok"
fi

exit "$FAIL"
