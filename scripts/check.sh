#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

if cargo clippy --version >/dev/null 2>&1; then
  echo "== cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "== cargo clippy not installed; skipping lints" >&2
fi

echo "== cargo test"
cargo test --workspace -q

# examples/benchmark is a package outside the workspace, so the steps above
# never compile it. Build it against the current API and smoke one sharded
# run: its checks include fingerprint(cnn_fedca_shard2) == fingerprint(cnn_fedca).
echo "== benchmark build + sharded smoke"
bench=(cargo run --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml --)
"${bench[@]}" --workload cnn_fedca_shard2 --seed 1 --seconds 2 --trace 0 \
  | tail -n 1 | grep -q '"correct":true' \
  || { echo "benchmark smoke: cnn_fedca_shard2 did not report \"correct\":true" >&2; exit 1; }

# "A perf change did not change the arithmetic" as a gate: the seed-42
# trajectory fingerprints must equal the recorded ones. They are recorded on
# the AVX2 tier (GEMM tiers differ in low-order bits), so other tiers print
# theirs and skip.
echo "== benchmark fingerprints vs baselines/set1.json"
baseline=examples/benchmark/baselines/set1.json
for w in cnn_fedca wide_int8; do
  info="$("${bench[@]}" --workload "$w" --seed 42 --seconds 2 --trace 0 | grep '^{"info"' | tail -n 1)"
  kernel="$(jq -r '.info.kernel' <<<"$info")"
  got="$(jq -r '.info.fingerprint' <<<"$info")"
  want="$(jq -r ".workloads.$w.fingerprint" "$baseline")"
  if [[ "$kernel" != "avx2" ]]; then
    echo "fingerprint $w: $got on kernel $kernel (baseline is avx2; skipped)"
  elif [[ "$got" != "$want" ]]; then
    echo "fingerprint $w: $got differs from the recorded $want" >&2
    exit 1
  else
    echo "fingerprint $w: $got — ok"
  fi
done

echo "== chaos sweep"
scripts/chaos.sh "${CHAOS_SEEDS:-32}"

echo "== trace check"
scripts/trace_check.sh

echo "== recovery check"
scripts/recovery_check.sh

echo "== perf check"
scripts/perf_check.sh

echo "== simd check"
scripts/simd_check.sh

echo "== dataplane check"
scripts/dataplane_check.sh

echo "== population check"
scripts/population_check.sh

echo "== shard check"
scripts/shard_check.sh
