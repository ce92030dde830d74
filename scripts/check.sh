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
# trajectory fingerprints must equal the recorded ones, on any host — every
# kernel tier computes the same bits.
echo "== benchmark fingerprints vs baselines/set1.json"
baseline=examples/benchmark/baselines/set1.json
for w in cnn_fedca wide_int8; do
  got="$("${bench[@]}" --workload "$w" --seed 42 --seconds 2 --trace 0 \
    | grep '^{"info"' | tail -n 1 | jq -r '.info.fingerprint')"
  want="$(jq -r ".workloads.$w.fingerprint" "$baseline")"
  if [[ "$got" != "$want" ]]; then
    echo "fingerprint $w: $got differs from the recorded $want" >&2
    exit 1
  fi
  echo "fingerprint $w: $got — ok"
done

# The committed smoke results are what the tree prints: regenerate the whole
# study in one process and diff.
echo "== study smoke vs results/smoke"
cargo build --release -q -p fedca-bench
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/fedca-bench all --scale smoke --out "$tmp"
diff -r -x '*.log' "$tmp" results/smoke \
  || { echo "study smoke: CSVs differ from results/smoke (regenerate with fedca-bench all --scale smoke --out results/smoke)" >&2; exit 1; }
echo "study smoke: 14 CSVs match results/smoke — ok"

echo "== chaos sweep"
scripts/chaos.sh "${CHAOS_SEEDS:-32}"

echo "== trace check"
scripts/trace_check.sh

echo "== recovery check"
scripts/recovery_check.sh

# Host-independent gates (within-run ratios, bit-identity) all run before
# the first gate that compares against numbers recorded on another host.
echo "== shard check"
scripts/shard_check.sh

echo "== perf check"
scripts/perf_check.sh

echo "== simd check"
scripts/simd_check.sh

echo "== dataplane check"
scripts/dataplane_check.sh

echo "== population check"
scripts/population_check.sh
