#!/usr/bin/env bash
# The repo's one gate: formatting, lints, doc links, the full test suite,
# the suites that must also hold in release mode and on the portable kernel
# tier, the benchmark's correctness checks and fingerprints, the committed
# study results and the chaos sweep. Nothing here compares a
# measured time, rate or RSS with a recorded number: a performance verdict
# is two benchmark suite runs — parent and change — on one host (README,
# "Gates").
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

# Doc links name items; a deleted or renamed item must not leave one dangling.
echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test"
cargo test --workspace -q

# Bit-identity across reruns, worker counts, shard topologies, failovers,
# lazy populations and snapshot/restore at every round, once more as the
# optimizer's release build compiles it.
echo "== determinism, topology and population suites (release)"
cargo test --release -q -p fedca-core \
  --test golden_trace --test executor_api --test profiler_determinism --test serde_roundtrip \
  --test shard_parity --test shard_api --test shard_transport --test population_parity \
  --test snapshot_restore

# `cargo test` above ran these on the tier dispatch picks; this pins the
# portable tier, so both are held to the one definition of every kernel's
# bits — the committed golden fixture included — whatever the host's best is.
# A client's error-feedback residual is decoded by the same tier-dispatched
# `dequantize_packed` the server folds with, hence compression_equivalence.
echo "== kernel parity suites, golden trace, wire-vs-dense fold, lossy uploads (FEDCA_FORCE_KERNEL=scalar)"
FEDCA_FORCE_KERNEL=scalar cargo test -q -p fedca-tensor -p fedca-nn -p fedca-core \
  --test gemm_parity --test dataplane_parity \
  --test conv_parity --test lstm_parity --test backward_params \
  --test golden_trace --test aggregation_equivalence --test ingest_zero_alloc \
  --test compression_equivalence

# The kernels' `unsafe` SIMD and packing sites run under AddressSanitizer on
# both tiers: the same four parity suites, built by nightly (std stays
# uninstrumented: there is no rust-src for -Zbuild-std). `--target` keeps
# the instrumented artifacts apart from the host build's. ~20 s from cold.
if cargo +nightly --version >/dev/null 2>&1; then
  echo "== kernel parity suites under AddressSanitizer (nightly; unforced, then FEDCA_FORCE_KERNEL=scalar)"
  host="$(rustc -vV | sed -n 's/^host: //p')"
  asan=(env RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan
    cargo +nightly test --offline -q --target "$host" -p fedca-tensor -p fedca-nn
    --test gemm_parity --test dataplane_parity --test conv_parity --test lstm_parity)
  "${asan[@]}"
  FEDCA_FORCE_KERNEL=scalar "${asan[@]}"
else
  echo "== nightly toolchain not installed; skipping the AddressSanitizer pass" >&2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# examples/benchmark is a package outside the workspace, so the steps above
# never compile it. The suite exits non-zero on any failed check of any
# workload (fingerprint(cnn_fedca_shard2) == fingerprint(cnn_fedca) is one).
# "A change did not move the arithmetic" is the gate: every seed-42
# trajectory fingerprint must equal the recorded one, on any host.
echo "== benchmark suite + fingerprints vs baselines/set1.json"
bench=(cargo run --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml --)
"${bench[@]}" --seconds 2 --out "$tmp/suite.json"
# Exit 1 = "a bounded cell exceeds": not a gate against another host's numbers.
table="$("${bench[@]}" --compare examples/benchmark/baselines/set1.json "$tmp/suite.json")" || [[ $? -eq 1 ]]
echo "$table"
if grep -q 'fingerprint DIFFERS' <<<"$table"; then
  echo "benchmark: a seed-42 fingerprint differs from examples/benchmark/baselines/set1.json" >&2
  exit 1
fi

# The committed smoke results are what the tree prints: regenerate the whole
# study in one process and diff.
echo "== study smoke vs results/smoke"
cargo build --release -q -p fedca-bench
./target/release/fedca-bench all --scale smoke --out "$tmp/smoke"
diff -r -x '*.log' "$tmp/smoke" results/smoke \
  || { echo "study smoke: CSVs differ from results/smoke (regenerate with fedca-bench all --scale smoke --out results/smoke)" >&2; exit 1; }
echo "study smoke: 14 CSVs match results/smoke — ok"

echo "== chaos sweep"
scripts/chaos.sh "${CHAOS_SEEDS:-32}"
