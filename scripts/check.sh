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

# The vendored `bytes`, `parking_lot` and `crossbeam` shims have no user
# left; their manifest edges stay only so that neither lockfile moves. No
# source file may start using one again.
echo "== no source uses a dead shim (bytes, parking_lot, crossbeam)"
if grep -rnE --include='*.rs' --exclude-dir=target '\bbytes::|parking_lot|crossbeam' \
  crates src tests examples; then
  echo "dead shims: the lines above use bytes, parking_lot or crossbeam" >&2
  exit 1
fi

# A committed study log is what `fedca-bench --out` wrote: its `[fedca-bench]`
# notes. Cargo's build lines in one mean it was captured from `cargo run`,
# whose output names a build host's paths and binaries, not the study.
echo "== committed study logs hold no cargo build lines"
if grep -nE '^[[:space:]]*(Compiling|Finished|Running) ' results/*/*.log; then
  echo "study logs: the lines above are cargo output; regenerate with target/release/fedca-bench <study> --out DIR" >&2
  exit 1
fi

# `Kernel::Avx512` checks avx512f alone, so its bodies may use only
# AVX-512F instructions: a BW or DQ op (or an EVEX xmm16–31 register, which
# needs VL) would fault on an F-only CPU that dispatch accepts. The audit
# reads the instructions the compiler emitted, not the intrinsics named.
echo "== instruction-set audit of the release fedca-bench"
cargo build --release -q -p fedca-bench
scripts/isa_audit.sh

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

# Bit-identity across reruns, worker counts, shard topologies and lazy
# populations, and the shard failure table, once more as the optimizer's
# release build compiles it.
echo "== determinism, topology and population suites (release)"
cargo test --release -q -p fedca-core \
  --test golden_trace --test executor_api --test profiler_determinism --test serde_roundtrip \
  --test shard_parity --test shard_api --test shard_transport --test population_parity

# `cargo test` above ran these on the tier dispatch picks; this pins the
# portable tier, so both are held to the one definition of every kernel's
# bits — the committed golden fixture included — whatever the host's best is.
# A client's error-feedback residual is decoded by the same tier-dispatched
# `dequantize_packed` the server folds with, hence compression_equivalence.
forced=(cargo test -q -p fedca-tensor -p fedca-nn -p fedca-core
  --test gemm_parity --test dataplane_parity
  --test conv_parity --test lstm_parity --test backward_params
  --test golden_trace --test aggregation_equivalence --test ingest_zero_alloc
  --test compression_equivalence)
echo "== kernel parity suites, golden trace, wire-vs-dense fold, lossy uploads (FEDCA_FORCE_KERNEL=scalar)"
FEDCA_FORCE_KERNEL=scalar "${forced[@]}"

# On an AVX-512 host dispatch picks the avx512 tier, so the passes above
# never run the AVX2 tile — the only fast tile of every host without
# AVX-512. Pin it too, here and under the sanitizer below. (Where avx2 is
# the best tier, the unforced passes already ran it.)
avx512_host=false
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
  avx512_host=true
  echo "== the same suites on the AVX2 tile (FEDCA_FORCE_KERNEL=avx2; this host's best tier is avx512)"
  FEDCA_FORCE_KERNEL=avx2 "${forced[@]}"
fi

# The kernels' `unsafe` SIMD and packing sites run under AddressSanitizer on
# every tier: the same four parity suites, built by nightly (std stays
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
  if $avx512_host; then
    echo "== the same suites under AddressSanitizer on the AVX2 tile (FEDCA_FORCE_KERNEL=avx2)"
    FEDCA_FORCE_KERNEL=avx2 "${asan[@]}"
  fi
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
# No study arms a worker panic (`panic_prob`; ext_dropout arms only crashes),
# so a panic on stderr is a bug even when the executor recovers from it and
# every CSV still matches.
./target/release/fedca-bench all --scale smoke --out "$tmp/smoke" 2>"$tmp/smoke.stderr" \
  || { cat "$tmp/smoke.stderr" >&2; exit 1; }
cat "$tmp/smoke.stderr" >&2
if grep -q 'panicked at' "$tmp/smoke.stderr"; then
  echo "study smoke: a worker panicked (see above)" >&2
  exit 1
fi
diff -r -x '*.log' "$tmp/smoke" results/smoke \
  || { echo "study smoke: CSVs differ from results/smoke (regenerate with fedca-bench all --scale smoke --out results/smoke)" >&2; exit 1; }
echo "study smoke: 14 CSVs match results/smoke, no worker panicked — ok"

echo "== chaos sweep"
scripts/chaos.sh "${CHAOS_SEEDS:-32}"

# ROADMAP's size bar counts non-blank lines that are not `//` comments (doc
# comments start with `//` too, so they are not counted) in the two crates
# that carry the FL mechanism, and ROADMAP also quotes the same count over
# every crate. Printed only; nothing gates on either.
echo "== size: non-blank, non-// lines in crates/{core,compress}/src"
find crates/core/src crates/compress/src -name '*.rs' -exec cat {} + | grep -cvE '^[[:space:]]*(//|$)'
echo "== size: non-blank, non-// lines in crates/*/src"
find crates/*/src -name '*.rs' -exec cat {} + | grep -cvE '^[[:space:]]*(//|$)'
