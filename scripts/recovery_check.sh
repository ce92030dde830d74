#!/usr/bin/env bash
# Durability regression gate: a release study killed with SIGKILL at a
# deterministic point must resume from its newest on-disk generation and
# finish with output byte-identical to an uninterrupted run.
#
#   1. reference run of a bench study (no checkpointing);
#   2. doomed run with --checkpoint-dir, SIGKILLed right after generation 2
#      (kill-at-a-round determinism: generations are written once per
#      completed round, so "gen 2 exists" pins the kill in round space);
#   3. resumed run with --resume on the same directory;
#   4. byte-level diff of the CSV outputs — bit-identical recovery.
#
# The in-process counterpart (kill at *every* round, plus corruption
# fallback) is crates/core/tests/checkpoint_resume.rs.
#
# Usage: scripts/recovery_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

STUDY=(target/release/fedca-bench ext_dropout --scale smoke --seed 7)
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
CKPT="$WORK/ckpt"
GEN2="$CKPT/checkpoint-000002.ckpt"

echo "== recovery check: building fedca-bench (release)"
cargo build --release -q -p fedca-bench

echo "== reference run (uninterrupted, no checkpointing)"
"${STUDY[@]}" >"$WORK/reference.csv" 2>"$WORK/reference.log"

echo "== doomed run (SIGKILL once generation 2 lands)"
set +e
"${STUDY[@]}" --checkpoint-dir "$CKPT" \
  >"$WORK/doomed.csv" 2>"$WORK/doomed.log" &
PID=$!
for _ in $(seq 1 1200); do
  [ -f "$GEN2" ] && break
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
set -e
if [ ! -f "$GEN2" ]; then
  echo "recovery_check: doomed run never wrote generation 2 (died early?)" >&2
  sed -n '1,20p' "$WORK/doomed.log" >&2
  exit 1
fi

echo "== resumed run (--resume from $CKPT)"
"${STUDY[@]}" --checkpoint-dir "$CKPT" --resume \
  >"$WORK/resumed.csv" 2>"$WORK/resumed.log"

if ! grep -q "resumed from" "$WORK/resumed.log"; then
  echo "recovery_check: the resumed run never engaged a checkpoint" >&2
  sed -n '1,20p' "$WORK/resumed.log" >&2
  exit 1
fi

echo "== diff: resumed output vs uninterrupted reference"
if ! diff -u "$WORK/reference.csv" "$WORK/resumed.csv"; then
  echo "recovery_check: resumed output diverges from the reference" >&2
  exit 1
fi
echo "recovery_check: kill -9 + resume is byte-identical — ok"
