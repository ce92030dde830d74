#!/usr/bin/env bash
# Trace-layer regression gate:
#   1. the golden-trace suite in release mode — the canonical event stream
#      must stay byte-identical to the committed fixture, across reruns,
#      and across 1-vs-4 worker pools;
#   2. the determinism/serde companions (executor API, profiler sampling,
#      serde round-trips) that pin the journal's contracts;
#   3. the trace_overhead benches as an overhead-regression guard: a
#      disabled tracer must cost low-single-digit nanoseconds per emit call
#      (the zero-cost claim), enforced against TRACE_EMIT_DISABLED_MAX_NS
#      (default 25 ns, generous for slow CI machines).
#
# Usage: scripts/trace_check.sh [--skip-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== golden trace + determinism suites (release)"
cargo test -p fedca-core --release -q \
  --test golden_trace \
  --test executor_api \
  --test profiler_determinism \
  --test serde_roundtrip

if [[ "${1:-}" == "--skip-bench" ]]; then
  echo "== trace_overhead bench skipped (--skip-bench)"
  exit 0
fi

echo "== trace_overhead bench (overhead-regression guard)"
MAX_NS="${TRACE_EMIT_DISABLED_MAX_NS:-25}"
# `tee >(cat >&2)`, not `tee /dev/stderr`: the latter reopens (and truncates)
# a log file that check.sh's stderr was redirected to.
OUT="$(cargo bench -p fedca-bench --bench profiler_overhead -- trace_overhead 2>&1 | tee >(cat >&2))"

# The disabled-emit median must stay within the zero-cost budget.
LINE="$(grep "trace_overhead/emit_disabled" <<<"$OUT" || true)"
if [[ -z "$LINE" ]]; then
  echo "trace_check: emit_disabled bench produced no measurement" >&2
  exit 1
fi
# criterion prints "time: [low median high]"; take the median + unit.
read -r MEDIAN UNIT <<<"$(sed -E 's/.*time:\s*\[[0-9.]+ [a-zµ]+ ([0-9.]+) ([a-zµ]+) .*/\1 \2/' <<<"$LINE")"
case "$UNIT" in
  ps) NS="$(awk "BEGIN{print $MEDIAN / 1000}")" ;;
  ns) NS="$MEDIAN" ;;
  µs | us) NS="$(awk "BEGIN{print $MEDIAN * 1000}")" ;;
  *)
    echo "trace_check: emit_disabled median is ${MEDIAN} ${UNIT} — not nanoseconds; regression" >&2
    exit 1
    ;;
esac
if awk "BEGIN{exit !($NS > $MAX_NS)}"; then
  echo "trace_check: disabled-tracer emit costs ${NS} ns (> ${MAX_NS} ns budget)" >&2
  exit 1
fi
echo "trace_check: disabled-tracer emit ${NS} ns (budget ${MAX_NS} ns) — ok"
