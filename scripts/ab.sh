#!/usr/bin/env bash
# Pair runner: one workload's end-to-end benchmark metrics, a parent revision
# against the working tree, over alternating pairs of runs on this host.
#
# A single parent/change suite pair is not a verdict on a shared host (single
# `pop_dense` runs have spread 218–312 rounds/s on one 2-core machine). This
# is: the change is better on a metric when it wins at least 9 of 10 pairs
# and the two medians are further apart than the parent's quartile spread
# (q3 − q1); worse when the parent does.
#
# Usage: scripts/ab.sh PARENT_REV WORKLOAD [PAIRS=10] [SEED=42]
#
# The parent's examples/benchmark is built from a detached `git worktree` at
# target/ab/parent (kept between calls so rebuilds are incremental; drop it
# with `git worktree remove --force target/ab/parent`), the working tree's
# from the working tree, both offline and each into its own directory under
# target/ab. Every run is `benchmark --workload W --seed S --trace 0` at the
# default run length (BENCHMARK.json's run_seconds); the side that runs first
# alternates from pair to pair. The result lines are kept in
# target/ab/WORKLOAD-SEED.jsonl, tagged with their side and pair.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: scripts/ab.sh PARENT_REV WORKLOAD [PAIRS=10] [SEED=42]" >&2
  exit 2
fi
rev="$1" workload="$2" pairs="${3:-10}" seed="${4:-42}"
command -v jq >/dev/null || { echo "ab.sh: needs jq" >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: PAIRS must be a positive integer" >&2; exit 2; }
parent="$(git rev-parse --verify --quiet "$rev^{commit}")" \
  || { echo "ab.sh: $rev is not a commit" >&2; exit 2; }

root="$PWD"
ab="$root/target/ab"
wt="$ab/parent"
mkdir -p "$ab"
if [[ -e "$wt/.git" ]]; then
  git -C "$wt" checkout -q --detach "$parent"
else
  git worktree add -q --detach "$wt" "$parent"
fi

echo "== building the parent ($(git rev-parse --short "$parent")) and the working tree"
CARGO_TARGET_DIR="$ab/parent-target" cargo build --release --offline --quiet \
  --manifest-path "$wt/examples/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$ab/change-target" cargo build --release --offline --quiet \
  --manifest-path examples/benchmark/Cargo.toml

out="$ab/$workload-$seed.jsonl"
: >"$out"
echo "== $pairs pairs of --workload $workload --seed $seed --trace 0 → $out"
for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    line="$("$ab/$side-target/release/benchmark" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)"
    jq -c --arg side "$side" --argjson pair "$pair" '{side: $side, pair: $pair} + .' <<<"$line" >>"$out"
  done
  echo "   pair $pair done (${order[0]} first)"
done

jq -rs --argjson defs "$(jq -c '.end_to_end' BENCHMARK.json)" '
  def q(p): sort as $s | ($s | length) as $n | (p * ($n - 1)) as $i
    | ($i | floor) as $lo | ($i | ceil) as $hi
    | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
  def fmt: if . == null then "-" elif (. | fabs) >= 100 then (. * 10 | round) / 10
    elif (. | fabs) >= 1 then (. * 1000 | round) / 1000
    else (. * 100000 | round) / 100000 end | tostring;
  def pad(n): tostring | if length < n then . + (" " * (n - length)) else . end;
  . as $runs
  | ($runs | map(.pair) | unique) as $pairs
  | ($runs | map(select(.correct != true or .failed != 0)) | length) as $bad
  | (if $bad > 0 then "WARNING: \($bad) run(s) failed a check or a client round" else empty end),
    ($defs[] | . as $d
      | [$pairs[] as $p
          | { pair: $p,
              first: ($runs | map(select(.pair == $p)) | .[0].side),
              parent: ($runs[] | select(.pair == $p and .side == "parent") | .metrics[$d.name].value),
              change: ($runs[] | select(.pair == $p and .side == "change") | .metrics[$d.name].value) }
          | .win = (if $d.better == "higher" then .change > .parent else .change < .parent end)
          | .loss = (if $d.better == "higher" then .change < .parent else .change > .parent end)]
      | . as $rows
      | ($rows | map(.parent)) as $pv | ($rows | map(.change)) as $cv
      | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
      | (($pv | q(0.75)) - ($pv | q(0.25))) as $spread
      | ($rows | map(select(.win)) | length) as $wins
      | ($rows | map(select(.loss)) | length) as $losses
      | (($cm - $pm) | fabs > $spread) as $apart
      | "",
        "\($d.name) (\($d.unit), \($d.better) is better)",
        "  \("pair" | pad(6))\("first" | pad(8))\("parent" | pad(12))\("change" | pad(12))winner",
        ($rows[] | "  \(.pair | pad(6))\(.first | pad(8))\(.parent | fmt | pad(12))\(.change | fmt | pad(12))\(if .win then "change" elif .loss then "parent" else "tie" end)"),
        "  \("median" | pad(14))\($pm | fmt | pad(12))\($cm | fmt)",
        "  \("q1" | pad(14))\($pv | q(0.25) | fmt | pad(12))\($cv | q(0.25) | fmt)",
        "  \("q3" | pad(14))\($pv | q(0.75) | fmt | pad(12))\($cv | q(0.75) | fmt)",
        "  change wins \($wins)/\($rows | length); medians \(if $apart then "further apart than" else "within" end) the parent quartile spread \($spread | fmt): \(
          if $wins * 10 >= 9 * ($rows | length) and $apart then "CHANGE BETTER"
          elif $losses * 10 >= 9 * ($rows | length) and $apart then "CHANGE WORSE"
          else "no verdict" end)")
' "$out"
