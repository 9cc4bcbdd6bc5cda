#!/usr/bin/env bash
# The perf gate: judges a change against its parent with the declared
# benchmark (BENCHMARK.json, perfbench/). Run from anywhere inside the
# repository:
#   .github/perf_gate.sh <parent-rev> <change-rev>
#
# Both revs are checked out as git worktrees at two paths of equal
# length ($tmp/p and $tmp/c): smc_sweep moves with link layout, and
# cargo hashes the build path into every symbol. Each tree is built by
# its own perfbench/run.sh (a smoke run, so a broken build or check
# fails early). Then PAIRS alternating parent/change pairs of every
# workload in the parent's BENCHMARK.json run for its run_seconds each,
# with the same seed on both sides of a pair; odd pairs run the parent
# first, even pairs the change, so drift during the gate hits both sides
# alike. Prints the median and quartiles of each end-to-end metric per
# side, and exits non-zero when
#   - any run exits non-zero, prints "correct": false or reports
#     failed > 0 (the gate stops at the first such run), or
#   - for some (workload, metric), the change's median is worse than the
#     parent's by more than the metric's bound, in its `better`
#     direction, and the change lost more than half of the pairs on it.
# A metric whose parent quartile spread exceeds its bound is marked
# "unresolved": the gate cannot tell a bound-sized change from noise
# there, and says so. The bounds are the parent's, so a change cannot
# loosen the gate that judges it.
set -euo pipefail

# Ten pairs: the number the declared benchmark is judged with.
readonly PAIRS=10

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-rev> <change-rev>" >&2
  exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") \
  || { echo "perf_gate: unknown revision $1" >&2; exit 2; }
change=$(git -C "$repo" rev-parse --verify --quiet "$2^{commit}") \
  || { echo "perf_gate: unknown revision $2" >&2; exit 2; }

tmp=$(mktemp -d)
cleanup() {
  git -C "$repo" worktree remove --force "$tmp/p" 2>/dev/null || true
  git -C "$repo" worktree remove --force "$tmp/c" 2>/dev/null || true
  rm -rf "$tmp"
  git -C "$repo" worktree prune
}
trap cleanup EXIT
git -C "$repo" worktree add --detach --quiet "$tmp/p" "$parent"
git -C "$repo" worktree add --detach --quiet "$tmp/c" "$change"
# Each tree builds into its own perfbench/target.
unset CARGO_TARGET_DIR

spec="$tmp/p/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
echo "perf_gate: parent $parent, change $change; $PAIRS pairs of ${workloads[*]}, ${seconds} s each"

# One perfbench run on one side; its result object is appended to
# $tmp/runs.jsonl. Any failed run ends the gate.
run() { # side workload seed seconds [extra args...]
  local side=$1 workload=$2 seed=$3 secs=$4
  shift 4
  local dir="$tmp/${side:0:1}" out="$tmp/out" err="$tmp/err" status=0 line
  (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$secs" --trace 0 "$@") >"$out" 2>"$err" || status=$?
  line=$(tail -n 1 "$out")
  if [ "$status" -ne 0 ] \
    || ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null 2>&1; then
    echo "perf_gate: FAIL: $side $workload seed $seed (exit $status): ${line:-no result}" >&2
    tail -n 20 "$err" >&2
    exit 1
  fi
  jq -c --arg side "$side" --arg w "$workload" --argjson seed "$seed" \
    '{side: $side, workload: $w, pair: $seed, metrics: (.metrics | map_values(.value))}' \
    <<<"$line" >>"$tmp/runs.jsonl"
}

for side in parent change; do
  echo "perf_gate: building $side"
  run "$side" "${workloads[0]}" 0 0 --smoke
done
: >"$tmp/runs.jsonl"
for pair in $(seq 1 "$PAIRS"); do
  for workload in "${workloads[@]}"; do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$workload" "$pair" "$seconds"
    done
    echo "perf_gate: pair $pair/$PAIRS $workload done"
  done
done

# One row per (workload, metric): both sides' median and quartiles, the
# change's median ratio, the pairs it lost, and the verdict.
jq -r -s --slurpfile spec "$spec" '
  def quantile($q): sort as $s | ((($s | length) - 1) * $q) as $pos | ($pos | floor) as $i
    | $s[$i] + ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]) * ($pos - $i);
  . as $runs
  | $spec[0] as $b
  | $b.workloads[].name as $w
  | $b.end_to_end[] as $m
  | [$runs[] | select(.workload == $w)] as $r
  | ([$r[] | select(.side == "parent")] | sort_by(.pair) | map(.metrics[$m.name])) as $p
  | ([$r[] | select(.side == "change")] | sort_by(.pair) | map(.metrics[$m.name])) as $c
  | (if $m.better == "lower" then 1 else -1 end) as $sign
  | ($p | quantile(0.5)) as $pm
  | ($c | quantile(0.5)) as $cm
  | ($p | quantile(0.75) - quantile(0.25)) as $piqr
  | ([range($p | length) | select(($c[.] - $p[.]) * $sign > 0)] | length) as $lost
  | (if ($cm - $pm) * $sign > $m.bound * $pm and $lost * 2 > ($p | length) then "FAIL"
     elif $piqr > $m.bound * $pm then "unresolved"
     else "ok" end) as $verdict
  | [$w, $m.name, $m.unit, $m.better, $m.bound,
     $pm, ($p | quantile(0.25)), ($p | quantile(0.75)),
     $cm, ($c | quantile(0.25)), ($c | quantile(0.75)),
     (if $pm == 0 then 0 else $cm / $pm end), $lost, ($p | length), $verdict]
  | @tsv' "$tmp/runs.jsonl" >"$tmp/summary.tsv"

awk -F'\t' '
  BEGIN {
    printf "%-10s %-16s %-4s %-6s %5s  %-34s %-34s %6s %5s  %s\n", "workload", "metric", "unit",
      "better", "bound", "parent median [q1, q3]", "change median [q1, q3]", "c/p", "lost", "verdict"
  }
  {
    printf "%-10s %-16s %-4s %-6s %5g  %-34s %-34s %6.3f %2d/%-2d  %s\n", $1, $2, $3, $4, $5,
      sprintf("%.4g [%.4g, %.4g]", $6, $7, $8), sprintf("%.4g [%.4g, %.4g]", $9, $10, $11),
      $12, $13, $14, $15
    if ($15 == "FAIL") failed = 1
  }
  END { exit failed }' "$tmp/summary.tsv" || {
  echo "perf_gate: FAIL: the change is worse than its parent beyond a bound" >&2
  exit 1
}
echo "perf_gate: OK"
