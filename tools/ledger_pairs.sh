#!/usr/bin/env bash
# Paired ledger runs of two checkouts, then their paired comparison:
#
#   tools/ledger_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [--seed S] [--seconds N]
#
# Runs PAIRS alternating pairs of `bash ledger/run.sh --workload WORKLOAD
# --seed S --seconds N` (seed 1 and 20 seconds by default), one run in
# each checkout per pair: the parent first on odd pairs, the change
# first on even ones, so neither side always runs on a warmer host.
# Each side's runs go to one `--out` JSONL file under .ledger/pairs/ in
# the current directory (emptied first; the runs' own output goes to a
# .log beside it), and then `ledger.exe compare PARENT CHANGE` prints
# each metric's medians, quartiles, pairs won and verdict.
#
# Exits non-zero only when a run fails: a verdict, even `WORSE than the
# bound`, is the comparison's output, not a failure. Both checkouts may
# be the same directory.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [--seed S] [--seconds N]" >&2
  exit 2
}

[ $# -ge 4 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
seed=1
seconds=20
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    *) usage ;;
  esac
done
case "$pairs" in
  '' | *[!0-9]* | 0) echo "$0: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

out=$(pwd)/.ledger/pairs
mkdir -p "$out"
stem="$workload-s$seed"
: >"$out/parent-$stem.jsonl"
: >"$out/change-$stem.jsonl"
: >"$out/parent-$stem.log"
: >"$out/change-$stem.log"

run() {
  local side=$1 dir=$2 pair=$3
  echo "pair $pair of $pairs: $side ($dir)"
  if ! bash "$dir/ledger/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 --out "$out/$side-$stem.jsonl" \
    >>"$out/$side-$stem.log" 2>&1; then
    echo "$0: the $side run of pair $pair failed; see $out/$side-$stem.log" >&2
    exit 1
  fi
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
done

echo "A = parent: $out/parent-$stem.jsonl"
echo "B = change: $out/change-$stem.jsonl"
# compare exits 1 on a `WORSE than the bound` verdict; only a higher
# status (a crash) is a failure here.
status=0
bash "$change/ledger/run.sh" compare "$out/parent-$stem.jsonl" \
  "$out/change-$stem.jsonl" || status=$?
if [ "$status" -gt 1 ]; then exit "$status"; fi
