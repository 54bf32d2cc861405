#!/usr/bin/env bash
# Host instructions per simulated instruction of one steady-state region:
#
#   tools/icount/icount.sh [--profile [TOP]] ISA BUILDSET STYLE KERNEL WARMUP LENGTH
#
# e.g. tools/icount/icount.sh alpha step_all run_fast sort:53 6000 300
#
# Builds this checkout's region driver and tracer (Linux only), runs
# the driver under the tracer, which single-steps the LENGTH-instruction
# region after WARMUP instructions, and prints the host instructions
# per simulated instruction with the compiler version and dune profile
# beside them: counts from different builds do not compare. With
# --profile it also prints the TOP (default 25) symbols by host
# instructions, resolved with nm against the driver (ASLR is turned off
# for the traced process, and its load base recorded). Single-stepping
# runs at tens of thousands of steps a second: a 300-instruction
# step_all region takes 5-20 s.
set -euo pipefail

top=0
if [ "${1:-}" = --profile ]; then
  shift
  top=25
  case "${1:-}" in '' | *[!0-9]*) ;; *) top=$1; shift ;; esac
fi
if [ $# -ne 6 ]; then
  echo "usage: $0 [--profile [TOP]] ISA BUILDSET STYLE KERNEL WARMUP LENGTH" >&2
  exit 2
fi
if [ "$(uname -s)" != Linux ]; then
  echo "$0: the tracer needs Linux (ptrace single-stepping)" >&2
  exit 2
fi

cd "$(dirname "$0")/../.."
dune build --root . --display quiet ./tools/icount/region.exe ./tools/icount/trace 1>&2
bin=_build/default/tools/icount
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

hist=()
[ "$top" -gt 0 ] && hist=(-h "$tmp/hist")
"$bin/trace" "${hist[@]}" "$bin/region.exe" "$@" >"$tmp/out" 2>"$tmp/err" || {
  cat "$tmp/out" "$tmp/err" >&2
  exit 1
}
steps=$(sed -n 's/^steps=\([0-9]*\).*/\1/p' "$tmp/err")
instrs=$(sed -n 's/^instrs=\([0-9]*\).*/\1/p' "$tmp/out")
grep -q halted "$tmp/out" && echo "warning: $(cat "$tmp/out")" >&2

echo "cell: $1 $2 $3 $4, warm-up $5, region $instrs instructions"
echo "build: ocamlopt $(ocamlfind ocamlopt -version 2>/dev/null || ocamlopt -version), dune profile ${DUNE_PROFILE:-dev}"
echo "host instructions: $steps"
awk -v s="$steps" -v n="$instrs" \
  'BEGIN { printf "host instructions per simulated instruction: %.1f\n", s / n }'

[ "$top" -gt 0 ] || exit 0
nm -n --defined-only "$bin/region.exe" | awk '$2 ~ /^[tTwW]$/ { print $1, $3 }' >"$tmp/syms"
# Each stepped pc, less the load base, goes to the last symbol at or
# below it; pcs outside the executable (libc, the vDSO) go to "[other]".
awk -v top="$top" -v total="$steps" '
  function hex(s,   i, v) {
    v = 0; s = tolower(s); sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
  }
  FNR == NR { addr[n] = hex($1); name[n] = $2; n++; next }
  $1 == "base" { base = hex($2); next }
  {
    off = hex($1) - base; lo = 0; hi = n - 1; k = -1
    while (lo <= hi) { mid = int((lo + hi) / 2); if (addr[mid] <= off) { k = mid; lo = mid + 1 } else hi = mid - 1 }
    sym = (k < 0 || off - addr[k] > 65536) ? "[other]" : name[k]
    count[sym] += $2
  }
  END { for (s in count) printf "%10d %5.1f%%  %s\n", count[s], 100 * count[s] / total, s }
' "$tmp/syms" "$tmp/hist" | sort -rn | head -n "$top"
