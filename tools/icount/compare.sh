#!/usr/bin/env bash
# Host instructions per simulated instruction of the same cells in two
# checkouts:
#
#   tools/icount/compare.sh PARENT_DIR CHANGE_DIR [CELL...]
#
# e.g. tools/icount/compare.sh ../parent . "alpha step_all run_fast"
#
# A CELL is one argument, "ISA BUILDSET STYLE [KERNEL WARMUP LENGTH]"
# (kernel, warm-up and length default to sort:53 6000 300). Without
# one, the cells are those listed in tools/icount/cells. Each checkout
# counts with its own tools/icount/icount.sh, so each builds and runs
# its own region driver. The output is a markdown table: per cell (its
# kernel, warm-up and length shown unless they are the defaults) the
# parent's count, the change's, the delta and the percentage, then
# each checkout's build line (compiler version and dune profile). Counts
# are exact, so one count per side settles a cell.
#
# Exits non-zero only when a count fails: its cell reads "failed" and
# the other cells still run. Both checkouts may be the same directory.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_DIR CHANGE_DIR [CELL...]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
for dir in "$parent" "$change"; do
  if [ ! -f "$dir/tools/icount/icount.sh" ]; then
    echo "$0: $dir has no tools/icount/icount.sh" >&2
    exit 2
  fi
done

cells=()
if [ $# -gt 0 ]; then
  cells=("$@")
else
  while read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    cells+=("$line")
  done <"$(dirname "$0")/cells"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# [count SIDE DIR ARGS...] counts one cell in DIR. It leaves the count
# in $tmp/SIDE.n and the build line in $tmp/SIDE.build, or fails with
# icount.sh's output on stderr.
count() {
  local side=$1 dir=$2
  shift 2
  if ! bash "$dir/tools/icount/icount.sh" "$@" </dev/null \
    >"$tmp/$side.out" 2>"$tmp/$side.err"; then
    echo "$side ($dir): icount.sh $* failed:" >&2
    cat "$tmp/$side.out" "$tmp/$side.err" >&2
    return 1
  fi
  sed -n 's/^host instructions per simulated instruction: //p' \
    "$tmp/$side.out" >"$tmp/$side.n"
  sed -n 's/^build: //p' "$tmp/$side.out" >"$tmp/$side.build"
  [ -s "$tmp/$side.n" ]
}

status=0
parent_build=
change_build=
echo "| cell | parent | change | delta | % |"
echo "|---|---:|---:|---:|---:|"
for cell in "${cells[@]}"; do
  read -r -a args <<<"$cell"
  case ${#args[@]} in
    3) args+=(sort:53 6000 300) ;;
    6) ;;
    *)
      echo "$0: a cell is \"ISA BUILDSET STYLE [KERNEL WARMUP LENGTH]\": '$cell'" >&2
      exit 2
      ;;
  esac
  label="${args[*]}"
  label=${label% sort:53 6000 300}
  if count parent "$parent" "${args[@]}" && count change "$change" "${args[@]}"
  then
    p=$(cat "$tmp/parent.n")
    c=$(cat "$tmp/change.n")
    parent_build=${parent_build:-$(cat "$tmp/parent.build")}
    change_build=${change_build:-$(cat "$tmp/change.build")}
    awk -v l="$label" -v p="$p" -v c="$c" 'BEGIN {
      printf "| %s | %.1f | %.1f | %+.1f | %+.1f%% |\n", l, p, c, c - p, 100 * (c - p) / p
    }'
  else
    echo "| $label | failed | | | |"
    status=1
  fi
done
echo
echo "parent build: ${parent_build:-none} ($parent)"
echo "change build: ${change_build:-none} ($change)"
if [ -n "$parent_build" ] && [ "$parent_build" != "$change_build" ]; then
  echo "warning: the builds differ, and counts from different builds do not compare"
fi
exit "$status"
