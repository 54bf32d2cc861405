#!/bin/sh
# Repo verification: build, full test suite, then a smoke fault-injection
# campaign (fixed seed, all three ISAs) that must hit the coverage bar,
# a watchdog check that a non-terminating kernel halts cleanly, an
# instrumented-run check that the observability counters are live, a
# profiler check (hot-region table ranked by instructions, speedscope
# flame export, JSONL metrics series, --trace-cap validation), a
# dispatch-stats check that block chaining and site sharing engage, a
# check that the translated run_one paths agree with the generic
# step_all on each ISA, and rotating-interface validation on each ISA.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT INT TERM

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== lislint: shipped descriptions must be clean, all buildsets =="
dune exec bin/lisim.exe -- check --builtin all

echo "== lislint: the seeded bad spec must fail with its error codes =="
if dune exec bin/lisim.exe -- check examples >"$tmp" 2>&1; then
  echo "FAIL: lint of examples/lint_badspec.lis exited zero" >&2
  exit 1
fi
for code in L010 L040 L060 L070 L071 L072 L080 L081 L090 L091; do
  if ! grep -q "\[$code\]" "$tmp"; then
    echo "FAIL: seeded defect $code not reported" >&2
    cat "$tmp" >&2
    exit 1
  fi
done

echo "== lislint: --sarif must emit a SARIF 2.1.0 document =="
dune exec bin/lisim.exe -- check --sarif --builtin all >"$tmp"
if ! grep -q '"version":"2.1.0"' "$tmp"; then
  echo "FAIL: --sarif output is not SARIF 2.1.0" >&2
  head -c 400 "$tmp" >&2
  exit 1
fi
if ! grep -q '"automationDetails"' "$tmp"; then
  echo "FAIL: --sarif output has no per-unit automationDetails" >&2
  exit 1
fi

echo "== lislint: --suggest-buildset must print re-parseable buildsets =="
dune exec bin/lisim.exe -- check --suggest-buildset --builtin alpha >"$tmp" || true
if ! grep -q "^buildset " "$tmp"; then
  echo "FAIL: --suggest-buildset printed no buildset declaration" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== lislint: diagnostics must be byte-stable across runs =="
dune exec bin/lisim.exe -- check --json examples >"$tmp" 2>&1 || true
json2=$(mktemp)
dune exec bin/lisim.exe -- check --json examples >"$json2" 2>&1 || true
if ! cmp -s "$tmp" "$json2"; then
  rm -f "$json2"
  echo "FAIL: two identical check --json runs differ" >&2
  exit 1
fi
rm -f "$json2"

# The goldens pin every diagnostic, span and count. A change meant to
# alter them regenerates both files from the repository root:
#   dune exec bin/lisim.exe -- check examples > test/golden/check_examples.txt
#   dune exec bin/lisim.exe -- check --json examples > test/golden/check_examples.json
echo "== lislint: text and --json diagnostics must match test/golden =="
dune exec bin/lisim.exe -- check examples >"$tmp" || true
if ! diff -u test/golden/check_examples.txt "$tmp"; then
  echo "FAIL: lisim check examples differs from test/golden/check_examples.txt" >&2
  exit 1
fi
dune exec bin/lisim.exe -- check --json examples >"$tmp" || true
if ! diff -u test/golden/check_examples.json "$tmp"; then
  echo "FAIL: lisim check --json examples differs from test/golden/check_examples.json" >&2
  exit 1
fi

echo "== smoke injection campaign (seed 42, all ISAs) =="
dune exec bin/lisim.exe -- inject --isa all --seed 42 --rate 1e-3 \
  --sites reg,mem,pc,fault --min-coverage 95

echo "== watchdog: spin kernel must halt with a structured error =="
if dune exec bin/lisim.exe -- run --kernel spin --max-instructions 100000 \
    2>"$tmp"; then
  echo "FAIL: spin kernel terminated normally" >&2
  exit 1
fi
if ! grep -q "watchdog" "$tmp"; then
  echo "FAIL: spin kernel did not trip the watchdog" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== observability: instrumented run must report nonzero crossings =="
dune exec bin/lisim.exe -- run --kernel hash --stats >"$tmp"
if ! grep -E "synth\.entrypoint_calls +[1-9]" "$tmp" >/dev/null; then
  echo "FAIL: --stats reported no entrypoint crossings" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== profiler: hash kernel's inner loop must dominate the region table =="
dune exec bin/lisim.exe -- profile --kernel hash >"$tmp"
# the first data row is the hottest region; the hash inner loop owns the
# clear majority of retired instructions
top_share=$(awk 'NR==3 { sub(/%/, "", $3); print int($3) }' "$tmp")
if [ -z "$top_share" ] || [ "$top_share" -lt 50 ]; then
  echo "FAIL: profile top region share is ${top_share:-missing}%, expected >50%" >&2
  cat "$tmp" >&2
  exit 1
fi
# regions are ranked by exact instructions: the data rows' column 2
# never increases
if ! awk '/^0x/ { if (n++ && $2 > prev) bad = 1; prev = $2 }
          END { exit (n == 0 || bad) }' "$tmp"; then
  echo "FAIL: profile rows are not in non-increasing order of instructions" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== profiler: --flame-out must write a speedscope document =="
flame=$(mktemp)
trap 'rm -f "$tmp" "$flame"' EXIT INT TERM
dune exec bin/lisim.exe -- profile --kernel hash --flame-out "$flame" >"$tmp"
if ! grep -q '"\$schema":"https://www.speedscope.app/file-format-schema.json"' \
    "$flame"; then
  echo "FAIL: flame output is not a speedscope document" >&2
  head -c 400 "$flame" >&2
  exit 1
fi
if ! grep -q '"profiles":' "$flame"; then
  echo "FAIL: flame output has no profiles array" >&2
  exit 1
fi

echo "== metrics: --metrics-out must emit a parseable JSONL series =="
metrics=$(mktemp)
trap 'rm -f "$tmp" "$flame" "$metrics"' EXIT INT TERM
dune exec bin/lisim.exe -- run --kernel hash --metrics-out "$metrics" \
  --metrics-interval 0 >"$tmp"
if ! [ -s "$metrics" ]; then
  echo "FAIL: metrics file is empty" >&2
  exit 1
fi
if ! head -1 "$metrics" | grep -q '^{"v":1,"seq":0,'; then
  echo "FAIL: metrics first line is not a v1 seq-0 snapshot" >&2
  head -1 "$metrics" >&2
  exit 1
fi
if ! grep -q '"counters":{' "$metrics"; then
  echo "FAIL: metrics snapshots carry no counters" >&2
  exit 1
fi

echo "== trace ring: --trace-cap 0 must be a usage error =="
if dune exec bin/lisim.exe -- run --kernel hash --trace-cap 0 \
    >/dev/null 2>"$tmp"; then
  echo "FAIL: --trace-cap 0 was accepted" >&2
  exit 1
fi
if ! grep -q -- "--trace-cap must be positive" "$tmp"; then
  echo "FAIL: --trace-cap 0 did not report the usage error" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== dispatch: block engine must chain and share sites on a hot loop =="
dune exec bin/lisim.exe -- run --kernel sort -b block_min --stats >"$tmp"
for counter in chain_taken site_cache_hits; do
  if ! grep -E "core\.block_cache\.$counter +[1-9]" "$tmp" >/dev/null; then
    echo "FAIL: block_min run reported zero $counter" >&2
    cat "$tmp" >&2
    exit 1
  fi
done

echo "== dispatch: --no-chain --no-site-cache must run with caches cold =="
dune exec bin/lisim.exe -- run --kernel sort -b block_min --stats \
  --no-chain --no-site-cache >"$tmp"
for counter in chain_taken chain_miss site_cache_hits; do
  if grep -E "core\.block_cache\.$counter +[1-9]" "$tmp" >/dev/null; then
    echo "FAIL: $counter nonzero with translation caches disabled" >&2
    cat "$tmp" >&2
    exit 1
  fi
done

echo "== translated One: one_min, one_all_spec, block_min must agree with step_all =="
# step_all runs the generic per-segment items; the others run translated
# sites (one_min and one_all_spec through the decoded-instruction cache)
for isa in alpha arm ppc riscv; do
  want=""
  for bs in step_all one_min one_all_spec block_min; do
    dune exec bin/lisim.exe -- run --isa "$isa" -k sort -b "$bs" >"$tmp"
    got="$(grep -o "exit=.*" "$tmp" | head -1) $(grep -o "^[0-9]* instructions" "$tmp" | head -1)"
    if [ -z "$want" ]; then
      want=$got
    elif [ "$got" != "$want" ]; then
      echo "FAIL: $isa $bs disagrees with step_all" >&2
      echo "  step_all: $want" >&2
      echo "  $bs: $got" >&2
      exit 1
    fi
  done
done

echo "== validate: rotating interfaces must agree with the reference =="
# all 12 interfaces take turns on one machine, so block interfaces run
# blocks both on a first dispatch and on later ones
for isa in alpha arm ppc riscv; do
  for k in sort hash_loop; do
    dune exec bin/lisim.exe -- validate --isa "$isa" -k "$k" >"$tmp" 2>&1 || true
    if ! grep -q "^OK:" "$tmp"; then
      echo "FAIL: rotating validation of $k on $isa" >&2
      cat "$tmp" >&2
      exit 1
    fi
  done
done

echo "== fuzz: bounded healthy campaign must stay quiet (seed 42) =="
# per-ISA budgets sized to 0.2-0.7 s each at oracle throughput measured
# on a 2-core VM
for pair in alpha:942 arm:316 ppc:840 riscv:774 tiny:390; do
  isa=${pair%:*}
  budget=${pair#*:}
  dune exec bin/lisim.exe -- fuzz --isa "$isa" --seed 42 --budget "$budget"
done

echo "== fuzz: a seeded defect must be caught, shrunk and replayable =="
fuzzdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir"' EXIT INT TERM
if dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
    --mutate stride4 --out "$fuzzdir" >"$tmp" 2>&1; then
  echo "FAIL: stride4 mutation not detected" >&2
  cat "$tmp" >&2
  exit 1
fi
if ! grep -q "shrunk to" "$tmp"; then
  echo "FAIL: divergence was not shrunk" >&2
  cat "$tmp" >&2
  exit 1
fi
repro=$(ls "$fuzzdir"/fuzz-tiny-*.repro)
if dune exec bin/lisim.exe -- fuzz --isa tiny --replay "$repro" >"$tmp" 2>&1; then
  echo "FAIL: reproducer replayed clean" >&2
  cat "$tmp" >&2
  exit 1
fi
if ! grep -q "DIVERGES" "$tmp"; then
  echo "FAIL: replay did not report the divergence" >&2
  cat "$tmp" >&2
  exit 1
fi
# The defect lives in the block engine: the five block candidates
# diverge, the journaled ones included (they run the block engine on
# hooked sites shared through the plan), and the seven one_* and step_*
# candidates replay clean.
if ! grep -q ": 5 diverging / 12 checked$" "$tmp" \
    || ! grep -Eq "^  block_decode_spec +DIVERGES" "$tmp" \
    || ! grep -Eq "^  block_all_spec +DIVERGES" "$tmp"; then
  echo "FAIL: replay: want DIVERGES on the five block candidates only" >&2
  cat "$tmp" >&2
  exit 1
fi
for bs in one_min one_decode one_decode_spec one_all one_all_spec \
    step_all step_all_spec; do
  if ! grep -Eq "^  $bs +ok$" "$tmp"; then
    echo "FAIL: replay: $bs did not replay ok" >&2
    cat "$tmp" >&2
    exit 1
  fi
done

echo "== fuzz: memory- and register-detected defects must be killed where pinned =="
# stride4 shows as a pc divergence; these two defects are caught only by
# the oracle's memory and register compares. Each kill point (executions
# to the first divergence, its kind, the shrunk size) is fixed at seed 42.
expect_kill() {
  isa=$1 mutation=$2 budget=$3 kind=$4 execs=$5 size=$6
  if dune exec bin/lisim.exe -- fuzz --isa "$isa" --seed 42 --budget "$budget" \
      --mutate "$mutation" --out "$fuzzdir/kills" >"$tmp" 2>&1; then
    echo "FAIL: $isa/$mutation survived $budget oracle executions" >&2
    cat "$tmp" >&2
    exit 1
  fi
  if ! grep -q "DIVERGENCE after $execs oracle executions" "$tmp" \
      || ! grep -q "^  [a-z_]*: $kind after" "$tmp" \
      || ! grep -q "shrunk to $size instruction(s)" "$tmp"; then
    echo "FAIL: $isa/$mutation: want a $kind divergence after $execs executions, shrunk to $size" >&2
    cat "$tmp" >&2
    exit 1
  fi
}
expect_kill alpha skip-invalidate 40 mem 37 8
expect_kill tiny stale-chain 220 regs 217 1

echo "== super: supervised campaign must quarantine a seeded defect, exit 0 =="
superdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir" "$superdir"' EXIT INT TERM
dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
  --mutate stride4 --journal "$superdir/journal.jsonl" \
  --quarantine "$superdir/quarantine" >"$tmp"
if ! ls "$superdir"/quarantine/*.repro >/dev/null 2>&1; then
  echo "FAIL: supervised campaign quarantined no reproducer" >&2
  cat "$tmp" >&2
  exit 1
fi
if ! grep -q '"outcome":"quarantined"' "$superdir/journal.jsonl"; then
  echo "FAIL: journal records no quarantined case" >&2
  cat "$superdir/journal.jsonl" >&2
  exit 1
fi

echo "== super: quarantined cases must demote to the step_all reference =="
if ! grep -q '"level":"step_all"' "$superdir/journal.jsonl"; then
  echo "FAIL: no quarantined case degraded to step_all" >&2
  cat "$superdir/journal.jsonl" >&2
  exit 1
fi

echo "== super: --resume must skip every journaled case =="
dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
  --mutate stride4 --journal "$superdir/journal.jsonl" \
  --quarantine "$superdir/quarantine" --resume >"$tmp"
if ! grep -q "(0 executed, 50 resumed)" "$tmp"; then
  echo "FAIL: resume re-executed journaled cases" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== fleet: --jobs 4 must quarantine the exact bytes --jobs 1 does =="
fleetdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir" "$superdir" "$fleetdir"' EXIT INT TERM
# riscv kills stride4 through its RVC parcels, so each worker's
# synthesis cache is checked on a real ISA's plans as well as tiny16's
for pair in tiny:50 riscv:24; do
  isa=${pair%:*}
  budget=${pair#*:}
  for j in 1 4; do
    dune exec bin/lisim.exe -- fuzz --isa "$isa" --seed 42 --budget "$budget" \
      --mutate stride4 --jobs "$j" --journal "$fleetdir/$isa-j$j.jsonl" \
      --quarantine "$fleetdir/$isa-q$j" >"$tmp"
  done
  if [ -z "$(ls "$fleetdir/$isa-q1")" ]; then
    echo "FAIL: $isa stride4 campaign quarantined nothing" >&2
    exit 1
  fi
  d1=$(cd "$fleetdir/$isa-q1" && cat $(ls | sort) | cksum)
  d4=$(cd "$fleetdir/$isa-q4" && cat $(ls | sort) | cksum)
  if [ "$(ls "$fleetdir/$isa-q1" | sort)" != "$(ls "$fleetdir/$isa-q4" | sort)" ] \
    || [ "$d1" != "$d4" ]; then
    echo "FAIL: $isa parallel quarantine diverges from sequential" >&2
    echo "  jobs=1: $d1" >&2
    echo "  jobs=4: $d4" >&2
    exit 1
  fi
done

echo "== super: journaled inject campaign must agree across --jobs and resume =="
injdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir" "$superdir" "$fleetdir" "$injdir"' EXIT INT TERM
for j in 1 2; do
  dune exec bin/lisim.exe -- inject --isa all --seed 42 --rate 1e-3 \
    --budget 50000 --jobs "$j" --journal "$injdir/j$j.jsonl" \
    --quarantine "$injdir/q$j" >"$tmp"
done
if [ "$(sort "$injdir/j1.jsonl")" != "$(sort "$injdir/j2.jsonl")" ]; then
  echo "FAIL: inject journal at --jobs 2 differs from --jobs 1" >&2
  exit 1
fi
if ! dune exec bin/lisim.exe -- inject --isa all --seed 42 --rate 1e-3 \
    --budget 50000 --journal "$injdir/j1.jsonl" --quarantine "$injdir/q1" \
    --resume >"$tmp"; then
  echo "FAIL: resumed inject campaign exited nonzero" >&2
  cat "$tmp" >&2
  exit 1
fi
if [ "$(grep -c "resumed from journal" "$tmp")" -ne 4 ]; then
  echo "FAIL: inject --resume did not skip all 4 journaled cells" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== fleet: --jobs 0 must be rejected with exit 2 =="
if dune exec bin/lisim.exe -- fuzz --isa tiny --budget 1 --jobs 0 \
    >/dev/null 2>"$tmp"; then
  echo "FAIL: --jobs 0 accepted" >&2
  exit 1
fi
if ! grep -q "jobs must be a positive integer" "$tmp"; then
  echo "FAIL: --jobs 0 did not report a usage error" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== super: supervised run must agree with the plain run =="
dune exec bin/lisim.exe -- run --kernel sort -b block_min >"$tmp"
plain=$(grep -o "exit=[0-9]* output=.*" "$tmp" | head -1)
dune exec bin/lisim.exe -- run --kernel sort -b block_min --supervised >"$tmp"
supervised=$(grep -o "exit=[0-9]* output=.*" "$tmp" | head -1)
if [ "$plain" != "$supervised" ]; then
  echo "FAIL: supervised run disagrees with plain run" >&2
  echo "  plain:      $plain" >&2
  echo "  supervised: $supervised" >&2
  exit 1
fi

echo "verify: OK"
