#!/usr/bin/env bash
# Build the ledger from this checkout's sources, then run it:
#   bash ledger/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
# Arguments go to ledger.exe unchanged (see ledger/README.md). Build
# output goes to stderr, so the last line of stdout is the run's JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "ledger: $(pwd) is not a lisim source tree (no dune-project or lib/)" >&2
  exit 2
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
