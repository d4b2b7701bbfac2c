#!/usr/bin/env bash
# The real-corpus harness on a generated UAH-layout corpus: ci/uah_generated.sh
#
# The harness (pytest -m uah) runs only where UAH_DRIVESET_ROOT names a
# corpus. Here it runs on the UAH-layout corpus bench/corpus.py writes for
# the ae-bptt workload (seed 0), so it cannot go stale. The corpus goes to
# $RUNNER_TEMP/uah-corpus, or to a temporary directory removed at exit when
# RUNNER_TEMP is unset. Exits nonzero when writing the corpus or a harness
# test fails.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
if [ -n "${RUNNER_TEMP-}" ]; then
  export UAH_DRIVESET_ROOT="$RUNNER_TEMP/uah-corpus"
else
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
  export UAH_DRIVESET_ROOT="$scratch/uah-corpus"
fi
PYTHONPATH=bench python -c 'import os; from pathlib import Path; from corpus import WORKLOADS, write_corpus
write_corpus(Path(os.environ["UAH_DRIVESET_ROOT"]), WORKLOADS["ae-bptt"], 0)'
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -m uah
