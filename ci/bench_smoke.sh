#!/usr/bin/env bash
# Benchmark smoke run, every workload traced: ci/bench_smoke.sh
#
# Runs bench/run.py on each workload for 5 s with per-layer tracing and
# exits 1 when the benchmark itself fails, when it prints a "missing
# per-layer metric" line, or when its last line reports a failed check. The
# last workload's output is left in bench-smoke.log. Needs scipy, which
# bench/worker.py imports to record its version.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
for workload in dup-ties ae-bptt paper-corpus; do
  python3 bench/run.py --workload "$workload" --seconds 5 --trace 1 | tee bench-smoke.log
  if grep -q '^missing per-layer metric' bench-smoke.log; then exit 1; fi
  tail -n 1 bench-smoke.log | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["failed"] != 0)'
done
