#!/usr/bin/env bash
# Benchmark smoke run, every workload traced: ci/bench_smoke.sh
#
# Runs bench/run.py on each workload for 5 s with per-layer tracing and
# exits 1 when the benchmark itself fails, when it prints a "missing
# per-layer metric" line, or when its last line reports a failed check. The
# last workload's output is left in bench-smoke.log. The benchmark runs in a
# fresh copy of the working tree (its tracked and untracked files, less what
# .gitignore names), so no .bench_work left by an earlier commit, such as the
# digest references of digests.stable, takes part: it runs as on a fresh
# CI runner. Needs scipy, which bench/worker.py imports to record its version.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT
# A file deleted from the working tree but still in the index is left out.
git ls-files -co --exclude-standard -z | tar --null --ignore-failed-read -T - -cf - | tar -x -C "$copy"
for workload in dup-ties ae-bptt paper-corpus; do
  (cd "$copy" && python3 bench/run.py --workload "$workload" --seconds 5 --trace 1) | tee bench-smoke.log
  if grep -q '^missing per-layer metric' bench-smoke.log; then exit 1; fi
  tail -n 1 bench-smoke.log | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["failed"] != 0)'
done
