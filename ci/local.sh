#!/usr/bin/env bash
# Every CI step on this checkout, with this interpreter: ci/local.sh [BASE]
#
# Runs the test suite, the one-CPU tests, the memory-bounded tests alone,
# the real-corpus harness on a generated corpus, the artifact digests
# against BASE (default HEAD~1, as ci/same_digests.sh takes it) and the
# benchmark smoke run, one after another, each as its own script. Every
# step runs even when an earlier one fails; the summary lists each step's
# result, and the exit code is 1 when any step failed. Needs what those
# steps need: pytest, taskset and scipy.
set -uo pipefail
cd "$(git rev-parse --show-toplevel)"
failed=()
step() {
  echo "== $*"
  if "$@"; then echo "== PASS: $*"; else echo "== FAIL: $*"; failed+=("$*"); fi
}
step ci/tests.sh
step ci/one_cpu.sh
step ci/memory_alone.sh
step ci/uah_generated.sh
step ci/same_digests.sh "$@"
step ci/bench_smoke.sh
echo "skipped: the numpy 1.24 leg of the CI matrix (Python 3.10 with numpy==1.24.*), which needs its own environment"
if [ ${#failed[@]} -gt 0 ]; then
  printf 'failed: %s\n' "${failed[@]}"
  exit 1
fi
echo "every step passed"
