#!/usr/bin/env bash
# The kernel, clustering, mapping and golden tests on one CPU: ci/one_cpu.sh
#
# The distance kernel runs its blocks on one worker per CPU the process may
# use, so the whole suite runs them on every CPU of the host. On one CPU they
# run inline; these tests run again that way. The tests that force a worker
# count cover both paths on any host already; this runs the others inline
# too. tests/test_golden_digests.py skips on hosts other than the one that
# made golden_digests.json, so there it has no effect. Needs taskset.
# Exits with pytest's code.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} taskset -c 0 python -m pytest -q \
    tests/test_distances.py tests/test_hierarchy.py tests/test_mapping.py tests/test_golden_digests.py
