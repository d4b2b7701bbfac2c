#!/usr/bin/env bash
# The whole test suite, as every leg of the CI matrix runs it: ci/tests.sh
#
# The fifteen slowest tests are listed at the end. Exits with pytest's code.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=15
