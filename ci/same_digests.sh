#!/usr/bin/env bash
# Same artifact digests and outcomes as a base commit: ci/same_digests.sh [BASE]
#
# Runs the golden pipelines of tests/test_golden_digests.py at BASE (default
# HEAD~1) and at the working tree, each with its own src, and prints the
# artifacts that moved and the golden entries that changed. The digest test
# skips on hosts other than the one that made golden_digests.json; this
# script still holds a change to its stated artifacts. With the golden
# `runs` map unchanged, no artifact may move. When it changed, the two sets
# must be equal, but only on a host whose environment is the golden file's:
# which artifacts move can depend on the BLAS and CPU, so on another host
# the sets are printed and not compared. When both trees define outcomes,
# it also prints the outcomes that moved; an outcome does not depend on the
# host, so on any host every outcome that moved must have its entry in the
# golden `outcomes` map edited. When BASE predates that map, it says so.
# Exits 1 when a check fails; exits 0 with a notice when BASE is empty or
# has no golden digests. Needs no network: BASE is read from the local
# repository with git archive.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
BASE=${1-$(git rev-parse -q --verify HEAD~1 || true)}
if [ -z "$BASE" ] || ! git cat-file -e "$BASE^{commit}" 2>/dev/null \
    || ! git cat-file -e "$BASE:tests/test_golden_digests.py" 2>/dev/null \
    || ! git cat-file -e "$BASE:tests/golden_digests.json" 2>/dev/null; then
  echo "no base commit with golden digests to compare with"; exit 0
fi
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/base"
git archive "$BASE" | tar -x -C "$scratch/base"
digests() {
  (cd "$1" && PYTHONPATH=src:tests python3 -c '
import json, sys, tempfile
from pathlib import Path
import test_golden_digests as golden
with tempfile.TemporaryDirectory() as scratch:
    if hasattr(golden, "run_pipelines"):
        result = golden.run_pipelines(Path(scratch))
    else:  # a tree from before the outcomes map
        result = {"runs": golden.run_digests(Path(scratch))}
json.dump(result, sys.stdout, indent=2, sort_keys=True)
')
}
digests "$scratch/base" > "$scratch/base-digests.json"
digests "$PWD" > "$scratch/head-digests.json"
git show "$BASE:tests/golden_digests.json" > "$scratch/base-golden.json"
PYTHONPATH=src:tests python3 - "$scratch/base-digests.json" "$scratch/head-digests.json" \
    "$scratch/base-golden.json" tests/golden_digests.json <<'PY'
import json, sys
from test_golden_digests import environment, moved_entries
base, head, base_golden, head_golden = (json.load(open(path)) for path in sys.argv[1:])
failed = False
moved = set(moved_entries(base["runs"], head["runs"]))
edited = set(moved_entries(base_golden["runs"], head_golden["runs"]))
print("artifacts that moved:", *sorted(moved) or ["none"], sep="\n  ")
print("golden entries that changed:", *sorted(edited) or ["none"], sep="\n  ")
if edited and head_golden["environment"] != environment():
    print(f"golden_digests.json was made under {head_golden['environment']}; this host is "
          f"{environment()}, where other artifacts may move, so the sets are not compared")
elif moved != edited:
    print("moved without a golden change:", *sorted(moved - edited) or ["none"], sep="\n  ")
    print("golden change without a move:", *sorted(edited - moved) or ["none"], sep="\n  ")
    failed = True
if "outcomes" not in base:
    print("BASE predates the golden outcomes map; outcomes are not compared across commits")
else:
    moved = set(moved_entries(base["outcomes"], head["outcomes"]))
    edited = set(moved_entries(base_golden["outcomes"], head_golden["outcomes"]))
    print("outcomes that moved:", *sorted(moved) or ["none"], sep="\n  ")
    print("outcome entries that changed:", *sorted(edited) or ["none"], sep="\n  ")
    if moved - edited:
        print("outcomes that moved without a golden change:", *sorted(moved - edited), sep="\n  ")
        failed = True
sys.exit(1 if failed else 0)
PY
