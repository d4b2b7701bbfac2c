"""Compare two sets of benchmark results, refusing ones made in different environments.

Usage: python3 bench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records ``bench/run.py`` appends to
``.bench_work/results/<workload>.jsonl`` (copy them aside before
switching commits). For every workload and end-to-end metric, prints
each side's median and quartiles over its untraced runs and the change
of the median against the metric's bound in ``BENCHMARK.json``. Records
whose environment (nproc, thread cap, Python, numpy, scipy, BLAS)
differs are refused: the script exits with code 3 and compares nothing.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [r for r in map(json.loads, filter(None, lines)) if not r["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(before_path: str, after_path: str) -> int:
    before, after = load(before_path), load(after_path)
    envs = {json.dumps(r["env"], sort_keys=True) for r in before + after}
    if len(envs) != 1:
        print("refused: the results come from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 3
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    series: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    for side, records in (("before", before), ("after", after)):
        for r in records:
            for metric, value in r["metrics"].items():
                series[(r["workload"], metric, side)].append(value)
    for workload in sorted({r["workload"] for r in before + after}):
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            a, b = series.get((workload, m["name"], "before")), series.get((workload, m["name"], "after"))
            if not a or not b:
                print(f"   {m['name']:<18} missing on one side")
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            spread = (qa[2] - qa[0]) / qa[1]
            verdict = ("unresolved (spread above bound)" if spread > m["bound"]
                       else "worse than bound" if worse > m["bound"] else "within bound")
            print(f"   {m['name']:<18} before {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a)}"
                  f"  after {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}"
                  f"  {change:+.1%} {m['unit']}  {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
