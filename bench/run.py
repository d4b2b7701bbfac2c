"""Benchmark of the tsgroups pipeline: ingest -> train -> infer, as a user runs it.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ae-bptt --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all

Each run writes its workload's corpus from ``--seed`` (untimed), then
starts fresh processes (``bench/worker.py``), one per pipeline iteration,
while another iteration as long as the longest so far still fits in
``--seconds``. One process is one closed-loop client: each verb starts
after the previous one returns. A process calls the sub-second verbs
(``ingest``, ``infer``) again after the pipeline, as ``worker.py`` says,
and its wall time for such a verb is the mean over its calls. End-to-end metrics
are medians over the run's iterations. With ``--trace 1`` the run makes
one untraced and one traced iteration, each calling every verb once, and
reports per-layer metrics instead. Every iteration's outputs are checked;
each check is one attempted operation and a failed check is a failed one.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
VERBS = ("ingest", "train", "infer")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A workload's run, including its corpus and a first compile, ends within this.
RUN_LIMIT_S = 170.0
# Untraced processes call ingest and infer again until their calls add up to this.
REPEAT_S = 1.5
# The layer each workload was chosen to stress: (layer metrics, verbs, least share
# of the verbs' traced wall time). Printed by traced runs; not a check.
STRESS = {
    "ae-bptt": [(("autoencoder.fit_s",), ("train",), 0.7)],
    "dup-ties": [(("hierarchy.agglomerate_s",), ("train",), 0.7)],
    "paper-corpus": [
        (("ingest.parse_s",), ("ingest",), 0.7),
        (("distances.pairwise_s.CHEBYSHEV", "distances.pairwise_s.MANHATTAN",
          "distances.pairwise_s.MAHALANOBIS", "distances.fit_mahalanobis_s", "hierarchy.agglomerate_s",
          "hierarchy.hubert_s", "hierarchy.cut_s"), ("train", "infer"), 0.5),
    ],
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(cap: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(cap) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def workload_config(w: corpus.Workload, base: str) -> dict:
    """The user's config. ``--seed`` picks the corpus; the program's own seeds
    stay at 0, so runs on different corpus seeds do the same amount of work."""
    return {
        "paths": {"dataset_root": f"{base}/corpus", "out_dir": f"{base}/out"},
        "ingest": {"train_fraction": w.train_fraction, "seed": 0},
        "autoencoder": {"epochs": w.epochs, "seed": 0},
        "classifier": {"seed": 0},
    }


class Run:
    """Inputs, scratch paths and the process budget of one workload run."""

    def __init__(self, w: corpus.Workload, seed: int, cap: int, started: float) -> None:
        self.w = w
        self.seed = seed
        self.cap = cap
        self.started = started
        self.expected = corpus.expected_counts(w)
        self.base = f".bench_work/{w.name}"
        self.dir = ROOT / self.base
        self.config = self.dir / "config.json"
        self.out = self.dir / "out"
        self.digest_ref = WORK / "digests" / f"{w.name}-seed{seed}.json"

    def prepare(self) -> None:
        """Write the corpus and config; none of this is timed."""
        shutil.rmtree(self.dir, ignore_errors=True)
        corpus.write_corpus(self.dir / "corpus", self.w, self.seed)
        self.config.write_text(json.dumps(workload_config(self.w, self.base), indent=2))

    def iterate(self, traced: bool) -> dict:
        """Run one worker process and check what it produced."""
        shutil.rmtree(self.out, ignore_errors=True)
        result_path = self.dir / "result.json"
        trace_path = self.dir / "trace.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "worker.py"), str(SRC), f"{self.base}/config.json",
                str(result_path)] + (["0", str(trace_path)] if traced else [str(REPEAT_S)])
        budget = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        with open(self.dir / "worker.log", "w", encoding="utf-8") as log:
            try:
                code = subprocess.run(argv, cwd=ROOT, env=child_env(self.cap), stdout=subprocess.DEVNULL,
                                      stderr=log, timeout=budget).returncode
            except subprocess.TimeoutExpired:
                code = f"killed after {budget:.0f} s"
        it = {"wall": time.monotonic() - spawned, "checks": []}
        if code != 0 or not result_path.is_file():
            tail = (self.dir / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"worker failed ({code}):\n{tail}", file=sys.stderr)
            it["checks"] = [("worker", False, f"worker exit {code}")]
            return it
        res = json.loads(result_path.read_text(encoding="utf-8"))
        it["result"] = res
        it["checks"] = self.check(res)
        verbs = res["verbs"]
        if all(verbs.get(v, {}).get("code") == 0 for v in VERBS):
            verb_s = {v: statistics.fmean(verbs[v]["s"]) for v in VERBS}
            it["metrics"] = {
                "setup_s": res["ready"] - spawned,
                **{f"{v}_s": verb_s[v] for v in VERBS},
                "pipeline_s": sum(verb_s.values()),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            try:
                it["metrics"]["grouped_f1_macro"] = self._read_json("infer_report.json")["grouped"]["f1_macro"]
            except (OSError, ValueError, KeyError) as exc:
                print(f"infer_report.json: {exc!r}", file=sys.stderr)
        if traced:
            spans = json.loads(trace_path.read_text(encoding="utf-8"))
            it["layers"] = tracer.layer_metrics(spans, res["missing_targets"])
            it["checks"] += self.check_trace(it["layers"])
            for verb, gap in tracer.verb_balance(spans).items():
                it["checks"].append((f"balance.{verb}", gap < 1e-6,
                                     f"top-level spans + self time differ from wall time by {gap:.2e} s"))
        return it

    def _read_json(self, name: str) -> dict:
        return json.loads((self.out / name).read_text(encoding="utf-8"))

    def check(self, res: dict) -> list[tuple[str, bool, str]]:
        checks = []
        for verb in VERBS:
            code = res["verbs"].get(verb, {}).get("code", "not run")
            checks.append((f"exit.{verb}", code == 0, f"exit code {code}"))
        try:
            ingest = self._read_json("ingest_report.json")
        except (OSError, ValueError) as exc:
            ingest = {}
            print(f"ingest_report.json unreadable: {exc}", file=sys.stderr)
        for key in ("M_train", "M_test", "rejected_rows"):
            checks.append((f"ingest.{key}", ingest.get(key) == self.expected[key],
                           f"reported {ingest.get(key)}, written {self.expected[key]}"))
        checks.append(("predictions.valid", *self._predictions_valid()))
        checks.append(("f1.grouped_ge_baseline", *self._grouped_beats_baseline()))
        completed = all(res["verbs"].get(v, {}).get("code") == 0 for v in VERBS)
        checks.append(("digests.stable", *self._digests_stable(res["digests"], completed)))
        return checks

    def _predictions_valid(self) -> tuple[bool, str]:
        m_test = self.expected["M_test"]
        per_class = m_test // len(corpus.BEHAVIOURS)
        try:
            with open(self.out / "predictions.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return False, str(exc)
        labels = {str(c) for c in range(len(corpus.BEHAVIOURS))}
        if [r["instance_index"] for r in rows] != [str(i) for i in range(m_test)]:
            return False, f"{len(rows)} rows, expected instance_index 0..{m_test - 1}"
        if any(r["predicted"] not in labels for r in rows):
            return False, "predicted label outside the class set"
        if sorted(r["true"] for r in rows) != [c for c in sorted(labels) for _ in range(per_class)]:
            return False, "true labels differ from the written behaviours"
        return True, f"{m_test} rows"

    def _grouped_beats_baseline(self) -> tuple[bool, str]:
        try:
            report = self._read_json("infer_report.json")
            grouped, baseline = report["grouped"]["f1_macro"], report["baseline"]["f1_macro"]
        except (OSError, ValueError, KeyError) as exc:
            return False, f"infer_report.json: {exc!r}"
        return grouped >= baseline, f"grouped {grouped:.4f}, baseline {baseline:.4f}"

    def _digests_stable(self, digests: dict, completed: bool) -> tuple[bool, str]:
        """Same artifact content digests as every earlier run of this workload and seed."""
        if not self.digest_ref.is_file():
            if not completed:
                return False, "no reference digests and this iteration did not complete"
            self.digest_ref.parent.mkdir(parents=True, exist_ok=True)
            self.digest_ref.write_text(json.dumps(digests, indent=2, sort_keys=True))
            return True, f"{len(digests)} artifacts recorded as reference"
        ref = json.loads(self.digest_ref.read_text(encoding="utf-8"))
        differ = sorted(k for k in set(ref) | set(digests) if ref.get(k) != digests.get(k))
        return not differ, f"differ from earlier runs: {differ}" if differ else f"{len(ref)} artifacts"

    def check_trace(self, layers: tuple[dict, dict]) -> list[tuple[str, bool, str]]:
        values, absent = layers
        exp = self.expected
        try:
            k_train = self._read_json("cgf_train.json")["accepted_k"]
        except (OSError, ValueError, KeyError):
            k_train = None
        closed = {
            "closed.train_steps": ("autoencoder.train_steps", exp["train_steps"]),
            "closed.agglomerate_calls": ("hierarchy.agglomerate_calls", exp["agglomerate_calls"]),
            "closed.merges": ("hierarchy.merges", exp["merges"]),
            "closed.pairs": ("distances.pairs", exp["pairs"]),
            "closed.train_softmax_calls": ("classifiers.train_softmax_calls",
                                           None if k_train is None else k_train + 1),
        }
        checks = []
        for name, (metric, want) in closed.items():
            if metric in absent:
                print(f"check {name} not made: {metric} {absent[metric]}", file=sys.stderr)
                continue
            checks.append((name, values[metric] == want, f"traced {values[metric]}, closed form {want}"))
        return checks


def env_record(iterations: list[dict], nproc: int, cap: int) -> dict:
    records = []
    for it in iterations:
        if "result" in it:
            records.append(json.dumps({"nproc": nproc, "thread_cap": cap, **it["result"]["env"]},
                                      sort_keys=True))
    if len(set(records)) > 1:
        raise SystemExit(f"iterations of one run report different environments: {sorted(set(records))}")
    return json.loads(records[0]) if records else {"nproc": nproc, "thread_cap": cap}


def run_workload(w: corpus.Workload, seed: int, seconds: int, trace: bool, spec: dict,
                 nproc: int, cap: int) -> tuple[dict, dict, list]:
    run = Run(w, seed, cap, time.monotonic())
    run.prepare()
    iterations = []
    if trace:
        iterations.append(run.iterate(traced=False))
        iterations.append(run.iterate(traced=True))
    else:
        window_start = time.monotonic()
        while True:
            iterations.append(run.iterate(traced=False))
            longest = max(it["wall"] for it in iterations)
            if time.monotonic() - window_start + longest > seconds:
                break
    env = env_record(iterations, nproc, cap)
    metrics: dict[str, dict] = {}
    if trace:
        plain, traced = iterations
        if "layers" in traced:
            values, absent = traced["layers"]
            values["storage.bytes_written"] = traced["result"]["bytes_written"]
            if "metrics" in plain and "metrics" in traced:
                values["trace.overhead_s"] = traced["metrics"]["pipeline_s"] - plain["metrics"]["pipeline_s"]
            for m in spec["per_layer"]:
                if m["name"] in values:
                    metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
                else:
                    print(f"missing per-layer metric {m['name']}: {absent.get(m['name'], 'not defined')}")
    else:
        done = [it["metrics"] for it in iterations if "metrics" in it]
        for m in spec["end_to_end"]:
            values = [d[m["name"]] for d in done if m["name"] in d]
            if values:
                metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    report(w.name, seed, trace, iterations, metrics, env)
    return metrics, env, iterations


def report(name: str, seed: int, trace: bool, iterations: list[dict], metrics: dict, env: dict) -> None:
    print(f"== {name}  seed {seed}  trace {int(trace)}  iterations {len(iterations)}")
    for metric, entry in metrics.items():
        runs = [it["metrics"][metric] for it in iterations if metric in it.get("metrics", {}) and not trace]
        spread = "  [" + ", ".join(f"{v:.4g}" for v in runs) + "]" if runs else ""
        print(f"   {metric:<40} {entry['value']:>14.6g} {entry['unit']}{spread}")
    checks = [c for it in iterations for c in it["checks"]]
    for check, ok, detail in checks:
        if not ok:
            print(f"   FAILED {check}: {detail}")
    print(f"   checks: {len(checks)} attempted, {sum(not ok for _, ok, _ in checks)} failed")
    if trace and iterations[-1].get("metrics"):
        traced = iterations[-1]["metrics"]
        print("   traced verb seconds: " + ", ".join(f"{v} {traced[f'{v}_s']:.3f}" for v in VERBS))
        for layers, verbs, least in STRESS[name]:
            if all(m in metrics for m in layers):
                share = sum(metrics[m]["value"] for m in layers) / sum(traced[f"{v}_s"] for v in verbs)
                print(f"   stress: {' + '.join(layers)} / {' + '.join(verbs)} = {share:.3f}"
                      f" (workload chosen for >= {least})")
    print(f"   env {json.dumps(env, sort_keys=True)}")


def append_result(name: str, seed: int, trace: bool, env: dict, metrics: dict, iterations: list) -> None:
    path = WORK / "results" / f"{name}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "iterations": [it.get("metrics") for it in iterations],
        "calls": [{v: d["s"] for v, d in it["result"]["verbs"].items()} for it in iterations if "result" in it],
        "failed": [c[0] for it in iterations for c in it["checks"] if not c[1]],
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement window per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tsgroups" / "__init__.py").is_file():
        print(f"no tsgroups sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    compileall.compile_dir(str(SRC / "tsgroups"), quiet=1)

    names = sorted(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    combined: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        metrics, env, iterations = run_workload(corpus.WORKLOADS[name], args.seed, seconds,
                                                bool(args.trace), spec, nproc, cap)
        append_result(name, args.seed, bool(args.trace), env, metrics, iterations)
        checks = [c for it in iterations for c in it["checks"]]
        attempted += len(checks)
        failed += sum(not ok for _, ok, _ in checks)
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
