"""Outside-in span tracer for one pipeline process.

Spans are recorded by replacing public functions at the name each caller
looks them up by (``pipeline.form_consistent_groups``,
``hierarchy.agglomerate``, ``autoencoder.train_step``, ...), so nothing
inside ``tsgroups`` changes. Spans are kept in memory as
``[name, start, end, parent, attrs]`` lists and written out once, at the
end of the traced process. ``layer_metrics`` turns a span list into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(sessions) -> int:
    return sum(s.n_samples + s.rejected_rows for s in sessions)


def _tied(dendrogram) -> int:
    heights = [m[2] for m in dendrogram.merges]
    return sum(1 for i in range(1, len(heights)) if heights[i] == heights[i - 1])


# Span name -> (wrap targets as "module.attribute" under tsgroups, annotator).
# An annotator gets (args, kwargs, result) and returns the span's attributes.
SPANS = {
    "ingest.parse": (["pipeline.discover_sessions"],
                     lambda a, k, r: {"rows": _rows(r), "rejected": sum(s.rejected_rows for s in r)}),
    "ingest.filter_road": (["pipeline.filter_road"], lambda a, k, r: {"rows": _rows(r)}),
    "ingest.window": (["pipeline.window_sessions"], None),
    "ingest.split": (["pipeline.split_indices"], None),
    "ingest.normalize": (["pipeline.fit_normalization", "pipeline.apply_normalization"], None),
    "autoencoder.fit": (["autoencoder.fit"],
                        lambda a, k, r: {"epochs_run": r[1].stopped_epoch,
                                         "best_epoch": r[1].best_epoch, "n_fit": r[1].n_train}),
    "autoencoder.train_step": (["autoencoder.train_step"], None),
    "autoencoder.transform": (["autoencoder.transform"],
                              lambda a, k, r: {"windows": int(r.vectors.shape[0])}),
    "consistent.form_groups": (["pipeline.form_consistent_groups"],
                               lambda a, k, r: {"K": r.grouping.K, "steps": len(r.trace),
                                                "accepted": sum(1 for t in r.trace if t["accepted"])}),
    "hierarchy.select_best_measure": (["consistent.select_best_measure"], None),
    "hierarchy.cut": (["consistent.cut", "hierarchy.cut"], None),
    "hierarchy.agglomerate": (["hierarchy.agglomerate"],
                              lambda a, k, r: {"merges": len(r.merges), "tied": _tied(r)}),
    "hierarchy.hubert": (["hierarchy.hubert_statistic"], None),
    "distances.pairwise": (["hierarchy.pairwise_matrix"],
                           lambda a, k, r: {"measure": str(_arg(a, k, 1, "measure")),
                                            "m": int(r.shape[0])}),
    "distances.fit_mahalanobis": (["hierarchy.fit_mahalanobis", "pipeline.fit_mahalanobis",
                                   "group_mapping.fit_mahalanobis"], None),
    "distances.cross_distances": (["distances.cross_distances", "hierarchy.cross_distances",
                                   "group_mapping.cross_distances"], None),
    "grouped.train_per_group": (["pipeline.train_per_group"], None),
    "grouped.train_baseline": (["pipeline.train_single_baseline"], None),
    "classifiers.train_softmax": (["grouped.train_softmax"], None),
    "classifiers.predict": (["grouped.predict_softmax"], None),
    "group_mapping.infer": (["pipeline.infer_with_groups"],
                            lambda a, k, r: {"method": str(_arg(a, k, 5, "method")),
                                             "pairs": _arg(a, k, 0, "bundle").n_groups
                                             * _arg(a, k, 4, "test_grouping").K}),
    "storage.write": (["pipeline.save_dataset", "pipeline.save_aecs", "pipeline.save_bundle",
                       "pipeline.write_json", "autoencoder.save_model"], None),
    "storage.read": (["pipeline.load_dataset", "pipeline.load_aecs", "pipeline.load_bundle",
                      "pipeline.read_json", "autoencoder.load_model"], None),
    "storage.digest": (["pipeline.content_digest"], None),
}


class Tracer:
    """Wraps the targets in ``SPANS`` and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self, package: str = "tsgroups") -> None:
        """Wrap every target; a target that does not exist is listed in ``missing``."""
        for name, (targets, annotate) in SPANS.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"{package}.{module_name}")
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(target)
                    continue
                setattr(module, attr, self._wrap(fn, name, annotate))
                self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = [start, end]

    def _wrap(self, fn, name: str, annotate):
        def traced(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if annotate is not None:
                self.spans[index][4] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


class Missing(Exception):
    """A metric whose spans were never recorded; carries the reason."""


def _self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of direct children's intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], missing_targets: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the spans of one traced process.

    Returns ``(values, missing)``: a metric whose spans have a missing
    wrap target, or were never called, is absent from ``values`` and named
    in ``missing`` with the reason; it is never reported as zero.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    self_time = _self_times(spans)
    verb_of: dict[int, str] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        verb_of[i] = name[len("verb."):] if parent < 0 else verb_of[parent]
    gone = set(missing_targets)

    def need(name: str, where=None) -> list[int]:
        lost = [t for t in SPANS[name][0] if t in gone] if name in SPANS else []
        if lost:
            raise Missing(f"wrap target missing: {', '.join(lost)}")
        found = [i for i in by_name.get(name, []) if where is None or where(i)]
        if not found:
            raise Missing(f"span {name} never recorded")
        return found

    def total(name: str, where=None) -> float:
        return sum(spans[i][2] - spans[i][1] for i in need(name, where))

    def attrs(name: str, where=None) -> list[dict]:
        return [spans[i][4] for i in need(name, where)]

    def in_verb(verb):
        return lambda i: verb_of[i] == verb

    def steps_ms() -> list[float]:
        return [1000.0 * (spans[i][2] - spans[i][1]) for i in need("autoencoder.train_step")]

    def fit_attr(key: str) -> float:
        return sum(a[key] for a in attrs("autoencoder.fit"))

    def groups(verb: str, key: str) -> float:
        return sum(a[key] for a in attrs("consistent.form_groups", in_verb(verb)))

    def mapping(method: str) -> float:
        return total("group_mapping.infer", lambda i: spans[i][4]["method"] == method)

    def verb_self(verb: str) -> float:
        return self_time[need(f"verb.{verb}")[0]]

    def consistent_self() -> float:
        return sum(self_time[i] for i in need("consistent.form_groups"))

    def pairwise(measure: str) -> float:
        return total("distances.pairwise", lambda i: spans[i][4]["measure"] == measure)

    definitions = {
        "ingest.parse_s": lambda: total("ingest.parse"),
        "ingest.rows_parsed": lambda: sum(a["rows"] for a in attrs("ingest.parse")),
        "ingest.rows_rejected": lambda: sum(a["rejected"] for a in attrs("ingest.parse")),
        "ingest.kept_row_ratio": lambda: (sum(a["rows"] for a in attrs("ingest.filter_road"))
                                          / sum(a["rows"] for a in attrs("ingest.parse"))),
        "ingest.window_s": lambda: total("ingest.window"),
        "ingest.normalize_s": lambda: total("ingest.normalize"),
        "autoencoder.fit_s": lambda: total("autoencoder.fit"),
        "autoencoder.train_step_ms_p50": lambda: statistics.median(steps_ms()),
        "autoencoder.train_step_ms_p90": lambda: _percentile(steps_ms(), 90),
        "autoencoder.train_steps": lambda: len(need("autoencoder.train_step")),
        "autoencoder.epochs_run": lambda: fit_attr("epochs_run"),
        "autoencoder.ms_per_window_epoch": lambda: (1000.0 * total("autoencoder.fit")
                                                    / (fit_attr("n_fit") * fit_attr("epochs_run"))),
        "autoencoder.best_epoch_ratio": lambda: fit_attr("best_epoch") / fit_attr("epochs_run"),
        "autoencoder.transform_s": lambda: total("autoencoder.transform"),
        "autoencoder.transform_us_per_window": lambda: (
            1e6 * total("autoencoder.transform")
            / sum(a["windows"] for a in attrs("autoencoder.transform"))),
        "distances.pairwise_s.CHEBYSHEV": lambda: pairwise("CHEBYSHEV"),
        "distances.pairwise_s.MANHATTAN": lambda: pairwise("MANHATTAN"),
        "distances.pairwise_s.MAHALANOBIS": lambda: pairwise("MAHALANOBIS"),
        "distances.pairs": lambda: sum(a["m"] * (a["m"] - 1) // 2 for a in attrs("distances.pairwise")),
        "distances.fit_mahalanobis_s": lambda: total("distances.fit_mahalanobis"),
        "distances.cross_distances_calls": lambda: len(need("distances.cross_distances")),
        "hierarchy.agglomerate_s": lambda: total("hierarchy.agglomerate"),
        "hierarchy.merges": lambda: sum(a["merges"] for a in attrs("hierarchy.agglomerate")),
        "hierarchy.tied_merges": lambda: sum(a["tied"] for a in attrs("hierarchy.agglomerate")),
        "hierarchy.hubert_s": lambda: total("hierarchy.hubert"),
        "hierarchy.cut_s": lambda: total("hierarchy.cut"),
        "hierarchy.select_best_measure_s": lambda: total("hierarchy.select_best_measure"),
        "hierarchy.kept_dendrogram_ratio": lambda: (len(need("hierarchy.select_best_measure"))
                                                    / len(need("hierarchy.agglomerate"))),
        "consistent.form_groups_s.train": lambda: total("consistent.form_groups", in_verb("train")),
        "consistent.form_groups_s.test": lambda: total("consistent.form_groups", in_verb("infer")),
        "consistent.self_s": consistent_self,
        "consistent.k_steps": lambda: sum(a["steps"] for a in attrs("consistent.form_groups")),
        "consistent.accepted_step_ratio": lambda: (
            sum(a["accepted"] for a in attrs("consistent.form_groups"))
            / sum(a["steps"] for a in attrs("consistent.form_groups"))),
        "consistent.K_train": lambda: groups("train", "K"),
        "consistent.K_test": lambda: groups("infer", "K"),
        "grouped.train_per_group_s": lambda: total("grouped.train_per_group"),
        "grouped.train_baseline_s": lambda: total("grouped.train_baseline"),
        "classifiers.train_softmax_calls": lambda: len(need("classifiers.train_softmax")),
        "classifiers.train_softmax_s": lambda: total("classifiers.train_softmax"),
        "classifiers.predict_s": lambda: total("classifiers.predict"),
        "group_mapping.avg_s": lambda: mapping("AVG"),
        "group_mapping.cr_cr_s": lambda: mapping("CR_CR"),
        "group_mapping.candidate_pairs": lambda: attrs("group_mapping.infer")[0]["pairs"],
        "group_mapping.used_method_ratio": lambda: 1.0 / len(need("group_mapping.infer")),
        "storage.write_s": lambda: total("storage.write"),
        "storage.read_s": lambda: total("storage.read"),
        "storage.digest_s": lambda: total("storage.digest"),
        "pipeline.self_s.ingest": lambda: verb_self("ingest"),
        "pipeline.self_s.train": lambda: verb_self("train"),
        "pipeline.self_s.infer": lambda: verb_self("infer"),
        "hierarchy.agglomerate_calls": lambda: len(need("hierarchy.agglomerate")),
    }
    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for metric, compute in definitions.items():
        try:
            values[metric] = compute()
        except Missing as exc:
            absent[metric] = str(exc)
    return values, absent


def verb_balance(spans: list[list]) -> dict[str, float]:
    """Per verb: |sum of top-level spans + verb self time - verb wall time|."""
    self_time = _self_times(spans)
    out = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and name.startswith("verb."):
            top = sum(s[2] - s[1] for s in spans if s[3] == i)
            out[name[len("verb."):]] = abs(top + self_time[i] - (end - start))
    return out
