"""End-to-end pipeline stages behind the command-line verbs.

A single JSON config document drives everything: ingest builds the
canonical train/test archives, train fits the autoencoder and the
per-group classifiers, infer routes test groups to trained models and
scores them, and report exports composition tables and projection
coordinates. Every stage records content digests of what it wrote, with
wall-time fields excluded from digests so reruns stay byte-comparable.
"""

from __future__ import annotations

import csv
import io
import sys
import time
import zipfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from . import autoencoder as ae
from .classifiers import ClassifierSpec, feature_width
from .consistent import CgfConfig, CgfResult, form_consistent_groups
from .distances import DistanceMeasureId, fit_mahalanobis
from .grouped import GroupModelBundle, load_bundle, save_bundle, train_per_group, train_single_baseline
from .grouped import predict as bundle_predict
from .group_mapping import MappingMethod, MappingReport, infer_with_groups
from .ingest import (
    ACCELEROMETER_FILENAME,
    ColumnMap,
    SyntheticSpec,
    apply_normalization,
    discover_sessions,
    filter_road,
    fit_normalization,
    generate_synthetic,
    split_indices,
    window_sessions,
)
from .metrics import evaluate_metrics
from .storage import (
    as_record,
    atomic_open,
    check_field_types,
    content_digest,
    load_aecs,
    load_dataset,
    read_json,
    run_lock,
    save_aecs,
    save_dataset,
    write_json,
)
from .types import ClassMetrics, Grouping, WindowedDataset


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


class ArtifactError(RuntimeError):
    """Missing or inconsistent run artifacts."""


@contextmanager
def _reading_artifacts(path: Path):
    """Report truncated or edited content of the file at ``path`` as an ArtifactError naming it."""
    try:
        yield
    except (zipfile.BadZipFile, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactError(f"corrupt {path.name}: {exc!r}") from None


@dataclass
class Paths:
    """Where the corpus is read from and the run directory is written."""

    dataset_root: str | None = None
    out_dir: str = "run"


@dataclass
class IngestOptions:
    """Corpus location handling and windowing choices."""

    road: str | None = "MOTORWAY"
    window_len: int = 64
    overlap: float = 0.5
    train_fraction: float = 0.8
    seed: int = 0
    normalize: bool = True
    accelerometer_filename: str = ACCELEROMETER_FILENAME
    column_map: dict = field(default_factory=dict)
    synthetic: dict | None = None

    def columns(self) -> ColumnMap:
        try:
            return ColumnMap(**self.column_map)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad column_map: {exc}") from None

    def synthetic_spec(self) -> SyntheticSpec | None:
        if self.synthetic is None:
            return None
        try:
            spec = dict(self.synthetic)
            for key in ("frequencies", "amplitudes", "noise_sigmas", "class_effect_signs"):
                if key in spec:
                    spec[key] = tuple(spec[key])
            return SyntheticSpec(**spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic spec: {exc}") from None


@dataclass
class MappingOptions:
    """How infer routes each test group to a train group's model."""

    method: MappingMethod = MappingMethod.AVG

    def __post_init__(self) -> None:
        self.method = MappingMethod(self.method)


@dataclass
class PipelineConfig:
    """A whole run's configuration: one field per section of the config file."""

    paths: Paths = field(default_factory=Paths)
    ingest: IngestOptions = field(default_factory=IngestOptions)
    autoencoder: ae.AutoencoderConfig = field(default_factory=ae.AutoencoderConfig)
    cgf: CgfConfig = field(default_factory=CgfConfig)
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    mapping: MappingOptions = field(default_factory=MappingOptions)

    @property
    def out_dir(self) -> str:
        return self.paths.out_dir


def read_config(data) -> PipelineConfig:
    """The config record of a config file's JSON: each section an object of its record's fields.

    A section left out keeps its defaults. A value of the wrong JSON type
    (``check_field_types``) or one its record rejects is a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    records = {f.name: f.default_factory for f in dataclass_fields(PipelineConfig)}
    sections = {}
    for name, payload in data.items():
        if name not in records:
            raise ConfigError(f"unknown section '{name}'; allowed: {sorted(records)}")
        if not isinstance(payload, dict):
            raise ConfigError(f"section '{name}' must be a JSON object, got {type(payload).__name__}")
        allowed = {f.name for f in dataclass_fields(records[name])}
        unknown = set(payload) - allowed
        if unknown:
            raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}; allowed: {sorted(allowed)}")
        try:
            check_field_types(records[name], payload)
            sections[name] = records[name](**payload)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad '{name}' section: {exc}") from None
    return PipelineConfig(**sections)


def load_config(path: str | Path) -> PipelineConfig:
    try:
        data = read_json(path)
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return read_config(data)


ARTIFACTS = {
    "train_dataset": "train_dataset.zip",
    "test_dataset": "test_dataset.zip",
    "ingest_report": "ingest_report.json",
    "archetypes": "archetypes.json",
    "model": "model.bin",
    "train_report": "train_report.json",
    "aecs_train": "aecs_train.zip",
    "cgf_train": "cgf_train.json",
    "bundle_grouped": "bundle_grouped.json",
    "bundle_baseline": "bundle_baseline.json",
    "manifest_train": "manifest_train.json",
    "manifest_ingest": "manifest_ingest.json",
    "manifest_infer": "manifest_infer.json",
    "aecs_test": "aecs_test.zip",
    "cgf_test": "cgf_test.json",
    "mapping_avg": "mapping_avg.json",
    "mapping_cr_cr": "mapping_cr_cr.json",
    "predictions": "predictions.csv",
    "metrics": "metrics.json",
    "infer_report": "infer_report.json",
}


def _artifact(out_dir: str | Path, name: str) -> Path:
    return Path(out_dir) / ARTIFACTS[name]


@dataclass
class _Run:
    """What a writing verb's manifest records: its stages' wall times and the artifacts it wrote."""

    out: Path
    stage_timings: dict[str, float] = field(default_factory=dict)
    files: dict[str, Path] = field(default_factory=dict)

    def path(self, name: str) -> Path:
        """Where artifact ``name`` goes; the manifest lists it with its digest."""
        self.files[name] = path = _artifact(self.out, name)
        return path

    @contextmanager
    def stage(self, name: str):
        """Time the body as ``stage_timings[name]``."""
        start = time.perf_counter()
        yield
        self.stage_timings[name] = time.perf_counter() - start


@contextmanager
def _writing_run(config: PipelineConfig, manifest: str):
    """Hold the run directory's lock; if the body succeeds, write the manifest of what it recorded."""
    run = _Run(Path(config.out_dir))
    with run_lock(run.out):
        yield run
        write_json(_artifact(run.out, manifest), {
            "config": config,
            "stage_timings": run.stage_timings,
            "files": {name: content_digest(path) for name, path in sorted(run.files.items())},
            "versions": {"package": __version__, "numpy": np.__version__,
                         "python": sys.version.split()[0]},
            "seeds": {
                "ingest": config.ingest.seed,
                "autoencoder": config.autoencoder.seed,
                "classifier": config.classifier.seed,
            },
        })


def cmd_ingest(config: PipelineConfig) -> dict:
    """Build canonical train/test dataset archives from corpus or synthesis."""
    opts = config.ingest
    spec = opts.synthetic_spec()
    if spec is None:  # check the corpus side before the run directory is made
        if config.paths.dataset_root is None:
            raise ConfigError("either paths.dataset_root or ingest.synthetic must be given")
        columns, root = opts.columns(), Path(config.paths.dataset_root)
        if not root.is_dir():
            raise FileNotFoundError(f"corpus root {root} is not a directory")
    with _writing_run(config, "manifest_ingest") as run:
        archetypes = None
        rejected_rows = 0
        n_sessions = 0
        with run.stage("parse"):
            if spec is not None:
                ds, archetypes = generate_synthetic(spec)
            else:
                sessions = discover_sessions(root, columns, opts.accelerometer_filename, opts.road)
                # Keeps every session after discover_sessions(road=...); bench/tracer.py wraps it.
                sessions = filter_road(sessions, opts.road)
                if not sessions:
                    raise ArtifactError(f"no sessions left after road filter {opts.road!r}")
                rejected_rows = sum(s.rejected_rows for s in sessions)
                n_sessions = len(sessions)
                ds = window_sessions(sessions, opts.window_len, opts.overlap)

        with run.stage("split"):
            train_idx, test_idx = split_indices(ds, opts.train_fraction, opts.seed)
            train_ds = ds.subset(train_idx)
            test_ds = ds.subset(test_idx)
            stats = None
            if opts.normalize:
                stats = fit_normalization(train_ds)
                train_ds = apply_normalization(train_ds, stats)
                test_ds = apply_normalization(test_ds, stats)

        save_dataset(run.path("train_dataset"), train_ds, stats)
        save_dataset(run.path("test_dataset"), test_ds, stats)
        if archetypes is not None:
            write_json(run.path("archetypes"), {
                "train": archetypes[train_idx].tolist(),
                "test": archetypes[test_idx].tolist(),
            })

        def class_counts(d: WindowedDataset) -> dict:
            return {name: int((d.labels == i).sum()) for i, name in enumerate(d.class_names)}

        report = {
            "synthetic": spec is not None,
            "n_sessions": n_sessions,
            "rejected_rows": rejected_rows,
            "M_total": ds.n_windows,
            "M_train": train_ds.n_windows,
            "M_test": test_ds.n_windows,
            "t": ds.n_timesteps,
            "d": ds.n_channels,
            "C": ds.n_classes,
            "class_counts_train": class_counts(train_ds),
            "class_counts_test": class_counts(test_ds),
            "normalized": opts.normalize,
        }
        write_json(run.path("ingest_report"), report)
    return report


def cmd_train(config: PipelineConfig) -> dict:
    """Fit the autoencoder, form consistent groups, train per-group models."""
    train_path = _artifact(config.out_dir, "train_dataset")
    if not train_path.is_file():
        raise ArtifactError(f"missing canonical train dataset {train_path}; run ingest first")
    with _writing_run(config, "manifest_train") as run:
        with _reading_artifacts(train_path):
            ds, _ = load_dataset(train_path)
        config.cgf.effective_k_max(ds.n_windows, "the train split")  # before the model is written

        with run.stage("fit_autoencoder"):
            params, report = ae.fit(ds, config.autoencoder)
        ae.save_model(run.path("model"), params, config.autoencoder, ds.n_channels)
        write_json(run.path("train_report"), report)

        with run.stage("transform"):
            aecs = ae.transform(params, ds, config.autoencoder)
        save_aecs(run.path("aecs_train"), aecs.vectors, aecs.source_model_id)

        with run.stage("cgf"):
            cgf_result = form_consistent_groups(aecs, config.cgf)
        grouping = cgf_result.grouping
        write_json(run.path("cgf_train"), cgf_result)

        with run.stage("train_groups"):
            bundle = train_per_group(ds, aecs, grouping.assignment, config.classifier)
        save_bundle(run.path("bundle_grouped"), bundle)

        with run.stage("train_baseline"):
            baseline = train_single_baseline(ds, aecs, config.classifier)
        save_bundle(run.path("bundle_baseline"), baseline)

    return {
        "autoencoder": asdict(report),
        "cgf": {"K": grouping.K, "measure": grouping.measure, "stopped_by": cgf_result.stopped_by},
        "group_sizes": grouping.group_sizes().tolist(),
        "group_warnings": bundle.warnings,
        "files": {k: str(v) for k, v in run.files.items()},
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    """UTF-8 CSV with LF line ends, written atomically."""
    with atomic_open(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_predictions_csv(path: Path, predictions: np.ndarray, truth: np.ndarray,
                           test_assignment: np.ndarray, chosen: list[int]) -> None:
    _write_csv(path, ["instance_index", "predicted", "true", "test_group", "train_group"], (
        [i, int(predictions[i]), int(truth[i]), int(test_assignment[i]), chosen[int(test_assignment[i])]]
        for i in range(predictions.size)
    ))


def _headline(metrics: ClassMetrics) -> dict:
    return {"accuracy": metrics.accuracy, "f1_macro": metrics.f1_macro,
            "f1_weighted": metrics.f1_weighted}


def _read_bundle(path: Path, model_digest: str, aecs_width: int, n_channels: int) -> GroupModelBundle:
    """A classifier bundle, checked against the run's autoencoder and the width of its features."""
    with _reading_artifacts(path):
        bundle = load_bundle(path)
    if bundle.aecs_model_id != model_digest:
        raise ArtifactError(f"{path.name} was trained against a different autoencoder model")
    width = feature_width(bundle.spec.kind, aecs_width, n_channels)
    if bundle.n_features != width:
        raise ArtifactError(f"{path.name} holds models of {bundle.n_features} features, "
                            f"but this run's {bundle.spec.kind} features number {width}")
    return bundle


def _read_grouping(path: Path) -> Grouping:
    """The grouping of a grouping-result file (``cgf_*.json``)."""
    with _reading_artifacts(path):
        return as_record(CgfResult, read_json(path)).grouping


def cmd_infer(config: PipelineConfig) -> dict:
    """Group the test set, route groups to models, score the predictions."""
    out = Path(config.out_dir)
    test_path, model_path, aecs_path = (_artifact(out, n) for n in ("test_dataset", "model", "aecs_train"))
    for path in (test_path, model_path, aecs_path):
        if not path.is_file():
            raise ArtifactError(f"missing artifact {path}; run earlier stages first")
    cgf_path, bundle_path, baseline_path = (
        _artifact(out, n) for n in ("cgf_train", "bundle_grouped", "bundle_baseline"))
    for path in (cgf_path, bundle_path, baseline_path):
        if not path.is_file():
            raise ArtifactError(f"missing artifact {path}; run train first")

    with _writing_run(config, "manifest_infer") as run:
        with _reading_artifacts(test_path):
            test_ds, _ = load_dataset(test_path)
        with _reading_artifacts(model_path):
            params, model_config, d = ae.load_model(model_path)
        with _reading_artifacts(aecs_path):
            train_aecs = load_aecs(aecs_path)
        config.cgf.effective_k_max(test_ds.n_windows, "the test split")  # before any artifact is written
        model_digest = ae.model_id(params, model_config, d)
        if train_aecs.source_model_id != model_digest:
            raise ArtifactError("stored train representations come from a different model")
        bundle = _read_bundle(bundle_path, model_digest, model_config.hidden2, d)
        baseline = _read_bundle(baseline_path, model_digest, model_config.hidden2, d)
        train_grouping = _read_grouping(cgf_path)
        if train_grouping.K != bundle.n_groups:
            raise ArtifactError(f"{cgf_path.name} has {train_grouping.K} groups, but "
                                f"{bundle_path.name} holds {bundle.n_groups} models")
        if train_grouping.n_instances != train_aecs.n_instances:
            raise ArtifactError(f"{cgf_path.name} groups {train_grouping.n_instances} rows, but "
                                f"{aecs_path.name} holds {train_aecs.n_instances}")

        with run.stage("transform"):
            test_aecs = ae.transform(params, test_ds, model_config)
        save_aecs(run.path("aecs_test"), test_aecs.vectors, test_aecs.source_model_id)

        with run.stage("test_cgf"):
            test_cgf = form_consistent_groups(test_aecs, config.cgf)
        test_grouping = test_cgf.grouping
        write_json(run.path("cgf_test"), test_cgf)

        measure = train_grouping.measure
        ctx = (fit_mahalanobis(train_aecs)
               if measure is DistanceMeasureId.MAHALANOBIS else None)

        with run.stage("mapping"):
            results = {}
            for method in (MappingMethod.AVG, MappingMethod.CR_CR):
                results[method] = infer_with_groups(
                    bundle, train_aecs, test_ds, test_aecs, test_grouping,
                    method=method, train_grouping=train_grouping, ctx=ctx,
                )
        write_json(run.path("mapping_avg"), results[MappingMethod.AVG][1])
        write_json(run.path("mapping_cr_cr"), results[MappingMethod.CR_CR][1])

        predictions, mapping_report = results[config.mapping.method]
        _write_predictions_csv(run.path("predictions"), predictions, test_ds.labels,
                               test_grouping.assignment, mapping_report.chosen())

        grouped_metrics = evaluate_metrics(predictions, test_ds.labels, test_ds.n_classes)
        write_json(run.path("metrics"), grouped_metrics)
        baseline_pred = bundle_predict(baseline, 0, test_ds.windows, test_aecs.vectors)
        baseline_metrics = evaluate_metrics(baseline_pred, test_ds.labels, test_ds.n_classes)
        report = {
            "mapping_method": config.mapping.method.value,
            "measure": measure.value,
            "test_groups": test_grouping.K,
            "chosen_avg": results[MappingMethod.AVG][1].chosen(),
            "chosen_cr_cr": results[MappingMethod.CR_CR][1].chosen(),
            "grouped": _headline(grouped_metrics),
            "baseline": _headline(baseline_metrics),
            "delta_f1_macro": grouped_metrics.f1_macro - baseline_metrics.f1_macro,
        }
        write_json(run.path("infer_report"), report)
    return report


def _pca_2d(x: np.ndarray) -> np.ndarray:
    """Deterministic 2-component projection with a fixed sign convention."""
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[: min(2, vt.shape[0])]
    coords = centered @ comps.T
    for i in range(coords.shape[1]):
        pivot = int(np.argmax(np.abs(comps[i])))
        if comps[i, pivot] < 0:
            coords[:, i] = -coords[:, i]
    if coords.shape[1] < 2:
        coords = np.column_stack([coords, np.zeros(coords.shape[0])])
    return coords


def cmd_report(run_dir: str | Path) -> dict:
    """Export composition tables, projection coordinates, and score bars."""
    out = Path(run_dir)
    if not out.is_dir():
        raise ArtifactError(f"run directory {out} does not exist")
    notices: list[str] = []
    written: dict[str, str] = {}

    def export(name: str, header: list[str], rows) -> None:
        path = out / f"{name}.csv"
        _write_csv(path, header, rows)
        written[name] = str(path)

    cgf_path = _artifact(out, "cgf_train")
    train_path = _artifact(out, "train_dataset")
    aecs_path = _artifact(out, "aecs_train")

    grouping = None
    if cgf_path.is_file():
        grouping = _read_grouping(cgf_path)
    else:
        notices.append(f"missing {cgf_path}; group-based tables skipped")

    if grouping is not None and train_path.is_file():
        with _reading_artifacts(train_path):
            ds, _ = load_dataset(train_path)
        if grouping.n_instances != ds.n_windows:
            raise ArtifactError(f"{cgf_path} and {train_path} differ in row count")
        counts = Counter((int(g), wm.driver_id, wm.behavior)
                         for g, wm in zip(grouping.assignment, ds.meta))
        export("composition_train", ["group", "driver_id", "behavior", "count"],
               ([*key, counts[key]] for key in sorted(counts)))
    elif not train_path.is_file():
        notices.append(f"missing {train_path}; composition table skipped")

    if grouping is not None and aecs_path.is_file():
        with _reading_artifacts(aecs_path):
            aecs = load_aecs(aecs_path)
        if grouping.n_instances != aecs.n_instances:
            raise ArtifactError(f"{cgf_path} and {aecs_path} differ in row count")
        coords = _pca_2d(aecs.vectors)
        export("pca_train", ["index", "pc1", "pc2", "group"], (
            [i, repr(float(coords[i, 0])), repr(float(coords[i, 1])), int(grouping.assignment[i])]
            for i in range(coords.shape[0])
        ))
    elif not aecs_path.is_file():
        notices.append(f"missing {aecs_path}; projection export skipped")

    if grouping is not None:
        scores = grouping.hubert_scores
        export("hubert_scores", ["measure", "rho", "selected"], (
            [token, repr(float(scores[token])), int(token == grouping.measure)]
            for token in scores
        ))

    mapping_avg = _artifact(out, "mapping_avg")
    mapping_cr = _artifact(out, "mapping_cr_cr")
    groups = None
    if mapping_avg.is_file() and mapping_cr.is_file():
        with _reading_artifacts(mapping_avg):
            avg = as_record(MappingReport, read_json(mapping_avg))
        with _reading_artifacts(mapping_cr):
            crcr = as_record(MappingReport, read_json(mapping_cr))
        groups = [(row.test_group, row.test_group_size) for row in avg.rows]
        if groups != [(row.test_group, row.test_group_size) for row in crcr.rows]:
            raise ArtifactError(f"{mapping_avg} and {mapping_cr} list different test groups")
        export("mapping_summary", ["test_group", "size", "chosen_avg", "chosen_cr_cr"], (
            [*group, a, c] for group, a, c in zip(groups, avg.chosen(), crcr.chosen())
        ))
    else:
        notices.append("mapping reports absent; mapping summary skipped")

    cgf_test_path = _artifact(out, "cgf_test")
    if cgf_test_path.is_file():
        sizes = _read_grouping(cgf_test_path).group_sizes().tolist()
        if groups is not None and sizes != [size for _, size in groups]:
            raise ArtifactError(f"{cgf_test_path} group sizes differ from the mapping reports' "
                                f"test group sizes")
        export("composition_test", ["group", "size"], enumerate(sizes))

    summary = {"written": written, "notices": notices}
    write_json(out / "report_summary.json", summary)
    return summary

