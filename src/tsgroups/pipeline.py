"""End-to-end pipeline stages behind the command-line verbs.

A single JSON config document drives everything: ingest builds the
canonical train/test archives, train fits the autoencoder and the
per-group classifiers, infer routes test groups to trained models and
scores them, and report exports composition tables and projection
coordinates. Every writing stage ends with a manifest of the content
digests of what it wrote, with wall-time fields excluded from digests so
reruns stay byte-comparable, and every stage trusts an input only when
its digest is the one its writer's manifest lists.
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
from .classifiers import ClassifierSpec
from .consistent import CgfConfig, CgfResult, form_consistent_groups
from .distances import DistanceMeasureId, fit_mahalanobis
from .grouped import load_bundle, save_bundle, train_per_group, train_single_baseline
from .grouped import predict as bundle_predict
from .group_mapping import MappingMethod, MappingReport, infer_with_groups
from .ingest import (
    ACCELEROMETER_FILENAME,
    ColumnMap,
    SyntheticSpec,
    apply_normalization,
    check_road,
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
    column_map: ColumnMap = field(default_factory=ColumnMap)
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        check_road(self.road)


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
    """The config record of a config file's JSON; a section left out keeps its defaults.

    A value its field's type or its record refuses is a ConfigError naming its path (``ingest.road``).
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    sections = sorted(f.name for f in dataclass_fields(PipelineConfig))
    for name in data.keys() - sections:
        raise ConfigError(f"unknown section '{name}'; allowed: {sections}")
    try:
        return as_record(PipelineConfig, data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


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


# The verb that writes each artifact a later verb reads.
WRITTEN_BY = {"train_dataset": "ingest", "test_dataset": "ingest", "model": "train", "aecs_train": "train",
              "cgf_train": "train", "bundle_grouped": "train", "bundle_baseline": "train",
              "cgf_test": "infer", "mapping_avg": "infer", "mapping_cr_cr": "infer"}


@dataclass
class Manifest:
    """A writing verb's ``manifest_<verb>.json``; ``files`` holds the ``content_digest`` of each artifact it wrote."""

    config: PipelineConfig
    stage_timings: dict[str, float]
    files: dict[str, str]
    versions: dict[str, str]


def _artifact(out_dir: str | Path, name: str) -> Path:
    return Path(out_dir) / ARTIFACTS[name]


def _read(out_dir: str | Path, name: str, reader):
    """Artifact ``name`` of run directory ``out_dir``, as ``reader`` reads its path.

    The one trust rule for inputs: a missing file names the verb that writes it; content ``reader``
    rejects, then a digest other than the one that verb's manifest lists, names the file and that verb.
    Callers name the reader at the call, so a module attribute replaced at run time (``bench/tracer.py``) runs.
    """
    path = _artifact(out_dir, name)
    writer = WRITTEN_BY[name]
    if not path.is_file():
        raise ArtifactError(f"missing artifact {path}; run {writer} first")
    try:
        value = reader(path)
    except (zipfile.BadZipFile, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        raise ArtifactError(f"corrupt {path.name}: {exc!r}; run {writer} again") from None
    doubt = _unvouched(path, name, _artifact(out_dir, f"manifest_{writer}"))
    if doubt:
        raise ArtifactError(f"corrupt {path.name}: {doubt}; run {writer} again")
    return value


def _unvouched(path: Path, name: str, manifest: Path) -> str | None:
    """Why ``manifest`` does not vouch for artifact ``name`` at ``path``, or None if it lists its digest."""
    if not manifest.is_file():
        return f"{manifest.name} is missing"
    try:
        listed = as_record(Manifest, read_json(manifest)).files.get(name)
    except (TypeError, ValueError, OSError) as exc:
        return f"{manifest.name} is unreadable: {exc!r}"
    if listed is None:
        return f"{manifest.name} lists no digest for it"
    if listed != content_digest(path):
        return f"its digest is not the one {manifest.name} lists"
    return None


def _grouping(path: Path) -> Grouping:
    """The grouping of a grouping-result file (``cgf_*.json``)."""
    return as_record(CgfResult, read_json(path)).grouping


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
        write_json(_artifact(run.out, manifest), Manifest(
            config=config,
            stage_timings=run.stage_timings,
            files={name: content_digest(path) for name, path in sorted(run.files.items())},
            versions={"package": __version__, "numpy": np.__version__, "python": sys.version.split()[0]},
        ))


def cmd_ingest(config: PipelineConfig) -> dict:
    """Build canonical train/test dataset archives from corpus or synthesis."""
    opts = config.ingest
    spec = opts.synthetic
    if spec is None:  # check the corpus side before the run directory is made
        if config.paths.dataset_root is None:
            raise ConfigError("either paths.dataset_root or ingest.synthetic must be given")
        root = Path(config.paths.dataset_root)
        if not root.is_dir():
            raise FileNotFoundError(f"corpus root {root} is not a directory")
    with _writing_run(config, "manifest_ingest") as run:
        rejected_rows = 0
        n_sessions = 0
        with run.stage("parse"):
            if spec is not None:
                ds = generate_synthetic(spec)
            else:
                sessions = discover_sessions(root, opts.column_map, opts.accelerometer_filename, opts.road)
                # Keeps every session after discover_sessions(road=...); bench/tracer.py wraps it.
                sessions = filter_road(sessions, opts.road)
                if not sessions:
                    raise ArtifactError(f"no sessions left after road filter {opts.road!r}")
                rejected_rows = sum(s.rejected_rows for s in sessions)
                n_sessions = len(sessions)
                ds = window_sessions(sessions, opts.window_len, opts.overlap)
                del sessions  # the windows are copies; nothing reads the parsed samples again

        with run.stage("split"):
            train_idx, test_idx = split_indices(ds, opts.train_fraction, opts.seed)
            train_ds = ds.subset(train_idx)
            test_ds = ds.subset(test_idx)
            m_total, t, d, c = *ds.windows.shape, ds.n_classes
            del ds  # the splits hold every window; the unsplit copy is not kept through the writes
            stats = None
            if opts.normalize:
                stats = fit_normalization(train_ds)
                train_ds = apply_normalization(train_ds, stats)
                test_ds = apply_normalization(test_ds, stats)

        save_dataset(run.path("train_dataset"), train_ds)
        save_dataset(run.path("test_dataset"), test_ds)

        def class_counts(d: WindowedDataset) -> dict:
            return {name: int((d.labels == i).sum()) for i, name in enumerate(d.class_names)}

        report = {
            "synthetic": spec is not None,
            "n_sessions": n_sessions,
            "rejected_rows": rejected_rows,
            "M_total": m_total,
            "M_train": train_ds.n_windows,
            "M_test": test_ds.n_windows,
            "t": t,
            "d": d,
            "C": c,
            "class_counts_train": class_counts(train_ds),
            "class_counts_test": class_counts(test_ds),
            "normalized": opts.normalize,
            "normalization": stats and {"mean": stats.mean.tolist(), "std": stats.std.tolist()},
        }
        write_json(run.path("ingest_report"), report)
    return report


def cmd_train(config: PipelineConfig) -> dict:
    """Fit the autoencoder, form consistent groups, train per-group models."""
    ds = _read(config.out_dir, "train_dataset", load_dataset)
    with _writing_run(config, "manifest_train") as run:
        config.cgf.effective_k_max(ds.n_windows, "the train split")  # before the model is written

        with run.stage("fit_autoencoder"):
            params, report = ae.fit(ds, config.autoencoder)
        ae.save_model(run.path("model"), params, config.autoencoder, ds.n_channels)
        write_json(run.path("train_report"), report)

        with run.stage("transform"):
            vectors = ae.transform(params, ds).vectors
        save_aecs(run.path("aecs_train"), vectors)

        with run.stage("cgf"):
            cgf_result = form_consistent_groups(vectors, config.cgf)
        grouping = cgf_result.grouping
        write_json(run.path("cgf_train"), cgf_result)

        with run.stage("train_groups"):
            bundle = train_per_group(ds, vectors, grouping.assignment, config.classifier)
        save_bundle(run.path("bundle_grouped"), bundle)

        with run.stage("train_baseline"):
            baseline = train_single_baseline(ds, vectors, config.classifier)
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


def cmd_infer(config: PipelineConfig) -> dict:
    """Group the test set, route groups to models, score the predictions."""
    out = config.out_dir
    test_ds = _read(out, "test_dataset", load_dataset)
    model = _read(out, "model", ae.load_model)
    train_vectors = _read(out, "aecs_train", load_aecs).vectors
    config.cgf.effective_k_max(test_ds.n_windows, "the test split")  # before any artifact is written
    bundle = _read(out, "bundle_grouped", load_bundle)
    baseline = _read(out, "bundle_baseline", load_bundle)
    train_grouping = _read(out, "cgf_train", _grouping)

    with _writing_run(config, "manifest_infer") as run:
        with run.stage("transform"):
            test_vectors = ae.transform(model.params, test_ds).vectors
        save_aecs(run.path("aecs_test"), test_vectors)

        with run.stage("test_cgf"):
            test_cgf = form_consistent_groups(test_vectors, config.cgf)
        test_grouping = test_cgf.grouping
        write_json(run.path("cgf_test"), test_cgf)

        measure = train_grouping.measure
        ctx = (fit_mahalanobis(train_vectors)
               if measure is DistanceMeasureId.MAHALANOBIS else None)

        with run.stage("mapping"):
            results = {}
            for method in (MappingMethod.AVG, MappingMethod.CR_CR):
                results[method] = infer_with_groups(
                    bundle, train_vectors, test_ds, test_vectors, test_grouping,
                    method=method, train_grouping=train_grouping, ctx=ctx,
                )
        write_json(run.path("mapping_avg"), results[MappingMethod.AVG][1])
        write_json(run.path("mapping_cr_cr"), results[MappingMethod.CR_CR][1])

        predictions, mapping_report = results[config.mapping.method]
        _write_predictions_csv(run.path("predictions"), predictions, test_ds.labels,
                               test_grouping.assignment, mapping_report.chosen())

        grouped_metrics = evaluate_metrics(predictions, test_ds.labels, test_ds.n_classes)
        write_json(run.path("metrics"), grouped_metrics)
        baseline_pred = bundle_predict(baseline, 0, test_ds.windows, test_vectors)
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
    """Export composition tables, projection coordinates, and score bars.

    Every input is read through ``_read`` before any table is written, so a report that fails writes nothing.
    """
    out = Path(run_dir)
    if not out.is_dir():
        raise ArtifactError(f"run directory {out} does not exist")
    notices: list[str] = []
    written: dict[str, str] = {}

    def optional(name: str, reader, skipped: str | None = None):
        """Artifact ``name`` through ``_read``; if the file is missing, None, noting what is ``skipped``."""
        path = _artifact(out, name)
        if path.is_file():
            return _read(out, name, reader)
        if skipped:
            notices.append(f"missing {path}; {skipped} skipped")

    grouping = optional("cgf_train", _grouping, "group-based tables")
    ds = optional("train_dataset", load_dataset, "composition table")
    aecs = optional("aecs_train", load_aecs, "projection export")
    mappings = None
    if all(_artifact(out, name).is_file() for name in ("mapping_avg", "mapping_cr_cr", "cgf_test")):
        mappings = [_read(out, name, lambda path: as_record(MappingReport, read_json(path)))
                    for name in ("mapping_avg", "mapping_cr_cr")]
    else:
        notices.append("mapping reports or cgf_test.json absent; mapping summary skipped")
    test_grouping = optional("cgf_test", _grouping)
    # Files of two verbs: ingest may run again after train, and its new manifest vouches for its dataset.
    if grouping is not None and ds is not None and grouping.n_instances != ds.n_windows:
        raise ArtifactError(f"{_artifact(out, 'cgf_train')} and {_artifact(out, 'train_dataset')} differ in row count")

    def export(name: str, header: list[str], rows) -> None:
        path = out / f"{name}.csv"
        _write_csv(path, header, rows)
        written[name] = str(path)

    if grouping is not None and ds is not None:
        counts = Counter((int(g), driver, ds.class_names[label])
                         for g, driver, label in zip(grouping.assignment, ds.driver_ids, ds.labels))
        export("composition_train", ["group", "driver_id", "behavior", "count"],
               ([*key, counts[key]] for key in sorted(counts)))
    if grouping is not None and aecs is not None:
        coords = _pca_2d(aecs.vectors)
        export("pca_train", ["index", "pc1", "pc2", "group"], (
            [i, repr(float(coords[i, 0])), repr(float(coords[i, 1])), int(grouping.assignment[i])]
            for i in range(coords.shape[0])
        ))
    if grouping is not None:
        export("hubert_scores", ["measure", "rho", "selected"], (
            [token, repr(float(rho)), int(token == grouping.measure)]
            for token, rho in grouping.hubert_scores.items()))
    if mappings is not None:
        avg, crcr = mappings
        export("mapping_summary", ["test_group", "size", "chosen_avg", "chosen_cr_cr"],
               zip(range(test_grouping.K), test_grouping.group_sizes().tolist(), avg.chosen(), crcr.chosen()))
    if test_grouping is not None:
        export("composition_test", ["group", "size"], enumerate(test_grouping.group_sizes().tolist()))

    summary = {"written": written, "notices": notices}
    write_json(out / "report_summary.json", summary)
    return summary
