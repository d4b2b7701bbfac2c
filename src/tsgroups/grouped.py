"""One classifier per consistent train group.

Each group's instances train an independent model on the plain (M, h)
representation vectors; a bundle collects the models, each holding the
classes its group held, and the classifier kind ``predict`` needs. It
keeps neither the grouping, which the grouping result
(``cgf_train.json``) keeps, nor the learning settings, which the train
manifest's config keeps. A single-model baseline is the same machinery
run on an all-zeros assignment, so the two stay comparable by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifiers import ClassifierKind, ClassifierSpec, SoftmaxModel, extract_features, predict_softmax, train_softmax
from .storage import as_record, read_json, write_json
from .types import WindowedDataset


@dataclass
class GroupModelBundle:
    """K trained models, one per group, and the features they read; model g's ``seen_classes`` are group g's classes."""

    models: list[SoftmaxModel]
    kind: ClassifierKind
    n_classes: int

    def __post_init__(self) -> None:
        widths = sorted({model.n_features for model in self.models})
        if len(widths) != 1:
            raise ValueError(f"models must share one feature width, got widths {widths}")
        for g, model in enumerate(self.models):
            if np.any((model.seen_classes < 0) | (model.seen_classes >= self.n_classes)):
                raise ValueError(f"model {g} has seen_classes {model.seen_classes.tolist()} "
                                 f"outside 0..{self.n_classes - 1}")

    @property
    def n_groups(self) -> int:
        return len(self.models)

    @property
    def warnings(self) -> list[str]:
        """One line per group whose model saw a single class and so predicts it for every instance."""
        return [f"group {g} contains only class {int(model.seen_classes[0])}; constant predictor"
                for g, model in enumerate(self.models) if model.seen_classes.size == 1]


def save_bundle(path: str | Path, bundle: GroupModelBundle) -> None:
    """The bundle as one JSON record; ``load_bundle`` reads it back bit for bit."""
    write_json(path, bundle)


def load_bundle(path: str | Path) -> GroupModelBundle:
    return as_record(GroupModelBundle, read_json(path))


def train_per_group(ds: WindowedDataset, vectors: np.ndarray, assignment: np.ndarray,
                    spec: ClassifierSpec) -> GroupModelBundle:
    """Train model i on exactly the instances ``assignment`` puts in group i.

    ``vectors`` holds the (M, h) representation of ``ds``, one row per window.
    Groups missing some class train on what they have and will never
    predict the absent classes; single-class groups degenerate to
    constant predictors, which the bundle's ``warnings`` name.
    """
    if len(vectors) != ds.n_windows:
        raise ValueError(f"{len(vectors)} vectors vs {ds.n_windows} windows")
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (ds.n_windows,):
        raise ValueError(f"assignment has shape {assignment.shape}, dataset has {ds.n_windows} windows")
    n_groups = np.bincount(assignment).size  # raises on a negative group id

    features = extract_features(spec.kind, ds.windows, vectors)
    models = [train_softmax(features[members], ds.labels[members], spec)
              for members in (np.flatnonzero(assignment == g) for g in range(n_groups))]
    return GroupModelBundle(models=models, kind=spec.kind, n_classes=ds.n_classes)


def predict(bundle: GroupModelBundle, model_index: int, windows: np.ndarray | None,
            aecs_vectors: np.ndarray | None) -> np.ndarray:
    """Labels from one group's model for the given instances."""
    if not 0 <= model_index < bundle.n_groups:
        raise IndexError(f"model index {model_index} out of range for {bundle.n_groups} groups")
    n = windows.shape[0] if windows is not None else aecs_vectors.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    features = extract_features(bundle.kind, windows, aecs_vectors)
    return predict_softmax(bundle.models[model_index], features)


def train_single_baseline(ds: WindowedDataset, vectors: np.ndarray,
                          spec: ClassifierSpec) -> GroupModelBundle:
    """The ungrouped benchmark: one model on the full training set."""
    return train_per_group(ds, vectors, np.zeros(ds.n_windows, dtype=np.int64), spec)
