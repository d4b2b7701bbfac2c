"""One classifier per consistent train group.

Each group's instances train an independent model; a bundle collects
the models and which classes each group held, but not the grouping,
which the grouping result (``cgf_train.json``) keeps. A single-model
baseline is the same machinery run on an all-zeros assignment, so the
two stay comparable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, SoftmaxModel, extract_features, predict_softmax, train_softmax
from .storage import as_record, read_json, write_json
from .types import AecsMatrix, WindowedDataset


@dataclass
class GroupModelBundle:
    """K trained models, one per group, with the classes each group held."""

    models: list[SoftmaxModel]
    class_presence: np.ndarray
    spec: ClassifierSpec
    aecs_model_id: str
    n_classes: int
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.models = [as_record(SoftmaxModel, model) for model in self.models]
        self.spec = as_record(ClassifierSpec, self.spec)
        self.class_presence = np.asarray(self.class_presence, dtype=bool)
        if self.class_presence.shape != (self.n_groups, self.n_classes):
            raise ValueError(f"class_presence must be (K, C), got {self.class_presence.shape}")
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
    def n_features(self) -> int:
        return self.models[0].n_features


def save_bundle(path: str | Path, bundle: GroupModelBundle) -> None:
    """The bundle as one JSON record; ``load_bundle`` reads it back bit for bit."""
    write_json(path, bundle)


def load_bundle(path: str | Path) -> GroupModelBundle:
    return as_record(GroupModelBundle, read_json(path))


def train_per_group(ds: WindowedDataset, aecs: AecsMatrix, assignment: np.ndarray,
                    spec: ClassifierSpec) -> GroupModelBundle:
    """Train model i on exactly the instances ``assignment`` puts in group i.

    Groups missing some class train on what they have and will never
    predict the absent classes; single-class groups degenerate to
    constant predictors and are flagged in the bundle's warnings.
    """
    if aecs.n_instances != ds.n_windows:
        raise ValueError(f"{aecs.n_instances} vectors vs {ds.n_windows} windows")
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (ds.n_windows,):
        raise ValueError(f"assignment has shape {assignment.shape}, dataset has {ds.n_windows} windows")
    n_groups = np.bincount(assignment).size  # raises on a negative group id

    features = extract_features(spec.kind, ds.windows, aecs.vectors)
    models: list[SoftmaxModel] = []
    warnings: list[str] = []
    presence = np.zeros((n_groups, ds.n_classes), dtype=bool)
    for g in range(n_groups):
        members = np.flatnonzero(assignment == g)
        group_labels = ds.labels[members]
        presence[g, np.unique(group_labels)] = True
        if np.unique(group_labels).size == 1:
            warnings.append(
                f"group {g} contains only class {int(group_labels[0])}; constant predictor"
            )
        models.append(train_softmax(features[members], group_labels, spec))
    return GroupModelBundle(
        models=models,
        class_presence=presence,
        spec=spec,
        aecs_model_id=aecs.source_model_id,
        n_classes=ds.n_classes,
        warnings=warnings,
    )


def predict(bundle: GroupModelBundle, model_index: int, windows: np.ndarray | None,
            aecs_vectors: np.ndarray | None) -> np.ndarray:
    """Labels from one group's model for the given instances."""
    if not 0 <= model_index < bundle.n_groups:
        raise IndexError(f"model index {model_index} out of range for {bundle.n_groups} groups")
    n = windows.shape[0] if windows is not None else aecs_vectors.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    features = extract_features(bundle.spec.kind, windows, aecs_vectors)
    return predict_softmax(bundle.models[model_index], features)


def train_single_baseline(ds: WindowedDataset, aecs: AecsMatrix,
                          spec: ClassifierSpec) -> GroupModelBundle:
    """The ungrouped benchmark: one model on the full training set."""
    return train_per_group(ds, aecs, np.zeros(ds.n_windows, dtype=np.int64), spec)
