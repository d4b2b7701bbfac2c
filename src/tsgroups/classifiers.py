"""Reference classifiers: multinomial logistic regression on two feature views.

These stand in for heavier sequence classifiers at desk scale. One view
consumes the compact representation vector directly; the other consumes
five summary statistics per channel computed from the raw window. Both
train with deterministic full-batch gradient descent from zero weights,
so identical inputs always give identical models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt


class ClassifierKind(str, enum.Enum):
    SOFTMAX_AECS = "SOFTMAX_AECS"
    SOFTMAX_STATS = "SOFTMAX_STATS"

    def __str__(self) -> str:
        return self.value


@dataclass
class ClassifierSpec:
    """Classifier family plus its training hyperparameters."""

    kind: ClassifierKind = ClassifierKind.SOFTMAX_AECS
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        self.kind = ClassifierKind(self.kind)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")


def stats_features(windows: np.ndarray) -> np.ndarray:
    """Five summary statistics per channel: mean, std, min, max, mean |diff|."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"expected (M, t, d) windows, got shape {windows.shape}")
    mean = windows.mean(axis=1)
    std = windows.std(axis=1)
    lo = windows.min(axis=1)
    hi = windows.max(axis=1)
    jump = np.abs(np.diff(windows, axis=1)).mean(axis=1)
    return np.concatenate([mean, std, lo, hi, jump], axis=1)


def extract_features(kind: ClassifierKind, windows: np.ndarray | None,
                     aecs_vectors: np.ndarray | None) -> np.ndarray:
    """Feature matrix for the given classifier view."""
    if kind is ClassifierKind.SOFTMAX_AECS:
        if aecs_vectors is None:
            raise ValueError("SOFTMAX_AECS needs representation vectors")
        x = np.asarray(aecs_vectors, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (M, h) vectors, got shape {x.shape}")
        return x
    if windows is None:
        raise ValueError("SOFTMAX_STATS needs raw windows")
    return stats_features(windows)


@dataclass
class SoftmaxModel:
    """Trained multinomial logistic regression over the classes it saw.

    ``seen_classes`` maps internal score columns back to original class
    ids; classes absent from the training subset are never predicted.
    """

    weights: npt.NDArray[np.float64]
    bias: npt.NDArray[np.float64]
    seen_classes: npt.NDArray[np.int64]
    feature_mean: npt.NDArray[np.float64]
    feature_std: npt.NDArray[np.float64]
    n_train: int

    def __post_init__(self) -> None:
        self.weights, self.bias, self.feature_mean, self.feature_std = (
            np.asarray(a, dtype=np.float64)
            for a in (self.weights, self.bias, self.feature_mean, self.feature_std))
        self.seen_classes = np.asarray(self.seen_classes, dtype=np.int64)
        n, c = self.feature_mean.size, self.seen_classes.size
        shapes = [a.shape for a in (self.weights, self.bias, self.feature_mean, self.feature_std,
                                    self.seen_classes)]
        if shapes != [(n, c), (c,), (n,), (n,), (c,)]:
            raise ValueError(f"weights, bias, feature_mean, feature_std and seen_classes have shapes "
                             f"{shapes}, not those of {n} features and {c} classes")

    @property
    def n_features(self) -> int:
        return int(self.feature_mean.size)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def train_softmax(features: np.ndarray, labels: np.ndarray, spec: ClassifierSpec) -> SoftmaxModel:
    """Full-batch gradient descent on cross-entropy with L2 on the weights.

    Features are standardized internally with statistics from this
    training subset. Zero initialization plus a convex objective makes
    the result independent of any randomness.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != labels.size or labels.size == 0:
        raise ValueError(f"bad training shapes: features {features.shape}, labels {labels.shape}")

    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    x = (features - mean) / std

    seen = np.unique(labels)
    index_of = {int(c): i for i, c in enumerate(seen)}
    y = np.zeros((labels.size, seen.size))
    y[np.arange(labels.size), [index_of[int(c)] for c in labels]] = 1.0

    w = np.zeros((x.shape[1], seen.size))
    b = np.zeros(seen.size)
    if seen.size > 1:
        n = x.shape[0]
        for _ in range(spec.epochs):
            probs = _softmax(x @ w + b)
            delta = (probs - y) / n
            grad_w = x.T @ delta + spec.l2 * w
            grad_b = delta.sum(axis=0)
            w -= spec.learning_rate * grad_w
            b -= spec.learning_rate * grad_b

    return SoftmaxModel(
        weights=w,
        bias=b,
        seen_classes=seen,
        feature_mean=mean,
        feature_std=std,
        n_train=labels.size,
    )


def predict_softmax(model: SoftmaxModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smaller class id."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise ValueError(f"expected (n, {model.n_features}) features, got shape {features.shape}")
    if features.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    x = (features - model.feature_mean) / model.feature_std
    scores = x @ model.weights + model.bias
    return model.seen_classes[np.argmax(scores, axis=1)]
