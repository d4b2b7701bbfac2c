"""Shared domain types for windowed datasets, representations and groupings.

All types validate their invariants at construction and are treated as
immutable afterwards; operations elsewhere in the library are pure functions
over them, so instances are safe to share across threads. A type holds only
what its readers use: where an artifact came from is its content digest in
its writer's manifest, not a tag inside it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt


class DistanceMeasureId(str, enum.Enum):
    """Closed set of measure tokens; also the fixed tie-break order."""

    CHEBYSHEV = "CHEBYSHEV"
    MANHATTAN = "MANHATTAN"
    MAHALANOBIS = "MAHALANOBIS"

    def __str__(self) -> str:  # serialize as the bare token
        return self.value


class DivergenceError(RuntimeError):
    """Numeric training produced NaN/Inf and was aborted."""


@dataclass
class WindowedDataset:
    """M windows of t timesteps x d channels with labels and drivers.

    ``windows`` is float64 (M, t, d); ``labels`` holds one class id per
    window in ``{0..C-1}``; ``driver_ids`` names the driver of each window.
    """

    windows: npt.NDArray[np.float64]
    labels: npt.NDArray[np.int64]
    driver_ids: list[str]
    class_names: list[str]

    def __post_init__(self) -> None:
        self.windows = np.ascontiguousarray(self.windows, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.windows.ndim != 3:
            raise ValueError(f"windows must be (M, t, d), got shape {self.windows.shape}")
        m, t, d = self.windows.shape
        if m < 1 or t < 2 or d < 1:
            raise ValueError(f"need M >= 1, t >= 2, d >= 1, got {(m, t, d)}")
        if not np.all(np.isfinite(self.windows)):
            raise ValueError("windows contain NaN/Inf")
        if self.labels.shape != (m,):
            raise ValueError(f"labels must have length {m}, got {self.labels.shape}")
        c = len(self.class_names)
        if c < 1:
            raise ValueError("class_names must be nonempty")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= c:
            raise ValueError(f"labels must lie in [0, {c})")
        if len(self.driver_ids) != m:
            raise ValueError(f"driver_ids must have length {m}, got {len(self.driver_ids)}")

    @property
    def n_windows(self) -> int:
        return self.windows.shape[0]

    @property
    def n_timesteps(self) -> int:
        return self.windows.shape[1]

    @property
    def n_channels(self) -> int:
        return self.windows.shape[2]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices: np.ndarray) -> "WindowedDataset":
        """Dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return WindowedDataset(
            windows=self.windows[idx],
            labels=self.labels[idx],
            driver_ids=[self.driver_ids[i] for i in idx],
            class_names=list(self.class_names),
        )


@dataclass
class AecsMatrix:
    """Compact per-window representation: one h-vector per window.

    The record of ``aecs_*.zip`` and what ``transform`` returns; every
    function below the pipeline takes the plain ``vectors``.
    """

    vectors: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be (M, h), got shape {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("representation contains NaN/Inf")


@dataclass
class Grouping:
    """Assignment of instances to K groups plus the measure that formed them."""

    assignment: npt.NDArray[np.int64]
    K: int
    measure: DistanceMeasureId
    hubert_scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.assignment = np.ascontiguousarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1 or self.assignment.size < 1:
            raise ValueError("assignment must be a nonempty 1-D array")
        self.measure = DistanceMeasureId(self.measure)
        if not set(self.hubert_scores) <= {m.value for m in DistanceMeasureId}:
            raise ValueError(f"hubert_scores must be keyed by measure names, got {sorted(self.hubert_scores)}")
        if not 1 <= self.K <= self.assignment.size:  # before np.arange(K), whose size a file sets
            raise ValueError(f"K must lie in 1..{self.assignment.size}, got {self.K}")
        if not np.array_equal(np.unique(self.assignment), np.arange(self.K)):
            raise ValueError(f"every group id in 0..{self.K - 1} must appear at least once")

    @property
    def n_instances(self) -> int:
        return self.assignment.size

    def members(self, group_id: int) -> np.ndarray:
        if not 0 <= group_id < self.K:
            raise ValueError(f"group id {group_id} out of range 0..{self.K - 1}")
        return np.flatnonzero(self.assignment == group_id)

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.K)


@dataclass
class ClassMetrics:
    """Accuracy, per-class F1 aggregates, and confusion matrices.

    ``confusion[i, j]`` counts instances of true class i predicted as j.
    Rows of ``confusion_row_normalized`` sum to 1, or stay all-zero for a
    class absent from the truth vector.
    """

    accuracy: float
    f1_macro: float
    f1_weighted: float
    confusion: npt.NDArray[np.int64]
    confusion_row_normalized: npt.NDArray[np.float64]
