"""Routing test groups to trained models via representation-space distance.

Each test group is compared against every train group either through
group representatives (mean vectors) or through the average of all
cross-group instance distances; the closest train group's model then
predicts that test group's instances. Distances always use the measure
selected on the train side, with any Mahalanobis context fitted on
train representations only. Every function here takes the plain (M, h)
representation vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .distances import (
    DistanceMeasureId,
    MahalanobisContext,
    cross_distances,
    fit_mahalanobis,
    kernel_rows,
    reduce_blocks,
)
from .grouped import GroupModelBundle, predict
from .hierarchy import centroids
from .types import Grouping, WindowedDataset


class MappingMethod(str, enum.Enum):
    CR_CR = "CR_CR"
    AVG = "AVG"

    def __str__(self) -> str:
        return self.value


def candidate_distances(method: MappingMethod, train_vectors: np.ndarray, train_grouping: Grouping,
                        test_vectors: np.ndarray, test_grouping: Grouping, measure: DistanceMeasureId,
                        ctx: MahalanobisContext | None = None) -> np.ndarray:
    """The (K_test, K_train) matrix of distances from each test group to each train group.

    CR_CR compares the group representatives; AVG averages the distances
    of all cross-group instance pairs. Each test group's nearest train
    group is its row's argmin, so ties go to the smaller index.
    """
    x = np.asarray(train_vectors, dtype=np.float64)
    y = np.asarray(test_vectors, dtype=np.float64)
    for side, vectors, grouping in (("train", x, train_grouping), ("test", y, test_grouping)):
        if vectors.ndim != 2 or len(vectors) != grouping.n_instances:
            raise ValueError(f"{side} vectors of shape {vectors.shape} do not fit a grouping of "
                             f"{grouping.n_instances} rows")
    if MappingMethod(method) is MappingMethod.CR_CR:
        return cross_distances(centroids(y, test_grouping.assignment), centroids(x, train_grouping.assignment),
                               measure, ctx)
    # The test rows sorted by group, so each test group is one column range of a block of train rows;
    # a block at a time, so no train x test matrix is held.
    measure = DistanceMeasureId(measure)
    order = np.argsort(test_grouping.assignment, kind="stable")
    ends = np.cumsum(test_grouping.group_sizes())
    ranges = list(zip([0, *ends[:-1].tolist()], ends.tolist()))
    xt, yt = kernel_rows(x, measure, ctx), kernel_rows(y[order], measure, ctx)
    row_means = np.concatenate(reduce_blocks(
        xt, yt, measure, lambda block: np.stack([block[:, lo:hi].mean(axis=1) for lo, hi in ranges], axis=1)))
    # Row means of test group j summed per train group: bins j * K_train + g, added in train row order.
    k_test, k_train = test_grouping.K, train_grouping.K
    bins = train_grouping.assignment[:, None] + k_train * np.arange(k_test)
    sums = np.bincount(bins.T.ravel(), weights=row_means.T.ravel(), minlength=k_test * k_train)
    return sums.reshape(k_test, k_train) / train_grouping.group_sizes()


@dataclass
class MappingReport:
    """Each test group's distance to every train group, under the measure the train groups were formed with.

    ``distances`` is the (K_test, K_train) matrix ``candidate_distances`` returns.
    """

    method: MappingMethod
    measure: DistanceMeasureId
    distances: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        self.method = MappingMethod(self.method)
        self.measure = DistanceMeasureId(self.measure)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        if self.distances.ndim != 2 or 0 in self.distances.shape:
            raise ValueError(f"distances must be a nonempty (K_test, K_train) matrix, got shape "
                             f"{self.distances.shape}")

    def chosen(self) -> list[int]:
        """Each test group's train group: its row's argmin, so ties go to the smaller index."""
        return self.distances.argmin(axis=1).tolist()


def infer_with_groups(
    bundle: GroupModelBundle,
    train_vectors: np.ndarray,
    test_ds: WindowedDataset | None,
    test_vectors: np.ndarray,
    test_grouping: Grouping,
    method: MappingMethod = MappingMethod.AVG,
    *,
    train_grouping: Grouping,
    ctx: MahalanobisContext | None = None,
) -> tuple[np.ndarray, MappingReport]:
    """Predict every test instance with its group's chosen train model.

    ``train_grouping`` is the grouping the bundle's models were trained
    on, one model per group; distances use its measure. A Mahalanobis
    context, when needed, is the caller's to fit on ``train_vectors``;
    one is fitted here when not supplied.
    """
    if (train_grouping.K, train_grouping.n_instances) != (bundle.n_groups, len(train_vectors)):
        raise ValueError(f"train grouping of {train_grouping.K} groups over {train_grouping.n_instances} rows "
                         f"does not fit {bundle.n_groups} models and {len(train_vectors)} train vectors")
    if test_ds is not None and test_ds.n_windows != len(test_vectors):
        raise ValueError(f"{test_ds.n_windows} test windows vs {len(test_vectors)} vectors")
    measure = train_grouping.measure
    if measure is DistanceMeasureId.MAHALANOBIS and ctx is None:
        ctx = fit_mahalanobis(train_vectors)
    report = MappingReport(method=method, measure=measure, distances=candidate_distances(
        method, train_vectors, train_grouping, test_vectors, test_grouping, measure, ctx))

    predictions = np.empty(len(test_vectors), dtype=np.int64)
    for j, chosen in enumerate(report.chosen()):
        members = test_grouping.members(j)
        windows = test_ds.windows[members] if test_ds is not None else None
        predictions[members] = predict(bundle, chosen, windows, test_vectors[members])
    return predictions, report
