"""Routing test groups to trained models via representation-space distance.

Each test group is compared against every train group either through
group representatives (mean vectors) or through the average of all
cross-group instance distances; the closest train group's model then
predicts that test group's instances. Distances always use the measure
selected on the train side, with any Mahalanobis context fitted on
train representations only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

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
from .storage import as_record
from .types import AecsMatrix, Grouping, WindowedDataset


class MappingMethod(str, enum.Enum):
    CR_CR = "CR_CR"
    AVG = "AVG"

    def __str__(self) -> str:
        return self.value


def candidate_distances(method: MappingMethod, train_aecs: AecsMatrix | np.ndarray,
                        train_grouping: Grouping, test_block: np.ndarray,
                        measure: DistanceMeasureId, ctx: MahalanobisContext | None = None) -> np.ndarray:
    """Distance from one test group to each train group, indexed by train group.

    CR_CR compares the group representatives; AVG averages the distances
    of all cross-group instance pairs. The nearest train group is the
    argmin, so ties go to the smaller index.
    """
    x = train_aecs.vectors if isinstance(train_aecs, AecsMatrix) else np.asarray(train_aecs, dtype=np.float64)
    test_block = np.asarray(test_block, dtype=np.float64)
    if test_block.ndim != 2 or test_block.shape[0] == 0:
        raise ValueError(f"test group must be a nonempty (n, h) matrix, got {test_block.shape}")
    if MappingMethod(method) is MappingMethod.CR_CR:
        train_crs = centroids(x, train_grouping.assignment)
        return cross_distances(train_crs, test_block.mean(axis=0)[None], measure, ctx)[:, 0]
    # A block of train rows at a time, so no train x test matrix is held.
    measure = DistanceMeasureId(measure)
    xt, yt = kernel_rows(x, measure, ctx), kernel_rows(test_block, measure, ctx)
    row_means = np.concatenate(reduce_blocks(xt, yt, measure, lambda block: block.mean(axis=1)))
    return (np.bincount(train_grouping.assignment, weights=row_means, minlength=train_grouping.K)
            / train_grouping.group_sizes())


@dataclass
class MappingRow:
    """One test group's chosen train group, and its distance to every train group."""

    test_group: int
    test_group_size: int
    chosen_train_group: int
    candidate_distances: list[float]

    def __post_init__(self) -> None:
        if not 0 <= self.chosen_train_group < len(self.candidate_distances):
            raise ValueError(f"chosen train group {self.chosen_train_group} is not one of "
                             f"{len(self.candidate_distances)} candidates")


@dataclass
class MappingReport:
    """Which train model each test group chose, with all candidate distances."""

    method: MappingMethod
    measure: DistanceMeasureId
    rows: list[MappingRow] = field(default_factory=list)
    test_grouping_fingerprint: str = ""

    def __post_init__(self) -> None:
        self.method = MappingMethod(self.method)
        self.measure = DistanceMeasureId(self.measure)
        self.rows = [as_record(MappingRow, row) for row in self.rows]

    def chosen(self) -> list[int]:
        return [row.chosen_train_group for row in self.rows]


def infer_with_groups(
    bundle: GroupModelBundle,
    train_aecs: AecsMatrix,
    test_ds: WindowedDataset | None,
    test_aecs: AecsMatrix,
    test_grouping: Grouping,
    method: MappingMethod = MappingMethod.AVG,
    *,
    train_grouping: Grouping,
    ctx: MahalanobisContext | None = None,
) -> tuple[np.ndarray, MappingReport]:
    """Predict every test instance with its group's chosen train model.

    ``train_grouping`` is the grouping the bundle's models were trained
    on, one model per group; distances use its measure. A Mahalanobis
    context, when needed, must descend from the train representations;
    one is fitted here when not supplied.
    """
    method = MappingMethod(method)
    if (train_grouping.K, train_grouping.n_instances) != (bundle.n_groups, train_aecs.n_instances):
        raise ValueError(f"train grouping of {train_grouping.K} groups over {train_grouping.n_instances} rows "
                         f"does not fit {bundle.n_groups} models and {train_aecs.n_instances} train vectors")
    if test_aecs.n_instances != test_grouping.n_instances:
        raise ValueError(
            f"{test_aecs.n_instances} test vectors vs {test_grouping.n_instances} grouped instances"
        )
    if test_ds is not None and test_ds.n_windows != test_aecs.n_instances:
        raise ValueError(f"{test_ds.n_windows} test windows vs {test_aecs.n_instances} vectors")
    measure = train_grouping.measure
    if measure is DistanceMeasureId.MAHALANOBIS:
        if ctx is None:
            ctx = fit_mahalanobis(train_aecs)
        elif ctx.source_fingerprint and ctx.source_fingerprint != train_aecs.fingerprint():
            raise ValueError("Mahalanobis context was not fitted on the train representations")

    test_x = test_aecs.vectors
    predictions = np.empty(test_aecs.n_instances, dtype=np.int64)
    report = MappingReport(
        method=method,
        measure=measure,
        test_grouping_fingerprint=test_grouping.fingerprint(),
    )
    for j in range(test_grouping.K):
        members = test_grouping.members(j)
        block = test_x[members]
        candidates = candidate_distances(method, train_aecs, train_grouping, block, measure, ctx)
        chosen = int(np.argmin(candidates))
        report.rows.append(MappingRow(
            test_group=j,
            test_group_size=int(members.size),
            chosen_train_group=chosen,
            candidate_distances=[float(c) for c in candidates],
        ))
        windows = test_ds.windows[members] if test_ds is not None else None
        predictions[members] = predict(bundle, chosen, windows, block)
    return predictions, report
