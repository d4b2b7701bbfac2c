"""Consistent group formation on compact representations.

Starting from the trivial single group, the group count increases one
step at a time; each step must introduce a new group holding at least a
``tau`` fraction of all instances. Each later k undoes one more merge of
one dendrogram; the new group is that merge's smaller child. A step that
passes this test but undoes a merge of height 0 is rejected too, since it
would part copies of one vector. The first rejected step ends the loop
and the last accepted partition is returned, so a dataset whose very
first split is already marginal stays one group. The outcome is a
``CgfResult`` record: the train and test grouping files,
``cgf_train.json`` and ``cgf_test.json``, each hold one, written by
``storage.write_json`` and read back with ``storage.as_record``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hierarchy import Linkage, cut, select_best_measure
from .types import Grouping

DEFAULT_TAU = 0.05
DEFAULT_K_START = 2
DEFAULT_K_CAP = 20


@dataclass
class CgfConfig:
    """Knobs for the iterative group-formation loop."""

    tau: float = DEFAULT_TAU
    k_start: int = DEFAULT_K_START
    k_max: int | None = None
    linkage: Linkage = Linkage.AVERAGE

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.k_start < 2:
            raise ValueError(f"k_start must be >= 2, got {self.k_start}")
        if self.k_max is not None and self.k_max < self.k_start:
            raise ValueError(f"k_max {self.k_max} below k_start {self.k_start}")
        if self.k_max is None and self.k_start > DEFAULT_K_CAP:
            raise ValueError(f"k_start {self.k_start} is above the default k_max {DEFAULT_K_CAP}; set k_max")
        self.linkage = Linkage(self.linkage)

    def effective_k_max(self, n_instances: int, data: str = "the data") -> int:
        """The largest group count to try on n_instances; ValueError if they are too few to group."""
        if n_instances <= self.k_start:
            raise ValueError(f"{data} has {n_instances} instances, too few to group: "
                             f"k_start {self.k_start} needs at least {self.k_start + 1}")
        cap = DEFAULT_K_CAP if self.k_max is None else self.k_max
        return min(cap, n_instances - 1)


@dataclass
class CgfResult:
    """Final grouping plus the trail of tried steps (``k``, ``new_group_size``, ``accepted``).

    ``accepted_k`` is ``grouping.K``, kept so that a reader of the file alone finds it.
    """

    grouping: Grouping
    stopped_by: str
    accepted_k: int
    rejected_size: int | None = None
    trace: list[dict] = field(default_factory=list)
    dendrogram_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.accepted_k != self.grouping.K:
            raise ValueError(f"accepted_k {self.accepted_k} is not the grouping's K {self.grouping.K}")
        if self.stopped_by not in ("tau", "duplicates", "k_max"):
            raise ValueError(f"stopped_by must be 'tau', 'duplicates' or 'k_max', got {self.stopped_by!r}")


def form_consistent_groups(vectors: np.ndarray, config: CgfConfig | None = None) -> CgfResult:
    """Grow the partition until the next split would create a marginal group.

    The distance measure and dendrogram are chosen once at ``k_start``.
    Each later k undoes one more merge of that dendrogram; the new group
    is that merge's smaller child, whose size the merge record array
    gives, so only the returned partition is cut. A step is rejected with
    ``stopped_by`` "tau" when that group is below ``tau`` of the
    instances, and otherwise with "duplicates" when the merge it undoes
    has height exactly 0, which joined copies of one vector under every
    linkage.
    """
    config = config or CgfConfig()
    x = np.asarray(vectors, dtype=np.float64)
    m = x.shape[0]
    k_max = config.effective_k_max(m)
    min_size = config.tau * m

    selection = select_best_measure(x, config.k_start, config.linkage)
    # Going from k to k + 1 groups undoes merge m - 1 - k.
    heights = selection.dendrogram.merges["height"]
    smaller = selection.dendrogram.smaller_children()
    k = config.k_start - 1
    trace: list[dict] = []
    stopped_by = "k_max"
    rejected_size: int | None = None
    while k < k_max:
        size, height = smaller[m - 1 - k], heights[m - 1 - k]
        rejected_by = "tau" if size < min_size else "duplicates" if height == 0 else None
        trace.append({"k": k + 1, "new_group_size": size, "accepted": rejected_by is None})
        if rejected_by is not None:
            stopped_by = rejected_by
            rejected_size = size
            break
        k += 1

    grouping = Grouping(
        assignment=cut(selection.dendrogram, k),
        K=k,
        measure=selection.measure,
        hubert_scores=dict(selection.scores),
    )
    return CgfResult(
        grouping=grouping,
        stopped_by=stopped_by,
        accepted_k=k,
        rejected_size=rejected_size,
        trace=trace,
        dendrogram_fingerprint=selection.dendrogram.fingerprint(),
    )
