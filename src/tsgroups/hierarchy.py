"""Agglomerative hierarchical clustering with automatic measure selection.

Merging follows the classic Lance-Williams updates with a deterministic
tie-break; cutting a dendrogram at successive k values yields nested
partitions, which the consistent-grouping iteration relies on.
"""

from __future__ import annotations

import enum
import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .distances import (
    MEASURE_ORDER,
    DistanceMeasureId,
    MahalanobisContext,
    cross_distances,
    distance_blocks,
    fit_mahalanobis,
    kernel_rows,
    pairwise_matrix,
)
from .types import AecsMatrix

logger = logging.getLogger(__name__)


class Linkage(str, enum.Enum):
    AVERAGE = "AVERAGE"
    COMPLETE = "COMPLETE"
    SINGLE = "SINGLE"

    def __str__(self) -> str:
        return self.value


@dataclass
class Dendrogram:
    """Merge history over M leaves.

    Leaves carry ids ``0..M-1``; the cluster created by merge step s gets id
    ``M + s``. Each merge record is ``(a_id, b_id, height)`` with a < b.
    """

    n_leaves: int
    merges: list[tuple[int, int, float]]
    linkage: Linkage

    def __post_init__(self) -> None:
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError(f"expected {self.n_leaves - 1} merges, got {len(self.merges)}")
        heights = [m[2] for m in self.merges]
        for i in range(1, len(heights)):
            if heights[i] < heights[i - 1] - 1e-12:
                logger.warning(
                    "non-monotone merge heights at step %d: %.17g < %.17g (kept in merge order)",
                    i, heights[i], heights[i - 1],
                )
                break

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.n_leaves).encode())
        h.update(self.linkage.value.encode())
        for a, b, height in self.merges:
            h.update(f"{a},{b},{height!r};".encode())
        return h.hexdigest()


# Rows per tile of the symmetry check.
_SYMMETRY_TILE = 64


def _validate_distance_matrix(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    m = dist.shape[0]
    if m < 2:
        raise ValueError("need at least two instances")
    low, high = dist.min(), dist.max()  # a NaN anywhere makes both NaN
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("distance matrix contains NaN/Inf")
    if low < 0:
        raise ValueError("distance matrix has negative entries")
    for lo in range(0, m, _SYMMETRY_TILE):
        hi = lo + _SYMMETRY_TILE
        if not np.array_equal(dist[lo:hi, lo:], dist[lo:, lo:hi].T):
            raise ValueError("distance matrix is not symmetric")
    if np.any(np.diag(dist) != 0):
        raise ValueError("distance matrix diagonal must be zero")
    return dist


def agglomerate(dist: np.ndarray, linkage: Linkage = Linkage.AVERAGE) -> Dendrogram:
    """Merge the M instances of a pairwise matrix down to one cluster.

    Among candidate merges at the same (exactly equal) distance, the pair
    whose sorted cluster-id tuple is lexicographically smallest merges
    first, making the dendrogram independent of evaluation order. Every
    tied pair joins two rows whose cached minimum equals the height, so that
    pair is the tied row with the smallest id and, within its row, the tied
    column with the smallest id.

    The matrix is consumed: clustering works inside it, so it holds no
    distances when this returns, and no second M x M is made. Pass a copy
    to keep the distances. Only a matrix that is not a writeable
    C-contiguous float64 array is copied first. A retired cluster's row and
    column are left as they are; every read adds the penalty row ``pen``
    (-0.0 on live columns, which leaves a value as it is, and inf on
    retired ones). Each merge costs O(P) numpy work for the tie-break, the
    Lance-Williams update of the merged row and its one column write, plus
    O(P) for each row whose cached minimum pointed at either merged
    cluster, where P is the matrix's current size.
    When the live clusters fall to half of P, their rows and columns are
    gathered in order into the start of the same buffer, so positions keep
    their order. Ties add no loop over tied pairs, so inputs full of exact
    duplicates cluster about as fast as distinct ones.
    """
    dist = _validate_distance_matrix(dist)
    linkage = Linkage(linkage)
    m = dist.shape[0]

    work = np.require(dist, requirements="CW")
    buffer = work.reshape(m * m)
    np.fill_diagonal(work, np.inf)
    pen = np.full(m, -0.0)
    active = np.ones(m, dtype=bool)
    sizes = np.ones(m, dtype=np.int64)
    ids = np.arange(m, dtype=np.int64)
    row_min = work.min(axis=1)
    row_arg = work.argmin(axis=1)

    merges: list[tuple[int, int, float]] = []
    for step in range(m - 1):
        # Retired rows hold inf, so the minimum over all rows is the height.
        height = row_min.min()
        tied = (row_min == height).nonzero()[0]
        i = tied[ids[tied].argmin()]
        partners = (work[i] + pen == height).nonzero()[0]
        j = partners[ids[partners].argmin()]
        si, sj = min(i, j), max(i, j)
        merges.append((int(ids[i]), int(ids[j]), float(height)))

        di, dj = work[si], work[sj]
        if linkage is Linkage.SINGLE:
            updated = np.minimum(di, dj)
        elif linkage is Linkage.COMPLETE:
            updated = np.maximum(di, dj)
        else:
            ni, nj = sizes[si], sizes[sj]
            updated = (ni * di + nj * dj) / (ni + nj)
        updated += pen
        updated[si] = updated[sj] = np.inf

        work[si] = updated
        work[:, si] = updated
        pen[sj] = np.inf
        active[sj] = False
        row_min[sj] = np.inf
        sizes[si] += sizes[sj]
        ids[si] = m + step

        if step == m - 2:
            break
        # Refresh cached row minima invalidated by the merge. Retired rows are
        # never refreshed, and a gather holds at most 1/32 of the matrix.
        row_min[si] = updated.min()
        row_arg[si] = updated.argmin()
        stale = (row_arg == si) | (row_arg == sj)
        stale &= active
        stale[si] = False
        ks = stale.nonzero()[0]
        chunk = max(1, work.shape[0] // 32)
        for lo in range(0, ks.size, chunk):
            part = ks[lo:lo + chunk]
            rows = work[part]
            rows += pen
            row_min[part] = rows.min(axis=1)
            row_arg[part] = rows.argmin(axis=1)
        improved = active & (updated < row_min)
        row_min[improved] = updated[improved]
        row_arg[improved] = si

        live = m - 1 - step
        if 2 * live <= work.shape[0]:
            keep = np.flatnonzero(active)
            # Row a lands at or before row keep[a]'s start, behind every row still to be read.
            for a, r in enumerate(keep):
                buffer[a * live:(a + 1) * live] = work[r, keep]
            work = buffer[:live * live].reshape(live, live)
            row_arg = (np.cumsum(active) - 1)[row_arg[keep]]
            row_min, sizes, ids = row_min[keep], sizes[keep], ids[keep]
            pen = np.full(live, -0.0)
            active = np.ones(live, dtype=bool)

    return Dendrogram(n_leaves=m, merges=merges, linkage=linkage)


def cut(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Partition into exactly k groups by undoing the last k-1 merges.

    Group ids are assigned in order of each group's smallest member index,
    so successive cuts of one dendrogram keep stable ids.
    """
    m = dendrogram.n_leaves
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")

    pairs = np.array([(a, b) for a, b, _ in dendrogram.merges[:m - k]], dtype=np.int64).reshape(-1, 2)
    parent = np.arange(m + len(pairs), dtype=np.int64)
    parent[pairs[:, 0]] = parent[pairs[:, 1]] = np.arange(m, parent.size)
    while True:  # pointer jumping: each pass halves every path to a root
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped
    _, first, inverse = np.unique(parent[:m], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(m)]


def centroids(vectors: AecsMatrix | np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Arithmetic mean vector of each group, as a (K, h) matrix."""
    x = vectors.vectors if isinstance(vectors, AecsMatrix) else np.asarray(vectors, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if x.shape[0] != assignment.size:
        raise ValueError(f"{x.shape[0]} vectors vs {assignment.size} assignments")
    k = int(assignment.max()) + 1
    out = np.empty((k, x.shape[1]), dtype=np.float64)
    for g in range(k):
        members = assignment == g
        if not members.any():
            raise ValueError(f"group {g} is empty")
        out[g] = x[members].mean(axis=0)
    return out


def hubert_statistic(
    vectors: AecsMatrix | np.ndarray,
    assignment: np.ndarray,
    measure: DistanceMeasureId,
    ctx: MahalanobisContext | None = None,
) -> float:
    """Internal validity index: pairwise distance weighted by centroid distance.

    rho = 2/(M(M-1)) * sum_{i<j} d(x_i, x_j) * d(centroid(i), centroid(j)).
    Same-group pairs contribute zero since their centroid distance is zero,
    so only cross-group pairs are measured. With the instances ordered by
    group, each group's rows meet the rows of every later group through
    ``distance_blocks``, a block of rows at a time within the kernel's
    scratch budget, so no M x M matrix is made. Defined as 0 for a single
    group.
    """
    x = vectors.vectors if isinstance(vectors, AecsMatrix) else np.asarray(vectors, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    m = x.shape[0]
    if assignment.size != m:
        raise ValueError(f"{m} vectors vs {assignment.size} assignments")
    k = int(assignment.max()) + 1
    if k < 2 or m < 2:
        return 0.0

    measure = DistanceMeasureId(measure)
    cents = centroids(x, assignment)
    cent_dist = cross_distances(cents, cents, measure, ctx)
    xt = kernel_rows(x[np.argsort(assignment, kind="stable")], measure, ctx)
    sizes = np.bincount(assignment, minlength=k)
    ends = np.cumsum(sizes)
    total = 0.0
    for g in range(k - 1):
        # Each later row's weight is its group's centroid distance to group g.
        weights = np.repeat(cent_dist[g, g + 1:], sizes[g + 1:])
        for block in distance_blocks(xt[:, ends[g] - sizes[g]:ends[g]], xt[:, ends[g]:], measure):
            total += float(block.sum(axis=0) @ weights)
    return 2.0 * total / (m * (m - 1))


@dataclass
class MeasureSelection:
    """What the winning measure produced: its partition and tree.

    ``scores`` holds every measure's Hubert rho, keyed by measure token.
    """

    measure: DistanceMeasureId
    assignment: np.ndarray
    dendrogram: Dendrogram
    scores: dict[str, float]


def select_best_measure(
    aecs: AecsMatrix | np.ndarray,
    k: int,
    linkage: Linkage = Linkage.AVERAGE,
) -> MeasureSelection:
    """Cluster under all three measures, keep the one with maximum rho.

    Raw rho values are compared; exact ties break toward the fixed order
    CHEBYSHEV < MANHATTAN < MAHALANOBIS.
    """
    if k < 2:
        raise ValueError(f"measure selection needs k >= 2, got {k}")
    x = aecs.vectors if isinstance(aecs, AecsMatrix) else np.asarray(aecs, dtype=np.float64)

    scores: dict[str, float] = {}
    best: MeasureSelection | None = None
    best_rho = -np.inf
    for measure in MEASURE_ORDER:
        ctx = fit_mahalanobis(aecs) if measure is DistanceMeasureId.MAHALANOBIS else None
        # Clustering consumes the matrix, so one M x M is alive at a time.
        dendrogram = agglomerate(pairwise_matrix(x, measure, ctx), linkage)
        assignment = cut(dendrogram, k)
        rho = hubert_statistic(x, assignment, measure, ctx)
        scores[measure.value] = rho
        if best is None or rho > best_rho:
            best_rho = rho
            # Shares ``scores``, which the remaining iterations complete.
            best = MeasureSelection(measure=measure, assignment=assignment,
                                    dendrogram=dendrogram, scores=scores)
    assert best is not None
    return best

