"""Agglomerative hierarchical clustering with automatic measure selection.

Merging follows the classic Lance-Williams updates with a deterministic
tie-break; cutting a dendrogram at successive k values yields nested
partitions, each splitting one group into the two children of a merge.
A dendrogram holds its merges as one numpy record array of ``MERGE_DTYPE``
rows, ``(a, b, height)``, in merge order.
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
    fit_mahalanobis,
    kernel_rows,
    pairwise_matrix,
    reduce_blocks,
)
from .types import AecsMatrix

logger = logging.getLogger(__name__)


class Linkage(str, enum.Enum):
    AVERAGE = "AVERAGE"
    COMPLETE = "COMPLETE"
    SINGLE = "SINGLE"

    def __str__(self) -> str:
        return self.value


# One merge: the ids of the two clusters it joins and its height.
MERGE_DTYPE = np.dtype([("a", np.int64), ("b", np.int64), ("height", np.float64)])


@dataclass
class Dendrogram:
    """Merge history over M leaves.

    Leaves carry ids ``0..M-1``; the cluster created by merge step s gets id
    ``M + s``. ``merges`` is an (M-1,) record array of ``MERGE_DTYPE``:
    row s is ``(a, b, height)`` with a < b, and ``merges["a"]``,
    ``merges["b"]`` and ``merges["height"]`` are its columns. Any sequence
    of ``(a, b, height)`` tuples is converted to it.
    """

    n_leaves: int
    merges: np.ndarray
    linkage: Linkage

    def __post_init__(self) -> None:
        self.merges = np.asarray(self.merges, dtype=MERGE_DTYPE)
        if self.merges.shape != (self.n_leaves - 1,):
            raise ValueError(f"expected {self.n_leaves - 1} merges, got shape {self.merges.shape}")
        heights = self.merges["height"]
        drops = np.flatnonzero(heights[1:] < heights[:-1] - 1e-12) + 1
        if drops.size:
            i = int(drops[0])
            logger.warning(
                "non-monotone merge heights at step %d: %.17g < %.17g (kept in merge order)",
                i, heights[i], heights[i - 1],
            )

    def smaller_children(self) -> list[int]:
        """Leaf count of each merge's smaller child, in merge order."""
        counts = [1] * self.n_leaves
        smaller = []
        for a, b, _ in self.merges.tolist():
            counts.append(counts[a] + counts[b])
            smaller.append(min(counts[a], counts[b]))
        return smaller

    def fingerprint(self) -> str:
        # ``tolist`` gives Python floats, whose repr is the shortest round-trip text.
        h = hashlib.sha256()
        h.update(str(self.n_leaves).encode())
        h.update(self.linkage.value.encode())
        for a, b, height in self.merges.tolist():
            h.update(f"{a},{b},{height!r};".encode())
        return h.hexdigest()


# Side of the square tiles that the symmetry check compares with their mirror images.
_SYMMETRY_TILE = 128


def _working_matrix(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate ``dist``; return the matrix to cluster in, with an inf diagonal, and its row minima.

    The minima come with their columns. The matrix is read twice: once as
    tiles on and above the diagonal, each compared with its mirror image
    and then searched for its maximum, and once for each row's minimum,
    which the inf diagonal makes an off-diagonal one. A matrix found wrong
    raises the first of these errors that it earns: NaN/Inf, negative
    entries, asymmetry, a nonzero diagonal. Only a matrix that is not a
    writeable C-contiguous float64 array is copied, and a rejected one is
    left with the diagonal it came with.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got {dist.shape}")
    m = dist.shape[0]
    if m < 2:
        raise ValueError("need at least two instances")
    problem = "distance matrix diagonal must be zero" if np.any(np.diag(dist) != 0) else None
    t = _SYMMETRY_TILE
    highs = []
    for tile, mirror in ((dist[lo:lo + t, c:c + t], dist[c:c + t, lo:lo + t])
                         for lo in range(0, m, t) for c in range(lo, m, t)):
        if not np.array_equal(tile, mirror.T):  # a NaN is unequal to itself, so it lands here too
            problem = "distance matrix is not symmetric"
            break
        highs.append(tile.max())
    if problem is None and np.isfinite(max(highs)):
        work = np.require(dist, requirements="CW")
        np.fill_diagonal(work, np.inf)
        row_arg = work.argmin(axis=1)
        row_min = work[np.arange(m), row_arg]
        if row_min.min() >= 0:  # false for -inf as well
            return work, row_min, row_arg
        np.fill_diagonal(work, 0.0)
    low, high = dist.min(), dist.max()  # a NaN anywhere makes both NaN
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("distance matrix contains NaN/Inf")
    if low < 0:
        raise ValueError("distance matrix has negative entries")
    raise ValueError(problem)


def agglomerate(dist: np.ndarray, linkage: Linkage = Linkage.AVERAGE) -> Dendrogram:
    """Merge the M instances of a pairwise matrix down to one cluster.

    Among candidate merges at the same (exactly equal) distance, the pair
    whose sorted cluster-id tuple is lexicographically smallest merges
    first, making the dendrogram independent of evaluation order. Every
    tied pair joins two rows whose cached minimum equals the height, so that
    pair is the tied row with the smallest id and, within its row, the tied
    column with the smallest id; by symmetry, such a column is a tied row.

    The matrix is consumed: clustering works inside it, so it holds no
    distances when this returns, and no second M x M is made. Pass a copy
    to keep the distances. Only a matrix that is not a writeable
    C-contiguous float64 array is copied first. A retired cluster's row and
    column are left as they are, and its cached column is -1; every read
    adds the penalty row ``pen`` (-0.0 on live columns, which leaves a value
    as it is, and inf on retired ones). Each merge costs O(P) numpy work for
    the Lance-Williams update of the merged row and its one column write,
    plus O(P) for each row whose cached minimum pointed at either merged
    cluster, where P is the matrix's current size.
    When the live clusters fall to half of P, their rows and columns are
    gathered in order into the start of the same buffer, so positions keep
    their order. Ties add no loop over tied pairs, so inputs full of exact
    duplicates cluster about as fast as distinct ones. Merge s is written
    to row s of the dendrogram's preallocated ``MERGE_DTYPE`` record array.
    """
    linkage = Linkage(linkage)
    work, row_min, row_arg = _working_matrix(dist)
    m = work.shape[0]
    buffer = work.reshape(m * m)
    pen = np.full(m, -0.0)
    sizes = [1] * m
    ids = np.arange(m)

    merges = np.empty(m - 1, dtype=MERGE_DTYPE)
    for step in range(m - 1):
        # Retired rows hold inf, so the minimum over all rows is the height.
        height = row_min.min()
        tied = (row_min == height).nonzero()[0]
        i = tied[ids[tied].argmin()]
        partners = tied[work[i, tied] == height]
        j = partners[ids[partners].argmin()]
        si, sj = min(i, j), max(i, j)
        merges[step] = (ids[i], ids[j], height)

        di, dj = work[si], work[sj]
        if linkage is Linkage.SINGLE:
            updated = np.minimum(di, dj)
        elif linkage is Linkage.COMPLETE:
            updated = np.maximum(di, dj)
        else:
            ni, nj = sizes[si], sizes[sj]
            updated = di * ni  # (ni di + nj dj) / (ni + nj), with one temporary fewer
            updated += dj * nj
            updated /= ni + nj
        updated += pen
        updated[si] = updated[sj] = np.inf

        work[si] = updated
        work[:, si] = updated
        pen[sj] = row_min[sj] = np.inf
        row_arg[sj] = -1
        sizes[si] += sizes[sj]
        ids[si] = m + step

        if step == m - 2:
            break
        # Refresh cached row minima invalidated by the merge. Retired rows
        # point at no column, so they are never refreshed, and a gather
        # holds at most 1/32 of the matrix.
        arg = updated.argmin()
        row_min[si], row_arg[si] = updated[arg], arg
        ks = ((row_arg == si) | (row_arg == sj)).nonzero()[0]
        chunk = max(1, work.shape[0] // 32)
        for lo in range(0, ks.size, chunk):
            part = ks[lo:lo + chunk]
            rows = work[part]
            rows += pen
            args = rows.argmin(axis=1)
            row_min[part] = rows[np.arange(part.size), args]
            row_arg[part] = args
        # Retired rows and columns hold inf on both sides, so neither improves.
        improved = updated < row_min
        np.minimum(row_min, updated, out=row_min)
        row_arg[improved] = si

        live = m - 1 - step
        if 2 * live <= work.shape[0]:
            alive = row_arg >= 0
            keep = alive.nonzero()[0]
            # Row a lands at or before row keep[a]'s start, behind every row still to be read.
            for a, r in enumerate(keep):
                buffer[a * live:(a + 1) * live] = work[r, keep]
            work = buffer[:live * live].reshape(live, live)
            row_arg = (np.cumsum(alive) - 1)[row_arg[keep]]
            row_min = row_min[keep]
            ids = ids[keep]
            sizes = [sizes[r] for r in keep.tolist()]
            pen = np.full(live, -0.0)

    return Dendrogram(n_leaves=m, merges=merges, linkage=linkage)


def cut(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Partition into exactly k groups by undoing the last k-1 merges.

    Group ids are assigned in order of each group's smallest member index,
    so successive cuts of one dendrogram keep stable ids.
    """
    m = dendrogram.n_leaves
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")

    undone = dendrogram.merges[:m - k]
    parent = np.arange(m + len(undone), dtype=np.int64)
    parent[undone["a"]] = parent[undone["b"]] = np.arange(m, parent.size)
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
    ``reduce_blocks``, a block of rows at a time within the kernel's
    scratch budget, so no M x M matrix is made. The blocks' sums are added
    in row order, so rho is the same on every CPU count. Defined as 0 for a
    single group.
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
        for part in reduce_blocks(xt[:, ends[g] - sizes[g]:ends[g]], xt[:, ends[g]:], measure,
                                  lambda block: float(block.sum(axis=0) @ weights)):
            total += part
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

