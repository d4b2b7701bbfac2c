"""Candidate distance measures over representation vectors.

Three measures are supported: Chebyshev (max coordinate difference),
Manhattan (sum of coordinate differences) and Mahalanobis under a ridge-
regularized covariance fitted on the full set of vectors being compared.
Mahalanobis is Euclidean distance after Cholesky whitening: with
``L Lᵀ = C'⁻¹``, ``sqrt(δᵀ C'⁻¹ δ) = ‖δᵀ L‖``. So one kernel reduces
``|x_i - y_j|`` for every measure, and only numpy is needed. It works
feature-major over blocks of rows and adds a distance's terms in feature
order, first to last, as a plain loop over the features would.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .types import AecsMatrix, DistanceMeasureId, vectors_fingerprint


MEASURE_ORDER = (
    DistanceMeasureId.CHEBYSHEV,
    DistanceMeasureId.MANHATTAN,
    DistanceMeasureId.MAHALANOBIS,
)

EPSILON_FLOOR = 1e-12


@dataclass
class MahalanobisContext:
    """Inverse regularized covariance plus a fingerprint of the fitting set.

    ``whitening`` is the lower Cholesky factor ``L`` of the inverse
    covariance (``L Lᵀ = C'⁻¹``). It is derived here, so hand-built
    contexts work too, and a matrix that is not symmetric positive
    definite is rejected.
    """

    inverse_covariance: np.ndarray
    epsilon: float
    source_fingerprint: str
    whitening: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.inverse_covariance = np.ascontiguousarray(self.inverse_covariance, dtype=np.float64)
        m = self.inverse_covariance
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"inverse covariance must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("inverse covariance contains NaN/Inf")
        if not np.array_equal(m, m.T):  # the Cholesky factor reads one triangle only
            raise ValueError("inverse covariance is not symmetric")
        try:
            self.whitening = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("inverse covariance is not positive definite") from None

    @property
    def width(self) -> int:
        return self.inverse_covariance.shape[0]


def fit_mahalanobis(aecs: AecsMatrix | np.ndarray, epsilon_scale: float = 1e-6) -> MahalanobisContext:
    """Fit the regularized inverse covariance of a vector set.

    Uses the unbiased sample covariance (divisor M-1) ridged by
    ``epsilon_scale * trace(C)/h`` (floored at 1e-12) so the matrix stays
    positive definite even for degenerate sets; positive definiteness is
    checked by running the Cholesky factorization.
    """
    x = aecs.vectors if isinstance(aecs, AecsMatrix) else np.ascontiguousarray(aecs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need an (M >= 2, h) matrix, got {x.shape}")
    width = x.shape[1]

    cov = np.cov(x, rowvar=False, ddof=1).reshape(width, width)
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance is not finite")
    epsilon = max(epsilon_scale * float(np.trace(cov)) / width, EPSILON_FLOOR)
    regularized = cov + epsilon * np.eye(width)

    chol = np.linalg.cholesky(regularized)  # raises LinAlgError if not SPD
    inv_chol = np.linalg.inv(chol)
    inverse = inv_chol.T @ inv_chol

    return MahalanobisContext(inverse_covariance=inverse, epsilon=epsilon,
                              source_fingerprint=vectors_fingerprint(x))


# Scratch bytes one kernel call holds besides its output; sets the rows per block.
_SCRATCH_BYTES = 1 << 20


def kernel_rows(x: np.ndarray, measure: DistanceMeasureId,
                ctx: MahalanobisContext | None) -> np.ndarray:
    """The kernel's rows, feature-major: ``x.T``, or ``(x @ L).T`` for Mahalanobis."""
    if x.shape[1] == 0:
        raise ValueError("vectors have zero width")
    if measure is DistanceMeasureId.MAHALANOBIS:
        if ctx is None:
            raise ValueError("MAHALANOBIS requires a fitted context")
        if x.shape[1] != ctx.width:
            raise ValueError(f"vectors have width {x.shape[1]}, context expects {ctx.width}")
        x = x @ ctx.whitening
    return np.ascontiguousarray(x.T)


def _block_distances(xt: np.ndarray, yt: np.ndarray, measure: DistanceMeasureId,
                     out: np.ndarray, scratch: np.ndarray) -> None:
    """Distances from kernel columns ``xt`` (h, r) to ``yt`` (h, n) into ``out`` (r, n).

    One feature at a time, in feature order: ``|x_f - y_f|`` (squared for
    Mahalanobis) over the whole block into ``scratch``, then folded into the
    running result with ``np.maximum`` for Chebyshev and ``np.add`` otherwise.
    """
    fold = np.maximum if measure is DistanceMeasureId.CHEBYSHEV else np.add
    squared = measure is DistanceMeasureId.MAHALANOBIS
    for f in range(xt.shape[0]):
        term = scratch if f else out
        np.subtract(xt[f, :, None], yt[f], out=term)
        if squared:
            np.multiply(term, term, out=term)
        else:
            np.abs(term, out=term)
        if f:
            fold(out, term, out=out)
    if squared:
        np.sqrt(out, out=out)


def _worker_count() -> int:
    """The CPUs this process may run on: one block worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def reduce_blocks(xt: np.ndarray, yt: np.ndarray, measure: DistanceMeasureId,
                  reduce: Callable[[np.ndarray], Any] | None = None,
                  out: np.ndarray | None = None, upper: bool = False) -> list:
    """Distances from kernel columns ``xt`` (h, r) to ``yt`` (h, n), a block of rows at a time.

    Returns ``reduce(block)`` for each block, in row order, where the block
    of rows ``lo:hi`` holds ``d(x_i, y_j)`` at ``[i - lo, j]``. The rows per
    block follow from ``_SCRATCH_BYTES`` alone, so the blocks, and any sum
    over them, are the same on every CPU count. A block is written into
    ``out[lo:hi]``, or into a buffer reused for the worker's next block when
    ``out`` is None, so ``reduce`` must not keep it. With ``upper`` (``x`` is
    ``y``, ``out`` given), a block of rows ``lo:hi`` is computed only for
    columns from ``lo`` on, into ``out[lo:hi, lo:]``, and mirrored below the
    diagonal as one tile.

    The blocks run on one worker per CPU (``os.sched_getaffinity``), the
    calling thread among them; a single block or a single CPU runs inline.
    The workers share the ``_SCRATCH_BYTES`` budget: each computes its
    block in row tiles with ``1/W`` of it as term scratch, so there are no
    more workers than rows that fit the budget. Without ``out``, each worker
    also holds its own block, so the workers' blocks together stay within
    twice the budget: at most two full-size blocks run at once. Every buffer
    is allocated here before the workers start, and a worker calls nothing
    but ``_block_distances`` and ``reduce``. An exception in any worker is
    raised here once all workers have stopped.
    """
    (h, rows), cols = xt.shape, yt.shape[1]
    if yt.shape[0] != h:
        raise ValueError(f"width mismatch: {h} vs {yt.shape[0]}")

    def block_rows(n: int, budget: int) -> int:
        return max(1, budget // (8 * max(n, 1)))

    bounds = []
    lo = 0
    while lo < rows:
        hi = min(lo + block_rows(cols - lo if upper else cols, _SCRATCH_BYTES), rows)
        bounds.append((lo, hi))
        lo = hi
    reused_size = min(block_rows(cols, _SCRATCH_BYTES), rows) * cols
    workers = min(_worker_count(), len(bounds), block_rows(cols, _SCRATCH_BYTES))
    if out is None:
        workers = min(workers, 2 * _SCRATCH_BYTES // max(8 * reused_size, 1))
    workers = max(1, workers)
    budget = _SCRATCH_BYTES // workers
    scratch = [np.empty(min(max(budget // 8, cols), rows * cols)) for _ in range(workers)]
    reused = [np.empty(reused_size) if out is None else None for _ in range(workers)]
    results: list = [None] * len(bounds)
    errors: list[BaseException] = []
    unclaimed = iter(range(len(bounds)))
    claiming = threading.Lock()

    def work(w: int) -> None:
        try:
            while not errors:
                with claiming:
                    b = next(unclaimed, None)
                if b is None:
                    return
                lo, hi = bounds[b]
                first = lo if upper else 0
                n = cols - first
                block = reused[w][:(hi - lo) * n].reshape(hi - lo, n) if out is None else out[lo:hi, first:]
                tile = block_rows(n, budget)
                for a in range(lo, hi, tile):
                    z = min(a + tile, hi)
                    _block_distances(xt[:, a:z], yt[:, first:], measure, block[a - lo:z - lo],
                                     scratch[w][:(z - a) * n].reshape(z - a, n))
                if upper:
                    out[hi:, lo:hi] = block[:, hi - lo:].T
                if reduce is not None:
                    results[b] = reduce(block)
        except BaseException as exc:  # re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def cross_distances(
    x: np.ndarray,
    y: np.ndarray,
    measure: DistanceMeasureId,
    ctx: MahalanobisContext | None = None,
) -> np.ndarray:
    """All pairwise distances between rows of ``x`` (n, h) and ``y`` (m, h)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"width mismatch: {x.shape[1]} vs {y.shape[1]}")
    measure = DistanceMeasureId(measure)
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    reduce_blocks(kernel_rows(x, measure, ctx), kernel_rows(y, measure, ctx), measure, out=out)
    return out


def pairwise_matrix(
    aecs: AecsMatrix | np.ndarray,
    measure: DistanceMeasureId,
    ctx: MahalanobisContext | None = None,
) -> np.ndarray:
    """Full symmetric M x M distance matrix with an exactly zero diagonal.

    Only blocks on and above the diagonal are computed; each is mirrored
    into the lower half as one tile, so the matrix equals its transpose
    bit-for-bit.
    """
    x = aecs.vectors if isinstance(aecs, AecsMatrix) else np.ascontiguousarray(aecs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"need an (M, h) matrix, got {x.shape}")
    measure = DistanceMeasureId(measure)
    xt = kernel_rows(x, measure, ctx)
    out = np.empty((x.shape[0], x.shape[0]), dtype=np.float64)
    reduce_blocks(xt, xt, measure, out=out, upper=True)
    np.fill_diagonal(out, 0.0)
    return out
