"""Candidate distance measures over representation vectors.

Three measures are supported: Chebyshev (max coordinate difference),
Manhattan (sum of coordinate differences) and Mahalanobis under a ridge-
regularized covariance fitted on the full set of vectors being compared.
Mahalanobis is Euclidean distance after Cholesky whitening: with
``L Lᵀ = C'⁻¹``, ``sqrt(δᵀ C'⁻¹ δ) = ‖δᵀ L‖``. So one kernel reduces
``|x_i - y_j|`` for every measure, and only numpy is needed. It works
feature-major over blocks of rows and adds a distance's terms in the
order ``np.sum`` would, so its floats are those of a per-row
``max``/``sum``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .types import AecsMatrix


class DistanceMeasureId(str, enum.Enum):
    """Closed set of measure tokens; also the fixed tie-break order."""

    CHEBYSHEV = "CHEBYSHEV"
    MANHATTAN = "MANHATTAN"
    MAHALANOBIS = "MAHALANOBIS"

    def __str__(self) -> str:  # serialize as the bare token
        return self.value


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
    if isinstance(aecs, AecsMatrix):
        x = aecs.vectors
        fingerprint = aecs.fingerprint()
    else:
        x = np.ascontiguousarray(aecs, dtype=np.float64)
        h = hashlib.sha256()
        h.update(str(x.shape).encode())
        h.update(x.tobytes())
        fingerprint = h.hexdigest()
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

    return MahalanobisContext(inverse_covariance=inverse, epsilon=epsilon, source_fingerprint=fingerprint)


# Scratch bytes one kernel call holds besides its output; sets the rows per block.
_SCRATCH_BYTES = 1 << 20


def _kernel_rows(x: np.ndarray, measure: DistanceMeasureId,
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


def _sum_slots(h: int) -> int:
    """Scratch blocks ``_pairwise_sum`` needs to add h terms."""
    if h < 8:
        return 1
    if h <= 128:
        return 8
    half = h // 2 - (h // 2) % 8
    return max(_sum_slots(half), 1 + _sum_slots(h - half))


def _pairwise_sum(term, lo: int, hi: int, acc: np.ndarray, scratch: np.ndarray) -> None:
    """Add terms ``lo..hi-1`` into ``acc`` in the order ``np.sum`` adds a contiguous axis.

    That is numpy's pairwise summation: in sequence below 8 terms, eight
    running sums over strides of 8 up to 128 terms, and two halves (split
    at a multiple of 8) above. ``term(f, out)`` writes term f into ``out``.
    """
    n = hi - lo
    if n < 8:
        term(lo, acc)
        for f in range(lo + 1, hi):
            acc += term(f, scratch[0])
    elif n <= 128:
        parts = [acc, *scratch[:7]]
        for j in range(8):
            term(lo + j, parts[j])
        tail = hi - n % 8
        for base in range(lo + 8, tail, 8):
            for j in range(8):
                parts[j] += term(base + j, scratch[7])
        r0, r1, r2, r3, r4, r5, r6, r7 = parts
        r0 += r1
        r2 += r3
        r0 += r2
        r4 += r5
        r6 += r7
        r4 += r6
        r0 += r4
        for f in range(tail, hi):
            acc += term(f, scratch[7])
    else:
        half = n // 2 - (n // 2) % 8
        _pairwise_sum(term, lo, lo + half, acc, scratch)
        _pairwise_sum(term, lo + half, hi, scratch[0], scratch[1:])
        acc += scratch[0]


def _block_distances(xt: np.ndarray, yt: np.ndarray, measure: DistanceMeasureId,
                     out: np.ndarray, scratch: np.ndarray) -> None:
    """Distances from kernel columns ``xt`` (h, r) to ``yt`` (h, n) into ``out`` (r, n).

    One feature at a time: ``|x_f - y_f|`` over the whole block, then
    combined with the running result, so each distance gets the same
    floats as ``max``/``sum`` over its row of gaps.
    """
    def gap(f: int, dest: np.ndarray) -> np.ndarray:
        np.subtract(xt[f, :, None], yt[f], out=dest)
        return np.abs(dest, out=dest)

    def squared_gap(f: int, dest: np.ndarray) -> np.ndarray:
        np.subtract(xt[f, :, None], yt[f], out=dest)
        return np.multiply(dest, dest, out=dest)

    h = xt.shape[0]
    if measure is DistanceMeasureId.CHEBYSHEV:
        gap(0, out)
        for f in range(1, h):
            np.maximum(out, gap(f, scratch[0]), out=out)
    elif measure is DistanceMeasureId.MANHATTAN:
        _pairwise_sum(gap, 0, h, out, scratch)
    else:
        _pairwise_sum(squared_gap, 0, h, out, scratch)
        np.sqrt(out, out=out)


def _fill(xt: np.ndarray, yt: np.ndarray, measure: DistanceMeasureId, out: np.ndarray,
          upper: bool = False) -> None:
    """Write ``out[i, j] = d(x_i, y_j)`` a block of rows at a time.

    The blocks' scratch stays within ``_SCRATCH_BYTES``. With ``upper``
    (``x`` is ``y``), a block of rows ``lo:hi`` is computed only for
    columns from ``lo`` on, and mirrored below the diagonal as one tile.
    """
    (h, rows), cols = xt.shape, yt.shape[1]
    slots = 1 if measure is DistanceMeasureId.CHEBYSHEV else _sum_slots(h)
    flat = np.empty(min(max(_SCRATCH_BYTES // 8, slots * cols), slots * rows * cols))
    lo = 0
    while lo < rows:
        first = lo if upper else 0
        n = cols - first
        hi = min(lo + max(1, _SCRATCH_BYTES // (8 * slots * max(n, 1))), rows)
        block = out[lo:hi, first:]
        scratch = flat[: slots * (hi - lo) * n].reshape(slots, hi - lo, n)
        _block_distances(xt[:, lo:hi], yt[:, first:], measure, block, scratch)
        if upper:
            out[hi:, lo:hi] = block[:, hi - lo:].T
        lo = hi


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
    _fill(_kernel_rows(x, measure, ctx), _kernel_rows(y, measure, ctx), measure, out)
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
    xt = _kernel_rows(x, measure, ctx)
    out = np.empty((x.shape[0], x.shape[0]), dtype=np.float64)
    _fill(xt, xt, measure, out, upper=True)
    np.fill_diagonal(out, 0.0)
    return out
