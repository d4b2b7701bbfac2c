"""Candidate distance measures over representation vectors.

Three measures are supported: Chebyshev (max coordinate difference),
Manhattan (sum of coordinate differences) and Mahalanobis under a ridge-
regularized covariance fitted on the full set of vectors being compared.
Mahalanobis is Euclidean distance after Cholesky whitening: with
``L Lᵀ = C'⁻¹``, ``sqrt(δᵀ C'⁻¹ δ) = ‖δᵀ L‖``. So one row kernel reduces
``|y - x_i|`` for every measure, and only numpy is needed.
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


def _kernel_rows(x: np.ndarray, measure: DistanceMeasureId,
                 ctx: MahalanobisContext | None) -> np.ndarray:
    """The rows the kernel reduces: ``x`` itself, or ``x @ L`` for Mahalanobis."""
    if measure is not DistanceMeasureId.MAHALANOBIS:
        return x
    if ctx is None:
        raise ValueError("MAHALANOBIS requires a fitted context")
    if x.shape[1] != ctx.width:
        raise ValueError(f"vectors have width {x.shape[1]}, context expects {ctx.width}")
    return x @ ctx.whitening


def _row_distances(x_i: np.ndarray, y: np.ndarray, measure: DistanceMeasureId) -> np.ndarray:
    """Distances from one kernel row ``x_i`` to every kernel row of ``y``."""
    gap = np.abs(y - x_i)
    if measure is DistanceMeasureId.CHEBYSHEV:
        return np.max(gap, axis=1)
    if measure is DistanceMeasureId.MANHATTAN:
        return np.sum(gap, axis=1)
    return np.sqrt(np.sum(gap * gap, axis=1))


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
    x = _kernel_rows(x, measure, ctx)
    y = _kernel_rows(y, measure, ctx)
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    for i in range(x.shape[0]):
        out[i] = _row_distances(x[i], y, measure)
    return out


def pairwise_matrix(
    aecs: AecsMatrix | np.ndarray,
    measure: DistanceMeasureId,
    ctx: MahalanobisContext | None = None,
) -> np.ndarray:
    """Full symmetric M x M distance matrix with an exactly zero diagonal.

    Only the upper triangle is computed; the lower half is mirrored, so the
    matrix equals its transpose bit-for-bit.
    """
    x = aecs.vectors if isinstance(aecs, AecsMatrix) else np.ascontiguousarray(aecs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"need an (M, h) matrix, got {x.shape}")
    m = x.shape[0]
    measure = DistanceMeasureId(measure)
    x = _kernel_rows(x, measure, ctx)

    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        row = _row_distances(x[i], x[i + 1 :], measure)
        out[i, i + 1 :] = row
        out[i + 1 :, i] = row
    return out
