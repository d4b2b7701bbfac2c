"""Slow, obviously-correct reference implementations.

Everything here recomputes results with plain double loops and
first-principles definitions, deliberately sharing no code with the
fast paths the tests compare them against.
"""

from __future__ import annotations

import numpy as np

from tsgroups.distances import DistanceMeasureId, MahalanobisContext
from tsgroups.hierarchy import Dendrogram, Linkage


def naive_chebyshev(a: np.ndarray, b: np.ndarray) -> float:
    worst = 0.0
    for x, y in zip(a, b, strict=True):
        gap = abs(float(x) - float(y))
        if gap > worst:
            worst = gap
    return worst


def naive_manhattan(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    for x, y in zip(a, b, strict=True):
        total += abs(float(x) - float(y))
    return total


def naive_mahalanobis(a: np.ndarray, b: np.ndarray, ctx: MahalanobisContext) -> float:
    delta = [float(x) - float(y) for x, y in zip(a, b, strict=True)]
    h = len(delta)
    quad = 0.0
    for i in range(h):
        for j in range(h):
            quad += delta[i] * ctx.inverse_covariance[i, j] * delta[j]
    return float(np.sqrt(max(quad, 0.0)))


def naive_distance(a: np.ndarray, b: np.ndarray, measure: DistanceMeasureId,
                   ctx: MahalanobisContext | None = None) -> float:
    if measure is DistanceMeasureId.CHEBYSHEV:
        return naive_chebyshev(a, b)
    if measure is DistanceMeasureId.MANHATTAN:
        return naive_manhattan(a, b)
    if ctx is None:
        raise ValueError("Mahalanobis needs a fitted context")
    return naive_mahalanobis(a, b, ctx)


def naive_pairwise(x: np.ndarray, measure: DistanceMeasureId,
                   ctx: MahalanobisContext | None = None) -> np.ndarray:
    m = x.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i, j] = naive_distance(x[i], x[j], measure, ctx)
    return out


def naive_centroids(x: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    k = int(max(assignment)) + 1
    h = x.shape[1]
    out = np.zeros((k, h))
    for g in range(k):
        members = [i for i in range(len(assignment)) if assignment[i] == g]
        for dim in range(h):
            out[g, dim] = sum(float(x[i, dim]) for i in members) / len(members)
    return out


def naive_hubert(x: np.ndarray, assignment: np.ndarray, measure: DistanceMeasureId,
                 ctx: MahalanobisContext | None = None) -> float:
    m = x.shape[0]
    k = int(max(assignment)) + 1
    if k < 2 or m < 2:
        return 0.0
    cents = naive_centroids(x, assignment)
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            gi, gj = int(assignment[i]), int(assignment[j])
            if gi == gj:
                continue
            total += naive_distance(x[i], x[j], measure, ctx) * naive_distance(
                cents[gi], cents[gj], measure, ctx)
    return 2.0 * total / (m * (m - 1))


def _set_distance(dist: np.ndarray, members_a: list[int], members_b: list[int],
                  linkage: Linkage) -> float:
    """Cluster distance recomputed from scratch over all cross pairs."""
    values = [float(dist[i, j]) for i in members_a for j in members_b]
    if linkage is Linkage.SINGLE:
        return min(values)
    if linkage is Linkage.COMPLETE:
        return max(values)
    return sum(values) / len(values)


def naive_agglomerate(dist: np.ndarray, linkage: Linkage = Linkage.AVERAGE) -> Dendrogram:
    """O(M^4) agglomeration evaluating every candidate pair from raw pairs.

    Uses the same tie-break contract as the fast path: among candidate
    merges at the minimal distance, the smallest (min id, max id) pair
    merges first.
    """
    dist = np.asarray(dist, dtype=np.float64)
    m = dist.shape[0]
    linkage = Linkage(linkage)
    clusters: list[tuple[int, list[int]]] = [(i, [i]) for i in range(m)]
    merges: list[tuple[int, int, float]] = []
    for step in range(m - 1):
        best_value = None
        best_key = None
        best_slots = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                value = _set_distance(dist, clusters[a][1], clusters[b][1], linkage)
                key = (min(clusters[a][0], clusters[b][0]), max(clusters[a][0], clusters[b][0]))
                if best_value is None or value < best_value or (value == best_value and key < best_key):
                    best_value = value
                    best_key = key
                    best_slots = (a, b)
        a, b = best_slots
        merges.append((best_key[0], best_key[1], float(best_value)))
        merged = (m + step, clusters[a][1] + clusters[b][1])
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append(merged)
    return Dendrogram(n_leaves=m, merges=merges, linkage=linkage)


def naive_sigmoid(x: np.ndarray) -> np.ndarray:
    """Two-branch logistic function over boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def naive_cell_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray, h_prev: np.ndarray,
                       c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step with one activation call and one array per gate."""
    n = h_prev.shape[1]
    z = np.concatenate([x, h_prev], axis=1)
    a = z @ w.T + b
    i = naive_sigmoid(a[:, :n])
    f = naive_sigmoid(a[:, n:2 * n])
    g = np.tanh(a[:, 2 * n:3 * n])
    o = naive_sigmoid(a[:, 3 * n:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (z, i, f, g, o, c_prev, tc)


def naive_cell_backward(w: np.ndarray, cache: tuple, dh: np.ndarray, dc: np.ndarray,
                        dw: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop of ``naive_cell_forward``, one temporary per gate gradient."""
    z, i, f, g, o, c_prev, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    dg = dc_total * i
    df = dc_total * c_prev
    dc_prev = dc_total * f
    da = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        dg * (1.0 - g * g),
        do * o * (1.0 - o),
    ], axis=1)
    dw += da.T @ z
    db += da.sum(axis=0)
    return da @ w, dc_prev
