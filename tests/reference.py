"""Slow, obviously-correct reference implementations.

Everything here recomputes results with plain double loops and
first-principles definitions, deliberately sharing no code with the
fast paths the tests compare them against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tsgroups.distances import DistanceMeasureId, MahalanobisContext
from tsgroups.hierarchy import Dendrogram, Linkage
from tsgroups.ingest import ACCELEROMETER_FILENAME, ColumnMap, RawSession, parse_session_name


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


def rowloop_pairwise_matrix(x: np.ndarray, measure: DistanceMeasureId,
                            ctx: MahalanobisContext | None = None) -> np.ndarray:
    """Row-at-a-time pairwise matrix with Mahalanobis as a quadratic form.

    Each upper-triangle row is reduced straight from ``y - x_i`` and
    mirrored into the lower half. Mahalanobis is ``sqrt(δᵀ C'⁻¹ δ)`` through
    ``einsum`` with the inverse covariance, independent of any whitening.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    m = x.shape[0]
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        diff = x[i + 1:] - x[i]
        if measure is DistanceMeasureId.CHEBYSHEV:
            row = np.max(np.abs(diff), axis=1)
        elif measure is DistanceMeasureId.MANHATTAN:
            row = np.sum(np.abs(diff), axis=1)
        else:
            q = np.einsum("ij,jk,ik->i", diff, ctx.inverse_covariance, diff)
            row = np.sqrt(np.maximum(q, 0.0))
        out[i, i + 1:] = row
        out[i + 1:, i] = row
    return out


def rowloop_cross_distances(x: np.ndarray, y: np.ndarray, measure: DistanceMeasureId,
                            ctx: MahalanobisContext | None = None) -> np.ndarray:
    """One row of ``cross_distances`` per Python step, reduced with numpy's own ``max``/``sum``.

    Mahalanobis reduces the rows after whitening with ``ctx.whitening``, so
    this is the fast kernel's float-for-float oracle.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if measure is DistanceMeasureId.MAHALANOBIS:
        x = x @ ctx.whitening
        y = y @ ctx.whitening
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    for i in range(x.shape[0]):
        gap = np.abs(y - x[i])
        if measure is DistanceMeasureId.CHEBYSHEV:
            out[i] = np.max(gap, axis=1)
        elif measure is DistanceMeasureId.MANHATTAN:
            out[i] = np.sum(gap, axis=1)
        else:
            out[i] = np.sqrt(np.sum(gap * gap, axis=1))
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


def rowloop_agglomerate(dist: np.ndarray, linkage: Linkage = Linkage.AVERAGE) -> Dendrogram:
    """Whole-matrix agglomeration that writes inf over every retired row and column.

    Same tie-break and Lance-Williams floats as the fast path, which must
    reproduce its merges, heights included, exactly.
    """
    dist = np.asarray(dist, dtype=np.float64)
    linkage = Linkage(linkage)
    m = dist.shape[0]
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(m, dtype=bool)
    sizes = np.ones(m, dtype=np.int64)
    ids = np.arange(m, dtype=np.int64)
    row_min = work.min(axis=1)
    row_arg = work.argmin(axis=1)
    merges: list[tuple[int, int, float]] = []
    for step in range(m - 1):
        height = row_min.min()
        tied = np.flatnonzero(row_min == height)
        i = tied[np.argmin(ids[tied])]
        partners = np.flatnonzero(work[i] == height)
        j = partners[np.argmin(ids[partners])]
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
        updated[si] = updated[sj] = np.inf
        work[si] = updated
        work[:, si] = updated
        work[sj, :] = np.inf
        work[:, sj] = np.inf
        active[sj] = False
        row_min[sj] = np.inf
        sizes[si] += sizes[sj]
        ids[si] = m + step
        if step == m - 2:
            break
        row_min[si] = updated.min()
        row_arg[si] = updated.argmin()
        stale = active & ((row_arg == si) | (row_arg == sj))
        stale[si] = False
        for k in np.flatnonzero(stale):
            row_min[k] = work[k].min()
            row_arg[k] = work[k].argmin()
        improved = active & (updated < row_min)
        row_min[improved] = updated[improved]
        row_arg[improved] = si
    return Dendrogram(n_leaves=m, merges=merges, linkage=linkage)


def unionfind_cut(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Cut by replaying the first M-k merges through union-find, one leaf at a time."""
    m = dendrogram.n_leaves
    parent = list(range(m + (m - k)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in range(m - k):
        a, b, _ = dendrogram.merges[s]
        parent[find(a)] = m + s
        parent[find(b)] = m + s
    order: dict[int, int] = {}
    assignment = np.empty(m, dtype=np.int64)
    for i in range(m):
        assignment[i] = order.setdefault(find(i), len(order))
    return assignment


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
    """One batch-major LSTM step, rows (B, ·), one array per gate.

    ``w`` and ``b`` are a layer's stacked weights with the gate rows in the
    order i, f, o, g.
    """
    n = h_prev.shape[1]
    z = np.concatenate([x, h_prev], axis=1)
    a = z @ w.T + b
    i = naive_sigmoid(a[:, :n])
    f = naive_sigmoid(a[:, n:2 * n])
    o = naive_sigmoid(a[:, 2 * n:3 * n])
    g = np.tanh(a[:, 3 * n:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (z, i, f, o, g, c_prev, tc)


def naive_cell_backward(w: np.ndarray, cache: tuple, dh: np.ndarray, dc: np.ndarray,
                        dw: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop of ``naive_cell_forward``, one temporary per gate gradient."""
    z, i, f, o, g, c_prev, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    dg = dc_total * i
    df = dc_total * c_prev
    dc_prev = dc_total * f
    da = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        do * o * (1.0 - o),
        dg * (1.0 - g * g),
    ], axis=1)
    dw += da.T @ z
    db += da.sum(axis=0)
    return da @ w, dc_prev


def naive_autoencoder_loss_and_gradients(params: dict[str, np.ndarray], x: np.ndarray
                                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Reconstruction MSE of (B, t, d) windows and its gradient for every parameter.

    The whole seq-2-seq model run batch-major, step by step: two encoder
    layers, then a decoder fed its own previous frame, then backprop
    through time, sharing no code with ``tsgroups.autoencoder``.
    """
    batch, t_len, d = x.shape
    n1, n2 = params["enc1.b"].size // 4, params["enc2.b"].size // 4

    def run(layer, inp, h, c, caches):
        h, c, cache = naive_cell_forward(params[f"{layer}.W"], params[f"{layer}.b"], inp, h, c)
        caches[layer].append(cache)
        return h, c

    caches: dict[str, list] = {"enc1": [], "enc2": [], "dec1": [], "dec2": []}
    h1, c1, h2, c2 = np.zeros((batch, n1)), np.zeros((batch, n1)), np.zeros((batch, n2)), np.zeros((batch, n2))
    for t in range(t_len):
        h1, c1 = run("enc1", x[:, t], h1, c1, caches)
        h2, c2 = run("enc2", h1, h2, c2, caches)
    h1, c1 = h2, np.zeros((batch, n2))
    h2, c2 = np.zeros((batch, n1)), np.zeros((batch, n1))
    y = np.zeros((batch, d))
    recon, dec_h2 = np.zeros(x.shape), []
    for t in range(t_len):
        h1, c1 = run("dec1", y, h1, c1, caches)
        h2, c2 = run("dec2", h1, h2, c2, caches)
        y = h2 @ params["out.W"].T + params["out.b"]
        recon[:, t] = y
        dec_h2.append(h2)
    loss = float(np.mean((recon - x) ** 2))

    grads = {key: np.zeros(p.shape) for key, p in params.items()}

    def back(layer, t, dh, dc):
        return naive_cell_backward(params[f"{layer}.W"], caches[layer][t], dh, dc,
                                   grads[f"{layer}.W"], grads[f"{layer}.b"])

    dy_loss = 2.0 * (recon - x) / recon.size
    du, dh1, dc1, dh2, dc2 = (np.zeros((batch, d)), np.zeros((batch, n2)), np.zeros((batch, n2)),
                              np.zeros((batch, n1)), np.zeros((batch, n1)))
    for t in reversed(range(t_len)):
        dy = dy_loss[:, t] + du
        grads["out.W"] += dy.T @ dec_h2[t]
        grads["out.b"] += dy.sum(axis=0)
        dz2, dc2 = back("dec2", t, dy @ params["out.W"] + dh2, dc2)
        dh2 = dz2[:, n2:]
        dz1, dc1 = back("dec1", t, dz2[:, :n2] + dh1, dc1)
        du, dh1 = dz1[:, :d], dz1[:, d:]
    dh2, dc2 = dh1, np.zeros((batch, n2))
    dh1, dc1 = np.zeros((batch, n1)), np.zeros((batch, n1))
    for t in reversed(range(t_len)):
        dz2, dc2 = back("enc2", t, dh2, dc2)
        dh2 = dz2[:, n1:]
        dz1, dc1 = back("enc1", t, dz2[:, :n1] + dh1, dc1)
        dh1 = dz1[:, d:]
    return loss, grads


def rowloop_parse_uah_session(directory: str | Path, columns: ColumnMap | None = None,
                              filename: str = ACCELEROMETER_FILENAME) -> RawSession:
    """``parse_uah_session`` as one loop over the file's lines, ``float()`` per token."""
    directory = Path(directory)
    columns = columns or ColumnMap()
    path = directory / filename
    if not path.is_file():
        raise FileNotFoundError(f"missing {filename} in {directory}")
    driver, behavior, road = parse_session_name(directory.name)
    timestamps: list[float] = []
    rows: list[tuple[float, ...]] = []
    rejected = 0
    last_ts = -np.inf
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) < columns.min_columns():
                rejected += 1
                continue
            try:
                ts = float(parts[columns.timestamp])
                values = tuple(float(parts[i]) for i in columns.channel_indices())
            except ValueError:
                rejected += 1
                continue
            if not np.isfinite(ts) or not all(np.isfinite(v) for v in values):
                rejected += 1
                continue
            if ts <= last_ts:
                rejected += 1
                continue
            last_ts = ts
            timestamps.append(ts)
            rows.append(values)
    if not rows:
        raise ValueError(f"no valid rows in {path}")
    return RawSession(driver_id=driver, behavior=behavior, road=road, session_id=directory.name,
                      timestamps=np.asarray(timestamps), samples=np.asarray(rows),
                      rejected_rows=rejected)
