"""Slow, obviously-correct reference implementations.

Everything here recomputes results with plain double loops and
first-principles definitions, deliberately sharing no code with the
fast paths the tests compare them against. Two are exceptions: the
finite-difference audit differentiates the autoencoder's own loss
numerically, to check that loss's analytic gradient, and the per-group
mapping oracle is the earlier per-test-group form of
``candidate_distances``, built on the same distance kernel, to check
that the whole matrix keeps its floats.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tsgroups.autoencoder import Workspace, _backward, _reconstruction_loss
from tsgroups.distances import (DistanceMeasureId, MahalanobisContext, cross_distances, kernel_rows,
                                reduce_blocks)
from tsgroups.hierarchy import Dendrogram, Linkage, centroids
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


def feature_order_sum(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms`` (r, h), adding the columns one at a time, first to last."""
    total = terms[:, 0].copy()
    for f in range(1, terms.shape[1]):
        total += terms[:, f]
    return total


def rowloop_pairwise_matrix(x: np.ndarray, measure: DistanceMeasureId,
                            ctx: MahalanobisContext | None = None) -> np.ndarray:
    """Row-at-a-time pairwise matrix with Mahalanobis as a quadratic form.

    Each upper-triangle row is reduced straight from ``y - x_i`` and
    mirrored into the lower half; Manhattan adds its terms in feature
    order. Mahalanobis is ``sqrt(δᵀ C'⁻¹ δ)`` through ``einsum`` with the
    inverse covariance, independent of any whitening.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    m = x.shape[0]
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        diff = x[i + 1:] - x[i]
        if measure is DistanceMeasureId.CHEBYSHEV:
            row = np.max(np.abs(diff), axis=1)
        elif measure is DistanceMeasureId.MANHATTAN:
            row = feature_order_sum(np.abs(diff))
        else:
            q = np.einsum("ij,jk,ik->i", diff, ctx.inverse_covariance, diff)
            row = np.sqrt(np.maximum(q, 0.0))
        out[i, i + 1:] = row
        out[i + 1:, i] = row
    return out


def rowloop_cross_distances(x: np.ndarray, y: np.ndarray, measure: DistanceMeasureId,
                            ctx: MahalanobisContext | None = None) -> np.ndarray:
    """One row of ``cross_distances`` per Python step: numpy's ``max``, or sums in feature order.

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
            out[i] = feature_order_sum(gap)
        else:
            out[i] = np.sqrt(feature_order_sum(gap * gap))
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


def pergroup_candidate_distances(method: str, train_vectors: np.ndarray, train_assignment: np.ndarray,
                                 test_block: np.ndarray, measure: DistanceMeasureId,
                                 ctx: MahalanobisContext | None = None) -> np.ndarray:
    """Distance from one test group's rows to each train group, one call per test group.

    CR_CR: the train centroids against the test block's mean. AVG: each
    train row's mean distance to the block, a block of train rows at a
    time, averaged per train group.
    """
    x = np.asarray(train_vectors, dtype=np.float64)
    test_block = np.asarray(test_block, dtype=np.float64)
    if method == "CR_CR":
        return cross_distances(centroids(x, train_assignment), test_block.mean(axis=0)[None], measure, ctx)[:, 0]
    xt, yt = kernel_rows(x, measure, ctx), kernel_rows(test_block, measure, ctx)
    row_means = np.concatenate(reduce_blocks(xt, yt, measure, lambda block: block.mean(axis=1)))
    return np.bincount(train_assignment, weights=row_means) / np.bincount(train_assignment)


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


def difference(prev: np.ndarray, nxt: np.ndarray) -> int:
    """Size of the new group created going from prev to the finer nxt.

    Both partitions must come from cuts of one dendrogram, so nxt splits
    exactly one group of prev in two: each old group keeps its largest
    part, and what is left over is the smaller child of the split.
    Identical partitions give 0.
    """
    prev = np.asarray(prev, dtype=np.int64)
    nxt = np.asarray(nxt, dtype=np.int64)
    if prev.shape != nxt.shape:
        raise ValueError(f"partition length mismatch: {prev.shape} vs {nxt.shape}")
    overlap = np.zeros((int(prev.max()) + 1, int(nxt.max()) + 1), dtype=np.int64)
    np.add.at(overlap, (prev, nxt), 1)
    return int(prev.size - overlap.max(axis=1).sum())


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


def finite_difference_gradients(params: dict[str, np.ndarray], batch: np.ndarray,
                                epsilon: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference estimate of the loss gradient, one scalar at a time.

    Losses are evaluated in the widest float numpy offers so the
    difference quotient stays meaningful even where the true gradient is
    close to zero and float64 rounding would swamp it.
    """
    wide = np.longdouble
    batch = np.asarray(batch, dtype=np.float64).astype(wide)
    work = {key: p.astype(wide) for key, p in params.items()}
    eps = wide(epsilon)
    grads = {}
    for key, p in work.items():
        g = np.zeros(p.shape, dtype=np.float64)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + eps
            hi, _ = _reconstruction_loss(work, batch)
            flat_p[idx] = orig - eps
            lo, _ = _reconstruction_loss(work, batch)
            flat_p[idx] = orig
            flat_g[idx] = float((hi - lo) / (2 * eps))
        grads[key] = g
    return grads


def worst_relative_gap(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Largest |a - n| / max(1e-8, |a| + |n|) over every parameter entry."""
    worst = 0.0
    for key, ga in analytic.items():
        gn = numeric[key]
        denom = np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


def gradient_check(params: dict[str, np.ndarray], windows: np.ndarray,
                   epsilon: float = 1e-5) -> float:
    """Max relative disagreement between analytic and numeric gradients on one (t, d) window or (B, t, d) windows."""
    batch = np.asarray(windows, dtype=np.float64)
    if batch.ndim == 2:
        batch = batch[None]
    workspace = Workspace.for_windows(params, batch)
    _reconstruction_loss(params, batch, workspace)
    analytic = _backward(workspace, batch)
    numeric = finite_difference_gradients(params, batch, epsilon)
    return worst_relative_gap(analytic, numeric)


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
