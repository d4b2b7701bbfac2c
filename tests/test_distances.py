"""Distance measures against naive references and hand values."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tsgroups import distances
from tsgroups.distances import (
    MEASURE_ORDER,
    DistanceMeasureId,
    MahalanobisContext,
    cross_distances,
    fit_mahalanobis,
    pairwise_matrix,
)
from tsgroups.group_mapping import MappingMethod, candidate_distances
from tsgroups.hierarchy import hubert_statistic
from tsgroups.rng import seeded_rng
from tsgroups.types import Grouping

from reference import (
    naive_chebyshev,
    naive_mahalanobis,
    naive_manhattan,
    naive_pairwise,
    rowloop_cross_distances,
    rowloop_pairwise_matrix,
)


def test_hand_values():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, -4.0])
    assert naive_chebyshev(a, b) == 4.0
    assert naive_manhattan(a, b) == 7.0


def test_identity_covariance_matches_euclidean():
    ctx = MahalanobisContext(inverse_covariance=np.eye(3), epsilon=0.0)
    rng = seeded_rng(1)
    for _ in range(20):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        assert naive_mahalanobis(a, b, ctx) == pytest.approx(np.linalg.norm(a - b), abs=1e-12)
        got = cross_distances(a, b, DistanceMeasureId.MAHALANOBIS, ctx)[0, 0]
        assert got == pytest.approx(np.linalg.norm(a - b), abs=1e-12)


def test_matches_naive_on_random_fixtures():
    rng = seeded_rng(42)
    for _ in range(100):
        h = int(rng.integers(1, 9))
        a = rng.standard_normal(h)
        b = rng.standard_normal(h)
        cheb = cross_distances(a, b, DistanceMeasureId.CHEBYSHEV)[0, 0]
        manh = cross_distances(a, b, DistanceMeasureId.MANHATTAN)[0, 0]
        assert abs(cheb - naive_chebyshev(a, b)) < 1e-10
        assert abs(manh - naive_manhattan(a, b)) < 1e-10
        x = rng.standard_normal((max(4, h + 2), h))
        ctx = fit_mahalanobis(x)
        mahal = cross_distances(a, b, DistanceMeasureId.MAHALANOBIS, ctx)[0, 0]
        assert abs(mahal - naive_mahalanobis(a, b, ctx)) < 1e-10


def test_metric_axioms_hold():
    rng = seeded_rng(7)
    x = rng.standard_normal((10, 4))
    ctx = fit_mahalanobis(x)
    for measure in MEASURE_ORDER:
        d = cross_distances(x, x, measure, ctx)
        assert np.diag(d) == pytest.approx(0.0, abs=1e-12)
        assert np.all(d >= 0.0)
        assert d == pytest.approx(d.T, abs=1e-12)


def test_mahalanobis_requires_context():
    with pytest.raises(ValueError):
        cross_distances(np.zeros((1, 2)), np.ones((1, 2)), DistanceMeasureId.MAHALANOBIS, None)


def test_zero_width_vectors_are_rejected():
    for measure in (DistanceMeasureId.CHEBYSHEV, DistanceMeasureId.MANHATTAN):
        with pytest.raises(ValueError, match="zero width"):
            cross_distances(np.zeros((2, 0)), np.zeros((3, 0)), measure)
        with pytest.raises(ValueError, match="zero width"):
            pairwise_matrix(np.zeros((4, 0)), measure)


def test_fit_mahalanobis_handles_degenerate_data():
    x = np.ones((6, 3))
    x[:, 0] = np.arange(6.0)
    ctx = fit_mahalanobis(x)
    assert np.all(np.isfinite(ctx.inverse_covariance))
    d = naive_mahalanobis(x[0], x[1], ctx)
    assert np.isfinite(d) and d > 0


def test_fit_mahalanobis_ridge_floor():
    x = np.zeros((5, 4))
    ctx = fit_mahalanobis(x)
    assert ctx.epsilon >= 1e-12
    assert np.all(np.isfinite(ctx.inverse_covariance))


def test_cross_distances_matches_pairwise_block():
    rng = seeded_rng(3)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((4, 3))
    stacked = np.vstack([x, y])
    for measure in (DistanceMeasureId.CHEBYSHEV, DistanceMeasureId.MANHATTAN):
        block = cross_distances(x, y, measure)
        full = naive_pairwise(stacked, measure)[:6, 6:]
        assert np.max(np.abs(block - full)) < 1e-10


def test_pairwise_matrix_properties():
    rng = seeded_rng(9)
    x = rng.standard_normal((12, 5))
    ctx = fit_mahalanobis(x)
    for measure in MEASURE_ORDER:
        mat = pairwise_matrix(x, measure, ctx)
        assert mat.shape == (12, 12)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)
        ref = naive_pairwise(x, measure, ctx)
        assert np.max(np.abs(mat - ref)) < 1e-10


def test_pairwise_matrix_matches_row_loop_reference():
    rng = seeded_rng(21)
    inputs = {
        "random": rng.standard_normal((60, 6)),
        "duplicate-heavy": np.repeat(rng.standard_normal((6, 4)), 10, axis=0)[rng.permutation(60)],
        "integer grid": rng.integers(-3, 4, size=(60, 5)).astype(np.float64),
    }
    for name, x in inputs.items():
        for measure in (DistanceMeasureId.CHEBYSHEV, DistanceMeasureId.MANHATTAN):
            assert np.array_equal(pairwise_matrix(x, measure), rowloop_pairwise_matrix(x, measure)), name
        ctx = fit_mahalanobis(x)
        got = pairwise_matrix(x, DistanceMeasureId.MAHALANOBIS, ctx)
        ref = rowloop_pairwise_matrix(x, DistanceMeasureId.MAHALANOBIS, ctx)
        assert np.all(np.abs(got - ref) <= 1e-9 * ref), name


def test_hand_built_context_must_be_symmetric_positive_definite():
    for bad in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), -np.eye(3),
                np.array([[2.0, 0.5], [0.0, 2.0]])):
        with pytest.raises(ValueError):
            MahalanobisContext(inverse_covariance=bad, epsilon=0.0)


def test_measure_order_is_fixed():
    assert MEASURE_ORDER == (DistanceMeasureId.CHEBYSHEV, DistanceMeasureId.MANHATTAN,
                             DistanceMeasureId.MAHALANOBIS)


def scaled_vectors(rng, n, h):
    """Rows whose features span six decades, so the order of additions shows in the floats."""
    return rng.standard_normal((n, h)) * 10.0 ** rng.integers(-3, 4, size=h)


@pytest.mark.parametrize("scratch_bytes", [None, 4096, 8])
@pytest.mark.parametrize("h", [1, 2, 7, 8, 9, 12, 16, 17, 130])
def test_kernel_matches_row_loop_bit_for_bit(h, scratch_bytes, monkeypatch):
    # 4 KB gives blocks of 3 to 12 rows with ragged tails, mirrored as tiles;
    # 8 bytes, one float, gives one-row blocks for every operand pair.
    if scratch_bytes is not None:
        monkeypatch.setattr(distances, "_SCRATCH_BYTES", scratch_bytes)
    rng = seeded_rng(100 + h)
    x = scaled_vectors(rng, 150, h)
    y = scaled_vectors(rng, 41, h)
    ctx = fit_mahalanobis(np.vstack([x, y]))
    for measure in MEASURE_ORDER:
        for a, b in ((x, y), (y, x), (x[:1], y), (x, y[:1]), (x[0], y[3])):
            got = cross_distances(a, b, measure, ctx)
            assert np.array_equal(got, rowloop_cross_distances(a, b, measure, ctx)), (measure, got.shape)
        ref = rowloop_cross_distances(x, x, measure, ctx)
        np.fill_diagonal(ref, 0.0)
        assert np.array_equal(pairwise_matrix(x, measure, ctx), ref), measure


def test_pairwise_matrix_scratch_stays_bounded():
    m = 600
    x = seeded_rng(8).standard_normal((m, 12))
    ctx = fit_mahalanobis(x)
    for measure in MEASURE_ORDER:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pairwise_matrix(x, measure, ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= m * m * 8 + 2 * 2**20, (measure, peak)


def test_pairwise_matrix_scratch_stays_bounded_on_three_workers(monkeypatch):
    # The workers split the one scratch budget between them.
    monkeypatch.setattr(distances, "_worker_count", lambda: 3)
    test_pairwise_matrix_scratch_stays_bounded()


def test_pairwise_matrix_scratch_stays_within_the_budget_on_many_cpus(monkeypatch):
    # At 16 KB a row of 600 columns takes 4.8 KB of term scratch, so 64
    # workers with a row each would hold 300 KB; sharing the budget, 3 do.
    # Besides the matrix and the scratch, the call holds the kernel's rows
    # (and for Mahalanobis the whitened vectors they are copied from).
    budget = 1 << 14
    monkeypatch.setattr(distances, "_SCRATCH_BYTES", budget)
    monkeypatch.setattr(distances, "_worker_count", lambda: 64)
    m = 600
    x = seeded_rng(8).standard_normal((m, 12))
    ctx = fit_mahalanobis(x)
    for measure in MEASURE_ORDER:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pairwise_matrix(x, measure, ctx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= m * m * 8 + 2 * x.nbytes + 2 * budget, (measure, peak - m * m * 8)


@pytest.mark.parametrize("scratch_bytes", [8, 4096, None])
def test_blocks_give_the_same_floats_on_any_worker_count(scratch_bytes, monkeypatch):
    # Both shapes leave ragged last blocks. At the default 1 MB, 600 rows
    # take 218 rows per block against 600 columns and 436 against 300; at
    # 4 KB, 90 rows take 5 against 90 and 17 against 30. Workers share the
    # budget a row each at least, so at 8 bytes (one float) one worker runs.
    if scratch_bytes is not None:
        monkeypatch.setattr(distances, "_SCRATCH_BYTES", scratch_bytes)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(None)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    rng = seeded_rng(41)
    for rows, cols in ((600, 300), (90, 30)):
        x, y = scaled_vectors(rng, rows, 7), scaled_vectors(rng, cols, 7)
        ctx = fit_mahalanobis(x)
        assignment = rng.integers(0, 4, size=rows)
        grouping = Grouping(assignment=assignment, K=4, measure="CHEBYSHEV")
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(distances, "_worker_count", lambda: workers)
            runs.append([(pairwise_matrix(x, measure, ctx), cross_distances(x, y, measure, ctx),
                          hubert_statistic(x, assignment, measure, ctx),
                          candidate_distances(MappingMethod.AVG, x, grouping, y, measure, ctx))
                         for measure in MEASURE_ORDER])
        for workers, run in zip((2, 3), runs[1:]):
            for measure, got, want in zip(MEASURE_ORDER, run, runs[0]):
                for name, a, b in zip(("pairwise", "cross", "hubert", "avg"), got, want):
                    assert np.array_equal(a, b), (rows, workers, measure, name)
    assert bool(started) == (scratch_bytes != 8)


def test_eight_workers_switching_often_compute_every_block_once(monkeypatch):
    # More workers than CPUs, switching every microsecond: a block lost or
    # claimed twice would leave garbage in a result or a sum out of order.
    monkeypatch.setattr(distances, "_SCRATCH_BYTES", 256)
    rng = seeded_rng(43)
    x = scaled_vectors(rng, 300, 5)
    assignment = rng.integers(0, 3, size=300)
    want = (pairwise_matrix(x, DistanceMeasureId.MANHATTAN),
            hubert_statistic(x, assignment, DistanceMeasureId.MANHATTAN))
    monkeypatch.setattr(distances, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(pairwise_matrix(x, DistanceMeasureId.MANHATTAN), want[0])
            assert hubert_statistic(x, assignment, DistanceMeasureId.MANHATTAN) == want[1]
    finally:
        sys.setswitchinterval(interval)


def test_a_worker_error_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(distances, "_SCRATCH_BYTES", 4096)
    monkeypatch.setattr(distances, "_worker_count", lambda: 3)
    kernel = distances._block_distances
    calls = []

    def fails_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("second block failed")
        kernel(*args)

    monkeypatch.setattr(distances, "_block_distances", fails_second)
    threads = threading.active_count()
    x = seeded_rng(42).standard_normal((200, 5))
    with pytest.raises(RuntimeError, match="second block failed"):
        pairwise_matrix(x, DistanceMeasureId.MANHATTAN)
    assert threading.active_count() == threads  # every worker has stopped
