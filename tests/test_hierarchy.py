"""Agglomerative clustering, tree cuts, and measure selection."""

import hashlib
import logging
import time
import tracemalloc

import numpy as np
import pytest

from tsgroups import distances
from tsgroups.distances import MEASURE_ORDER, DistanceMeasureId, fit_mahalanobis, pairwise_matrix
from tsgroups.hierarchy import (
    MERGE_DTYPE,
    Dendrogram,
    Linkage,
    agglomerate,
    centroids,
    cut,
    hubert_statistic,
    select_best_measure,
)
from tsgroups.rng import seeded_rng

from reference import naive_agglomerate, naive_hubert, rowloop_agglomerate, unionfind_cut
from synthdata import anisotropic_fixture, isotropic_tie_fixture, random_distance_matrix


def line_points(values):
    return np.asarray(values, dtype=np.float64)[:, None]


def test_single_linkage_hand_case():
    dist = pairwise_matrix(line_points([0.0, 1.0, 10.0]), DistanceMeasureId.MANHATTAN)
    tree = agglomerate(dist, Linkage.SINGLE)
    assert tree.n_leaves == 3
    assert [(a, b) for a, b, _ in tree.merges] == [(0, 1), (2, 3)]
    assert tree.merges[0][2] == pytest.approx(1.0)
    assert tree.merges[1][2] == pytest.approx(9.0)


def test_complete_and_average_heights():
    dist = pairwise_matrix(line_points([0.0, 1.0, 10.0]), DistanceMeasureId.MANHATTAN)
    assert agglomerate(dist.copy(), Linkage.COMPLETE).merges[1][2] == pytest.approx(10.0)
    assert agglomerate(dist, Linkage.AVERAGE).merges[1][2] == pytest.approx(9.5)


def test_tie_breaks_pick_smallest_pair():
    dist = np.array([
        [0.0, 1.0, 5.0, 5.0],
        [1.0, 0.0, 5.0, 5.0],
        [5.0, 5.0, 0.0, 1.0],
        [5.0, 5.0, 1.0, 0.0],
    ])
    tree = agglomerate(dist, Linkage.SINGLE)
    assert (tree.merges[0][0], tree.merges[0][1]) == (0, 1)
    assert (tree.merges[1][0], tree.merges[1][1]) == (2, 3)


def test_matches_naive_reference():
    for seed in range(30):
        rng = seeded_rng(seed)
        m = int(rng.integers(4, 11))
        x = rng.standard_normal((m, 3))
        for linkage in Linkage:
            for measure in (DistanceMeasureId.CHEBYSHEV, DistanceMeasureId.MANHATTAN):
                dist = pairwise_matrix(x, measure)
                fast = agglomerate(dist.copy(), linkage)
                ref = naive_agglomerate(dist, linkage)
                assert fast.merges[["a", "b"]].tolist() == ref.merges[["a", "b"]].tolist()
                assert fast.merges["height"] == pytest.approx(ref.merges["height"], abs=1e-9)


def test_matches_naive_on_raw_matrices():
    for seed in range(10):
        dist = random_distance_matrix(int(seeded_rng(seed).integers(4, 13)), seed)
        for linkage in Linkage:
            fast = agglomerate(dist.copy(), linkage)
            ref = naive_agglomerate(dist, linkage)
            assert fast.merges[["a", "b"]].tolist() == ref.merges[["a", "b"]].tolist()


def test_matches_naive_on_duplicate_heavy_inputs():
    for seed in range(12):
        rng = seeded_rng(seed)
        distinct = rng.standard_normal((int(rng.integers(2, 5)), 3))
        x = np.repeat(distinct, rng.integers(2, 7, size=distinct.shape[0]), axis=0)
        x = x[rng.permutation(x.shape[0])]
        for linkage in Linkage:
            for measure in (DistanceMeasureId.CHEBYSHEV, DistanceMeasureId.MANHATTAN):
                dist = pairwise_matrix(x, measure)
                fast = agglomerate(dist.copy(), linkage)
                ref = naive_agglomerate(dist, linkage)
                assert fast.merges[["a", "b"]].tolist() == ref.merges[["a", "b"]].tolist()
                assert fast.merges["height"] == pytest.approx(ref.merges["height"], abs=1e-9)


def test_exact_duplicates_cluster_in_quadratic_time():
    # Four points, each repeated 200 times: all but the last three merges tie
    # at height 0, so a tie-break that walks the tied pairs goes cubic.
    m = 800
    x = seeded_rng(5).standard_normal((4, 3))[np.arange(m) % 4]
    dist = pairwise_matrix(x, DistanceMeasureId.MANHATTAN)
    start = time.perf_counter()
    tree = agglomerate(dist, Linkage.AVERAGE)
    assert time.perf_counter() - start < 5.0
    assert all(height == 0.0 for _, _, height in tree.merges[: m - 4])
    assert all(height > 0.0 for _, _, height in tree.merges[m - 4:])


def test_input_validation():
    with pytest.raises(ValueError):
        agglomerate(np.zeros((3, 2)))
    bad_sym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        agglomerate(bad_sym)
    bad_diag = np.array([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        agglomerate(bad_diag)
    negative = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        agglomerate(negative)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN/Inf"):
            agglomerate(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError):
        agglomerate(np.zeros((1, 1)))


def test_fingerprint_bytes_are_pinned():
    # Heights are written as Python float reprs, "0.30000000000000004" for
    # 0.1 + 0.2, never as numpy scalar reprs such as "np.float64(0.1)".
    expected = hashlib.sha256(b"3AVERAGE0,1,0.1;2,3,0.30000000000000004;").hexdigest()
    rows = [(0, 1, 0.1), (2, 3, 0.1 + 0.2)]
    for merges in (rows, np.array(rows, dtype=MERGE_DTYPE)):
        assert Dendrogram(n_leaves=3, merges=merges, linkage=Linkage.AVERAGE).fingerprint() == expected


def test_merges_read_as_rows_and_columns():
    # The bench tracer counts merges with len() and reads a merge's height as row[2].
    m = 12
    x = seeded_rng(8).standard_normal((3, 4))[np.arange(m) % 3]  # 4 copies of 3 points
    tree = agglomerate(pairwise_matrix(x, DistanceMeasureId.MANHATTAN))
    assert tree.merges.dtype == MERGE_DTYPE
    assert len(tree.merges) == m - 1
    heights = [r[2] for r in tree.merges]
    assert heights == tree.merges["height"].tolist()
    assert heights[:m - 3] == [0.0] * (m - 3) and 0.0 < heights[m - 3] < heights[m - 2]
    assert [(r[0], r[1]) for r in tree.merges] == tree.merges[["a", "b"]].tolist()


def test_merges_must_be_one_row_per_merge():
    with pytest.raises(ValueError, match="expected 2 merges"):
        Dendrogram(n_leaves=3, merges=[(0, 1, 2.0)], linkage=Linkage.SINGLE)
    with pytest.raises(ValueError, match="expected 2 merges"):
        Dendrogram(n_leaves=3, merges=np.zeros((2, 3)), linkage=Linkage.SINGLE)


def test_height_decrease_logs_warning(caplog):
    with caplog.at_level(logging.WARNING):
        Dendrogram(n_leaves=3, merges=[(0, 1, 2.0), (2, 3, 1.0)], linkage=Linkage.SINGLE)
    assert any("non-monotone" in rec.getMessage() for rec in caplog.records)


def test_cut_levels():
    dist = pairwise_matrix(line_points([0.0, 1.0, 10.0, 11.0]), DistanceMeasureId.MANHATTAN)
    tree = agglomerate(dist, Linkage.SINGLE)
    assert np.array_equal(cut(tree, 1), [0, 0, 0, 0])
    assert np.array_equal(cut(tree, 2), [0, 0, 1, 1])
    assert np.array_equal(cut(tree, 4), [0, 1, 2, 3])
    with pytest.raises(ValueError):
        cut(tree, 0)
    with pytest.raises(ValueError):
        cut(tree, 5)


def test_cut_ids_ordered_by_smallest_member():
    dist = pairwise_matrix(line_points([10.0, 0.0, 11.0, 1.0]), DistanceMeasureId.MANHATTAN)
    tree = agglomerate(dist, Linkage.SINGLE)
    assignment = cut(tree, 2)
    assert assignment[0] == 0
    assert np.array_equal(assignment, [0, 1, 0, 1])


def test_centroids_hand_case():
    x = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 0.0]])
    cents = centroids(x, np.array([0, 0, 1]))
    assert np.array_equal(cents, [[1.0, 1.0], [10.0, 0.0]])


def test_hubert_hand_case():
    x = line_points([0.0, 1.0, 10.0, 11.0])
    value = hubert_statistic(x, np.array([0, 0, 1, 1]), DistanceMeasureId.MANHATTAN)
    assert value == pytest.approx(400.0 / 6.0)


def test_hubert_single_group_is_zero():
    rng = seeded_rng(2)
    x = rng.standard_normal((8, 3))
    assert hubert_statistic(x, np.zeros(8, dtype=int), DistanceMeasureId.MANHATTAN) == 0.0


def test_hubert_matches_naive(monkeypatch):
    rng = seeded_rng(21)
    # Then 90 points under a 256-byte budget: blocks of one row, so each
    # group spans many blocks.
    for m, trials, scratch_bytes in ((10, 20, distances._SCRATCH_BYTES), (90, 3, 256)):
        monkeypatch.setattr(distances, "_SCRATCH_BYTES", scratch_bytes)
        for _ in range(trials):
            x = rng.standard_normal((m, 3))
            assignment = rng.integers(0, 3, size=m)
            assignment[:3] = [0, 1, 2]
            ctx = fit_mahalanobis(x)
            for measure in DistanceMeasureId:
                fast = hubert_statistic(x, assignment, measure, ctx)
                assert fast == pytest.approx(naive_hubert(x, assignment, measure, ctx), abs=1e-10)


def traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_hubert_holds_no_pairwise_matrix(monkeypatch):
    # With a 64 KB kernel budget the blocks are small, so a peak near m^2 could only be a matrix.
    monkeypatch.setattr(distances, "_SCRATCH_BYTES", 1 << 16)
    m = 600
    rng = seeded_rng(9)
    x = rng.standard_normal((m, 12))
    ctx = fit_mahalanobis(x)
    for assignment in (np.arange(m) % 5, (np.arange(m) >= 1).astype(np.int64), rng.integers(0, 2, m)):
        for measure in MEASURE_ORDER:
            peak = traced_peak(lambda: hubert_statistic(x, assignment, measure, ctx))
            assert peak <= m * m * 8 / 4, (measure, peak)


def test_hubert_holds_no_pairwise_matrix_on_many_cpus(monkeypatch):
    # Each worker holds a block of its own here, so on 64 CPUs the blocks
    # of the split assignment would add up to more than the bound.
    monkeypatch.setattr(distances, "_worker_count", lambda: 64)
    test_hubert_holds_no_pairwise_matrix(monkeypatch)


def test_select_best_measure_holds_one_matrix(monkeypatch):
    # Under a 64 KB kernel budget the rest is small: the scratch and two
    # dendrograms' merge record arrays, 24 bytes a merge (together about
    # 0.12 of a 600 x 600 matrix, in a fresh interpreter too).
    monkeypatch.setattr(distances, "_SCRATCH_BYTES", 1 << 16)
    m = 600
    rng = seeded_rng(6)
    points = {"random": rng.standard_normal((m, 12)),
              "duplicate-heavy": rng.standard_normal((3, 12))[np.arange(m) % 3]}
    for name, x in points.items():
        peak = traced_peak(lambda: select_best_measure(x, k=2))
        assert peak <= 1.15 * m * m * 8, (name, peak / (m * m * 8))


def test_select_best_measure_reports_all_scores():
    rng = seeded_rng(31)
    x = rng.standard_normal((20, 4))
    selection = select_best_measure(x, k=2)
    assert set(selection.scores) == {m.value for m in DistanceMeasureId}
    assert selection.scores[selection.measure.value] == max(selection.scores.values())
    assert selection.assignment.size == 20


def test_anisotropic_data_selects_covariance_scaled():
    x, labels = anisotropic_fixture()
    selection = select_best_measure(x, k=2)
    scores = selection.scores
    assert selection.measure is DistanceMeasureId.MAHALANOBIS
    assert scores["MAHALANOBIS"] > scores["CHEBYSHEV"]
    assert scores["MAHALANOBIS"] > scores["MANHATTAN"]
    split = {tuple(np.flatnonzero(selection.assignment == g)) for g in (0, 1)}
    truth = {tuple(np.flatnonzero(labels == g)) for g in (0, 1)}
    assert split == truth


def test_isotropic_tie_breaks_to_chebyshev():
    x, labels = isotropic_tie_fixture()
    selection = select_best_measure(x, k=2)
    assert selection.measure is DistanceMeasureId.CHEBYSHEV
    assert selection.scores["CHEBYSHEV"] == selection.scores["MANHATTAN"]
    split = {tuple(np.flatnonzero(selection.assignment == g)) for g in (0, 1)}
    truth = {tuple(np.flatnonzero(labels == g)) for g in (0, 1)}
    assert split == truth


def test_hc_aecs_respects_requested_k():
    rng = seeded_rng(17)
    x = rng.standard_normal((15, 3))
    for k in (2, 5):
        assert np.unique(select_best_measure(x, k=k).assignment).size == k
    with pytest.raises(ValueError):
        select_best_measure(x, k=1)


def oracle_inputs(m, seed):
    """Distance matrices of m points: distinct, duplicate-heavy and on a small integer grid."""
    rng = seeded_rng(seed)
    distinct = rng.standard_normal((m, 5))
    copies = rng.standard_normal((max(1, m // 8), 3))[rng.integers(0, max(1, m // 8), size=m)]
    grid = rng.integers(-2, 3, size=(m, 3)).astype(np.float64)
    return {
        "random": pairwise_matrix(distinct, DistanceMeasureId.MAHALANOBIS, fit_mahalanobis(distinct)),
        "duplicate-heavy": pairwise_matrix(copies, DistanceMeasureId.MANHATTAN),
        "integer grid": pairwise_matrix(grid, DistanceMeasureId.CHEBYSHEV),
    }


@pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 200, 700])
def test_agglomerate_matches_row_loop_exactly(m):
    for name, dist in oracle_inputs(m, seed=m).items():
        for linkage in Linkage:
            fast = agglomerate(dist.copy(), linkage)
            assert np.array_equal(fast.merges, rowloop_agglomerate(dist, linkage).merges), (name, linkage)


def test_agglomerate_consumes_only_a_writeable_c_matrix():
    for name, dist in oracle_inputs(65, seed=65).items():
        tree = rowloop_agglomerate(dist, Linkage.AVERAGE)
        read_only, fortran, consumed = dist.copy(), np.asfortranarray(dist), dist.copy()
        read_only.flags.writeable = False
        for kept in (read_only, fortran):
            assert np.array_equal(agglomerate(kept, Linkage.AVERAGE).merges, tree.merges), name
            assert np.array_equal(kept, dist), name
        assert np.array_equal(agglomerate(consumed, Linkage.AVERAGE).merges, tree.merges), name
        assert not np.array_equal(consumed, dist), name


def test_cut_matches_union_find_for_every_k():
    for name, dist in oracle_inputs(90, seed=4).items():
        for linkage in Linkage:
            tree = agglomerate(dist.copy(), linkage)
            for k in range(1, tree.n_leaves + 1):
                assert np.array_equal(cut(tree, k), unionfind_cut(tree, k)), (name, linkage, k)


def test_agglomerate_holds_one_working_copy():
    # Compaction reuses the working buffer, and stale-row gathers are bounded,
    # even when hundreds of rows share one nearest neighbour.
    m = 600
    rng = seeded_rng(6)
    points = {"random": rng.standard_normal((m, 4)),
              "duplicate-heavy": rng.standard_normal((3, 4))[np.arange(m) % 3]}
    for name, x in points.items():
        dist = pairwise_matrix(x, DistanceMeasureId.MANHATTAN)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            agglomerate(dist, Linkage.AVERAGE)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m * m * 8, (name, peak)


@pytest.mark.parametrize("position", [(63, 64), (64, 130), (10, 20), (199, 0), (0, 199)])
def test_one_asymmetric_pair_is_rejected(position):
    # 64-row tiles: a pair on a tile edge, one inside a tile, and the far corners.
    dist = pairwise_matrix(seeded_rng(14).standard_normal((200, 3)), DistanceMeasureId.MANHATTAN)
    agglomerate(dist.copy())
    dist[position] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        agglomerate(dist)
