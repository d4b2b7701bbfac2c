"""Routing test groups onto train-group models by representation distance."""

import json
import tracemalloc

import numpy as np
import pytest

from tsgroups import distances, group_mapping
from tsgroups.classifiers import ClassifierSpec
from tsgroups.distances import MEASURE_ORDER, DistanceMeasureId, cross_distances, fit_mahalanobis
from tsgroups.group_mapping import (
    MappingMethod,
    MappingReport,
    candidate_distances,
    infer_with_groups,
)
from tsgroups.grouped import predict, train_per_group, train_single_baseline
from tsgroups.rng import derive_seed, seeded_rng
from tsgroups.storage import canonical_json
from tsgroups.types import Grouping, WindowedDataset

from reference import naive_chebyshev, naive_mahalanobis, naive_manhattan, pergroup_candidate_distances


def make_dataset(m, t=5, d=2, n_classes=2, seed=0):
    rng = seeded_rng(derive_seed(seed, "mapping-ds"))
    return WindowedDataset(
        windows=rng.normal(size=(m, t, d)),
        labels=(np.arange(m) % n_classes).astype(np.int64),
        driver_ids=[f"D{i % 2}" for i in range(m)],
        class_names=[f"c{j}" for j in range(n_classes)],
    )


def clustered_setup(seed=0, kind="SOFTMAX_AECS"):
    """Three tight clusters in representation space, one train group each."""
    rng = seeded_rng(derive_seed(seed, "mapping-clusters"))
    centers = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
    vectors = np.vstack([c + rng.normal(scale=0.3, size=(6, 3)) for c in centers])
    grouping = Grouping(assignment=np.repeat([0, 1, 2], 6), K=3, measure="CHEBYSHEV")
    ds = make_dataset(18, seed=seed + 1)
    bundle = train_per_group(ds, vectors, grouping.assignment, ClassifierSpec(kind=kind, epochs=40))
    return ds, vectors, grouping, bundle


def singletons(n):
    """Grouping that puts each of n train vectors in its own group."""
    return Grouping(assignment=np.arange(n), K=n, measure="CHEBYSHEV")


def one_group(n):
    return Grouping(assignment=np.zeros(n, dtype=np.int64), K=1, measure="CHEBYSHEV")


def group_distances(method, train, grouping, test_block, measure, ctx=None):
    """Distances from one test group, all of ``test_block``, to each train group."""
    return candidate_distances(method, train, grouping, test_block, one_group(len(test_block)), measure, ctx)[0]


def nearest(method, train, grouping, test_block, measure, ctx=None):
    return int(np.argmin(group_distances(method, train, grouping, test_block, measure, ctx)))


def test_map_cr_cr_hand_cases():
    train = np.array([[0.0, 0.0], [10.0, 0.0]])
    cheb = DistanceMeasureId.CHEBYSHEV
    assert nearest(MappingMethod.CR_CR, train, singletons(2), np.array([[2.0, 0.0]]), cheb) == 0
    assert nearest(MappingMethod.CR_CR, train, singletons(2), np.array([[9.0, 0.0]]), cheb) == 1
    # The test side is compared through its mean, not its members.
    block = np.array([[7.0, 0.0], [9.0, 0.0]])
    dists = group_distances(MappingMethod.CR_CR, train, singletons(2), block, cheb)
    assert dists.tolist() == [8.0, 2.0]


def test_map_cr_cr_tie_prefers_smaller_index():
    train = np.array([[1.0, 0.0], [-1.0, 0.0]])
    for method in MappingMethod:
        assert nearest(method, train, singletons(2), np.array([[0.0, 0.0]]),
                       DistanceMeasureId.MANHATTAN) == 0


def test_map_cr_cr_validates_shape():
    train = np.zeros((2, 3))
    cheb = DistanceMeasureId.CHEBYSHEV
    for method in MappingMethod:
        # Test vectors that are not a matrix, fewer rows than the test grouping, another width.
        for test, test_grouping in ((np.zeros(3), one_group(3)), (np.zeros((0, 3)), one_group(1)),
                                    (np.zeros((1, 4)), one_group(1))):
            with pytest.raises(ValueError):
                candidate_distances(method, train, singletons(2), test, test_grouping, cheb)
        with pytest.raises(ValueError, match="train vectors"):
            candidate_distances(method, train, singletons(3), np.zeros((1, 3)), one_group(1), cheb)


def test_avg_group_distance_hand_value():
    a = np.array([[0.0], [2.0]])
    b = np.array([[1.0]])
    got = group_distances(MappingMethod.AVG, a, one_group(2), b, DistanceMeasureId.MANHATTAN)
    assert got.tolist() == [pytest.approx(1.0)]


def naive_measures(ctx):
    return [
        (DistanceMeasureId.CHEBYSHEV, naive_chebyshev),
        (DistanceMeasureId.MANHATTAN, naive_manhattan),
        (DistanceMeasureId.MAHALANOBIS, lambda x, y: naive_mahalanobis(x, y, ctx)),
    ]


def test_avg_group_distance_matches_double_loop():
    rng = seeded_rng(derive_seed(9, "avg-naive"))
    for trial in range(10):
        a = rng.normal(size=(rng.integers(1, 6), 4))
        b = rng.normal(size=(rng.integers(1, 6), 4))
        ctx = fit_mahalanobis(np.vstack([a, b]))
        for measure, fn in naive_measures(ctx):
            naive = np.mean([fn(x, y) for x in a for y in b])
            got = group_distances(MappingMethod.AVG, a, one_group(len(a)), b, measure, ctx)[0]
            assert got == pytest.approx(naive, abs=1e-10)
    for trial in range(10):  # several train groups, so the per-group reduction is exercised
        train = rng.normal(size=(rng.integers(3, 10), 4))
        b = rng.normal(size=(rng.integers(1, 6), 4))
        k = int(rng.integers(2, 4))
        assignment = rng.permutation(np.arange(len(train)) % k)
        grouping = Grouping(assignment=assignment, K=k, measure="CHEBYSHEV")
        ctx = fit_mahalanobis(np.vstack([train, b]))
        for measure, fn in naive_measures(ctx):
            naive = [np.mean([fn(x, y) for x in train[assignment == g] for y in b]) for g in range(k)]
            got = group_distances(MappingMethod.AVG, train, grouping, b, measure, ctx)
            assert got == pytest.approx(naive, abs=1e-10)


def test_matrix_equals_the_per_group_oracle():
    # Features six decades apart and groups of uneven sizes, so a change in the order of additions shows.
    rng = seeded_rng(derive_seed(13, "matrix-oracle"))
    for trial in range(6):
        m_train, m_test = (int(n) for n in rng.integers(2, 400, size=2))
        k_train, k_test = min(int(rng.integers(1, 9)), m_train), min(int(rng.integers(1, 9)), m_test)
        scale = 10.0 ** rng.integers(-3, 4, size=12)
        train, test = rng.normal(size=(m_train, 12)) * scale, rng.normal(size=(m_test, 12)) * scale
        train_grouping, test_grouping = (
            Grouping(assignment=rng.permutation(np.append(np.arange(k), rng.integers(0, k, size=m - k))), K=k,
                     measure="CHEBYSHEV")
            for m, k in ((m_train, k_train), (m_test, k_test)))
        ctx = fit_mahalanobis(train)
        for method in MappingMethod:
            for measure in MEASURE_ORDER:
                got = candidate_distances(method, train, train_grouping, test, test_grouping, measure, ctx)
                want = np.stack([pergroup_candidate_distances(method.value, train, train_grouping.assignment,
                                                              test[test_grouping.members(j)], measure, ctx)
                                 for j in range(k_test)])
                assert got.shape == (k_test, k_train)
                if method is MappingMethod.CR_CR and measure is DistanceMeasureId.MAHALANOBIS:
                    # The test centroids are whitened as one K-row product, not a row at a time,
                    # and BLAS may round a many-row product otherwise.
                    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
                else:
                    assert np.array_equal(got, want), (trial, method, measure)


def test_infer_computes_one_matrix_per_method(monkeypatch):
    ds, vectors, grouping, bundle = clustered_setup()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return candidate_distances(*args, **kwargs)

    monkeypatch.setattr(group_mapping, "candidate_distances", counted)
    for method in MappingMethod:
        calls.clear()
        infer_with_groups(bundle, vectors, None, vectors, grouping, method=method, train_grouping=grouping)
        assert calls == [method]


def test_avg_holds_no_train_by_test_matrix(monkeypatch):
    rng = seeded_rng(derive_seed(4, "avg-blocks"))
    m = 600
    # Features six decades apart, so the order of additions shows in the floats.
    scale = 10.0 ** rng.integers(-3, 4, size=12)
    train, tests = rng.normal(size=(m + 1, 12)) * scale, rng.normal(size=(m, 12)) * scale
    # The tail row is a group of its own, so its distances alone make that candidate.
    grouping = Grouping(assignment=np.append(np.arange(m) % 3, 3), K=4, measure="CHEBYSHEV")
    ctx = fit_mahalanobis(train)
    # Three interleaved test groups; with one test row a candidate is one distance, so a change in its last bit shows.
    for test, test_grouping in ((tests, Grouping(assignment=np.arange(m) % 3, K=3, measure="CHEBYSHEV")),
                                (tests[:1], one_group(1))):
        # Four rows per block: 601 train rows leave a one-row tail, and a
        # peak near m^2 could only be a matrix.
        monkeypatch.setattr(distances, "_SCRATCH_BYTES", 4 * len(test) * 8)
        for measure in MEASURE_ORDER:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                got = candidate_distances(MappingMethod.AVG, train, grouping, test, test_grouping, measure, ctx)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= m * m * 8 / 4, (measure, peak)
            want = [np.bincount(grouping.assignment, weights=row_means) / grouping.group_sizes()
                    for row_means in (cross_distances(train, test[test_grouping.members(j)], measure, ctx).mean(axis=1)
                                      for j in range(test_grouping.K))]
            assert np.array_equal(got, want), (measure, len(test))


def test_avg_holds_no_train_by_test_matrix_on_many_cpus(monkeypatch):
    # Each worker holds a block of its own here, so on 64 CPUs the 150
    # blocks of four train rows would add up to more than the bound.
    monkeypatch.setattr(distances, "_worker_count", lambda: 64)
    test_avg_holds_no_train_by_test_matrix(monkeypatch)


def test_map_avg_hand_case():
    vectors = np.array([[0.0], [0.5], [10.0], [10.5]])
    grouping = Grouping(assignment=np.array([0, 0, 1, 1]), K=2, measure="MANHATTAN")
    manh = DistanceMeasureId.MANHATTAN
    assert nearest(MappingMethod.AVG, vectors, grouping, np.array([[9.8], [10.2]]), manh) == 1
    assert nearest(MappingMethod.AVG, vectors, grouping, np.array([[0.4]]), manh) == 0


def test_self_mapping_is_identity_both_methods():
    ds, vectors, grouping, bundle = clustered_setup()
    for method in (MappingMethod.CR_CR, MappingMethod.AVG):
        preds, report = infer_with_groups(bundle, vectors, None, vectors, grouping, method=method,
                                          train_grouping=grouping)
        assert report.chosen() == [0, 1, 2]
        for j in range(3):
            members = grouping.members(j)
            train_preds = predict(bundle, j, None, vectors[members])
            assert np.array_equal(preds[members], train_preds)


def test_self_mapping_identity_with_stats_kind():
    ds, vectors, grouping, bundle = clustered_setup(kind="SOFTMAX_STATS")
    preds, report = infer_with_groups(
        bundle, vectors, ds, vectors, grouping, method=MappingMethod.AVG, train_grouping=grouping
    )
    assert report.chosen() == [0, 1, 2]
    for j in range(3):
        members = grouping.members(j)
        train_preds = predict(bundle, j, ds.windows[members], None)
        assert np.array_equal(preds[members], train_preds)


def test_report_holds_one_distance_row_per_test_group():
    ds, vectors, grouping, bundle = clustered_setup()
    _, report = infer_with_groups(bundle, vectors, None, vectors, grouping, method=MappingMethod.AVG,
                                  train_grouping=grouping)
    assert report.distances.shape == (3, bundle.n_groups)
    assert [row[g] for row, g in zip(report.distances, report.chosen())] == report.distances.min(axis=1).tolist()
    payload = json.loads(canonical_json(report))
    assert sorted(payload) == ["distances", "measure", "method"]
    assert payload["method"] == "AVG"
    assert payload["measure"] == "CHEBYSHEV"
    assert payload["distances"] == report.distances.tolist()


def test_measure_is_the_train_groupings():
    rng = seeded_rng(derive_seed(12, "default-measure"))
    vectors = rng.normal(size=(10, 3))
    assignment = np.repeat([0, 1], 5)
    bundle = train_per_group(make_dataset(10), vectors, assignment, ClassifierSpec(epochs=10))
    test_grouping = Grouping(assignment=assignment, K=2, measure="CHEBYSHEV")
    for measure in MEASURE_ORDER:
        train_grouping = Grouping(assignment=assignment, K=2, measure=measure)
        _, report = infer_with_groups(bundle, vectors, None, vectors, test_grouping,
                                      train_grouping=train_grouping)
        assert report.measure is measure


def test_single_train_group_routes_everything_to_it():
    ds, vectors, test_grouping, _ = clustered_setup()
    baseline = train_single_baseline(ds, vectors, ClassifierSpec(epochs=40))
    preds, report = infer_with_groups(
        baseline, vectors, None, vectors, test_grouping,
        method=MappingMethod.AVG, train_grouping=one_group(18),
    )
    assert report.chosen() == [0, 0, 0]
    direct = predict(baseline, 0, None, vectors)
    assert np.array_equal(preds, direct)


def test_mahalanobis_context_given_or_fitted_agree():
    ds, vectors, grouping, bundle = clustered_setup()
    train_grouping = Grouping(assignment=grouping.assignment, K=3, measure="MAHALANOBIS")
    right_ctx = fit_mahalanobis(vectors)
    preds, report = infer_with_groups(
        bundle, vectors, None, vectors, grouping, train_grouping=train_grouping, ctx=right_ctx,
    )
    assert report.chosen() == [0, 1, 2]
    auto_preds, auto_report = infer_with_groups(
        bundle, vectors, None, vectors, grouping, train_grouping=train_grouping
    )
    assert np.array_equal(preds, auto_preds)
    assert auto_report.chosen() == report.chosen()


def test_infer_validates_sizes():
    ds, vectors, grouping, bundle = clustered_setup()
    short = vectors[:17]
    with pytest.raises(ValueError):
        infer_with_groups(bundle, vectors, None, short, grouping, train_grouping=grouping)
    short_ds = make_dataset(17)
    with pytest.raises(ValueError):
        infer_with_groups(bundle, vectors, short_ds, vectors, grouping, train_grouping=grouping)
    # A train grouping of another K than the bundle's models, or over other rows than its vectors.
    for train_grouping in (one_group(18), Grouping(assignment=np.repeat([0, 1, 2], [6, 6, 7]), K=3,
                                                   measure="CHEBYSHEV")):
        with pytest.raises(ValueError, match="train grouping"):
            infer_with_groups(bundle, vectors, None, vectors, grouping, train_grouping=train_grouping)


def test_infer_deterministic():
    ds, vectors, grouping, bundle = clustered_setup()
    a_preds, a_report = infer_with_groups(bundle, vectors, None, vectors, grouping, train_grouping=grouping)
    b_preds, b_report = infer_with_groups(bundle, vectors, None, vectors, grouping, train_grouping=grouping)
    assert np.array_equal(a_preds, b_preds)
    assert canonical_json(a_report) == canonical_json(b_report)


def test_mapping_report_round_trip_types():
    report = MappingReport(method="CR_CR", measure="MANHATTAN", distances=[[0.5, 0.5, 0.25], [0.0, 0.0, 1.0]])
    assert report.method is MappingMethod.CR_CR
    assert report.measure is DistanceMeasureId.MANHATTAN
    assert report.chosen() == [2, 0]  # a tie goes to the smaller index
    with pytest.raises(ValueError):
        MappingReport(method="NEAREST", measure="MANHATTAN", distances=[[0.5]])
    for distances in ([], [0.5, 0.25], [[]], [[0.5], [0.25, 1.0]]):
        with pytest.raises(ValueError):
            MappingReport(method="AVG", measure="MANHATTAN", distances=distances)
