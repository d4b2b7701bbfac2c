"""Gating acceptance checks, one summary line per behavior.

Every test here re-derives its expected values independently: naive
double loops for distances and statistics, a from-scratch merge oracle
for the clustering, planted synthetic structure for group formation,
and full pipeline reruns for determinism. The terminal summary prints
one PASS/FAIL line per named criterion. The closing harness exercises
a real driving corpus whenever UAH_DRIVESET_ROOT points at one.
"""

import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from tsgroups import autoencoder as ae
from tsgroups.classifiers import ClassifierSpec
from tsgroups.consistent import CgfConfig, form_consistent_groups
from tsgroups.distances import (
    MEASURE_ORDER,
    DistanceMeasureId,
    fit_mahalanobis,
    pairwise_matrix,
)
from tsgroups.group_mapping import MappingMethod, candidate_distances, infer_with_groups
from tsgroups.grouped import predict, train_per_group, train_single_baseline
from tsgroups.hierarchy import Linkage, agglomerate, hubert_statistic, select_best_measure
from tsgroups.pipeline import cmd_infer, cmd_ingest, cmd_train, read_config
from tsgroups.rng import derive_seed, seeded_rng
from tsgroups.storage import content_digest, file_digest
from tsgroups.types import Grouping, WindowedDataset, WindowMeta

from reference import gradient_check, naive_chebyshev, naive_mahalanobis, naive_manhattan
from synthdata import (
    adjusted_rand_index,
    anisotropic_fixture,
    isotropic_tie_fixture,
    planted_blobs,
)


def scalar_distance(a, b, measure, inv=None):
    """Coordinate-loop distance, written independently of the library."""
    diffs = [float(a[k]) - float(b[k]) for k in range(len(a))]
    if measure is DistanceMeasureId.CHEBYSHEV:
        return max(abs(v) for v in diffs)
    if measure is DistanceMeasureId.MANHATTAN:
        return sum(abs(v) for v in diffs)
    total = 0.0
    for i in range(len(diffs)):
        for j in range(len(diffs)):
            total += diffs[i] * inv[i, j] * diffs[j]
    return math.sqrt(max(total, 0.0))


@pytest.mark.acceptance("autoencoder gradients match finite differences")
def test_autoencoder_gradients_match_finite_differences():
    started = time.perf_counter()
    config = ae.AutoencoderConfig(hidden1=3, hidden2=2, epochs=1, batch_size=1)
    for seed in range(5):
        params = ae.init_params(config, d=2, seed=seed)
        window = seeded_rng(derive_seed(seed, "gradcheck", "window")).standard_normal((5, 2))
        assert gradient_check(params, window, epsilon=1e-5) < 1e-4, seed
    assert time.perf_counter() - started < 30.0


@pytest.mark.acceptance("clustering reproduces naive merge sequences")
def test_clustering_reproduces_naive_merge_sequences():
    def naive_tree(dist, linkage):
        m = dist.shape[0]
        clusters = [(i, [i]) for i in range(m)]
        merges = []
        for step in range(m - 1):
            best = None
            for a in range(len(clusters)):
                for b in range(a + 1, len(clusters)):
                    block = dist[np.ix_(clusters[a][1], clusters[b][1])]
                    if linkage is Linkage.SINGLE:
                        value = float(block.min())
                    elif linkage is Linkage.COMPLETE:
                        value = float(block.max())
                    else:
                        value = float(block.mean())
                    key = (min(clusters[a][0], clusters[b][0]),
                           max(clusters[a][0], clusters[b][0]))
                    if best is None or value < best[0] or (value == best[0] and key < best[1]):
                        best = (value, key, (a, b))
            value, key, (a, b) = best
            merges.append((key[0], key[1], value))
            merged = (m + step, clusters[a][1] + clusters[b][1])
            clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
            clusters.append(merged)
        return merges

    covered = set()
    for seed in range(200):
        rng = seeded_rng(seed)
        m = int(rng.integers(4, 13))
        x = rng.standard_normal((m, 3))
        measure = MEASURE_ORDER[seed % 3]
        ctx = fit_mahalanobis(x) if measure is DistanceMeasureId.MAHALANOBIS else None
        dist = pairwise_matrix(x, measure, ctx)
        for linkage in Linkage:
            fast = agglomerate(dist.copy(), linkage)
            ref = naive_tree(dist, linkage)
            assert fast.merges[["a", "b"]].tolist() == [mm[:2] for mm in ref], (seed, linkage)
            for f, r in zip(fast.merges["height"], ref):
                assert f == pytest.approx(r[2], abs=1e-9)
            covered.add((linkage, measure))
    assert len(covered) == 9


@pytest.mark.acceptance("distances and statistics match double loops")
def test_distances_and_statistics_match_double_loops():
    for seed in range(100):
        rng = seeded_rng(derive_seed(seed, "oracle-fixture"))
        h = int(rng.integers(2, 6))
        m = int(rng.integers(h + 2, 12))
        x = rng.standard_normal((m, h))
        ctx = fit_mahalanobis(x)
        inv = ctx.inverse_covariance
        a, b = x[0], x[1]

        assert naive_chebyshev(a, b) == pytest.approx(
            scalar_distance(a, b, DistanceMeasureId.CHEBYSHEV), abs=1e-10)
        assert naive_manhattan(a, b) == pytest.approx(
            scalar_distance(a, b, DistanceMeasureId.MANHATTAN), abs=1e-10)
        assert naive_mahalanobis(a, b, ctx) == pytest.approx(
            scalar_distance(a, b, DistanceMeasureId.MAHALANOBIS, inv), abs=1e-10)

        k = int(rng.integers(1, 4))
        assignment = rng.permutation(np.arange(m) % k)
        centroids = np.stack([x[assignment == g].mean(axis=0) for g in range(k)])
        split = m // 2
        left, right = x[:split], x[split:]
        whole_left = Grouping(assignment=np.zeros(split, dtype=np.int64), K=1, measure="MANHATTAN")

        for measure in MEASURE_ORDER:
            use_inv = inv if measure is DistanceMeasureId.MAHALANOBIS else None
            total = 0.0
            for i in range(m):
                for j in range(i + 1, m):
                    d_pts = scalar_distance(x[i], x[j], measure, use_inv)
                    d_cents = scalar_distance(
                        centroids[assignment[i]], centroids[assignment[j]], measure, use_inv)
                    total += d_pts * d_cents
            expected_hubert = 2.0 * total / (m * (m - 1))
            got = hubert_statistic(x, assignment, measure, ctx)
            assert got == pytest.approx(expected_hubert, abs=1e-10)

            pair_sum = 0.0
            for u in left:
                for v in right:
                    pair_sum += scalar_distance(u, v, measure, use_inv)
            expected_avg = pair_sum / (left.shape[0] * right.shape[0])
            got_avg = candidate_distances(MappingMethod.AVG, left, whole_left, right, measure, ctx)[0]
            assert got_avg == pytest.approx(expected_avg, abs=1e-10)


@pytest.mark.acceptance("group formation recovers planted structure and always terminates")
def test_group_formation_recovers_planted_structure():
    for seed in range(20):
        x, labels = planted_blobs(sizes=(40, 35, 25), separation=8.0, sigma=1.0, seed=seed)
        result = form_consistent_groups(x, CgfConfig(tau=0.05))
        assert result.grouping.K == 3, seed
        assert adjusted_rand_index(result.grouping.assignment, labels) == 1.0, seed

    rng = seeded_rng(derive_seed(99, "adversarial"))
    for case in range(50):
        m = int(rng.integers(3, 35))
        flavor = case % 7
        if flavor == 0:
            x = np.zeros((m, 3))
        elif flavor == 1:
            x = np.vstack([np.zeros((m // 2 + 1, 2)), np.ones((m - m // 2 - 1 + 2, 2))])
        elif flavor == 2:
            x = np.repeat(rng.standard_normal((max(m // 3, 1), 3)), 3, axis=0)
        elif flavor == 3:
            x = 1e8 * rng.standard_normal((m, 4))
        elif flavor == 4:
            x = 1e-8 * rng.standard_normal((m, 4))
        elif flavor == 5:
            x = np.arange(float(m))[:, None] * np.ones((1, 3))
        else:
            x = rng.uniform(-1, 1, size=(m, int(rng.integers(2, 6))))
        result = form_consistent_groups(x, CgfConfig(tau=0.05))
        n = x.shape[0]
        assert result.grouping.assignment.size == n
        assert np.bincount(result.grouping.assignment).sum() == n
        assert result.grouping.K >= 1
        assert result.stopped_by in ("tau", "duplicates", "k_max")


@pytest.mark.acceptance("measure selection tracks planted geometry")
def test_measure_selection_tracks_planted_geometry():
    x, labels = anisotropic_fixture()
    selection = select_best_measure(x, k=2)
    assert selection.measure is DistanceMeasureId.MAHALANOBIS
    split = {tuple(np.flatnonzero(selection.assignment == g)) for g in (0, 1)}
    truth = {tuple(np.flatnonzero(labels == g)) for g in (0, 1)}
    assert split == truth

    x, labels = isotropic_tie_fixture()
    selection = select_best_measure(x, k=2)
    assert selection.measure is DistanceMeasureId.CHEBYSHEV
    assert selection.scores["CHEBYSHEV"] == selection.scores["MANHATTAN"]
    split = {tuple(np.flatnonzero(selection.assignment == g)) for g in (0, 1)}
    truth = {tuple(np.flatnonzero(labels == g)) for g in (0, 1)}
    assert split == truth


@pytest.mark.acceptance("per-group models beat one global model on opposed regimes")
def test_per_group_models_beat_global_model(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "opposed"
    config = read_config({
        "paths": {"out_dir": str(out)},
        "ingest": {
            "seed": 9,
            "train_fraction": 0.8,
            "synthetic": {
                "frequencies": [1.0, 3.1],
                "amplitudes": [1.0, 0.7],
                "noise_sigmas": [0.05, 0.05],
                "class_effect_signs": [1, -1],
                "class_effect_scale": 0.6,
                "windows_per_class": 25,
                "t": 24, "d": 3, "C": 2,
                "seed": 9,
            },
        },
        "autoencoder": {"hidden1": 8, "hidden2": 4, "epochs": 12, "seed": 9},
        "cgf": {"tau": 0.05},
        "classifier": {"kind": "SOFTMAX_STATS", "epochs": 300, "seed": 9},
        "mapping": {"method": "AVG"},
    })
    cmd_ingest(config)
    cmd_train(config)
    cmd_infer(config)
    report = json.loads((out / "infer_report.json").read_text())
    assert report["grouped"]["f1_macro"] >= 0.9
    assert report["baseline"]["f1_macro"] <= 0.6
    assert time.perf_counter() - started < 120.0


def blob_world(seed=5):
    """Well-separated representation blobs over a random windowed dataset."""
    x, _ = planted_blobs(sizes=(14, 12, 10), separation=8.0, seed=seed)
    m = x.shape[0]
    rng = seeded_rng(derive_seed(seed, "blob-world"))
    meta = [
        WindowMeta(driver_id=f"D{i % 2}", behavior="NORMAL", road="MOTORWAY", session_id=f"s{i}")
        for i in range(m)
    ]
    ds = WindowedDataset(
        windows=rng.normal(size=(m, 5, 2)),
        labels=(np.arange(m) % 2).astype(np.int64),
        meta=meta,
        class_names=["c0", "c1"],
    )
    return ds, x


@pytest.mark.acceptance("self-mapping routes every group to itself")
def test_self_mapping_routes_groups_to_themselves():
    ds, vectors = blob_world()
    train_result = form_consistent_groups(vectors, CgfConfig(tau=0.05))
    grouping = train_result.grouping
    assert grouping.K == 3
    bundle = train_per_group(ds, vectors, grouping.assignment, ClassifierSpec(epochs=50))

    test_result = form_consistent_groups(vectors, CgfConfig(tau=0.05))
    assert np.array_equal(test_result.grouping.assignment, grouping.assignment)

    for method in (MappingMethod.CR_CR, MappingMethod.AVG):
        preds, report = infer_with_groups(
            bundle, vectors, None, vectors, test_result.grouping, method=method, train_grouping=grouping)
        assert report.chosen() == list(range(grouping.K))
        for g in range(grouping.K):
            members = grouping.members(g)
            expected = predict(bundle, g, None, vectors[members])
            assert np.array_equal(preds[members], expected)


@pytest.mark.acceptance("a forced single group is bit-identical to the baseline")
def test_forced_single_group_equals_baseline():
    ds, vectors = blob_world(seed=6)
    spec = ClassifierSpec(epochs=50)
    forced = train_per_group(ds, vectors, np.zeros(ds.n_windows, dtype=np.int64), spec)
    baseline = train_single_baseline(ds, vectors, spec)
    assert np.array_equal(forced.models[0].weights, baseline.models[0].weights)
    assert np.array_equal(forced.models[0].bias, baseline.models[0].bias)
    assert np.array_equal(forced.models[0].feature_mean, baseline.models[0].feature_mean)
    assert np.array_equal(forced.models[0].feature_std, baseline.models[0].feature_std)

    rng = seeded_rng(derive_seed(7, "probe-instances"))
    probe = rng.normal(size=(9, vectors.shape[1]))
    probe_group = Grouping(assignment=np.zeros(9, dtype=np.int64), K=1, measure="CHEBYSHEV")
    train_group = Grouping(assignment=np.zeros(ds.n_windows, dtype=np.int64), K=1, measure="CHEBYSHEV")
    preds, report = infer_with_groups(forced, vectors, None, probe, probe_group,
                                      train_grouping=train_group)
    assert report.chosen() == [0]
    assert np.array_equal(preds, predict(baseline, 0, None, probe))


@pytest.mark.acceptance("identical config and seed reproduce every artifact")
def test_identical_config_reproduces_artifacts(tmp_path):
    out = tmp_path / "twice"
    config = read_config({
        "paths": {"out_dir": str(out)},
        "ingest": {"seed": 3, "synthetic": {"windows_per_class": 10, "t": 20, "d": 3, "seed": 3}},
        "autoencoder": {"hidden1": 6, "hidden2": 3, "epochs": 4, "seed": 3},
        "cgf": {"tau": 0.05},
        "classifier": {"kind": "SOFTMAX_STATS", "epochs": 120, "seed": 3},
        "mapping": {"method": "AVG"},
    })

    def run_once():
        if out.exists():
            shutil.rmtree(out)
        cmd_ingest(config)
        cmd_train(config)
        cmd_infer(config)
        content = {}
        raw = {}
        for path in sorted(out.iterdir()):
            if not path.is_file() or path.name == ".lock":
                continue
            content[path.name] = content_digest(path)
            if path.suffix != ".json":
                raw[path.name] = file_digest(path)
        return content, raw

    content_a, raw_a = run_once()
    content_b, raw_b = run_once()
    assert content_a == content_b
    assert raw_a == raw_b
    assert len(content_a) > 10


@pytest.mark.uah
@pytest.mark.skipif(not os.environ.get("UAH_DRIVESET_ROOT"),
                    reason="UAH_DRIVESET_ROOT not set; real-corpus harness skipped")
def test_real_corpus_harness(tmp_path):
    out = tmp_path / "uah"
    config = read_config({
        "paths": {"dataset_root": os.environ["UAH_DRIVESET_ROOT"], "out_dir": str(out)},
        "ingest": {"road": "MOTORWAY", "window_len": 64, "overlap": 0.5, "seed": 0},
        "autoencoder": {"hidden1": 16, "hidden2": 12, "epochs": 5, "seed": 0},
        "cgf": {"tau": 0.05},
        "classifier": {"kind": "SOFTMAX_STATS", "seed": 0},
        "mapping": {"method": "AVG"},
    })
    ingest_summary = cmd_ingest(config)
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["M_train"] > 0 and report["M_test"] > 0
    cmd_train(config)
    cmd_infer(config)
    infer_report = json.loads((out / "infer_report.json").read_text())
    assert "grouped" in infer_report and "baseline" in infer_report
    print("real-corpus summary:", json.dumps({
        "ingest": ingest_summary,
        "grouped": infer_report["grouped"],
        "baseline": infer_report["baseline"],
    }, indent=2, sort_keys=True))
