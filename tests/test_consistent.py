"""Iterative group formation: new-group sizes and stopping rules."""

import numpy as np
import pytest

from tsgroups import consistent
from tsgroups.consistent import CgfConfig, CgfResult, form_consistent_groups
from tsgroups.hierarchy import cut
from tsgroups.pipeline import cmd_ingest, cmd_train, read_config
from tsgroups.rng import seeded_rng
from tsgroups.storage import as_record, canonical_json, read_json

from reference import difference
from synthdata import adjusted_rand_index, planted_blobs


def _outlier_pair():
    core = 0.01 * seeded_rng(0).standard_normal((100, 4))
    return np.vstack([core, [[50.0, 0, 0, 0], [50.5, 0, 0, 0]]])


@pytest.mark.parametrize("x, config", [
    (planted_blobs(seed=3)[0], CgfConfig(tau=0.05)),
    # Six points, 20 exact copies each: most merges tie at height 0.
    (seeded_rng(5).standard_normal((6, 3))[np.arange(120) % 6], CgfConfig(tau=0.01)),
    (planted_blobs(sizes=(30, 25, 20, 15), seed=4)[0], CgfConfig(tau=0.05, k_start=3)),
    (_outlier_pair(), CgfConfig(tau=0.05)),
], ids=["blobs", "exact-ties", "k-start-3", "first-split-under-tau"])
def test_new_group_sizes_match_partition_difference(monkeypatch, x, config):
    calls = []

    def counting_cut(dendrogram, k):
        calls.append((dendrogram, k))
        return cut(dendrogram, k)

    monkeypatch.setattr(consistent, "cut", counting_cut)
    result = form_consistent_groups(x, config)
    assert len(calls) == 1
    dendrogram, k = calls[0]
    assert k == result.grouping.K
    assert result.trace
    for row in result.trace:
        oracle = difference(cut(dendrogram, row["k"] - 1), cut(dendrogram, row["k"]))
        assert row["new_group_size"] == oracle


def test_planted_blobs_recovered():
    x, labels = planted_blobs(seed=3)
    result = form_consistent_groups(x, CgfConfig(tau=0.05))
    assert result.grouping.K == 3
    assert adjusted_rand_index(result.grouping.assignment, labels) == 1.0
    assert result.stopped_by == "tau"
    assert result.accepted_k == 3


def test_sub_threshold_first_split_collapses_to_one_group():
    result = form_consistent_groups(_outlier_pair(), CgfConfig(tau=0.05))
    assert result.grouping.K == 1
    assert np.all(result.grouping.assignment == 0)
    assert result.grouping.measure in ("CHEBYSHEV", "MANHATTAN", "MAHALANOBIS")
    assert result.rejected_size == 2
    assert result.trace[0]["accepted"] is False


def test_tiny_tau_runs_to_cap():
    rng = seeded_rng(8)
    x = rng.uniform(-1, 1, size=(30, 3))
    config = CgfConfig(tau=1e-9, k_max=6)
    result = form_consistent_groups(x, config)
    assert result.stopped_by == "k_max"
    assert result.grouping.K == 6


def test_trace_records_every_candidate():
    x, _ = planted_blobs(seed=1)
    result = form_consistent_groups(x, CgfConfig(tau=0.05))
    ks = [row["k"] for row in result.trace]
    assert ks == list(range(2, 2 + len(ks)))
    assert all(row["accepted"] for row in result.trace[:-1])
    assert result.trace[-1]["accepted"] is False


def test_accepted_k_matches_grouping():
    rng = seeded_rng(4)
    x = rng.standard_normal((40, 5))
    result = form_consistent_groups(x)
    assert result.accepted_k == result.grouping.K
    assert result.grouping.n_instances == 40
    sizes = result.grouping.group_sizes()
    assert sizes.sum() == 40
    assert np.all(sizes > 0)
    with pytest.raises(ValueError, match=f"accepted_k {result.grouping.K + 1} is not the grouping's K"):
        CgfResult(grouping=result.grouping, stopped_by=result.stopped_by, accepted_k=result.grouping.K + 1)
    with pytest.raises(ValueError, match="stopped_by must be 'tau', 'duplicates' or 'k_max'"):
        CgfResult(grouping=result.grouping, stopped_by="done", accepted_k=result.grouping.K)


def test_input_validation():
    rng = seeded_rng(9)
    with pytest.raises(ValueError):
        form_consistent_groups(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        CgfConfig(tau=0.0)
    with pytest.raises(ValueError):
        CgfConfig(tau=1.5)
    with pytest.raises(ValueError):
        form_consistent_groups(rng.standard_normal((10, 3)), CgfConfig(k_start=9, k_max=4))
    with pytest.raises(ValueError, match="the data has 10 instances, too few to group: k_start 10"):
        form_consistent_groups(rng.standard_normal((10, 3)), CgfConfig(k_start=10))
    with pytest.raises(ValueError, match="default k_max 20; set k_max"):
        CgfConfig(k_start=21)
    assert CgfConfig(k_start=21, k_max=21).effective_k_max(30) == 21


def test_result_dict_round_trips_as_json():
    import json

    x, _ = planted_blobs(sizes=(20, 15, 10), seed=2)
    result = form_consistent_groups(x, CgfConfig(tau=0.05))
    payload = json.loads(canonical_json(result))
    assert payload["accepted_k"] == result.grouping.K
    assert payload["stopped_by"] in ("tau", "k_max")
    assert [sorted(row) for row in payload["trace"]] == [["accepted", "k", "new_group_size"]] * len(result.trace)
    back = as_record(CgfResult, payload)
    assert isinstance(back.grouping, type(result.grouping))
    assert np.array_equal(back.grouping.assignment, result.grouping.assignment)
    assert canonical_json(back) == canonical_json(result)


def test_determinism():
    x, _ = planted_blobs(seed=12)
    a = form_consistent_groups(x, CgfConfig(tau=0.05))
    b = form_consistent_groups(x, CgfConfig(tau=0.05))
    assert np.array_equal(a.grouping.assignment, b.grouping.assignment)
    assert canonical_json(a) == canonical_json(b)


def test_identical_vectors_form_one_group():
    # Every merge has height 0, so the first split, which passes tau, would part copies.
    x = np.tile(seeded_rng(3).standard_normal(5), (80, 1))
    result = form_consistent_groups(x)
    assert (result.grouping.K, result.stopped_by) == (1, "duplicates")
    assert result.trace == [{"k": 2, "new_group_size": result.rejected_size, "accepted": False}]


def test_copies_of_nine_points_form_nine_groups():
    points = seeded_rng(7).standard_normal((9, 12))
    x = points[np.arange(360) % 9]
    # At tau 0.05 the 10th group, 16 copies, is below tau * M = 18; lower, only height 0 stops it.
    for tau, stopped_by in ((0.05, "tau"), (0.04, "duplicates"), (0.02, "duplicates")):
        result = form_consistent_groups(x, CgfConfig(tau=tau))
        assert (result.grouping.K, result.stopped_by) == (9, stopped_by), tau
        assert adjusted_rand_index(result.grouping.assignment, np.arange(360) % 9) == 1.0, tau


def test_zero_noise_run_keeps_copies_together(tmp_path, monkeypatch):
    # The zero-noise golden run, where every window of an (archetype, class) cell is a copy.
    from test_golden_digests import RUNS

    monkeypatch.chdir(tmp_path)
    config = read_config({**RUNS["zero-noise"], "paths": {"out_dir": "run"}, "cgf": {"tau": 0.03}})
    cmd_ingest(config)
    cmd_train(config)
    result = as_record(CgfResult, read_json(tmp_path / "run" / "cgf_train.json"))
    assert (result.grouping.K, result.stopped_by) == (9, "duplicates")
