"""Iterative group formation: difference counting and stopping rules."""

import numpy as np
import pytest

from tsgroups.consistent import CgfConfig, difference, form_consistent_groups
from tsgroups.rng import seeded_rng

from synthdata import adjusted_rand_index, planted_blobs


def test_difference_of_identical_partitions_is_zero():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert difference(a, a) == 0


def test_difference_ignores_relabeling():
    a = np.array([0, 0, 1, 1, 2, 2])
    b = np.array([2, 2, 0, 0, 1, 1])
    assert difference(a, b) == 0


def test_difference_counts_smaller_child_of_nested_split():
    prev = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    nxt = np.array([0, 0, 0, 2, 2, 1, 1, 1])
    assert difference(prev, nxt) == 2


def test_difference_uneven_split_counts_minority():
    prev = np.zeros(10, dtype=int)
    nxt = np.zeros(10, dtype=int)
    nxt[:3] = 1
    assert difference(prev, nxt) == 3


def test_planted_blobs_recovered():
    x, labels = planted_blobs(seed=3)
    result = form_consistent_groups(x, CgfConfig(tau=0.05))
    assert result.grouping.K == 3
    assert adjusted_rand_index(result.grouping.assignment, labels) == 1.0
    assert result.stopped_by == "tau"
    assert result.to_dict()["accepted_k"] == 3


def test_sub_threshold_first_split_collapses_to_one_group():
    rng = seeded_rng(0)
    core = 0.01 * rng.standard_normal((100, 4))
    outliers = np.array([[50.0, 0, 0, 0], [50.5, 0, 0, 0]])
    x = np.vstack([core, outliers])
    result = form_consistent_groups(x, CgfConfig(tau=0.05))
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
    assert result.to_dict()["accepted_k"] == result.grouping.K
    assert result.grouping.n_instances == 40
    sizes = result.grouping.group_sizes()
    assert sizes.sum() == 40
    assert np.all(sizes > 0)


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


def test_result_dict_round_trips_as_json():
    import json

    x, _ = planted_blobs(sizes=(20, 15, 10), seed=2)
    result = form_consistent_groups(x, CgfConfig(tau=0.05))
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["accepted_k"] == result.grouping.K
    assert payload["stopped_by"] in ("tau", "k_max")
    assert len(payload["group_sizes"]) == result.grouping.K


def test_determinism():
    x, _ = planted_blobs(seed=12)
    a = form_consistent_groups(x, CgfConfig(tau=0.05))
    b = form_consistent_groups(x, CgfConfig(tau=0.05))
    assert np.array_equal(a.grouping.assignment, b.grouping.assignment)
    assert a.grouping.fingerprint() == b.grouping.fingerprint()
    assert a.to_dict() == b.to_dict()
