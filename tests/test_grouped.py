"""Per-group classifier training, prediction, and the one-group baseline."""

import json

import numpy as np
import pytest

from tsgroups.classifiers import (
    ClassifierKind,
    ClassifierSpec,
    SoftmaxModel,
    extract_features,
    predict_softmax,
    stats_features,
    train_softmax,
)
from tsgroups.grouped import (
    GroupModelBundle,
    predict,
    train_per_group,
    train_single_baseline,
)
from tsgroups.rng import derive_seed, seeded_rng
from tsgroups.storage import canonical_json
from tsgroups.types import WindowedDataset


def make_dataset(m=12, t=6, d=2, n_classes=2, seed=0, labels=None):
    rng = seeded_rng(derive_seed(seed, "grouped-tests"))
    windows = rng.normal(size=(m, t, d))
    if labels is None:
        labels = np.arange(m) % n_classes
    return WindowedDataset(
        windows=windows,
        labels=np.asarray(labels, dtype=np.int64),
        driver_ids=[f"D{i % 3}" for i in range(m)],
        class_names=[f"c{j}" for j in range(n_classes)],
    )


def make_vectors(ds, seed=1, spread=4.0):
    """Representation vectors made separable by shifting one axis per class."""
    rng = seeded_rng(derive_seed(seed, "grouped-aecs"))
    h = max(3, ds.n_classes)
    base = rng.normal(scale=0.3, size=(ds.n_windows, h))
    base[np.arange(ds.n_windows), ds.labels] += spread
    return base


def test_stats_features_hand_values():
    w = np.array([[[1.0], [2.0], [4.0]]])
    f = stats_features(w)
    assert f.shape == (1, 5)
    mean, std, lo, hi, jump = f[0]
    assert mean == pytest.approx(7 / 3)
    expected_std = np.sqrt(((1 - 7 / 3) ** 2 + (2 - 7 / 3) ** 2 + (4 - 7 / 3) ** 2) / 3)
    assert std == pytest.approx(expected_std)
    assert lo == 1.0
    assert hi == 4.0
    assert jump == pytest.approx(1.5)


def test_stats_features_column_layout():
    w = np.zeros((1, 4, 2))
    w[0, :, 0] = [0.0, 1.0, 2.0, 3.0]
    w[0, :, 1] = [5.0, 5.0, 5.0, 5.0]
    f = stats_features(w)[0]
    assert f.shape == (10,)
    assert f[0] == pytest.approx(1.5)
    assert f[1] == pytest.approx(5.0)
    assert f[3] == pytest.approx(0.0)
    assert f[4] == 0.0 and f[5] == 5.0
    assert f[6] == 3.0 and f[7] == 5.0
    assert f[8] == pytest.approx(1.0)
    assert f[9] == pytest.approx(0.0)


def test_stats_features_rejects_bad_rank():
    with pytest.raises(ValueError):
        stats_features(np.zeros((4, 5)))


def test_extract_features_dispatch():
    ds = make_dataset()
    vectors = make_vectors(ds)
    x = extract_features(ClassifierKind.SOFTMAX_AECS, None, vectors)
    assert np.array_equal(x, vectors)
    s = extract_features(ClassifierKind.SOFTMAX_STATS, ds.windows, None)
    assert s.shape == (ds.n_windows, 5 * ds.n_channels)
    with pytest.raises(ValueError):
        extract_features(ClassifierKind.SOFTMAX_AECS, ds.windows, None)
    with pytest.raises(ValueError):
        extract_features(ClassifierKind.SOFTMAX_STATS, None, vectors)
    with pytest.raises(ValueError):
        extract_features(ClassifierKind.SOFTMAX_AECS, None, np.zeros(5))


def test_spec_validation_and_round_trip():
    with pytest.raises(ValueError):
        ClassifierSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        ClassifierSpec(epochs=0)
    with pytest.raises(ValueError):
        ClassifierSpec(l2=-1e-6)
    spec = ClassifierSpec(kind="SOFTMAX_STATS", epochs=7)
    assert spec.kind is ClassifierKind.SOFTMAX_STATS
    assert ClassifierSpec(**json.loads(canonical_json(spec))) == spec


def test_train_softmax_fits_separable_data():
    rng = seeded_rng(derive_seed(3, "separable"))
    x = rng.normal(scale=0.4, size=(40, 2))
    y = (np.arange(40) % 2).astype(np.int64)
    x[:, 0] += np.where(y == 1, 3.0, -3.0)
    model = train_softmax(x, y, ClassifierSpec(epochs=300, learning_rate=0.5))
    assert np.array_equal(predict_softmax(model, x), y)


def test_train_softmax_deterministic():
    rng = seeded_rng(derive_seed(8, "det"))
    x = rng.normal(size=(20, 3))
    y = (np.arange(20) % 3).astype(np.int64)
    spec = ClassifierSpec(epochs=60)
    a = train_softmax(x, y, spec)
    b = train_softmax(x, y, spec)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert np.array_equal(a.seen_classes, b.seen_classes)


def test_single_class_training_is_constant_predictor():
    x = seeded_rng(derive_seed(4, "one-class")).normal(size=(6, 3))
    y = np.full(6, 2, dtype=np.int64)
    model = train_softmax(x, y, ClassifierSpec(epochs=50))
    assert np.array_equal(model.seen_classes, [2])
    assert np.all(model.weights == 0)
    probe = seeded_rng(derive_seed(5, "probe")).normal(size=(9, 3))
    assert np.array_equal(predict_softmax(model, probe), np.full(9, 2))


def test_absent_classes_never_predicted():
    rng = seeded_rng(derive_seed(6, "absent"))
    x = rng.normal(size=(30, 4))
    y = np.where(np.arange(30) % 2 == 0, 0, 2).astype(np.int64)
    model = train_softmax(x, y, ClassifierSpec(epochs=100))
    preds = predict_softmax(model, rng.normal(size=(50, 4)))
    assert set(np.unique(preds)) <= {0, 2}


def test_prediction_tie_resolves_to_smaller_class_id():
    model = SoftmaxModel(
        weights=np.zeros((1, 2)),
        bias=np.zeros(2),
        seen_classes=np.array([3, 5]),
        feature_mean=np.zeros(1),
        feature_std=np.ones(1),
    )
    assert np.array_equal(predict_softmax(model, np.array([[0.7], [-1.2]])), [3, 3])


def test_predict_softmax_validates_width_and_empty():
    model = train_softmax(np.eye(3), np.array([0, 1, 0]), ClassifierSpec(epochs=5))
    with pytest.raises(ValueError):
        predict_softmax(model, np.zeros((2, 4)))
    out = predict_softmax(model, np.zeros((0, 3)))
    assert out.size == 0
    assert out.dtype == np.int64


def test_train_softmax_rejects_bad_shapes():
    with pytest.raises(ValueError):
        train_softmax(np.zeros((4, 2)), np.zeros(3, dtype=np.int64), ClassifierSpec())
    with pytest.raises(ValueError):
        train_softmax(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ClassifierSpec())


def test_train_per_group_partitions_instances():
    ds = make_dataset(m=14, n_classes=3)
    vectors = make_vectors(ds)
    assignment = np.array([0] * 5 + [1] * 4 + [2] * 5)
    bundle = train_per_group(ds, vectors, assignment, ClassifierSpec(epochs=20))
    assert bundle.n_groups == 3
    for g, model in enumerate(bundle.models):
        assert np.array_equal(model.feature_mean, vectors[assignment == g].mean(axis=0))
    for g in range(3):
        assert np.array_equal(bundle.models[g].seen_classes, np.unique(ds.labels[assignment == g]))
    assert bundle.warnings == []


def test_single_class_group_flagged():
    labels = [0, 1, 0, 1, 0, 0, 0, 0]
    ds = make_dataset(m=8, n_classes=2, labels=labels)
    vectors = make_vectors(ds)
    bundle = train_per_group(ds, vectors, np.array([0, 0, 0, 0, 1, 1, 1, 1]), ClassifierSpec(epochs=10))
    assert bundle.warnings == ["group 1 contains only class 0; constant predictor"]
    assert bundle.models[1].seen_classes.tolist() == [0]
    preds = predict(bundle, 1, None, vectors)
    assert np.all(preds == 0)


def test_train_per_group_size_mismatches():
    ds = make_dataset(m=10)
    vectors = make_vectors(ds)
    short = vectors[:9]
    with pytest.raises(ValueError):
        train_per_group(ds, short, np.zeros(10), ClassifierSpec(epochs=5))
    with pytest.raises(ValueError):
        train_per_group(ds, vectors, np.zeros(9), ClassifierSpec(epochs=5))
    for assignment in ([0] * 9 + [-1], [0] * 9 + [2]):  # a negative id; group 1 left empty
        with pytest.raises(ValueError):
            train_per_group(ds, vectors, np.array(assignment), ClassifierSpec(epochs=5))


def test_predict_validates_model_index():
    ds = make_dataset(m=6)
    vectors = make_vectors(ds)
    bundle = train_single_baseline(ds, vectors, ClassifierSpec(epochs=5))
    with pytest.raises(IndexError):
        predict(bundle, 1, None, vectors)
    with pytest.raises(IndexError):
        predict(bundle, -1, None, vectors)
    out = predict(bundle, 0, None, vectors[:0])
    assert out.size == 0


def test_baseline_equals_direct_single_model():
    ds = make_dataset(m=16, n_classes=3)
    vectors = make_vectors(ds)
    spec = ClassifierSpec(epochs=40)
    bundle = train_single_baseline(ds, vectors, spec)
    assert bundle.n_groups == 1
    direct = train_softmax(vectors, ds.labels, spec)
    assert np.array_equal(bundle.models[0].weights, direct.weights)
    assert np.array_equal(bundle.models[0].bias, direct.bias)


def test_train_per_group_stats_kind():
    ds = make_dataset(m=10, n_classes=2)
    vectors = make_vectors(ds)
    spec = ClassifierSpec(kind="SOFTMAX_STATS", epochs=10)
    bundle = train_per_group(ds, vectors, np.zeros(10), spec)
    assert bundle.models[0].n_features == 5 * ds.n_channels
    preds = predict(bundle, 0, ds.windows, None)
    assert preds.shape == (10,)


def test_bundle_determinism():
    ds = make_dataset(m=12, n_classes=2)
    vectors = make_vectors(ds)
    spec = ClassifierSpec(epochs=30)
    a = train_per_group(ds, vectors, np.repeat([0, 1], 6), spec)
    b = train_per_group(ds, vectors, np.repeat([0, 1], 6), spec)
    for ma, mb in zip(a.models, b.models):
        assert np.array_equal(ma.weights, mb.weights)
        assert np.array_equal(ma.bias, mb.bias)
    assert all(np.array_equal(ma.seen_classes, mb.seen_classes) for ma, mb in zip(a.models, b.models))


def test_bundle_validation():
    ds = make_dataset(m=6)
    vectors = make_vectors(ds)
    spec = ClassifierSpec(epochs=5)
    bundle = train_single_baseline(ds, vectors, spec)
    with pytest.raises(ValueError, match="seen_classes"):
        GroupModelBundle(models=list(bundle.models), kind=spec.kind, n_classes=1)
    with pytest.raises(ValueError, match="one feature width"):
        GroupModelBundle(models=[], kind=spec.kind, n_classes=2)
