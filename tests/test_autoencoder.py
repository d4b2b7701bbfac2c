"""Recurrent autoencoder: config, gradients, training, persistence."""

import copy
import logging

import numpy as np
import pytest
from reference import naive_cell_backward, naive_cell_forward, naive_sigmoid

from tsgroups import autoencoder as ae
from tsgroups.ingest import SyntheticSpec, generate_synthetic
from tsgroups.rng import derive_seed, seeded_rng
from tsgroups.types import DivergenceError, WindowedDataset

TINY = ae.AutoencoderConfig(hidden1=3, hidden2=2, epochs=2, batch_size=4)


def tiny_window(seed=0, t=5, d=2):
    rng = seeded_rng(derive_seed(seed, "tiny-window"))
    return rng.standard_normal((t, d))


def test_config_validation():
    with pytest.raises(ValueError):
        ae.AutoencoderConfig(hidden1=4, hidden2=4)
    with pytest.raises(ValueError):
        ae.AutoencoderConfig(hidden1=4, hidden2=8)
    with pytest.raises(ValueError):
        ae.AutoencoderConfig(epochs=0)
    with pytest.raises(ValueError):
        ae.AutoencoderConfig(learning_rate=-1.0)
    cfg = ae.AutoencoderConfig(hidden1=16, hidden2=12)
    with pytest.raises(ValueError):
        cfg.check_undercomplete(t=2, d=5)
    cfg.check_undercomplete(t=64, d=6)


def test_init_param_shapes_and_forget_bias():
    cfg = ae.AutoencoderConfig(hidden1=16, hidden2=12)
    params = ae.init_params(cfg, d=6, seed=0)
    assert params["enc1.Wi"].shape == (16, 6 + 16)
    assert params["enc2.Wg"].shape == (12, 16 + 12)
    assert params["dec1.Wo"].shape == (12, 6 + 12)
    assert params["dec2.Wf"].shape == (16, 12 + 16)
    assert params["out.W"].shape == (6, 16)
    assert params["out.b"].shape == (6,)
    for layer in ("enc1", "enc2", "dec1", "dec2"):
        assert np.all(params[f"{layer}.bf"] == 1.0)
        assert np.all(params[f"{layer}.bi"] == 0.0)
    again = ae.init_params(cfg, d=6, seed=0)
    for key in params:
        assert np.array_equal(params[key], again[key])
    other = ae.init_params(cfg, d=6, seed=1)
    assert not np.array_equal(params["enc1.Wi"], other["enc1.Wi"])


def test_encode_is_pure_and_shapes_hold():
    params = ae.init_params(TINY, d=2, seed=0)
    w = tiny_window()
    v1, _ = ae.encode(params, w, TINY)
    v2, _ = ae.encode(params, w, TINY)
    assert v1.shape == (2,)
    assert np.array_equal(v1, v2)


def test_transform_rows_match_encode():
    params = ae.init_params(TINY, d=2, seed=0)
    windows = np.stack([tiny_window(i) for i in range(5)])
    windows[3] = windows[0]
    ds = windows
    aecs = ae.transform(params, ds, TINY)
    assert aecs.vectors.shape == (5, 2)
    assert np.array_equal(aecs.vectors[0], aecs.vectors[3])
    single = ae.transform(params, windows[:1], TINY)
    assert single.vectors.shape == (1, 2)
    assert np.allclose(single.vectors[0], aecs.vectors[0], rtol=0.0, atol=1e-12)


def test_loss_hand_value():
    recon = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[0.0, 2.0], [3.0, 2.0]])
    assert ae.loss(recon, target) == pytest.approx((1.0 + 0.0 + 0.0 + 4.0) / 4.0)
    with pytest.raises(ValueError):
        ae.loss(recon, target[:1])


def test_gradient_matches_finite_differences():
    params = ae.init_params(TINY, d=2, seed=0)
    worst = ae.gradient_check(params, tiny_window(), TINY)
    assert worst < 1e-4


def test_zero_case_passes_by_convention():
    params = ae.init_params(TINY, d=2, seed=0)
    for key in params:
        params[key] = np.zeros_like(params[key])
    worst = ae.gradient_check(params, np.zeros((5, 2)), TINY)
    assert worst < 1e-4


def test_corrupted_gradient_fails_check():
    params = ae.init_params(TINY, d=2, seed=0)
    window = tiny_window()
    batch = window[None]
    _, caches = ae._forward(params, batch, TINY)
    analytic = ae._backward(params, caches, TINY)
    numeric = ae.finite_difference_gradients(params, batch, TINY)
    analytic["enc1.Wg"] = analytic["enc1.Wg"] * 2.0
    worst = 0.0
    for key in params:
        ga = analytic[key].reshape(-1)
        gn = numeric[key].reshape(-1)
        rel = np.abs(ga - gn) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        worst = max(worst, float(rel.max()))
    assert worst > 1e-4


def test_zero_learning_rate_keeps_params():
    cfg = ae.AutoencoderConfig(hidden1=3, hidden2=2, learning_rate=0.0, epochs=1, batch_size=4)
    params = ae.init_params(cfg, d=2, seed=0)
    before = copy.deepcopy(params)
    state = ae.AdamState.for_params(params)
    batch = np.stack([tiny_window(i) for i in range(4)])
    ae.train_step(params, batch, state, cfg)
    for key in params:
        assert np.array_equal(params[key], before[key])


def test_single_example_step_decreases_loss():
    cfg = ae.AutoencoderConfig(hidden1=3, hidden2=2, learning_rate=1e-3, epochs=1, batch_size=1)
    params = ae.init_params(cfg, d=2, seed=1)
    batch = tiny_window(3)[None]
    before, _ = ae._forward(params, batch, cfg)
    state = ae.AdamState.for_params(params)
    ae.train_step(params, batch, state, cfg)
    after, _ = ae._forward(params, batch, cfg)
    assert after < before


def test_divergence_raises():
    params = ae.init_params(TINY, d=2, seed=0)
    params["enc1.Wi"] = params["enc1.Wi"] + np.nan
    with pytest.raises(DivergenceError):
        ae.encode(params, tiny_window(), TINY)


def test_divergent_training_step_raises():
    cfg = ae.AutoencoderConfig(hidden1=3, hidden2=2, epochs=1, batch_size=2)
    params = ae.init_params(cfg, d=2, seed=0)
    params["enc2.Wg"] = params["enc2.Wg"] + np.nan
    state = ae.AdamState.for_params(params)
    batch = np.stack([tiny_window(i) for i in range(2)])
    with pytest.raises(DivergenceError):
        ae.train_step(params, batch, state, cfg)


def make_dataset(m=40, t=16, d=2, seed=0):
    spec = SyntheticSpec(frequencies=(1.0, 2.7), amplitudes=(1.0, 1.0),
                         noise_sigmas=(0.1, 0.1), class_effect_signs=(1, -1),
                         windows_per_class=m // 4, t=t, d=d, C=2, seed=seed)
    ds, _ = generate_synthetic(spec)
    return ds


def test_fit_reduces_loss():
    ds = make_dataset()
    cfg = ae.AutoencoderConfig(hidden1=6, hidden2=3, epochs=30, batch_size=8,
                               learning_rate=5e-3, seed=0)
    _, report = ae.fit(ds, cfg)
    assert report.train_losses[-1] < 0.5 * report.train_losses[0]


def test_fit_is_deterministic():
    ds = make_dataset()
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2, epochs=3, batch_size=8, seed=5)
    params_a, report_a = ae.fit(ds, cfg)
    params_b, report_b = ae.fit(ds, cfg)
    assert report_a.train_losses == report_b.train_losses
    assert report_a.val_losses == report_b.val_losses
    for key in params_a:
        assert np.array_equal(params_a[key], params_b[key])


def test_fit_one_epoch_one_loss_entry():
    ds = make_dataset(m=16)
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2, epochs=1, batch_size=16, seed=0)
    _, report = ae.fit(ds, cfg)
    assert len(report.train_losses) == 1
    assert report.n_train + report.n_val == ds.n_windows


def test_fit_early_stop_returns_best():
    ds = make_dataset()
    cfg = ae.AutoencoderConfig(hidden1=5, hidden2=2, epochs=40, batch_size=8,
                               early_stop_patience=3, seed=2)
    _, report = ae.fit(ds, cfg)
    assert report.best_val_loss == min(report.val_losses)
    assert report.stopped_epoch <= 40


def test_model_round_trip(tmp_path):
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2)
    params = ae.init_params(cfg, d=3, seed=7)
    path = tmp_path / "model.bin"
    ae.save_model(path, params, cfg, d=3)
    loaded, loaded_cfg, d = ae.load_model(path)
    assert d == 3
    assert loaded_cfg == cfg
    for key in params:
        assert np.array_equal(params[key], loaded[key])
    assert ae.model_id(params, cfg, 3) == ae.model_id(loaded, loaded_cfg, d)


def test_model_digest_detects_corruption(tmp_path):
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2)
    params = ae.init_params(cfg, d=3, seed=7)
    path = tmp_path / "model.bin"
    ae.save_model(path, params, cfg, d=3)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        ae.load_model(path)


def test_model_id_changes_with_weights():
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2)
    a = ae.init_params(cfg, d=3, seed=0)
    b = ae.init_params(cfg, d=3, seed=1)
    assert ae.model_id(a, cfg, 3) != ae.model_id(b, cfg, 3)


def test_decode_shape():
    params = ae.init_params(TINY, d=2, seed=0)
    vec, _ = ae.encode(params, tiny_window(), TINY)
    recon = ae.decode(params, vec, t=5, config=TINY)
    assert recon.shape == (5, 2)


def test_sigmoid_matches_mask_split_bit_for_bit():
    rng = seeded_rng(derive_seed(0, "sigmoid-oracle"))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e-300,
               1e-17, -1e-17, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2, 800.0, -800.0]
    x = np.concatenate([special, rng.standard_normal(2000) * 10, rng.uniform(-800, 800, 2000)])
    for dtype in (np.float64, np.longdouble):
        for arr in (x.astype(dtype), x.astype(dtype)[:4011].reshape(21, 191)[:, 3:97]):
            fast, naive = ae._sigmoid(arr), naive_sigmoid(arr)
            assert fast.dtype == naive.dtype == dtype
            assert np.array_equal(fast, naive, equal_nan=True)
            numbers = ~np.isnan(arr)
            assert np.array_equal(np.signbit(fast[numbers]), np.signbit(naive[numbers]))


@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 40.0, 400.0])
def test_cells_match_reference_bit_for_bit(scale):
    rng = seeded_rng(derive_seed(0, "cell-oracle", repr(scale)))
    pre = []
    for _ in range(8):
        batch, n, din = (int(v) for v in rng.integers(1, 40, size=3))
        w = rng.standard_normal((4 * n, din + n)) * scale
        b = rng.standard_normal(4 * n) * scale
        w[::3] = 0.0  # every third unit's pre-activation is its bias: 0.0 or -0.0
        b[::3] = np.where(rng.random(b[::3].shape) < 0.5, 0.0, -0.0)
        x = rng.standard_normal((batch, din))
        h_prev = rng.standard_normal((batch, n))
        c_prev = 3.0 * rng.standard_normal((batch, n))
        pre.append((np.concatenate([x, h_prev], axis=1) @ w.T + b).ravel())
        h, c, cache = ae._cell_forward(w, b, x, h_prev, c_prev)
        h_ref, c_ref, cache_ref = naive_cell_forward(w, b, x, h_prev, c_prev)
        dh = rng.standard_normal((batch, n))
        dc = rng.standard_normal((batch, n))
        dw, db = rng.standard_normal(w.shape), rng.standard_normal(b.shape)
        dw_ref, db_ref = dw.copy(), db.copy()
        dz, dc_prev = ae._cell_backward(w, cache, dh, dc, dw, db)
        dz_ref, dc_prev_ref = naive_cell_backward(w, cache_ref, dh, dc, dw_ref, db_ref)
        for got, want in ((h, h_ref), (c, c_ref), (dz, dz_ref), (dc_prev, dc_prev_ref),
                          (dw, dw_ref), (db, db_ref)):
            assert np.array_equal(got, want)
    pre = np.abs(np.concatenate(pre))
    assert np.any(pre == 0.0)
    if scale < 1.0:
        assert 0.0 < pre[pre > 0].max() < 1e-6
    if scale > 100.0:
        assert pre.max() > 700.0


def test_fit_through_reference_cells_gives_same_model(monkeypatch):
    ds = make_dataset(m=40, t=12, d=3)
    cfg = ae.AutoencoderConfig(hidden1=5, hidden2=3, epochs=2, batch_size=8, seed=4)
    fast_params, fast_report = ae.fit(ds, cfg)
    monkeypatch.setattr(ae, "_sigmoid", naive_sigmoid)
    monkeypatch.setattr(ae, "_cell_forward", naive_cell_forward)
    monkeypatch.setattr(ae, "_cell_backward", naive_cell_backward)
    ref_params, ref_report = ae.fit(ds, cfg)
    assert ref_report.train_losses == fast_report.train_losses
    assert ae.model_id(ref_params, cfg, 3) == ae.model_id(fast_params, cfg, 3)


def test_fit_logs_one_line_per_epoch(caplog):
    ds = make_dataset(m=16)
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2, epochs=3, batch_size=8, seed=0)
    with caplog.at_level(logging.INFO, logger="tsgroups.autoencoder"):
        _, report = ae.fit(ds, cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "tsgroups.autoencoder"]
    assert len(lines) == report.stopped_epoch == 3
    assert lines[0].startswith("epoch 1/3: train loss ")
    assert "val loss" in lines[-1] and "early stop" in lines[-1]
