"""Recurrent autoencoder: config, gradients, training, persistence."""

import copy
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from reference import (
    finite_difference_gradients,
    gradient_check,
    naive_autoencoder_loss_and_gradients,
    naive_cell_backward,
    naive_cell_forward,
    worst_relative_gap,
)

from tsgroups import autoencoder as ae
from tsgroups.ingest import SyntheticSpec, generate_synthetic
from tsgroups.rng import derive_seed, seeded_rng
from tsgroups.storage import read_archive, write_archive
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
    for bad in ({"beta1": 1.0}, {"beta1": 1.5}, {"beta1": -0.1}, {"beta2": 1.0},
                {"beta2": -1e-9}, {"adam_epsilon": 0.0}, {"adam_epsilon": -1.0},
                {"early_stop_patience": -1}, {"early_stop_patience": -3}):
        with pytest.raises(ValueError):
            ae.AutoencoderConfig(**bad)
    ae.AutoencoderConfig(beta1=0.0, beta2=0.0, early_stop_patience=0)
    cfg = ae.AutoencoderConfig(hidden1=16, hidden2=12)
    with pytest.raises(ValueError):
        cfg.check_undercomplete(t=2, d=5)
    cfg.check_undercomplete(t=64, d=6)


def test_init_param_shapes_and_forget_bias():
    cfg = ae.AutoencoderConfig(hidden1=16, hidden2=12)
    params = ae.init_params(cfg, d=6, seed=0)
    expected = {"enc1": (16, 6), "enc2": (12, 16), "dec1": (12, 6), "dec2": (16, 12)}
    assert list(params) == [f"{layer}.{p}" for layer in expected for p in "Wb"] + ["out.W", "out.b"]
    for layer, (n, din) in expected.items():
        assert params[f"{layer}.W"].shape == (4 * n, din + n)
        bias = params[f"{layer}.b"]
        assert bias.shape == (4 * n,)
        assert np.all(bias[n:2 * n] == 1.0)  # rows i, f, o, g: only the forget gate starts at 1
        assert np.all(np.delete(bias, np.s_[n:2 * n]) == 0.0)
    assert params["out.W"].shape == (6, 16)
    assert params["out.b"].shape == (6,)
    flat = ae._buffer(params)
    assert flat.size == sum(p.size for p in params.values())
    # The same uniforms as one (n, in + n) block per gate drawn in the order i, f, g, o.
    rng = seeded_rng(derive_seed(0, "init"))
    wi, wf, wg, wo = (rng.uniform(-1 / np.sqrt(22), 1 / np.sqrt(22), size=(16, 22)) for _ in range(4))
    assert np.array_equal(params["enc1.W"], np.concatenate([wi, wf, wo, wg]))
    again = ae.init_params(cfg, d=6, seed=0)
    assert np.array_equal(flat, ae._buffer(again))
    other = ae.init_params(cfg, d=6, seed=1)
    assert not np.array_equal(params["enc1.W"], other["enc1.W"])


def test_encode_is_pure_and_shapes_hold():
    params = ae.init_params(TINY, d=2, seed=0)
    w = tiny_window()
    v1 = ae.transform(params, w[None]).vectors[0]
    v2 = ae.transform(params, w[None]).vectors[0]
    assert v1.shape == (2,)
    assert np.array_equal(v1, v2)


def test_transform_rows_match_encode():
    params = ae.init_params(TINY, d=2, seed=0)
    windows = np.stack([tiny_window(i) for i in range(5)])
    windows[3] = windows[0]
    ds = windows
    aecs = ae.transform(params, ds)
    assert aecs.vectors.shape == (5, 2)
    assert np.array_equal(aecs.vectors[0], aecs.vectors[3])
    single = ae.transform(params, windows[:1])
    assert single.vectors.shape == (1, 2)
    assert np.allclose(single.vectors[0], aecs.vectors[0], rtol=0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    params = ae.init_params(TINY, d=2, seed=0)
    worst = gradient_check(params, tiny_window())
    assert worst < 1e-4


@pytest.mark.parametrize("batch, t, d", [(1, 1, 3), (1, 2, 2), (3, 5, 2)])
def test_gradient_matches_finite_differences_at_the_wavefront_ends(batch, t, d):
    # t = 1 and t = 2 put the fused encoder's first and last steps next to each other; d = 3 at
    # t = 1 keeps TINY undercomplete.
    params = ae.init_params(TINY, d=d, seed=0)
    TINY.check_undercomplete(t, d)
    windows = np.stack([tiny_window(i, t=t, d=d) for i in range(batch)])
    assert gradient_check(params, windows) < 1e-4


def test_zero_case_passes_by_convention():
    params = ae.init_params(TINY, d=2, seed=0)
    for key in params:
        params[key] = np.zeros_like(params[key])
    worst = gradient_check(params, np.zeros((5, 2)))
    assert worst < 1e-4


def test_corrupted_gradient_fails_check():
    params = ae.init_params(TINY, d=2, seed=0)
    window = tiny_window()
    batch = window[None]
    workspace = ae.Workspace.for_windows(params, batch)
    ae._reconstruction_loss(params, batch, workspace)
    analytic = ae._backward(workspace, batch)
    numeric = finite_difference_gradients(params, batch)
    assert worst_relative_gap(analytic, numeric) < 1e-4
    analytic["enc1.W"] = analytic["enc1.W"] * 2.0
    assert worst_relative_gap(analytic, numeric) > 1e-4


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
    before, _ = ae._reconstruction_loss(params, batch)
    state = ae.AdamState.for_params(params)
    ae.train_step(params, batch, state, cfg)
    after, _ = ae._reconstruction_loss(params, batch)
    assert after < before


def test_divergence_raises():
    params = ae.init_params(TINY, d=2, seed=0)
    params["enc1.W"] += np.nan
    with pytest.raises(DivergenceError):
        ae.transform(params, tiny_window()[None])


def test_divergent_training_step_raises():
    cfg = ae.AutoencoderConfig(hidden1=3, hidden2=2, epochs=1, batch_size=2)
    params = ae.init_params(cfg, d=2, seed=0)
    params["enc2.W"] += np.nan
    state = ae.AdamState.for_params(params)
    batch = np.stack([tiny_window(i) for i in range(2)])
    with pytest.raises(DivergenceError):
        ae.train_step(params, batch, state, cfg)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_gradient_fails_at_its_step(monkeypatch, bad):
    cfg = ae.AutoencoderConfig(hidden1=3, hidden2=2, epochs=1, batch_size=2)
    params = ae.init_params(cfg, d=2, seed=0)
    state = ae.AdamState.for_params(params)
    batch = np.stack([tiny_window(i) for i in range(2)])
    ae.train_step(params, batch, state, cfg)
    before, m, v = ae._buffer(params).copy(), state.m.copy(), state.v.copy()
    backward = ae._backward

    def poisoned(workspace, x):
        grads = backward(workspace, x)
        grads["dec2.W"][0, 0] = bad
        return grads

    monkeypatch.setattr(ae, "_backward", poisoned)
    with pytest.raises(DivergenceError, match=f"gradient norm diverged to {bad} at step 2"):
        ae.train_step(params, batch, state, cfg)
    assert state.step == 1
    assert np.array_equal(ae._buffer(params), before)
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


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
    loaded = ae.load_model(path)
    assert loaded.d == 3
    assert loaded.config == cfg
    for key in params:
        assert np.array_equal(params[key], loaded.params[key])
    assert loaded.model_id == ae.model_id(params, cfg, 3)


def test_model_digest_detects_corruption(tmp_path):
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2)
    params = ae.init_params(cfg, d=3, seed=7)
    path = tmp_path / "model.bin"
    ae.save_model(path, params, cfg, d=3)
    entries = read_archive(path)
    weights = np.frombuffer(entries["weights.f8"], dtype="<f8").copy()
    weights[5] += 1.0
    write_archive(path, {**entries, "weights.f8": weights.tobytes()})
    with pytest.raises(ValueError, match="digest mismatch"):
        ae.load_model(path)


def test_model_header_takes_no_true_for_a_number(tmp_path):
    # The digest matches, so only the header's type rule can refuse these files.
    path = tmp_path / "model.bin"
    for name, kind in (("epochs", "int"), ("learning_rate", "float")):
        cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2, **{name: True})
        ae.save_model(path, ae.init_params(cfg, d=3, seed=7), cfg, d=3)
        with pytest.raises(ValueError, match=f"{name} must be {kind}, got True"):
            ae.load_model(path)


def test_model_id_changes_with_weights():
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2)
    a = ae.init_params(cfg, d=3, seed=0)
    b = ae.init_params(cfg, d=3, seed=1)
    assert ae.model_id(a, cfg, 3) != ae.model_id(b, cfg, 3)


def _as_dtype(params, dtype):
    """The parameters rounded to ``dtype`` and held in float64, as ``train_step`` loads them."""
    return ae._views(ae._buffer(params).astype(dtype).astype(np.float64),
                     {key: p.shape for key, p in params.items()})


# (batch, t): t = 1 and t = 2 are the fused encoder's boundary cases, at odd batch sizes,
# with TINY widths so that hidden2 < t * d.
MODEL_CASES = pytest.mark.parametrize("batch, t", [(1, 20), (5, 20), (64, 20), (3, 1), (7, 2)],
                                      ids=["1", "5", "64", "3-t1", "7-t2"])


def _model_and_reference(batch, t, dtype):
    """Loss and gradients of the passes in ``dtype``, and of the float64 oracle on the same inputs."""
    cfg = ae.AutoencoderConfig() if t >= 20 else TINY
    cfg.check_undercomplete(t, 6)
    params = ae.init_params(cfg, d=6, seed=4)
    labels = ("model-oracle",) if t == 20 else ("model-oracle", str(t))
    rng = seeded_rng(derive_seed(batch, *labels))
    if t < 20:
        # Nonzero g biases give the fused encoder's out-of-model steps nonzero h and c to discard.
        ae._buffer(params)[...] += 0.5 * rng.standard_normal(ae._buffer(params).size)
    params = _as_dtype(params, dtype)
    x = rng.standard_normal((batch, t, 6)).astype(dtype)
    workspace = ae.Workspace.for_windows(params, x)
    loss, _ = ae._reconstruction_loss(params, x, workspace)
    grads = ae._backward(workspace, x)
    ref_loss, ref_grads = naive_autoencoder_loss_and_gradients(params, x.astype(np.float64))
    return loss, grads, ref_loss, ref_grads


@MODEL_CASES
def test_loss_and_gradients_match_reference_model(batch, t):
    loss, grads, ref_loss, ref_grads = _model_and_reference(batch, t, np.float64)
    assert abs(loss - ref_loss) <= 1e-12 * ref_loss
    for key, ref in ref_grads.items():
        scale = np.max(np.abs(ref))
        assert scale > 0.0, key
        assert np.max(np.abs(grads[key] - ref)) <= 1e-10 * scale, key


@MODEL_CASES
def test_float32_passes_match_reference_model(batch, t):
    loss, grads, ref_loss, ref_grads = _model_and_reference(batch, t, np.float32)
    assert abs(float(loss) - ref_loss) <= 1e-6 * ref_loss
    for key, ref in ref_grads.items():
        scale = np.max(np.abs(ref))
        assert scale > 0.0, key
        assert np.max(np.abs(grads[key] - ref)) <= 1e-5 * scale, key


def _workspace_arrays(workspace, x):
    """Every buffer of ``workspace``, with the views and cells of its pass over ``x``."""
    arrays = [workspace._flat, *workspace.weights.values(), *workspace.forward.values(),
              *workspace.grads.values()]
    for value in workspace.views(x).values():
        arrays.extend(vars(value).values() if isinstance(value, ae._Cells) else [value])
    return [a for a in arrays if isinstance(a, np.ndarray)]


def test_float32_passes_stay_float32():
    # A float64 buffer or scalar would widen a step's arithmetic, and writes with out= round it
    # back into the float32 buffers unseen, so every buffer and every returned array is checked.
    params = ae.init_params(ae.AutoencoderConfig(hidden1=5, hidden2=3), d=3, seed=2)
    x = seeded_rng(derive_seed(0, "float32-contract")).standard_normal((4, 7, 3)).astype(np.float32)
    workspace = ae.Workspace.for_windows(params, x)
    loss, recon = ae._reconstruction_loss(params, x, workspace)
    grads = ae._backward(workspace, x)
    arrays = _workspace_arrays(workspace, x)
    assert len(arrays) > 40
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert loss.dtype == np.float32
    assert recon.dtype == np.float32
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
    assert ae._buffer(params).dtype == np.float64


def test_training_keeps_float64_master_weights():
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2, epochs=2, batch_size=8, seed=0)
    params = ae.init_params(cfg, d=2, seed=0)
    state = ae.AdamState.for_params(params)
    ae.train_step(params, np.stack([tiny_window(i) for i in range(4)]), state, cfg)
    assert ae._buffer(params).dtype == np.float64
    assert state.m.dtype == np.float64 and state.v.dtype == np.float64
    assert np.any(state.m != 0.0)

    ds = make_dataset(m=16)
    fitted, _ = ae.fit(ds, cfg)
    assert all(p.dtype == np.float64 for p in fitted.values())
    assert ae.transform(fitted, ds).vectors.dtype == np.float64


def _one_step(w, b, x, h_prev, c_prev, dh, dc):
    """One LSTM step and its backprop through ``_Cells``, batch-major in and out.

    Returns h, c, dz (over [x, h_prev]), dc_prev, dW, db and the step's gates (rows g, i, f, o).
    """
    n, din = h_prev.shape[1], x.shape[1]
    cells = ae._Cells(din, n, ae._zeros(ae._cell_shapes(din, n, 1, x.shape[0])))
    order = np.r_[3 * n:4 * n, 0:3 * n]  # parameter rows i, f, o, g to working rows g, i, f, o
    work = np.concatenate([w, b[:, None]], axis=1)[order]
    forward = work.copy()
    forward[n:] *= -1.0
    cells.start()
    cells.x[0], cells.h[0], cells.c[0] = x.T, h_prev.T, c_prev.T
    with np.errstate(over="ignore"):  # as the passes run it
        cells.step(forward.T, 0)
    h, c, gates = cells.h[1].T.copy(), cells.c[1].T.copy(), cells.act[0].copy()
    cells.factors()
    dz, dc_prev, dct = np.empty((din + n + 1, len(x))), dc.T.copy(), np.empty((n, len(x)))
    cells.back(work.T, 0, dh.T.copy(), dc_prev, dct, dz)
    dwork = np.empty_like(work)
    cells.weight_grad(dwork)
    dwork[order] = dwork.copy()
    return h, c, dz[:din + n].T, dc_prev.T, dwork[:, :-1], dwork[:, -1], gates


@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 40.0, 400.0])
def test_cells_match_reference(scale):
    rng = seeded_rng(derive_seed(0, "cell-oracle", repr(scale)))
    pre = []
    for _ in range(8):
        batch, n, din = (int(v) for v in rng.integers(1, 40, size=3))
        w = rng.standard_normal((4 * n, din + n)) * scale
        b = rng.standard_normal(4 * n) * scale
        x = rng.standard_normal((batch, din))
        h_prev = rng.standard_normal((batch, n))
        c_prev = 3.0 * rng.standard_normal((batch, n))
        pre.append((np.concatenate([x, h_prev], axis=1) @ w.T + b).ravel())
        dh = rng.standard_normal((batch, n))
        dc = rng.standard_normal((batch, n))
        dw, db = rng.standard_normal(w.shape), rng.standard_normal(b.shape)
        h, c, dz, dc_prev, step_dw, step_db, _ = _one_step(w, b, x, h_prev, c_prev, dh, dc)
        h_ref, c_ref, cache_ref = naive_cell_forward(w, b, x, h_prev, c_prev)
        dw_ref, db_ref = dw.copy(), db.copy()
        dz_ref, dc_prev_ref = naive_cell_backward(w, cache_ref, dh, dc, dw_ref, db_ref)
        for got, want in ((h, h_ref), (c, c_ref), (dz, dz_ref), (dc_prev, dc_prev_ref),
                          (dw + step_dw, dw_ref), (db + step_db, db_ref)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    pre = np.abs(np.concatenate(pre))
    if scale < 1.0:
        assert 0.0 < pre.max() < 1e-6
    if scale > 100.0:
        # Far into saturation: tanh(a / 2) rounds to exactly ±1, so the sigmoid gates are exactly
        # 0 or 1, where a logistic through exp(-a) would overflow.
        assert pre.max() > 745.2


def test_saturated_gates_are_exact_and_silent():
    rng = seeded_rng(derive_seed(0, "saturated-gates"))
    n, din, batch = 4, 3, 7
    w = np.zeros((4 * n, din + n))
    b = np.where(np.arange(4 * n) % 2 == 0, 1000.0, -1000.0)
    x, h_prev, c_prev, dh, dc = (rng.standard_normal((batch, k)) for k in (din, n, n, n, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *arrays, gates = _one_step(w, b, x, h_prev, c_prev, dh, dc)
    order = np.r_[3 * n:4 * n, 0:3 * n]
    want = np.where(np.arange(4 * n) < n, np.sign(b[order]), (b[order] > 0).astype(float))
    assert np.array_equal(gates, np.repeat(want[:, None], batch, axis=1))
    for arr in arrays:
        assert np.all(np.isfinite(arr))

    # exp(-a) overflows to inf at a = -1000 in both dtypes, and 1 / (1 + inf) is exactly 0; the
    # passes keep that overflow silent from the training step to transform.
    params = ae.init_params(TINY, d=2, seed=0)
    for layer in ("enc1", "enc2", "dec1", "dec2"):
        params[f"{layer}.b"][...] = np.where(np.arange(params[f"{layer}.b"].size) % 2 == 0, 1000.0, -1000.0)
    windows = np.stack([tiny_window(i) for i in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dtype in (np.float32, np.float64):
            xs = windows.astype(dtype)
            workspace = ae.Workspace.for_windows(params, xs)
            loss, _ = ae._reconstruction_loss(params, xs, workspace)
            enc = workspace.views(xs)["enc"]
            sig = enc.act[:, enc.n:]  # the fused encoder's i, f, o slabs, before backprop overwrites them
            assert sig.size > 0 and np.all((sig == 0.0) | (sig == 1.0))
            grads = ae._backward(workspace, xs)
            assert np.isfinite(loss) and np.all(np.isfinite(ae._buffer(grads)))
        assert np.all(np.isfinite(ae.transform(params, windows).vectors))


@pytest.mark.parametrize("batch", [9, 17, 65, 300])
def test_identical_windows_encode_identically_at_every_batch_position(batch):
    cfg = ae.AutoencoderConfig()
    params = ae.init_params(cfg, d=6, seed=0)
    window = seeded_rng(derive_seed(batch, "batch-position")).standard_normal((64, 6))
    vectors = ae.transform(params, np.repeat(window[None], batch, axis=0)).vectors
    assert np.array_equal(vectors, np.repeat(vectors[:1], batch, axis=0))


def test_fit_logs_one_line_per_epoch(caplog):
    ds = make_dataset(m=16)
    cfg = ae.AutoencoderConfig(hidden1=4, hidden2=2, epochs=3, batch_size=8, seed=0)
    with caplog.at_level(logging.INFO, logger="tsgroups.autoencoder"):
        _, report = ae.fit(ds, cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "tsgroups.autoencoder"]
    assert len(lines) == report.stopped_epoch == 3
    assert lines[0].startswith("epoch 1/3: train loss ")
    assert "val loss" in lines[-1] and "early stop" in lines[-1]


def test_transform_row_does_not_depend_on_its_neighbours():
    # 257 = 256 + 1: a chunked encoder would see the last window alone.
    params = ae.init_params(ae.AutoencoderConfig(), d=6, seed=0)
    x = seeded_rng(derive_seed(0, "transform-prefix")).standard_normal((300, 64, 6))
    head = ae.transform(params, x[:257]).vectors
    assert np.array_equal(head, ae.transform(params, x).vectors[:257])


def test_cache_filling_pass_gives_same_loss():
    cfg = ae.AutoencoderConfig(hidden1=5, hidden2=3)
    params = ae.init_params(cfg, d=3, seed=2)
    x = seeded_rng(derive_seed(0, "cached-loss")).standard_normal((9, 11, 3))
    workspace = ae.Workspace.for_windows(params, x)
    cached, cached_recon = ae._reconstruction_loss(params, x, workspace)
    free, free_recon = ae._reconstruction_loss(params, x)
    assert cached == free
    assert np.array_equal(cached_recon, free_recon)
    # The fused encoder keeps t + 1 steps, each decoder layer t.
    cells = workspace.views(x)
    assert [cells[layer].act.shape[0] for layer in ("enc", "dec1", "dec2")] == [12, 11, 11]


def test_wide_loss_keeps_the_reconstruction_wide():
    # The finite-difference audit evaluates in longdouble; no frame may round to float64.
    params = {key: p.astype(np.longdouble) for key, p in ae.init_params(TINY, d=2, seed=1).items()}
    x = tiny_window(seed=1)[None].astype(np.longdouble)
    loss, recon = ae._reconstruction_loss(params, x)
    assert loss.dtype == np.longdouble
    assert recon.dtype == np.longdouble


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_transform_keeps_no_step_caches():
    cfg = ae.AutoencoderConfig()
    params = ae.init_params(cfg, d=6, seed=0)
    x = seeded_rng(derive_seed(0, "transform-memory")).standard_normal((1024, 64, 6))
    # The input alone is 3 MiB; one cache per step and layer would be ~60 MiB.
    assert _peak_mib(lambda: ae.transform(params, x)) < 16.0


def test_validation_loss_keeps_no_step_caches():
    params = ae.init_params(ae.AutoencoderConfig(), d=6, seed=0)
    x_val = seeded_rng(derive_seed(0, "val-memory")).standard_normal((270, 64, 6))
    assert _peak_mib(lambda: ae._reconstruction_loss(params, x_val)) < 8.0


def test_train_step_holds_one_workspace():
    # The float32 workspace keeps every step of the three layers, about 6.9 MiB here; a step
    # without one makes its own. One cache per step and layer kept beside it would not fit.
    cfg = ae.AutoencoderConfig()
    params = ae.init_params(cfg, d=6, seed=0)
    state = ae.AdamState.for_params(params)
    batch = seeded_rng(derive_seed(0, "step-memory")).standard_normal((64, 64, 6)).astype(np.float32)
    assert _peak_mib(lambda: ae.train_step(params, batch, state, cfg)) <= 8.0
