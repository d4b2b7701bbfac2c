"""Seq-2-seq undercomplete LSTM autoencoder, implemented from scratch.

Two stacked LSTM layers (16 then 12 units by default) encode a window;
the final hidden state of the second layer is the compact representation
used everywhere downstream. A mirrored two-layer decoder, fed its own
previous output frame, reconstructs the window in original time order.
Forward, full backpropagation through time, and the Adam update are all
plain numpy, verified against central finite differences.

Each LSTM step makes one activation call over its whole (B, 4n)
pre-activation, and the logistic function is computed without boolean
masks. Both give the same floats, bit for bit, as one masked two-branch
sigmoid call per gate; ``tests/reference.py`` keeps that form as the
oracle.

There is one encoder pass and one decoder pass, shared by training, the
validation loss, ``transform`` and the finite-difference audit. A pass
keeps per-step cell caches only when its caller hands it lists to fill,
which only backprop needs; ``transform`` encodes the whole set at once,
so a window's vector does not depend on the other windows beside it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .rng import derive_seed, seeded_rng
from .storage import atomic_open
from .types import AecsMatrix, DivergenceError, WindowedDataset

logger = logging.getLogger(__name__)

GATE_NAMES = ("i", "f", "g", "o")
GRAD_CLIP_NORM = 5.0


@dataclass
class AutoencoderConfig:
    """Architecture and optimization settings."""

    hidden1: int = 16
    hidden2: int = 12
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    early_stop_patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ValueError("hidden sizes must be positive")
        if self.hidden2 >= self.hidden1:
            raise ValueError(f"hidden2 ({self.hidden2}) must be smaller than hidden1 ({self.hidden1})")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_epsilon > 0:
            raise ValueError(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.early_stop_patience < 0:
            raise ValueError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")

    def check_undercomplete(self, t: int, d: int) -> None:
        if self.hidden2 >= t * d:
            raise ValueError(
                f"hidden2 ({self.hidden2}) must be smaller than the flattened window size {t}*{d}"
            )


@dataclass
class TrainReport:
    """Loss traces and bookkeeping from one fit run."""

    train_losses: list[float]
    val_losses: list[float]
    stopped_epoch: int
    best_epoch: int
    best_val_loss: float
    final_loss: float
    wall_time_s: float
    n_train: int
    n_val: int

    def to_dict(self) -> dict:
        return asdict(self)


def _layer_dims(d: int, hidden1: int, hidden2: int) -> dict[str, tuple[int, int]]:
    """(input width, hidden width) of each LSTM layer, in stack order."""
    return {
        "enc1": (d, hidden1),
        "enc2": (hidden1, hidden2),
        "dec1": (d, hidden2),
        "dec2": (hidden2, hidden1),
    }


def param_keys(d: int, hidden1: int, hidden2: int) -> list[str]:
    """Canonical ordering of every parameter array in the stack."""
    keys: list[str] = []
    for layer in _layer_dims(d, hidden1, hidden2):
        keys.extend(f"{layer}.W{g}" for g in GATE_NAMES)
        keys.extend(f"{layer}.b{g}" for g in GATE_NAMES)
    keys.extend(["out.W", "out.b"])
    return keys


def init_params(config: AutoencoderConfig, d: int, seed: int | None = None) -> dict[str, np.ndarray]:
    """Scaled-uniform weights, zero biases except forget-gate bias of 1."""
    if d < 1:
        raise ValueError(f"channel count must be positive, got {d}")
    rng = seeded_rng(derive_seed(config.seed if seed is None else seed, "init"))
    params: dict[str, np.ndarray] = {}
    for layer, (din, n) in _layer_dims(d, config.hidden1, config.hidden2).items():
        scale = 1.0 / np.sqrt(din + n)
        for g in GATE_NAMES:
            params[f"{layer}.W{g}"] = rng.uniform(-scale, scale, size=(n, din + n))
        for g in GATE_NAMES:
            bias = np.zeros(n)
            if g == "f":
                bias[:] = 1.0
            params[f"{layer}.b{g}"] = bias
    scale = 1.0 / np.sqrt(config.hidden1)
    params["out.W"] = rng.uniform(-scale, scale, size=(d, config.hidden1))
    params["out.b"] = np.zeros(d)
    return params


def _stacked(params: dict[str, np.ndarray], layer: str) -> tuple[np.ndarray, np.ndarray]:
    w = np.concatenate([params[f"{layer}.W{g}"] for g in GATE_NAMES], axis=0)
    b = np.concatenate([params[f"{layer}.b{g}"] for g in GATE_NAMES])
    return w, b


def _unstack_into(grads: dict[str, np.ndarray], layer: str, dw: np.ndarray, db: np.ndarray) -> None:
    n = dw.shape[0] // 4
    for idx, g in enumerate(GATE_NAMES):
        grads[f"{layer}.W{g}"] = dw[idx * n:(idx + 1) * n]
        grads[f"{layer}.b{g}"] = db[idx * n:(idx + 1) * n]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without masks, in the dtype of ``x``.

    ``exp`` only ever sees ``-|x|``, so it cannot overflow: 1/(1+e^-x) for
    x >= 0 and e^x/(1+e^x) below. Every element goes through exactly the
    operations of the two-branch boolean-mask split, so the result is the
    same bit for bit, at +-0.0 and +-inf too; a NaN stays NaN (only its
    meaningless sign bit may differ).
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _cell_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray, h_prev: np.ndarray,
                  c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step for a batch; returns (h, c, cache for backprop).

    One sigmoid call covers the whole (B, 4n) pre-activation; the g slab
    is then overwritten with its tanh, so ``act`` holds i, f, g, o side
    by side and the cache keeps views of it rather than four arrays.
    """
    n = h_prev.shape[1]
    z = np.concatenate([x, h_prev], axis=1)
    a = z @ w.T
    a += b
    act = _sigmoid(a)
    i, f, g, o = act[:, :n], act[:, n:2 * n], act[:, 2 * n:3 * n], act[:, 3 * n:]
    np.tanh(a[:, 2 * n:3 * n], out=g)
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (z, act, c_prev, tc)


def _cell_backward(w: np.ndarray, cache: tuple, dh: np.ndarray, dc: np.ndarray,
                   dw: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop one step; accumulates dw/db, returns (dz, dc_prev).

    The four gate gradients are written straight into one ``da`` array.
    Each keeps the association of its textbook form, e.g.
    ((dc_total * g) * i) * (1 - i), so the floats do not depend on the
    fusing.
    """
    z, act, c_prev, tc = cache
    n = tc.shape[1]
    i, f, g, o = act[:, :n], act[:, n:2 * n], act[:, 2 * n:3 * n], act[:, 3 * n:]
    dc_total = dh * o
    dc_total *= 1.0 - tc * tc
    dc_total += dc
    da = np.empty_like(act)
    np.multiply(dc_total, g, out=da[:, :n])
    np.multiply(dc_total, c_prev, out=da[:, n:2 * n])
    np.multiply(dc_total, i, out=da[:, 2 * n:3 * n])
    np.multiply(dh, tc, out=da[:, 3 * n:])
    # Sigmoid gates: (d * s) * (1 - s); tanh gate: d * (1 - g * g).
    da[:, :2 * n] *= act[:, :2 * n]
    da[:, 3 * n:] *= o
    slope = 1.0 - act
    np.multiply(g, g, out=slope[:, 2 * n:3 * n])
    np.subtract(1.0, slope[:, 2 * n:3 * n], out=slope[:, 2 * n:3 * n])
    da *= slope
    dw += da.T @ z
    db += da.sum(axis=0)
    return da @ w, dc_total * f


def _encoder_forward(params: dict[str, np.ndarray], x: np.ndarray,
                     caches: tuple[list, list] | None = None) -> np.ndarray:
    """Run both encoder layers over (B, t, d) windows; returns the AECS.

    The AECS is layer 2's final hidden state. ``caches``, when given, is a
    pair of lists that receive each step's layer-1 and layer-2 cell caches.
    """
    w1, b1 = _stacked(params, "enc1")
    w2, b2 = _stacked(params, "enc2")
    batch = x.shape[0]
    h1, c1 = np.zeros((2, batch, w1.shape[0] // 4))
    h2, c2 = np.zeros((2, batch, w2.shape[0] // 4))
    for t in range(x.shape[1]):
        h1, c1, cache1 = _cell_forward(w1, b1, x[:, t], h1, c1)
        h2, c2, cache2 = _cell_forward(w2, b2, h1, h2, c2)
        if caches is not None:
            caches[0].append(cache1)
            caches[1].append(cache2)
    return h2


def _decoder_forward(params: dict[str, np.ndarray], aecs: np.ndarray, t_len: int,
                     caches: tuple[list, list, list] | None = None) -> np.ndarray:
    """Unroll the decoder for t_len steps, feeding each reconstructed frame back in.

    ``caches``, when given, is three lists that receive each step's layer-1
    and layer-2 cell caches and layer 2's hidden state (the output layer's
    input).
    """
    w1, b1 = _stacked(params, "dec1")
    w2, b2 = _stacked(params, "dec2")
    w_out, b_out = params["out.W"], params["out.b"]
    batch, d = aecs.shape[0], w_out.shape[0]
    h1, c1 = aecs, np.zeros(aecs.shape)
    h2, c2 = np.zeros((2, batch, w2.shape[0] // 4))
    y_prev = np.zeros((batch, d))
    recon = np.empty((batch, t_len, d), dtype=aecs.dtype)
    for t in range(t_len):
        h1, c1, cache1 = _cell_forward(w1, b1, y_prev, h1, c1)
        h2, c2, cache2 = _cell_forward(w2, b2, h1, h2, c2)
        y_prev = h2 @ w_out.T + b_out
        recon[:, t] = y_prev
        if caches is not None:
            caches[0].append(cache1)
            caches[1].append(cache2)
            caches[2].append(h2)
    return recon


def _reconstruction_loss(params: dict[str, np.ndarray], x: np.ndarray,
                         caches: tuple[list, ...] | None = None) -> tuple[np.floating, np.ndarray]:
    """Reconstruction MSE of (B, t, d) windows in the dtype of ``x``, and the reconstruction.

    ``caches``, when given, is five empty lists that the two passes fill
    for ``_backward``: the cell caches of enc1, enc2, dec1 and dec2, and
    dec2's hidden states. Without it no step is kept.
    """
    enc, dec = (None, None) if caches is None else (caches[:2], caches[2:])
    recon = _decoder_forward(params, _encoder_forward(params, x, enc), x.shape[1], dec)
    diff = recon - x
    return np.mean(diff * diff), recon


def _backward(params: dict[str, np.ndarray], x: np.ndarray, recon: np.ndarray,
              caches: tuple[list, ...]) -> dict[str, np.ndarray]:
    """Gradients of the batch MSE with respect to every parameter."""
    enc1, enc2, dec1, dec2, dec_h2 = caches
    batch, t_len, d = x.shape
    w_dec1, _ = _stacked(params, "dec1")
    w_dec2, _ = _stacked(params, "dec2")
    w_enc1, _ = _stacked(params, "enc1")
    w_enc2, _ = _stacked(params, "enc2")
    w_out = params["out.W"]
    h1n, h2n = w_enc1.shape[0] // 4, w_enc2.shape[0] // 4

    dw_dec1 = np.zeros_like(w_dec1)
    db_dec1 = np.zeros(4 * h2n)
    dw_dec2 = np.zeros_like(w_dec2)
    db_dec2 = np.zeros(4 * h1n)
    dw_out = np.zeros_like(w_out)
    db_out = np.zeros(d)

    dy_loss = 2.0 * (recon - x) / recon.size

    du_next = np.zeros((batch, d))
    dh1 = np.zeros((batch, h2n))
    dc1 = np.zeros((batch, h2n))
    dh2 = np.zeros((batch, h1n))
    dc2 = np.zeros((batch, h1n))
    for t in range(t_len - 1, -1, -1):
        dy = dy_loss[:, t] + du_next
        dw_out += dy.T @ dec_h2[t]
        db_out += dy.sum(axis=0)
        dh2_t = dy @ w_out + dh2
        dz2, dc2 = _cell_backward(w_dec2, dec2[t], dh2_t, dc2, dw_dec2, db_dec2)
        dh1_t = dz2[:, :h2n] + dh1
        dh2 = dz2[:, h2n:]
        dz1, dc1 = _cell_backward(w_dec1, dec1[t], dh1_t, dc1, dw_dec1, db_dec1)
        du_next = dz1[:, :d]
        dh1 = dz1[:, d:]
    d_aecs = dh1

    dw_enc1 = np.zeros_like(w_enc1)
    db_enc1 = np.zeros(4 * h1n)
    dw_enc2 = np.zeros_like(w_enc2)
    db_enc2 = np.zeros(4 * h2n)

    dh2 = d_aecs
    dc2 = np.zeros((batch, h2n))
    dh1 = np.zeros((batch, h1n))
    dc1 = np.zeros((batch, h1n))
    for t in range(t_len - 1, -1, -1):
        dz2, dc2 = _cell_backward(w_enc2, enc2[t], dh2, dc2, dw_enc2, db_enc2)
        dh1_t = dz2[:, :h1n] + dh1
        dh2 = dz2[:, h1n:]
        dz1, dc1 = _cell_backward(w_enc1, enc1[t], dh1_t, dc1, dw_enc1, db_enc1)
        dh1 = dz1[:, d:]

    grads: dict[str, np.ndarray] = {}
    _unstack_into(grads, "enc1", dw_enc1, db_enc1)
    _unstack_into(grads, "enc2", dw_enc2, db_enc2)
    _unstack_into(grads, "dec1", dw_dec1, db_dec1)
    _unstack_into(grads, "dec2", dw_dec2, db_dec2)
    grads["out.W"] = dw_out
    grads["out.b"] = db_out
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
        )


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float = GRAD_CLIP_NORM) -> float:
    """Scale all gradients in place so their joint norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def train_step(params: dict[str, np.ndarray], batch: np.ndarray, state: AdamState,
               config: AutoencoderConfig) -> float:
    """One forward/backward/Adam update on a batch; mutates params and state."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValueError(f"batch must be nonempty (B, t, d), got shape {batch.shape}")
    caches: tuple[list, ...] = ([], [], [], [], [])
    value, recon = _reconstruction_loss(params, batch, caches)
    if not np.isfinite(value):
        raise DivergenceError(f"training loss diverged to {value} at step {state.step + 1}")
    grads = _backward(params, batch, recon, caches)
    clip_global_norm(grads)

    state.step += 1
    lr, b1, b2, eps = config.learning_rate, config.beta1, config.beta2, config.adam_epsilon
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for key, p in params.items():
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * (g * g)
        m_hat = state.m[key] / bias1
        v_hat = state.v[key] / bias2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return float(value)


def fit(dataset: WindowedDataset | np.ndarray,
        config: AutoencoderConfig) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Train with shuffled mini-batches; early-stop on a held-out tenth.

    Returns the parameters from the epoch with the best validation MSE
    along with the full loss trace.
    """
    x = dataset.windows if isinstance(dataset, WindowedDataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1:
        raise ValueError(f"expected nonempty (M, t, d) windows, got shape {x.shape}")
    m, t_len, d = x.shape
    config.check_undercomplete(t_len, d)

    start = time.perf_counter()
    split_rng = seeded_rng(derive_seed(config.seed, "fit", "val-split"))
    perm = split_rng.permutation(m)
    n_val = int(round(config.val_fraction * m)) if m >= 2 else 0
    if config.val_fraction > 0 and m >= 2:
        n_val = max(1, min(n_val, m - 1))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_train, x_val = x[train_idx], x[val_idx]

    params = init_params(config, d)
    state = AdamState.for_params(params)
    shuffle_rng = seeded_rng(derive_seed(config.seed, "fit", "shuffle"))

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_params = copy.deepcopy(params)
    stale = 0
    epochs_run = 0
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        order = shuffle_rng.permutation(len(x_train))
        total, seen = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            batch = x_train[order[lo:lo + config.batch_size]]
            batch_loss = train_step(params, batch, state, config)
            total += batch_loss * batch.shape[0]
            seen += batch.shape[0]
        epoch_loss = total / seen
        if n_val:
            val_loss = float(_reconstruction_loss(params, x_val)[0])
        else:
            val_loss = epoch_loss
        if not np.isfinite(val_loss):
            raise DivergenceError(f"validation loss diverged to {val_loss} at epoch {epoch + 1}")
        train_losses.append(epoch_loss)
        val_losses.append(val_loss)
        epochs_run = epoch + 1
        improved = val_loss < best_val
        if improved:
            best_val = val_loss
            best_epoch = epochs_run
            best_params = copy.deepcopy(params)
            stale = 0
        else:
            stale += 1
        logger.info("epoch %d/%d: train loss %.6g, val loss %.6g, %.2f s, "
                    "early stop %d/%d", epochs_run, config.epochs, epoch_loss, val_loss,
                    time.perf_counter() - epoch_start, stale, config.early_stop_patience)
        if not improved and stale >= config.early_stop_patience:
            break

    report = TrainReport(
        train_losses=train_losses,
        val_losses=val_losses,
        stopped_epoch=epochs_run,
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        final_loss=train_losses[-1],
        wall_time_s=time.perf_counter() - start,
        n_train=len(train_idx),
        n_val=len(val_idx),
    )
    return best_params, report


def transform(params: dict[str, np.ndarray], dataset: WindowedDataset | np.ndarray,
              config: AutoencoderConfig) -> AecsMatrix:
    """Encode every window in one pass; row i of the result represents window i."""
    x = dataset.windows if isinstance(dataset, WindowedDataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (M, t, d) windows, got shape {x.shape}")
    d_expected = params["out.W"].shape[0]
    if x.shape[2] != d_expected:
        raise ValueError(f"model expects {d_expected} channels, dataset has {x.shape[2]}")
    vectors = _encoder_forward(params, x)
    if not np.all(np.isfinite(vectors)):
        raise DivergenceError("encoder produced non-finite representation values")
    return AecsMatrix(vectors=vectors, source_model_id=model_id(params, config, d_expected))


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


def gradient_check(params: dict[str, np.ndarray], window: np.ndarray,
                   epsilon: float = 1e-5) -> float:
    """Max relative disagreement between analytic and numeric gradients."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 2:
        batch = window[None]
    elif window.ndim == 3:
        batch = window
    else:
        raise ValueError(f"window must be (t, d) or (B, t, d), got shape {window.shape}")
    caches: tuple[list, ...] = ([], [], [], [], [])
    _, recon = _reconstruction_loss(params, batch, caches)
    analytic = _backward(params, batch, recon, caches)
    numeric = finite_difference_gradients(params, batch, epsilon)
    worst = 0.0
    for key in params:
        ga = analytic[key].reshape(-1)
        gn = numeric[key].reshape(-1)
        denom = np.maximum(1e-8, np.abs(ga) + np.abs(gn))
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


def model_id(params: dict[str, np.ndarray], config: AutoencoderConfig, d: int) -> str:
    """Stable digest of architecture plus weights."""
    h = hashlib.sha256()
    h.update(json.dumps({"config": asdict(config), "d": d}, sort_keys=True).encode())
    for key in param_keys(d, config.hidden1, config.hidden2):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key], dtype="<f8").tobytes())
    return h.hexdigest()


def save_model(path: str, params: dict[str, np.ndarray], config: AutoencoderConfig, d: int) -> str:
    """JSON header line plus a little-endian float64 weight blob."""
    keys = param_keys(d, config.hidden1, config.hidden2)
    header = {
        "format": "lstm-autoencoder-v1",
        "config": asdict(config),
        "d": d,
        "model_id": model_id(params, config, d),
        "shapes": {k: list(params[k].shape) for k in keys},
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for key in keys:
            fh.write(np.ascontiguousarray(params[key], dtype="<f8").tobytes())
    return header["model_id"]


def load_model(path: str) -> tuple[dict[str, np.ndarray], AutoencoderConfig, int]:
    """Inverse of save_model; verifies the stored digest."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = fh.read()
    if header.get("format") != "lstm-autoencoder-v1":
        raise ValueError(f"unrecognized model file format: {header.get('format')!r}")
    config = AutoencoderConfig(**header["config"])
    d = int(header["d"])
    params: dict[str, np.ndarray] = {}
    offset = 0
    for key in param_keys(d, config.hidden1, config.hidden2):
        shape = tuple(header["shapes"][key])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        params[key] = arr.astype(np.float64).copy()
        offset += count * 8
    if offset != len(blob):
        raise ValueError(f"weight blob has {len(blob)} bytes, expected {offset}")
    stored = header.get("model_id")
    actual = model_id(params, config, d)
    if stored != actual:
        raise ValueError("model file digest mismatch; file corrupted or edited")
    return params, config, d
