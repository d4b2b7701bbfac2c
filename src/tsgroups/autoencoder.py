"""Seq-2-seq undercomplete LSTM autoencoder, implemented from scratch.

Two stacked LSTM layers (16 then 12 units by default) encode a window;
the final hidden state of the second layer is the compact representation
used everywhere downstream. A mirrored two-layer decoder, fed its own
previous output frame, reconstructs the window in original time order.
Forward, full backpropagation through time, and the Adam update are all
plain numpy, verified against central finite differences.

Training is mixed precision: each step runs the forward pass and BPTT in
float32 on a float32 copy of the weights, and Adam updates float64
master weights with the gradient cast back to float64. The validation
loss, ``transform``, the saved model and its digest are float64.

The state runs feature-major: hidden state, cell state and gates are
(n, B) arrays, one column per window. Each layer has one (4n, in + n)
weight matrix and one bias, with the gate rows in the order i, f, o, g,
so one logistic call covers the three sigmoid gates and one tanh call
the g slab. Every parameter array is a view into one float64 buffer, so
Adam, gradient clipping and the best-epoch snapshot each work on one
array. ``tests/reference.py`` keeps the batch-major, gate-by-gate model
as the oracle.

There is one encoder pass and one decoder pass, shared by training, the
validation loss, ``transform`` and the finite-difference audit in
``tests/reference.py``. Each computes in the dtype of the windows it is
given. A pass keeps per-step cell caches only when its caller hands it
lists to fill, which only backprop needs; ``transform`` encodes the
whole set at once, so a window's vector does not depend on the other
windows beside it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .rng import derive_seed, seeded_rng
from .storage import atomic_open, check_field_types
from .types import AecsMatrix, DivergenceError, WindowedDataset

logger = logging.getLogger(__name__)

MODEL_FORMAT = "lstm-autoencoder-v2"
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


def _layer_dims(d: int, hidden1: int, hidden2: int) -> dict[str, tuple[int, int]]:
    """(input width, hidden width) of each LSTM layer, in stack order."""
    return {
        "enc1": (d, hidden1),
        "enc2": (hidden1, hidden2),
        "dec1": (d, hidden2),
        "dec2": (hidden2, hidden1),
    }


def param_shapes(d: int, hidden1: int, hidden2: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter array, in the order they fill the buffer.

    Each LSTM layer has a weight ``W`` of shape (4n, in + n), gate rows in
    the order i, f, o, g, and a bias ``b`` of length 4n.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for layer, (din, n) in _layer_dims(d, hidden1, hidden2).items():
        shapes[f"{layer}.W"] = (4 * n, din + n)
        shapes[f"{layer}.b"] = (4 * n,)
    shapes["out.W"] = (d, hidden1)
    shapes["out.b"] = (d,)
    return shapes


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Arrays of the given shapes laid end to end over the 1-D buffer ``flat``."""
    arrays, offset = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        arrays[key] = flat[offset:offset + size].reshape(shape)
        offset += size
    return arrays


def _zeros(shapes: dict[str, tuple[int, ...]], dtype: np.dtype = np.float64) -> dict[str, np.ndarray]:
    return _views(np.zeros(sum(math.prod(s) for s in shapes.values()), dtype), shapes)


def _buffer(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The one buffer that every array in ``arrays`` views."""
    flat = next(iter(arrays.values())).base
    if flat is None or any(a.base is not flat for a in arrays.values()):
        raise ValueError("parameters must be views of one buffer, as init_params returns them")
    return flat


def init_params(config: AutoencoderConfig, d: int, seed: int | None = None) -> dict[str, np.ndarray]:
    """Scaled-uniform weights, zero biases except forget-gate bias of 1.

    Each layer draws its four gate blocks in the order i, f, g, o, as the
    per-gate model format v1 did, so the weights are the same numbers
    restacked as rows i, f, o, g.
    """
    if d < 1:
        raise ValueError(f"channel count must be positive, got {d}")
    rng = seeded_rng(derive_seed(config.seed if seed is None else seed, "init"))
    params = _zeros(param_shapes(d, config.hidden1, config.hidden2))
    for layer, (din, n) in _layer_dims(d, config.hidden1, config.hidden2).items():
        scale = 1.0 / np.sqrt(din + n)
        drawn = rng.uniform(-scale, scale, size=(4, n, din + n))
        params[f"{layer}.W"][...] = drawn[[0, 1, 3, 2]].reshape(4 * n, din + n)
        params[f"{layer}.b"][n:2 * n] = 1.0
    scale = 1.0 / np.sqrt(config.hidden1)
    params["out.W"][...] = rng.uniform(-scale, scale, size=(d, config.hidden1))
    return params


def _cell_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray, h_prev: np.ndarray,
                  c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One LSTM step over (features, B) columns; returns (h, c, cache for backprop).

    The pre-activation is computed as (z.T @ w.T).T, with the batch on
    BLAS's N side; ``w @ z`` puts it on the M side, where a column's floats
    depend on its position in the batch. One copy makes it a contiguous
    (4n, B) array, whose i, f, o slab takes the logistic and g slab the
    tanh in place, so ``act`` holds all four gates.
    """
    n = h_prev.shape[0]
    z = np.concatenate([x, h_prev])
    act = np.add((z.T @ w.T).T, b[:, None], order="C")
    s = act[:3 * n]
    np.negative(s, out=s)
    with np.errstate(over="ignore"):  # exp(-a) = inf below a = -709.78, and 1 / (1 + inf) = 0
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    np.tanh(act[3 * n:], out=act[3 * n:])
    i, f, o, g = act[:n], act[n:2 * n], act[2 * n:3 * n], act[3 * n:]
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return o * tc, c, (z, act, c_prev, tc)


def _cell_backward(w: np.ndarray, cache: tuple, dh: np.ndarray, dc: np.ndarray,
                   dw: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop one step; accumulates dw/db in place, returns (dz, dc_prev)."""
    z, act, c_prev, tc = cache
    n = tc.shape[0]
    i, f, o, g = act[:n], act[n:2 * n], act[2 * n:3 * n], act[3 * n:]
    dc_total = dh * o
    dc_total *= 1.0 - tc * tc
    dc_total += dc
    da = np.empty_like(act)
    np.multiply(dc_total, g, out=da[:n])
    np.multiply(dc_total, c_prev, out=da[n:2 * n])
    np.multiply(dh, tc, out=da[2 * n:3 * n])
    np.multiply(dc_total, i, out=da[3 * n:])
    # Sigmoid gates: d * s * (1 - s); tanh gate: d * (1 - g * g).
    s = act[:3 * n]
    da[:3 * n] *= s
    da[:3 * n] *= 1.0 - s
    da[3 * n:] *= 1.0 - g * g
    dw += da @ z.T
    db += da.sum(axis=1)
    return w.T @ da, dc_total * f


def _encoder_forward(params: dict[str, np.ndarray], x: np.ndarray,
                     caches: tuple[list, list] | None = None) -> np.ndarray:
    """Run both encoder layers over (B, t, d) windows; returns the AECS as (h2, B) columns.

    The AECS is layer 2's final hidden state. ``caches``, when given, is a
    pair of lists that receive each step's layer-1 and layer-2 cell caches.
    """
    w1, b1 = params["enc1.W"], params["enc1.b"]
    w2, b2 = params["enc2.W"], params["enc2.b"]
    batch = x.shape[0]
    h1, c1 = np.zeros((2, b1.size // 4, batch), x.dtype)
    h2, c2 = np.zeros((2, b2.size // 4, batch), x.dtype)
    for t in range(x.shape[1]):
        h1, c1, cache1 = _cell_forward(w1, b1, x[:, t].T, h1, c1)
        h2, c2, cache2 = _cell_forward(w2, b2, h1, h2, c2)
        if caches is not None:
            caches[0].append(cache1)
            caches[1].append(cache2)
    return h2


def _decoder_forward(params: dict[str, np.ndarray], aecs: np.ndarray, t_len: int,
                     caches: tuple[list, list, list] | None = None) -> np.ndarray:
    """Unroll the decoder from (h2, B) AECS columns for t_len steps, feeding each frame back in.

    Returns the (B, t_len, d) reconstruction. ``caches``, when given, is
    three lists that receive each step's layer-1 and layer-2 cell caches
    and layer 2's hidden state (the output layer's input).
    """
    w1, b1 = params["dec1.W"], params["dec1.b"]
    w2, b2 = params["dec2.W"], params["dec2.b"]
    w_out, b_out = params["out.W"], params["out.b"]
    batch, d = aecs.shape[1], b_out.size
    h1, c1 = aecs, np.zeros_like(aecs)
    h2, c2 = np.zeros((2, b2.size // 4, batch), aecs.dtype)
    y_prev = np.zeros((d, batch), aecs.dtype)
    recon = np.empty((batch, t_len, d), dtype=aecs.dtype)
    for t in range(t_len):
        h1, c1, cache1 = _cell_forward(w1, b1, y_prev, h1, c1)
        h2, c2, cache2 = _cell_forward(w2, b2, h1, h2, c2)
        recon[:, t] = h2.T @ w_out.T + b_out
        y_prev = recon[:, t].T
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
    """Gradients of the batch MSE for every parameter, as views of one buffer."""
    enc1, enc2, dec1, dec2, dec_h2 = caches
    batch, t_len, d = x.shape
    grads = _zeros({key: p.shape for key, p in params.items()}, x.dtype)
    w_out = params["out.W"]
    h1n, h2n = params["enc1.b"].size // 4, params["enc2.b"].size // 4

    def cell(layer: str, cache: tuple, dh: np.ndarray, dc: np.ndarray):
        return _cell_backward(params[f"{layer}.W"], cache, dh, dc,
                              grads[f"{layer}.W"], grads[f"{layer}.b"])

    dy_loss = 2.0 * (recon - x) / recon.size
    du_next = np.zeros((d, batch), x.dtype)
    dh1, dc1 = np.zeros((2, h2n, batch), x.dtype)
    dh2, dc2 = np.zeros((2, h1n, batch), x.dtype)
    for t in range(t_len - 1, -1, -1):
        dy = dy_loss[:, t].T + du_next
        grads["out.W"] += dy @ dec_h2[t].T
        grads["out.b"] += dy.sum(axis=1)
        dz2, dc2 = cell("dec2", dec2[t], w_out.T @ dy + dh2, dc2)
        dh2 = dz2[h2n:]
        dz1, dc1 = cell("dec1", dec1[t], dz2[:h2n] + dh1, dc1)
        du_next, dh1 = dz1[:d], dz1[d:]

    # dh1 is now the gradient of the AECS, layer 2's final hidden state.
    dh2, dc2 = dh1, np.zeros_like(dh1)
    dh1, dc1 = np.zeros((2, h1n, batch), x.dtype)
    for t in range(t_len - 1, -1, -1):
        dz2, dc2 = cell("enc2", enc2[t], dh2, dc2)
        dh2 = dz2[h1n:]
        dz1, dc1 = cell("enc1", enc1[t], dz2[:h1n] + dh1, dc1)
        dh1 = dz1[d:]
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, flat like the parameter buffer, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        size = _buffer(params).size
        return cls(m=np.zeros(size), v=np.zeros(size))


def clip_global_norm(grad: np.ndarray, max_norm: float = GRAD_CLIP_NORM) -> float:
    """Scale a flat gradient in place so its norm is at most max_norm; returns the norm before."""
    norm = float(np.sqrt(np.dot(grad, grad)))
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


def train_step(params: dict[str, np.ndarray], batch: np.ndarray, state: AdamState,
               config: AutoencoderConfig) -> float:
    """One forward/backward/Adam update on a batch; mutates params and state.

    The forward pass and BPTT run in float32, on the batch as float32 and
    on a float32 copy of the float64 parameter buffer made for this step.
    The gradient is cast back to float64 for clipping and Adam, which
    update the float64 buffer and moments.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValueError(f"batch must be nonempty (B, t, d), got shape {batch.shape}")
    flat = _buffer(params)
    work = _views(flat.astype(np.float32), {key: p.shape for key, p in params.items()})
    caches: tuple[list, ...] = ([], [], [], [], [])
    value, recon = _reconstruction_loss(work, batch, caches)
    if not np.isfinite(value):
        raise DivergenceError(f"training loss diverged to {value} at step {state.step + 1}")
    grad = _buffer(_backward(work, batch, recon, caches)).astype(np.float64)
    clip_global_norm(grad)

    state.step += 1
    lr, b1, b2, eps = config.learning_rate, config.beta1, config.beta2, config.adam_epsilon
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * (grad * grad)
    m_hat = state.m / (1.0 - b1 ** state.step)
    v_hat = state.v / (1.0 - b2 ** state.step)
    flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return float(value)


def fit(dataset: WindowedDataset | np.ndarray,
        config: AutoencoderConfig) -> tuple[dict[str, np.ndarray], TrainReport]:
    """Train with shuffled mini-batches; early-stop on a held-out tenth.

    Returns the parameters from the epoch with the best validation MSE
    along with the full loss trace. The training windows are converted to
    float32 once, for ``train_step``; the validation MSE that picks the
    best epoch is taken in float64.
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
    x_train, x_val = x[train_idx].astype(np.float32), x[val_idx]

    params = init_params(config, d)
    flat = _buffer(params)
    state = AdamState.for_params(params)
    shuffle_rng = seeded_rng(derive_seed(config.seed, "fit", "shuffle"))

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best = flat.copy()
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
            best[:] = flat
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
    return _views(best, param_shapes(d, config.hidden1, config.hidden2)), report


def transform(params: dict[str, np.ndarray], dataset: WindowedDataset | np.ndarray,
              config: AutoencoderConfig) -> AecsMatrix:
    """Encode every window in one pass; row i of the result represents window i."""
    x = dataset.windows if isinstance(dataset, WindowedDataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (M, t, d) windows, got shape {x.shape}")
    d_expected = params["out.W"].shape[0]
    if x.shape[2] != d_expected:
        raise ValueError(f"model expects {d_expected} channels, dataset has {x.shape[2]}")
    vectors = _encoder_forward(params, x).T
    if not np.all(np.isfinite(vectors)):
        raise DivergenceError("encoder produced non-finite representation values")
    return AecsMatrix(vectors=vectors, source_model_id=model_id(params, config, d_expected))


def model_id(params: dict[str, np.ndarray], config: AutoencoderConfig, d: int) -> str:
    """Stable digest of architecture plus weights."""
    h = hashlib.sha256()
    h.update(json.dumps({"config": asdict(config), "d": d}, sort_keys=True).encode())
    for key in param_shapes(d, config.hidden1, config.hidden2):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key], dtype="<f8").tobytes())
    return h.hexdigest()


def save_model(path: str, params: dict[str, np.ndarray], config: AutoencoderConfig, d: int) -> str:
    """JSON header line plus a little-endian float64 weight blob."""
    shapes = param_shapes(d, config.hidden1, config.hidden2)
    header = {
        "format": MODEL_FORMAT,
        "config": asdict(config),
        "d": d,
        "model_id": model_id(params, config, d),
        "shapes": {k: list(s) for k, s in shapes.items()},
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for key in shapes:
            fh.write(np.ascontiguousarray(params[key], dtype="<f8").tobytes())
    return header["model_id"]


def _header_config(data: object) -> AutoencoderConfig:
    """The config a model header stores: every field present, each of its declared type."""
    names = {f.name for f in fields(AutoencoderConfig)}
    if not isinstance(data, dict) or set(data) != names:
        raise ValueError(f"model header config must be an object with exactly the keys {sorted(names)}")
    try:
        check_field_types(AutoencoderConfig, data)
    except ValueError as exc:
        raise ValueError(f"model header config: {exc}") from None
    return AutoencoderConfig(**data)


def load_model(path: str) -> tuple[dict[str, np.ndarray], AutoencoderConfig, int]:
    """Inverse of save_model; checks every header field and the stored digest.

    Raises ValueError for any file it cannot use, a model format v1 file
    included: v1 stored one weight block per gate and has to be retrained.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = fh.read()
    if not isinstance(header, dict):
        raise ValueError(f"model header must be a JSON object, got {type(header).__name__}")
    if header.get("format") == "lstm-autoencoder-v1":
        raise ValueError("model format v1 (per-gate weights) is no longer read; "
                         "retrain with 'tsgroups train' to write format v2")
    if header.get("format") != MODEL_FORMAT:
        raise ValueError(f"unrecognized model file format: {header.get('format')!r}")
    config = _header_config(header.get("config"))
    d = header.get("d")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"model header d must be a positive integer, got {d!r}")
    shapes = param_shapes(d, config.hidden1, config.hidden2)
    if header.get("shapes") != {k: list(s) for k, s in shapes.items()}:
        raise ValueError("model header shapes do not match its config and d")
    expected = 8 * sum(math.prod(s) for s in shapes.values())
    if len(blob) != expected:
        raise ValueError(f"weight blob has {len(blob)} bytes, expected {expected}")
    params = _views(np.frombuffer(blob, dtype="<f8").astype(np.float64), shapes)
    if header.get("model_id") != model_id(params, config, d):
        raise ValueError("model file digest mismatch; file corrupted or edited")
    return params, config, d
