"""Seq-2-seq undercomplete LSTM autoencoder, implemented from scratch.

Two stacked LSTM layers (16 then 12 units by default) encode a window;
the final hidden state of the second layer is the compact representation
used everywhere downstream. A mirrored two-layer decoder, fed its own
previous output frame, reconstructs the window in original time order.
Forward, full backpropagation through time, and the Adam update are all
plain numpy, verified against central finite differences.

Training is mixed precision: each step runs the forward pass and BPTT in
float32 on float32 working weights, and Adam updates float64 master
weights with the gradient cast back to float64. The validation loss,
``transform``, the saved model and its digest are float64. Every
parameter array is a view into one float64 buffer, so Adam, gradient
clipping and the best-epoch snapshot each work on one array. A parameter
layer has one (4n, in + n) weight matrix with the gate rows in the order
i, f, o, g, and one bias. ``tests/reference.py`` keeps the batch-major,
gate-by-gate model as the oracle.

The passes run on working weights loaded from the parameters for each
pass: one (4n, in + n + 1) matrix per LSTM layer, its gate rows in the
order g, i, f, o and its bias as the last column, against a constant 1
as the last input row. A step's input z = [x_t; h_{t-1}; 1] then takes
one GEMM. The forward copy negates the sigmoid rows, so the GEMM gives -a
there: one tanh covers the g slab and one exp the three sigmoid slabs,
σ(a) = 1 / (1 + exp(-a)), which saturates to exactly 0 where exp
overflows. State runs feature-major, one column per window, and the
GEMM is computed as z.T @ w.T, so a window's floats do not depend on its
position in the batch.

The two encoder layers run as one wavefront layer of hidden1 + hidden2
units (Appleyard et al., arXiv:1604.01946): fused step s runs layer 1 at
step s and layer 2 at step s - 1, with block weights that are zero where
layer 1 meets h2 and layer 2 meets x, so a window of t steps takes t + 1
fused steps. The decoder cannot be fused, since each frame feeds the
next step.

Every buffer a pass writes lives in a ``Workspace``; ``fit`` makes one
and reuses it for every step. For backprop each layer keeps its z,
gates, c and tanh(c) for every step, about 6.9 MiB in float32 at 64
windows of 64 x 6 with the default widths. The backward pass writes the
factors each step needs over those buffers, then each step's gate
gradient over its factors, and forms each layer's weight and bias
gradient after its loop, as GEMMs over all steps. The validation loss,
``transform`` and the finite-difference audit in ``tests/reference.py``
share the same encoder and decoder passes, rolling through two slots per
layer and keeping no step; ``transform`` encodes the whole set at once.
These passes compute in a different order from the per-cell passes
before them, so trained weights and representations differ from those
in the last bits.

``model.bin`` is a ``SavedModel`` record (config, channel count ``d``,
the parameter buffer as ``weights``, ``model_id``), an archive like the
datasets'.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np
import numpy.typing as npt

from .rng import derive_seed, seeded_rng
from .storage import load_tensor_record, save_tensor_record
from .types import AecsMatrix, DivergenceError, WindowedDataset

logger = logging.getLogger(__name__)

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


# The working rows of each LSTM layer run g, i, f, o: the tanh slab, then the
# three sigmoid slabs as one block. Entry k is the working slab of the
# parameters' gate k (parameter rows run i, f, o, g).
_WORK_SLAB = (1, 2, 3, 0)


def _work_shapes(d: int, hidden1: int, hidden2: int) -> dict[str, tuple[int, int]]:
    """Shape of each working weight matrix, in the order they fill the working buffer.

    Each LSTM layer is (4n, in + n + 1), its bias the last column; ``enc`` is
    the two encoder layers as one layer of hidden1 + hidden2 units, and
    ``out`` the output layer with its bias column.
    """
    n = hidden1 + hidden2
    return {"enc": (4 * n, d + n + 1), "dec1": (4 * hidden2, d + hidden2 + 1),
            "dec2": (4 * hidden1, hidden2 + hidden1 + 1), "out": (d, hidden1 + 1)}


@functools.lru_cache(maxsize=8)
def _work_layout(d: int, hidden1: int, hidden2: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each parameter sits in the working buffer, and each working entry's scale.

    The first array gives, for each entry of the parameter buffer, its
    offset in the working buffer. No parameter maps to the fused encoder's
    cross blocks (layer 1 on h2, layer 2 on x), which stay zero. The scale
    is -1 on the sigmoid rows, which the forward pass negates, and 1
    elsewhere. Both arrays are read-only.
    """
    shapes = _work_shapes(d, hidden1, hidden2)
    size = sum(math.prod(s) for s in shapes.values())
    work = _views(np.arange(size), shapes)
    pos = _zeros(param_shapes(d, hidden1, hidden2), np.intp)
    placement = {"enc1": ("enc", 0, 0), "enc2": ("enc", hidden1, d),
                 "dec1": ("dec1", 0, 0), "dec2": ("dec2", 0, 0)}
    for layer, (din, n) in _layer_dims(d, hidden1, hidden2).items():
        target, unit, col = placement[layer]
        slab = shapes[target][0] // 4
        rows = np.concatenate([k * slab + unit + np.arange(n) for k in _WORK_SLAB])
        pos[f"{layer}.W"][...] = work[target][rows, col:col + din + n]
        pos[f"{layer}.b"][...] = work[target][rows, -1]
    pos["out.W"][...] = work["out"][:, :-1]
    pos["out.b"][...] = work["out"][:, -1]
    scale = _views(np.ones(size), shapes)
    for target in ("enc", "dec1", "dec2"):
        scale[target][shapes[target][0] // 4:] = -1.0
    pos_flat, scale_flat = _buffer(pos), _buffer(scale)
    pos_flat.flags.writeable = scale_flat.flags.writeable = False
    return pos_flat, scale_flat


def _dims(params: dict[str, np.ndarray]) -> tuple[int, int, int]:
    """(d, hidden1, hidden2) of a parameter set."""
    return params["out.W"].shape[0], params["out.W"].shape[1], params["enc2.b"].size // 4


def _load_weights(params: dict[str, np.ndarray], weights: np.ndarray, forward: np.ndarray) -> None:
    """Write the parameters into flat working buffers of the passes' dtype.

    ``weights`` gets them as they are, for backprop; ``forward`` the same
    with every sigmoid row negated, for the forward pass, so a step's GEMM
    gives exactly -a on those rows and exp(-a) takes no extra call.
    """
    d, hidden1, hidden2 = _dims(params)
    pos, scale = _work_layout(d, hidden1, hidden2)
    weights[pos] = np.concatenate([params[key].ravel() for key in param_shapes(d, hidden1, hidden2)])
    np.multiply(weights, scale, out=forward)


def _cell_shapes(din: int, n: int, keep: int, batch: int) -> dict[str, tuple[int, ...]]:
    """Buffers of an LSTM layer that keeps ``keep`` steps: z and c hold one slot more."""
    return {"z": (keep + 1, din + n + 1, batch), "act": (keep, 4 * n, batch),
            "c": (keep + 1, n, batch), "tc": (keep, n, batch), "rows": (batch, 4 * n)}


class _Cells:
    """One LSTM layer's buffers over a pass, feature-major: column j of each slot is window j.

    ``z[t]`` is step t's input [x_t; h_{t-1}; 1], and step t writes h_t into
    ``z[t + 1]`` and c_t into ``c[t + 1]``. ``act[t]`` holds the gates in the
    order g, i, f, o, and ``tc[t]`` tanh(c_t). Every index is taken modulo
    its array's length, so a pass that keeps each step for backprop and a
    rolling pass, with two z and c slots and one act and tc slot, run the
    same steps. ``rows`` takes the step's GEMM, one row per window.
    """

    def __init__(self, din: int, n: int, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """``arrays`` holds the buffers of ``_cell_shapes``, each key led by ``prefix``."""
        self.n = n
        self.z, self.act, self.c, self.tc, self.rows = (
            arrays[prefix + key] for key in ("z", "act", "c", "tc", "rows"))
        self.rows_t = self.rows.T
        self.x, self.h = self.z[:, :din], self.z[:, din:din + n]
        self.slots, self.kept = len(self.z), len(self.act)

    def start(self) -> None:
        """Set the bias inputs to 1 and h_{-1} and c_{-1} to 0."""
        self.z[:, -1] = 1.0
        self.h[0] = 0.0
        self.c[0] = 0.0

    def step(self, w_t: np.ndarray, t: int) -> None:
        """Step t, with ``w_t`` the transposed forward working weights (sigmoid rows negated).

        The GEMM is computed as z.T @ w.T, with the batch on BLAS's N side,
        where a window's floats do not depend on its position in the batch;
        ``w @ z`` would put it on the M side. The g slab's tanh and the
        sigmoid slabs' exp(-a) each read their rows of that GEMM transposed,
        so they also write the feature-major gates. exp(-a) overflows to inf
        below a = -88.7 in float32 (-709.8 in float64), where 1 / (1 + inf)
        is exactly 0; the passes run under ``np.errstate(over="ignore")``.
        """
        n = self.n
        act = self.act[t % self.kept]
        np.matmul(self.z[t % self.slots].T, w_t, out=self.rows)
        np.tanh(self.rows_t[:n], out=act[:n])
        sig = act[n:]
        np.exp(self.rows_t[n:], out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        c = self.c[(t + 1) % self.slots]
        tc = self.tc[t % self.kept]
        np.multiply(act[2 * n:3 * n], self.c[t % self.slots], out=c)
        np.multiply(act[n:2 * n], act[:n], out=tc)
        c += tc
        np.tanh(c, out=tc)
        np.multiply(act[3 * n:], tc, out=self.h[(t + 1) % self.slots])

    def factors(self) -> None:
        """Turn the kept forward values into the factors each backward step needs.

        Over all steps at once: the g, i, f slabs become i(1 - g²),
        g·i(1 - i) and c_prev·f(1 - f), the o slab o(1 - tanh²c), ``tc``
        tanh(c)·o(1 - o), and ``c[t]`` becomes f_t. Each 1 - s is formed
        first, so a gate near 1 keeps its relative precision.
        """
        n, steps = self.n, self.kept
        g, i, f, o = (self.act[:, k * n:(k + 1) * n] for k in range(4))
        tc, c_prev = self.tc, self.c[:steps]
        tmp = np.subtract(1.0, o)
        tmp *= o
        tmp *= tc
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        o *= tc
        np.copyto(tc, tmp)
        np.subtract(1.0, i, out=tmp)
        tmp *= i
        tmp *= g
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i
        np.copyto(i, tmp)
        np.subtract(1.0, f, out=tmp)
        tmp *= f
        tmp *= c_prev
        np.copyto(c_prev, f)
        np.copyto(f, tmp)

    def back(self, w_t: np.ndarray, t: int, dh: np.ndarray, dc: np.ndarray,
             dct: np.ndarray, dz: np.ndarray) -> None:
        """Backprop step t after ``factors``: da over ``act[t]``, dz into ``dz``, dc_prev into ``dc``.

        ``w_t`` is the transposed working weights as the parameters hold them.
        """
        n = self.n
        act = self.act[t]
        np.multiply(dh, act[3 * n:], out=dct)
        dct += dc
        gif = act[:3 * n].reshape(3, n, -1)
        np.multiply(gif, dct, out=gif)
        np.multiply(dh, self.tc[t], out=act[3 * n:])
        np.matmul(w_t, act, out=dz)
        np.multiply(dct, self.c[t], out=dc)

    def weight_grad(self, dw: np.ndarray) -> None:
        """The weight and bias gradient over every kept step, into ``dw``."""
        _sum_outer(self.act, self.z[:self.kept], dw)


def _sum_outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out`` = the sum over t of a[t] @ b[t].T, 16 steps at a time to bound the temporary."""
    out[...] = 0.0
    for lo in range(0, len(a), 16):
        out += np.matmul(a[lo:lo + 16], b[lo:lo + 16].transpose(0, 2, 1)).sum(axis=0)


def _pass_shapes(d: int, hidden1: int, hidden2: int, t_len: int, batch: int,
                 backprop: bool) -> dict[str, tuple[int, ...]]:
    """Every buffer of one pass over ``batch`` windows, keyed "<layer>.<buffer>"."""
    layers = {"enc": (d, hidden1 + hidden2, t_len + 1), "dec1": (d, hidden2, t_len),
              "dec2": (hidden2, hidden1, t_len)}
    shapes: dict[str, tuple[int, ...]] = {"recon": (batch, t_len, d)}
    for layer, (din, n, steps) in layers.items():
        cells = _cell_shapes(din, n, steps if backprop else 1, batch)
        if backprop:
            cells.update(dz=(din + n + 1, batch), dc=(n, batch), dct=(n, batch))
        shapes.update({f"{layer}.{key}": shape for key, shape in cells.items()})
    if backprop:
        shapes.update({"dy": (t_len, d, batch), "dec1.dh": (hidden2, batch), "dec2.dh": (hidden1, batch)})
    return shapes


class Workspace:
    """Every buffer the passes write, for batches of up to ``batch`` (t, d) windows of one dtype.

    ``fit`` makes one and every ``train_step`` reuses it. With ``backprop``
    each layer keeps all its steps for BPTT, and the backward pass writes
    its factors and then da over them; without, each layer rolls through
    two slots. One flat buffer holds it all, and a smaller batch uses views
    of its head.
    """

    def __init__(self, d: int, hidden1: int, hidden2: int, t_len: int, batch: int,
                 dtype: np.dtype, backprop: bool = True) -> None:
        self.dims, self.t_len, self.batch = (d, hidden1, hidden2), t_len, batch
        self.dtype, self.backprop = np.dtype(dtype), backprop
        shapes = _work_shapes(d, hidden1, hidden2)
        self.weights, self.forward = _zeros(shapes, dtype), _zeros(shapes, dtype)
        self.grads = _zeros(shapes, dtype)
        size = sum(math.prod(s) for s in _pass_shapes(*self.dims, t_len, batch, backprop).values())
        self._flat = np.zeros(size, dtype)
        self._passes: dict[int, dict] = {}

    @classmethod
    def for_windows(cls, params: dict[str, np.ndarray], x: np.ndarray,
                    backprop: bool = True) -> "Workspace":
        """A workspace for the (B, t, d) windows ``x`` and ``params``, in the dtype of ``x``."""
        d, hidden1, hidden2 = _dims(params)
        return cls(d, hidden1, hidden2, x.shape[1], x.shape[0], x.dtype, backprop)

    def load(self, params: dict[str, np.ndarray]) -> None:
        """Load ``params`` into the working weights, in the workspace's dtype."""
        if _dims(params) != self.dims:
            raise ValueError(f"parameters of (d, hidden1, hidden2) = {_dims(params)} do not fit "
                             f"a workspace for {self.dims}")
        _load_weights(params, _buffer(self.weights), _buffer(self.forward))

    def views(self, x: np.ndarray) -> dict:
        """The buffers for a pass over ``x``: each layer's ``_Cells`` and the arrays of ``_pass_shapes``."""
        batch = x.shape[0]
        if x.shape[1:] != (self.t_len, self.dims[0]) or x.dtype != self.dtype or not 1 <= batch <= self.batch:
            raise ValueError(f"workspace holds up to {self.batch} windows of shape "
                             f"{(self.t_len, self.dims[0])} in {self.dtype}, got {x.shape} in {x.dtype}")
        if batch not in self._passes:
            shapes = _pass_shapes(*self.dims, self.t_len, batch, self.backprop)
            arrays = _views(self._flat, shapes)
            d, hidden1, hidden2 = self.dims
            for layer, din, n in (("enc", d, hidden1 + hidden2), ("dec1", d, hidden2), ("dec2", hidden2, hidden1)):
                arrays[layer] = _Cells(din, n, arrays, prefix=f"{layer}.")
            self._passes[batch] = arrays
        return self._passes[batch]


def _encode(w: np.ndarray, x: np.ndarray, enc: _Cells, hidden1: int) -> np.ndarray:
    """Run both encoder layers over (B, t, d) windows as one wavefront layer; returns the (h2, B) AECS.

    Fused step s runs layer 1 at step s and layer 2 at step s - 1, on the
    input [x_s; h1_{s-1}; h2_{s-2}; 1], which is exactly what step s - 1
    wrote. ``w`` is the fused forward working weights, zero where layer 1
    meets h2 and layer 2 meets x. Step 0's layer 2 and step t's layer 1 are
    outside the model: h2 and c2 are zeroed after step 0, and step t's x
    is zero. The AECS is layer 2's last hidden state.
    """
    t_len = x.shape[1]
    w_t = w.T
    enc.start()
    enc.x[t_len % enc.slots] = 0.0
    with np.errstate(over="ignore"):
        for s in range(t_len + 1):
            if s < t_len:
                enc.x[s % enc.slots] = x[:, s].T
            enc.step(w_t, s)
            if s == 0:
                enc.h[1, hidden1:] = 0.0
                enc.c[1, hidden1:] = 0.0
    return enc.h[(t_len + 1) % enc.slots, hidden1:]


def _decode(w: dict[str, np.ndarray], aecs: np.ndarray, dec1: _Cells, dec2: _Cells,
            recon: np.ndarray) -> None:
    """Unroll the decoder from the (h2, B) AECS into ``recon`` (B, t, d), feeding each frame back in.

    Layer 1 starts from h = AECS and a zero frame. Its h_t is copied into
    layer 2's input, and the output layer's frame into layer 1's next input.
    """
    w1_t, w2_t, out_t = w["dec1"].T, w["dec2"].T, w["out"].T
    n2 = dec1.n
    dec1.start()
    dec2.start()
    dec1.x[0] = 0.0
    dec1.h[0] = aecs
    with np.errstate(over="ignore"):
        for t in range(recon.shape[1]):
            dec1.step(w1_t, t)
            np.copyto(dec2.x[t % dec2.slots], dec1.h[(t + 1) % dec1.slots])
            dec2.step(w2_t, t)
            frame = recon[:, t]
            np.matmul(dec2.z[(t + 1) % dec2.slots, n2:].T, out_t, out=frame)
            np.copyto(dec1.x[(t + 1) % dec1.slots], frame.T)


def _reconstruction_loss(params: dict[str, np.ndarray], x: np.ndarray,
                         workspace: Workspace | None = None) -> tuple[np.floating, np.ndarray]:
    """Reconstruction MSE of (B, t, d) windows in the dtype of ``x``, and the reconstruction.

    With a ``workspace`` made for backprop the passes keep every step there
    for ``_backward``. Without one they roll through two slots per layer and
    keep no step.
    """
    if workspace is None:
        workspace = Workspace.for_windows(params, x, backprop=False)
    workspace.load(params)
    v = workspace.views(x)
    w = workspace.forward
    aecs = _encode(w["enc"], x, v["enc"], workspace.dims[1])
    _decode(w, aecs, v["dec1"], v["dec2"], v["recon"])
    diff = v["recon"] - x
    return np.mean(diff * diff), v["recon"]


def _backward(workspace: Workspace, x: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the batch MSE for every parameter, as views of one buffer.

    Runs after ``_reconstruction_loss(params, x, workspace)`` and uses what
    it kept. Each step makes about six numpy calls; each layer's weight and
    bias gradient is one GEMM over all steps after its loop.
    """
    if not workspace.backprop:
        raise ValueError("the workspace keeps no steps to backprop through")
    v = workspace.views(x)
    d, hidden1, hidden2 = workspace.dims
    w, grads = workspace.weights, workspace.grads
    enc, dec1, dec2, recon, dy = v["enc"], v["dec1"], v["dec2"], v["recon"], v["dy"]
    np.subtract(recon.transpose(1, 2, 0), x.transpose(1, 2, 0), out=dy)
    dy *= 2.0
    dy /= recon.size
    dec1.factors()
    dec2.factors()
    dz1, dz2, dh1, dh2 = v["dec1.dz"], v["dec2.dz"], v["dec1.dh"], v["dec2.dh"]
    for arr in (dz1, dz2, v["dec1.dc"], v["dec2.dc"]):
        arr[...] = 0.0
    w1_t, w2_t, out_h = w["dec1"].T, w["dec2"].T, w["out"][:, :hidden1].T
    for t in range(x.shape[1] - 1, -1, -1):
        dy_t = dy[t]
        dy_t += dz1[:d]  # frame t is layer 1's input at step t + 1
        np.matmul(out_h, dy_t, out=dh2)
        dh2 += dz2[hidden2:hidden2 + hidden1]
        dec2.back(w2_t, t, dh2, v["dec2.dc"], v["dec2.dct"], dz2)
        np.add(dz1[d:d + hidden2], dz2[:hidden2], out=dh1)
        dec1.back(w1_t, t, dh1, v["dec1.dc"], v["dec1.dct"], dz1)
    frames = dec2.z[1:x.shape[1] + 1, hidden2:]
    _sum_outer(dy, frames, grads["out"])
    dec1.weight_grad(grads["dec1"])
    dec2.weight_grad(grads["dec2"])

    # Fused step t gets layer 2's last dh, the AECS gradient; layer 1's h_t is unused.
    enc.factors()
    dz, dc = v["enc.dz"], v["enc.dc"]
    dz[...] = 0.0
    dc[...] = 0.0
    dh = dz[d:d + hidden1 + hidden2]
    dh[hidden1:] = dz1[d:d + hidden2]
    w_t = w["enc"].T
    for s in range(x.shape[1], -1, -1):
        if s == 0:  # step 0's layer 2 is outside the model
            dh[hidden1:] = 0.0
            dc[hidden1:] = 0.0
        enc.back(w_t, s, dh, dc, v["enc.dct"], dz)
    enc.weight_grad(grads["enc"])
    pos, _ = _work_layout(d, hidden1, hidden2)
    return _views(_buffer(grads)[pos], param_shapes(d, hidden1, hidden2))


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
    """Scale a flat gradient in place so its norm is at most max_norm; returns the norm before.

    A gradient whose norm is not finite is left as it is.
    """
    norm = float(np.sqrt(np.dot(grad, grad)))
    if max_norm < norm < math.inf:
        grad *= max_norm / norm
    return norm


def train_step(params: dict[str, np.ndarray], batch: np.ndarray, state: AdamState,
               config: AutoencoderConfig, workspace: Workspace | None = None) -> float:
    """One forward/backward/Adam update on a batch; mutates params and state.

    The forward pass and BPTT run in float32, on the batch as float32 and
    on float32 working weights loaded from the float64 parameter buffer for
    this step. The gradient is cast back to float64 for clipping and Adam,
    which update the float64 buffer and moments. ``workspace`` is a float32
    ``Workspace`` with backprop that fits the batch; without one, the step
    makes its own. A non-finite loss or gradient norm raises
    ``DivergenceError`` before ``params`` or ``state`` change.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ValueError(f"batch must be nonempty (B, t, d), got shape {batch.shape}")
    flat = _buffer(params)
    if workspace is None:
        workspace = Workspace.for_windows(params, batch)
    value, _ = _reconstruction_loss(params, batch, workspace)
    if not np.isfinite(value):
        raise DivergenceError(f"training loss diverged to {value} at step {state.step + 1}")
    grad = _buffer(_backward(workspace, batch)).astype(np.float64)
    norm = clip_global_norm(grad)
    if not math.isfinite(norm):
        raise DivergenceError(f"gradient norm diverged to {norm} at step {state.step + 1}")

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
    float32 once, for ``train_step``, and one ``Workspace`` serves every
    step; the validation MSE that picks the best epoch is taken in float64.
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
    workspace = Workspace(d, config.hidden1, config.hidden2, t_len,
                          min(config.batch_size, len(x_train)), np.float32)
    stale = 0
    epochs_run = 0
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        order = shuffle_rng.permutation(len(x_train))
        total, seen = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            batch = x_train[order[lo:lo + config.batch_size]]
            batch_loss = train_step(params, batch, state, config, workspace)
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


def transform(params: dict[str, np.ndarray], dataset: WindowedDataset | np.ndarray) -> AecsMatrix:
    """Encode every window in one pass; row i of the result represents window i."""
    x = dataset.windows if isinstance(dataset, WindowedDataset) else np.asarray(dataset, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (M, t, d) windows, got shape {x.shape}")
    d_expected = params["out.W"].shape[0]
    if x.shape[2] != d_expected:
        raise ValueError(f"model expects {d_expected} channels, dataset has {x.shape[2]}")
    _, hidden1, hidden2 = _dims(params)
    shapes = _work_shapes(d_expected, hidden1, hidden2)
    weights, forward = _zeros(shapes, x.dtype), _zeros(shapes, x.dtype)
    _load_weights(params, _buffer(weights), _buffer(forward))
    n = hidden1 + hidden2
    enc = _Cells(d_expected, n, _zeros(_cell_shapes(d_expected, n, 1, x.shape[0]), x.dtype))
    vectors = _encode(forward["enc"], x, enc, hidden1).copy().T
    if not np.all(np.isfinite(vectors)):
        raise DivergenceError("encoder produced non-finite representation values")
    return AecsMatrix(vectors)


def model_id(params: dict[str, np.ndarray], config: AutoencoderConfig, d: int) -> str:
    """Stable digest of architecture plus weights."""
    h = hashlib.sha256()
    h.update(json.dumps({"config": asdict(config), "d": d}, sort_keys=True).encode())
    for key in param_shapes(d, config.hidden1, config.hidden2):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key], dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class SavedModel:
    """What ``model.bin`` holds: ``weights`` is the one flat parameter buffer, ``param_shapes`` end to end.

    Beyond its fields' types: a positive ``d``, one weight per parameter, and ``model_id`` the digest of the rest.
    """

    config: AutoencoderConfig
    d: int
    weights: npt.NDArray[np.float64]
    model_id: str

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"model d must be positive, got {self.d}")
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        shapes = param_shapes(self.d, self.config.hidden1, self.config.hidden2)
        if self.weights.shape != (sum(math.prod(s) for s in shapes.values()),):
            raise ValueError(f"model weights have shape {self.weights.shape}, not one per parameter")
        if self.model_id != model_id(self.params, self.config, self.d):
            raise ValueError("model digest mismatch; file corrupted or edited")

    @property
    def params(self) -> dict[str, np.ndarray]:
        return _views(self.weights, param_shapes(self.d, self.config.hidden1, self.config.hidden2))


def save_model(path: str, params: dict[str, np.ndarray], config: AutoencoderConfig, d: int) -> None:
    """Write the model as a ``SavedModel`` archive."""
    weights = np.concatenate([params[key].ravel() for key in param_shapes(d, config.hidden1, config.hidden2)])
    save_tensor_record(path, SavedModel(config, d, weights, model_id(params, config, d)), "weights")


def load_model(path: str) -> SavedModel:
    """Inverse of save_model: the ``SavedModel`` record of ``path``."""
    return load_tensor_record(path, SavedModel, "weights")
