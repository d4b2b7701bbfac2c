"""Raw IMU ingestion: session parsing, windowing, splitting, synthesis.

Sessions come from a driving-behavior corpus laid out as one directory
per recording, holding a whitespace-separated accelerometer text file.
Six channels are kept: the Kalman-filtered acceleration triple plus
roll, pitch, and yaw. Windows never cross session boundaries and carry
their session's behavior as the class label.
"""

from __future__ import annotations

import itertools
import logging
import operator
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import sliding_window_view

from .rng import derive_seed, seeded_rng
from .storage import FieldError
from .types import WindowedDataset, WindowMeta

logger = logging.getLogger(__name__)

CLASS_NAMES = ("NORMAL", "AGGRESSIVE", "DROWSY")
ROAD_NAMES = ("MOTORWAY", "SECONDARY")
DEFAULT_WINDOW_LEN = 64
DEFAULT_OVERLAP = 0.5
DEFAULT_TRAIN_FRACTION = 0.8
ACCELEROMETER_FILENAME = "RAW_ACCELEROMETERS.txt"
# Lines per np.loadtxt call: big enough to amortise the call, small enough
# that a session's lines are never all alive at once. A block the C reader
# refuses (a short line, or a mapped token such as ``1_0`` or a non-ASCII
# digit that it will not read) is halved and retried; a refused block of at
# most PARSE_FLOOR_LINES lines goes to the per-line path, which splits each
# line in Python and parses each token as ``float()`` does. Both paths give
# every accepted token the value ``float()`` gives it.
PARSE_BLOCK_LINES = 512
PARSE_FLOOR_LINES = 16


@dataclass(frozen=True)
class ColumnMap:
    """0-based column indices into the raw accelerometer text file.

    The published layout puts the Kalman-filtered acceleration triple in
    columns 5..7 with roll/pitch/yaw right after; override for corpus
    versions that move columns around.
    """

    timestamp: int = 0
    acc_x: int = 5
    acc_y: int = 6
    acc_z: int = 7
    roll: int = 8
    pitch: int = 9
    yaw: int = 10

    def __post_init__(self) -> None:
        for f in fields(self):
            index = getattr(self, f.name)
            if isinstance(index, bool) or not isinstance(index, int) or index < 0:
                raise ValueError(f"column {f.name} must be a non-negative int, got {index!r}")

    def channel_indices(self) -> tuple[int, ...]:
        return (self.acc_x, self.acc_y, self.acc_z, self.roll, self.pitch, self.yaw)

    def min_columns(self) -> int:
        return max(self.timestamp, *self.channel_indices()) + 1


@dataclass
class RawSession:
    """One recording: time-ordered 6-channel samples plus identity."""

    driver_id: str
    behavior: str
    road: str
    session_id: str
    timestamps: np.ndarray
    samples: np.ndarray
    rejected_rows: int = 0

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.behavior not in CLASS_NAMES:
            raise ValueError(f"unknown behavior {self.behavior!r}")
        if self.samples.ndim != 2 or self.samples.shape[1] != 6:
            raise ValueError(f"samples must be (n, 6), got {self.samples.shape}")
        if self.timestamps.shape != (self.samples.shape[0],):
            raise ValueError("timestamps and samples disagree on row count")
        if self.samples.shape[0] == 0:
            raise ValueError(f"session {self.session_id} has no valid rows")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError(f"session {self.session_id} timestamps not strictly increasing")

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])


def parse_session_name(name: str) -> tuple[str, str, str]:
    """Extract (driver_id, behavior, road) from a session directory name."""
    driver = re.search(r"D\d+", name)
    behavior = next((b for b in CLASS_NAMES if b in name.upper()), None)
    road = next((r for r in ROAD_NAMES if r in name.upper()), None)
    if driver is None:
        raise ValueError(f"no driver token (D<number>) in session name {name!r}")
    if behavior is None:
        raise ValueError(f"no behavior token {CLASS_NAMES} in session name {name!r}")
    if road is None:
        raise ValueError(f"no road token {ROAD_NAMES} in session name {name!r}")
    return driver.group(0), behavior, road


def _parse_lines(lines: list[str], columns: ColumnMap) -> tuple[np.ndarray, int]:
    """(n, 7) timestamp and channel values of the lines that parse, and the
    count of dropped lines.

    Blank lines are skipped without counting. The block goes through one
    ``np.loadtxt`` call with no comment character. Its C reader splits a
    line at the same whitespace as ``str.split`` (``\\n`` and ``\\r`` end a
    line there, and never occur inside a line read from the file). It reads
    no token that ``float()`` refuses and reads each one it accepts to the
    value ``float()`` gives; it raises on a short line or a token it will
    not read (``1_0``, non-ASCII digits), and the block is then halved,
    down to ``_parse_each_line``.
    """
    usecols = (columns.timestamp, *columns.channel_indices())
    # One line of zeros after the block, so an all-blank block is not "no
    # data", which loadtxt warns about.
    padding = " ".join(["0"] * columns.min_columns())
    try:
        values = np.loadtxt([*lines, padding], usecols=usecols, comments=None,
                            ndmin=2, dtype=np.float64)
        return values[:-1], 0
    except ValueError:
        pass
    if len(lines) <= PARSE_FLOOR_LINES:
        return _parse_each_line(lines, columns)
    half = len(lines) // 2
    head, head_rejected = _parse_lines(lines[:half], columns)
    tail, tail_rejected = _parse_lines(lines[half:], columns)
    return np.concatenate([head, tail]), head_rejected + tail_rejected


def _parse_each_line(lines: list[str], columns: ColumnMap) -> tuple[np.ndarray, int]:
    """``_parse_lines`` with ``str.split`` per line and ``float()`` per token,
    for the few lines the C reader refused.
    """
    needed = columns.min_columns()
    pick = operator.itemgetter(columns.timestamp, *columns.channel_indices())
    rows = []
    rejected = 0
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) < needed:
            rejected += 1
            continue
        try:
            # np.array parses each string as float() does.
            rows.append(np.array(pick(parts), dtype=np.float64))
        except ValueError:
            rejected += 1
    return np.array(rows, dtype=np.float64).reshape(-1, 7), rejected


def parse_uah_session(directory: str | Path, columns: ColumnMap | None = None,
                      filename: str = ACCELEROMETER_FILENAME) -> RawSession:
    """Read one session directory into a RawSession.

    Blank lines are skipped. Rows with too few columns, a token that does
    not parse as a float, a non-finite value, or a timestamp that does not
    exceed every timestamp accepted before it are dropped and counted in
    ``rejected_rows``.

    Lines end at a newline after universal-newline decoding, as iterating
    the file gives them (``str.splitlines`` would also break at ``\\f``,
    ``\\x85`` and others). Each block of ``PARSE_BLOCK_LINES`` lines goes
    to numpy's C text reader, which reads the clean blocks. A block it
    refuses (a short line, or a mapped token such as ``1_0`` or a non-ASCII
    digit) is halved until its halves are read or are at most
    ``PARSE_FLOOR_LINES`` lines, which the per-line path splits with
    ``str.split`` and parses token by token as ``float()`` does. Either way
    a value is the one ``float()`` gives, so the path a line takes changes
    no value and no reject count. The finite and timestamp rules then run
    on the whole session's array.
    """
    directory = Path(directory)
    columns = columns or ColumnMap()
    path = directory / filename
    if not path.is_file():
        raise FileNotFoundError(f"missing {filename} in {directory}")
    driver, behavior, road = parse_session_name(directory.name)

    blocks = [np.empty((0, 7))]
    rejected = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        while lines := list(itertools.islice(fh, PARSE_BLOCK_LINES)):
            values, dropped = _parse_lines(lines, columns)
            blocks.append(values)
            rejected += dropped
    values = np.concatenate(blocks)
    finite = values[np.isfinite(values).all(axis=1)]
    # A finite row is kept iff its timestamp exceeds every earlier finite
    # timestamp: a dropped row never raises that maximum, a kept row always does.
    ts = finite[:, 0]
    advances = np.ones(ts.shape, dtype=bool)
    advances[1:] = ts[1:] > np.maximum.accumulate(ts)[:-1]
    kept = finite[advances]
    rejected += values.shape[0] - kept.shape[0]
    if kept.shape[0] == 0:
        raise ValueError(f"no valid rows in {path}")
    if rejected:
        logger.warning("session %s: rejected %d rows", directory.name, rejected)
    return RawSession(
        driver_id=driver,
        behavior=behavior,
        road=road,
        session_id=directory.name,
        timestamps=kept[:, 0],
        samples=kept[:, 1:],
        rejected_rows=rejected,
    )


def check_road(road: str | None) -> None:
    if road is not None and road not in ROAD_NAMES:  # a FieldError, so a config names ``ingest.road``
        raise FieldError(f"road must be one of {ROAD_NAMES} or None, got {road!r}")


def discover_sessions(root: str | Path, columns: ColumnMap | None = None,
                      filename: str = ACCELEROMETER_FILENAME,
                      road: str | None = None) -> list[RawSession]:
    """Parse every subdirectory of ``root`` that holds an accelerometer file.

    With ``road`` set, a session whose directory name names another road
    is skipped before its file is opened; every name is still checked.
    The result is empty when session directories exist but none is on
    ``road``.
    """
    check_road(road)
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    subs = [p for p in sorted(root.iterdir()) if p.is_dir() and (p / filename).is_file()]
    if not subs:
        raise ValueError(f"no session directories with {filename} under {root}")
    return [parse_uah_session(sub, columns, filename) for sub in subs
            if road is None or parse_session_name(sub.name)[2] == road]


def filter_road(sessions: list[RawSession], road: str | None = "MOTORWAY") -> list[RawSession]:
    """Keep sessions on one road type; None disables the filter."""
    check_road(road)
    if road is None:
        return list(sessions)
    return [s for s in sessions if s.road == road]


def window_sessions(sessions: list[RawSession], window_len: int = DEFAULT_WINDOW_LEN,
                    overlap_fraction: float = DEFAULT_OVERLAP) -> WindowedDataset:
    """Slide fixed windows over each session and label them by behavior.

    The stride is ``round(window_len * (1 - overlap_fraction))``; trailing
    samples that do not fill a window are dropped, and sessions shorter
    than one window contribute nothing (logged, not an error). The
    windows of a session share one (frozen) ``WindowMeta``.
    """
    if window_len < 2:
        raise ValueError(f"window_len must be >= 2, got {window_len}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError(f"overlap_fraction must lie in [0, 1), got {overlap_fraction}")
    if not sessions:
        raise ValueError("no sessions to window")
    stride = max(1, int(round(window_len * (1.0 - overlap_fraction))))

    windows: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    meta: list[WindowMeta] = []
    for session in sessions:
        n = session.n_samples
        if n < window_len:
            logger.warning("session %s has %d samples, shorter than window_len %d; skipped",
                           session.session_id, n, window_len)
            continue
        # (n - window_len + 1, d, window_len) views, every stride-th one kept, as (n_w, t, d).
        views = sliding_window_view(session.samples, window_len, axis=0)[::stride]
        windows.append(views.transpose(0, 2, 1))
        labels.append(np.full(len(views), CLASS_NAMES.index(session.behavior), dtype=np.int64))
        meta.extend([WindowMeta(
            driver_id=session.driver_id,
            behavior=session.behavior,
            road=session.road,
            session_id=session.session_id,
        )] * len(views))
    if not windows:
        raise ValueError("no session long enough to produce a window")
    return WindowedDataset(
        windows=np.concatenate(windows),
        labels=np.concatenate(labels),
        meta=meta,
        class_names=list(CLASS_NAMES),
    )


def split_indices(ds: WindowedDataset, train_fraction: float = DEFAULT_TRAIN_FRACTION,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train/test index arrays for a stratified split.

    Each (driver, behavior) stratum is shuffled deterministically and
    rounded to the nearest train count, clamped so both sides stay
    nonempty; strata with fewer than two windows go entirely to train.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    strata: dict[tuple[str, str], list[int]] = {}
    for i, wm in enumerate(ds.meta):
        strata.setdefault((wm.driver_id, wm.behavior), []).append(i)

    rng = seeded_rng(derive_seed(seed, "stratified-split"))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for key in sorted(strata):
        members = np.asarray(strata[key], dtype=np.int64)
        if members.size < 2:
            train_idx.extend(members.tolist())
            continue
        order = members[rng.permutation(members.size)]
        n_train = int(round(train_fraction * members.size))
        n_train = min(max(n_train, 1), members.size - 1)
        train_idx.extend(order[:n_train].tolist())
        test_idx.extend(order[n_train:].tolist())
    if not test_idx:
        raise ValueError("split produced an empty test set; corpus too small")
    return (np.asarray(sorted(train_idx), dtype=np.int64),
            np.asarray(sorted(test_idx), dtype=np.int64))


@dataclass
class NormalizationStats:
    """Per-channel z-score statistics, fitted on train data only."""

    mean: npt.NDArray[np.float64]
    std: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be matching 1-d arrays")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")


def fit_normalization(ds: WindowedDataset) -> NormalizationStats:
    """Per-channel mean/std over all train samples; constant channels get std 1."""
    flat = ds.windows.reshape(-1, ds.n_channels)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return NormalizationStats(mean=mean, std=std)


def apply_normalization(ds: WindowedDataset, stats: NormalizationStats) -> WindowedDataset:
    """Shift and scale every channel by the fitted train statistics."""
    if stats.mean.size != ds.n_channels:
        raise ValueError(f"stats cover {stats.mean.size} channels, dataset has {ds.n_channels}")
    return WindowedDataset(
        windows=(ds.windows - stats.mean) / stats.std,
        labels=ds.labels.copy(),
        meta=list(ds.meta),
        class_names=list(ds.class_names),
    )


@dataclass
class SyntheticSpec:
    """Recipe for a heterogeneous synthetic corpus.

    Each archetype is a sinusoidal signal family; the class label shifts
    the channel mean with the archetype's own sign, so archetypes with
    opposite signs make classes globally inseparable on channel means
    while staying separable within each archetype.
    """

    frequencies: tuple[float, ...] = (1.0, 2.3, 3.7)
    amplitudes: tuple[float, ...] = (1.0, 1.0, 1.0)
    noise_sigmas: tuple[float, ...] = (0.1, 0.1, 0.1)
    class_effect_signs: tuple[int, ...] = (1, -1, 1)
    class_effect_scale: float = 1.0
    windows_per_class: int = 50
    t: int = 32
    d: int = 3
    C: int = 3
    ar_coeff: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        n = len(self.frequencies)
        if n < 1:
            raise ValueError("need at least one archetype")
        if not (len(self.amplitudes) == len(self.noise_sigmas) == len(self.class_effect_signs) == n):
            raise ValueError("per-archetype parameter tuples must share one length")
        if any(s < 0 for s in self.noise_sigmas):
            raise ValueError("noise sigmas must be >= 0")
        if any(s not in (-1, 1) for s in self.class_effect_signs):
            raise ValueError("class-effect signs must be +1 or -1")
        if self.windows_per_class < 1 or self.t < 2 or self.d < 1 or self.C < 1:
            raise ValueError("counts must be positive (t >= 2)")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError(f"ar_coeff must lie in [0, 1), got {self.ar_coeff}")

    @property
    def archetype_count(self) -> int:
        return len(self.frequencies)


def class_factor(c: int, n_classes: int) -> float:
    """Symmetric class coordinate in [-1, 1] ((2c - (C-1)) / (C-1))."""
    return (2.0 * c - (n_classes - 1)) / max(n_classes - 1, 1)


def generate_synthetic(spec: SyntheticSpec) -> tuple[WindowedDataset, np.ndarray]:
    """Draw windows from each (archetype, class) cell; returns archetype ids too.

    The deterministic part of a window depends only on its cell, so zero
    noise makes windows within a cell identical. AR(1) noise with the
    cell's sigma is added on top.
    """
    rng = seeded_rng(derive_seed(spec.seed, "synthetic"))
    time_axis = np.arange(spec.t, dtype=np.float64) / spec.t

    windows: list[np.ndarray] = []
    labels: list[int] = []
    meta: list[WindowMeta] = []
    archetypes: list[int] = []
    class_names = [f"CLASS_{c}" for c in range(spec.C)]
    for a in range(spec.archetype_count):
        for c in range(spec.C):
            shift = spec.class_effect_signs[a] * class_factor(c, spec.C) * spec.class_effect_scale
            base = np.empty((spec.t, spec.d))
            for j in range(spec.d):
                phase = 2.0 * np.pi * (a * spec.d + j) / (spec.archetype_count * spec.d)
                base[:, j] = spec.amplitudes[a] * np.sin(
                    2.0 * np.pi * spec.frequencies[a] * time_axis + phase
                ) + shift
            for r in range(spec.windows_per_class):
                noise = np.zeros((spec.t, spec.d))
                if spec.noise_sigmas[a] > 0:
                    eps = rng.standard_normal((spec.t, spec.d)) * spec.noise_sigmas[a]
                    innovation = np.sqrt(1.0 - spec.ar_coeff ** 2)
                    noise[0] = eps[0]
                    for step in range(1, spec.t):
                        noise[step] = spec.ar_coeff * noise[step - 1] + innovation * eps[step]
                windows.append(base + noise)
                labels.append(c)
                meta.append(WindowMeta(
                    driver_id=f"A{a}",
                    behavior=class_names[c],
                    road="SYNTH",
                    session_id=f"arch{a}-class{c}-{r}",
                ))
                archetypes.append(a)
    ds = WindowedDataset(
        windows=np.stack(windows),
        labels=np.asarray(labels, dtype=np.int64),
        meta=meta,
        class_names=class_names,
    )
    return ds, np.asarray(archetypes, dtype=np.int64)
