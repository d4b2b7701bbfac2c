"""UAH-layout corpora for the benchmark workloads, written from a seed.

The benchmark owns its inputs: nothing here calls into ``tsgroups``, so a
change to the program's own synthesis code cannot change what the
benchmark measures. Each corpus is one directory per session, named with
driver, behaviour and road tokens, holding a whitespace-separated
``RAW_ACCELEROMETERS.txt`` with the timestamp in column 0 and the six
channels in columns 5..10.

Every driver has its own signal family (frequency, amplitude, phases) and
the behaviour shifts the channel means with a driver-specific sign, so a
single global classifier confuses behaviours across drivers while a
classifier inside each driver's group does not. That is the heterogeneity
the grouped pipeline exists for, and it keeps the benchmark's
"grouped F1 >= baseline F1" check meaningful on every seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BEHAVIOURS = ("NORMAL", "AGGRESSIVE", "DROWSY")
DRIVERS = ("D1", "D2", "D3")
WINDOW_LEN = 64
STRIDE = 32
VAL_FRACTION = 0.1
BATCH_SIZE = 64
N_MEASURES = 3
ACCELEROMETER_FILENAME = "RAW_ACCELEROMETERS.txt"

# Per-driver signal family: whole cycles per 32-sample period. Windows start
# every 32 samples, so without noise every window of a session is identical.
PERIOD_CYCLES = (1, 2, 3)
AMPLITUDES = (1.0, 0.8, 1.2)
SHIFT_SIGNS = (1, -1, 1)
SHIFT_SCALE = 1.0

# Malformed lines written into every session so the reject path runs:
# lines with too few columns, and lines repeating the previous timestamp.
SHORT_LINES_PER_SESSION = 3
STALE_LINES_PER_SESSION = 2
REJECTED_PER_SESSION = SHORT_LINES_PER_SESSION + STALE_LINES_PER_SESSION


@dataclass(frozen=True)
class Workload:
    """One corpus shape plus the pipeline settings it runs with."""

    name: str
    motorway_rows: int
    secondary_rows: int
    noise_sigma: float
    epochs: int
    train_fraction: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ae-bptt", motorway_rows=4032, secondary_rows=0, noise_sigma=0.1,
                 epochs=10, train_fraction=0.8),
        Workload("dup-ties", motorway_rows=1632, secondary_rows=0, noise_sigma=0.0,
                 epochs=2, train_fraction=0.8),
        Workload("paper-corpus", motorway_rows=19232, secondary_rows=9600, noise_sigma=0.1,
                 epochs=1, train_fraction=0.5),
    )
}


def expected_counts(w: Workload) -> dict:
    """What ingest must report for a corpus written by ``write_corpus``.

    Derived from the written shape alone: every (driver, behaviour)
    stratum is one MOTORWAY session, split at ``train_fraction``.
    """
    per_session = (w.motorway_rows - WINDOW_LEN) // STRIDE + 1
    # round() halves to even, as the split and the validation hold-out do.
    n_train = min(max(round(w.train_fraction * per_session), 1), per_session - 1)
    sessions = len(DRIVERS) * len(BEHAVIOURS)
    m_train = sessions * n_train
    m_test = sessions * (per_session - n_train)
    n_fit = m_train - round(VAL_FRACTION * m_train)
    return {
        "M_train": m_train,
        "M_test": m_test,
        "rejected_rows": sessions * REJECTED_PER_SESSION,
        "train_steps": w.epochs * -(-n_fit // BATCH_SIZE),
        "agglomerate_calls": 2 * N_MEASURES,
        "merges": N_MEASURES * ((m_train - 1) + (m_test - 1)),
        "pairs": N_MEASURES * (m_train * (m_train - 1) + m_test * (m_test - 1)) // 2,
    }


def _session_signal(rng: np.random.Generator, w: Workload, rows: int, driver: int,
                    behaviour: int) -> np.ndarray:
    """(rows, 6) channel samples for one session."""
    shift = SHIFT_SIGNS[driver] * (behaviour - 1) * SHIFT_SCALE
    phases = 2.0 * np.pi * (driver * 6 + np.arange(6)) / 18.0
    n = np.arange(STRIDE)[:, None]
    block = AMPLITUDES[driver] * np.sin(2.0 * np.pi * PERIOD_CYCLES[driver] * n / STRIDE + phases)
    samples = np.tile(block + shift, (rows // STRIDE + 1, 1))[:rows]
    if w.noise_sigma > 0:
        samples = samples + rng.standard_normal(samples.shape) * w.noise_sigma
    return samples


def _write_session(path: Path, samples: np.ndarray, rng: np.random.Generator) -> None:
    """Write rows with columns timestamp, flag, raw xyz, filtered xyz, roll, pitch, yaw.

    Malformed lines go at fixed positions; they are dropped by ingest
    and never shift the valid rows.
    """
    rows = samples.shape[0]
    timestamps = np.arange(rows) * 0.1
    raw = samples[:, :3] + rng.standard_normal((rows, 3)) * 0.05
    lines = [
        f"{t:.2f} 1 {r[0]:.6f} {r[1]:.6f} {r[2]:.6f} "
        f"{s[0]:.6f} {s[1]:.6f} {s[2]:.6f} {s[3]:.6f} {s[4]:.6f} {s[5]:.6f}"
        for t, r, s in zip(timestamps.tolist(), raw.tolist(), samples.tolist())
    ]
    bad_after = np.linspace(1, rows - 1, REJECTED_PER_SESSION).astype(int)
    out: list[str] = []
    bad = 0
    for i, line in enumerate(lines):
        out.append(line)
        while bad < REJECTED_PER_SESSION and bad_after[bad] == i:
            if bad < SHORT_LINES_PER_SESSION:
                out.append(line.rsplit(" ", 4)[0])
            else:
                out.append(line)
            bad += 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
        fh.flush()
        # On disk before timing starts, so write-back cannot overlap a timed verb.
        os.fsync(fh.fileno())


def write_corpus(root: Path, w: Workload, seed: int) -> None:
    """Write every session of workload ``w`` under ``root`` from ``seed``."""
    rng = np.random.default_rng([seed, len(w.name)] + [ord(c) for c in w.name])
    root.mkdir(parents=True, exist_ok=True)
    index = 0
    for road, rows in (("MOTORWAY", w.motorway_rows), ("SECONDARY", w.secondary_rows)):
        if rows == 0:
            continue
        for d, driver in enumerate(DRIVERS):
            for b, behaviour in enumerate(BEHAVIOURS):
                index += 1
                name = f"201601{index:02d}120000-{10 + index}km-{driver}-{behaviour}-{road}"
                session = root / name
                session.mkdir()
                _write_session(session / ACCELEROMETER_FILENAME,
                               _session_signal(rng, w, rows, d, b), rng)
