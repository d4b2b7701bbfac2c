"""Pinned artifact digests of three small fixed-seed pipeline runs.

Each run goes through ingest, train and infer on a synthetic corpus: one
with AR(1) noise; one without noise, where every window of an
(archetype, class) cell is an exact copy of the others; and one with AR(1)
noise at the default autoencoder widths, whose 12-wide vectors make each
distance add twelve terms, as in a full-size run. The test compares
every artifact's ``content_digest`` with ``golden_digests.json``. For files
other than JSON that digest is of the raw bytes, so ``model.bin`` is
compared byte for byte.

Float results depend on the numpy build, its BLAS, the kernel OpenBLAS
picks at run time and the CPU features numpy detects, so the golden file
records them. Under any other environment the test skips and names both;
it never compares digests it cannot expect to match. A change that moves
a digest regenerates the file with ``PYTHONPATH=src python
tests/test_golden_digests.py``, which prints the entries that moved
against the file it overwrites, and says in CHANGES.md why each one moved.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from tsgroups.pipeline import cmd_infer, cmd_ingest, cmd_train, read_config
from tsgroups.storage import content_digest

GOLDEN = Path(__file__).with_name("golden_digests.json")

_COMMON = {
    "autoencoder": {"hidden1": 6, "hidden2": 3, "epochs": 3, "seed": 5},
    "cgf": {"tau": 0.05},
    "classifier": {"kind": "SOFTMAX_STATS", "epochs": 80, "seed": 5},
    "mapping": {"method": "AVG"},
}

RUNS = {
    "noisy": {
        "ingest": {"seed": 5, "synthetic": {"windows_per_class": 30, "t": 24, "d": 3, "seed": 5}},
        **_COMMON,
    },
    "zero-noise": {
        "ingest": {"seed": 6, "synthetic": {"windows_per_class": 30, "t": 24, "d": 3, "seed": 6,
                                            "noise_sigmas": [0.0, 0.0, 0.0]}},
        **_COMMON,
    },
    "default-widths": {
        "ingest": {"seed": 7, "synthetic": {"windows_per_class": 30, "t": 24, "d": 3, "seed": 7}},
        **_COMMON,
        "autoencoder": {"epochs": 3, "seed": 5},
    },
}


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked at run time (``SkylakeX``, ...), or "unknown".

    Two hosts with the same CPU features can get different kernels (and
    ``OPENBLAS_CORETYPE`` overrides the pick), which round differently.
    """
    corename = getattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    """What the floats depend on besides the code: numpy, BLAS and its kernel, CPU features, Python."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        cpu = sorted(name for name, found in __cpu_features__.items() if found)
    except ImportError:
        cpu = "unknown"
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_kernel": blas_kernel(),
        "cpu_features": cpu,
        "python": sys.version.split()[0],
    }


def run_digests(workdir: Path) -> dict[str, dict[str, str]]:
    """Run every pipeline under ``workdir`` and digest what each wrote."""
    digests = {}
    previous = Path.cwd()
    os.chdir(workdir)  # out_dir is relative, so the manifests hold no absolute path
    try:
        for name, data in RUNS.items():
            config = read_config({"paths": {"out_dir": name}, **data})
            cmd_ingest(config)
            cmd_train(config)
            cmd_infer(config)
            digests[name] = {path.name: content_digest(path)
                             for path in sorted(Path(name).iterdir())
                             if path.is_file() and path.name != ".lock"}
    finally:
        os.chdir(previous)
    return digests


def test_artifact_digests_match_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"golden digests were made under {golden['environment']}; this is {here}")
    got = run_digests(tmp_path)
    assert got == golden["runs"]


def moved_entries(old: dict, new: dict) -> list[str]:
    """``run/artifact`` for every entry whose digest differs between two ``runs`` maps."""
    return sorted(f"{run}/{name}" for run in old.keys() | new.keys()
                  for name in old.get(run, {}).keys() | new.get(run, {}).keys()
                  if old.get(run, {}).get(name) != new.get(run, {}).get(name))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        runs = run_digests(Path(scratch))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"environment": None, "runs": {}}
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    if old["environment"] != environment():
        print("the file it replaced was made under another environment")
    print("entries that moved:", *moved_entries(old["runs"], runs) or ["none"], sep="\n  ")
