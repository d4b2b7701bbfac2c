"""Pinned artifact digests and outcomes of three small fixed-seed pipeline runs.

Each run goes through ingest, train and infer on a synthetic corpus: one
with AR(1) noise; one without noise, where every window of an
(archetype, class) cell is an exact copy of the others; and one with AR(1)
noise at the default autoencoder widths, whose 12-wide vectors make each
distance add twelve terms, as in a full-size run. Both tests share the
three runs.

The digest test compares every artifact's ``content_digest`` with the
``runs`` map of ``golden_digests.json``. For files other than JSON that
digest is of the raw bytes, so ``model.bin`` is compared byte for byte.
Float results depend on the numpy build, its BLAS, the kernel OpenBLAS
picks at run time and the CPU features numpy detects, so the golden file
records them. Under any other environment the digest test skips and
names both; it never compares digests it cannot expect to match.

The outcome test compares what each run decided with the ``outcomes``
map on every environment and never skips: K, measure and assignment of
both groupings, the train group each mapping method chose for each test
group, the digests of the prediction and score files, and the labels and
driver ids of both datasets, in order, which pin the split. None of them
is a float the kernel rounds.

A change that moves a digest or an outcome regenerates the file with
``PYTHONPATH=src python tests/test_golden_digests.py``, which prints the
outcomes and the digests that moved against the file it overwrites, and
says in CHANGES.md why each one moved.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from tsgroups.pipeline import cmd_infer, cmd_ingest, cmd_train, read_config
from tsgroups.storage import canonical_json, content_digest, load_dataset, read_json

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


def _sha256(values) -> str:
    return hashlib.sha256(canonical_json(values).encode("utf-8")).hexdigest()


def outcomes(run: Path) -> dict:
    """What the run in directory ``run`` decided, with no float in it."""
    found = {}
    for name in ("cgf_train.json", "cgf_test.json"):
        grouping = read_json(run / name)["grouping"]
        found[name] = {"K": grouping["K"], "measure": grouping["measure"],
                       "assignment_sha256": _sha256(grouping["assignment"])}
    for name in ("mapping_avg.json", "mapping_cr_cr.json"):
        found[name] = {"chosen": np.argmin(read_json(run / name)["distances"], axis=1).tolist()}
    for name in ("predictions.csv", "metrics.json", "infer_report.json"):
        found[name] = content_digest(run / name)
    for name in ("train_dataset.zip", "test_dataset.zip"):
        ds = load_dataset(run / name)
        found[name] = {"labels_sha256": _sha256(ds.labels), "driver_ids_sha256": _sha256(ds.driver_ids)}
    return found


def run_pipelines(workdir: Path) -> dict[str, dict]:
    """Run every pipeline under ``workdir``: ``runs`` holds the digest of each file it wrote, ``outcomes`` its outcomes."""
    runs, decided = {}, {}
    previous = Path.cwd()
    os.chdir(workdir)  # out_dir is relative, so the manifests hold no absolute path
    try:
        for name, data in RUNS.items():
            config = read_config({"paths": {"out_dir": name}, **data})
            cmd_ingest(config)
            cmd_train(config)
            cmd_infer(config)
            runs[name] = {path.name: content_digest(path)
                          for path in sorted(Path(name).iterdir())
                          if path.is_file() and path.name != ".lock"}
            decided[name] = outcomes(Path(name))
    finally:
        os.chdir(previous)
    return {"runs": runs, "outcomes": decided}


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory) -> dict[str, dict]:
    return run_pipelines(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_artifact_digests_match_golden_file(golden, pipelines):
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"golden digests were made under {golden['environment']}; this is {here}")
    assert pipelines["runs"] == golden["runs"]


def test_outcomes_match_golden_file(golden, pipelines):
    assert pipelines["outcomes"] == golden["outcomes"]


def moved_entries(old: dict, new: dict) -> list[str]:
    """``run/entry`` for every entry whose value differs between two ``runs`` or two ``outcomes`` maps."""
    return sorted(f"{run}/{name}" for run in old.keys() | new.keys()
                  for name in old.get(run, {}).keys() | new.get(run, {}).keys()
                  if old.get(run, {}).get(name) != new.get(run, {}).get(name))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        new = run_pipelines(Path(scratch))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"environment": None}
    GOLDEN.write_text(json.dumps({"environment": environment(), **new}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    if old["environment"] != environment():
        print("the file it replaced was made under another environment")
    for key in ("outcomes", "runs"):
        moved = moved_entries(old.get(key, {}), new[key])
        print("outcomes that moved:" if key == "outcomes" else "digests that moved:", *moved or ["none"], sep="\n  ")
