"""Deterministic artifact persistence.

The dataset and representation archives are zip files written with fixed
entry metadata (no compression, epoch date stamps, sorted names), so a
rerun with identical content produces byte-identical files; their tensors
are little-endian float64 blobs, their headers canonical JSON. Every
other record, classifier bundles and grouping results among them, is one
JSON file. This module is the one place a record becomes JSON:
``write_json`` and ``canonical_json`` write a dataclass as its ``init``
fields and numpy data as lists and scalars (floats by ``repr``, so they
read back bit for bit), and ``as_record`` rebuilds it with ``cls(**data)``
after ``check_field_types``. Digest helpers strip wall-time
fields so timing never leaks into content digests. Every file is written
to a temporary name beside its target and renamed over it, so a write
that fails partway leaves the previous file as it was.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .ingest import NormalizationStats
from .types import AecsMatrix, WindowMeta, WindowedDataset

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
TIMING_KEYS = frozenset({"wall_time_s", "stage_timings", "timings"})


def _encode(obj):
    """JSON form of what ``json`` cannot write itself: records and numpy data.

    ``json`` already writes str-enums as their value and tuples as lists,
    so plain data never reaches this hook.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# JSON types a field of each declared type accepts; a bool is an int to Python.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


def check_field_types(cls, data: dict) -> None:
    """Reject a JSON value whose type the record field it fills does not take.

    A JSON ``true`` is not a number: an ``int`` field takes an int but not
    a bool, a ``float`` field an int or a float but not a bool, and a
    ``bool`` field only true or false. A ``... | None`` field also takes
    null. Fields of other types are left to the record's own checks.
    """
    for f in dataclasses.fields(cls):
        kind = f.type.removesuffix(" | None")
        if f.name not in data or kind not in _FIELD_TYPES:
            continue
        value = data[f.name]
        if value is None and kind != f.type:
            continue
        if not (isinstance(value, _FIELD_TYPES[kind]) and isinstance(value, bool) == (kind == "bool")):
            expected = "true or false" if kind == "bool" else kind
            raise ValueError(f"{f.name} must be {expected}, got {value!r}")


def as_record(cls, data):
    """``cls(**data)`` for the JSON object of a record, after ``check_field_types``.

    A record that is already a ``cls`` is returned as it is, so a record's
    ``__post_init__`` can rebuild its nested records with this.
    """
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise ValueError(f"a {cls.__name__} must be a JSON object, got {type(data).__name__}")
    check_field_types(cls, data)
    return cls(**data)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      default=_encode)


@contextmanager
def atomic_open(path: str | Path):
    """Binary handle on a temporary file that replaces ``path`` on success.

    The temporary file lives in the target's directory, so ``os.replace``
    is a rename within one file system. If the body raises, the temporary
    file is removed and ``path`` keeps its previous content. This guards
    against a process dying mid-write, not against power loss (no fsync).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2, default=_encode) + "\n"
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def read_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_archive(path: str | Path, entries: dict[str, bytes]) -> None:
    """Zip archive with deterministic layout: sorted names, fixed dates."""
    with atomic_open(path) as fh, zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(entries):
            info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
            info.external_attr = 0o644 << 16
            zf.writestr(info, entries[name])


def read_archive(path: str | Path) -> dict[str, bytes]:
    with zipfile.ZipFile(path, "r") as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def content_digest(path: str | Path) -> str:
    """Digest that ignores wall-time fields inside JSON artifacts.

    JSON files are canonicalized with timing keys removed; every other
    file is digested byte-for-byte.
    """
    path = Path(path)
    if path.suffix == ".json":
        stripped = _strip_timing(read_json(path))
        return hashlib.sha256(canonical_json(stripped).encode("utf-8")).hexdigest()
    return file_digest(path)


@contextmanager
def run_lock(directory: str | Path):
    """Exclusive marker preventing concurrent writers to one run directory.

    The marker holds the holder's pid, and the error names it, so a lock
    left by a killed process can be told from a live one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lock_path = directory / ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            holder = lock_path.read_text().strip() or "unknown"
        except OSError:
            holder = "unknown"
        raise RuntimeError(
            f"run directory {directory} is locked by another process (pid {holder}; "
            f"remove {lock_path} if stale)"
        ) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        yield
    finally:
        lock_path.unlink(missing_ok=True)


def _tensor_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _tensor_from(blob: bytes, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(blob, dtype="<f8").reshape(shape).astype(np.float64)


def save_dataset(path: str | Path, ds: WindowedDataset,
                 normalization: NormalizationStats | None = None) -> None:
    """Canonical dataset archive: JSON header plus raw float64 tensor."""
    header = {
        "format": "windowed-dataset-v1",
        "M": ds.n_windows,
        "t": ds.n_timesteps,
        "d": ds.n_channels,
        "C": ds.n_classes,
        "class_names": ds.class_names,
        "labels": ds.labels,
        "meta": ds.meta,
        "normalization": normalization,
    }
    write_archive(path, {
        "header.json": canonical_json(header).encode("utf-8"),
        "windows.f8": _tensor_bytes(ds.windows),
    })


def load_dataset(path: str | Path) -> tuple[WindowedDataset, NormalizationStats | None]:
    """Returns (dataset, normalization stats)."""
    entries = read_archive(path)
    header = json.loads(entries["header.json"].decode("utf-8"))
    if header.get("format") != "windowed-dataset-v1":
        raise ValueError(f"unrecognized dataset format: {header.get('format')!r}")
    m, t, d = header["M"], header["t"], header["d"]
    windows = _tensor_from(entries["windows.f8"], (m, t, d))
    if header.get("labels") is None:
        raise ValueError("dataset header has no labels")
    meta = [WindowMeta(**item) for item in header["meta"]]
    ds = WindowedDataset(
        windows=windows,
        labels=header["labels"],
        meta=meta,
        class_names=list(header["class_names"]),
    )
    stats = (NormalizationStats(**header["normalization"])
             if header.get("normalization") else None)
    return ds, stats


def save_aecs(path: str | Path, vectors: np.ndarray, source_model_id: str) -> None:
    header = {
        "format": "aecs-v1",
        "M": int(vectors.shape[0]),
        "h": int(vectors.shape[1]),
        "source_model_id": source_model_id,
    }
    write_archive(path, {
        "header.json": canonical_json(header).encode("utf-8"),
        "vectors.f8": _tensor_bytes(vectors),
    })


def load_aecs(path: str | Path) -> AecsMatrix:
    entries = read_archive(path)
    header = json.loads(entries["header.json"].decode("utf-8"))
    if header.get("format") != "aecs-v1":
        raise ValueError(f"unrecognized representation format: {header.get('format')!r}")
    vectors = _tensor_from(entries["vectors.f8"], (header["M"], header["h"]))
    return AecsMatrix(vectors=vectors, source_model_id=header["source_model_id"])
