"""Deterministic artifact persistence.

Every artifact is a record, and this module is the one place a record
becomes JSON and back: ``write_json`` and ``canonical_json`` write a
dataclass as its ``init`` fields and numpy data as lists and scalars
(floats by ``repr``, so they read back bit for bit); ``as_record``
decodes each field by its annotation, so a record's annotations are its
file's schema. A record holding one tensor (a dataset, a representation
matrix, the model) is a zip archive with fixed entry metadata (no
compression, epoch dates, sorted names), so identical content gives
identical bytes: ``header.json`` holds its other fields and the tensor's
``shape``, ``<tensor>.f8`` the tensor as little-endian float64; every
other record is one JSON file. Digest helpers strip the manifests'
``stage_timings`` so timing never leaks into content digests. Every
file is written to a temporary name beside its target and renamed over
it, so a write that fails partway leaves the previous file as it was.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import reprlib
import types
import typing
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .types import AecsMatrix, WindowedDataset

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
TIMING_KEYS = frozenset({"stage_timings"})


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


class FieldError(ValueError):
    """A JSON value that its record field's declared type refuses; the message starts with the field's path."""


def _refuse(expected: str, value):
    raise FieldError(f" must be {expected}, got {reprlib.repr(value)}")


def _each(pairs, decoder_for) -> dict:
    """{key: its JSON value decoded by ``decoder_for(key)``} of (key, value) pairs; an error names the key."""
    out = {}
    for key, value in pairs:
        try:
            out[key] = decoder_for(key)(value)
        except (TypeError, ValueError) as exc:  # a nested record's own check too
            inner = str(exc) if isinstance(exc, FieldError) else f": {exc}"
            step = f"[{key}]" if isinstance(key, int) else key
            raise FieldError(step + ("" if inner[0] in "[ :" else ".") + inner) from None
    return out


_SCALARS = {int: ((int,), "int"), float: ((int, float), "float"), bool: ((bool,), "true or false"),
            str: ((str,), "a string")}
_ARRAYS = {np.int64: ("i", "an array of ints"), np.float64: ("if", "an array of numbers"),
           np.bool_: ("b", "an array of true and false")}


def _holds_bool(items: list) -> bool:
    """Whether a JSON true or false is among ``items`` or in the lists they hold; numpy reads one as a number."""
    kinds = set(map(type, items))
    return bool in kinds or list in kinds and any(_holds_bool(x) for x in items if type(x) is list)


@functools.cache
def _decoder(hint):
    """The function from a JSON value that a field of type ``hint`` takes to the field's value."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:  # the exact types ``json`` gives, so a JSON true is not a number
        accepted, expected = _SCALARS[hint]
        return lambda v: v if type(v) in accepted else _refuse(expected, v)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = {member.value: member for member in hint}
        return lambda v: members[v] if isinstance(v, str) and v in members else _refuse(f"one of {sorted(members)}", v)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(hint) if f.init}

        def record(value):
            if not isinstance(value, dict):
                _refuse("a JSON object", value)
            if not value.keys() <= fields.keys():
                raise TypeError(f"unknown keys {sorted(value.keys() - fields)}; allowed: {sorted(fields)}")
            return hint(**_each(value.items(), fields.__getitem__))
        return record
    if origin is types.UnionType and type(None) in args and len(args) == 2:  # X | None
        inner = _decoder(args[args[0] is type(None)])
        return lambda v: None if v is None else inner(v)
    if origin in (list, tuple) and args[1:] in ((), (Ellipsis,)):
        item = _decoder(args[0])
        return lambda v: (origin(_each(enumerate(v), lambda _: item).values())
                          if isinstance(v, list) else _refuse("a list", v))
    if hint is dict or origin is dict:
        value = _decoder(args[1]) if args else None
        return lambda v: ((_each(v.items(), lambda _: value) if value else v)
                          if isinstance(v, dict) else _refuse("a JSON object", v))
    if origin is np.ndarray:  # npt.NDArray[T]; an archive's tensor is an ndarray already; ragged raises
        kinds, expected = _ARRAYS[typing.get_args(args[-1])[0]]
        return lambda v: (v if isinstance(v, np.ndarray) or isinstance(v, list) and (
            not v or np.asarray(v).dtype.kind in kinds and (kinds == "b" or not _holds_bool(v)))
            else _refuse(expected, v))
    raise TypeError(f"no JSON decoding for a field of type {hint!r}")


def as_record(cls, data):
    """The record ``cls`` of its JSON object, each field decoded by its declared type.

    A value of another JSON type, or a nested record's error, is a ``FieldError`` whose message starts
    with the field's path (``driver_ids[3]``); an unknown or missing key is a TypeError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a {cls.__name__} must be a JSON object, got {reprlib.repr(data)}")
    return _decoder(cls)(data)


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


def write_archive(path: str | Path, entries: dict[str, bytes | memoryview]) -> None:
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
    """Digest that ignores the wall times (``stage_timings``) inside JSON artifacts.

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


def save_tensor_record(path: str | Path, record, tensor: str) -> None:
    """Record archive: field ``tensor`` as ``<tensor>.f8``, every other ``init`` field in ``header.json``.

    The header is the canonical JSON of those fields plus ``shape``, the
    tensor's shape; the tensor is its little-endian float64 bytes, handed
    to ``zipfile`` as a view of the array rather than a copy.
    """
    array = getattr(record, tensor)
    header = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
              if f.init and f.name != tensor}
    write_archive(path, {
        "header.json": canonical_json({**header, "shape": array.shape}).encode("utf-8"),
        f"{tensor}.f8": memoryview(np.ascontiguousarray(array, dtype="<f8")).cast("B"),
    })


def load_tensor_record(path: str | Path, cls, tensor: str):
    """Inverse of ``save_tensor_record``: the record rebuilt with ``as_record``, so its checks apply."""
    entries = read_archive(path)
    header = json.loads(entries["header.json"].decode("utf-8"))
    if not isinstance(header, dict) or tensor in header:
        raise ValueError(f"{tensor} archive header must be a JSON object of the other fields")
    shape = header.pop("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{tensor} shape must be a list of non-negative ints, got {shape!r}")
    array = np.frombuffer(entries[f"{tensor}.f8"], dtype="<f8").reshape(shape).astype(np.float64)
    return as_record(cls, {**header, tensor: array})


def save_dataset(path: str | Path, ds: WindowedDataset) -> None:
    save_tensor_record(path, ds, "windows")


def load_dataset(path: str | Path) -> WindowedDataset:
    return load_tensor_record(path, WindowedDataset, "windows")


def save_aecs(path: str | Path, vectors: np.ndarray) -> None:
    save_tensor_record(path, AecsMatrix(vectors), "vectors")


def load_aecs(path: str | Path) -> AecsMatrix:
    return load_tensor_record(path, AecsMatrix, "vectors")
