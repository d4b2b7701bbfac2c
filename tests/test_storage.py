"""Deterministic artifact files: archives, records, digests, locks, round trips."""

import copy
import functools
import hashlib
import json
import operator
import os
import re
import tracemalloc

import numpy as np
import pytest

from tsgroups import autoencoder as ae
from tsgroups.classifiers import ClassifierKind, ClassifierSpec, SoftmaxModel
from tsgroups.consistent import CgfConfig, CgfResult
from tsgroups.distances import DistanceMeasureId
from tsgroups.group_mapping import MappingReport, MappingRow
from tsgroups.grouped import GroupModelBundle, load_bundle, predict, save_bundle, train_per_group
from tsgroups.ingest import ColumnMap, NormalizationStats, SyntheticSpec
from tsgroups.pipeline import (
    IngestOptions,
    MappingOptions,
    Paths,
    PipelineConfig,
    _write_predictions_csv,
    read_config,
)
from tsgroups.rng import derive_seed, seeded_rng
from tsgroups.storage import (
    FieldError,
    as_record,
    canonical_json,
    content_digest,
    file_digest,
    load_aecs,
    load_dataset,
    load_tensor_record,
    read_archive,
    read_json,
    run_lock,
    save_aecs,
    save_dataset,
    write_archive,
    write_json,
)
from tsgroups.types import AecsMatrix, ClassMetrics, Grouping, WindowedDataset, WindowMeta


def make_dataset(m=9, t=4, d=2, n_classes=3, seed=0):
    rng = seeded_rng(derive_seed(seed, "storage-ds"))
    meta = [
        WindowMeta(driver_id=f"D{i % 2}", behavior="NORMAL", road="MOTORWAY", session_id=f"s{i}")
        for i in range(m)
    ]
    return WindowedDataset(
        windows=rng.normal(size=(m, t, d)),
        labels=(np.arange(m) % n_classes).astype(np.int64),
        meta=meta,
        class_names=[f"c{j}" for j in range(n_classes)],
    )


def test_archive_round_trip_and_reproducible_bytes(tmp_path):
    entries = {"b.txt": b"beta", "a.bin": bytes(range(16))}
    p1 = tmp_path / "one.zip"
    p2 = tmp_path / "two.zip"
    write_archive(p1, entries)
    write_archive(p2, {k: entries[k] for k in reversed(list(entries))})
    assert read_archive(p1) == entries
    assert p1.read_bytes() == p2.read_bytes()


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1, 2], "c": {"z": 0, "y": 1}})
    assert s == '{"a":[1,2],"b":1,"c":{"y":1,"z":0}}'


def test_write_json_layout(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 1, "a": 2})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json(path) == {"a": 2, "b": 1}


# One hand-built record of each kind the pipeline writes, and the exact text
# write_json gives for it. This pins the artifact format on every host;
# test_golden_digests skips on hosts other than the one that made its file.
RECORDS = {
    "train_report": (ae.TrainReport(
        train_losses=[0.5, np.float64(0.1)], val_losses=[0.75, 1 / 3], stopped_epoch=2,
        best_epoch=1, best_val_loss=0.75, final_loss=0.1, wall_time_s=0.125, n_train=9, n_val=1,
    ), """\
{
  "best_epoch": 1,
  "best_val_loss": 0.75,
  "final_loss": 0.1,
  "n_train": 9,
  "n_val": 1,
  "stopped_epoch": 2,
  "train_losses": [
    0.5,
    0.1
  ],
  "val_losses": [
    0.75,
    0.3333333333333333
  ],
  "wall_time_s": 0.125
}
"""),
    "class_metrics": (ClassMetrics(
        accuracy=0.75, f1_macro=0.7, f1_weighted=np.float64(0.72),
        confusion=np.array([[2, 1], [0, 1]]),
        confusion_row_normalized=np.array([[2 / 3, 1 / 3], [0.0, 1.0]]),
    ), """\
{
  "accuracy": 0.75,
  "confusion": [
    [
      2,
      1
    ],
    [
      0,
      1
    ]
  ],
  "confusion_row_normalized": [
    [
      0.6666666666666666,
      0.3333333333333333
    ],
    [
      0.0,
      1.0
    ]
  ],
  "f1_macro": 0.7,
  "f1_weighted": 0.72
}
"""),
    "mapping_report": (MappingReport(method="AVG", measure="MANHATTAN", rows=[
        MappingRow(test_group=0, test_group_size=3, chosen_train_group=1, candidate_distances=[0.5, 0.25]),
    ]), """\
{
  "measure": "MANHATTAN",
  "method": "AVG",
  "rows": [
    {
      "candidate_distances": [
        0.5,
        0.25
      ],
      "chosen_train_group": 1,
      "test_group": 0,
      "test_group_size": 3
    }
  ]
}
"""),
    "grouping": (Grouping(
        assignment=np.array([0, 1, 1, 0]), K=2, measure="CHEBYSHEV",
        hubert_scores={"MANHATTAN": 0.25, "CHEBYSHEV": 0.5, "MAHALANOBIS": -0.125},
    ), """\
{
  "K": 2,
  "assignment": [
    0,
    1,
    1,
    0
  ],
  "hubert_scores": {
    "CHEBYSHEV": 0.5,
    "MAHALANOBIS": -0.125,
    "MANHATTAN": 0.25
  },
  "measure": "CHEBYSHEV"
}
"""),
    "cgf_result": (CgfResult(
        grouping=Grouping(assignment=np.array([0, 1, 1, 0]), K=2, measure="CHEBYSHEV",
                          hubert_scores={"MANHATTAN": 0.25, "CHEBYSHEV": 0.5}),
        stopped_by="tau", accepted_k=2, rejected_size=np.int64(1),
        trace=[{"k": 2, "new_group_size": np.int64(2), "accepted": True},
               {"k": 3, "new_group_size": np.int64(1), "accepted": False}],
        dendrogram_fingerprint="cd34",
    ), """\
{
  "accepted_k": 2,
  "dendrogram_fingerprint": "cd34",
  "grouping": {
    "K": 2,
    "assignment": [
      0,
      1,
      1,
      0
    ],
    "hubert_scores": {
      "CHEBYSHEV": 0.5,
      "MANHATTAN": 0.25
    },
    "measure": "CHEBYSHEV"
  },
  "rejected_size": 1,
  "stopped_by": "tau",
  "trace": [
    {
      "accepted": true,
      "k": 2,
      "new_group_size": 2
    },
    {
      "accepted": false,
      "k": 3,
      "new_group_size": 1
    }
  ]
}
"""),
    "bundle": (GroupModelBundle(
        models=[SoftmaxModel(weights=np.array([[0.5], [-0.25]]), bias=np.array([0.0]),
                             seen_classes=np.array([1]), feature_mean=np.array([1.5, 0.0]),
                             feature_std=np.array([2.0, 1.0]), n_train=3)],
        class_presence=np.array([[False, True]]),
        kind=ClassifierKind.SOFTMAX_AECS, n_classes=2,
        warnings=["group 0 contains only class 1; constant predictor"],
    ), """\
{
  "class_presence": [
    [
      false,
      true
    ]
  ],
  "kind": "SOFTMAX_AECS",
  "models": [
    {
      "bias": [
        0.0
      ],
      "feature_mean": [
        1.5,
        0.0
      ],
      "feature_std": [
        2.0,
        1.0
      ],
      "n_train": 3,
      "seen_classes": [
        1
      ],
      "weights": [
        [
          0.5
        ],
        [
          -0.25
        ]
      ]
    }
  ],
  "n_classes": 2,
  "warnings": [
    "group 0 contains only class 1; constant predictor"
  ]
}
"""),
    "classifier_spec": (ClassifierSpec(kind="SOFTMAX_STATS", learning_rate=0.05, epochs=80,
                                       l2=1e-4, seed=5), """\
{
  "epochs": 80,
  "kind": "SOFTMAX_STATS",
  "l2": 0.0001,
  "learning_rate": 0.05,
  "seed": 5
}
"""),
    "normalization": (NormalizationStats(mean=np.array([0.5, -1.25]), std=np.array([2.0, 0.1])), """\
{
  "mean": [
    0.5,
    -1.25
  ],
  "std": [
    2.0,
    0.1
  ]
}
"""),
    "config_default": (PipelineConfig(), """\
{
  "autoencoder": {
    "adam_epsilon": 1e-08,
    "batch_size": 64,
    "beta1": 0.9,
    "beta2": 0.999,
    "early_stop_patience": 10,
    "epochs": 100,
    "hidden1": 16,
    "hidden2": 12,
    "learning_rate": 0.001,
    "seed": 0,
    "val_fraction": 0.1
  },
  "cgf": {
    "k_max": null,
    "k_start": 2,
    "linkage": "AVERAGE",
    "tau": 0.05
  },
  "classifier": {
    "epochs": 500,
    "kind": "SOFTMAX_AECS",
    "l2": 0.0001,
    "learning_rate": 0.1,
    "seed": 0
  },
  "ingest": {
    "accelerometer_filename": "RAW_ACCELEROMETERS.txt",
    "column_map": {
      "acc_x": 5,
      "acc_y": 6,
      "acc_z": 7,
      "pitch": 9,
      "roll": 8,
      "timestamp": 0,
      "yaw": 10
    },
    "normalize": true,
    "overlap": 0.5,
    "road": "MOTORWAY",
    "seed": 0,
    "synthetic": null,
    "train_fraction": 0.8,
    "window_len": 64
  },
  "mapping": {
    "method": "AVG"
  },
  "paths": {
    "dataset_root": null,
    "out_dir": "run"
  }
}
"""),
    "config_synthetic": (PipelineConfig(
        paths=Paths(dataset_root="corpus", out_dir="out"),
        ingest=IngestOptions(road=None, column_map=ColumnMap(acc_x=2, timestamp=0), synthetic=SyntheticSpec(
            windows_per_class=12, t=20, d=3, seed=3, noise_sigmas=(0.0, 0.5, 0.25))),
        cgf=CgfConfig(linkage="COMPLETE", k_max=6),
        classifier=ClassifierSpec(kind="SOFTMAX_STATS"),
        mapping=MappingOptions(method="CR_CR"),
    ), """\
{
  "autoencoder": {
    "adam_epsilon": 1e-08,
    "batch_size": 64,
    "beta1": 0.9,
    "beta2": 0.999,
    "early_stop_patience": 10,
    "epochs": 100,
    "hidden1": 16,
    "hidden2": 12,
    "learning_rate": 0.001,
    "seed": 0,
    "val_fraction": 0.1
  },
  "cgf": {
    "k_max": 6,
    "k_start": 2,
    "linkage": "COMPLETE",
    "tau": 0.05
  },
  "classifier": {
    "epochs": 500,
    "kind": "SOFTMAX_STATS",
    "l2": 0.0001,
    "learning_rate": 0.1,
    "seed": 0
  },
  "ingest": {
    "accelerometer_filename": "RAW_ACCELEROMETERS.txt",
    "column_map": {
      "acc_x": 2,
      "acc_y": 6,
      "acc_z": 7,
      "pitch": 9,
      "roll": 8,
      "timestamp": 0,
      "yaw": 10
    },
    "normalize": true,
    "overlap": 0.5,
    "road": null,
    "seed": 0,
    "synthetic": {
      "C": 3,
      "amplitudes": [
        1.0,
        1.0,
        1.0
      ],
      "ar_coeff": 0.6,
      "class_effect_scale": 1.0,
      "class_effect_signs": [
        1,
        -1,
        1
      ],
      "d": 3,
      "frequencies": [
        1.0,
        2.3,
        3.7
      ],
      "noise_sigmas": [
        0.0,
        0.5,
        0.25
      ],
      "seed": 3,
      "t": 20,
      "windows_per_class": 12
    },
    "train_fraction": 0.8,
    "window_len": 64
  },
  "mapping": {
    "method": "CR_CR"
  },
  "paths": {
    "dataset_root": "corpus",
    "out_dir": "out"
  }
}
"""),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_write_the_pinned_json_text(tmp_path, name):
    record, text = RECORDS[name]
    path = tmp_path / f"{name}.json"
    write_json(path, record)
    assert path.read_text(encoding="utf-8") == text
    assert canonical_json(record) == canonical_json(json.loads(text))


@pytest.mark.parametrize("name", ["bundle", "cgf_result", "grouping", "mapping_report"])
def test_record_reads_back_from_its_json(name):
    record, text = RECORDS[name]
    back = as_record(type(record), json.loads(text))
    assert canonical_json(back) == canonical_json(record)

    def held(r):  # the records r holds, each rebuilt as its own type
        return [type(v) for v in [getattr(r, "grouping", None), getattr(r, "kind", None),
                                  *getattr(r, "models", []), *getattr(r, "rows", [])] if v is not None]

    assert held(back) == held(record)


@pytest.mark.parametrize("name", ["config_default", "config_synthetic"])
def test_config_reads_back_from_its_json(name):
    config = RECORDS[name][0]
    assert read_config(json.loads(canonical_json(config))) == config


# A JSON value of another type than the one a field holds: a number for a string, a string
# for a number, a list for an object or null, an object for a list, and 1 for true or false.
OTHER_JSON_TYPE = {str: 5, bool: 1, int: "5", float: "0.5", type(None): [], dict: [], list: {"x": 1}}
# In an array of ints a fraction; in an array of numbers a string; in one of true and false, 1.
OTHER_ITEM_TYPE = {**OTHER_JSON_TYPE, int: 0.5}


def wrong_values(value, path=()):
    """(path, value of another JSON type) for the JSON value at ``path`` and everything it holds.

    Of a list only the first item is replaced. The steps in a ``trace`` are
    plain JSON objects, so only the step itself is.
    """
    yield path, (OTHER_ITEM_TYPE if path and isinstance(path[-1], int) else OTHER_JSON_TYPE)[type(value)]
    if isinstance(value, dict) and not (len(path) > 1 and path[-2] == "trace"):
        for key, item in value.items():
            yield from wrong_values(item, (*path, key))
    elif isinstance(value, list) and value:
        yield from wrong_values(value[0], (*path, 0))


def replaced(data, path, value):
    data = json.loads(json.dumps(data))
    *head, last = path
    functools.reduce(operator.getitem, head, data)[last] = value
    return data


def test_field_types_take_json_numbers_but_not_true():
    # Every field of every record of RECORDS, the sections of both configs included, and of
    # the records they hold: a value of another JSON type is a ValueError that names the field.
    # An array names the array field, so an index at the path's end may go unnamed.
    rows = [(cls, data, "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip("."),
             replaced(data, path, value))
            for cls, data in ((type(record), json.loads(text)) for record, text in RECORDS.values())
            for path, value in wrong_values(data) if path]
    assert len(rows) > 150
    for cls, data, where, bad in rows:
        with pytest.raises(ValueError) as refused:
            as_record(cls, bad)
        assert str(refused.value).startswith(re.sub(r"(\[\d+\])+$", "", where)), (where, refused.value)
    # The rule for numbers: a JSON true is not one.
    as_record(CgfConfig, {"tau": 0.5, "k_start": 3, "k_max": None})
    as_record(ae.AutoencoderConfig, {"learning_rate": 0, "beta1": 0.5, "seed": 7})
    as_record(IngestOptions, {"normalize": False})
    for cls, data, message in [
        (CgfConfig, {"k_max": True}, "k_max must be int, got True"),
        (CgfConfig, {"k_start": 3.0}, "k_start must be int, got 3.0"),
        (CgfConfig, {"tau": False}, "tau must be float, got False"),
        (ae.AutoencoderConfig, {"learning_rate": "0.1"}, "learning_rate must be float"),
        (IngestOptions, {"normalize": 1}, "normalize must be true or false, got 1"),
        (IngestOptions, {"normalize": None}, "normalize must be true or false, got None"),
    ]:
        with pytest.raises(ValueError, match=message):
            as_record(cls, data)


def test_number_arrays_take_no_json_true():
    # numpy reads [0, true, 1] as an int array, so each item of a JSON list is looked at, nested rows too.
    meta = {"driver_id": "D1", "behavior": "NORMAL", "road": "MOTORWAY", "session_id": "s"}
    model = {"weights": [[0.5, 1.0], [-1.0, 2.0]], "bias": [0.0, 0.0], "seen_classes": [0, 1],
             "feature_mean": [0.0, 0.0], "feature_std": [1.0, 1.0], "n_train": 3}
    bundle = {"models": [model], "class_presence": [[True, True]], "kind": "SOFTMAX_AECS",
              "n_classes": 2}
    dataset = {"windows": np.zeros((3, 4, 2)), "labels": [0, 1, 0], "meta": [meta] * 3, "class_names": ["a", "b"]}
    for cls, data, path, where in [
        (Grouping, {"assignment": [0, 1, 1], "K": 2, "measure": "CHEBYSHEV"}, ("assignment", 1), "assignment"),
        (SoftmaxModel, model, ("weights", 1, 0), "weights"),
        (SoftmaxModel, model, ("bias", 0), "bias"),
        (GroupModelBundle, bundle, ("models", 0, "weights", 1, 0), "models[0].weights"),
        (WindowedDataset, dataset, ("labels", 2), "labels"),
    ]:
        as_record(cls, data)
        bad = copy.deepcopy(data)
        *head, last = path
        functools.reduce(operator.getitem, head, bad)[last] = True
        with pytest.raises(FieldError, match=rf"^{re.escape(where)} must be an array of (ints|numbers), got "):
            as_record(cls, bad)


def test_json_encoder_rejects_unknown_objects():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        canonical_json({"a": {1, 2}})
    with pytest.raises(TypeError, match="type is not JSON serializable"):
        canonical_json(Grouping)


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    config = ae.AutoencoderConfig(hidden1=3, hidden2=2, epochs=1, batch_size=1)
    params = ae.init_params(config, d=2, seed=0)
    writers = {
        "x.json": lambda p: write_json(p, {"new": list(range(100))}),
        "x.zip": lambda p: write_archive(p, {"a.bin": bytes(1000)}),
        "x.model": lambda p: ae.save_model(str(p), params, config, d=2),
        "predictions.csv": lambda p: _write_predictions_csv(
            p, np.array([1, 0]), np.array([1, 1]), np.array([0, 1]), [2, 0]),
    }
    for name in writers:
        (tmp_path / name).write_bytes(b"previous content")

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    for name, write in writers.items():
        with pytest.raises(OSError, match="simulated crash"):
            write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == b"previous content"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)


def test_predictions_csv_bytes_and_crash_mid_rows(tmp_path):
    path = tmp_path / "predictions.csv"
    _write_predictions_csv(path, np.array([1, 0, 2]), np.array([1, 1, 0]), np.array([0, 1, 1]), [2, 0])
    assert path.read_bytes() == (b"instance_index,predicted,true,test_group,train_group\n"
                                 b"0,1,1,0,2\n1,0,1,1,0\n2,2,0,1,0\n")
    previous = path.read_bytes()
    with pytest.raises(IndexError):
        # The truth array runs out on the third row, after two rows were written.
        _write_predictions_csv(path, np.array([1, 0, 2]), np.array([1, 1]),
                               np.array([0, 1, 1]), [2, 0])
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["predictions.csv"]


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 7
    path.write_bytes(payload)
    assert file_digest(path) == hashlib.sha256(payload).hexdigest()


def test_content_digest_ignores_timing_fields(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    base = {"result": 42, "nested": {"stage_timings": {"train": 1.0}, "value": 7}}
    write_json(a, dict(base, wall_time_s=1.25))
    write_json(b, dict(base, wall_time_s=99.0, stage_timings=[3, 4]))
    write_json(c, dict(base, wall_time_s=1.25, result_extra=1))
    assert content_digest(a) == content_digest(b)
    assert content_digest(a) != content_digest(c)
    changed = json.loads(json.dumps(base))
    changed["nested"]["value"] = 8
    d = tmp_path / "d.json"
    write_json(d, changed)
    assert content_digest(d) != content_digest(a)


def test_content_digest_binary_files_are_byte_exact(tmp_path):
    p = tmp_path / "dat.bin"
    p.write_bytes(b"\x00\x01\x02")
    assert content_digest(p) == file_digest(p)
    p.write_bytes(b"\x00\x01\x03")
    assert content_digest(p) == file_digest(p)


def test_run_lock_excludes_and_releases(tmp_path):
    run_dir = tmp_path / "run"
    with run_lock(run_dir):
        assert (run_dir / ".lock").read_text() == str(os.getpid())
        with pytest.raises(RuntimeError, match=rf"pid {os.getpid()}\b"):
            with run_lock(run_dir):
                pass
    assert not (run_dir / ".lock").exists()
    with run_lock(run_dir):
        pass


def test_dataset_round_trip_bit_exact(tmp_path):
    ds = make_dataset()
    path = tmp_path / "dataset.zip"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.windows, ds.windows)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.meta == ds.meta
    assert loaded.class_names == ds.class_names
    again = tmp_path / "again.zip"
    save_dataset(again, loaded)
    assert path.read_bytes() == again.read_bytes()
    assert "extra" not in json.loads(read_archive(path)["header.json"])


def test_save_dataset_holds_one_copy_of_the_windows(tmp_path):
    # About 6 MB of windows: the serialised tensor is the only full copy.
    ds = make_dataset(m=2000, t=64, d=6)
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "dataset.zip", ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.windows.nbytes


def test_dataset_without_labels(tmp_path):
    path = tmp_path / "unlabeled.zip"
    save_dataset(path, make_dataset(m=5))
    entries = read_archive(path)
    header = json.loads(entries["header.json"])
    for edit, error, message in (
            ({**header, "labels": None}, ValueError, "labels must be an array of ints, got None"),
            ({k: v for k, v in header.items() if k != "labels"}, TypeError, "missing .* 'labels'")):
        write_archive(path, {**entries, "header.json": canonical_json(edit).encode()})
        with pytest.raises(error, match=message):
            load_dataset(path)


def test_dataset_rejects_unknown_format(tmp_path):
    # A header of another layout, and this layout's header with a key the record does not have.
    path = tmp_path / "bogus.zip"
    save_dataset(path, make_dataset(m=5))
    entries = read_archive(path)
    header = json.loads(entries["header.json"])
    for bogus, error in (({"format": "other-v9"}, KeyError), ({**header, "format": "other-v9"}, TypeError)):
        write_archive(path, {**entries, "header.json": canonical_json(bogus).encode()})
        with pytest.raises(error, match="shape|format"):
            load_dataset(path)


def test_aecs_round_trip(tmp_path):
    rng = seeded_rng(derive_seed(2, "storage-aecs"))
    vectors = rng.normal(size=(7, 4))
    path = tmp_path / "aecs.zip"
    save_aecs(path, vectors)
    loaded = load_aecs(path)
    assert np.array_equal(loaded.vectors, vectors)
    with pytest.raises(KeyError, match="shape"):
        bad = tmp_path / "bad.zip"
        write_archive(bad, {"header.json": canonical_json({"format": "nope"}).encode()})
        load_aecs(bad)


def hand_built_model() -> ae.SavedModel:
    """A model whose weights are exact binary fractions, so its digest is the same on every host."""
    config = ae.AutoencoderConfig(hidden1=2, hidden2=1)
    params = ae.init_params(config, d=1)
    for array in params.values():
        array[...] = np.arange(array.size).reshape(array.shape) / 8
    return ae.SavedModel(config, 1, np.concatenate([a.ravel() for a in params.values()]),
                         ae.model_id(params, config, 1))


# A hand-built record of each archive the pipeline writes, the writer it uses and the exact
# header.json text it gives, pinned on every host as RECORDS pins the JSON records.
ARCHIVES = {
    "dataset": (WindowedDataset(
        windows=np.arange(12.0).reshape(2, 3, 2) / 4, labels=[1, 0],
        meta=[WindowMeta("D1", "NORMAL", "MOTORWAY", "s0"),
              WindowMeta("D2", "AGGRESSIVE", "SECONDARY", "s1")],
        class_names=["AGGRESSIVE", "NORMAL"],
    ), "windows", save_dataset,
        '{"class_names":["AGGRESSIVE","NORMAL"],"labels":[1,0],'
        '"meta":[{"behavior":"NORMAL","driver_id":"D1","road":"MOTORWAY","session_id":"s0"},'
        '{"behavior":"AGGRESSIVE","driver_id":"D2","road":"SECONDARY","session_id":"s1"}],"shape":[2,3,2]}'),
    "aecs": (AecsMatrix(vectors=np.array([[0.5, -1.25], [1 / 3, 2.0]])),
             "vectors", lambda path, aecs: save_aecs(path, aecs.vectors), '{"shape":[2,2]}'),
    "model": (hand_built_model(), "weights", lambda path, m: ae.save_model(path, m.params, m.config, m.d),
              '{"config":{"adam_epsilon":1e-08,"batch_size":64,"beta1":0.9,"beta2":0.999,'
              '"early_stop_patience":10,"epochs":100,"hidden1":2,"hidden2":1,"learning_rate":0.001,'
              '"seed":0,"val_fraction":0.1},"d":1,'
              '"model_id":"b03b1e79d66058d0d305cee3fa7e463798e4b0962aa47ab491e807c75860496a","shape":[95]}'),
}


@pytest.mark.parametrize("name", sorted(ARCHIVES))
def test_archives_write_the_pinned_header_and_read_back_bit_for_bit(tmp_path, name):
    record, tensor, save, header = ARCHIVES[name]
    path, again = tmp_path / "first.zip", tmp_path / "again.zip"
    save(path, record)
    entries = read_archive(path)
    assert sorted(entries) == ["header.json", f"{tensor}.f8"]
    assert entries["header.json"].decode("utf-8") == header
    back = load_tensor_record(path, type(record), tensor)
    assert getattr(back, tensor).dtype == np.float64
    assert getattr(back, tensor).tobytes() == getattr(record, tensor).tobytes()
    save(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_grouping_dict_round_trip():
    grouping = Grouping(
        assignment=np.array([0, 1, 1, 2, 0]),
        K=3,
        measure="MAHALANOBIS",
        hubert_scores={"CHEBYSHEV": 1.5, "MAHALANOBIS": 2.5},
    )
    back = Grouping(**json.loads(canonical_json(grouping)))
    assert np.array_equal(back.assignment, grouping.assignment)
    assert back.K == grouping.K
    assert back.measure == grouping.measure
    assert back.hubert_scores == grouping.hubert_scores


def test_grouping_measure_is_a_measure_token():
    grouping = Grouping(assignment=np.array([0, 1]), K=2, measure="MANHATTAN")
    assert grouping.measure is DistanceMeasureId.MANHATTAN
    assert json.loads(canonical_json(grouping))["measure"] == "MANHATTAN"
    for measure in ("FOO", "NONE", "manhattan", 5, None):
        with pytest.raises(ValueError, match="DistanceMeasureId"):
            Grouping(assignment=np.array([0, 1]), K=2, measure=measure)


def assert_same_models(got_models, want_models):
    for got, want in zip(got_models, want_models, strict=True):
        for name in ("weights", "bias", "seen_classes", "feature_mean", "feature_std"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert got.n_train == want.n_train


def test_bundle_round_trip_preserves_models(tmp_path):
    ds = make_dataset(m=12, n_classes=2)
    rng = seeded_rng(derive_seed(3, "storage-bundle"))
    vectors = rng.normal(size=(12, 3))
    vectors[np.arange(12), ds.labels] += 4.0
    bundle = train_per_group(ds, vectors, np.repeat([0, 1], 6), ClassifierSpec(epochs=25))
    path = tmp_path / "bundle.json"
    save_bundle(path, bundle)
    loaded = load_bundle(path)
    assert loaded.n_groups == bundle.n_groups
    assert loaded.kind is bundle.kind
    assert loaded.n_classes == bundle.n_classes
    assert loaded.warnings == bundle.warnings
    assert np.array_equal(loaded.class_presence, bundle.class_presence)
    assert_same_models(loaded.models, bundle.models)
    again = tmp_path / "bundle2.json"
    save_bundle(again, loaded)
    assert path.read_bytes() == again.read_bytes()


def test_bundle_with_a_single_class_group_round_trips(tmp_path):
    ds = make_dataset(m=12, n_classes=2)
    ds.labels[:6] = 1  # group 0 holds only class 1
    vectors = seeded_rng(5).normal(size=(12, 3))
    bundle = train_per_group(ds, vectors, np.repeat([0, 1], 6), ClassifierSpec(epochs=25))
    assert bundle.models[0].weights.shape == (3, 1)
    assert bundle.warnings == ["group 0 contains only class 1; constant predictor"]
    save_bundle(tmp_path / "bundle.json", bundle)
    loaded = load_bundle(tmp_path / "bundle.json")
    assert_same_models(loaded.models, bundle.models)
    assert loaded.warnings == bundle.warnings
    probe = seeded_rng(6).normal(size=(20, 3))
    for g in range(2):
        assert np.array_equal(predict(loaded, g, None, probe), predict(bundle, g, None, probe))
    assert set(predict(loaded, 0, None, probe)) == {1}


def test_bundle_rejects_weights_of_wrong_shape(tmp_path):
    ds = make_dataset(m=12, n_classes=2)
    vectors = seeded_rng(4).normal(size=(12, 3))
    path = tmp_path / "bundle.json"
    save_bundle(path, train_per_group(ds, vectors, np.repeat([0, 1], 6), ClassifierSpec(epochs=5)))
    data = read_json(path)
    weights = data["models"][0]["weights"]
    for bad in (weights[:-1], weights + [weights[0]], [row[:-1] for row in weights],
                [weights[0][:-1], *weights[1:]], sum(weights, []), "weights"):
        write_json(path, {**data, "models": [{**data["models"][0], "weights": bad}, data["models"][1]]})
        with pytest.raises(ValueError):
            load_bundle(path)


def test_bundle_rejects_unknown_format(tmp_path):
    path = tmp_path / "bundle.json"
    # A bundle as a zip archive, and a JSON object that is not a bundle record.
    write_archive(path, {"manifest.json": canonical_json({"format": "group-bundle-v1"}).encode()})
    with pytest.raises(ValueError):
        load_bundle(path)
    write_json(path, {"format": "group-bundle-v1"})
    with pytest.raises(TypeError):
        load_bundle(path)
