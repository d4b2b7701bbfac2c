"""Command-line exit codes and the end-to-end synthetic workflow."""

import argparse
import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsgroups.autoencoder import param_shapes
from tsgroups.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, _load, build_parser, main
from tsgroups.ingest import SyntheticSpec
from tsgroups.pipeline import ARTIFACTS, PipelineConfig
from tsgroups.storage import content_digest, read_archive, write_archive


def write_config(directory, **overrides):
    run_dir = directory / "run"
    config = {
        "paths": {"out_dir": str(run_dir)},
        "ingest": {"seed": 3, "synthetic": {"windows_per_class": 12, "t": 20, "d": 3, "seed": 3}},
        "autoencoder": {"hidden1": 6, "hidden2": 3, "epochs": 4, "seed": 3},
        "cgf": {"tau": 0.05},
        "classifier": {"kind": "SOFTMAX_STATS", "epochs": 120, "seed": 3},
        "mapping": {"method": "AVG"},
    }
    config.update(overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path, run_dir


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliflow")
    config_path, run_dir = write_config(base)
    assert main(["ingest", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    assert main(["infer", "--config", str(config_path)]) == EXIT_OK
    assert main(["report", "--out", str(run_dir)]) == EXIT_OK
    return config_path, run_dir


def test_parser_accepts_every_verb():
    parser = build_parser()
    assert parser.parse_args(["ingest", "--synthetic"]).command == "ingest"
    assert parser.parse_args(["train", "--epochs", "3"]).command == "train"
    assert parser.parse_args(["infer", "--mapping", "CR_CR"]).command == "infer"
    assert parser.parse_args(["report", "--out", "somewhere"]).command == "report"


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    for retired in (["selftest"], ["gradcheck"], ["train", "--baseline-only"], ["infer", "--baseline-only"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(retired)


def test_unknown_config_section_exits_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "r")}, "bogus": {}}))
    assert main(["ingest", "--config", str(path)]) == EXIT_CONFIG


def test_retired_train_section_exits_config(tmp_path, capsys):
    config_path, run_dir = write_config(tmp_path, train={"baseline": True})
    assert main(["ingest", "--config", str(config_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: unknown section 'train'")
    assert not run_dir.exists()


def test_unknown_key_in_section_exits_config(tmp_path):
    config_path, _ = write_config(tmp_path)
    data = json.loads(config_path.read_text())
    data["ingest"]["mystery_knob"] = 1
    config_path.write_text(json.dumps(data))
    assert main(["ingest", "--config", str(config_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
@pytest.mark.parametrize("section, key", [("ingest", "normalize")])
def test_bool_key_takes_only_true_or_false(tmp_path, capsys, section, key, value):
    config_path, _ = write_config(tmp_path)
    data = json.loads(config_path.read_text())
    data[section][key] = value
    config_path.write_text(json.dumps(data))
    assert main(["ingest", "--config", str(config_path)]) == EXIT_CONFIG
    assert f"{key} must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("autoencoder", "epochs"), ("autoencoder", "batch_size"),
                                          ("classifier", "epochs")])
def test_json_true_is_not_a_number(tmp_path, capsys, section, key):
    config_path, _ = write_config(tmp_path)
    data = json.loads(config_path.read_text())
    data[section][key] = True
    config_path.write_text(json.dumps(data))
    assert main(["train", "--config", str(config_path)]) == EXIT_CONFIG
    assert f"{key} must be int, got True" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [("paths", None), ("ingest", [])])
def test_section_that_is_not_an_object_exits_config(tmp_path, capsys, section, value):
    config_path, _ = write_config(tmp_path, **{section: value})
    assert main(["ingest", "--config", str(config_path)]) == EXIT_CONFIG
    assert f"{section} must be a JSON object" in capsys.readouterr().err


def test_ingest_without_any_source_exits_config(tmp_path):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "r")}}))
    assert main(["ingest", "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("paths, ingest, code, message", [
    ({"dataset_root": "nowhere"}, {}, EXIT_IO, "io error: corpus root nowhere is not a directory"),
    ({"dataset_root": "."}, {"column_map": {"acc_x": -1}}, EXIT_CONFIG,
     "config error: ingest.column_map: column acc_x must be a non-negative int"),
    # A value of another JSON type stops ingest at config read, not partway through.
    ({"dataset_root": "."}, {"accelerometer_filename": ["x"]}, EXIT_CONFIG,
     "config error: ingest.accelerometer_filename must be a string, got ['x']"),
    ({}, {"synthetic": {"frequencies": "abc"}}, EXIT_CONFIG,
     "config error: ingest.synthetic.frequencies must be a list, got 'abc'"),
    ({}, {"road": 7, "synthetic": {}}, EXIT_CONFIG, "config error: ingest.road must be a string, got 7"),
    ({}, {"road": "FOO", "synthetic": {}}, EXIT_CONFIG,
     "config error: ingest.road must be one of ('MOTORWAY', 'SECONDARY') or None, got 'FOO'"),
], ids=["missing-root", "bad-column-map", "filename-list", "frequencies-string", "road-number", "road-unknown"])
def test_ingest_with_a_bad_corpus_makes_no_run_directory(tmp_path, capsys, paths, ingest, code, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "r"), **paths}, "ingest": ingest}))
    assert main(["ingest", "--config", str(path)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "r").exists()


def test_infer_without_artifacts_exits_io(tmp_path):
    config_path, run_dir = write_config(tmp_path)
    run_dir.mkdir()
    assert main(["infer", "--config", str(config_path)]) == EXIT_IO


def test_test_split_too_small_to_group_fails_before_writing(tmp_path, capsys):
    # One archetype of one class at train_fraction 0.97 leaves a single test window.
    synthetic = {"frequencies": [1.0], "amplitudes": [1.0], "noise_sigmas": [0.1],
                 "class_effect_signs": [1], "C": 1, "windows_per_class": 30, "t": 20, "d": 3, "seed": 3}
    config_path, run_dir = write_config(
        tmp_path, ingest={"seed": 3, "train_fraction": 0.97, "synthetic": synthetic})
    assert main(["ingest", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    before = sorted(path.name for path in run_dir.iterdir())
    capsys.readouterr()
    assert main(["infer", "--config", str(config_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: the test split has 1 instances, too few to group: "
                                       "k_start 2 needs at least 3\n")
    assert sorted(path.name for path in run_dir.iterdir()) == before
    assert ARTIFACTS["aecs_test"] not in before and ARTIFACTS["manifest_infer"] not in before


def test_train_split_too_small_to_group_fails_before_writing(tmp_path, capsys):
    config_path, run_dir = write_config(tmp_path, cgf={"tau": 0.05, "k_start": 200, "k_max": 200})
    assert main(["ingest", "--config", str(config_path)]) == EXIT_OK
    before = sorted(path.name for path in run_dir.iterdir())
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == EXIT_CONFIG
    assert re.fullmatch(r"config error: the train split has \d+ instances, too few to group: "
                        r"k_start 200 needs at least 201\n", capsys.readouterr().err)
    assert sorted(path.name for path in run_dir.iterdir()) == before


def test_report_on_missing_directory_exits_io(tmp_path, capsys):
    missing = tmp_path / "never_made"
    assert main(["report", "--out", str(missing)]) == EXIT_IO
    assert capsys.readouterr().err == f"io error: run directory {missing} does not exist\n"
    assert list(tmp_path.iterdir()) == []


def test_full_flow_writes_expected_artifacts(completed_run):
    _, run_dir = completed_run
    expected = [
        "train_dataset.zip", "test_dataset.zip", "ingest_report.json",
        "model.bin", "aecs_train.zip", "cgf_train.json", "bundle_grouped.json",
        "bundle_baseline.json", "manifest_ingest.json", "manifest_train.json",
        "manifest_infer.json", "aecs_test.zip", "cgf_test.json",
        "mapping_avg.json", "mapping_cr_cr.json", "predictions.csv",
        "metrics.json", "infer_report.json", "composition_train.csv",
        "pca_train.csv", "hubert_scores.csv", "mapping_summary.csv",
        "report_summary.json",
    ]
    for name in expected:
        assert (run_dir / name).is_file(), name


def test_full_flow_outputs_parse(completed_run):
    _, run_dir = completed_run
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert 0.0 <= metrics["f1_macro"] <= 1.0
    header = (run_dir / "predictions.csv").read_text().splitlines()[0]
    assert header.startswith("instance_index,predicted")
    infer_report = json.loads((run_dir / "infer_report.json").read_text())
    assert "baseline" in infer_report and "delta_f1_macro" in infer_report
    rows = [line.split(",") for line in (run_dir / "predictions.csv").read_text().splitlines()[1:]]
    assert rows and all(row[2].isdigit() for row in rows)  # the true class of every row
    summary = json.loads((run_dir / "report_summary.json").read_text())
    assert summary["notices"] == []
    assert len(summary["written"]) == 5


# Each writing verb's stage_timings keys, in the order it runs them.
VERB_STAGES = {
    "ingest": ["parse", "split"],
    "train": ["fit_autoencoder", "transform", "cgf", "train_groups", "train_baseline"],
    "infer": ["transform", "test_cgf", "mapping"],
}


def test_manifests_list_what_each_verb_wrote(tmp_path):
    config_path, run_dir = write_config(tmp_path)
    written, before = {}, set()
    for verb in VERB_STAGES:
        assert main([verb, "--config", str(config_path)]) == EXIT_OK
        after = {path.name for path in run_dir.iterdir()}
        written[verb], before = after - before - {f"manifest_{verb}.json"}, after
    for verb, stages in VERB_STAGES.items():
        manifest = json.loads((run_dir / f"manifest_{verb}.json").read_text())
        assert {ARTIFACTS[name] for name in manifest["files"]} == written[verb], verb
        for name, digest in manifest["files"].items():
            assert digest == content_digest(run_dir / ARTIFACTS[name]), (verb, name)
        assert list(manifest["stage_timings"]) == sorted(stages), verb
    (run_dir / "manifest_infer.json").unlink()
    truncate(run_dir / "bundle_grouped.json")
    assert main(["infer", "--config", str(config_path)]) == EXIT_IO
    assert not (run_dir / "manifest_infer.json").exists()


def test_seed_override_lands_in_manifest(tmp_path):
    config_path, _ = write_config(tmp_path)
    other = tmp_path / "other_run"
    code = main(["ingest", "--config", str(config_path), "--out", str(other), "--seed", "11"])
    assert code == EXIT_OK
    manifest = json.loads((other / "manifest_ingest.json").read_text())
    assert manifest["config"]["ingest"]["seed"] == 11
    assert manifest["config"]["autoencoder"]["seed"] == 11


def test_classifier_seed_moves_no_bundle(completed_run, tmp_path):
    # Softmax training starts from zero weights and uses no randomness; the seed is recorded in the manifest only.
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    config = json.loads(config_path.read_text())
    config["paths"]["out_dir"] = str(copy)
    config["classifier"]["seed"] += 1
    other = tmp_path / "config.json"
    other.write_text(json.dumps(config))
    assert main(["train", "--config", str(other)]) == EXIT_OK
    for name in ("bundle_grouped.json", "bundle_baseline.json"):
        assert content_digest(copy / name) == content_digest(run_dir / name), name
    manifest = json.loads((copy / "manifest_train.json").read_text())
    assert manifest["config"]["classifier"]["seed"] == config["classifier"]["seed"]


def test_flags_replace_only_their_values(tmp_path):
    config_path, _ = write_config(tmp_path)
    parse = build_parser().parse_args
    config = _load(parse(["train", "--config", str(config_path), "--epochs", "7", "--tau", "0.2",
                          "--seed", "4"]))
    assert (config.autoencoder.epochs, config.cgf.tau) == (7, 0.2)
    assert config.ingest.seed == config.autoencoder.seed == config.classifier.seed == 4
    assert config.autoencoder.hidden1 == 6 and config.cgf.linkage == "AVERAGE"
    config = _load(parse(["infer", "--config", str(config_path), "--mapping", "CR_CR"]))
    assert config.mapping.method == "CR_CR"
    config = _load(parse(["ingest", "--synthetic", "--dataset-root", "corpus", "--out", "elsewhere"]))
    assert config.ingest.synthetic == SyntheticSpec()
    assert (config.paths.dataset_root, config.out_dir) == ("corpus", "elsewhere")


@pytest.mark.parametrize("flag, value", [("--tau", "1.5"), ("--epochs", "0")])
def test_flag_is_checked_like_a_file_value(tmp_path, capsys, flag, value):
    config_path, _ = write_config(tmp_path)
    assert main(["train", "--config", str(config_path), flag, value]) == EXIT_CONFIG
    assert flag.lstrip("-") in capsys.readouterr().err


def flip_middle_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def truncate(path):
    path.write_bytes(path.read_bytes()[:300])


def drop_grouping_fields(path):
    path.write_text(json.dumps({"grouping": {}}))


def shorten_assignment(path):
    data = json.loads(path.read_text())
    data["grouping"]["assignment"] = [0]
    path.write_text(json.dumps(data))


def out_of_range_group_id(path):
    data = json.loads(path.read_text())
    assert data["grouping"]["K"] < 7
    data["grouping"]["assignment"][0] = 7
    path.write_text(json.dumps(data))


def edit_json(edit):
    def damage(path):
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
    return damage


def move_one_instance(path):
    """A valid grouping whose group sizes differ from the mapping reports' ones."""
    def edit(data):
        assignment = data["grouping"]["assignment"]
        largest = max(range(data["grouping"]["K"]), key=assignment.count)
        assert assignment.count(largest) > 1
        assignment[assignment.index(largest)] = (largest + 1) % data["grouping"]["K"]
    edit_json(edit)(path)


def lengthen_assignment_without(other):
    """One more grouped row than the other of the two files the grouping must match."""
    def damage(path):
        edit_json(lambda d: d["grouping"]["assignment"].append(0))(path)
        path.with_name(other).unlink()
    return damage


def edit_entry(name, edit):
    def damage(path):
        entries = read_archive(path)
        entries[name] = edit(entries[name])
        write_archive(path, entries)
    return damage


def json_edit(edit):
    return lambda raw: json.dumps(edit(json.loads(raw))).encode()


def shift_first_vector(path):
    """Row 0 of a representation archive moved by +1; the archive still reads."""
    entries = read_archive(path)
    width = json.loads(entries["header.json"])["shape"][1]
    vectors = np.frombuffer(entries["vectors.f8"], dtype="<f8").copy()
    vectors[:width] += 1.0
    entries["vectors.f8"] = vectors.tobytes()
    write_archive(path, entries)


def swap_two_groups(data):
    """Two rows of different groups trade places: still a valid grouping, with the same sizes."""
    assignment = data["grouping"]["assignment"]
    other = next(i for i, g in enumerate(assignment) if g != assignment[0])
    assignment[0], assignment[other] = assignment[other], assignment[0]


def old_model_layout(path):
    """The model file as it was written before it became an archive: a JSON header line, then the weights."""
    entries = read_archive(path)
    header = json.loads(entries["header.json"])
    shapes = param_shapes(header["d"], header["config"]["hidden1"], header["config"]["hidden2"])
    header.update(format="lstm-autoencoder-v2", shapes={key: list(shape) for key, shape in shapes.items()})
    del header["shape"]
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + entries["weights.f8"])


MODEL_HEADER_EDITS = [
    lambda h: [],
    lambda h: {**h, "config": {**h["config"], "mystery_knob": 1}},
    lambda h: {**h, "config": {**h["config"], "hidden1": str(h["config"]["hidden1"])}},
    lambda h: {**h, "config": {**h["config"], "epochs": True}},
    lambda h: {**h, "config": None},
    lambda h: {**h, "d": None},
    lambda h: {**h, "d": float(h["d"])},
    lambda h: {**h, "shape": []},
]


def test_corrupt_model_exits_io(completed_run, tmp_path, capsys):
    config_path, run_dir = completed_run
    cases = [
        ("model.bin", flip_middle_byte, "infer"),
        ("aecs_train.zip", truncate, "infer"),
        ("cgf_train.json", drop_grouping_fields, "report"),
        ("cgf_train.json", shorten_assignment, "report"),
        ("cgf_train.json", lambda path: path.write_text("[]"), "report"),
        ("cgf_test.json", lambda path: path.write_text("[]"), "report"),
        ("cgf_train.json", out_of_range_group_id, "report"),
        ("cgf_train.json", edit_json(lambda d: d["grouping"].update(K=True)), "report"),
        ("cgf_train.json", edit_json(lambda d: d["grouping"].update(K=str(d["grouping"]["K"]))),
         "report"),
        ("cgf_train.json", edit_json(lambda d: d["grouping"].update(measure=5)), "report"),
        ("cgf_train.json", edit_json(lambda d: d["grouping"].update(hubert_scores=[])), "report"),
        ("cgf_train.json", edit_json(lambda d: d["grouping"]["hubert_scores"].update(CHEBYSHEV=True)),
         "report"),
        ("cgf_train.json", edit_json(lambda d: d["grouping"]["hubert_scores"].update(FOO=0.5)), "report"),
        ("cgf_train.json", lengthen_assignment_without("aecs_train.zip"), "report"),
        ("cgf_train.json", lengthen_assignment_without("train_dataset.zip"), "report"),
        ("cgf_test.json", move_one_instance, "report"),
        ("mapping_avg.json", edit_json(lambda d: d["distances"][0].append(0.0)), "report"),
        ("mapping_cr_cr.json", edit_json(lambda d: d.update(distances=d["distances"][0])), "report"),
        # A file in the layout before the mapping held one distance matrix.
        ("mapping_avg.json", edit_json(lambda d: d.update(rows=[
            {"test_group": j, "test_group_size": 1, "chosen_train_group": row.index(min(row)),
             "candidate_distances": row} for j, row in enumerate(d.pop("distances"))])), "report"),
        ("test_dataset.zip", edit_entry("header.json", json_edit(
            lambda h: {**h, "driver_ids": h["driver_ids"][:-1]})), "infer"),
        ("test_dataset.zip", edit_entry("header.json", json_edit(lambda h: {**h, "labels": None})),
         "infer"),
        ("test_dataset.zip", edit_entry("header.json", json_edit(
            lambda h: {k: v for k, v in h.items() if k != "labels"})), "infer"),
        ("bundle_grouped.json", edit_json(lambda d: d.update(kind="SOFTMAX_RAW")), "infer"),
        # Files written before the records dropped their provenance tags.
        ("bundle_grouped.json", edit_json(lambda d: d.update(spec={"kind": d.pop("kind")})), "infer"),
        ("bundle_grouped.json", edit_json(lambda d: d.update(n_classes=True)), "infer"),
        # Edits every reader takes; only the manifest's digest tells.
        ("aecs_train.zip", shift_first_vector, "infer"),
        ("mapping_avg.json", edit_json(lambda d: d["distances"][0].__setitem__(0, d["distances"][0][0] + 1.0)),
         "report"),
        ("manifest_train.json", lambda path: path.write_text("[]"), "infer"),
        ("manifest_ingest.json", lambda path: path.unlink(), "train"),
        ("manifest_ingest.json", lambda path: path.unlink(), "infer"),
    ] + [("model.bin", edit_entry("header.json", json_edit(edit)), "infer")
         for edit in MODEL_HEADER_EDITS] + [("model.bin", old_model_layout, "infer")]
    for index, (name, damage, verb) in enumerate(cases):
        copy = tmp_path / f"{index}-{name}"
        shutil.copytree(run_dir, copy)
        damage(copy / name)
        if verb == "report":
            args = ["report", "--out", str(copy)]
        else:
            args = [verb, "--config", str(config_path), "--out", str(copy)]
        assert main(args) == EXIT_IO, (index, name)
    assert capsys.readouterr().err.splitlines()[-1].endswith("; run train again")  # the old layout, last case


def merge_last_group(data):
    """A valid grouping of one group fewer than the bundles have models."""
    k = data["grouping"]["K"] - 1
    assert k >= 1
    data["grouping"].update(K=k, assignment=[min(g, k - 1) for g in data["grouping"]["assignment"]])
    data["accepted_k"] = k


# Damage to each record file: (artifacts it applies to, edit, and the verbs it is an error
# under when not every verb that reads the file). Every case must be an io error.
BUNDLES = ("bundle_grouped.json", "bundle_baseline.json")
CGF_FILES = ("cgf_train.json", "cgf_test.json")
READERS = {"bundle_grouped.json": ("infer",), "bundle_baseline.json": ("infer",),
           "cgf_train.json": ("infer", "report"), "cgf_test.json": ("report",)}
RECORD_DAMAGE = {
    "truncated": (BUNDLES + CGF_FILES, truncate),
    "not-an-object": (BUNDLES + CGF_FILES, lambda path: path.write_text("[]")),
    "unknown-key": (BUNDLES + CGF_FILES, edit_json(lambda d: d.update(lane=1))),
    "wrong-type": (BUNDLES, edit_json(lambda d: d.update(n_classes=float(d["n_classes"])))),
    "wrong-type-cgf": (CGF_FILES, edit_json(lambda d: d.update(accepted_k=str(d["accepted_k"])))),
    "weights-shape": (BUNDLES, edit_json(lambda d: d["models"][0].update(
        weights=d["models"][0]["weights"][:-1]))),
    "group-id-not-below-K": (CGF_FILES, edit_json(
        lambda d: d["grouping"]["assignment"].__setitem__(0, d["grouping"]["K"]))),
    "accepted-k-not-K": (CGF_FILES, edit_json(lambda d: d.update(accepted_k=d["accepted_k"] + 1))),
    # Every model one feature short: each model's shapes agree, but not with the run.
    "one-feature-short": (BUNDLES, edit_json(lambda d: [model.update(
        weights=model["weights"][:-1], feature_mean=model["feature_mean"][:-1],
        feature_std=model["feature_std"][:-1]) for model in d["models"]])),
    "class-out-of-range": (BUNDLES, edit_json(lambda d: d["models"][0].update(
        seen_classes=[c + d["n_classes"] for c in d["models"][0]["seen_classes"]]))),
    "unknown-measure": (CGF_FILES, edit_json(lambda d: d["grouping"].update(measure="FOO"))),
    # Still a valid grouping for report; only infer, which also reads the bundles, can tell.
    "K-not-model-count": (("cgf_train.json",), edit_json(merge_last_group), ("infer",)),
    # One row more than aecs_train.zip and train_dataset.zip have.
    "rows-not-aecs-train": (("cgf_train.json",), edit_json(
        lambda d: d["grouping"]["assignment"].append(0))),
    # A field of another JSON type than its record declares.
    "trace-a-number": (CGF_FILES, edit_json(lambda d: d.update(trace=5))),
    "fingerprint-a-number": (CGF_FILES, edit_json(lambda d: d.update(dendrogram_fingerprint=5))),
    "assignment-strings": (CGF_FILES, edit_json(
        lambda d: d["grouping"].update(assignment=[str(g) for g in d["grouping"]["assignment"]]))),
    "assignment-fractions": (CGF_FILES, edit_json(
        lambda d: d["grouping"].update(assignment=[g + 0.5 for g in d["grouping"]["assignment"]]))),
    "seen-classes-fractions": (BUNDLES, edit_json(lambda d: d["models"][0].update(
        seen_classes=[c + 0.25 for c in d["models"][0]["seen_classes"]]))),
    # Model 0's classes written as a class-presence row of true and false, which an array of ints refuses.
    "presence-as-numbers": (BUNDLES, edit_json(lambda d: d["models"][0].update(
        seen_classes=[c in d["models"][0]["seen_classes"] for c in range(d["n_classes"])]))),
    "warnings-a-string": (BUNDLES, edit_json(lambda d: d.update(models="abc"))),
    # Files in the layout before the fields that repeat another were dropped.
    "holds-class-presence": (BUNDLES, edit_json(lambda d: d.update(
        class_presence=[[c in model["seen_classes"] for c in range(d["n_classes"])] for model in d["models"]]))),
    "holds-rejected-size": (CGF_FILES, edit_json(lambda d: d.update(rejected_size=1))),
    "model-holds-n-train": (BUNDLES, edit_json(lambda d: [model.update(n_train=3) for model in d["models"]])),
    # A K far above the row count is refused before any array of K ids is built.
    "K-far-above-rows": (CGF_FILES, edit_json(lambda d: d["grouping"].update(K=10**12))),
    # Edits the records take; only the manifest's digest tells.
    "two-rows-swapped": (CGF_FILES, edit_json(swap_two_groups)),
    "weights-plus-one": (BUNDLES, edit_json(lambda d: d["models"][0].update(
        weights=[[w + 1.0 for w in row] for row in d["models"][0]["weights"]]))),
}
# Damage only a check across files can find; every other row is refused by the file's own reader.
ACROSS_FILES = {"one-feature-short", "K-not-model-count", "rows-not-aecs-train"}


@pytest.mark.parametrize("name, damage", [
    (name, damage) for damage, (names, *_) in RECORD_DAMAGE.items() for name in names])
def test_damaged_record_file_exits_io(completed_run, tmp_path, capsys, name, damage):
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    _, edit, *verbs = RECORD_DAMAGE[damage]
    edit(copy / name)
    (copy / "aecs_test.zip").unlink()  # infer's first write
    for verb in verbs[0] if verbs else READERS[name]:
        args = ["report", "--out", str(copy)] if verb == "report" else [
            "infer", "--config", str(config_path), "--out", str(copy)]
        capsys.readouterr()
        assert main(args) == EXIT_IO, verb
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1 and "Traceback" not in err, err
        assert name in err, err
        if damage not in ACROSS_FILES:
            writer = "infer" if name == "cgf_test.json" else "train"
            assert re.fullmatch(rf"io error: corrupt {re.escape(name)}: .*; run {writer} again\n", err), err
        assert not (copy / "aecs_test.zip").exists()


# Header edits to each dataset archive, with the verbs that read it.
DATASET_READERS = {"train_dataset.zip": ("train", "report"), "test_dataset.zip": ("infer",)}
DATASET_DAMAGE = {
    "class-names-of-other-types": lambda h: {**h, "class_names": [0, {"x": 1}, None]},
    "driver-id-a-number": lambda h: {**h, "driver_ids": [5, *h["driver_ids"][1:]]},
    # The layout before the header kept one driver id per window.
    "holds-meta": lambda h: {**{k: v for k, v in h.items() if k != "driver_ids"}, "meta": [
        {"driver_id": driver, "behavior": h["class_names"][label], "road": "MOTORWAY", "session_id": "s"}
        for driver, label in zip(h["driver_ids"], h["labels"])]},
    "labels-fractions": lambda h: {**h, "labels": [label + 0.5 for label in h["labels"]]},
}


@pytest.mark.parametrize("name, damage", [(name, damage) for damage in DATASET_DAMAGE for name in DATASET_READERS])
def test_damaged_dataset_header_exits_io(completed_run, tmp_path, capsys, name, damage):
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    edit_entry("header.json", json_edit(DATASET_DAMAGE[damage]))(copy / name)
    before = {path.name: path.read_bytes() for path in copy.iterdir()}
    for verb in DATASET_READERS[name]:
        args = ["report", "--out", str(copy)] if verb == "report" else [
            verb, "--config", str(config_path), "--out", str(copy)]
        capsys.readouterr()
        assert main(args) == EXIT_IO, verb
        err = capsys.readouterr().err
        assert re.fullmatch(rf"io error: corrupt {re.escape(name)}: .*; run ingest again\n", err), err
        assert {path.name: path.read_bytes() for path in copy.iterdir()} == before


def test_infer_in_a_run_with_zip_bundles_asks_for_train(completed_run, tmp_path, capsys):
    # Bundles were zip archives before they were JSON records.
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    for name in BUNDLES:
        (copy / name).unlink()
        write_archive(copy / name.replace(".json", ".zip"),
                      {"manifest.json": json.dumps({"format": "group-bundle-v1"}).encode()})
    capsys.readouterr()
    assert main(["infer", "--config", str(config_path), "--out", str(copy)]) == EXIT_IO
    assert capsys.readouterr().err == (f"io error: missing artifact {copy / 'bundle_grouped.json'}; "
                                       f"run train first\n")


# Every input of train and infer, with the verb that reads it and the verb that writes it.
VERB_INPUTS = [
    ("train", "train_dataset.zip", "ingest"),
    ("infer", "test_dataset.zip", "ingest"),
    ("infer", "model.bin", "train"),
    ("infer", "aecs_train.zip", "train"),
    ("infer", "cgf_train.json", "train"),
    ("infer", "bundle_grouped.json", "train"),
    ("infer", "bundle_baseline.json", "train"),
]


@pytest.mark.parametrize("verb, name, writer", VERB_INPUTS)
def test_missing_input_asks_for_the_verb_that_writes_it(completed_run, tmp_path, capsys, verb, name, writer):
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    for gone in (name, "aecs_test.zip", f"manifest_{verb}.json"):
        (copy / gone).unlink()
    capsys.readouterr()
    assert main([verb, "--config", str(config_path), "--out", str(copy)]) == EXIT_IO
    assert capsys.readouterr().err == f"io error: missing artifact {copy / name}; run {writer} first\n"
    assert not (copy / "aecs_test.zip").exists()
    assert not (copy / f"manifest_{verb}.json").exists()


@pytest.mark.parametrize("name", ["aecs_train.zip", "model.bin"])
def test_flipped_end_record_byte_reads_alike_or_names_the_file(completed_run, tmp_path, capsys, name):
    # The last 22 bytes are the archive's end record. Some of its fields no reader uses; a flip
    # elsewhere in it (an offset past the end of the file raises OSError) must name the file.
    config_path, run_dir = completed_run
    expected = (run_dir / "predictions.csv").read_bytes()
    for offset in range(1, 23):
        copy = tmp_path / f"run{offset}"
        shutil.copytree(run_dir, copy)
        (copy / "predictions.csv").unlink()
        blob = bytearray((copy / name).read_bytes())
        blob[-offset] ^= 0xFF
        (copy / name).write_bytes(bytes(blob))
        capsys.readouterr()
        code = main(["infer", "--config", str(config_path), "--out", str(copy)])
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert (copy / "predictions.csv").read_bytes() == expected, offset
        else:
            assert code == EXIT_IO, offset
            assert re.fullmatch(rf"io error: corrupt {re.escape(name)}: .*; run train again\n", err), offset
            assert not (copy / "predictions.csv").exists()


# Each writing verb, each verb that reads its manifest, and the first input that verb checks against it.
MANIFEST_READERS = [
    ("ingest", "train", "train_dataset"),
    ("ingest", "infer", "test_dataset"),
    ("ingest", "report", "train_dataset"),
    ("train", "infer", "model"),
    ("train", "report", "cgf_train"),
    ("infer", "report", "mapping_avg"),
]
# What report writes.
REPORT_OUTPUTS = ["composition_train.csv", "pca_train.csv", "hubert_scores.csv", "mapping_summary.csv",
                  "composition_test.csv", "report_summary.json"]
# Damage to a manifest, given the input whose entry it edits.
MANIFEST_DAMAGE = {
    "missing": lambda key: lambda path: path.unlink(),
    "not-an-object": lambda key: lambda path: path.write_text("[]"),
    "entry-removed": lambda key: edit_json(lambda d: d["files"].pop(key)),
    "digest-changed": lambda key: edit_json(lambda d: d["files"].update({key: "0" * 64})),
}


@pytest.mark.parametrize("damage", MANIFEST_DAMAGE)
@pytest.mark.parametrize("writer, verb, key", MANIFEST_READERS)
def test_input_its_manifest_does_not_vouch_for_exits_io(completed_run, tmp_path, capsys, writer, verb, key,
                                                        damage):
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    manifest, name = f"manifest_{writer}.json", ARTIFACTS[key]
    MANIFEST_DAMAGE[damage](key)(copy / manifest)
    (copy / "aecs_test.zip").unlink()  # infer's first write
    if verb == "report":  # so a table written before a failed read shows
        for output in REPORT_OUTPUTS:
            (copy / output).unlink()
    before = {path.name: path.read_bytes() for path in copy.iterdir()}
    args = ["report", "--out", str(copy)] if verb == "report" else [
        verb, "--config", str(config_path), "--out", str(copy)]
    capsys.readouterr()
    assert main(args) == EXIT_IO
    err = capsys.readouterr().err
    assert re.fullmatch(rf"io error: corrupt {re.escape(name)}: .*\b{re.escape(manifest)}\b.*; "
                        rf"run {writer} again\n", err), err
    assert {path.name: path.read_bytes() for path in copy.iterdir()} == before


def test_report_refusing_a_reingested_dataset_writes_nothing(completed_run, tmp_path, capsys):
    # ingest may run again after train; its manifest then vouches for a dataset the grouping does not fit.
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    for output in REPORT_OUTPUTS:
        (copy / output).unlink()
    config = json.loads(config_path.read_text())
    config["paths"]["out_dir"] = str(copy)
    config["ingest"]["train_fraction"] = 0.5
    other = tmp_path / "config.json"
    other.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(other)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in copy.iterdir()}
    capsys.readouterr()
    assert main(["report", "--out", str(copy)]) == EXIT_IO
    assert "differ in row count" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in copy.iterdir()} == before


@pytest.mark.parametrize("verb", ["train", "infer"])
def test_verb_on_a_missing_run_directory_makes_none(tmp_path, verb):
    config_path, _ = write_config(tmp_path)
    missing = tmp_path / "never_made"
    assert main([verb, "--config", str(config_path), "--out", str(missing)]) == EXIT_IO
    assert not missing.exists()


@pytest.mark.parametrize("ingest, message", [
    ({"column_map": {"acc_x": -1, "lane": 3}}, "config error: ingest.column_map: unknown keys ['lane']"),
    ({"synthetic": {"windows_per_class": 12, "t": 1, "d": 3}},
     "config error: ingest.synthetic: counts must be positive"),
], ids=["column-map", "synthetic"])
@pytest.mark.parametrize("verb", ["train", "infer"])
def test_bad_ingest_recipe_stops_every_verb(completed_run, tmp_path, capsys, verb, ingest, message):
    # Only ingest uses the recipes, but every verb reads the config, and the config is checked whole.
    config_path, run_dir = completed_run
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    before = {path.name: path.read_bytes() for path in copy.iterdir()}
    config = json.loads(config_path.read_text())
    config["ingest"].update(ingest)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    capsys.readouterr()
    assert main([verb, "--config", str(bad), "--out", str(copy)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message)
    assert {path.name: path.read_bytes() for path in copy.iterdir()} == before


def test_report_test_composition_needs_only_cgf_test(completed_run, tmp_path):
    _, run_dir = completed_run
    copy = tmp_path / "no_test_dataset"
    shutil.copytree(run_dir, copy)
    (copy / "test_dataset.zip").unlink()
    (copy / "composition_test.csv").unlink()
    assert main(["report", "--out", str(copy)]) == EXIT_OK
    grouping = json.loads((copy / "cgf_test.json").read_text())["grouping"]
    sizes = [grouping["assignment"].count(g) for g in range(grouping["K"])]
    rows = (copy / "composition_test.csv").read_text().splitlines()
    assert rows == ["group,size"] + [f"{g},{size}" for g, size in enumerate(sizes)]


def test_out_of_range_adam_beta_exits_config(tmp_path, capsys):
    config_path, _ = write_config(tmp_path, autoencoder={"hidden1": 6, "hidden2": 3, "beta1": 1.5})
    assert main(["ingest", "--config", str(config_path)]) == EXIT_CONFIG
    assert "beta1" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # Importing scipy.spatial adds about 0.5 s and 30 MB to the start of every verb.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import sys, tsgroups.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_table_lists_every_verb():
    rows = re.findall(r"^\| `(\w+)` \|", readme_section("CLI reference"), re.MULTILINE)
    verbs = next(action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert sorted(rows) == sorted(verbs)


def test_readme_configuration_lists_every_section_and_key():
    listing = readme_section("Configuration").split("\n\n")[1]
    listed = {}
    for item in re.split(r"^- ", listing, flags=re.MULTILINE)[1:]:
        while re.search(r"\([^()]*\)", item):  # defaults and notes, which name other things
            item = re.sub(r"\([^()]*\)", "", item)
        section, *keys = re.findall(r"`(\w+)`", item)
        listed[section] = set(keys)
    assert listed == {section.name: {key.name for key in dataclasses.fields(section.default_factory)}
                      for section in dataclasses.fields(PipelineConfig)}


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    section = readme_section("Quick start")
    config = re.search(r"<<'EOF'\n(.*?\n)EOF\n", section, re.DOTALL).group(1)
    commands = [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("tsgroups ")]
    assert [args[0] for args in commands] == ["ingest", "train", "infer", "report"]
    (tmp_path / "config.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == EXIT_OK, args
