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

import pytest

from tsgroups.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, _load, build_parser, main
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
    assert f"'{section}'" in capsys.readouterr().err


def test_ingest_without_any_source_exits_config(tmp_path):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "r")}}))
    assert main(["ingest", "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("paths, ingest, code, message", [
    ({"dataset_root": "nowhere"}, {}, EXIT_IO, "io error: corpus root nowhere is not a directory"),
    ({"dataset_root": "."}, {"column_map": {"acc_x": -1}}, EXIT_CONFIG, "config error: bad column_map"),
], ids=["missing-root", "bad-column-map"])
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
    assert config.ingest.synthetic == {}
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


def edit_model_header(edit):
    def damage(path):
        header, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + blob)
    return damage


MODEL_HEADER_EDITS = [
    lambda h: [],
    lambda h: {**h, "config": {**h["config"], "mystery_knob": 1}},
    lambda h: {**h, "config": {**h["config"], "hidden1": str(h["config"]["hidden1"])}},
    lambda h: {**h, "config": {**h["config"], "epochs": True}},
    lambda h: {**h, "config": None},
    lambda h: {**h, "d": None},
    lambda h: {**h, "d": float(h["d"])},
    lambda h: {**h, "shapes": {}},
    lambda h: {**h, "format": "lstm-autoencoder-v1"},
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
        ("mapping_avg.json", edit_json(lambda d: d["rows"][0].update(chosen_train_group=99)),
         "report"),
        ("mapping_cr_cr.json", edit_json(lambda d: d["rows"].pop()), "report"),
        ("test_dataset.zip", edit_entry("header.json", json_edit(
            lambda h: {**h, "meta": [{**h["meta"][0], "lane": 1}, *h["meta"][1:]]})), "infer"),
        ("test_dataset.zip", edit_entry("header.json", json_edit(lambda h: {**h, "labels": None})),
         "infer"),
        ("test_dataset.zip", edit_entry("header.json", json_edit(
            lambda h: {k: v for k, v in h.items() if k != "labels"})), "infer"),
        ("bundle_grouped.json", edit_json(lambda d: d["spec"].update(lane=1)), "infer"),
        ("bundle_grouped.json", edit_json(lambda d: d["models"][0].update(n_train=True)), "infer"),
    ] + [("model.bin", edit_model_header(edit), "infer") for edit in MODEL_HEADER_EDITS]
    for index, (name, damage, verb) in enumerate(cases):
        copy = tmp_path / f"{index}-{name}"
        shutil.copytree(run_dir, copy)
        damage(copy / name)
        if verb == "report":
            args = ["report", "--out", str(copy)]
        else:
            args = [verb, "--config", str(config_path), "--out", str(copy)]
        assert main(args) == EXIT_IO, (index, name)
    assert "retrain" in capsys.readouterr().err.splitlines()[-1]  # the v1 file, last case


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
    "wrong-type-cgf": (CGF_FILES, edit_json(lambda d: d.update(rejected_size="1"))),
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
}


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
        assert not (copy / "aecs_test.zip").exists()


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
