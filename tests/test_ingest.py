"""Corpus parsing, windowing, splitting, normalization, synthesis."""

import json
import logging
import tracemalloc

import numpy as np
import pytest
from reference import rowloop_parse_uah_session

from tsgroups import ingest
from tsgroups.cli import EXIT_CONFIG, main
from tsgroups.ingest import (
    CLASS_NAMES,
    ColumnMap,
    NormalizationStats,
    SyntheticSpec,
    apply_normalization,
    discover_sessions,
    filter_road,
    fit_normalization,
    generate_synthetic,
    parse_session_name,
    parse_uah_session,
    split_indices,
    window_sessions,
)
from tsgroups.pipeline import ARTIFACTS, ConfigError, cmd_ingest, read_config
from tsgroups.storage import canonical_json, content_digest


def write_session(root, name, n_rows=20, start=1.0, bad_rows=()):
    """Create a session directory with a plausible accelerometer file."""
    directory = root / name
    directory.mkdir()
    lines = []
    ts = start
    for i in range(n_rows):
        vals = [f"{ts:.2f}", "1"] + [f"{0.1 * (i + j):.4f}" for j in range(10)]
        lines.append(" ".join(vals))
        ts += 0.01
    for idx, text in bad_rows:
        lines.insert(idx, text)
    (directory / "RAW_ACCELEROMETERS.txt").write_text("\n".join(lines) + "\n")
    return directory


def test_parse_session_name():
    got = parse_session_name("20151111123124-16km-D1-NORMAL1-MOTORWAY")
    assert got == ("D1", "NORMAL", "MOTORWAY")
    assert parse_session_name("D6-DROWSY-SECONDARY")[1:] == ("DROWSY", "SECONDARY")
    with pytest.raises(ValueError):
        parse_session_name("NORMAL-MOTORWAY")
    with pytest.raises(ValueError):
        parse_session_name("D1-MOTORWAY")
    with pytest.raises(ValueError):
        parse_session_name("D1-NORMAL")


def test_parse_session_reads_channels(tmp_path):
    directory = write_session(tmp_path, "20151111-D1-NORMAL1-MOTORWAY", n_rows=5)
    session = parse_uah_session(directory)
    assert session.driver_id == "D1"
    assert session.behavior == "NORMAL"
    assert session.road == "MOTORWAY"
    assert session.samples.shape == (5, 6)
    assert session.rejected_rows == 0
    assert np.all(np.diff(session.timestamps) > 0)
    assert session.samples[0, 0] == pytest.approx(0.3)


def test_parse_session_rejects_bad_rows(tmp_path, caplog):
    bad = [
        (2, "3.00 1 too short"),
        (3, "4.00 1 a b c d e f g h i j"),
        (4, "0.50 1 0 0 0 0 0 0 0 0 0 0"),
    ]
    directory = write_session(tmp_path, "x-D2-AGGRESSIVE-MOTORWAY", n_rows=8, bad_rows=bad)
    with caplog.at_level(logging.WARNING):
        session = parse_uah_session(directory)
    assert session.rejected_rows == 3
    assert session.n_samples == 8
    assert any("rejected" in rec.getMessage() for rec in caplog.records)


def row(ts, *channels, extra=""):
    """One 11-column line: timestamp, four ignored columns, six channels."""
    values = list(channels) + [f"{0.25 * j:.2f}" for j in range(len(channels), 6)]
    return f"{ts} 1 2 3 4 {' '.join(values)}{extra}"


DAMAGED_SESSIONS = {
    "short-extra-blank": "\n".join([
        row("1.0"), "2.0 1 0.1 0.2", row("3.0", extra=" 99 98 97"), "", "   \t  ",
        row("4.0"), "\t", row("5.0"),
    ]) + "\n",
    "tokens": "\n".join([
        row("1.0"), row("2.0", "nan"), row("inf"), row("3.0", "0.1", "1e400"),
        row("4.0", "1_0"), row("\u0665", "\u0661\u0662.\u0665"), row("6.0", "\uff15"),
        row("7.0", "0x10"), row("8.0", "1.5e"), row("9.0", "_1"), row("-nan"),
        row("10.0", "-inf"), row("11.0", "1e-400"), row("Infinity", "1"), row("12.0"),
    ]) + "\n",
    "timestamps": "\n".join([
        row("-0.0"), row("0.0"), row("1.0"), row("1.0"), row("0.5"), row("2.0"),
        row("1.5"), row("1.8"), row("3.0"), row("50.0", "nan"), row("4.0"),
        row("60.0", "bad"), row("5.0"), row("4.5"), row("6.0"),
    ]) + "\n",
    "line-ends": "\r\n".join([row("1.0"), row("2.0"), row("3.0")]) + "\r"
                 + "\r".join([row("4.0"), row("5.0")]) + "\n"
                 + "\n".join([
                     row("6.0").replace(" ", "\f", 3), row("7.0").replace(" ", "\v", 2),
                     row("8.0").replace(" ", "\x85", 4), row("9.0").replace(" ", "\u2028"),
                     "10.0 1\f2 3\x1c4", row("11.0").replace(" ", " \x1e "),
                 ]) + "\n",
}


# 8192 lines puts each whole session in one block.
@pytest.mark.parametrize("block_lines", [8192, 3, 1])
@pytest.mark.parametrize("name", sorted(DAMAGED_SESSIONS))
def test_parse_session_matches_row_loop(tmp_path, monkeypatch, name, block_lines):
    monkeypatch.setattr(ingest, "PARSE_BLOCK_LINES", block_lines)
    directory = tmp_path / f"x-D1-NORMAL-MOTORWAY-{name}"
    directory.mkdir()
    (directory / "RAW_ACCELEROMETERS.txt").write_bytes(DAMAGED_SESSIONS[name].encode("utf-8"))
    assert_same_session(parse_uah_session(directory), rowloop_parse_uah_session(directory))


def test_parse_session_matches_row_loop_on_bad_bytes(tmp_path):
    directory = tmp_path / "x-D1-NORMAL-MOTORWAY"
    directory.mkdir()
    text = "\n".join([row("1.0"), row("2.0", "0.5\udcff"), row("3.0"), row("\udcfe4.0"),
                      row("5.0").replace(" ", "\udcff ", 2), row("6.0")])
    (directory / "RAW_ACCELEROMETERS.txt").write_bytes(
        text.encode("utf-8", "surrogateescape") + b" \xc3")
    got = parse_uah_session(directory)
    assert_same_session(got, rowloop_parse_uah_session(directory))
    assert got.rejected_rows == 3


def test_parse_session_without_valid_rows_raises_like_row_loop(tmp_path):
    directory = tmp_path / "x-D1-NORMAL-MOTORWAY"
    directory.mkdir()
    (directory / "RAW_ACCELEROMETERS.txt").write_text(f"{row('nan')}\nshort row\n{row('x')}")
    for parse in (parse_uah_session, rowloop_parse_uah_session):
        with pytest.raises(ValueError, match="no valid rows"):
            parse(directory)


def write_lines(tmp_path, lines, name="x-D1-NORMAL-MOTORWAY"):
    directory = tmp_path / name
    directory.mkdir()
    (directory / "RAW_ACCELEROMETERS.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory


def good_rows(n):
    return [row(f"{1.0 + 0.01 * i:.2f}", *(f"{0.001 * (i + j):.3f}" for j in range(6)))
            for i in range(n)]


BLOCK, FLOOR = ingest.PARSE_BLOCK_LINES, ingest.PARSE_FLOOR_LINES


@pytest.mark.parametrize("bad", ["9.99 1 short", row("50.0", "1_0"), row("50.0", "oops")])
@pytest.mark.parametrize("at", [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, FLOOR - 1, FLOOR,
                                BLOCK // 2, BLOCK + FLOOR, 2 * BLOCK + 3])
def test_parse_session_bad_line_at_block_edges_matches_row_loop(tmp_path, bad, at):
    lines = good_rows(2 * BLOCK + 7)
    lines[at] = bad
    directory = write_lines(tmp_path, lines)
    got = parse_uah_session(directory)
    assert_same_session(got, rowloop_parse_uah_session(directory))
    # float() reads "1_0", so that row is kept, and its timestamp 50.0 drops every row after it.
    assert got.rejected_rows == (1 if "1_0" not in bad else len(lines) - at - 1)


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("blank", ["", "   \t ", "\f\v"])
def test_parse_session_all_blank_block_matches_row_loop(tmp_path, blank):
    lines = good_rows(BLOCK) + [blank] * BLOCK + good_rows(2 * BLOCK)[BLOCK:] + [blank] * 3
    directory = write_lines(tmp_path, lines)
    got = parse_uah_session(directory)
    assert_same_session(got, rowloop_parse_uah_session(directory))
    assert (got.n_samples, got.rejected_rows) == (2 * BLOCK, 0)
    write_lines(tmp_path, [blank] * BLOCK + ["short"], "y-D1-NORMAL-MOTORWAY")
    with pytest.raises(ValueError, match="no valid rows"):
        parse_uah_session(tmp_path / "y-D1-NORMAL-MOTORWAY")


@pytest.mark.parametrize("columns", [
    ColumnMap(timestamp=0, acc_x=10, acc_y=5, acc_z=0, roll=10, pitch=1, yaw=7),
    ColumnMap(timestamp=11, acc_x=9, acc_y=8, acc_z=7, roll=6, pitch=5, yaw=0),
])
def test_parse_session_unordered_and_repeated_columns_match_row_loop(tmp_path, columns):
    lines = [f"{line} {1.0 + i}" for i, line in enumerate(good_rows(3 * FLOOR))]
    lines[FLOOR] = lines[FLOOR].rsplit(" ", 2)[0]
    directory = write_lines(tmp_path, lines)
    got = parse_uah_session(directory, columns)
    assert_same_session(got, rowloop_parse_uah_session(directory, columns))
    assert got.rejected_rows == 1
    first = lines[0].split()
    assert got.timestamps[0] == float(first[columns.timestamp])
    assert got.samples[0].tolist() == [float(first[i]) for i in columns.channel_indices()]


@pytest.mark.parametrize("token", ["1\x002", "\x001", "1\x00", "0.5\u200b", "\u200b0.5",
                                   "1\u2060", "\ufeff1.0", "1\u200d5", "#1"])
def test_parse_session_nul_zero_width_or_hash_in_a_token_match_row_loop(tmp_path, token):
    lines = good_rows(3 * FLOOR)
    lines[FLOOR + 1] = row(lines[FLOOR + 1].split()[0], token)
    lines[2 * FLOOR] = row(token)
    directory = write_lines(tmp_path, lines)
    got = parse_uah_session(directory)
    assert_same_session(got, rowloop_parse_uah_session(directory))
    assert got.rejected_rows == 2


def test_clean_session_never_takes_the_per_line_path(tmp_path, monkeypatch):
    def refuse(lines, columns):
        raise AssertionError("a clean block went down the per-line path")

    monkeypatch.setattr(ingest, "_parse_each_line", refuse)
    # Blank lines, extra columns, a non-finite value and a repeated timestamp
    # are all read by the C reader; the finite and timestamp rules drop two rows.
    lines = good_rows(3 * BLOCK + 5)
    lines[7] = ""
    lines[BLOCK] += " 99 extra"
    lines[BLOCK + 1] = row("9.0", "nan")
    lines[2 * BLOCK] = lines[2 * BLOCK - 1]
    session = parse_uah_session(write_lines(tmp_path, lines))
    assert (session.n_samples, session.rejected_rows) == (3 * BLOCK + 2, 2)


def test_parse_session_holds_no_whole_file_token_list(tmp_path):
    # A bench-shaped session: 4,032 rows of 11 columns. Its kept values are
    # 4,032 x 7 float64 (0.22 MiB); the parse holds them at most four times
    # (blocks, their concatenation, the finite rows, the kept rows) plus one
    # block of lines, where a list of the whole file's tokens is over 2 MiB.
    rng = np.random.default_rng(0)
    values = rng.standard_normal((4032, 9))
    lines = [f"{0.1 * i:.2f} 1 " + " ".join(f"{v:.6f}" for v in vals)
             for i, vals in enumerate(values.tolist())]
    directory = write_lines(tmp_path, lines)
    parse_uah_session(write_lines(tmp_path, lines[:FLOOR], "y-D1-NORMAL-MOTORWAY"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = parse_uah_session(directory)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert session.n_samples == 4032
    assert peak <= 4 * 4032 * 7 * 8 + 2**18, peak / 2**20


def assert_same_session(got, want):
    assert got.rejected_rows == want.rejected_rows
    for field in ("timestamps", "samples"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()


def test_parse_session_missing_file(tmp_path):
    directory = tmp_path / "x-D1-NORMAL-MOTORWAY"
    directory.mkdir()
    with pytest.raises(FileNotFoundError):
        parse_uah_session(directory)


def test_discover_and_filter(tmp_path):
    write_session(tmp_path, "b-D2-DROWSY-SECONDARY", n_rows=4)
    write_session(tmp_path, "a-D1-NORMAL1-MOTORWAY", n_rows=4)
    (tmp_path / "not_a_session").mkdir()
    sessions = discover_sessions(tmp_path)
    assert [s.driver_id for s in sessions] == ["D1", "D2"]
    assert [s.road for s in [*filter_road(sessions, "MOTORWAY")]] == ["MOTORWAY"]
    assert len(filter_road(sessions, None)) == 2


def test_discover_skips_other_roads_unread(tmp_path):
    write_session(tmp_path, "a-D1-NORMAL1-MOTORWAY", n_rows=4)
    broken = write_session(tmp_path, "b-D2-DROWSY-SECONDARY", n_rows=4)
    (broken / "RAW_ACCELEROMETERS.txt").write_text("not a number\n")
    with pytest.raises(ValueError):
        discover_sessions(tmp_path)
    sessions = discover_sessions(tmp_path, road="MOTORWAY")
    assert [s.session_id for s in sessions] == ["a-D1-NORMAL1-MOTORWAY"]
    with pytest.raises(ValueError, match="road must be one of"):
        discover_sessions(tmp_path, road="HIGHWAY")
    only_other = tmp_path / "only_other"
    only_other.mkdir()
    broken.rename(only_other / broken.name)
    assert discover_sessions(only_other, road="MOTORWAY") == []
    write_session(tmp_path, "c-NAMELESS", n_rows=4)
    with pytest.raises(ValueError, match="no driver token"):
        discover_sessions(tmp_path, road="MOTORWAY")


def test_ingest_ignores_malformed_session_on_other_road(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a-D1-NORMAL-MOTORWAY", "b-D1-DROWSY-MOTORWAY", "c-D2-NORMAL-MOTORWAY",
                 "d-D2-DROWSY-MOTORWAY"):
        write_session(corpus, name, n_rows=40)
    broken = write_session(corpus, "e-D3-NORMAL-SECONDARY", n_rows=4)
    (broken / "RAW_ACCELEROMETERS.txt").write_bytes(b"\xff\xfe garbage\n")
    config = read_config({
        "paths": {"dataset_root": str(corpus), "out_dir": str(tmp_path / "run")},
        "ingest": {"window_len": 8},
    })
    report = cmd_ingest(config)
    assert report["n_sessions"] == 4
    assert report["M_total"] == 4 * 9


@pytest.mark.parametrize("road", ["MOTORWAY", None])
def test_ingest_artifacts_match_row_loop_parser(tmp_path, monkeypatch, road):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    damage = [(3, "9.99 1 short"), (5, row("0.0")), (7, row("100.0", "nan")),
              (9, row("100.0", "1e400")), (11, row("100.0", "oops")), (12, ""),
              (99, row("\u0661\u0660\u0660", "\uff11"))]
    for i, name in enumerate(("a-D1-NORMAL-MOTORWAY", "b-D1-DROWSY-MOTORWAY",
                              "c-D2-NORMAL-MOTORWAY", "d-D2-DROWSY-MOTORWAY",
                              "e-D3-NORMAL-SECONDARY")):
        write_session(corpus, name, n_rows=40 + 3 * i, start=1.0 + i, bad_rows=damage)
    config = read_config({
        "paths": {"dataset_root": str(corpus), "out_dir": str(tmp_path / "run")},
        "ingest": {"window_len": 8, "road": road},
    })
    n_sessions = 4 if road else 5
    wanted = {ARTIFACTS[name] for name in
              ("train_dataset", "test_dataset", "ingest_report", "manifest_ingest")}

    def digests() -> dict[str, str]:
        report = cmd_ingest(config)
        assert report["n_sessions"] == n_sessions
        assert report["rejected_rows"] == n_sessions * 5
        found = {p.name: content_digest(p) for p in (tmp_path / "run").iterdir() if p.is_file()}
        assert wanted <= set(found)
        return found

    fast = digests()
    monkeypatch.setattr(ingest, "parse_uah_session", rowloop_parse_uah_session)
    assert digests() == fast


def test_window_counts_and_labels(tmp_path):
    d1 = write_session(tmp_path, "a-D1-NORMAL-MOTORWAY", n_rows=10)
    d2 = write_session(tmp_path, "b-D1-DROWSY-MOTORWAY", n_rows=7)
    sessions = [parse_uah_session(d1), parse_uah_session(d2)]
    ds = window_sessions(sessions, window_len=4, overlap_fraction=0.5)
    assert ds.n_timesteps == 4
    assert ds.n_channels == 6
    assert ds.n_windows == 4 + 2
    assert [m.behavior for m in ds.meta].count("NORMAL") == 4
    assert set(ds.labels.tolist()) == {CLASS_NAMES.index("NORMAL"), CLASS_NAMES.index("DROWSY")}
    first = sessions[0].samples[0:4]
    assert np.array_equal(ds.windows[0], first)
    third = sessions[0].samples[4:8]
    assert np.array_equal(ds.windows[2], third)


def test_windows_never_cross_sessions(tmp_path):
    d1 = write_session(tmp_path, "a-D1-NORMAL-MOTORWAY", n_rows=6)
    d2 = write_session(tmp_path, "b-D2-NORMAL-MOTORWAY", n_rows=6, start=100.0)
    sessions = [parse_uah_session(d1), parse_uah_session(d2)]
    ds = window_sessions(sessions, window_len=4, overlap_fraction=0.5)
    assert ds.n_windows == 4
    drivers = [m.driver_id for m in ds.meta]
    assert drivers == ["D1", "D1", "D2", "D2"]


def test_short_session_skipped_with_warning(tmp_path, caplog):
    d1 = write_session(tmp_path, "a-D1-NORMAL-MOTORWAY", n_rows=3)
    d2 = write_session(tmp_path, "b-D1-NORMAL-MOTORWAY", n_rows=8)
    sessions = [parse_uah_session(d1), parse_uah_session(d2)]
    with caplog.at_level(logging.WARNING):
        ds = window_sessions(sessions, window_len=4, overlap_fraction=0.5)
    assert ds.n_windows == 3
    assert any("short" in rec.getMessage().lower() for rec in caplog.records)


def test_split_indices_properties():
    spec = SyntheticSpec(windows_per_class=10, t=8, d=2, seed=0)
    ds, _ = generate_synthetic(spec)
    train_idx, test_idx = split_indices(ds, 0.8, seed=1)
    assert np.intersect1d(train_idx, test_idx).size == 0
    assert np.union1d(train_idx, test_idx).size == ds.n_windows
    again_train, again_test = split_indices(ds, 0.8, seed=1)
    assert np.array_equal(train_idx, again_train)
    assert np.array_equal(test_idx, again_test)
    other_train, _ = split_indices(ds, 0.8, seed=2)
    assert not np.array_equal(train_idx, other_train)
    strata = {}
    for i, meta in enumerate(ds.meta):
        strata.setdefault((meta.driver_id, meta.behavior), []).append(i)
    for members in strata.values():
        n_train = np.intersect1d(train_idx, members).size
        assert n_train == round(0.8 * len(members))


def test_stratified_split_returns_matching_datasets():
    spec = SyntheticSpec(windows_per_class=5, t=8, d=2, seed=3)
    ds, _ = generate_synthetic(spec)
    train_idx, test_idx = split_indices(ds, 0.8, seed=0)
    train, test = ds.subset(train_idx), ds.subset(test_idx)
    assert train.n_windows + test.n_windows == ds.n_windows
    assert train.class_names == test.class_names == list(ds.class_names)
    with pytest.raises(ValueError):
        split_indices(ds, 1.5, seed=0)


def test_normalization_round_trip():
    spec = SyntheticSpec(windows_per_class=8, t=10, d=3, seed=2)
    ds, _ = generate_synthetic(spec)
    stats = fit_normalization(ds)
    normed = apply_normalization(ds, stats)
    flat = normed.windows.reshape(-1, 3)
    assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(flat.std(axis=0), 1.0, atol=1e-9)
    restored = NormalizationStats(**json.loads(canonical_json(stats)))
    assert np.array_equal(restored.mean, stats.mean)
    assert np.array_equal(restored.std, stats.std)


def test_normalization_constant_channel():
    windows = np.zeros((4, 6, 2))
    windows[..., 0] = 7.0
    windows[..., 1] = np.arange(4)[:, None]
    from tsgroups.types import WindowedDataset, WindowMeta

    ds = WindowedDataset(
        windows=windows,
        labels=np.zeros(4, dtype=np.int64),
        meta=[WindowMeta("D1", "NORMAL", "MOTORWAY", "s") for _ in range(4)],
        class_names=["NORMAL"],
    )
    stats = fit_normalization(ds)
    assert stats.std[0] == 1.0
    normed = apply_normalization(ds, stats)
    assert np.all(np.isfinite(normed.windows))
    assert np.all(normed.windows[..., 0] == 0.0)


def test_generate_synthetic_shapes_and_determinism():
    spec = SyntheticSpec(windows_per_class=6, t=12, d=3, seed=9)
    ds, archetypes = generate_synthetic(spec)
    assert ds.n_windows == 3 * 3 * 6
    assert ds.n_timesteps == 12
    assert ds.n_channels == 3
    assert archetypes.shape == (ds.n_windows,)
    assert set(np.unique(archetypes)) == {0, 1, 2}
    again, _ = generate_synthetic(spec)
    assert np.array_equal(ds.windows, again.windows)
    assert np.array_equal(ds.labels, again.labels)


def test_generate_synthetic_zero_noise_repeats_windows():
    spec = SyntheticSpec(frequencies=(1.0,), amplitudes=(1.0,), noise_sigmas=(0.0,),
                         class_effect_signs=(1,), windows_per_class=3, t=8, d=2,
                         C=2, seed=0)
    ds, _ = generate_synthetic(spec)
    for c in range(2):
        block = ds.windows[ds.labels == c]
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[2])


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(frequencies=(1.0, 2.0), amplitudes=(1.0,))
    with pytest.raises(ValueError):
        SyntheticSpec(class_effect_signs=(2, 1, 1))
    with pytest.raises(ValueError):
        SyntheticSpec(windows_per_class=0)


def test_column_map_bounds():
    cm = ColumnMap()
    assert cm.min_columns() == 11
    assert len(cm.channel_indices()) == 6


@pytest.mark.parametrize("index", [-1, True, 5.0, "5"])
def test_column_map_refuses_non_index(tmp_path, capsys, index):
    with pytest.raises(ValueError, match="acc_x must be a non-negative int"):
        ColumnMap(acc_x=index)
    with pytest.raises(ConfigError, match="ingest.column_map"):
        read_config({"ingest": {"column_map": {"acc_x": index}}})
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_session(corpus, "a-D1-NORMAL-MOTORWAY", n_rows=20)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"dataset_root": str(corpus), "out_dir": str(tmp_path / "run")},
        "ingest": {"window_len": 8, "column_map": {"acc_x": index}},
    }))
    assert main(["ingest", "--config", str(config)]) == EXIT_CONFIG
    assert "ingest.column_map" in capsys.readouterr().err
