"""Corpus parsing, windowing, splitting, normalization, synthesis."""

import logging

import numpy as np
import pytest

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
from tsgroups.pipeline import PipelineConfig, cmd_ingest


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
    config = PipelineConfig.from_dict({
        "paths": {"dataset_root": str(corpus), "out_dir": str(tmp_path / "run")},
        "ingest": {"window_len": 8},
    })
    report = cmd_ingest(config)
    assert report["n_sessions"] == 4
    assert report["M_total"] == 4 * 9


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
    restored = NormalizationStats.from_dict(stats.to_dict())
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
