"""Spacecache: compiled-space compatibility, staleness, and the CLI.

The hard guarantee under test: a compiled-then-loaded space produces
**byte-identical** fingerprints to a live build (so every DiskCache
directory, remote corpus and golden file stays valid), and any
unusable artifact — truncated, corrupted, compiled by other code —
falls back to a live build with a warning, never a crash and never a
stale fingerprint.
"""

import os
import pickle
import warnings

import pytest

from repro.api import Explorer, fingerprint_request, list_apps
from repro.explore import spacecache
from repro.explore.fingerprint import clear_fragment_memo
from repro.spacecache.__main__ import main as spacecache_main


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Every test sees a cold in-process payload memo."""
    spacecache.forget()
    yield
    spacecache.forget()


def _fingerprints(explorer):
    return explorer.fingerprint_points(explorer.space.points())


# ----------------------------------------------------------------------
# Compatibility: compiled-then-loaded == live, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", sorted(list_apps()))
def test_loaded_space_fingerprints_match_live_build(app, tmp_path):
    """Every registered app round-trips through the artifact intact."""
    spacecache.build(app, root=tmp_path)
    spacecache.forget()
    clear_fragment_memo()
    loaded = spacecache.load_space(app, root=tmp_path)
    assert loaded is not None
    live = Explorer.for_app(app, precompiled=False)
    loaded_explorer = Explorer(loaded)
    assert loaded.variant_names == live.space.variant_names
    assert _fingerprints(loaded_explorer) == _fingerprints(live)
    # And against the monolithic reference path, point by point.
    points = loaded.points()
    assert loaded_explorer.fingerprint_points(points) == [
        fingerprint_request(loaded_explorer.request_for(point)) for point in points
    ]


def test_loaded_space_serves_the_precomputed_table(tmp_path):
    """A loaded space resolves default-knob points from the table."""
    spacecache.build("motion", root=tmp_path)
    loaded = spacecache.load_space("motion", root=tmp_path)
    table = loaded.precomputed_fingerprints(Explorer(loaded).area_weight, 0)
    assert table is not None and len(table) == len(loaded)
    # Non-default knobs must bypass the table and still agree with the
    # reference (the table is keyed to the compile-time knobs only).
    explorer = Explorer(loaded, area_weight=0.25, seed=3)
    assert loaded.precomputed_fingerprints(0.25, 3) is None
    for point, fingerprint in zip(
        loaded.points(), explorer.fingerprint_points(loaded.points())
    ):
        assert fingerprint == fingerprint_request(explorer.request_for(point))


def test_axis_mutation_drops_the_table(tmp_path):
    spacecache.build("motion", root=tmp_path)
    loaded = spacecache.load_space("motion", root=tmp_path)
    assert loaded._fingerprint_table is not None
    first = next(iter(loaded.libraries))
    loaded.add_library("other", loaded.library(first))
    assert loaded._fingerprint_table is None


def test_explorer_for_app_loads_opportunistically(tmp_path, monkeypatch):
    monkeypatch.setenv(spacecache.ENV_DIR, str(tmp_path))
    spacecache.build("cavity")
    assert spacecache.artifact_path("cavity").parent == tmp_path
    explorer = Explorer.for_app("cavity")
    # The loaded space carries prebuilt programs and the table — the
    # telltale signs the artifact (not a live build) served it.
    assert explorer.space._fingerprint_table is not None
    assert set(explorer.space._programs) == set(explorer.space.variant_names)
    live = Explorer.for_app("cavity", precompiled=False)
    assert live.space._fingerprint_table is None
    assert _fingerprints(explorer) == _fingerprints(live)


def test_env_switch_disables_loads(tmp_path, monkeypatch):
    monkeypatch.setenv(spacecache.ENV_DIR, str(tmp_path))
    spacecache.build("motion")
    monkeypatch.setenv(spacecache.ENV_ENABLED, "0")
    explorer = Explorer.for_app("motion")
    assert explorer.space._fingerprint_table is None


# ----------------------------------------------------------------------
# Staleness: warn and fall back, never crash, never serve wrong data
# ----------------------------------------------------------------------
def test_truncated_artifact_falls_back_with_warning(tmp_path):
    path = spacecache.build("motion", root=tmp_path)
    spacecache.forget()
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        assert spacecache.load_space("motion", root=tmp_path) is None


def test_corrupted_artifact_falls_back_with_warning(tmp_path):
    path = spacecache.build("motion", root=tmp_path)
    spacecache.forget()
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # flip a payload byte deep inside the pickle
    path.write_bytes(bytes(raw))
    with pytest.warns(RuntimeWarning, match="checksum mismatch"):
        assert spacecache.load_space("motion", root=tmp_path) is None


def test_bad_magic_falls_back_with_warning(tmp_path):
    path = spacecache.build("motion", root=tmp_path)
    spacecache.forget()
    path.write_bytes(b"not a spacecache artifact")
    with pytest.warns(RuntimeWarning, match="bad magic"):
        assert spacecache.load_space("motion", root=tmp_path) is None


def test_salt_mismatch_falls_back_with_warning(tmp_path, monkeypatch):
    """An artifact compiled by any other code version is distrusted."""
    spacecache.build("motion", root=tmp_path)
    spacecache.forget()
    monkeypatch.setattr(spacecache, "_SALT", "0" * 64)
    with pytest.warns(RuntimeWarning, match="salt mismatch"):
        assert spacecache.load_space("motion", root=tmp_path) is None


def test_fragment_spot_check_rejects_drifted_payload(tmp_path):
    """A payload whose program and fragment disagree is distrusted."""
    import hashlib

    path = spacecache.build("motion", root=tmp_path)
    spacecache.forget()
    raw = path.read_bytes()
    payload = pickle.loads(raw[len(spacecache.MAGIC) + 32 :])
    name = payload["variants"][0][0]
    payload["program_fragments"][name] = '{"__type__":"Program","drifted":1}'
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(
        spacecache.MAGIC + hashlib.sha256(blob).digest() + blob
    )
    with pytest.warns(RuntimeWarning, match="spot-check failed"):
        assert spacecache.load_space("motion", root=tmp_path) is None


def test_stale_artifact_still_yields_a_live_space(tmp_path, monkeypatch):
    """AppSpec.space survives a corrupt artifact: warn, build live."""
    monkeypatch.setenv(spacecache.ENV_DIR, str(tmp_path))
    path = spacecache.build("motion")
    path.write_bytes(path.read_bytes()[:40])
    with pytest.warns(RuntimeWarning):
        explorer = Explorer.for_app("motion")
    live = Explorer.for_app("motion", precompiled=False)
    assert _fingerprints(explorer) == _fingerprints(live)


# ----------------------------------------------------------------------
# Maintenance: ensure / list / clear and the CLI
# ----------------------------------------------------------------------
def test_ensure_builds_once_and_reuses(tmp_path):
    path = spacecache.ensure("motion", root=tmp_path)
    stamp = path.stat().st_mtime_ns
    assert spacecache.ensure("motion", root=tmp_path) == path
    assert path.stat().st_mtime_ns == stamp  # untouched, not recompiled
    path.write_bytes(b"garbage")
    spacecache.forget()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spacecache.ensure("motion", root=tmp_path)
    assert spacecache.load_space("motion", root=tmp_path) is not None


def test_list_artifacts_flags_stale_entries(tmp_path):
    good = spacecache.build("motion", root=tmp_path)
    bad = tmp_path / "broken-0000000000000000.space"
    bad.write_bytes(b"junk")
    entries = {e["path"]: e for e in spacecache.list_artifacts(tmp_path)}
    assert entries[str(good)]["fresh"] is True
    assert entries[str(good)]["points"] == 12
    assert entries[str(bad)]["fresh"] is False


def test_clear_removes_artifacts(tmp_path):
    spacecache.build("motion", root=tmp_path)
    assert spacecache.clear(tmp_path) == 1
    assert spacecache.list_artifacts(tmp_path) == []
    assert spacecache.load_space("motion", root=tmp_path) is None


def test_cli_build_list_clear(tmp_path, capsys):
    root = str(tmp_path)
    assert spacecache_main(["--dir", root, "build", "motion", "cavity"]) == 0
    out = capsys.readouterr().out
    assert "motion" in out and "cavity" in out
    assert spacecache_main(["--dir", root, "list"]) == 0
    assert "12 points" in capsys.readouterr().out
    assert spacecache_main(["--dir", root, "clear"]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert os.listdir(root) == []
