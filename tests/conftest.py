"""Shared fixtures: profiles and studies are expensive, build them once."""

import json
from pathlib import Path

import pytest

from repro.apps.btpc import BtpcConstraints, build_btpc_program, profile_btpc
from repro.explore import BtpcStudy


@pytest.fixture(scope="session")
def btpc_profile():
    """A small-image profile (fast, deterministic)."""
    return profile_btpc(image_size=64, seed=7, quantizer_step=4)


@pytest.fixture(scope="session")
def btpc_program(btpc_profile):
    """The design-size BTPC specification."""
    return build_btpc_program(BtpcConstraints(), btpc_profile)


@pytest.fixture(scope="session")
def constraints():
    return BtpcConstraints()


@pytest.fixture(scope="session")
def study():
    """One full exploration shared by all shape tests.

    Uses the canonical 128x128 profile: the 64x64 one is fine for
    structural tests but its coder statistics are too noisy for the
    cost-shape checks.
    """
    return BtpcStudy()


@pytest.fixture(scope="session")
def registry_sweeps():
    """Default-space exhaustive sweeps of the fast registered workloads.

    One sweep per app, shared by the golden-file suite and the registry
    end-to-end tests (BTPC is excluded here: its sweep is the expensive
    study walk, covered by the ``study`` fixture).
    """
    from repro.api import ExhaustiveSweep, Explorer

    sweeps = {}
    for name in ("cavity", "motion", "wavelet"):
        explorer = Explorer.for_app(name, on_error="skip")
        sweeps[name] = (explorer.explore(ExhaustiveSweep()), explorer)
    return sweeps


def _write_legacy_json_shard(root, key, payload):
    """Write ``<root>/<key[:2]>/<key>.json`` as the pre-compact writer did.

    ``DiskCache`` only writes compact ``.rpc`` records; this reproduces
    a legacy JSON shard byte for byte so the read-compatibility tests
    can build old cache directories.
    """
    shard = Path(root) / key[:2]
    shard.mkdir(parents=True, exist_ok=True)
    path = shard / f"{key}.json"
    path.write_bytes(json.dumps(dict(payload), ensure_ascii=False).encode("utf-8"))
    return path


@pytest.fixture()
def legacy_json_shard():
    """The legacy-shard writer: ``legacy_json_shard(root, key, payload)``."""
    return _write_legacy_json_shard
