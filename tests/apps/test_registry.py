"""The workload registry: protocol, determinism, end-to-end sweeps."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.api import (
    AppSpec,
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    fingerprint_request,
    get_app,
    list_apps,
    register_app,
)
from repro.apps.btpc.app import STRUCTURING_VARIANTS

FAST_APPS = ("cavity", "motion", "wavelet")


# ----------------------------------------------------------------------
# Registration protocol
# ----------------------------------------------------------------------
def test_builtin_workloads_are_registered():
    names = list_apps()
    assert len(names) >= 4
    assert {"btpc", "cavity", "motion", "wavelet"} <= set(names)
    assert names == tuple(sorted(names))


def test_get_app_unknown_name_lists_known():
    with pytest.raises(KeyError, match="wavelet"):
        get_app("no-such-app")


def test_register_duplicate_requires_replace(monkeypatch):
    from repro.apps import registry

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    spec = get_app("motion")
    with pytest.raises(ValueError, match="already registered"):
        register_app(spec)
    assert register_app(spec, replace=True) is spec


def test_custom_app_spec_round_trips_through_registry(monkeypatch):
    from repro.apps import registry
    from repro.ir import ProgramBuilder

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

    class Constraints:
        cycle_budget = 10_000
        frame_time_s = 1e-3

    def build(constraints):
        builder = ProgramBuilder("toy")
        builder.array("a", (256,), 8)
        nest = builder.nest("scan", ("i",), (256,))
        nest.read("a", index=("i",))
        return builder.build()

    register_app(
        AppSpec(
            name="toy",
            title="toy scan",
            description="one array, one nest",
            constraints_factory=Constraints,
            build_program=build,
        )
    )
    assert "toy" in list_apps()
    space = DesignSpace.for_app("toy")
    result = Explorer(space).explore(ExhaustiveSweep())
    assert [record.label for record in result.records] == ["baseline"]


# ----------------------------------------------------------------------
# Default spaces: deterministic enumeration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", FAST_APPS + ("btpc",))
def test_variant_names_match_default_space(app):
    spec = get_app(app)
    assert spec.space().variant_names == spec.variant_names


@pytest.mark.parametrize("app", FAST_APPS)
def test_enumeration_is_deterministic(app):
    spec = get_app(app)
    first, second = spec.space(), spec.space()
    assert first.points() == second.points()
    assert len(first) == len(first.points())
    assert first.corners() == second.corners()


# ----------------------------------------------------------------------
# Fingerprint stability across processes (guards the memoization cache)
# ----------------------------------------------------------------------
_FINGERPRINT_SCRIPT = """
import json
from repro.api import Explorer, fingerprint_request

out = {}
for name in %r:
    explorer = Explorer.for_app(name)
    out[name] = [
        fingerprint_request(explorer.request_for(point))
        for point in explorer.space.points()
    ]
print(json.dumps(out))
"""


def test_fingerprints_are_stable_across_processes():
    """A fresh interpreter fingerprints every point identically.

    This is what makes the content-addressed cache shareable across
    runs and worker processes: any hash-seed or dict-order dependence
    in program construction or canonicalization would break it.
    """
    local = {}
    for name in FAST_APPS:
        explorer = Explorer.for_app(name)
        local[name] = [
            fingerprint_request(explorer.request_for(point))
            for point in explorer.space.points()
        ]
    src = pathlib.Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "random"
    output = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT % (FAST_APPS,)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    assert json.loads(output) == local


# ----------------------------------------------------------------------
# End-to-end from the registry alone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", FAST_APPS)
def test_registry_sweep_end_to_end(app, registry_sweeps):
    result, explorer = registry_sweeps[app]
    assert result.space_name == app
    assert len(result.records) >= 4
    assert len(result.records) + len(explorer.failures) == len(explorer.space)
    front = result.pareto_front()
    assert front
    assert result.knee_point() in front


def test_btpc_registry_space_shares_study_fingerprints(study):
    """The registry space reproduces the study's programs bit-for-bit.

    Sweeping the Table 1 alternatives through a fresh explorer that
    shares the study's cache must hit on every point: the registry and
    the study build from one space definition, so their fingerprints
    coincide and no oracle run is duplicated.
    """
    study.table1()  # make sure the structuring evaluations are cached
    space = DesignSpace.for_app("btpc", constraints=study.constraints)
    explorer = Explorer(space, cache=study.explorer.cache)
    points = [space.point(name) for name in STRUCTURING_VARIANTS]
    result = explorer.explore(ExhaustiveSweep(points=points))
    assert [record.label for record in result.records] == list(
        STRUCTURING_VARIANTS
    )
    assert all(record.cache_hit for record in result.records)
