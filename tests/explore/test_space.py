"""Declarative design spaces: axes, enumeration, neighbourhoods."""

import pytest

from repro.api import DesignPoint, DesignSpace, Explorer, ProgramBuilder, list_apps
from repro.memlib import MemoryLibrary


def _toy_program(name="toy"):
    builder = ProgramBuilder(name)
    builder.array("a", shape=(256,), bitwidth=8)
    nest = builder.nest("walk", iterators=("i",), trips=(256,))
    nest.read("a", index=("i",))
    return builder.build()


@pytest.fixture
def space():
    space = DesignSpace(
        "toy",
        cycle_budget=10_000,
        frame_time_s=1e-3,
        budget_fractions=(1.0, 0.9, 0.8),
        onchip_counts=(None, 2),
    )
    space.add_variant("base", program=_toy_program())
    space.add_variant("alt", build=lambda: _toy_program("alt"))
    return space


def test_points_is_the_axis_product(space):
    points = space.points()
    assert len(points) == len(space) == 2 * 3 * 2 * 1
    assert len(set(points)) == len(points)  # all distinct, hashable
    assert points == space.points()  # deterministic order


def test_variant_thunks_build_once(space):
    first = space.program("alt")
    assert first is space.program("alt")
    assert space.program("base").name == "toy"


def test_add_variant_validates(space):
    with pytest.raises(ValueError):
        space.add_variant("base", program=_toy_program())
    with pytest.raises(ValueError):
        space.add_variant("neither")
    with pytest.raises(ValueError):
        space.add_variant("both", program=_toy_program(), build=_toy_program)
    with pytest.raises(KeyError):
        space.point("missing")
    with pytest.raises(KeyError):
        space.point("base", library="missing")


def test_effective_budget_matches_paper_truncation(space):
    assert space.effective_budget(1.0) == 10_000
    assert space.effective_budget(0.85) == int(10_000 * 0.85)
    assert isinstance(space.effective_budget(0.85), int)


def test_display_labels(space):
    assert space.point("base").display_label == "base"
    point = space.point("base", budget_fraction=0.9, n_onchip=2)
    assert point.display_label == "base, 90% budget, 2 on-chip"
    assert point.relabeled("custom").display_label == "custom"


def test_point_dict_round_trip(space):
    point = space.point("alt", budget_fraction=0.8, n_onchip=2, label="x")
    assert DesignPoint.from_dict(point.to_dict()) == point
    bare = space.point("base")
    assert DesignPoint.from_dict(bare.to_dict()) == bare


def test_neighbors_step_one_along_each_axis(space):
    middle = space.point("base", budget_fraction=0.9)
    labels = {
        (p.variant, p.budget_fraction, p.n_onchip) for p in space.neighbors(middle)
    }
    assert labels == {
        ("alt", 0.9, None),
        ("base", 1.0, None),
        ("base", 0.8, None),
        ("base", 0.9, 2),
    }


def test_corners_cover_axis_extremes(space):
    corners = space.corners()
    assert len(corners) == 2 * 2 * 2 * 1
    fractions = {p.budget_fraction for p in corners}
    assert fractions == {1.0, 0.8}


def test_default_library_created():
    space = DesignSpace("bare", cycle_budget=100, frame_time_s=1.0)
    assert "default" in space.libraries
    custom = DesignSpace(
        "custom", cycle_budget=100, frame_time_s=1.0,
        libraries={"lp": MemoryLibrary()},
    )
    assert list(custom.libraries) == ["lp"]


# ----------------------------------------------------------------------
# Restriction: sub-spaces share the parent's programs and addresses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", sorted(list_apps()))
def test_restricted_subspace_shares_programs_and_fingerprints(app):
    parent = DesignSpace.for_app(app)
    names = parent.variant_names
    sub = parent.restricted(
        variants=tuple(dict.fromkeys((names[0], names[-1]))),
        budget_fractions=parent.budget_fractions[-1:],
        onchip_counts=parent.onchip_counts[:1],
        libraries=tuple(parent.libraries)[:1],
    )
    assert 0 < len(sub) <= len(parent)
    for name in sub.variant_names:
        assert sub.program(name) is parent.program(name)
    points = sub.points()
    assert set(points) <= set(parent.points())
    expected = Explorer(parent).fingerprint_points(points)
    assert Explorer(sub).fingerprint_points(points) == expected
    with pytest.raises(KeyError):
        parent.restricted(variants=["no-such-variant"])
    with pytest.raises(KeyError):
        parent.restricted(libraries=["no-such-library"])
