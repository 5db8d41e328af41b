"""Differential suite: the allocator on the interned port-demand kernel
against the string-based allocator it replaced (``reference_allocation.py``).

Every comparison is exact: the ``repr`` of each ``AllocationResult``
(every memory bin, every float down to the last bit), or the message of
the ``AssignmentError`` both raise.  Budget distribution runs once per
(variant, budget, library) and its conflict graph serves every on-chip
count, so each allocator sees the very same graph.  The co-fire memo is
cleared before every new-allocator call, so the kernel itself is what
gets compared, not memo hits left by an earlier case.
"""

import pytest
import reference_allocation as reference
from hypothesis import given, settings, strategies as st

from repro.apps import list_apps
from repro.dtse import make_cap_fn, make_weight_fn
from repro.dtse.allocation.assign import (
    AssignmentError,
    assign_memories,
    build_nest_loads,
)
from repro.dtse.scbd import BodyFlowGraph, distribute
from repro.dtse.scbd.conflict import clear_cofire_memo
from repro.explore import DesignSpace
from repro.explore.btpc_study import (
    CHOSEN_BUDGET_FRACTION,
    DECISIONS,
    STEP_HIERARCHY,
)
from repro.ir import ProgramBuilder
from repro.memlib.library import default_library


def _outcome(allocate, **kwargs):
    try:
        return repr(allocate(**kwargs))
    except (AssignmentError, reference.AssignmentError) as error:
        return f"AssignmentError: {error}"


def _assert_identical(program, budget, library, frame_time_s, counts):
    distribution = distribute(
        program,
        budget,
        make_weight_fn(program, library),
        make_cap_fn(program, library),
    )
    kwargs = dict(
        program=program,
        conflicts=distribution.conflict_graph,
        library=library,
        frame_time_s=frame_time_s,
        nest_loads=build_nest_loads(program, distribution.budgets),
        cycles_used=distribution.cycles_used,
        cycle_budget=budget,
    )
    for count in counts:
        clear_cofire_memo()
        new = _outcome(assign_memories, n_onchip=count, **kwargs)
        old = _outcome(reference.assign_memories, n_onchip=count, **kwargs)
        assert new == old, f"{program.name} @ {budget}, n_onchip={count}"


def _every_count(program, library):
    """``None``, every fixed count, and one past the last (an error)."""
    onchip, _ = library.split(program.groups)
    return [None, *range(1, len(onchip) + 2)]


@pytest.mark.parametrize("app", [app for app in list_apps() if app != "btpc"])
def test_every_point_and_count_matches_reference(app):
    space = DesignSpace.for_app(app)
    for variant in space.variant_names:
        program = space.program(variant)
        for fraction in space.budget_fractions:
            for library in space.libraries.values():
                _assert_identical(
                    program,
                    space.effective_budget(fraction),
                    library,
                    space.frame_time_s,
                    _every_count(program, library),
                )


@pytest.mark.parametrize("variant", DesignSpace.for_app("btpc").variant_names)
def test_btpc_variant_matches_reference(variant):
    """The paper's Table 3/4 variant at every budget and count of the
    space; every other variant at the free count and Table 4's budget
    (the string-based allocator needs ~0.4 s per free-count BTPC
    allocation)."""
    space = DesignSpace.for_app("btpc")
    program = space.program(variant)
    if variant == DECISIONS[STEP_HIERARCHY]:
        fractions, counts = space.budget_fractions, space.onchip_counts
    else:
        fractions, counts = (CHOSEN_BUDGET_FRACTION,), (None,)
    for fraction in fractions:
        for library in space.libraries.values():
            _assert_identical(
                program,
                space.effective_budget(fraction),
                library,
                space.frame_time_s,
                counts,
            )


@pytest.mark.parametrize("variant", DesignSpace.for_app("btpc").variant_names)
def test_btpc_variant_matches_reference_at_every_count(variant, request):
    """The whole BTPC product: every variant, budget and library at the
    free count, every fixed count and one past the last.  Opt-in with
    ``--full-differential``: the string-based allocator needs about a
    minute for it."""
    if not request.config.getoption("--full-differential"):
        pytest.skip("opt-in: run with --full-differential")
    space = DesignSpace.for_app("btpc")
    program = space.program(variant)
    for fraction in space.budget_fractions:
        for library in space.libraries.values():
            _assert_identical(
                program,
                space.effective_budget(fraction),
                library,
                space.frame_time_s,
                _every_count(program, library),
            )


# ----------------------------------------------------------------------
# Hypothesis-generated programs
# ----------------------------------------------------------------------
#: Exclusive-class tags: "A:0" and "A:1" exclude each other and "B";
#: nested tags co-fire with their parents; untagged co-fires with all.
TAGS = ("", "A", "B", "A:0", "A:1", "A:0:x", "B:0")


@st.composite
def programs(draw):
    """1-2 loop nests over 2-6 groups, some too large for on-chip."""
    n_groups = draw(st.integers(2, 6))
    builder = ProgramBuilder("hyp")
    for k in range(n_groups):
        words = draw(st.sampled_from([64, 256, 1024, 4096, 1 << 17]))
        builder.array(f"g{k}", (words,), draw(st.sampled_from([4, 8, 12, 16])))
    for n in range(draw(st.integers(1, 2))):
        trips = draw(st.sampled_from([10, 100, 1000]))
        nest = builder.nest(f"n{n}", ("i",), (trips,))
        labels = []
        for k in range(draw(st.integers(2, 7))):
            access = nest.write if draw(st.booleans()) else nest.read
            after = []
            if labels:
                after = draw(st.lists(st.sampled_from(labels), max_size=2, unique=True))
            labels.append(
                access(
                    f"g{draw(st.integers(0, n_groups - 1))}",
                    label=f"s{k}",
                    after=after,
                    prob=draw(st.sampled_from([0.25, 0.5, 1.0])),
                    mult=draw(st.sampled_from([1.0, 1.0, 2.0, 3.0])),
                    cls=draw(st.sampled_from(TAGS)) or None,
                    rows=draw(st.sampled_from([1, 1, 3])),
                    foreground=draw(st.sampled_from([False, False, False, True])),
                )
            )
    program = builder.build()
    # A whole-program budget between the tightest and the loosest bodies.
    budget = 0
    for nest in program.nests:
        graph = BodyFlowGraph(nest)
        body = draw(st.integers(graph.macp, graph.sequential_length))
        budget += body * graph.iterations
    return program, budget, draw(st.sampled_from([1e-3, 2e-2]))


@given(programs())
@settings(deadline=None, max_examples=120)
def test_generated_programs_match_reference(case):
    program, budget, frame_time_s = case
    library = default_library()
    _assert_identical(
        program, budget, library, frame_time_s, _every_count(program, library)
    )
