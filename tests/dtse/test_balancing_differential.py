"""Differential suite: the index-interned balancing kernel against the
string-based kernel it replaced (``reference_balancing.py``).

Every comparison is exact — assignment dicts including key order,
``BodySchedule.cost`` down to the last bit, conflict-graph edges and
concurrency slots — because schedules feed goldens, the paper tables
and on-disk caches.  The schedule memo is cleared before each new-kernel
call so the kernel itself is what gets compared.
"""

import multiprocessing
import os
import pickle
import sys
import threading

import pytest
import reference_balancing as reference
from hypothesis import given, settings, strategies as st

from repro.apps import get_app, list_apps
from repro.dtse import make_cap_fn, make_weight_fn
from repro.dtse.scbd import balancing as kernel
from repro.dtse.scbd import (
    BodyFlowGraph,
    ConflictGraph,
    balance,
    clear_schedule_memo,
    distribute,
    schedule_memo_info,
)
from repro.explore import DesignSpace
from repro.ir import ProgramBuilder
from repro.memlib.library import default_library


def _assert_identical(graph, budget, weight_fn, cap_fn):
    clear_schedule_memo()
    new = balance(graph, budget, weight_fn, cap_fn)
    old = reference.balance(graph, budget, weight_fn, cap_fn)
    where = f"{graph.nest_name} @ {budget}"
    assert list(new.assignment.items()) == list(old.assignment.items()), where
    assert repr(new.cost(weight_fn, cap_fn)) == repr(old.cost(weight_fn, cap_fn)), where
    new_conflicts = ConflictGraph.from_schedules([new])
    old_conflicts = ConflictGraph.from_schedules([old])
    assert list(new_conflicts.edges.items()) == list(old_conflicts.edges.items()), where
    assert new_conflicts.slots == old_conflicts.slots, where


def _cost_functions(app):
    program = get_app(app).program()
    library = default_library()
    return {
        "default": (reference._default_weight, reference._default_cap),
        "app": (make_weight_fn(program, library), make_cap_fn(program, library)),
    }


@pytest.mark.parametrize("fns", ["default", "app"])
@pytest.mark.parametrize("app", list_apps())
def test_every_nest_and_budget_matches_reference(app, fns):
    weight_fn, cap_fn = _cost_functions(app)[fns]
    for nest in get_app(app).program().nests:
        graph = BodyFlowGraph(nest)
        for budget in range(graph.macp, graph.sequential_length + 1):
            _assert_identical(graph, budget, weight_fn, cap_fn)


@pytest.mark.parametrize("app", ["cavity", "motion", "wavelet"])
def test_distribute_matches_reference_kernel(app, monkeypatch):
    """Whole budget distributions agree on every variant and budget."""
    space = DesignSpace.for_app(app)
    cases = [
        (space.program(variant), space.effective_budget(fraction), library)
        for variant in space.variant_names
        for fraction in space.budget_fractions
        for library in space.libraries.values()
    ]
    results = {}
    for kernel in ("new", "reference"):
        if kernel == "reference":
            monkeypatch.setattr(
                "repro.dtse.scbd.distribution.balance", reference.balance
            )
        clear_schedule_memo()
        results[kernel] = [
            distribute(
                program,
                budget,
                make_weight_fn(program, library),
                make_cap_fn(program, library),
            )
            for program, budget, library in cases
        ]
    for new, old in zip(results["new"], results["reference"]):
        assert new.budgets == old.budgets
        assert [
            list(schedule.assignment.items()) for schedule in new.schedules.values()
        ] == [list(schedule.assignment.items()) for schedule in old.schedules.values()]
        assert list(new.conflict_graph.edges.items()) == list(
            old.conflict_graph.edges.items()
        )
        assert new.conflict_graph.slots == old.conflict_graph.slots


# ----------------------------------------------------------------------
# Hypothesis-generated loop bodies
# ----------------------------------------------------------------------
#: An exclusive-class tag hierarchy: "A:0" and "A:1" are exclusive with
#: each other and with "B", nested tags co-fire with their parents, and
#: untagged accesses co-fire with everything.
TAGS = ("", "A", "B", "A:0", "A:1", "A:0:x", "B:0")
WEIGHTS = (0.5, 1.0, 2.0, 4.0, 12.0, 24.0)


@st.composite
def bodies(draw):
    n_groups = draw(st.integers(1, 4))
    builder = ProgramBuilder("hyp")
    for k in range(n_groups):
        builder.array(f"g{k}", (64,), 8)
    nest = builder.nest("body", ("i",), (draw(st.sampled_from([1, 7, 100])),))
    labels = []
    for k in range(draw(st.integers(1, 7))):
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
                mult=draw(st.sampled_from([1.0, 1.0, 1.5, 2.0, 3.0])),
                cls=draw(st.sampled_from(TAGS)) or None,
                foreground=draw(st.sampled_from([False, False, False, True])),
            )
        )
    groups = [f"g{k}" for k in range(n_groups)]
    weights = {
        (a, b): draw(st.sampled_from(WEIGHTS))
        for x, a in enumerate(groups)
        for b in groups[x:]
    }
    caps = {group: draw(st.integers(1, 4)) for group in groups}
    return builder.build().nest("body"), weights, caps


@given(bodies())
@settings(deadline=None, max_examples=150)
def test_generated_bodies_match_reference(body):
    nest, weights, caps = body
    graph = BodyFlowGraph(nest)
    for budget in range(graph.macp, graph.sequential_length + 1):
        _assert_identical(
            graph, budget, reference._default_weight, reference._default_cap
        )
        _assert_identical(graph, budget, lambda a, b: weights[(a, b)], caps.__getitem__)


# ----------------------------------------------------------------------
# The schedule memo
# ----------------------------------------------------------------------
def _walk_nest():
    builder = ProgramBuilder("memo")
    for name in ("a", "b", "c"):
        builder.array(name, (64,), 8)
    nest = builder.nest("body", ("i",), (50,))
    first = nest.read("a", label="ra", mult=2.0)
    second = nest.read("b", label="rb", cls="H")
    nest.read("c", label="rc", cls="V", after=[first])
    nest.write("a", label="wa", after=[second])
    return builder.build().nest("body")


def test_memo_hit_is_rebound_to_the_callers_graph():
    nest = _walk_nest()
    first_graph, second_graph = BodyFlowGraph(nest), BodyFlowGraph(nest)
    clear_schedule_memo()
    first = balance(first_graph, 3)
    hits = schedule_memo_info().hits
    second = balance(second_graph, 3)
    assert schedule_memo_info().hits == hits + 1
    assert second.graph is second_graph
    assert second.assignment is not first.assignment
    assert list(second.assignment.items()) == list(first.assignment.items())


def test_mutating_a_returned_assignment_does_not_poison_the_memo():
    graph = BodyFlowGraph(_walk_nest())
    clear_schedule_memo()
    expected = list(balance(graph, 3).assignment.items())
    for _ in range(2):
        schedule = balance(graph, 3)
        for label in schedule.assignment:
            schedule.assignment[label] = 99
        schedule.assignment["bogus"] = 1
    assert list(balance(graph, 3).assignment.items()) == expected
    assert schedule_memo_info().hits == 3


def test_different_weights_over_the_same_graph_miss():
    graph = BodyFlowGraph(_walk_nest())
    clear_schedule_memo()
    heavy = {"a": 24.0, "b": 1.0, "c": 1.0}

    def weight(a, b):
        return heavy[a] * heavy[b]

    default = balance(graph, 2)
    weighted = balance(graph, 2, weight)
    info = schedule_memo_info()
    assert (info.hits, info.misses, info.entries) == (0, 2, 2)
    assert list(default.assignment.items()) == list(
        reference.balance(graph, 2).assignment.items()
    )
    assert list(weighted.assignment.items()) == list(
        reference.balance(graph, 2, weight).assignment.items()
    )


def test_equal_cost_signatures_share_entries():
    """Fresh closures with equal values (a new run_pmm) still hit."""
    program = get_app("cavity").program()
    library = default_library()
    nest = program.nests[2]
    clear_schedule_memo()
    for _ in range(2):
        graph = BodyFlowGraph(nest)
        balance(
            graph,
            graph.macp,
            make_weight_fn(program, library),
            make_cap_fn(program, library),
        )
    assert schedule_memo_info().hits == 1


def test_flow_graphs_pickle_with_a_rehashed_content_key():
    graph = BodyFlowGraph(_walk_nest())
    graph.cost_signature(lambda a, b: 1.0, lambda group: 2)  # unpicklable keys
    copy = pickle.loads(pickle.dumps(graph))
    assert copy.content_key == graph.content_key
    assert hash(copy.content_key) == hash(graph.content_key)
    assert list(balance(copy, 3).assignment.items()) == list(
        reference.balance(graph, 3).assignment.items()
    )


def test_memo_is_consistent_under_concurrent_balancing():
    """More threads than cores share the memo with a tiny switch
    interval: every schedule still matches the reference, and no hit or
    miss count is lost."""
    nest = get_app("cavity").program().nests[3]
    graph = BodyFlowGraph(nest)
    budgets = list(range(graph.macp, graph.sequential_length + 1))
    expected = {
        budget: list(reference.balance(graph, budget).assignment.items())
        for budget in budgets
    }
    clear_schedule_memo()
    mismatches = []
    calls_per_thread = 40

    def work(offset):
        for k in range(calls_per_thread):
            budget = budgets[(offset + k) % len(budgets)]
            schedule = balance(BodyFlowGraph(nest), budget)
            if list(schedule.assignment.items()) != expected[budget]:
                mismatches.append(budget)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    info = schedule_memo_info()
    assert info.hits + info.misses == 6 * calls_per_thread
    assert info.entries == len(budgets)


def _balance_in_child(graph, expected):
    assert list(balance(graph, 3).assignment.items()) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_a_fork_while_another_thread_holds_the_memo_leaves_the_child_usable():
    """A worker pool forks while a serial caller is inside the memo: the
    child must not inherit the lock held (its balance() would block
    forever)."""
    graph = BodyFlowGraph(_walk_nest())
    clear_schedule_memo()
    expected = list(balance(graph, 3).assignment.items())
    held, release = threading.Event(), threading.Event()

    def hold():
        with kernel._SCHEDULES._lock:
            held.set()
            release.wait(timeout=30)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(timeout=30)
    threading.Timer(0.2, release.set).start()
    child = multiprocessing.get_context("fork").Process(
        target=_balance_in_child, args=(graph, expected)
    )
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    release.set()
    holder.join(timeout=30)
    assert not hung
    assert child.exitcode == 0
