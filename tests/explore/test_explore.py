"""Exploration sessions and Pareto utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.costs import CostReport, MemoryCost, render_cost_table
from repro.explore import (
    DesignPoint,
    DesignSpace,
    ExplorationRecord,
    ExplorationSession,
    Explorer,
    dominates,
    knee_point,
    pareto_front,
)
from repro.ir.builder import ProgramBuilder
from repro.memlib import MemoryKind


def _report(label, area, power):
    memory = MemoryCost(
        name="m", kind=MemoryKind.ONCHIP, words=64, width=8, ports=1,
        area_mm2=area, power_mw=power,
    )
    return CostReport(label=label, memories=(memory,))


def test_dominance():
    a = _report("a", 1.0, 1.0)
    b = _report("b", 2.0, 2.0)
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, a)


def test_pareto_front_filters_dominated():
    reports = [
        _report("a", 1.0, 5.0),
        _report("b", 3.0, 3.0),
        _report("c", 5.0, 1.0),
        _report("dominated", 4.0, 4.0),
    ]
    front = pareto_front(reports)
    assert [r.label for r in front] == ["a", "b", "c"]


@given(
    st.lists(
        st.tuples(st.floats(0.1, 100), st.floats(0.1, 100)),
        min_size=1, max_size=20,
    )
)
def test_pareto_front_is_mutually_nondominated(points):
    reports = [_report(str(i), a, p) for i, (a, p) in enumerate(points)]
    front = pareto_front(reports)
    assert front  # never empty
    for first in front:
        assert not any(dominates(other, first) for other in front)


def test_knee_point_in_front():
    reports = [_report("a", 1.0, 5.0), _report("b", 2.0, 2.0),
               _report("c", 5.0, 1.0)]
    front = pareto_front(reports)
    assert knee_point(front).label == "b"
    with pytest.raises(ValueError):
        knee_point([])


def test_knee_point_singleton_front():
    only = _report("only", 3.0, 3.0)
    assert knee_point([only]) is only


def test_knee_point_all_equal_front_is_deterministic():
    front = [_report("first", 2.0, 2.0), _report("second", 2.0, 2.0),
             _report("third", 2.0, 2.0)]
    assert knee_point(front) is front[0]


def test_knee_point_zero_span_axis():
    # All areas equal: only the power axis discriminates, and the zero
    # area span must not bias the distance.
    front = [_report("hot", 2.0, 9.0), _report("cool", 2.0, 1.0)]
    assert knee_point(front).label == "cool"


def _record(step, label, area=1.0, power=1.0):
    return ExplorationRecord(
        point=DesignPoint(variant="v", label=label),
        report=_report(label, area, power),
        fingerprint=f"fp-{label}",
        step=step,
        program_name="v",
    )


def _logged(*records):
    session = ExplorationSession()
    for record in records:
        session.log_record(record)
    return session


def test_session_logs_and_chooses():
    session = _logged(_record("step A", "alt 1"), _record("step A", "alt 2"))
    assert len(session.alternatives("step A")) == 2
    session.choose("step A", "alt 2")
    assert [e.chosen for e in session.alternatives("step A")] == [False, True]
    with pytest.raises(KeyError):
        session.choose("step A", "missing")
    tree = session.render_tree()
    assert "step A" in tree and "=>" in tree


def test_rechoosing_clears_previous_choice():
    session = _logged(
        _record("step A", "alt 1"),
        _record("step A", "alt 2"),
        _record("step B", "other"),
    )
    session.choose("step A", "alt 1")
    session.choose("step A", "alt 2")  # the designer changes their mind
    assert [e.chosen for e in session.alternatives("step A")] == [False, True]
    session.choose("step B", "other")
    session.choose("step A", "alt 1")  # and back again
    assert [e.chosen for e in session.alternatives("step A")] == [True, False]
    # Choosing in one step never disturbs another step's decision.
    assert [e.chosen for e in session.alternatives("step B")] == [True]


def _fir_space():
    def build():
        builder = ProgramBuilder("fir")
        builder.array("samples", shape=(4096,), bitwidth=12)
        builder.array("output", shape=(4096,), bitwidth=16)
        nest = builder.nest("filter", iterators=("i",), trips=(4096,))
        sample = nest.read("samples", index=("i",))
        nest.write("output", index=("i",), after=[sample])
        return builder.build()

    space = DesignSpace("fir", cycle_budget=50_000, frame_time_s=1e-3)
    space.add_variant("fir", build=build)
    return space


def test_session_memoizes_repeated_evaluations():
    explorer = Explorer(_fir_space())
    point = explorer.space.point("fir")
    records = explorer.evaluate_many(
        [point.relabeled("alt 1"), point.relabeled("alt 1 again")], "step A"
    )
    session = _logged(*records)
    # The second alternative is the same organization: a memo hit.
    assert [record.cache_hit for record in records] == [False, True]
    assert explorer.cache.misses == 1
    first, second = session.evaluations
    assert first.report.memories == second.report.memories
    # The decision log keeps per-alternative labels even across cache hits.
    assert [e.report.label for e in session.evaluations] == ["alt 1", "alt 1 again"]


def test_render_cost_table_layout():
    text = render_cost_table(
        [_report("alpha", 10.0, 20.0)], title="Costs", label_header="Version"
    )
    assert "alpha" in text
    assert "10.0" in text and "20.0" in text
    assert "on-chip area" in text
