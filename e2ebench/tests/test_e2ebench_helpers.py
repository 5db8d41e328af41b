"""Unit tests for the end-to-end benchmark's own helpers.

Run with ``python -m pytest e2ebench/tests`` from the repository root
(the root ``conftest.py`` puts ``src`` on the path).
"""

import itertools
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import service_load  # noqa: E402
import tracing  # noqa: E402
from checks import Tally, check_report_dicts, nearest_rank, score_points  # noqa: E402
from tracing import LAYER_TARGETS, Measure, Target, Tracer, aggregate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Nearest-rank percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_on_one_to_hundred():
    values = list(range(100, 0, -1))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank(values, 1) == 1


def test_nearest_rank_returns_a_sample_never_an_average():
    assert nearest_rank([3.0, 1.0, 2.0, 10.0], 50) == 2.0
    assert nearest_rank([7.5], 99) == 7.5
    # p99 of fewer than 100 samples is the maximum.
    assert nearest_rank([1, 2, 3, 4, 5], 99) == 5


@pytest.mark.parametrize("percent", [0, -1, 101])
def test_nearest_rank_rejects_bad_percent(percent):
    with pytest.raises(ValueError):
        nearest_rank([1, 2], percent)


def test_nearest_rank_rejects_no_samples():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
def _sampler(stamps, costs):
    sampler = calibrate.SpeedSampler()  # never started: samples injected
    sampler._stamps, sampler._costs = list(stamps), list(costs)
    return sampler


def test_factor_uses_the_samples_inside_a_long_span():
    ref = calibrate.REFERENCE_S
    stamps = [float(t) for t in range(40)]
    costs = [ref] * 20 + [2 * ref] * 20  # fast, then half speed
    sampler = _sampler(stamps, costs)
    assert sampler.factor(0.0, 19.0) == pytest.approx(1.0)
    assert sampler.factor(20.0, 39.0) == pytest.approx(0.5)
    # A raw 10 s at half speed is 5 s at reference speed.
    assert sampler.scale(25.0, 35.0) == pytest.approx(5.0)


def test_short_span_widens_to_the_nearest_samples():
    ref = calibrate.REFERENCE_S
    n = calibrate.MIN_SAMPLES
    stamps = [float(t) for t in range(3 * n)]
    costs = [ref] * n + [2 * ref] * n + [ref] * n
    sampler = _sampler(stamps, costs)
    middle = 1.5 * n
    # No sample inside: the n nearest all come from the slow stretch.
    assert sampler.factor(middle - 0.1, middle + 0.1) == pytest.approx(0.5)
    low, high = calibrate._nearest(stamps, 0.0, n)
    assert (low, high) == (0, n)
    low, high = calibrate._nearest(stamps, 1e9, n)
    assert (low, high) == (2 * n, 3 * n)


def test_factor_needs_samples():
    with pytest.raises(RuntimeError):
        _sampler([], []).factor(0.0, 1.0)


def test_sampler_thread_records_and_stops():
    with calibrate.SpeedSampler() as sampler:
        deadline = time.monotonic() + 5
        while len(sampler._costs) < 2 and time.monotonic() < deadline:
            time.sleep(calibrate.INTERVAL_S)
    assert len(sampler._costs) >= 2
    assert not sampler._thread.is_alive()
    assert sampler.factor(0.0, time.perf_counter()) > 0


# ----------------------------------------------------------------------
# Self times on nested spans
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, False]


def test_self_time_subtracts_children():
    spans = [
        _span("run", 0, 100),  # 0
        _span("a", 10, 30, 0),  # 1
        _span("b", 40, 70, 0),  # 2
        _span("c", 50, 60, 2),  # 3 (grandchild: only b loses it)
    ]
    totals = aggregate(spans)
    assert totals["run"].total_ns == 100
    assert totals["run"].self_ns == 100 - 20 - 30
    assert totals["b"].self_ns == 30 - 10
    assert totals["c"].self_ns == 10


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("run", 0, 100),
        _span("a", 10, 50, 0),
        _span("a", 30, 60, 0),  # overlaps the first: covered = 10..60
    ]
    assert aggregate(spans)["run"].self_ns == 100 - 50


def test_recursive_spans_count_calls_but_not_time_twice():
    spans = [
        _span("store", 0, 100),
        _span("store", 10, 40, 0),
    ]
    totals = aggregate(spans)["store"]
    assert totals.calls == 2
    assert totals.total_ns == 100
    assert totals.self_ns == (100 - 30) + 30


def test_wrapped_calls_nest_and_attribute_self_time():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    tracer.wrap("outer", outer)()
    spans = tracer.take()
    assert [span[tracing.NAME] for span in spans] == ["outer", "inner", "inner"]
    assert spans[1][tracing.PARENT] == 0 and spans[2][tracing.PARENT] == 0
    totals = aggregate(spans)
    inner_total = totals["inner"].total_ns
    assert totals["outer"].self_ns == totals["outer"].total_ns - inner_total
    assert totals["outer"].self_ns >= 0


def test_exception_marks_span_and_restores_parent():
    tracer = Tracer()

    def boom():
        raise ValueError("infeasible")

    with pytest.raises(ValueError):
        tracer.wrap("oracle", boom)()
    tracer.wrap("after", lambda: None)()
    spans = tracer.take()
    assert spans[0][tracing.ERROR] is True
    assert spans[0][tracing.END] >= spans[0][tracing.START]
    assert spans[1][tracing.PARENT] is None
    assert aggregate(spans)["oracle"].errors == 1


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda x: x + 1)
    tracer.recording = False
    assert wrapped(1) == 2
    assert tracer.take() == []


# ----------------------------------------------------------------------
# Wrapper install and restore
# ----------------------------------------------------------------------
def _originals(targets):
    return [(t, vars(t.resolve()).get(t.attr, getattr(t.resolve(), t.attr))) for t in targets]


def test_install_wraps_every_layer_and_uninstall_restores_originals():
    before = _originals(LAYER_TARGETS)
    tracer = Tracer()
    tracer.install(LAYER_TARGETS)
    try:
        for target, original in before:
            assert vars(target.resolve())[target.attr] is not original, target
        from repro.costs.report import CostReport
        from repro.explore import engine

        engine.pareto_indices([(1.0, 2.0), (2.0, 1.0)])
        CostReport.from_dict(CostReport(label="x", memories=()).to_dict())
    finally:
        tracer.uninstall()
    for target, original in before:
        assert vars(target.resolve())[target.attr] is original, target
    names = [span[tracing.NAME] for span in tracer.take()]
    assert names == ["pareto.front", "report.encode", "report.decode"]
    # Restored callables record nothing.
    from repro.explore import engine

    engine.pareto_indices([(1.0, 2.0)])
    assert tracer.take() == []


def test_inherited_attribute_is_deleted_on_restore():
    class Base:
        def work(self):
            return "base"

    class Child(Base):
        pass

    module = type(sys)("e2ebench_fake_module")
    module.Child = Child
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.install([Target(f"{module.__name__}:Child", "work", "work")])
        assert "work" in vars(Child)
        assert Child().work() == "base"
        tracer.uninstall()
        assert "work" not in vars(Child)
        assert [span[tracing.NAME] for span in tracer.take()] == ["work"]
    finally:
        del sys.modules[module.__name__]


def test_failed_install_restores_what_it_wrapped():
    from repro.explore import engine

    original = vars(engine)["pareto_indices"]
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install(
            [
                Target("repro.explore.engine", "pareto_indices", "pareto.front"),
                Target("repro.explore.engine", "no_such_callable", "missing"),
            ]
        )
    assert vars(engine)["pareto_indices"] is original
    assert not tracer._patches


def test_measure_attributes_are_summed():
    tracer = Tracer()
    measure = Measure(before=lambda args: None, after=lambda _s, args, _r: {"n": len(args[0])})
    wrapped = tracer.wrap("batch", lambda points: points, measure)
    wrapped([1, 2, 3])
    wrapped([4])
    assert aggregate(tracer.take())["batch"].attrs == {"n": 4}


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
ROW = {"label": "p", "total_power_mw": 1.0, "cycles_used": 10.0}


def test_golden_infeasible_point_is_a_result_not_a_failure():
    tally = Tally()
    score_points(tally, "app", {"p": ROW}, ["q"], {"p": dict(ROW)}, ["q"])
    assert (tally.attempted, tally.failed) == (2, 0)


def test_wrong_report_is_a_failure():
    tally = Tally()
    wrong = dict(ROW, total_power_mw=1.5)
    score_points(tally, "app", {"p": ROW}, [], {"p": wrong}, [])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "differs" in tally.notes[0]


def test_float_noise_within_golden_tolerance_passes():
    tally = Tally()
    close = dict(ROW, total_power_mw=1.0 + 1e-12)
    score_points(tally, "app", {"p": ROW}, [], {"p": close}, [])
    assert tally.failed == 0


@pytest.mark.parametrize(
    "actual_rows, actual_bad",
    [
        ({}, []),  # missing row
        ({"p": ROW, "extra": ROW}, []),  # unexpected row
        ({}, ["p"]),  # infeasible where the golden has a row
    ],
)
def test_missing_unexpected_and_spurious_infeasible_fail(actual_rows, actual_bad):
    tally = Tally()
    score_points(tally, "app", {"p": ROW}, [], actual_rows, actual_bad)
    assert tally.failed >= 1


def test_point_missing_from_expected_infeasible_set_fails():
    tally = Tally()
    score_points(tally, "app", {}, ["q"], {}, [])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_report_dicts_must_match_exactly():
    reference = {"a": {"x": 1.0}, "b": {"x": 2.0}}
    tally = Tally()
    check_report_dicts(tally, "warm", reference, {"c"}, {"a": {"x": 1.0}}, ["c"])
    assert (tally.attempted, tally.failed) == (2, 0)
    check_report_dicts(tally, "warm", reference, set(), {"b": {"x": 2.0000001}}, ["d"])
    assert tally.failed == 2


def test_tally_round_trips_and_caps_notes():
    tally = Tally()
    for index in range(checks.MAX_NOTES + 5):
        tally.fail(f"note {index}")
    copy = Tally.from_dict(json.loads(json.dumps(tally.to_dict())))
    assert copy.failed == copy.attempted == checks.MAX_NOTES + 5
    assert len(copy.notes) == checks.MAX_NOTES


# ----------------------------------------------------------------------
# Seeded service schedules
# ----------------------------------------------------------------------
def _take(seed, connection, count=400):
    return list(itertools.islice(service_load.schedule(seed, connection, (1.0, 0.9, 0.85)), count))


def test_schedule_is_fixed_by_the_seed():
    assert _take(7, 0) == _take(7, 0)
    assert _take(7, 0) != _take(8, 0)


def test_schedule_mixes_one_novel_sweep_per_block():
    requests = _take(3, 1)
    novel = [r for r in requests if r.fraction is not None]
    assert len(novel) == len(requests) // service_load.NOVEL_EVERY
    fractions = [r.fraction for r in novel]
    assert len(set(fractions)) == len(fractions)
    assert not {1.0, 0.9, 0.85} & set(fractions)
    assert {r.app for r in novel} == set(service_load.FAST_APPS)


def test_connections_never_share_a_novel_fraction():
    first = {r.fraction for r in _take(5, 0)} - {None}
    second = {r.fraction for r in _take(5, 1)} - {None}
    assert first and second and not first & second


# ----------------------------------------------------------------------
# The metric sets match BENCHMARK.json
# ----------------------------------------------------------------------
def test_end_to_end_metric_set_matches_the_spec():
    sweeps = [{"seconds": 0.5, "points": 10, "oracle_calls": 1}]
    metrics = run.sweep_metrics(sweeps, sweeps)
    metrics.update(setup_s=1.0, peak_rss_mb=50.0, ok_share=1.0)
    shaped = run.shape(metrics, SPEC["end_to_end"])
    assert list(shaped) == [entry["name"] for entry in SPEC["end_to_end"]]


def test_per_layer_metric_set_matches_the_spec():
    layers = tracing.layer_metrics(aggregate([]), aggregate([]))
    layers["trace.spans"] = 0
    metrics = run.trace_metrics(layers, 2.0, 1.0, 1.0)
    shaped = run.shape(metrics, SPEC["per_layer"])
    assert shaped["trace.overhead_pct"]["value"] == pytest.approx(100.0)


def test_shape_rejects_a_metric_set_that_drifted():
    with pytest.raises(run.BenchmarkError):
        run.shape({"setup_s": 1.0}, SPEC["end_to_end"])
