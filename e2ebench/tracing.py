"""Span tracing from outside the program, for the benchmark's traced run.

The tracer wraps the public callables of each layer *where their caller
reaches them* — ``balance`` as ``distribute`` sees it,
``distribute``/``assign_memories`` as ``run_pmm`` sees them, methods on
their classes — records one span per call, and restores every original
on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

A span is ``[name, start_ns, end_ns, parent_id, attrs, error]``; the
parent is the span open on the same thread (a ``contextvars`` stack),
so nested calls form a tree.  Spans stay in memory until the run ends;
:func:`aggregate` turns them into per-name counts, totals and self
times, and :func:`layer_metrics` into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------
NAME, START, END, PARENT, ATTRS, ERROR = range(6)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Wrappers record only while this is set; checks that run
        #: between timed passes clear it so their own calls into the
        #: program (``CostReport.to_dict`` comparisons) are not counted.
        self.recording = True
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "e2ebench_span", default=None
        )
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- span lifecycle ------------------------------------------------
    def open(self, name: str) -> Tuple[int, list]:
        span = [name, time.perf_counter_ns(), 0, self._current.get(), None, False]
        with self._lock:
            span_id = next(self._ids)
            self.spans.append(span)
        return span_id, span

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Add a span timed by the caller (client-side service timing)."""
        with self._lock:
            span_id = next(self._ids)
            self.spans.append([name, start_ns, end_ns, parent, attrs, False])
        return span_id

    def take(self) -> List[list]:
        """Hand over the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
            self._ids = itertools.count()
        return spans

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        measure: Optional["Measure"] = None,
    ) -> Callable[..., Any]:
        """``func`` recording one ``name`` span per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return func(*args, **kwargs)
            before = measure.before(args) if measure is not None else None
            span_id, span = tracer.open(name)
            token = tracer._current.set(span_id)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter_ns()
                span[ERROR] = True
                raise
            finally:
                tracer._current.reset(token)
            span[END] = time.perf_counter_ns()
            if measure is not None:
                span[ATTRS] = measure.after(before, args, result)
            return result

        return traced

    # -- install / restore ---------------------------------------------
    def install(self, targets: Sequence["Target"]) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in targets:
                owner = target.resolve()
                own = target.attr in vars(owner)
                original = vars(owner)[target.attr] if own else getattr(owner, target.attr)
                setattr(owner, target.attr, self._wrapped(target, original))
                self._patches.append((owner, target.attr, original, own))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrapped(self, target: "Target", original: Any) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self.wrap(target.span, original.__func__, target.measure))
        return self.wrap(target.span, original, target.measure)

    # -- output ----------------------------------------------------------
    def dump(self, path: Any, phases: Mapping[str, List[list]]) -> None:
        """Write spans as JSON lines: phase, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            for phase, spans in phases.items():
                for index, span in enumerate(spans):
                    out.write(
                        json.dumps(
                            {
                                "phase": phase,
                                "id": index,
                                "name": span[NAME],
                                "start_ns": span[START],
                                "end_ns": span[END],
                                "parent": span[PARENT],
                                "error": span[ERROR],
                                "attrs": span[ATTRS],
                            },
                            separators=(",", ":"),
                        )
                        + "\n"
                    )


@dataclass(frozen=True)
class Measure:
    """Per-call attributes: ``before(args)`` then ``after(state, args, result)``."""

    before: Callable[[tuple], Any]
    after: Callable[[Any, tuple, Any], Dict[str, Any]]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module[:Class]`` plus attribute name."""

    owner: str
    attr: str
    span: str
    measure: Optional[Measure] = None

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


# ----------------------------------------------------------------------
# The layer boundaries the benchmark times
# ----------------------------------------------------------------------
def _nothing(args: tuple) -> None:
    return None


_POINTS = Measure(
    before=_nothing,
    after=lambda _state, args, _result: {"points": len(args[1])},
)


def _lookup_before(args: tuple) -> int:
    return args[0].decoded_hits


_LOOKUP_MANY = Measure(
    before=_lookup_before,
    after=lambda decoded, args, result: {
        "probes": len(set(args[1])),
        "hits": len(result),
        "decoded": args[0].decoded_hits - decoded,
    },
)
_LOOKUP_ONE = Measure(
    before=_lookup_before,
    after=lambda decoded, args, result: {
        "probes": 1,
        "hits": int(result[0] is not None or result[1] is not None),
        "decoded": args[0].decoded_hits - decoded,
    },
)
_ROUNDS = Measure(
    before=_nothing,
    after=lambda _state, _args, result: {"rounds": len(result.rounds)},
)

#: Every wrapped boundary, named after the repo module it belongs to.
LAYER_TARGETS: Tuple[Target, ...] = (
    # dtse.pipeline: the oracle and the stages it calls.
    Target("repro.dtse.pipeline", "run_pmm", "oracle"),
    Target("repro.dtse.pipeline", "distribute", "scbd.distribute"),
    Target("repro.dtse.pipeline", "assign_memories", "allocation.assign"),
    Target("repro.dtse.pipeline", "build_nest_loads", "allocation.nest_loads"),
    # dtse.scbd: what distribute calls.
    Target("repro.dtse.scbd.distribution", "balance", "scbd.balance"),
    Target("repro.dtse.scbd.distribution", "BodyFlowGraph", "scbd.flowgraph"),
    Target("repro.dtse.scbd.conflict:ConflictGraph", "from_schedules", "scbd.conflict"),
    # explore.engine / fingerprint / cache / strategies / pareto.
    Target("repro.explore.engine:Explorer", "evaluate_many", "engine.evaluate_many"),
    Target("repro.explore.engine:Explorer", "fingerprint_points", "fingerprint", _POINTS),
    Target("repro.explore.engine:EvaluationCache", "lookup_many", "cache.lookup", _LOOKUP_MANY),
    Target("repro.explore.engine:EvaluationCache", "lookup", "cache.lookup", _LOOKUP_ONE),
    Target("repro.explore.engine:EvaluationCache", "store", "cache.store"),
    Target("repro.explore.engine:EvaluationCache", "store_many", "cache.store"),
    Target("repro.explore.engine:EvaluationCache", "store_failure", "cache.store"),
    Target("repro.explore.cache:DiskCache", "get", "disk.read"),
    Target("repro.explore.cache:DiskCache", "lookup_many", "disk.read"),
    Target("repro.explore.cache:DiskCache", "put", "disk.write"),
    Target("repro.explore.cache:DiskCache", "store_many", "disk.write"),
    Target("repro.costs.report:CostReport", "from_dict", "report.decode"),
    Target("repro.costs.report:CostReport", "to_dict", "report.encode"),
    Target("repro.explore.engine:SearchDriver", "run", "driver.run", _ROUNDS),
    Target("repro.explore.strategies:ExhaustiveSweep", "propose", "strategy.propose"),
    Target("repro.explore.strategies:LinearFrontier", "propose", "strategy.propose"),
    Target("repro.explore.strategies:GreedyStepwise", "propose", "strategy.propose"),
    Target("repro.explore.strategies:SearchStrategy", "observe", "strategy.observe"),
    Target("repro.explore.strategies:LinearFrontier", "observe", "strategy.observe"),
    Target("repro.explore.strategies:GreedyStepwise", "observe", "strategy.observe"),
    Target("repro.explore.engine", "pareto_indices", "pareto.front"),
    Target("repro.explore.strategies", "pareto_indices", "pareto.front"),
    Target("repro.explore.strategies", "pareto_front", "pareto.front"),
    # apps / explore.space: space and program construction.
    Target("repro.explore.space:DesignSpace", "for_app", "space.build"),
    Target("repro.explore.space:DesignSpace", "program", "space.programs"),
)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class SpanTotals:
    """Per-name totals over one phase's spans."""

    calls: int = 0
    #: Duration of the outermost spans of this name (a recursive or
    #: re-entrant call is not counted twice).
    total_ns: int = 0
    #: Duration minus the part of the interval child spans cover.
    self_ns: int = 0
    errors: int = 0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def aggregate(spans: Sequence[list]) -> Dict[str, SpanTotals]:
    """Counts, outermost totals and self times per span name."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(parent, []).append((span[START], span[END]))
    totals: Dict[str, SpanTotals] = {}
    for span_id, span in enumerate(spans):
        name = span[NAME]
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = SpanTotals()
        duration = span[END] - span[START]
        entry.calls += 1
        entry.errors += int(span[ERROR])
        entry.self_ns += duration - _covered(children.get(span_id, []))
        if not _has_ancestor_named(spans, span, name):
            entry.total_ns += duration
        if span[ATTRS]:
            for key, value in span[ATTRS].items():
                entry.attrs[key] = entry.attrs.get(key, 0) + value
    return totals


def _has_ancestor_named(spans: Sequence[list], span: list, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        ancestor = spans[parent]
        if ancestor[NAME] == name:
            return True
        parent = ancestor[PARENT]
    return False


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    timed: Mapping[str, SpanTotals], setup: Mapping[str, SpanTotals]
) -> Dict[str, float]:
    """The explorer-side per-layer metrics of one traced run.

    ``timed`` covers the measured window; ``setup`` the set-up phase,
    which is where spaces and programs are built.
    """

    def get(name: str) -> SpanTotals:
        return timed.get(name) or SpanTotals()

    def setup_total(name: str) -> float:
        entry = setup.get(name)
        return entry.total_s if entry is not None else 0.0

    lookup = get("cache.lookup")
    hits = lookup.attrs.get("hits", 0)
    return {
        "scbd.distribute.calls": get("scbd.distribute").calls,
        "scbd.distribute.self_s": get("scbd.distribute").self_s,
        "scbd.balance.calls": get("scbd.balance").calls,
        "scbd.balance.s": get("scbd.balance").total_s,
        "scbd.flowgraph.s": get("scbd.flowgraph").total_s,
        "scbd.conflict.s": get("scbd.conflict").total_s,
        "allocation.assign.calls": get("allocation.assign").calls,
        "allocation.assign.s": get("allocation.assign").total_s,
        "allocation.nest_loads.s": get("allocation.nest_loads").total_s,
        "oracle.calls": get("oracle").calls,
        "oracle.s": get("oracle").total_s,
        "oracle.self_s": get("oracle").self_s,
        "oracle.infeasible": get("oracle").errors,
        "fingerprint.points": get("fingerprint").attrs.get("points", 0),
        "fingerprint.s": get("fingerprint").total_s,
        "cache.lookup.calls": lookup.calls,
        "cache.lookup.s": lookup.total_s,
        "cache.store.s": get("cache.store").total_s,
        "cache.hit_ratio": _ratio(hits, lookup.attrs.get("probes", 0)),
        "cache.decoded_hit_ratio": _ratio(lookup.attrs.get("decoded", 0), hits),
        "disk.read.s": get("disk.read").total_s,
        "disk.write.s": get("disk.write").total_s,
        "report.decode.s": get("report.decode").total_s,
        "report.encode.s": get("report.encode").total_s,
        "engine.evaluate_many.calls": get("engine.evaluate_many").calls,
        "engine.evaluate_many.self_s": get("engine.evaluate_many").self_s,
        "driver.rounds": get("driver.run").attrs.get("rounds", 0),
        "strategy.propose.s": get("strategy.propose").total_s,
        "strategy.observe.s": get("strategy.observe").total_s,
        "pareto.front.s": get("pareto.front").total_s,
        "space.build.s": setup_total("space.build"),
        "space.programs.s": setup_total("space.programs"),
    }
