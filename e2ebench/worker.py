"""One fresh benchmark process: set up, run the timed window, check.

``run.py`` starts this file as a subprocess per cold pass and per warm
run, so no in-process memo (the registry's program cache, the
fingerprint fragment memo, the spacecache memo) can warm a later
measurement, and ``ru_maxrss`` is this run's own peak.  The last line
on standard output is one JSON object for the parent.

    python e2ebench/worker.py cold|warm --seed N --seconds S --workdir DIR
        [--setup-only] [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from calibrate import SpeedSampler
from checks import (
    Tally,
    check_report_dicts,
    check_sweep_golden,
    golden_rows,
    json_round_trip,
    load_golden,
    report_row,
    score_points,
)
from tracing import LAYER_TARGETS, Tracer, aggregate, layer_metrics

from repro.api import (
    DesignSpace,
    EvaluationCache,
    ExhaustiveSweep,
    Explorer,
    LinearFrontier,
)
from repro.explore.btpc_study import (
    CHOSEN_BUDGET_FRACTION,
    DECISIONS,
    STEP_HIERARCHY,
    TABLE3_ALLOCATION,
    TABLE3_FRACTIONS,
    TABLE4_COUNTS,
)

#: The registered workloads cheap enough to sweep exhaustively.
FAST_APPS: Tuple[str, ...] = ("cavity", "motion", "wavelet")

#: Densified axes of the warm corpus (about 200 points over the apps).
DENSE_FRACTIONS = (1.0, 0.95, 0.9, 0.85, 0.8)
DENSE_COUNTS = (None, 2, 4, 6)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Sweep:
    """One timed strategy run, as a ``perf_counter`` span."""

    name: str
    start: float
    end: float
    points: int
    oracle_calls: int


def timed_sweep(
    name: str, explorer: Explorer, strategy: Any
) -> Tuple[Sweep, Any, List[Any]]:
    """Run one strategy; the sweep counts records plus new failures."""
    failures_before = len(explorer.failures)
    misses_before = explorer.cache.misses
    start = time.perf_counter()
    result = explorer.explore(strategy)
    end = time.perf_counter()
    failures = explorer.failures[failures_before:]
    sweep = Sweep(
        name=name,
        start=start,
        end=end,
        points=len(result.records) + len(failures),
        oracle_calls=explorer.cache.misses - misses_before,
    )
    return sweep, result, failures


def scale_sweeps(sweeps: List[Sweep], speed: SpeedSampler) -> List[Dict[str, Any]]:
    """Sweeps for the parent: length at reference speed and raw."""
    return [
        {
            "name": sweep.name,
            "seconds": speed.scale(sweep.start, sweep.end),
            "raw_seconds": sweep.end - sweep.start,
            "points": sweep.points,
            "oracle_calls": sweep.oracle_calls,
        }
        for sweep in sweeps
    ]


class Phases:
    """Tracer bookkeeping: set-up spans, timed spans, the span file."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.spans: Dict[str, List[list]] = {}

    def end(self, phase: str) -> None:
        if self.tracer is not None:
            self.spans[phase] = self.tracer.take()

    def metrics(self) -> Dict[str, float]:
        timed = self.spans.get("timed", [])
        metrics = layer_metrics(aggregate(timed), aggregate(self.spans.get("setup", [])))
        metrics["trace.spans"] = len(timed)
        return metrics

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Checks between timed passes call the program too; keep them
        out of the spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.recording = False
        try:
            yield
        finally:
            self.tracer.recording = True


# ----------------------------------------------------------------------
# cold_explore: the paper's BTPC slice, then the fast apps, all cold
# ----------------------------------------------------------------------
def btpc_table_points(space: DesignSpace) -> Tuple[List[Any], List[Any]]:
    """The paper's Table 3 and Table 4 points, labelled as the study does."""
    variant = DECISIONS[STEP_HIERARCHY]
    table3 = [
        space.point(
            variant,
            budget_fraction=fraction,
            n_onchip=TABLE3_ALLOCATION,
            label=f"{fraction:.0%} budget",
        )
        for fraction in TABLE3_FRACTIONS
    ]
    table4 = [
        space.point(
            variant,
            budget_fraction=CHOSEN_BUDGET_FRACTION,
            n_onchip=count,
            label=f"{count} on-chip memories",
        )
        for count in TABLE4_COUNTS
    ]
    return table3, table4


def ready(started: float, speed: SpeedSampler) -> Dict[str, Any]:
    """The end of set-up, for the parent's ``setup_s``."""
    now = time.perf_counter()
    return {"ready": time.monotonic(), "setup_factor": speed.factor(started, now)}


def run_cold(args: argparse.Namespace, phases: Phases, speed: SpeedSampler) -> Dict[str, Any]:
    started = time.perf_counter()
    # Set-up: spaces and the programs the pass evaluates.
    btpc = DesignSpace.for_app("btpc")
    btpc.program(DECISIONS[STEP_HIERARCHY])
    spaces = {app: DesignSpace.for_app(app) for app in FAST_APPS}
    for space in spaces.values():
        for variant in space.variant_names:
            space.program(variant)
    tables = dict(zip(("btpc-table3", "btpc-table4"), btpc_table_points(btpc)))
    rng = random.Random(args.seed)
    out = ready(started, speed)
    phases.end("setup")
    if args.setup_only:
        return out

    # The timed pass.  Each BTPC point is its own strategy run, the
    # latency a designer waits on per alternative; both tables share one
    # explorer, so Table 4's 5-memory point is Table 3's 85% row, served
    # from the cache.
    workdir = Path(args.workdir)
    cache = EvaluationCache(path=workdir / "cold-cache")
    btpc_explorer = Explorer(btpc, cache=cache, workers=1, on_error="skip")
    sweeps: List[Sweep] = []
    outputs: List[Tuple[str, List[Any], List[Any]]] = []
    for name, points in tables.items():
        records: List[Any] = []
        failures: List[Any] = []
        for point in points:
            sweep, result, missed = timed_sweep(
                name, btpc_explorer, ExhaustiveSweep(points=[point], step=name)
            )
            sweeps.append(sweep)
            records.extend(result.records)
            failures.extend(missed)
        outputs.append((name, records, failures))
    # Then the fast apps: a fresh explorer each, in a seeded order.
    for app in rng.sample(FAST_APPS, len(FAST_APPS)):
        explorer = Explorer(spaces[app], cache=cache, workers=1, on_error="skip")
        sweep, result, failures = timed_sweep(app, explorer, ExhaustiveSweep())
        sweeps.append(sweep)
        outputs.append((app, result.records, failures))
    phases.end("timed")

    with phases.paused():
        tally = Tally()
        btpc_golden = load_golden("btpc_tables")
        golden_tables = {
            "btpc-table3": "table3_cycle_budget",
            "btpc-table4": "table4_allocation",
        }
        for name, records, failures in outputs:
            if name in golden_tables:
                score_points(
                    tally,
                    name,
                    golden_rows(btpc_golden[golden_tables[name]]),
                    (),
                    {
                        r.point.display_label: json_round_trip(report_row(r.report))
                        for r in records
                    },
                    [point.display_label for point, _ in failures],
                )
            else:
                check_sweep_golden(tally, name, records, failures)
    out.update(
        sweeps=scale_sweeps(sweeps, speed),
        tally=tally.to_dict(),
        rss_mb=peak_rss_mb(),
    )
    return out


# ----------------------------------------------------------------------
# warm_reexplore: a restarted process re-exploring a warm disk corpus
# ----------------------------------------------------------------------
@dataclass
class WarmCorpus:
    spaces: Dict[str, DesignSpace]
    reference: Dict[str, Dict[Any, Dict[str, Any]]]
    infeasible: Dict[str, set]
    cold_sweeps: List[Sweep]


def build_corpus(corpus_dir: Path) -> WarmCorpus:
    spaces = {
        app: DesignSpace.for_app(app).restricted(
            budget_fractions=DENSE_FRACTIONS, onchip_counts=DENSE_COUNTS
        )
        for app in FAST_APPS
    }
    for space in spaces.values():
        for variant in space.variant_names:
            space.program(variant)
    cache = EvaluationCache(path=corpus_dir)
    corpus = WarmCorpus(spaces, {}, {}, [])
    for app, space in spaces.items():
        corpus.reference[app] = {}
        corpus.infeasible[app] = set()
        # One cold sweep per budget fraction: many samples for the
        # median of cold sweep latencies.
        for fraction in DENSE_FRACTIONS:
            explorer = Explorer(space, cache=cache, workers=1, on_error="skip")
            points = space.points(budget_fractions=[fraction])
            sweep, result, failures = timed_sweep(
                app, explorer, ExhaustiveSweep(points=points)
            )
            corpus.cold_sweeps.append(sweep)
            corpus.reference[app].update(
                (r.point, r.report.to_dict()) for r in result.records
            )
            corpus.infeasible[app].update(point for point, _ in failures)
    return corpus


STRATEGIES = (("exhaustive", ExhaustiveSweep), ("frontier", LinearFrontier))


def warm_window(
    corpus: WarmCorpus,
    corpus_dir: Path,
    rng: random.Random,
    seconds: float,
    tally: Tally,
    phases: Phases,
) -> List[Sweep]:
    """Warm passes until ``seconds`` elapse; each pass is checked."""
    sweeps: List[Sweep] = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < seconds:
        # A restarted process: the corpus re-opened through a fresh
        # cache, fresh explorers, the apps in a seeded order.
        cache = EvaluationCache(path=corpus_dir)
        outputs = []
        for app in rng.sample(FAST_APPS, len(FAST_APPS)):
            for name, strategy in STRATEGIES:
                explorer = Explorer(
                    corpus.spaces[app], cache=cache, workers=1, on_error="skip"
                )
                sweep, result, failures = timed_sweep(
                    f"{app}-{name}", explorer, strategy()
                )
                sweeps.append(sweep)
                outputs.append((app, sweep.name, result, failures))
        with phases.paused():
            for app, name, result, failures in outputs:
                check_report_dicts(
                    tally,
                    name,
                    corpus.reference[app],
                    corpus.infeasible[app],
                    {r.point: r.report.to_dict() for r in result.records},
                    [point for point, _ in failures],
                )
            if cache.misses:
                tally.fail(f"warm pass ran the oracle {cache.misses} time(s)")
    return sweeps


def run_warm(args: argparse.Namespace, phases: Phases, speed: SpeedSampler) -> Dict[str, Any]:
    started = time.perf_counter()
    corpus_dir = Path(args.workdir) / "corpus"
    corpus = build_corpus(corpus_dir)
    out = ready(started, speed)
    out["cold_sweeps"] = scale_sweeps(corpus.cold_sweeps, speed)
    phases.end("setup")
    if args.setup_only:
        return out
    tracer = phases.tracer
    rng = random.Random(args.seed)
    tally = Tally()
    if tracer is None:
        sweeps = warm_window(corpus, corpus_dir, rng, args.seconds, tally, phases)
        out["sweeps"] = scale_sweeps(sweeps, speed)
    else:
        # Half the window untraced, half traced: the overhead is the
        # difference between the two.
        tracer.uninstall()
        untraced = warm_window(corpus, corpus_dir, rng, args.seconds / 2, tally, Phases(None))
        tracer.install(LAYER_TARGETS)
        tracer.take()
        traced = warm_window(corpus, corpus_dir, rng, args.seconds / 2, tally, phases)
        phases.end("timed")
        out["sweeps"] = scale_sweeps(untraced, speed)
        out["traced_sweeps"] = scale_sweeps(traced, speed)
    out.update(tally=tally.to_dict(), rss_mb=peak_rss_mb())
    return out


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/worker.py")
    parser.add_argument("mode", choices=("cold", "warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install(LAYER_TARGETS)
    phases = Phases(tracer)
    try:
        with SpeedSampler() as speed:
            out = (run_cold if args.mode == "cold" else run_warm)(args, phases, speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and not args.setup_only:
        out["layers"] = phases.metrics()
        tracer.dump(args.trace_out, phases.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
