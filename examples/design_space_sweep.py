"""Parallel, memoized, serializable exploration — the engine features.

Sweeps a motion-estimation design space twice to show the three engine
capabilities the ad-hoc drivers never had:

* ``workers=N`` fans the first sweep out over worker processes;
* the second sweep hits the content-addressed cache for every point
  (identical results, near-zero cost);
* the result set round-trips through JSON, so explorations can be
  archived, diffed and resumed across runs (pass a ``cache`` directory
  to :class:`EvaluationCache` to persist the memoization itself).

Run:  python examples/design_space_sweep.py
"""

import time

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    ExplorationResult,
    Explorer,
    render_cost_table,
)
from repro.apps.motion import MotionConstraints, build_motion_program
from repro.memlib import MemoryLibrary

constraints = MotionConstraints()

space = DesignSpace(
    "motion-sweep",
    cycle_budget=constraints.cycle_budget,
    frame_time_s=constraints.frame_time_s,
    budget_fractions=(1.0, 0.9, 0.8),
    onchip_counts=(None, 2, 4),
    libraries={
        "frames on-chip": MemoryLibrary(offchip_word_threshold=65536),
        "frames off-chip": MemoryLibrary(offchip_word_threshold=16384),
    },
)
space.add_variant("full-search", build=lambda: build_motion_program(constraints))

print(f"design space: {len(space)} points")

start = time.time()
# on_error="skip" drops infeasible corners (e.g. more on-chip memories
# than the placement policy leaves groups) instead of aborting the sweep.
# The context manager releases the explorer's persistent worker pool
# (it is forked once and reused by every batch inside the block).
with Explorer(space, workers=4, on_error="skip") as explorer:
    result = explorer.explore(ExhaustiveSweep())
    first = time.time() - start
    print(f"parallel sweep: {len(result.records)} evaluations in {first:.1f}s")
    for point, error in explorer.failures:
        print(f"  skipped infeasible point {point.display_label!r}: {error}")

    start = time.time()
    rerun = explorer.explore(ExhaustiveSweep())
    second = time.time() - start
    print(
        f"memoized rerun: {rerun.cache_hit_count()}/{len(rerun.records)} cache hits"
        f" in {second:.2f}s   [{explorer.cache.stats()}]"
    )

# Serialize, reload, and decide from the archived result.
archived = ExplorationResult.from_json(result.to_json())
front = archived.pareto_front()
print()
print(render_cost_table([r.report for r in front], "Pareto front (archived run)"))
print()
print("knee point:", archived.knee_point().label)
