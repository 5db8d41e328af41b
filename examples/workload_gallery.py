"""Cross-workload characterization: every registered app, one sweep.

The registry makes workloads addressable by name, so one loop
characterizes the whole gallery: for each app, sweep its default design
space through the memoized engine, print the Pareto front and the knee
point, and compare how differently the four applications trade on-chip
area against power.  Large spaces (BTPC's full paper axes) are sampled
at their corners to keep the gallery interactive; pass ``--full`` to
sweep everything.

Run:  python examples/workload_gallery.py [--full]
"""

import sys
import time

from repro.api import (
    ExhaustiveSweep,
    Explorer,
    get_app,
    list_apps,
    render_cost_table,
)

FULL = "--full" in sys.argv[1:]
CORNER_SAMPLE_THRESHOLD = 24

print(f"registered workloads: {', '.join(list_apps())}")

for name in list_apps():
    spec = get_app(name)
    constraints = spec.default_constraints()
    print()
    print("=" * 72)
    print(f"{name}: {spec.title}")
    print(f"  {spec.description}")
    print(
        f"  cycle budget {constraints.cycle_budget:,} /"
        f" frame time {constraints.frame_time_s * 1e3:.1f} ms,"
        f" variants: {', '.join(spec.variant_names)}"
    )

    explorer = Explorer.for_app(name, constraints, on_error="skip")
    space = explorer.space
    points = None
    if len(space) > CORNER_SAMPLE_THRESHOLD and not FULL:
        points = space.corners()
        print(f"  sampling {len(points)} corners of {len(space)} points"
              " (pass --full for the whole space)")
    start = time.time()
    result = explorer.explore(ExhaustiveSweep(points))
    seconds = time.time() - start
    skipped = f", {len(explorer.failures)} infeasible" if explorer.failures else ""
    print(f"  {len(result.records)} evaluations in {seconds:.1f}s{skipped}")
    print()
    front = result.pareto_front()
    print(render_cost_table(
        [record.report for record in front],
        f"{name}: Pareto front (area vs power)",
    ))
    print(f"knee point: {result.knee_point().label}")
