"""Memory exploration of a full-search motion estimator.

A second multimedia workload (read-dominated, heavy reuse, row-hopping
reference stream) showing the tools generalize beyond the BTPC
demonstrator: MACP analysis, page-locality effects on the off-chip
choice, and the benefit of putting the frames off-chip versus on-chip —
expressed as a library axis of a ``repro.api`` design space.

Run:  python examples/motion_estimation.py
"""

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    analyze_macp,
    render_cost_table,
)
from repro.apps.motion import MotionConstraints, build_motion_program
from repro.memlib import MemoryLibrary

constraints = MotionConstraints()
program = build_motion_program(constraints)
print(program.summary())
print()
print(analyze_macp(program, constraints.cycle_budget).describe())
print()

# Two library policies: frames allowed on-chip (large macros) versus
# frames forced off-chip (cheap area, DRAM power, page behaviour).
space = DesignSpace(
    "motion",
    cycle_budget=constraints.cycle_budget,
    frame_time_s=constraints.frame_time_s,
    libraries={
        "frames on-chip": MemoryLibrary(offchip_word_threshold=65536),
        "frames off-chip": MemoryLibrary(offchip_word_threshold=16384),
    },
)
space.add_variant("full-search", program=program)

result = Explorer(space).explore(ExhaustiveSweep())
for record in result.records:
    print(record.report.describe())
    print()

print(render_cost_table(result.reports(), "Frame placement trade-off"))
