"""Quickstart: describe an application, explore its memory organizations.

Builds a toy windowed-filter specification, declares a design space over
it (cycle-budget fractions x allocation counts), sweeps it through the
memoized exploration engine and picks from the Pareto front — the whole
methodology in one page, driven through the ``repro.api`` facade.

Run:  python examples/quickstart.py
"""

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    ProgramBuilder,
    analyze_macp,
    render_cost_table,
)

# 1. Describe the application: arrays and loop nests with their accesses.
builder = ProgramBuilder("fir_demo", description="windowed filter over a line buffer")
builder.array("samples", shape=(4096,), bitwidth=12, description="input line")
builder.array("coeffs", shape=(32,), bitwidth=16, description="filter taps")
builder.array("output", shape=(4096,), bitwidth=16, description="filtered line")

nest = builder.nest("filter", iterators=("i",), trips=(4096,))
sample = nest.read("samples", index=("i",))
# Eight taps per output sample: a sequential walk over the coefficients.
taps = nest.read("coeffs", mult=8.0, after=[sample], label="taps")
nest.write("output", index=("i",), after=[taps])
program = builder.build()
print(program.summary())

# 2. Check the memory-access critical path against the cycle budget.
CYCLE_BUDGET = 50_000
FRAME_TIME_S = 1e-3
print()
print(analyze_macp(program, CYCLE_BUDGET).describe())

# 3. Declare the design space: one program variant, two exploration axes.
space = DesignSpace("fir_demo", cycle_budget=CYCLE_BUDGET, frame_time_s=FRAME_TIME_S)
space.add_variant("baseline", program=program)
space.budget_fractions = (1.0, 0.9, 0.8)
space.onchip_counts = (None, 2, 3)

# 4. Sweep it.  The explorer memoizes every evaluation (rerunning this
#    sweep is free) and can fan out over processes with workers=N.
explorer = Explorer(space)
result = explorer.explore(ExhaustiveSweep())

print()
print(render_cost_table(result.reports(), f"All {len(result.records)} design points"))

# 5. Decide: the non-dominated set and the balanced (knee) choice.
front = result.pareto_front()
print()
print(render_cost_table([r.report for r in front], "Pareto front (area vs power)"))
print()
print("knee point:", result.knee_point().label)
