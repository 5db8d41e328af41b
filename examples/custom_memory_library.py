"""Exploring with custom memory technology libraries.

Shows how every cost number is driven by the pluggable technology
models: a denser/lower-power on-chip generator and a low-power DRAM
series change the feedback (and potentially the decisions) everywhere
at once.  Technologies are just one more :class:`DesignSpace` axis, so
one exhaustive sweep covers the full technology x allocation grid.

Run:  python examples/custom_memory_library.py
"""

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    render_cost_table,
)
from repro.apps.btpc import BtpcConstraints, build_btpc_program, profile_btpc
from repro.dtse import merge_groups
from repro.explore import RMW_EXEMPT
from repro.memlib import (
    DramPart,
    MemoryLibrary,
    OffChipLibrary,
    OnChipGenerator,
    OnChipTechnology,
)

constraints = BtpcConstraints()
profile = profile_btpc()

# A hypothetical 0.35 um shrink: half the area, 40% of the energy.
dense_tech = OnChipTechnology(
    name="csram-0.35um",
    area_per_bit_mm2=1.5e-4,
    fixed_area_mm2=0.45,
    read_energy_base_nj=0.14,
    read_energy_scale_nj=0.018,
)

# A low-power SDRAM-era part list.
lp_parts = (
    DramPart("LP-1Mx8", words=1 << 20, width=8, cycle_ns=30.0,
             active_mw=220.0, standby_mw=1.5),
    DramPart("LP-1Mx16", words=1 << 20, width=16, cycle_ns=30.0,
             active_mw=300.0, standby_mw=2.0),
    DramPart("LP-512Kx16", words=1 << 19, width=16, cycle_ns=30.0,
             active_mw=280.0, standby_mw=1.8),
)

space = DesignSpace(
    "btpc-technologies",
    cycle_budget=constraints.cycle_budget,
    frame_time_s=constraints.frame_time_s,
    libraries={
        "0.7um + EDO DRAM (paper)": MemoryLibrary(),
        "0.35um + EDO DRAM": MemoryLibrary(onchip=OnChipGenerator(dense_tech)),
        "0.35um + LP-DRAM": MemoryLibrary(
            onchip=OnChipGenerator(dense_tech),
            offchip=OffChipLibrary(lp_parts),
        ),
    },
)
space.add_variant(
    "merged",
    build=lambda: merge_groups(
        build_btpc_program(constraints, profile), "pyr", "ridge", "pyrridge",
        rmw_exempt=RMW_EXEMPT,
    ),
)

explorer = Explorer(space)
result = explorer.explore(ExhaustiveSweep())
print(render_cost_table(result.reports(), "Same specification, three technologies"))
print()
print("pareto front:", [record.label for record in result.pareto_front()])
