"""Memory allocation and signal-to-memory assignment."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.dtse.allocation.assign import (
    AssignmentError,
    assign_memories,
    build_nest_loads,
    page_factor,
    PAGE_HIT_FACTOR,
    PAGE_MISS_FACTOR,
    PAGE_MIX_FACTOR,
)
from repro.dtse.pipeline import make_cap_fn, make_weight_fn, run_pmm
from repro.dtse.scbd import distribute
from repro.ir import ProgramBuilder
from repro.memlib import MemoryKind, default_library


def _toy_program(n_groups=4):
    builder = ProgramBuilder("toy")
    for index in range(n_groups):
        builder.array(f"g{index}", (256,), 8 + 2 * index)
    nest = builder.nest("body", ("i",), (1000,))
    for index in range(n_groups):
        nest.read(f"g{index}")
    return builder.build()


def _allocate(program, budget, n_onchip=None, frame_time_s=1e-3, **kwargs):
    library = default_library()
    distribution = distribute(
        program, budget,
        make_weight_fn(program, library), make_cap_fn(program, library),
    )
    return assign_memories(
        program=program,
        conflicts=distribution.conflict_graph,
        library=library,
        frame_time_s=frame_time_s,
        nest_loads=build_nest_loads(program, distribution.budgets),
        n_onchip=n_onchip,
        **kwargs,
    )


def test_page_factor_rules():
    assert page_factor(1, True, 1) == PAGE_HIT_FACTOR
    assert page_factor(3, False, 4) == PAGE_MIX_FACTOR
    assert page_factor(3, False, 1) == PAGE_MISS_FACTOR


def test_fixed_allocation_counts():
    program = _toy_program(4)
    for count in (1, 2, 4):
        result = _allocate(program, 10_000, n_onchip=count)
        assert len(result.onchip) == count


def test_bitwidth_waste_is_modelled():
    program = _toy_program(2)  # widths 8 and 10
    merged_bins = _allocate(program, 10_000, n_onchip=1)
    split_bins = _allocate(program, 10_000, n_onchip=2)
    single = merged_bins.onchip[0]
    assert single.width == 10  # the wide group sets the memory width
    # Two right-sized memories avoid the wasted upper bits.
    assert sum(b.words * b.width for b in split_bins.onchip) < (
        single.words * single.width
    )


def test_conflicting_groups_need_ports_or_separation():
    program = _toy_program(2)
    # Budget 1: both reads land in the same cycle -> hard conflict.
    result = _allocate(program, 1000, n_onchip=1)
    assert result.onchip[0].ports == 2
    relaxed = _allocate(program, 2000, n_onchip=1)
    assert relaxed.onchip[0].ports == 1


def test_auto_allocation_beats_or_matches_fixed():
    program = _toy_program(4)
    auto = _allocate(program, 10_000)
    for count in (1, 2, 3, 4):
        fixed = _allocate(program, 10_000, n_onchip=count)
        assert auto.scalar_cost <= fixed.scalar_cost + 1e-6


def test_strict_rejects_infeasible():
    program = _toy_program(5)
    with pytest.raises(AssignmentError):
        _allocate(program, 10_000, n_onchip=6)


def test_offchip_page_behaviour_prices_stencils():
    builder = ProgramBuilder("page")
    builder.array("frame", (1 << 20,), 8)
    nest = builder.nest("scan", ("i",), (100_000,))
    nest.read("frame", label="seq", rows=1)
    sequential = builder.build()

    builder = ProgramBuilder("page2")
    builder.array("frame", (1 << 20,), 8)
    nest = builder.nest("scan", ("i",), (100_000,))
    nest.read("frame", label="stencil", rows=3)
    strided = builder.build()

    cost_seq = _allocate(
        sequential, 1_000_000, frame_time_s=0.02
    ).report.offchip_power_mw
    cost_str = _allocate(
        strided, 1_000_000, frame_time_s=0.02
    ).report.offchip_power_mw
    assert cost_str > cost_seq  # page misses (or extra banks) cost power


def test_register_groups_become_register_files(btpc_program, constraints):
    from repro.dtse import apply_hierarchy

    program = apply_hierarchy(
        btpc_program, "encode_l0", "image",
        use_registers=True, use_rowbuffer=False,
    )
    result = run_pmm(
        program, constraints.cycle_budget, constraints.frame_time_s,
        label="regs",
    )
    names = [b.module_name for b in result.allocation.registers]
    assert any(name.startswith("regfile") for name in names)
    # Register files are not part of the allocation count.
    assert all(
        "regfile" not in b.module_name for b in result.allocation.onchip
    )


def test_report_memory_kinds(btpc_program, constraints):
    result = run_pmm(
        btpc_program, constraints.cycle_budget, constraints.frame_time_s,
    )
    report = result.report
    assert report.onchip_area_mm2 > 0
    assert report.offchip_power_mw > 0
    assert all(m.kind is MemoryKind.OFFCHIP for m in report.offchip)
    assert report.total_power_mw == pytest.approx(
        report.onchip_power_mw + report.offchip_power_mw
    )


#: Evaluates the BTPC Table 3 "85% budget" point and prints its report.
_TABLE3_POINT_SCRIPT = """
import json
from repro.api import DesignSpace, Explorer
from repro.explore.btpc_study import DECISIONS, STEP_HIERARCHY, TABLE3_ALLOCATION
space = DesignSpace.for_app("btpc")
point = space.point(
    DECISIONS[STEP_HIERARCHY],
    budget_fraction=0.85,
    n_onchip=TABLE3_ALLOCATION,
    label="85% budget",
)
print(json.dumps(Explorer(space).evaluate_many([point])[0].report.to_dict()))
"""


def test_reports_do_not_depend_on_the_hash_seed():
    """Fingerprint-equal requests give byte-identical reports across
    processes, whatever order their string sets iterate in."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", _TABLE3_POINT_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
