"""Reference memory allocator: the string-based implementation.

This is the allocator as it was before the interned port-demand kernel
in :mod:`repro.dtse.scbd.conflict`, kept verbatim (imports aside, and
``ConflictGraph.ports_for`` calls routed to the string-based
:func:`ports_for` below) as the oracle of
``test_allocation_differential.py``: the new allocator must produce
identical allocation results.  Do not optimize it.

Memory allocation and signal-to-memory assignment (paper §4.6).

Given the conflict graph and concurrency profile from SCBD, this module
chooses the memory architecture: how many on-chip memories, which basic
groups share which memory, and which DRAM parts serve the off-chip
groups.  The optimizer minimizes a scalar cost (total power plus a small
area exchange rate) subject to:

* groups scheduled in the same cycle need enough ports on their memory
  (on-chip macros support at most two ports; off-chip parts interleave
  banks);
* on-chip macros respect the module generator's geometry limits;
* off-chip memories must sustain their traffic *per loop body* under
  the EDO page-mode model: raster streams burst at near page-hit speed,
  while multi-row stencil access patterns thrash the open row unless
  enough interleaved banks keep the working-set rows alive.

Bitwidth waste is modelled exactly as in the paper: a memory is as wide
as its widest group, so narrow groups waste the upper bits of every
word they occupy.  Basic groups accessed only by *foreground* accesses
(register hierarchy layers) are materialized as datapath register files
outside the allocation count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.costs.report import CostReport, MemoryCost
from repro.dtse.scbd.conflict import ConcurrencySlot, ConflictGraph
from repro.ir.loops import are_exclusive
from repro.ir.program import AccessCounts, Program
from repro.memlib.library import MemoryLibrary
from repro.memlib.module import MemoryKind

#: Exchange rate between on-chip area and power in the scalar objective
#: [mW per mm^2].  Small: power leads, area breaks ties — matching the
#: paper's low-power focus while keeping area-wasteful solutions penalized.
DEFAULT_AREA_WEIGHT = 0.15

#: On-chip macros support at most this many ports.
MAX_ONCHIP_PORTS = 2

#: Effective cycles per off-chip access: raster/burst streams.
PAGE_HIT_FACTOR = 1.15
#: Multi-row working set that fits within the interleaved banks.
PAGE_MIX_FACTOR = 1.3
#: Row thrash: the working set exceeds the open rows.
PAGE_MISS_FACTOR = 2.6
#: Most banks we are willing to interleave for one logical memory.
MAX_BANKS = 4


# ----------------------------------------------------------------------
# String-based port demand (formerly ConflictGraph.ports_for,
# ConcurrencySlot.demand_for and max_cofire)
# ----------------------------------------------------------------------
def max_cofire(tags: Sequence[str]) -> int:
    """Largest pairwise co-firing subset of exclusive-class tags.

    Empty-string tags co-fire with everything.  Exact branch-and-bound
    over the co-fire graph (inputs are per-cycle access lists: tiny).
    """
    items = list(tags)
    best = 0

    def extend(chosen: List[str], remaining: List[str]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for index, tag in enumerate(remaining):
            if len(chosen) + len(remaining) - index <= best:
                return  # cannot beat the incumbent
            if all(not are_exclusive(tag or None, c or None) for c in chosen):
                extend(chosen + [tag], remaining[index + 1 :])

    extend([], items)
    return best


def demand_for(slot: ConcurrencySlot, groups: Iterable[str]) -> int:
    """Simultaneous-port demand of a memory holding ``groups``."""
    members = set(groups)
    tags = [tag for group, tag in slot.entries if group in members]
    if len(tags) <= 1:
        return len(tags)
    return max_cofire(tags)


def ports_for(conflicts: ConflictGraph, groups: Iterable[str]) -> int:
    """Ports a memory holding all of ``groups`` needs."""
    members = tuple(groups)
    peak = 1
    for slot in conflicts.slots:
        peak = max(peak, demand_for(slot, members))
    return peak


class AssignmentError(ValueError):
    """Raised when no legal assignment exists."""


@dataclass(frozen=True)
class GroupNestLoad:
    """Traffic of one basic group inside one loop nest."""

    accesses_per_iteration: float
    row_streams: int
    all_sequential: bool


@dataclass(frozen=True)
class NestLoad:
    """Per-nest traffic table used by the off-chip occupancy check."""

    nest: str
    body_budget: int
    iterations: float
    per_group: Mapping[str, GroupNestLoad]


def build_nest_loads(
    program: Program, budgets: Mapping[str, int]
) -> Tuple[NestLoad, ...]:
    """Summarize each nest's per-group traffic for the page-mode model."""
    loads = []
    for nest in program.nests:
        per_group: Dict[str, GroupNestLoad] = {}
        accumulator: Dict[str, List] = {}
        for access in nest.iter_accesses():
            if access.foreground:
                continue
            entry = accumulator.setdefault(access.group, [0.0, 0, True])
            entry[0] += access.expected_accesses
            # Sites of one group share its address space: the row
            # working set is the widest stencil, not the sum of sites.
            entry[1] = max(entry[1], access.dram_rows)
            entry[2] = entry[2] and access.dram_rows == 1
        for group, (accesses, streams, sequential) in accumulator.items():
            per_group[group] = GroupNestLoad(
                accesses_per_iteration=accesses,
                row_streams=streams,
                all_sequential=sequential,
            )
        loads.append(
            NestLoad(
                nest=nest.name,
                body_budget=int(budgets.get(nest.name, 1)),
                iterations=nest.iterations,
                per_group=per_group,
            )
        )
    return tuple(loads)


def page_factor(row_streams: int, all_sequential: bool, banks: int) -> float:
    """Effective cycles per access under the EDO page-mode model."""
    if all_sequential:
        return PAGE_HIT_FACTOR
    if row_streams <= banks:
        return PAGE_MIX_FACTOR
    return PAGE_MISS_FACTOR


@dataclass(frozen=True)
class MemoryBin:
    """One memory with its assigned basic groups and evaluated cost."""

    groups: Tuple[str, ...]
    kind: MemoryKind
    words: int
    width: int
    ports: int
    area_mm2: float
    power_mw: float
    access_rate_hz: float
    module_name: str

    def as_memory_cost(self) -> MemoryCost:
        return MemoryCost(
            name=self.module_name,
            kind=self.kind,
            words=self.words,
            width=self.width,
            ports=self.ports,
            area_mm2=self.area_mm2,
            power_mw=self.power_mw,
            groups=self.groups,
            access_rate_hz=self.access_rate_hz,
        )


@dataclass
class AllocationResult:
    """Optimized memory architecture plus its cost report."""

    label: str
    onchip: Tuple[MemoryBin, ...]
    registers: Tuple[MemoryBin, ...]
    offchip: Tuple[MemoryBin, ...]
    cycles_used: float
    cycle_budget: float
    scalar_cost: float

    @property
    def onchip_memory_count(self) -> int:
        """Allocated on-chip macros (register files not counted)."""
        return len(self.onchip)

    @property
    def report(self) -> CostReport:
        memories = tuple(
            b.as_memory_cost()
            for b in tuple(self.offchip) + tuple(self.onchip) + tuple(self.registers)
        )
        return CostReport(
            label=self.label,
            memories=memories,
            cycles_used=self.cycles_used,
            cycle_budget=self.cycle_budget,
        )


class _Evaluator:
    """Caches per-bin cost evaluation for the local search."""

    def __init__(
        self,
        program: Program,
        conflicts: ConflictGraph,
        library: MemoryLibrary,
        frame_time_s: float,
        nest_loads: Sequence[NestLoad],
    ) -> None:
        self.program = program
        self.conflicts = conflicts
        self.library = library
        self.frame_time_s = frame_time_s
        self.nest_loads = tuple(nest_loads)
        self.counts: Dict[str, AccessCounts] = program.access_counts()
        self.geometry = {g.name: (g.words, g.bitwidth) for g in program.groups}
        self._cache: Dict[Tuple[bool, FrozenSet[str]], Optional[MemoryBin]] = {}

    # ------------------------------------------------------------------
    def rates(self, groups: Iterable[str]) -> Tuple[float, float]:
        # Sorted: float sums must not depend on set iteration order,
        # which follows PYTHONHASHSEED.
        ordered = sorted(groups)
        reads = sum(self.counts[g].reads for g in ordered)
        writes = sum(self.counts[g].writes for g in ordered)
        return reads / self.frame_time_s, writes / self.frame_time_s

    def evaluate(self, groups: FrozenSet[str], offchip: bool) -> Optional[MemoryBin]:
        """Cost of one memory holding ``groups``; None if illegal."""
        key = (offchip, groups)
        if key not in self._cache:
            self._cache[key] = self._evaluate(groups, offchip)
        return self._cache[key]

    # ------------------------------------------------------------------
    def _offchip_occupancy(self, groups: FrozenSet[str], banks: int):
        """(fits, effective access count) under the page-mode model.

        Checks, nest by nest, that the memory can serve its per-body
        traffic within the body budget given ``banks`` interleaved
        banks, and accumulates the effective (page-factor-weighted)
        access count for the power model.
        """
        effective_total = 0.0
        for load in self.nest_loads:
            accesses = 0.0
            streams = 0
            sequential = True
            for group in sorted(groups):  # hash-seed independent sums
                entry = load.per_group.get(group)
                if entry is None:
                    continue
                accesses += entry.accesses_per_iteration
                streams += entry.row_streams
                sequential = sequential and entry.all_sequential
            if accesses == 0.0:
                continue
            factor = page_factor(streams, sequential, banks)
            occupancy = accesses * factor
            if occupancy > load.body_budget * banks:
                return False, 0.0
            effective_total += occupancy * load.iterations
        return True, effective_total

    def _evaluate_offchip(self, groups: FrozenSet[str]) -> Optional[MemoryBin]:
        words = sum(self.geometry[g][0] for g in groups)
        width = max(self.geometry[g][1] for g in groups)
        ports = ports_for(self.conflicts, groups)
        read_rate, write_rate = self.rates(groups)
        raw_rate = read_rate + write_rate
        best: Optional[MemoryBin] = None
        for part in self.library.offchip.candidates(words, width):
            depth_banks = -(-words // part.words)
            for banks in range(max(ports, depth_banks), MAX_BANKS + 1):
                fits, effective = self._offchip_occupancy(groups, banks)
                if not fits:
                    continue
                effective_rate = effective / self.frame_time_s
                if effective_rate > banks * part.max_access_rate_hz:
                    continue
                duty = effective_rate / (banks * part.max_access_rate_hz)
                power = banks * part.standby_mw + banks * duty * (
                    part.active_mw - part.standby_mw
                )
                if best is None or power < best.power_mw:
                    suffix = f" x{banks}" if banks > 1 else ""
                    best = MemoryBin(
                        groups=tuple(sorted(groups)),
                        kind=MemoryKind.OFFCHIP,
                        words=words,
                        width=part.width,
                        ports=banks,
                        area_mm2=0.0,
                        power_mw=power,
                        access_rate_hz=raw_rate,
                        module_name=f"{part.part_number}{suffix}",
                    )
                # Keep exploring: extra banks add standby power but can
                # hold more DRAM rows open (cheaper page behaviour).
        return best

    def _evaluate(self, groups: FrozenSet[str], offchip: bool) -> Optional[MemoryBin]:
        if offchip:
            return self._evaluate_offchip(groups)
        words = sum(self.geometry[g][0] for g in groups)
        width = max(self.geometry[g][1] for g in groups)
        ports = ports_for(self.conflicts, groups)
        read_rate, write_rate = self.rates(groups)
        if ports > MAX_ONCHIP_PORTS:
            return None
        if not self.library.onchip.supports(words, width):
            return None
        module = self.library.generate_onchip(words, width, ports)
        if read_rate + write_rate > module.max_access_rate_hz:
            return None
        return MemoryBin(
            groups=tuple(sorted(groups)),
            kind=MemoryKind.ONCHIP,
            words=words,
            width=width,
            ports=ports,
            area_mm2=module.area_mm2,
            power_mw=module.total_power_mw(read_rate, write_rate),
            access_rate_hz=read_rate + write_rate,
            module_name=module.name,
        )

    def register_bin(self, group: str) -> MemoryBin:
        """A foreground group as a datapath register file."""
        words, width = self.geometry[group]
        module = self.library.registers.module(words, width)
        read_rate, write_rate = self.rates((group,))
        return MemoryBin(
            groups=(group,),
            kind=MemoryKind.ONCHIP,
            words=words,
            width=width,
            ports=module.ports,
            area_mm2=module.area_mm2,
            power_mw=module.total_power_mw(read_rate, write_rate),
            access_rate_hz=read_rate + write_rate,
            module_name=module.name,
        )


def _scalar(bins: Iterable[MemoryBin], area_weight: float) -> float:
    total = 0.0
    for memory_bin in bins:
        total += memory_bin.power_mw + area_weight * memory_bin.area_mm2
    return total


def _assign_offchip(groups: Sequence[str], evaluator: _Evaluator) -> List[MemoryBin]:
    """One off-chip memory per group, as in the paper's tool."""
    bins = []
    for name in sorted(groups):
        evaluated = evaluator.evaluate(frozenset((name,)), offchip=True)
        if evaluated is None:
            raise AssignmentError(f"group {name!r} fits no off-chip part")
        bins.append(evaluated)
    return bins


def _greedy_onchip(
    groups: Sequence[str],
    n_memories: int,
    evaluator: _Evaluator,
    area_weight: float,
    order: Sequence[str],
) -> Optional[List[FrozenSet[str]]]:
    """Greedy seeding: N singleton bins, then cheapest-fit for the rest."""
    if n_memories > len(groups):
        return None
    bins: List[set] = [{name} for name in order[:n_memories]]
    for name in order[n_memories:]:
        best_index = None
        best_delta = float("inf")
        for index, bin_groups in enumerate(bins):
            before = evaluator.evaluate(frozenset(bin_groups), offchip=False)
            after = evaluator.evaluate(frozenset(bin_groups | {name}), offchip=False)
            if after is None:
                continue
            delta = (after.power_mw + area_weight * after.area_mm2) - (
                (before.power_mw + area_weight * before.area_mm2) if before else 0.0
            )
            if delta < best_delta:
                best_delta = delta
                best_index = index
        if best_index is None:
            return None
        bins[best_index].add(name)
    return [frozenset(b) for b in bins]


def _local_search(
    bins: List[FrozenSet[str]],
    evaluator: _Evaluator,
    area_weight: float,
    max_rounds: int = 40,
) -> List[FrozenSet[str]]:
    """Move/swap local search keeping every bin non-empty."""

    def bin_cost(groups: FrozenSet[str]) -> Optional[float]:
        if not groups:
            return 0.0
        evaluated = evaluator.evaluate(groups, offchip=False)
        if evaluated is None:
            return None
        return evaluated.power_mw + area_weight * evaluated.area_mm2

    current = [set(b) for b in bins]
    for _ in range(max_rounds):
        improved = False
        # Single-group moves.
        for src_index in range(len(current)):
            if improved:
                break
            for name in sorted(current[src_index]):
                if len(current[src_index]) == 1:
                    continue
                src_before = bin_cost(frozenset(current[src_index]))
                src_after = bin_cost(frozenset(current[src_index] - {name}))
                if src_before is None or src_after is None:
                    continue
                moved = False
                for dst_index in range(len(current)):
                    if dst_index == src_index:
                        continue
                    dst_before = bin_cost(frozenset(current[dst_index]))
                    dst_after = bin_cost(frozenset(current[dst_index] | {name}))
                    if dst_before is None or dst_after is None:
                        continue
                    delta = (src_after - src_before) + (dst_after - dst_before)
                    if delta < -1e-9:
                        current[src_index].discard(name)
                        current[dst_index].add(name)
                        improved = True
                        moved = True
                        break
                if moved:
                    break
        if improved:
            continue
        # Pairwise swaps.
        for a_index in range(len(current)):
            if improved:
                break
            for b_index in range(a_index + 1, len(current)):
                if improved:
                    break
                for name_a in sorted(current[a_index]):
                    if improved:
                        break
                    for name_b in sorted(current[b_index]):
                        new_a = frozenset(current[a_index] - {name_a} | {name_b})
                        new_b = frozenset(current[b_index] - {name_b} | {name_a})
                        old_cost_a = bin_cost(frozenset(current[a_index]))
                        old_cost_b = bin_cost(frozenset(current[b_index]))
                        new_cost_a = bin_cost(new_a)
                        new_cost_b = bin_cost(new_b)
                        if None in (old_cost_a, old_cost_b, new_cost_a, new_cost_b):
                            continue
                        if (new_cost_a + new_cost_b) < (
                            old_cost_a + old_cost_b
                        ) - 1e-9:
                            current[a_index] = set(new_a)
                            current[b_index] = set(new_b)
                            improved = True
                            break
        if not improved:
            break
    return [frozenset(b) for b in current]


def assign_memories(
    program: Program,
    conflicts: ConflictGraph,
    library: MemoryLibrary,
    frame_time_s: float,
    nest_loads: Sequence[NestLoad] = (),
    n_onchip: Optional[int] = None,
    area_weight: float = DEFAULT_AREA_WEIGHT,
    cycles_used: float = 0.0,
    cycle_budget: float = 0.0,
    label: str = "",
    seed: int = 0,
) -> AllocationResult:
    """Optimize the full memory architecture for ``program``.

    ``n_onchip`` fixes the number of on-chip memories (the Table 4
    exploration axis); ``None`` sweeps and returns the best; when the
    requested count is infeasible the allocator grows it.  Register
    hierarchy layers (all-foreground groups) are materialized as
    register files and never counted in ``n_onchip``.
    """
    evaluator = _Evaluator(program, conflicts, library, frame_time_s, nest_loads)

    # Identify register-layer groups: accessed by foreground sites only.
    background: Dict[str, bool] = {g.name: False for g in program.groups}
    touched: Dict[str, bool] = {g.name: False for g in program.groups}
    for nest in program.nests:
        for access in nest.iter_accesses():
            touched[access.group] = True
            if not access.foreground:
                background[access.group] = True
    register_names = sorted(
        name for name in background if touched[name] and not background[name]
    )
    register_bins = [evaluator.register_bin(name) for name in register_names]

    remaining = [g for g in program.groups if g.name not in register_names]
    onchip_groups, offchip_groups = library.split(remaining)
    onchip_names = [g.name for g in onchip_groups]
    offchip_names = [g.name for g in offchip_groups]

    offchip_bins = _assign_offchip(offchip_names, evaluator)

    if not onchip_names:
        counts = [0]
    elif n_onchip is None:
        counts = list(range(1, len(onchip_names) + 1))
    else:
        if n_onchip < 1 or n_onchip > len(onchip_names):
            raise AssignmentError(
                f"cannot allocate {n_onchip} on-chip memories for "
                f"{len(onchip_names)} groups"
            )
        # A designer asked for N but bandwidth may demand more
        # parallel memories: grow until feasible.
        counts = list(range(n_onchip, len(onchip_names) + 1))

    traffic = {name: evaluator.counts[name].total for name in onchip_names}
    orders = [
        sorted(onchip_names, key=lambda n: (-evaluator.geometry[n][1], -traffic[n])),
        sorted(onchip_names, key=lambda n: -traffic[n]),
        sorted(onchip_names, key=lambda n: (-traffic[n], evaluator.geometry[n][1])),
    ]

    best_bins: Optional[List[MemoryBin]] = None
    best_cost = float("inf")
    for count in counts:
        if count == 0:
            if 0.0 < best_cost:
                best_cost = 0.0
                best_bins = []
            continue
        found_at_count = False
        for order in orders:
            seeded = _greedy_onchip(onchip_names, count, evaluator, area_weight, order)
            if seeded is None:
                continue
            refined = _local_search(seeded, evaluator, area_weight)
            bins = []
            legal = True
            for groups in refined:
                evaluated = evaluator.evaluate(groups, offchip=False)
                if evaluated is None:
                    legal = False
                    break
                bins.append(evaluated)
            if not legal or len(bins) != count:
                continue
            found_at_count = True
            cost = _scalar(bins, area_weight)
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_bins = bins
        if n_onchip is not None and found_at_count:
            # Fixed allocation: the first feasible count wins (growth is
            # a fallback, not an optimization opportunity).
            break
    if best_bins is None:
        raise AssignmentError(
            f"no legal on-chip assignment found (n_onchip={n_onchip})"
        )

    scalar_cost = (
        best_cost
        + _scalar(offchip_bins, area_weight)
        + _scalar(register_bins, area_weight)
    )
    return AllocationResult(
        label=label or program.name,
        onchip=tuple(sorted(best_bins, key=lambda b: -b.area_mm2)),
        registers=tuple(register_bins),
        offchip=tuple(sorted(offchip_bins, key=lambda b: -b.power_mw)),
        cycles_used=cycles_used,
        cycle_budget=cycle_budget,
        scalar_cost=scalar_cost,
    )
