"""Flow-graph balancing: ordering accesses to minimize bandwidth cost.

Implements the per-body scheduling step of storage cycle budget
distribution (paper §4.5, [12, 17]): pack the body's access occurrences
into the given number of cycles such that dependences are respected and
the *conflict cost* — a weighted count of accesses forced into the same
cycle, which later forces them into different memories or extra ports —
is minimal.

The scheduler is a list scheduler in topological order (always feasible
when the budget is at least the critical path) followed by
iterative-improvement passes that move single occurrences to cheaper
cycles until a fixpoint.

The kernel runs on the flow graph's index-interned view (see
:mod:`.flowgraph`) over per-graph cost tables: ``pair[i][j]`` is the
conflict cost occurrence ``i`` adds next to a resident ``j``, so a
placement probe is one loop over the cycle's resident indices.  Tables
depend only on the graph's content and its *cost signature* (the weight
and port-cap functions evaluated over the body's groups), so they are
built once per distinct pair and kept in a small LRU.

Balanced schedules are memoized process-wide, keyed by graph content,
budget, cost signature and the number of improvement passes: budget
distribution probes the same (body, budget) pairs over and over, within
one :func:`~.distribution.distribute` call and across design points.
:func:`clear_schedule_memo` empties the memo (and the tables, and the
conflict graph's co-fire memo) so a measurement can start cold.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .flowgraph import BodyFlowGraph, ContentKey, Occurrence

#: Relative penalty of putting groups a and b in the same cycle.
WeightFn = Callable[[str, str], float]

#: Maximum simultaneous accesses one group's memory can serve.
PortCapFn = Callable[[str], int]

#: Cost of exceeding a group's port cap; large but finite so the budget
#: distributor can see the gain from relaxing the offending body.
PORT_VIOLATION_PENALTY = 1e9

#: Balanced schedules the process-wide memo keeps.
SCHEDULE_MEMO_ENTRIES = 1024

#: Cost-table sets kept, one per (graph content, cost signature).
COST_TABLE_ENTRIES = 32


def _default_weight(group_a: str, group_b: str) -> float:
    return 1.0


def _default_cap(group: str) -> int:
    return 2


class MemoInfo(NamedTuple):
    """Counters of the schedule memo (``functools.lru_cache`` style)."""

    hits: int
    misses: int
    entries: int
    max_entries: int


class _LRU:
    """A bounded, thread-safe least-recently-used map."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def info(self) -> MemoInfo:
        with self._lock:
            return MemoInfo(
                self.hits, self.misses, len(self._entries), self.max_entries
            )


#: (content key, budget, signature, passes) -> (labels, cycles).
_SCHEDULES = _LRU(SCHEDULE_MEMO_ENTRIES)
#: (content key, signature) -> _CostTables.
_TABLES = _LRU(COST_TABLE_ENTRIES)

# A worker pool can fork while another thread is inside the memo.  A
# lock copied into the child mid-hold is never released there, so the
# child's first balance() would block forever: hold both locks across
# fork() so the child inherits a consistent, unlocked copy.
if hasattr(os, "register_at_fork"):
    for _memo in (_SCHEDULES, _TABLES):
        os.register_at_fork(
            before=_memo._lock.acquire,
            after_in_parent=_memo._lock.release,
            after_in_child=_memo._lock.release,
        )
    del _memo


def clear_schedule_memo() -> None:
    """Forget every memoized schedule and cost table, and every co-fire
    count of the conflict graph's port sizing (cold measurements)."""
    from .conflict import clear_cofire_memo  # conflict imports this module

    _SCHEDULES.clear()
    _TABLES.clear()
    clear_cofire_memo()


def schedule_memo_info() -> MemoInfo:
    """Hits, misses and size of the process-wide schedule memo."""
    return _SCHEDULES.info()


# ----------------------------------------------------------------------
# Cost tables
# ----------------------------------------------------------------------
class _CostTables:
    """Per-(graph, cost signature) lookup tables over occurrence indices.

    * ``pair[i][j]`` — ``e_i * e_j * weight_fn(*sorted((g_i, g_j)))``,
      multiplied in that order, and ``0.0`` when i and j never fire
      together (adding ``0.0`` to a non-negative-zero sum is exact).
    * ``same[i][j]`` — 1 when j is a co-firing access of i's own group
      (so ``same[i][i] == 1``), else 0.
    * ``cap[i]`` — ``cap_fn(g_i)``.
    * ``weight[a][b]`` — ``weight_fn`` of group ids ``a`` and ``b``.
    """

    __slots__ = ("pair", "same", "cap", "weight")

    def __init__(self, graph: BodyFlowGraph, signature: ContentKey) -> None:
        weight_rows, caps = signature.parts
        n_groups = len(graph.groups)
        weight = [[0.0] * n_groups for _ in range(n_groups)]
        for x in range(n_groups):
            for y in range(x, n_groups):
                weight[x][y] = weight[y][x] = weight_rows[x][y - x]
        expected = graph.expected
        group_ids = graph.group_ids
        tag_ids = graph.tag_ids
        tag_cofire = graph.tag_cofire
        # Equal products share one float object: the tables stay small.
        values: Dict[float, float] = {}
        pair: List[List[float]] = []
        same: List[List[int]] = []
        for i, e_i in enumerate(expected):
            g_i = group_ids[i]
            row_weight = weight[g_i]
            row_cofire = tag_cofire[tag_ids[i]]
            pair_row = []
            same_row = []
            for j, e_j in enumerate(expected):
                if row_cofire[tag_ids[j]]:
                    value = e_i * e_j * row_weight[group_ids[j]]
                    pair_row.append(values.setdefault(value, value))
                    same_row.append(1 if group_ids[j] == g_i else 0)
                else:
                    pair_row.append(0.0)
                    same_row.append(0)
            pair.append(pair_row)
            same.append(same_row)
        self.pair = pair
        self.same = same
        self.cap = [caps[g] for g in group_ids]
        self.weight = weight


def _cost_tables(graph: BodyFlowGraph, signature: ContentKey) -> _CostTables:
    key = (graph.content_key, signature)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _CostTables(graph, signature)
        _TABLES.put(key, tables)
    return tables  # type: ignore[return-value]


def _by_cycle(order: Sequence[int], cycles: Sequence[int]) -> Dict[int, List[int]]:
    """Occurrence indices per cycle, in ``order`` (the assignment's keys)."""
    by_cycle: Dict[int, List[int]] = {}
    for i in order:
        by_cycle.setdefault(cycles[i], []).append(i)
    return by_cycle


def _schedule_cost(
    graph: BodyFlowGraph, tables: _CostTables, by_cycle: Dict[int, List[int]]
) -> float:
    """Total weighted conflict cost plus port-cap violations.

    The conflict terms go through builtin ``sum`` on purpose: that is how
    this cost has always been accumulated, so its value stays identical
    on every Python version (``sum`` of floats is compensated from 3.12).
    """
    expected = graph.expected
    iterations = graph.iterations
    group_ids = graph.group_ids
    tag_ids = graph.tag_ids
    tag_cofire = graph.tag_cofire
    weight = tables.weight
    cycles = list(by_cycle.values())
    total = sum(
        expected[i] * expected[j] * iterations * weight[group_ids[i]][group_ids[j]]
        for members in cycles
        for x, i in enumerate(members)
        for j in members[x + 1 :]
        if tag_cofire[tag_ids[i]][tag_ids[j]]
    )
    same = tables.same
    cap = tables.cap
    for members in cycles:
        violations = 0.0
        for x, i in enumerate(members):
            row = same[i]
            demand = 1
            for j in members[:x]:
                demand += row[j]
            if demand > cap[i]:
                violations += PORT_VIOLATION_PENALTY
        total += violations
    return total


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
@dataclass
class BodySchedule:
    """A legal cycle assignment for one loop body."""

    graph: BodyFlowGraph
    budget: int
    assignment: Dict[str, int]

    @property
    def nest_name(self) -> str:
        return self.graph.nest_name

    @property
    def iterations(self) -> float:
        return self.graph.iterations

    def _cycle_indices(self) -> Dict[int, List[int]]:
        index = self.graph.index
        by_cycle: Dict[int, List[int]] = {}
        for label, cycle in self.assignment.items():
            by_cycle.setdefault(cycle, []).append(index[label])
        return by_cycle

    def cycles(self) -> Dict[int, List[Occurrence]]:
        """Occurrences grouped by their scheduled cycle."""
        occurrences = self.graph.occurrences
        return {
            cycle: [occurrences[i] for i in members]
            for cycle, members in self._cycle_indices().items()
        }

    def conflict_pairs(self) -> Iterator[Tuple[str, str, float]]:
        """(group_a, group_b, traffic weight) for every same-cycle pair.

        ``group_a <= group_b``; equal groups indicate a self-conflict
        (the group needs a second port).  The weight is the expected
        number of co-occurrences over the whole nest.
        """
        graph = self.graph
        groups = graph.groups
        group_ids = graph.group_ids
        tag_ids = graph.tag_ids
        tag_cofire = graph.tag_cofire
        expected = graph.expected
        iterations = graph.iterations
        for members in self._cycle_indices().values():
            for x, i in enumerate(members):
                for j in members[x + 1 :]:
                    if not tag_cofire[tag_ids[i]][tag_ids[j]]:
                        continue  # never simultaneous: no conflict
                    a, b = sorted((group_ids[i], group_ids[j]))
                    yield groups[a], groups[b], expected[i] * expected[j] * iterations

    def cost(
        self,
        weight_fn: WeightFn = _default_weight,
        cap_fn: PortCapFn = _default_cap,
    ) -> float:
        """Total weighted conflict cost, including port-cap violations."""
        graph = self.graph
        tables = _cost_tables(graph, graph.cost_signature(weight_fn, cap_fn))
        return _schedule_cost(graph, tables, self._cycle_indices())

    def verify(self) -> None:
        """Assert dependence and budget legality (used by tests)."""
        for label, cycle in self.assignment.items():
            if not 1 <= cycle <= self.budget:
                raise AssertionError(f"{label} scheduled outside budget")
            for source in self.graph.preds[label]:
                if self.assignment[source] >= cycle:
                    raise AssertionError(f"dependence {source} -> {label} violated")


# ----------------------------------------------------------------------
# The kernel: occurrences are indices, ``at[i]`` is i's cycle and
# ``by_cycle[c]`` lists c's residents in placement order.  Resident
# lists see exactly the removes and appends of the label-based kernel
# this replaced, and costs are summed resident by resident in list
# order, so every schedule is bit-for-bit the same.
# ----------------------------------------------------------------------
def _placement_cost(
    pair_row: List[float], same_row: List[int], cap: int, residents: List[int]
) -> float:
    """Conflict cost added by placing an occurrence next to ``residents``."""
    cost = 0.0
    demand = 1
    for j in residents:
        cost += pair_row[j]
        demand += same_row[j]
    if demand > cap:
        cost += PORT_VIOLATION_PENALTY
    return cost


def _seed_greedy(graph: BodyFlowGraph, tables: _CostTables, budget: int) -> List[int]:
    """List schedule in topological order, cheapest cycle per node."""
    pair, same, cap = tables.pair, tables.same, tables.cap
    preds = graph.pred_indices
    sink_depths = graph.sink_depths
    at = [0] * len(graph.occurrences)
    by_cycle: List[List[int]] = [[] for _ in range(budget + 1)]
    for i in graph.topological:
        earliest = 1
        for source in preds[i]:
            earliest = max(earliest, at[source] + 1)
        latest = budget - sink_depths[i] + 1
        pair_row, same_row, cap_i = pair[i], same[i], cap[i]
        best_cycle = earliest
        best_cost = None
        for cycle in range(earliest, latest + 1):
            cost = _placement_cost(pair_row, same_row, cap_i, by_cycle[cycle])
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_cycle = cycle
                if cost == 0.0:
                    break
        at[i] = best_cycle
        by_cycle[best_cycle].append(i)
    return at


def _improve(
    graph: BodyFlowGraph,
    tables: _CostTables,
    budget: int,
    at: List[int],
    improvement_passes: int,
) -> None:
    """Occurrence moves plus whole-chain re-placement to a fixpoint."""
    pair, same, cap = tables.pair, tables.same, tables.cap
    preds, succs = graph.pred_indices, graph.succ_indices
    by_cycle: List[List[int]] = [[] for _ in range(budget + 1)]
    for i, cycle in enumerate(at):
        by_cycle[cycle].append(i)

    # Sinks first: tail occurrences move right into the slack before
    # their predecessors try to, unrolling ASAP-packed jams.
    order = graph.topological[::-1]
    for _ in range(improvement_passes):
        improved = False
        for i in order:
            current = at[i]
            earliest = 1
            for source in preds[i]:
                earliest = max(earliest, at[source] + 1)
            latest = budget
            for target in succs[i]:
                latest = min(latest, at[target] - 1)
            by_cycle[current].remove(i)
            pair_row, same_row, cap_i = pair[i], same[i], cap[i]
            here = _placement_cost(pair_row, same_row, cap_i, by_cycle[current])
            best_cycle, best_cost = current, here
            for cycle in range(earliest, latest + 1):
                if cycle == current:
                    continue
                cost = _placement_cost(pair_row, same_row, cap_i, by_cycle[cycle])
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best_cycle = cycle
            at[i] = best_cycle
            by_cycle[best_cycle].append(i)
            if best_cycle != current:
                improved = True
        for chain in graph.site_chains:
            if _replace_chain(graph, tables, budget, chain, at, by_cycle):
                improved = True
        if not improved:
            break


def _replace_chain(
    graph: BodyFlowGraph,
    tables: _CostTables,
    budget: int,
    chain: Tuple[int, ...],
    at: List[int],
    by_cycle: List[List[int]],
) -> bool:
    """Remove one site's whole chain and re-insert it greedily.

    Returns True (and keeps the new placement) only when the total cost
    strictly improved; otherwise restores the original cycles.
    """
    pair, same, cap = tables.pair, tables.same, tables.cap
    original = [at[i] for i in chain]
    chain_set = set(chain)

    before = 0.0
    for i in chain:
        cycle = at[i]
        by_cycle[cycle].remove(i)
        before += _placement_cost(pair[i], same[i], cap[i], by_cycle[cycle])
        by_cycle[cycle].append(i)
    for i in chain:
        by_cycle[at[i]].remove(i)

    after = 0.0
    previous = 0
    feasible = True
    length = len(chain)
    for index, i in enumerate(chain):
        earliest = previous + 1
        for source in graph.pred_indices[i]:
            if source not in chain_set:
                earliest = max(earliest, at[source] + 1)
        latest = budget - (length - index - 1)
        for target in graph.succ_indices[i]:
            if target not in chain_set:
                latest = min(latest, at[target] - 1)
        if earliest > latest:
            feasible = False
            break
        pair_row, same_row, cap_i = pair[i], same[i], cap[i]
        best_cycle, best_cost = earliest, None
        for cycle in range(earliest, latest + 1):
            cost = _placement_cost(pair_row, same_row, cap_i, by_cycle[cycle])
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_cycle = cycle
                if cost == 0.0:
                    break
        at[i] = best_cycle
        by_cycle[best_cycle].append(i)
        after += best_cost or 0.0
        previous = best_cycle

    if feasible and after < before - 1e-9:
        return True
    # Roll back to the original placement.
    for i in chain:
        residents = by_cycle[at[i]]
        if i in residents:
            residents.remove(i)
    for i, cycle in zip(chain, original):
        at[i] = cycle
        by_cycle[cycle].append(i)
    return False


def _find_violation(
    by_cycle: Dict[int, List[int]], tables: _CostTables
) -> Optional[int]:
    """An occurrence exceeding its group's port cap, or None."""
    same, cap = tables.same, tables.cap
    for members in by_cycle.values():
        for i in members:
            row = same[i]
            demand = 0  # counts i itself once: same[i][i] == 1
            for j in members:
                demand += row[j]
            if demand > cap[i]:
                return i
    return None


def _repair(
    graph: BodyFlowGraph,
    tables: _CostTables,
    budget: int,
    at: List[int],
    max_moves: int = 400,
) -> None:
    """Force port-cap violations out by moving offenders, pushing their
    successors right when the dependence window is closed.

    Local search alone stalls on zero-cost plateaus (a violating access
    cannot move because its successor chain sits tight behind it, and
    the successors see no penalty themselves); the push breaks exactly
    that coupling.
    """
    pair, same, cap = tables.pair, tables.same, tables.cap
    preds, succs = graph.pred_indices, graph.succ_indices
    # A dict, not a list: violations are searched in first-use order of
    # the cycles.
    by_cycle = _by_cycle(range(len(at)), at)

    def place(i: int, cycle: int) -> None:
        by_cycle[at[i]].remove(i)
        at[i] = cycle
        by_cycle.setdefault(cycle, []).append(i)

    def push_right(i: int, depth: int) -> bool:
        """Move ``i`` one cycle later, recursively shoving its
        successors when they block."""
        if depth <= 0:
            return False
        target_cycle = at[i] + 1
        if target_cycle > budget:
            return False
        for successor in succs[i]:
            if at[successor] <= target_cycle:
                if not push_right(successor, depth - 1):
                    return False
        place(i, target_cycle)
        return True

    for _ in range(max_moves):
        offender = _find_violation(by_cycle, tables)
        if offender is None:
            return
        earliest = 1
        for source in preds[offender]:
            earliest = max(earliest, at[source] + 1)
        latest = budget
        for target in succs[offender]:
            latest = min(latest, at[target] - 1)
        # Cheapest violation-free cycle in the open window.
        pair_row, same_row, cap_i = pair[offender], same[offender], cap[offender]
        best_cycle, best_cost = None, None
        current = at[offender]
        by_cycle[current].remove(offender)
        for cycle in range(earliest, latest + 1):
            if cycle == current:
                continue
            residents = by_cycle.get(cycle, [])
            demand = 1
            for j in residents:
                demand += same_row[j]
            if demand > cap_i:
                continue  # the newcomer would violate the cap itself
            cost = _placement_cost(pair_row, same_row, cap_i, residents)
            if best_cost is None or cost < best_cost:
                best_cost, best_cycle = cost, cycle
        by_cycle[current].append(offender)
        if best_cycle is not None:
            place(offender, best_cycle)
        elif not push_right(offender, depth=24):
            # Window closed and the successor chain cannot be shoved
            # right: give up; the violation stands (cost stays penalized).
            return


def _balance(
    graph: BodyFlowGraph,
    tables: _CostTables,
    budget: int,
    improvement_passes: int,
) -> Dict[str, int]:
    """The cheapest refined seed, as an assignment dict."""
    occurrence_order = range(len(graph.occurrences))
    best: Optional[Tuple[Sequence[int], List[int]]] = None
    best_cost = float("inf")
    # Each seed's assignment keys follow its construction order:
    # topological for the greedy seed, occurrence order for ASAP/ALAP.
    for order, at in (
        (graph.topological, _seed_greedy(graph, tables, budget)),
        (occurrence_order, list(graph.asap_cycles)),
        (occurrence_order, [budget - depth + 1 for depth in graph.sink_depths]),
    ):
        _improve(graph, tables, budget, at, improvement_passes)
        _repair(graph, tables, budget, at)
        _improve(graph, tables, budget, at, improvement_passes)
        cost = _schedule_cost(graph, tables, _by_cycle(order, at))
        if cost < best_cost:
            best_cost = cost
            best = (order, at)
    assert best is not None
    order, at = best
    occurrences = graph.occurrences
    return {occurrences[i].label: at[i] for i in order}


def balance(
    graph: BodyFlowGraph,
    budget: int,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
    improvement_passes: int = 5,
) -> BodySchedule:
    """Schedule one body into ``budget`` cycles minimizing conflict cost.

    Three seeds (cost-greedy, ASAP and ALAP) are refined by
    occurrence-level and chain-level local search; the cheapest result
    wins.  Results are memoized by content (see the module docstring):
    a memo hit is a fresh schedule on ``graph`` with its own assignment
    dict.  ``weight_fn`` and ``cap_fn`` must be pure.
    """
    graph.check_budget(budget)
    signature = graph.cost_signature(weight_fn, cap_fn)
    key = (graph.content_key, budget, signature, improvement_passes)
    stored = _SCHEDULES.get(key)
    if stored is not None:
        labels, cycles = stored  # type: ignore[misc]
        return BodySchedule(
            graph=graph, budget=budget, assignment=dict(zip(labels, cycles))
        )
    assignment = _balance(
        graph, _cost_tables(graph, signature), budget, improvement_passes
    )
    schedule = BodySchedule(graph=graph, budget=budget, assignment=assignment)
    schedule.verify()
    _SCHEDULES.put(key, (tuple(assignment), tuple(assignment.values())))
    return schedule
