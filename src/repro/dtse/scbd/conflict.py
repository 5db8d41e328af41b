"""The (extended) conflict graph: SCBD's interface to allocation.

Accesses scheduled into the same cycle *conflict*: they must end up in
different memories, or in a memory with enough ports.  The conflict
graph aggregates, over all loop bodies, which basic groups conflict and
how often, plus the *concurrency profile*: for every (nest, cycle) slot,
which accesses may fire simultaneously.  Allocation uses the former for
legality/cost and the latter to size memory ports.

Port demand respects mutual exclusion: accesses with incomparable
exclusive-class tags (see :func:`repro.ir.loops.are_exclusive`) never
fire together, so they can share one port.  The demand of a slot is the
largest set of pairwise *co-firing* accesses — a maximum clique over the
co-fire relation, computed exactly (slots are small).

Port demand runs on an interned view built once per graph: groups are
bit positions, and every distinct slot keeps its (tag, group bit)
entries in sorted order.  The demand of a memory is one filter of a
slot's entries by the memory's group mask, and the filtered tags are
already the sorted key of a process-wide co-fire memo (a maximum clique
does not depend on the order of its vertices).
:func:`~.balancing.clear_schedule_memo` also empties the co-fire memo.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from ...ir.loops import are_exclusive
from .balancing import BodySchedule, MemoInfo

#: Sorted tag tuples the co-fire memo holds before it starts over.
COFIRE_MEMO_ENTRIES = 4096


def _cofire_clique(tags: Tuple[str, ...]) -> int:
    """Exact maximum co-firing subset of ``tags``.

    Equal tags co-fire and have the same neighbours, so a maximum clique
    takes every copy of each tag it uses: the search runs over distinct
    tags weighted by their multiplicity.  Untagged accesses co-fire with
    everything and join every clique.
    """
    counts = Counter(tags)
    untagged = counts.pop("", 0)
    distinct = list(counts)
    weights = [counts[tag] for tag in distinct]
    cofire = [
        {
            other
            for other, tag_b in enumerate(distinct)
            if other != vertex and not are_exclusive(tag_a, tag_b)
        }
        for vertex, tag_a in enumerate(distinct)
    ]
    best = 0

    def extend(weight: int, candidates: List[int]) -> None:
        nonlocal best
        best = max(best, weight)
        reachable = sum(weights[vertex] for vertex in candidates)
        for index, vertex in enumerate(candidates):
            if weight + reachable <= best:
                return  # cannot beat the incumbent
            reachable -= weights[vertex]
            extend(
                weight + weights[vertex],
                [k for k in candidates[index + 1 :] if k in cofire[vertex]],
            )

    extend(0, list(range(len(distinct))))
    return untagged + best


class _CofireMemo:
    """Sorted tag tuple -> maximum co-firing subset size.

    Lock-free: a dict ``get`` or store is atomic under the GIL, racing
    callers store the same value, and a full memo is emptied rather
    than evicted, so no lock can be copied held into a forked child.
    Under concurrent callers the bound may be overshot by one entry per
    racing caller, and the hit/miss counters are advisory.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: Dict[Tuple[str, ...], int] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, tags: Tuple[str, ...]) -> int:
        """Co-fire count of ``tags``, which must be sorted."""
        if len(tags) <= 1:
            return len(tags)
        best = self._entries.get(tags)
        if best is not None:
            self.hits += 1
            return best
        self.misses += 1
        best = _cofire_clique(tags)
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[tags] = best
        return best

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = 0

    def info(self) -> MemoInfo:
        return MemoInfo(self.hits, self.misses, len(self._entries), self.max_entries)


_COFIRE = _CofireMemo(COFIRE_MEMO_ENTRIES)


def clear_cofire_memo() -> None:
    """Forget every memoized co-fire count."""
    _COFIRE.clear()


def cofire_memo_info() -> MemoInfo:
    """Hits, misses and size of the process-wide co-fire memo."""
    return _COFIRE.info()


def max_cofire(tags: Sequence[str]) -> int:
    """Largest pairwise co-firing subset of exclusive-class tags.

    Empty-string tags co-fire with everything.  Exact, and memoized
    process-wide on the sorted tags (inputs are per-cycle access lists:
    tiny, and the same few recur across slots, graphs and design
    points).
    """
    return _COFIRE.lookup(tuple(sorted(tags)))


#: One distinct slot of a graph's interned view: (entry count, group
#: mask, sorted (tag, group bit) entries).
_InternedSlot = Tuple[int, int, Tuple[Tuple[str, int], ...]]


@dataclass(frozen=True)
class ConcurrencySlot:
    """Accesses sharing one (nest, cycle) slot."""

    nest: str
    cycle: int
    #: (group, exclusive_class) per occurrence scheduled in this slot.
    entries: Tuple[Tuple[str, str], ...]


class ConflictGraph:
    """Weighted conflict graph over basic groups."""

    def __init__(
        self,
        edges: Mapping[Tuple[str, str], float],
        slots: Sequence[ConcurrencySlot],
    ) -> None:
        #: (a, b) with a <= b -> accumulated expected co-access traffic.
        self.edges: Dict[Tuple[str, str], float] = dict(edges)
        self.slots: Tuple[ConcurrencySlot, ...] = tuple(slots)
        groups = sorted({group for slot in self.slots for group, _ in slot.entries})
        #: Group -> its bit in a group mask (slot groups only: the rest
        #: demand no ports).
        self._bits: Dict[str, int] = {
            group: 1 << position for position, group in enumerate(groups)
        }
        # Distinct slots, largest first: equal slots demand equal ports,
        # and a slot's demand depends on a memory's groups only through
        # the slot's own (its group mask: the sum of its distinct bits).
        distinct = {
            tuple(sorted((tag, self._bits[group]) for group, tag in slot.entries))
            for slot in self.slots
        }
        self._slot_table: Tuple[_InternedSlot, ...] = tuple(
            (len(entries), sum({bit for _, bit in entries}), entries)
            for entries in sorted(
                distinct, key=lambda entries: (-len(entries), entries)
            )
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_schedules(cls, schedules: Iterable[BodySchedule]) -> "ConflictGraph":
        edges: Dict[Tuple[str, str], float] = {}
        slots: List[ConcurrencySlot] = []
        for schedule in schedules:
            for a, b, weight in schedule.conflict_pairs():
                key = (a, b)
                edges[key] = edges.get(key, 0.0) + weight
            for cycle, members in schedule.cycles().items():
                if len(members) < 2:
                    continue
                slots.append(
                    ConcurrencySlot(
                        nest=schedule.nest_name,
                        cycle=cycle,
                        entries=tuple(
                            sorted(
                                (occ.group, occ.exclusive_class)
                                for occ in members
                            )
                        ),
                    )
                )
        return cls(edges, slots)

    # ------------------------------------------------------------------
    def groups(self) -> FrozenSet[str]:
        names = set()
        for a, b in self.edges:
            names.add(a)
            names.add(b)
        return frozenset(names)

    def are_conflicting(self, group_a: str, group_b: str) -> bool:
        key = (group_a, group_b) if group_a <= group_b else (group_b, group_a)
        return self.edges.get(key, 0.0) > 0.0

    def weight(self, group_a: str, group_b: str) -> float:
        key = (group_a, group_b) if group_a <= group_b else (group_b, group_a)
        return self.edges.get(key, 0.0)

    def self_conflict(self, group: str) -> float:
        return self.edges.get((group, group), 0.0)

    def port_requirement(self, group: str) -> int:
        """Ports a memory holding only ``group`` needs."""
        return self.ports_for((group,))

    def ports_for(self, groups: Iterable[str]) -> int:
        """Ports a memory holding all of ``groups`` needs."""
        bits = self._bits
        mask = 0
        for group in groups:
            mask |= bits.get(group, 0)
        peak = 1
        for size, slot_mask, entries in self._slot_table:
            if size <= peak:
                break  # slots are largest first; none can raise the peak
            members = mask & slot_mask
            if not members:
                continue
            demand = _COFIRE.lookup(
                tuple([tag for tag, bit in entries if bit & members])
            )
            if demand > peak:
                peak = demand
        return peak

    def total_weight(self) -> float:
        return sum(self.edges.values())

    def clique_lower_bound(self) -> int:
        """Greedy lower bound on single-port memories needed.

        The size of a greedily-grown clique in the hard-conflict graph:
        groups that all pairwise conflict cannot share any single-port
        memory, so at least that many parallel memories (or ports) are
        needed.  Groups are tried by decreasing degree, ties by name.
        """
        groups = self.groups()
        degree = {
            group: sum(1 for other in groups if self.are_conflicting(group, other))
            for group in groups
        }
        clique: List[str] = []
        for group in sorted(groups, key=lambda g: (-degree[g], g)):
            if all(self.are_conflicting(group, member) for member in clique):
                clique.append(group)
        return max(1, len(clique))

    def describe(self, top: int = 12) -> str:
        lines = [
            f"Conflict graph: {len(self.groups())} groups, "
            f"{len(self.edges)} conflict pairs, "
            f"clique lower bound {self.clique_lower_bound()}"
        ]
        ranked = sorted(self.edges.items(), key=lambda item: -item[1])[:top]
        for (a, b), weight in ranked:
            kind = "self" if a == b else "pair"
            lines.append(f"  {kind}: {a:<14} {b:<14} weight {weight:>14,.0f}")
        return "\n".join(lines)
