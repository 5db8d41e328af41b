"""Per-loop-body memory access flow graphs.

The storage-cycle-budget-distribution step works on one loop body at a
time: its access sites become *occurrences* (a site executing more than
once per iteration expands into several occurrences), dependence edges
carry over, and the scheduler packs occurrences into the body's cycle
budget.

Each graph also carries an *index-interned* view for the balancing
kernel: occurrence ``i`` is ``occurrences[i]``, and neighbour lists,
topological order, ASAP cycles, depths to the sinks, site chains, group
ids and exclusive-class co-fire relations are precomputed over those
indices once per graph.  :attr:`BodyFlowGraph.content_key` identifies a
graph by content, so schedules memoized for one graph serve every graph
built from an identical loop body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

from ...ir.loops import LoopNest, are_exclusive
from ...ir.types import AccessKind


class InfeasibleBudget(ValueError):
    """Raised when a body budget is below its dependence critical path."""


@dataclass(frozen=True)
class Occurrence:
    """One schedulable access occurrence inside a loop body."""

    label: str
    site: str
    group: str
    kind: AccessKind
    #: Execution probability of the site (per body iteration).
    probability: float
    #: Expected accesses carried by this occurrence when the site fires.
    share: float = 1.0
    #: Mutual-exclusion tag inherited from the site.
    exclusive_class: str = ""

    @property
    def expected(self) -> float:
        """Expected accesses per body iteration."""
        return self.probability * self.share


class ContentKey:
    """A tuple wrapper that hashes once: memo keys are probed often."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ContentKey):
            return NotImplemented
        return self._hash == other._hash and self.parts == other.parts

    def __reduce__(self):
        # Rehash on unpickling: string hashes differ between processes.
        return (ContentKey, (self.parts,))


class BodyFlowGraph:
    """The dependence DAG of one loop body's access occurrences."""

    def __init__(self, nest: LoopNest) -> None:
        self.nest_name = nest.name
        self.iterations = nest.iterations
        self.occurrences: List[Occurrence] = []
        site_to_occurrences: Dict[str, List[str]] = {}
        foreground_sites = set()
        for access in nest.iter_accesses():
            if access.foreground:
                # Register-file traffic: costs no storage cycles.
                foreground_sites.add(access.label)
                site_to_occurrences[access.label] = []
                continue
            copies = max(1, math.ceil(access.multiplicity))
            share = access.multiplicity / copies
            labels = []
            for copy in range(copies):
                label = access.label if copies == 1 else f"{access.label}#{copy}"
                labels.append(label)
                self.occurrences.append(
                    Occurrence(
                        label=label,
                        site=access.label,
                        group=access.group,
                        kind=access.kind,
                        probability=access.probability,
                        share=share,
                        exclusive_class=access.exclusive_class or "",
                    )
                )
            site_to_occurrences[access.label] = labels
        # Bridge site-level dependences through foreground sites (their
        # accesses cost no cycles but still order their neighbours).
        site_edges = set(nest.dependences)
        changed = True
        while changed:
            changed = False
            for src, dst in list(site_edges):
                if dst in foreground_sites:
                    for src2, dst2 in list(site_edges):
                        if src2 == dst and (src, dst2) not in site_edges:
                            site_edges.add((src, dst2))
                            changed = True
        pred_sets: Dict[str, set] = {occ.label: set() for occ in self.occurrences}
        for src_site, dst_site in site_edges:
            sources = site_to_occurrences[src_site]
            targets = site_to_occurrences[dst_site]
            if not sources or not targets:
                continue
            # Pipelined walk semantics: step i of the consumer follows
            # step i of the producer (two multi-access walks overlap in
            # hardware; only matching steps are ordered).
            for index, dst in enumerate(targets):
                src = sources[min(index, len(sources) - 1)]
                pred_sets[dst].add(src)
        # Occurrences of one site are inherently sequential (repeated
        # executions of the same access in one iteration, e.g. a tree
        # walk): chain them so the scheduler cannot fake parallelism.
        for labels in site_to_occurrences.values():
            for src, dst in zip(labels, labels[1:]):
                pred_sets[dst].add(src)
        self.preds = {label: frozenset(srcs) for label, srcs in pred_sets.items()}
        self.succs: Dict[str, FrozenSet[str]] = self._invert(self.preds)
        self._depth_from_source = self._longest_paths(self.preds)
        self._depth_to_sink = self._longest_paths(self.succs)
        self._intern()
        self._signatures: Dict[Tuple[Callable, Callable], ContentKey] = {}

    def __getstate__(self) -> dict:
        # The signature memo is keyed by (often local) functions, which
        # do not pickle; it refills on demand.
        state = self.__dict__.copy()
        state["_signatures"] = {}
        return state

    # ------------------------------------------------------------------
    @staticmethod
    def _invert(edges: Dict[str, FrozenSet[str]]) -> Dict[str, FrozenSet[str]]:
        inverted: Dict[str, set] = {label: set() for label in edges}
        for dst, sources in edges.items():
            for src in sources:
                inverted[src].add(dst)
        return {label: frozenset(targets) for label, targets in inverted.items()}

    def _longest_paths(self, preds: Dict[str, FrozenSet[str]]) -> Dict[str, int]:
        """Longest chain ending at each node (1 = source node)."""
        depth: Dict[str, int] = {}

        def visit(label: str) -> int:
            if label not in depth:
                best = 0
                for source in preds[label]:
                    best = max(best, visit(source))
                depth[label] = best + 1
            return depth[label]

        for label in preds:
            visit(label)
        return depth

    def _intern(self) -> None:
        """Build the index-interned view the balancing kernel runs on.

        Neighbour index lists keep the iteration order of :attr:`preds`
        and :attr:`succs`, so index-based code visits neighbours in the
        same order as label-based code.
        """
        occurrences = self.occurrences
        index = {occ.label: i for i, occ in enumerate(occurrences)}
        self.index: Dict[str, int] = index
        self.pred_indices: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index[src] for src in self.preds[occ.label])
            for occ in occurrences
        )
        self.succ_indices: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index[dst] for dst in self.succs[occ.label])
            for occ in occurrences
        )
        self.topological: Tuple[int, ...] = tuple(
            sorted(
                range(len(occurrences)),
                key=lambda i: (
                    self._depth_from_source[occurrences[i].label],
                    occurrences[i].label,
                ),
            )
        )
        self.asap_cycles: Tuple[int, ...] = tuple(
            self._depth_from_source[occ.label] for occ in occurrences
        )
        self.sink_depths: Tuple[int, ...] = tuple(
            self._depth_to_sink[occ.label] for occ in occurrences
        )
        chains: Dict[str, List[int]] = {}
        for i, occ in enumerate(occurrences):
            chains.setdefault(occ.site, []).append(i)
        #: Occurrence indices of every multi-occurrence site, in chain order.
        self.site_chains: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(chain) for chain in chains.values() if len(chain) >= 2
        )
        self.expected: Tuple[float, ...] = tuple(occ.expected for occ in occurrences)
        #: Distinct basic groups, sorted; ``group_ids[i]`` indexes it.
        self.groups: Tuple[str, ...] = tuple(sorted({occ.group for occ in occurrences}))
        group_index = {group: k for k, group in enumerate(self.groups)}
        self.group_ids: Tuple[int, ...] = tuple(
            group_index[occ.group] for occ in occurrences
        )
        tags = sorted({occ.exclusive_class for occ in occurrences})
        tag_index = {tag: k for k, tag in enumerate(tags)}
        self.tag_ids: Tuple[int, ...] = tuple(
            tag_index[occ.exclusive_class] for occ in occurrences
        )
        #: ``tag_cofire[s][t]``: accesses tagged s and t can fire together.
        self.tag_cofire: Tuple[Tuple[bool, ...], ...] = tuple(
            tuple(not are_exclusive(a or None, b or None) for b in tags)
            for a in tags
        )
        self.content_key = ContentKey(
            (
                self.nest_name,
                self.iterations,
                tuple(
                    (
                        occ.label,
                        occ.site,
                        occ.group,
                        occ.kind,
                        occ.probability,
                        occ.share,
                        occ.exclusive_class,
                    )
                    for occ in occurrences
                ),
                self.succ_indices,
            )
        )

    def cost_signature(
        self,
        weight_fn: Callable[[str, str], float],
        cap_fn: Callable[[str], int],
    ) -> ContentKey:
        """``weight_fn`` over this body's sorted group pairs plus ``cap_fn``
        per group: everything balancing reads of the two functions.

        Row ``x`` holds ``weight_fn(groups[x], groups[y])`` for
        ``y >= x``.  Memoized per function pair, so both functions must
        be pure.
        """
        key = (weight_fn, cap_fn)
        signature = self._signatures.get(key)
        if signature is None:
            groups = self.groups
            signature = ContentKey(
                (
                    tuple(
                        tuple(weight_fn(a, b) for b in groups[x:])
                        for x, a in enumerate(groups)
                    ),
                    tuple(cap_fn(group) for group in groups),
                )
            )
            self._signatures[key] = signature
        return signature

    # ------------------------------------------------------------------
    def occurrence(self, label: str) -> Occurrence:
        return self.occurrences[self.index[label]]

    @property
    def macp(self) -> int:
        """Body critical path in cycles."""
        return max(self._depth_from_source.values(), default=0)

    @property
    def sequential_length(self) -> int:
        """Cycles needed when every occurrence has its own cycle."""
        return len(self.occurrences)

    def asap(self, label: str) -> int:
        """Earliest feasible cycle (1-based)."""
        return self._depth_from_source[label]

    def alap(self, label: str, budget: int) -> int:
        """Latest feasible cycle under ``budget``."""
        return budget - self._depth_to_sink[label] + 1

    def check_budget(self, budget: int) -> None:
        if budget < self.macp:
            raise InfeasibleBudget(
                f"nest {self.nest_name!r}: budget {budget} below critical "
                f"path {self.macp}"
            )

    def topological_order(self) -> List[Occurrence]:
        """Occurrences ordered so predecessors come first."""
        return [self.occurrences[i] for i in self.topological]
