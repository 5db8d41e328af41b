"""Storage cycle budget distribution (SCBD)."""

from .balancing import (
    BodySchedule,
    balance,
    clear_schedule_memo,
    schedule_memo_info,
)
from .conflict import ConcurrencySlot, ConflictGraph, cofire_memo_info
from .distribution import BudgetDistribution, distribute
from .flowgraph import BodyFlowGraph, InfeasibleBudget, Occurrence

__all__ = [
    "BodyFlowGraph",
    "BodySchedule",
    "BudgetDistribution",
    "ConcurrencySlot",
    "ConflictGraph",
    "InfeasibleBudget",
    "Occurrence",
    "balance",
    "clear_schedule_memo",
    "cofire_memo_info",
    "distribute",
    "schedule_memo_info",
]
