"""Order statistics, output checks and failure accounting.

Every operation the benchmark times is also checked: sweep rows against
the committed goldens (``tests/golden/*.json``, only ever read), warm and
served records against the cold reports they must reproduce.  A point
listed in a golden's ``skipped_infeasible`` is a result, not a failure;
a wrong, missing or unexpected row is a failed operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Float tolerance of the golden harness (``tests/golden/conftest.py``).
REL_TOL = 1e-9
ABS_TOL = 1e-9

#: Notes kept per run; enough to diagnose, short enough to print.
MAX_NOTES = 20


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percent`` % of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (a measured sample, never an average)."""
    return nearest_rank(values, 50)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted and failed operations, with the first failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, note: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: MAX_NOTES - len(self.notes)])

    def to_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed, "notes": self.notes}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Tally":
        return cls(int(data["attempted"]), int(data["failed"]), list(data["notes"]))


def rows_equal(expected: Any, actual: Any) -> bool:
    """Deep equality with the golden harness's float tolerance."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            rows_equal(expected[key], actual[key]) for key in expected
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            rows_equal(a, b) for a, b in zip(expected, actual)
        )
    numeric = (
        isinstance(expected, (int, float))
        and not isinstance(expected, bool)
        and isinstance(actual, (int, float))
        and not isinstance(actual, bool)
    )
    if numeric:
        return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return expected == actual


def score_points(
    tally: Tally,
    context: str,
    expected_rows: Mapping[str, Mapping[str, Any]],
    expected_infeasible: Iterable[str],
    actual_rows: Mapping[str, Mapping[str, Any]],
    actual_infeasible: Iterable[str],
) -> None:
    """Count one operation per point, failing every point that differs.

    Points are keyed by display label.  A point both sides call
    infeasible is a correct result; a row that is wrong, missing,
    unexpected, or infeasible on one side only is a failure.
    """
    expected_bad = set(expected_infeasible)
    actual_bad = set(actual_infeasible)
    for label in sorted(set(expected_rows) | set(actual_rows) | expected_bad | actual_bad):
        expected = expected_rows.get(label)
        actual = actual_rows.get(label)
        if label in expected_bad and label in actual_bad and actual is None:
            tally.ok()
        elif label in expected_bad or label in actual_bad:
            tally.fail(f"{context}: {label!r} infeasibility differs")
        elif expected is None:
            tally.fail(f"{context}: unexpected row {label!r}")
        elif actual is None:
            tally.fail(f"{context}: missing row {label!r}")
        elif not rows_equal(expected, actual):
            tally.fail(f"{context}: row {label!r} differs from the reference")
        else:
            tally.ok()


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
def load_golden(name: str) -> Dict[str, Any]:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


#: The report columns the goldens pin (``tests/golden`` ``report_row``).
GOLDEN_COLUMNS = (
    "label",
    "onchip_area_mm2",
    "onchip_power_mw",
    "offchip_power_mw",
    "total_power_mw",
    "onchip_memories",
    "cycles_used",
    "cycle_budget",
)


def report_row(report: Any) -> Dict[str, Any]:
    """A :class:`~repro.costs.report.CostReport` in golden columns."""
    return {
        "label": report.label,
        "onchip_area_mm2": report.onchip_area_mm2,
        "onchip_power_mw": report.onchip_power_mw,
        "offchip_power_mw": report.offchip_power_mw,
        "total_power_mw": report.total_power_mw,
        "onchip_memories": report.onchip_memory_count,
        "cycles_used": report.cycles_used,
        "cycle_budget": report.cycle_budget,
    }


def golden_rows(rows: Iterable[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Golden rows keyed by label, restricted to the report columns."""
    return {row["label"]: {key: row[key] for key in GOLDEN_COLUMNS} for row in rows}


def json_round_trip(row: Mapping[str, Any]) -> Dict[str, Any]:
    """Compare in the representation the goldens store."""
    return json.loads(json.dumps(row))


def check_sweep_golden(
    tally: Tally,
    app: str,
    records: Sequence[Any],
    failures: Sequence[Any],
    context: Optional[str] = None,
) -> None:
    """A default-space sweep against ``tests/golden/<app>.json``."""
    golden = load_golden(app)
    score_points(
        tally,
        context or app,
        golden_rows(golden["evaluations"]),
        golden["skipped_infeasible"],
        {r.point.display_label: json_round_trip(report_row(r.report)) for r in records},
        [point.display_label for point, _ in failures],
    )


def check_report_dicts(
    tally: Tally,
    context: str,
    reference: Mapping[Any, Mapping[str, Any]],
    reference_infeasible: Iterable[Any],
    actual: Mapping[Any, Mapping[str, Any]],
    actual_infeasible: Iterable[Any],
) -> None:
    """Full ``CostReport.to_dict()`` payloads against the cold reports.

    Keys are any hashable point identity; the comparison is exact
    (warm and served records must be the cold reports, bit for bit).
    """
    reference_bad = set(reference_infeasible)
    actual_bad = set(actual_infeasible)
    for key in set(actual) | actual_bad:
        if key in actual_bad:
            if key in reference_bad:
                tally.ok()
            else:
                tally.fail(f"{context}: {key!r} reported infeasible")
        elif key not in reference:
            tally.fail(f"{context}: {key!r} has no cold reference")
        elif actual[key] != reference[key]:
            tally.fail(f"{context}: {key!r} differs from its cold report")
        else:
            tally.ok()
