"""The built-in perf cases against the real oracle (fast apps only)."""

from pathlib import Path

import pytest

from repro.perf import FAST_APPS, BenchReport, get_case, list_cases, run_case

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "perf_baseline.json"
)


def test_fast_apps_are_registered_workloads():
    from repro.api import list_apps

    assert set(FAST_APPS) <= set(list_apps())


def test_every_fast_app_has_the_case_family():
    names = set(list_cases())
    for app in FAST_APPS:
        assert f"oracle_single_{app}" in names
        assert f"sweep_cold_{app}" in names
        assert f"resweep_memoized_{app}" in names


def test_registered_cases_match_the_committed_baseline():
    """Every registered case is gated: same names and tags as the baseline.

    ``repro.perf compare`` skips a case the baseline lacks, so a case
    registered without a baseline entry would silently go ungated.
    """
    baseline = BenchReport.from_json(BASELINE)
    registered = {name: set(get_case(name).tags) for name in list_cases()}
    committed = {case.name: set(case.tags) for case in baseline.cases}
    assert registered == committed


def test_oracle_single_case_counts_one_eval():
    result = run_case(
        get_case("oracle_single_motion"), min_seconds=0.0, max_repeats=1
    )
    assert result.evals == 1
    assert result.points == 1
    assert result.evals_per_sec > 0


def test_sweep_cold_case_reports_cold_cache():
    result = run_case(get_case("sweep_cold_motion"), min_seconds=0.0, max_repeats=1)
    assert result.evals == result.cache["misses"] > 0
    assert result.cache["hits"] == 0
    assert result.points >= result.evals


def test_resweep_memoized_case_is_all_hits():
    result = run_case(
        get_case("resweep_memoized_motion"), min_seconds=0.0, max_repeats=1
    )
    assert result.evals > 0
    assert result.cache["misses"] == 0
    assert result.cache["hit_rate"] == pytest.approx(1.0)


def test_warm_pool_case_measures_fresh_points_only():
    """The warm-pool case times oracle misses, not pool spin-up."""
    result = run_case(
        get_case("sweep_parallel_warm_pool_cavity"), min_seconds=0.0, max_repeats=1
    )
    assert result.evals > 0
    # Every timed evaluation was fresh work through the warm pool: the
    # two setup points were excluded and their counters reset.
    assert result.cache["hits"] == 0
    assert result.evals == result.cache["misses"]
    assert result.evals_per_sec > 0


def test_registry_warm_disk_resweep_never_reruns_the_oracle():
    """Acceptance: a warm DiskCache re-sweep does zero oracle re-evals."""
    result = run_case(
        get_case("registry_sweep_warm_disk"), min_seconds=0.0, max_repeats=1
    )
    assert result.evals > 0
    assert result.cache["misses"] == 0
    assert result.cache["backend"] == "DiskCache"
    # The on-disk store held every report the re-sweep needed.
    backend_stats = result.cache["backend_stats"]
    assert backend_stats["corrupt"] == 0


def test_registry_warm_decoded_resweep_stays_in_the_decoded_tier():
    """The decoded-tier case: every probe resolves to a live report."""
    result = run_case(
        get_case("registry_resweep_warm_decoded"), min_seconds=0.0, max_repeats=1
    )
    assert result.evals > 0
    assert result.cache["misses"] == 0
    # All warm probes were absorbed by the decoded tier.
    assert result.cache["decoded_hits"] >= result.cache["hits"] > 0
    assert "quick" in result.tags and "decoded" in result.tags
