"""Cross-workload characterization bench: the registry gallery.

Sweeps every fast registered workload's default design space through
the engine (the benchmarked kernel is one cold cavity sweep — the
largest of the new spaces) and prints the per-app Pareto summary that
future scaling PRs regress against.
"""

from repro.api import ExhaustiveSweep, Explorer, get_app, list_apps

FAST_APPS = ("cavity", "motion", "wavelet")


def _sweep(name):
    explorer = Explorer.for_app(name, on_error="skip")
    return explorer.explore(ExhaustiveSweep()), explorer


def test_registry_gallery(benchmark):
    assert set(FAST_APPS) <= set(list_apps())

    # The benchmarked kernel's sweep is reused in the summary below.
    sweeps = {"cavity": benchmark.pedantic(
        lambda: _sweep("cavity"), rounds=1, iterations=1
    )}

    print()
    print(f"{'workload':<10}{'points':>8}{'feasible':>10}{'front':>7}"
          f"{'knee area':>11}{'knee mW':>9}")
    for name in FAST_APPS:
        result, explorer = sweeps.get(name) or _sweep(name)
        knee = result.knee_point().report
        front = result.pareto_front()
        print(
            f"{name:<10}{len(explorer.space):>8}{len(result.records):>10}"
            f"{len(front):>7}{knee.onchip_area_mm2:>11.2f}"
            f"{knee.total_power_mw:>9.1f}"
        )
        # Every workload must produce a usable decision set.
        assert front and len(result.records) >= 4

    titles = {name: get_app(name).title for name in FAST_APPS}
    print()
    for name, title in titles.items():
        print(f"  {name}: {title}")
