"""End-to-end exploration benchmark: one run of one workload.

    python3 e2ebench/run.py --workload cold_explore|warm_reexplore|service_mixed
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
— the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  A readable summary goes
to standard error.  See ``e2ebench/README.md`` for what each workload
loads and which metric each layer moves.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Per-run scratch space and kept span files, inside the checkout.
WORK = ROOT / ".e2ebench"

sys.path.insert(0, str(HERE))

from checks import Tally, median, nearest_rank  # noqa: E402

WORKLOADS = ("cold_explore", "warm_reexplore", "service_mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: service_mixed completes at least this many requests per window, so
#: at least ten samples lie beyond its p99.
MIN_REQUESTS = 1000
WORKER_TIMEOUT_S = 170.0

#: Server-side per-layer metrics; zero on the in-process workloads.
SERVER_METRICS = (
    "service.first_event_p50_ms",
    "service.stream_p50_ms",
    "service.requests",
    "service.rejected",
    "service.coalesced_waits",
    "service.cache.hit_ratio",
    "cacheserver.requests",
    "cacheserver.keys_requested",
    "cacheserver.keys_served",
    "cacheserver.keys_stored",
    "cacheserver.errors",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------
def sweep_metrics(
    sweeps: Sequence[Mapping[str, Any]], cold: Sequence[Mapping[str, Any]]
) -> Dict[str, float]:
    """Throughput and latency over timed sweeps (``cold``: the sweeps
    that ran the oracle)."""
    seconds = sum(sweep["seconds"] for sweep in sweeps)
    latencies = [sweep["seconds"] * 1e3 for sweep in sweeps]
    return {
        "points_per_s": sum(sweep["points"] for sweep in sweeps) / seconds,
        "sweeps_per_s": len(sweeps) / seconds,
        "sweep_p50_ms": median(latencies),
        "sweep_p99_ms": nearest_rank(latencies, 99),
        "cold_sweep_p50_ms": median([sweep["seconds"] * 1e3 for sweep in cold]),
    }


def points_rate(sweeps: Sequence[Mapping[str, Any]], key: str = "seconds") -> float:
    return sum(sweep["points"] for sweep in sweeps) / sum(sweep[key] for sweep in sweeps)


def report_speed(sweeps: Sequence[Mapping[str, Any]]) -> None:
    """Raw throughput and the machine-speed factor, on standard error."""
    factor = sum(s["seconds"] for s in sweeps) / sum(s["raw_seconds"] for s in sweeps)
    print(
        f"e2ebench: speed factor {factor:.4f}, raw points_per_s "
        f"{points_rate(sweeps, 'raw_seconds'):.6g}",
        file=sys.stderr,
    )


def trace_metrics(
    layers: Mapping[str, float],
    untraced_rate: float,
    traced_rate: float,
    timed_s: float,
) -> Dict[str, float]:
    """Per-layer metrics plus the tracing overhead and its base."""
    metrics = {name: 0.0 for name in SERVER_METRICS}
    metrics.update(layers)
    metrics.update(
        {
            "trace.untraced_points_per_s": untraced_rate,
            "trace.traced_points_per_s": traced_rate,
            "trace.overhead_pct": (untraced_rate / traced_rate - 1.0) * 100.0,
            "trace.timed_s": timed_s,
            "scbd.balance.share": layers["scbd.balance.s"] / timed_s,
        }
    )
    return metrics


def shape(metrics: Mapping[str, float], section: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Exactly the section's metrics, each with its declared unit."""
    names = [entry["name"] for entry in section]
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise BenchmarkError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return {
        entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
        for entry in section
    }


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_SPACECACHE_DIR"] = str(workdir / "spacecache")
    return env


def worker(
    mode: str,
    args: argparse.Namespace,
    workdir: Path,
    *,
    setup_only: bool = False,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh process; its JSON plus ``setup_s``
    (process start to the end of set-up)."""
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", str(workdir),
    ]
    if setup_only:
        argv.append("--setup-only")
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=child_env(workdir),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker timed out") from None
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}: {tail}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["ready"] - spawned) * out["setup_factor"]
    return out


def trace_path(args: argparse.Namespace) -> Path:
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{args.workload}-seed{args.seed}.jsonl"


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def cold_explore(args: argparse.Namespace, workdir: Path) -> Tuple[Tally, Dict[str, float]]:
    tally = Tally()
    if args.trace:
        plain = worker("cold", args, workdir / "plain")
        traced = worker("cold", args, workdir / "traced", trace_out=trace_path(args))
        for out in (plain, traced):
            tally.merge(Tally.from_dict(out["tally"]))
        metrics = trace_metrics(
            traced["layers"],
            points_rate(plain["sweeps"]),
            points_rate(traced["sweeps"]),
            sum(sweep["raw_seconds"] for sweep in traced["sweeps"]),
        )
        return tally, metrics
    # Whole cold passes, each in a fresh process, while the next one
    # still fits the window (at least one).
    passes: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(worker("cold", args, workdir / f"pass{len(passes)}"))
        now = time.monotonic()
        if now - start + (now - began) > args.seconds:
            break
    setups = [out["setup_s"] for out in passes]
    while len(setups) < SETUP_REPEATS:
        out = worker("cold", args, workdir / f"setup{len(setups)}", setup_only=True)
        setups.append(out["setup_s"])
    sweeps = [sweep for out in passes for sweep in out["sweeps"]]
    for out in passes:
        tally.merge(Tally.from_dict(out["tally"]))
    metrics = sweep_metrics(sweeps, [sweep for sweep in sweeps if sweep["oracle_calls"]])
    report_speed(sweeps)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = max(out["rss_mb"] for out in passes)
    return tally, metrics


def warm_reexplore(args: argparse.Namespace, workdir: Path) -> Tuple[Tally, Dict[str, float]]:
    if args.trace:
        out = worker("warm", args, workdir, trace_out=trace_path(args))
        return Tally.from_dict(out["tally"]), trace_metrics(
            out["layers"],
            points_rate(out["sweeps"]),
            points_rate(out["traced_sweeps"]),
            sum(sweep["raw_seconds"] for sweep in out["traced_sweeps"]),
        )
    runs = [
        worker("warm", args, workdir / f"setup{index}", setup_only=True)
        for index in range(SETUP_REPEATS - 1)
    ]
    full = worker("warm", args, workdir / "timed")
    runs.append(full)
    metrics = sweep_metrics(
        full["sweeps"], [sweep for out in runs for sweep in out["cold_sweeps"]]
    )
    report_speed(full["sweeps"])
    metrics["setup_s"] = median([out["setup_s"] for out in runs])
    metrics["peak_rss_mb"] = full["rss_mb"]
    return Tally.from_dict(full["tally"]), metrics


def service_mixed(args: argparse.Namespace, workdir: Path) -> Tuple[Tally, Dict[str, float]]:
    # The benchmark process is the client; it imports the program for
    # the cold references, with its own per-run spacecache directory.
    os.environ["REPRO_SPACECACHE_DIR"] = str(workdir / "spacecache")
    sys.path.insert(0, str(SRC))
    import service_load as load
    from calibrate import SpeedSampler
    from tracing import LAYER_TARGETS, Tracer, aggregate, layer_metrics

    tally = Tally()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(LAYER_TARGETS)
    try:
        references = load.cold_references(tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_spans = tracer.take() if tracer is not None else []
    warm_fractions = sorted({f for ref in references.values() for f in ref.warm_fractions})
    schedules = [load.schedule(args.seed, c, warm_fractions) for c in range(load.CONNECTIONS)]

    live: List[Any] = []
    setups: List[float] = []
    try:
        with SpeedSampler() as speed:
            for index in range(SETUP_REPEATS):
                began = time.perf_counter()
                stack = load.boot(workdir, SRC, index)
                live.append(stack)
                load.warm_up(stack, references, tally)
                setups.append(speed.scale(began, time.perf_counter()))
                if index < SETUP_REPEATS - 1:
                    live.pop().stop(tally)
            stack = live[0]
            if tracer is None:
                outcomes, start, end = load.drive(
                    stack.service_port, schedules, args.seconds, MIN_REQUESTS
                )
                metrics = load.window_metrics(outcomes, start, end, speed)
                print(f"e2ebench: speed factor {speed.factor(start, end):.4f}", file=sys.stderr)
            else:
                half = args.seconds / 2
                untraced, start, end = load.drive(
                    stack.service_port, schedules, half, MIN_REQUESTS // 2
                )
                untraced_rate = load.window_metrics(untraced, start, end, speed)
                before = load.snapshot(stack)
                traced, start, end = load.drive(
                    stack.service_port, schedules, half, MIN_REQUESTS // 2
                )
                after = load.snapshot(stack)
                traced_rate = load.window_metrics(traced, start, end, speed)
                outcomes = untraced + traced
        peak_rss = stack.service.peak_rss_mb() + stack.cacheserver.peak_rss_mb()
    finally:
        while live:
            live.pop().stop(tally)
    load.check_outcomes(outcomes, references, tally)
    load.check_novel_sample(outcomes, args.seed, tally)
    if tracer is None:
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = peak_rss
        return tally, metrics

    for outcome in traced:
        parent = tracer.record("service.sweep", outcome.send_ns, outcome.end_ns)
        tracer.record("service.stream", outcome.start_ns, outcome.end_ns, parent)
    spans = {"setup": setup_spans, "timed": tracer.take()}
    tracer.dump(trace_path(args), spans)
    layers = layer_metrics(aggregate([]), aggregate(setup_spans))
    layers["trace.spans"] = len(spans["timed"])
    metrics = trace_metrics(
        layers,
        untraced_rate["points_per_s"],
        traced_rate["points_per_s"],
        end - start,
    )
    metrics.update(
        load.server_layer_metrics(traced, (before[0], after[0]), (before[1], after[1]))
    )
    return tally, metrics


RUNNERS: Dict[str, Callable[[argparse.Namespace, Path], Tuple[Tally, Dict[str, float]]]] = {
    "cold_explore": cold_explore,
    "warm_reexplore": warm_reexplore,
    "service_mixed": service_mixed,
}


# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summary(result: Mapping[str, Any], notes: Sequence[str]) -> str:
    lines = [
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    lines.extend(f"  failure: {note}" for note in notes)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print("e2ebench: run from the root of a full checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally, metrics = RUNNERS[args.workload](args, workdir)
        if not args.trace:
            metrics["ok_share"] = (tally.attempted - tally.failed) / tally.attempted
        section = spec["per_layer" if args.trace else "end_to_end"]
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": shape(metrics, section),
        }
    except BenchmarkError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(summary(result, tally.notes), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
