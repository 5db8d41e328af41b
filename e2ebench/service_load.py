"""The ``service_mixed`` workload: a closed loop against two servers.

``python -m repro.cacheserver`` and ``python -m repro.service --cache
remote://…`` run as subprocesses on ephemeral ports.  Two client
connections (one thread each) issue seeded schedules: warm default-space
sweeps of the fast apps, and one sweep in every ``NOVEL_EVERY`` at a
novel budget fraction that misses every cache, runs the oracle inside
the service and writes behind to the cache server.
"""

from __future__ import annotations

import http.client
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from calibrate import SpeedSampler
from checks import Tally, check_report_dicts, check_sweep_golden, median, nearest_rank

from repro.api import ExhaustiveSweep, Explorer, RemoteCache
from repro.service.client import ServiceClient, ServiceError

FAST_APPS: Tuple[str, ...] = ("cavity", "motion", "wavelet")
CONNECTIONS = 2
#: One request in this many is a novel-budget (oracle) sweep.
NOVEL_EVERY = 20
#: Each connection draws novel fractions from its own range, so the two
#: schedules never collide; both exclude the default-space fractions.
NOVEL_RANGES = ((0.86, 0.925), (0.925, 0.99))
#: Novel sweeps re-evaluated in process after the window (one per app).
SAMPLE_PER_APP = 1
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0

PointKey = Tuple[str, float, Optional[int], str]


def point_key(point: Mapping[str, Any]) -> PointKey:
    """A point's axis coordinates (the presentation label is ignored)."""
    n_onchip = point.get("n_onchip")
    return (
        point["variant"],
        float(point["budget_fraction"]),
        None if n_onchip is None else int(n_onchip),
        point["library"],
    )


# ----------------------------------------------------------------------
# Seeded schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    app: str
    #: ``None`` sweeps the app's default space (warm); a number sweeps
    #: the default space at that one novel budget fraction (cold).
    fraction: Optional[float] = None


def schedule(
    seed: int, connection: int, warm_fractions: Sequence[float]
) -> Iterator[Request]:
    """An endless request stream for one connection, fixed by the seed.

    Every block of ``NOVEL_EVERY`` requests holds exactly one novel
    sweep at a seeded position; novel sweeps cycle through the apps in
    seeded order, and warm sweeps pick their app at random.
    """
    rng = random.Random(f"{seed}/{connection}")
    low, high = NOVEL_RANGES[connection % len(NOVEL_RANGES)]
    excluded = set(warm_fractions)
    novel_apps: List[str] = []
    while True:
        novel_at = rng.randrange(NOVEL_EVERY)
        for index in range(NOVEL_EVERY):
            if index != novel_at:
                yield Request(rng.choice(FAST_APPS))
                continue
            if not novel_apps:
                novel_apps = rng.sample(FAST_APPS, len(FAST_APPS))
            fraction = round(rng.uniform(low, high), 6)
            while fraction in excluded:
                fraction = round(rng.uniform(low, high), 6)
            excluded.add(fraction)
            yield Request(novel_apps.pop(), fraction)


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class Server:
    """One server subprocess, its ready line and its drain."""

    def __init__(self, argv: Sequence[str], env: Mapping[str, str], log: Path) -> None:
        self.log_path = log
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=dict(env),
            text=True,
        )

    def wait_ready(self, pattern: str) -> int:
        """Read stdout until the bound-port line; return the port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(pattern, line)
                if match:
                    return int(match.group(1))
        raise RuntimeError(f"server did not start: {self.log_tail()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> Optional[int]:
        """SIGTERM, wait for the drain; the exit code (None if killed)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
                return None
            return self.proc.returncode
        finally:
            self._log.close()

    def log_tail(self, lines: int = 5) -> str:
        if not self._log.closed:
            self._log.flush()
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-lines:])


@dataclass
class Stack:
    """A cache server and the service in front of it."""

    cacheserver: Server
    service: Server
    cache_port: int
    service_port: int

    def stop(self, tally: Tally) -> None:
        # The service drains first: its write-behind stores must reach
        # a cache server that is still up.
        for name, server in (("service", self.service), ("cacheserver", self.cacheserver)):
            code = server.stop()
            if code == 0:
                tally.ok()
            else:
                tally.fail(f"{name} drain was not clean (exit {code}): {server.log_tail()}")


def server_env(workdir: Path, src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_SPACECACHE_DIR"] = str(workdir / "spacecache")
    return env


def boot(workdir: Path, src: Path, index: int) -> Stack:
    env = server_env(workdir, src)
    cacheserver = Server(
        [sys.executable, "-m", "repro.cacheserver", "--host", "127.0.0.1", "--port", "0"],
        env,
        workdir / f"cacheserver-{index}.log",
    )
    try:
        cache_port = cacheserver.wait_ready(r"serving on [\d.]+:(\d+)")
        service = Server(
            [
                sys.executable, "-m", "repro.service",
                "--host", "127.0.0.1", "--port", "0",
                "--cache", f"remote://127.0.0.1:{cache_port}",
            ],
            env,
            workdir / f"service-{index}.log",
        )
    except BaseException:
        cacheserver.stop()
        raise
    try:
        service_port = service.wait_ready(r"serving on http://[\d.]+:(\d+)")
    except BaseException:
        service.stop()
        cacheserver.stop()
        raise
    return Stack(cacheserver, service, cache_port, service_port)


# ----------------------------------------------------------------------
# References and stream checks
# ----------------------------------------------------------------------
@dataclass
class Reference:
    reports: Dict[PointKey, Dict[str, Any]]
    infeasible: set
    warm_fractions: Tuple[float, ...]


def cold_references(tally: Tally) -> Dict[str, Reference]:
    """In-process cold sweeps of the default spaces, checked on goldens."""
    references = {}
    for app in FAST_APPS:
        explorer = Explorer.for_app(app, workers=1, on_error="skip")
        result = explorer.explore(ExhaustiveSweep())
        check_sweep_golden(
            tally, app, result.records, explorer.failures, context=f"{app} reference"
        )
        references[app] = Reference(
            {point_key(r.point.to_dict()): r.report.to_dict() for r in result.records},
            {point_key(point.to_dict()) for point, _ in explorer.failures},
            tuple(explorer.space.budget_fractions),
        )
    return references


def check_stream(
    context: str,
    events: Sequence[Mapping[str, Any]],
    reference: Optional[Reference],
    fraction: Optional[float],
) -> Tally:
    """One request's stream: well formed, complete, and (given a
    reference) identical to the cold reports."""
    tally = Tally()
    if not events or events[0].get("type") != "start" or events[-1].get("type") != "end":
        tally.fail(f"{context}: stream did not end with an end event")
        return tally
    records = {
        point_key(event["record"]["point"]): event["record"]["report"]
        for event in events
        if event["type"] == "record"
    }
    failures = [point_key(event["point"]) for event in events if event["type"] == "failure"]
    if len(records) + len(failures) != events[0]["points"]:
        streamed = len(records) + len(failures)
        tally.fail(f"{context}: {streamed} of {events[0]['points']} points streamed")
    if fraction is not None and any(key[1] != fraction for key in list(records) + failures):
        tally.fail(f"{context}: a point is off the requested budget fraction")
    if reference is not None:
        check_report_dicts(
            tally, context, reference.reports, reference.infeasible, records, failures
        )
    return tally


def warm_up(stack: Stack, references: Mapping[str, Reference], tally: Tally) -> None:
    with ServiceClient("127.0.0.1", stack.service_port, timeout=REQUEST_TIMEOUT_S) as client:
        for app in FAST_APPS:
            events = list(client.sweep(app))
            request_tally = check_stream(f"{app} warm-up", events, references[app], None)
            _count_request(tally, request_tally)


def _count_request(tally: Tally, request_tally: Tally) -> None:
    """One request is one operation: failed if any of its checks failed."""
    if request_tally.failed:
        tally.fail("; ".join(request_tally.notes[:2]) or "request failed")
    else:
        tally.ok()


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    request: Request
    send_ns: int
    start_ns: int
    end_ns: int
    events: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def points(self) -> int:
        return sum(1 for event in self.events if event["type"] in ("record", "failure"))


def drive(
    port: int,
    schedules: Sequence[Iterator[Request]],
    seconds: float,
    min_requests: int,
) -> Tuple[List[Outcome], float, float]:
    """Run every connection's schedule until ``seconds`` have passed
    *and* ``min_requests`` have completed; returns the outcomes and the
    window's ``perf_counter`` span."""
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def connection(requests: Iterator[Request]) -> None:
        with ServiceClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as client:
            for request in requests:
                with lock:
                    if time.perf_counter() >= deadline and len(outcomes) >= min_requests:
                        return
                outcome = run_request(client, request)
                with lock:
                    outcomes.append(outcome)

    threads = [
        threading.Thread(target=connection, args=(requests,), daemon=True)
        for requests in schedules
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client connection did not finish")
    return outcomes, start, time.perf_counter()


def run_request(client: ServiceClient, request: Request) -> Outcome:
    """One sweep, timed from send to its ``end`` event."""
    send_ns = time.perf_counter_ns()
    start_ns = 0
    events: List[Dict[str, Any]] = []
    error = None
    try:
        fractions = None if request.fraction is None else [request.fraction]
        for event in client.sweep(request.app, budget_fractions=fractions):
            if event["type"] == "start":
                start_ns = time.perf_counter_ns()
            events.append(event)
    # A failed request is recorded and the loop goes on: failures are
    # counted, not fatal.
    except (ServiceError, http.client.HTTPException, OSError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    end_ns = time.perf_counter_ns()
    return Outcome(request, send_ns, start_ns or end_ns, end_ns, events, error)


def check_outcomes(
    outcomes: Sequence[Outcome],
    references: Mapping[str, Reference],
    tally: Tally,
) -> None:
    for outcome in outcomes:
        request = outcome.request
        context = f"{request.app} sweep" + (
            "" if request.fraction is None else f" at {request.fraction}"
        )
        if outcome.error is not None:
            tally.fail(f"{context}: {outcome.error}")
            continue
        reference = references[request.app] if request.fraction is None else None
        _count_request(tally, check_stream(context, outcome.events, reference, request.fraction))


def check_novel_sample(outcomes: Sequence[Outcome], seed: int, tally: Tally) -> None:
    """Re-evaluate a seeded sample of novel sweeps in process."""
    rng = random.Random(f"{seed}/sample")
    by_app: Dict[str, List[Outcome]] = {}
    for outcome in outcomes:
        if outcome.request.fraction is not None and outcome.error is None:
            by_app.setdefault(outcome.request.app, []).append(outcome)
    for app in sorted(by_app):
        for outcome in rng.sample(by_app[app], min(SAMPLE_PER_APP, len(by_app[app]))):
            fraction = outcome.request.fraction
            explorer = Explorer.for_app(app, workers=1, on_error="skip")
            points = explorer.space.points(budget_fractions=[fraction])
            records = explorer.evaluate_many(points)
            reference = Reference(
                {point_key(r.point.to_dict()): r.report.to_dict() for r in records},
                {point_key(point.to_dict()) for point, _ in explorer.failures},
                (),
            )
            _count_request(
                tally,
                check_stream(
                    f"{app} re-evaluated at {fraction}", outcome.events, reference, fraction
                ),
            )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def window_metrics(
    outcomes: Sequence[Outcome], start: float, end: float, speed: SpeedSampler
) -> Dict[str, float]:
    """End-to-end metrics of one window, at reference speed."""
    elapsed = speed.scale(start, end)
    latencies = [
        speed.scale(o.send_ns / 1e9, o.end_ns / 1e9) * 1e3 for o in outcomes
    ]
    cold = [
        latency
        for latency, o in zip(latencies, outcomes)
        if o.request.fraction is not None
    ]
    return {
        "points_per_s": sum(outcome.points for outcome in outcomes) / elapsed,
        "sweeps_per_s": len(outcomes) / elapsed,
        "sweep_p50_ms": median(latencies),
        "sweep_p99_ms": nearest_rank(latencies, 99),
        "cold_sweep_p50_ms": median(cold) if cold else 0.0,
    }


def _delta(after: Mapping[str, Any], before: Mapping[str, Any], *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before  # type: ignore[operator]


def server_layer_metrics(
    outcomes: Sequence[Outcome],
    stats: Tuple[Mapping[str, Any], Mapping[str, Any]],
    cache_stats: Tuple[Mapping[str, Any], Mapping[str, Any]],
) -> Dict[str, float]:
    """Client-side timing plus ``/v1/stats`` and STATS deltas."""
    before, after = stats
    cache_before, cache_after = cache_stats
    served = [o for o in outcomes if o.error is None]
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    return {
        "service.first_event_p50_ms": median([(o.start_ns - o.send_ns) / 1e6 for o in served])
        if served
        else 0.0,
        "service.stream_p50_ms": median([(o.end_ns - o.start_ns) / 1e6 for o in served])
        if served
        else 0.0,
        "service.requests": _delta(after, before, "requests", "total"),
        "service.rejected": sum(
            _delta(after, before, "requests", key)
            for key in ("rejected_budget", "rejected_busy", "rejected_draining")
        ),
        "service.coalesced_waits": _delta(after, before, "singleflight", "coalesced_waits"),
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cacheserver.requests": _delta(cache_after, cache_before, "requests"),
        "cacheserver.keys_requested": _delta(cache_after, cache_before, "keys_requested"),
        "cacheserver.keys_served": _delta(cache_after, cache_before, "keys_served"),
        "cacheserver.keys_stored": _delta(cache_after, cache_before, "keys_stored"),
        "cacheserver.errors": _delta(cache_after, cache_before, "errors"),
    }


def snapshot(stack: Stack) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``/v1/stats`` and the cache server's STATS, read together."""
    with ServiceClient("127.0.0.1", stack.service_port, timeout=REQUEST_TIMEOUT_S) as client:
        service_stats = client.stats()
    remote = RemoteCache("127.0.0.1", stack.cache_port, write_behind=False)
    try:
        cache_stats = remote.server_stats()
    finally:
        remote.close()
    return service_stats, cache_stats
