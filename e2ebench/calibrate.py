"""Machine-speed calibration for the benchmark's timed metrics.

On the shared 2-vCPU VM this benchmark was written on, each vCPU flips
between a fast and a slow state (about 1.7× apart) several times a
second, and the share of slow time drifts from minute to minute.  The
same BTPC oracle call then takes anywhere from 2.7 s to 4.8 s, and raw
30-second windows of identical code differ by 15–30 % between runs.

The slowdown hits all interpreted code alike, so a daemon thread in the
measuring process times a tiny fixed kernel (this file; the program
under test never runs in it) in thread CPU time every ``INTERVAL_S``.
Sharing the interpreter lock with the workload, it runs on the same
vCPU in between the workload's own time slices.  Every duration the
benchmark reports is converted to *reference speed*:

    reported = raw × REFERENCE_S / (mean kernel time sampled during it)

For ten repeats of one BTPC oracle call, this took the quartile spread
from 0.37 (raw) to 0.07.  A change to the program moves the workload's
time and not the kernel's, so it shows in full.  The sampler costs the
workload about 3 % of its CPU, the same on every run.  Raw times and the
mean speed factor go to standard error with every result.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import List, Tuple

#: Kernel iterations per sample (well under a millisecond).
KERNEL_N = 2000
#: Pause between samples.
INTERVAL_S = 0.02
#: Kernel CPU time at reference speed: its typical time on the 2-vCPU
#: VM (Python 3.11) the benchmark was written on, in its fast state.
REFERENCE_S = 8.0e-4
#: Units shorter than this many samples use the nearest samples.
MIN_SAMPLES = 10


def kernel(n: int = KERNEL_N) -> int:
    """Fixed interpreted work: dict updates, tuple building, a sort."""
    table: dict = {}
    items: List[tuple] = []
    for i in range(n):
        key = i % 509
        table[key] = table.get(key, 0) + i
        items.append((key, i & 7))
    items.sort()
    return len(table) + len(items)


class SpeedSampler:
    """Background kernel samples, and speed factors over time spans.

    Use as a context manager around everything that is timed; spans are
    ``time.perf_counter()`` readings.
    """

    def __init__(self) -> None:
        self._stamps: List[float] = []
        self._costs: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            kernel()
            cost = time.thread_time() - start
            with self._lock:
                self._stamps.append(time.perf_counter())
                self._costs.append(cost)

    def factor(self, start: float, end: float) -> float:
        """Speed relative to reference over ``[start, end]`` (below 1
        when the machine ran slow)."""
        with self._lock:
            stamps, costs = list(self._stamps), list(self._costs)
        if not costs:
            raise RuntimeError("no speed samples yet")
        low = bisect.bisect_left(stamps, start)
        high = bisect.bisect_right(stamps, end)
        if high - low < MIN_SAMPLES:
            # Widen around the span until it holds enough samples.
            low, high = _nearest(stamps, (start + end) / 2, MIN_SAMPLES)
        window = costs[low:high]
        return REFERENCE_S / (sum(window) / len(window))

    def scale(self, start: float, end: float) -> float:
        """The span's length at reference speed."""
        return (end - start) * self.factor(start, end)


def _nearest(stamps: List[float], middle: float, count: int) -> Tuple[int, int]:
    """Index range of the ``count`` stamps closest to ``middle``."""
    low = high = bisect.bisect_left(stamps, middle)
    while high - low < min(count, len(stamps)):
        if low == 0:
            high += 1
        elif high == len(stamps) or middle - stamps[low - 1] <= stamps[high] - middle:
            low -= 1
        else:
            high += 1
    return low, high
