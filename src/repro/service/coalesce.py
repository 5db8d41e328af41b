"""Single-flight coalescing: one oracle evaluation per fingerprint.

Concurrent sweep requests routinely overlap — two clients asking for
the same app's default space must not run the oracle twice for the
shared points.  The cache already absorbs *sequential* overlap; the
:class:`SingleFlight` table absorbs *concurrent* overlap: the first
request to reach a fingerprint becomes its **owner** and evaluates it,
every later request becomes a **waiter** on the same future, and the
owner's outcome — a decoded report *or* a cached failure — fans out to
all of them.  Failures coalesce exactly like successes: an infeasible
point evaluated once rejects every waiter with the same message.

Coalescing covers requests that *overlap in time*, not just claims that
land inside one evaluation window.  A request registered with
:meth:`SingleFlight.begin` also receives, as an already-resolved wait,
an outcome another request resolved while the two overlapped: the
resolving request is still running, or the outcome resolved after this
request began.  A fast oracle otherwise lets a request that starts or
lags a batch behind its peers find the batch already retired and run
it again (as cache hits).  Resolved outcomes are dropped once no running
request can receive them, so sequential requests go through the cache.

The table is **event-loop confined**: claims and resolutions happen on
the service's loop (never from worker threads), so no locking is
needed and the claim/await window is race-free by construction.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..costs.report import CostReport

#: The fanned-out outcome of one evaluation: ``(report, None)`` for a
#: feasible point, ``(None, error)`` for a cached failure.
Outcome = Tuple[Optional[CostReport], Optional[str]]


class SingleFlight:
    """Fingerprint -> in-flight future table with claim semantics."""

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Future[Outcome]"] = {}
        #: Running requests -> the resolution count when they began.
        self._active: Dict[Hashable, int] = {}
        #: fingerprint -> (resolution number, resolving request, outcome),
        #: kept while a running request overlaps the resolving one.
        self._resolved: Dict[str, Tuple[int, Hashable, Outcome]] = {}
        self._resolutions = 0
        #: Total waits served by someone else's evaluation.
        self.coalesced_waits = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def begin(self, request: Hashable) -> None:
        """Register a running request (see the module docstring)."""
        self._active[request] = self._resolutions

    def end(self, request: Hashable) -> None:
        """Retire a request and the outcomes no running request can use."""
        self._active.pop(request, None)
        if not self._active:
            self._resolved.clear()
            return
        oldest = min(self._active.values())
        for fingerprint in [
            fingerprint
            for fingerprint, (number, resolver, _) in self._resolved.items()
            if number <= oldest and resolver not in self._active
        ]:
            del self._resolved[fingerprint]

    def claim(
        self, fingerprints: Sequence[str], request: Optional[Hashable] = None
    ) -> Tuple[List[str], Dict[str, "asyncio.Future[Outcome]"]]:
        """Partition a batch into owned and awaited fingerprints.

        Fingerprints with no in-flight evaluation are **claimed**: a
        future is installed for each and the caller must eventually
        :meth:`resolve` or :meth:`fail` it (duplicates within the batch
        are claimed once).  The rest map to the existing futures the
        caller should await — for a begun ``request``, including
        already-resolved futures for outcomes of requests it overlaps.
        Must run on the event loop — no ``await`` may occur between
        partitioning and future installation, which is what makes the
        claim atomic.
        """
        loop = asyncio.get_running_loop()
        began = self._active.get(request) if request is not None else None
        owned: List[str] = []
        waited: Dict[str, "asyncio.Future[Outcome]"] = {}
        for fingerprint in dict.fromkeys(fingerprints):
            future = self._inflight.get(fingerprint)
            if future is None and began is not None:
                entry = self._resolved.get(fingerprint)
                if entry is not None and self._overlaps(entry, request, began):
                    future = loop.create_future()
                    future.set_result(entry[2])
            if future is None:
                self._inflight[fingerprint] = loop.create_future()
                owned.append(fingerprint)
            else:
                waited[fingerprint] = future
        self.coalesced_waits += len(waited)
        return owned, waited

    def _overlaps(
        self, entry: Tuple[int, Hashable, Outcome], request: Hashable, began: int
    ) -> bool:
        number, resolver, _ = entry
        if resolver == request:
            return False  # a request's own repeats go through the cache
        return number > began or resolver in self._active

    def resolve(
        self,
        fingerprint: str,
        outcome: Outcome,
        request: Optional[Hashable] = None,
    ) -> None:
        """Fan an owner's outcome out to every waiter and retire the key."""
        future = self._inflight.pop(fingerprint, None)
        if future is not None and not future.done():
            future.set_result(outcome)
        self._resolutions += 1
        if self._active:
            self._resolved[fingerprint] = (self._resolutions, request, outcome)

    def fail(self, fingerprint: str, error: BaseException) -> None:
        """Propagate an owner's *infrastructure* failure to waiters.

        This is for evaluation machinery blowing up (not an infeasible
        point, which is a normal :meth:`resolve` with an error
        outcome).  Waiters see the exception; the key is retired so a
        retry can claim it afresh.
        """
        future = self._inflight.pop(fingerprint, None)
        if future is not None and not future.done():
            future.set_exception(error)

    async def wait(self, future: "asyncio.Future[Outcome]") -> Outcome:
        """Await another request's evaluation (shielded from this
        waiter's cancellation, so a dropped client never cancels work
        an owner and other waiters still depend on)."""
        return await asyncio.shield(future)
