"""Single-flight table semantics, exercised directly on an event loop."""

import asyncio

import pytest

from repro.service.coalesce import SingleFlight


def run(coro):
    return asyncio.run(coro)


def test_claim_partitions_owned_and_waited():
    async def scenario():
        flight = SingleFlight()
        owned, waited = flight.claim(["a", "b"])
        assert owned == ["a", "b"]
        assert waited == {}
        # A second claimer waits on both; a mixed batch splits.
        owned2, waited2 = flight.claim(["a", "b", "c"])
        assert owned2 == ["c"]
        assert set(waited2) == {"a", "b"}
        assert flight.coalesced_waits == 2
        assert len(flight) == 3
        for fingerprint in ("a", "b", "c"):
            flight.resolve(fingerprint, (None, "done"))
        assert len(flight) == 0

    run(scenario())


def test_duplicates_within_batch_claimed_once():
    async def scenario():
        flight = SingleFlight()
        owned, waited = flight.claim(["x", "x", "x"])
        assert owned == ["x"]
        assert waited == {}
        flight.resolve("x", (None, None))

    run(scenario())


def test_resolution_fans_out_to_all_waiters():
    async def scenario():
        flight = SingleFlight()
        flight.claim(["fp"])
        _, waited_a = flight.claim(["fp"])
        _, waited_b = flight.claim(["fp"])
        waits = [
            asyncio.create_task(flight.wait(waited_a["fp"])),
            asyncio.create_task(flight.wait(waited_b["fp"])),
        ]
        await asyncio.sleep(0)
        flight.resolve("fp", (None, "infeasible"))
        outcomes = await asyncio.gather(*waits)
        assert outcomes == [(None, "infeasible"), (None, "infeasible")]

    run(scenario())


def test_fail_propagates_and_retires_key():
    async def scenario():
        flight = SingleFlight()
        flight.claim(["fp"])
        _, waited = flight.claim(["fp"])
        task = asyncio.create_task(flight.wait(waited["fp"]))
        await asyncio.sleep(0)
        flight.fail("fp", RuntimeError("pool exploded"))
        with pytest.raises(RuntimeError, match="pool exploded"):
            await task
        # The key is retired: a retry claims it afresh.
        owned, waited = flight.claim(["fp"])
        assert owned == ["fp"]
        flight.resolve("fp", (None, None))

    run(scenario())


def test_waiter_cancellation_does_not_cancel_owner_future():
    async def scenario():
        flight = SingleFlight()
        flight.claim(["fp"])
        _, waited = flight.claim(["fp"])
        task = asyncio.create_task(flight.wait(waited["fp"]))
        await asyncio.sleep(0)
        task.cancel()
        await asyncio.sleep(0)
        # The shared future survives the waiter's cancellation: the
        # owner can still fan out to a later waiter.
        assert not waited["fp"].cancelled()
        flight.resolve("fp", (None, None))
        assert await waited["fp"] == (None, None)

    run(scenario())


def test_overlapping_request_receives_outcomes_resolved_since_it_began():
    async def scenario():
        flight = SingleFlight()
        flight.begin("lagging")
        flight.begin("leading")
        owned, _ = flight.claim(["fp"], "leading")
        assert owned == ["fp"]
        flight.resolve("fp", (None, "infeasible"), "leading")
        # The key is retired, yet the request that was already running
        # when it resolved coalesces instead of re-evaluating it.
        owned, waited = flight.claim(["fp"], "lagging")
        assert owned == []
        assert await flight.wait(waited["fp"]) == (None, "infeasible")
        assert flight.coalesced_waits == 1
        assert len(flight) == 0

    run(scenario())


def test_later_request_coalesces_while_the_resolver_runs():
    async def scenario():
        flight = SingleFlight()
        flight.begin("first")
        flight.claim(["fp"], "first")
        flight.resolve("fp", (None, "done"), "first")
        # Began after the resolution, but "first" is still running.
        flight.begin("late")
        owned, waited = flight.claim(["fp"], "late")
        assert owned == []
        assert await flight.wait(waited["fp"]) == (None, "done")
        flight.end("late")
        flight.end("first")

    run(scenario())


def test_sequential_and_resolving_requests_own_their_points():
    async def scenario():
        flight = SingleFlight()
        flight.begin("first")
        flight.claim(["fp"], "first")
        flight.resolve("fp", (None, None), "first")
        # The resolving request's own repeat goes through the cache.
        owned, _ = flight.claim(["fp"], "first")
        assert owned == ["fp"]
        flight.resolve("fp", (None, None), "first")
        flight.end("first")
        # A request that did not overlap the resolver owns it too.
        flight.begin("next")
        owned, _ = flight.claim(["fp"], "next")
        assert owned == ["fp"]
        flight.resolve("fp", (None, None), "next")
        flight.end("next")

    run(scenario())


def test_resolved_outcomes_retire_with_the_requests_that_could_use_them():
    async def scenario():
        flight = SingleFlight()
        flight.begin("a")
        flight.begin("b")
        flight.claim(["x"], "a")
        flight.resolve("x", (None, None), "a")
        flight.begin("c")
        flight.end("a")
        assert "x" in flight._resolved  # "b" began before it resolved
        flight.end("b")
        assert flight._resolved == {}  # "c" began after, and "a" is done
        flight.end("c")
        assert flight._active == {}

    run(scenario())
