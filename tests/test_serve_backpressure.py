"""Backpressure and lifecycle behavior of the streaming server.

Every test drives a real asyncio event loop but is wrapped in
``asyncio.wait_for`` so a regression that deadlocks (full queue with no
consumer, drain on a dead worker, shutdown racing producers) fails the
suite with a timeout instead of hanging CI.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.base import ReplacementPolicy
from repro.serve import ServerClosed, StreamServer
from repro.sim import ExperimentSpec

TIMEOUT = 30  # seconds; generous — the tests themselves run in < 1s


def run(coro):
    """Run a coroutine under the suite's hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def join_spec(cache_size: int = 4) -> ExperimentSpec:
    return ExperimentSpec(kind="join", cache_size=cache_size)


class ExplodingPolicy(ReplacementPolicy):
    """LRU until step ``fuse``, then raises — a worker-crash fixture."""

    name = "exploding"

    def __init__(self, fuse: int):
        self.fuse = fuse
        self.calls = 0

    def select_victims(self, candidates, n_evict, ctx):
        if ctx.time >= self.fuse:
            raise RuntimeError("boom")
        return sorted(candidates, key=lambda t: t.arrival)[:n_evict]


def test_backpressure_engages_and_releases_without_deadlock():
    recorder = CounterRecorder()

    async def go():
        server = StreamServer(
            join_spec(),
            lambda: make_policy("lru"),
            queue_maxsize=2,
            step_delay=0.002,
            recorder=recorder,
        )
        await server.start()
        for t in range(40):
            await server.submit(t, t % 5, (t + 1) % 5)
        await server.drain()
        # Backpressure released: queues are empty again and a fresh
        # submit completes promptly.
        assert all(s.queue.empty() for s in server.shards)
        await server.submit(40, 1, 2)
        await server.stop()
        return server

    server = run(go())
    assert server.backpressure_waits > 0
    assert recorder.counters["serve.backpressure.engaged"] > 0
    assert sum(s.events_applied for s in server.shards) == 41
    assert recorder.counters["sim.steps"] == 41


def test_slow_consumer_bounds_queue_depth():
    async def go():
        server = StreamServer(
            join_spec(),
            lambda: make_policy("lru"),
            queue_maxsize=3,
            step_delay=0.001,
        )
        await server.start()
        for t in range(30):
            await server.submit(t, t % 4, t % 7)
        await server.stop()
        return server

    server = run(go())
    # A bounded queue can never report a depth beyond its bound.
    assert all(s.max_queue_depth <= 3 for s in server.shards)
    assert sum(s.events_applied for s in server.shards) == 30


def test_producer_cancellation_leaves_shard_state_consistent():
    async def go():
        server = StreamServer(
            join_spec(cache_size=3),
            lambda: make_policy("lru"),
            queue_maxsize=1,
            step_delay=0.005,
        )
        await server.start()

        async def producer():
            for t in range(1000):
                await server.submit(t, t % 5, (t + 2) % 5)

        task = asyncio.create_task(producer())
        await asyncio.sleep(0.05)  # let it wedge against backpressure
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

        # Whatever was accepted before the cancel still drains cleanly,
        # and the shard is in a usable, capacity-respecting state.
        await server.drain()
        assert server.occupancy() <= 3
        uids = [t.uid for t in server.cached_tuples()]
        assert len(uids) == len(set(uids))

        # The server keeps serving after the producer's demise.
        await server.submit(2000, 1, 1)
        await server.drain()
        await server.stop()
        return server

    server = run(go())
    applied = sum(s.events_applied for s in server.shards)
    assert applied >= 1  # the post-cancel tick, at minimum


def test_graceful_stop_drains_queues():
    async def go():
        server = StreamServer(
            join_spec(),
            lambda: make_policy("lru"),
            queue_maxsize=64,
            step_delay=0.001,
        )
        await server.start()
        for t in range(25):
            await server.submit(t, t % 3, t % 4)
        # No drain(): stop() itself must apply everything already
        # accepted before the workers exit.
        await server.stop()
        return server

    server = run(go())
    assert sum(s.events_applied for s in server.shards) == 25
    assert all(s.queue.empty() for s in server.shards)


def test_submit_outside_lifecycle_raises():
    async def go():
        server = StreamServer(join_spec(), lambda: make_policy("lru"))
        with pytest.raises(ServerClosed):
            await server.submit(0, 1, 2)
        await server.start()
        await server.submit(0, 1, 2)
        with pytest.raises(ValueError):
            await server.submit_reference(1, 3)  # wrong kind
        await server.stop()
        with pytest.raises(ServerClosed):
            await server.submit(1, 1, 2)

    run(go())


def test_worker_crash_surfaces_instead_of_hanging():
    async def go():
        server = StreamServer(
            join_spec(cache_size=2),
            lambda: ExplodingPolicy(fuse=5),
            queue_maxsize=4,
        )
        await server.start()
        with pytest.raises(RuntimeError):
            # Eventually the dead worker is noticed at submit or drain;
            # either way the failure surfaces bounded by the timeout.
            for t in range(200):
                await server.submit(t, t % 3, (t + 1) % 3)
                if t % 10 == 9:
                    await server.drain()
            await server.drain()
        with pytest.raises(RuntimeError):
            await server.stop()

    run(go())


def test_abort_cancels_pending_work():
    async def go():
        server = StreamServer(
            join_spec(),
            lambda: make_policy("lru"),
            queue_maxsize=128,
            step_delay=0.01,
        )
        await server.start()
        for t in range(50):
            await server.submit(t, t % 3, t % 5)
        await server.abort()
        return server

    server = run(go())
    # Abort is deliberately lossy: not everything accepted was applied.
    assert sum(s.events_applied for s in server.shards) < 50


def test_abort_wakes_producers_blocked_on_a_full_queue():
    """Two producers blocked on a 1-slot queue behind a slow worker:
    ``abort()`` empties the queue, so both wake and raise
    ``ServerClosed`` instead of waiting forever."""

    async def go():
        server = StreamServer(
            join_spec(cache_size=2),
            lambda: make_policy("lru"),
            queue_maxsize=1,
            step_delay=0.05,
        )
        await server.start()

        async def producer(first):
            for t in range(first, 200, 2):
                await server.submit(t, 1, 1)

        tasks = [asyncio.create_task(producer(i)) for i in (0, 1)]
        await asyncio.sleep(0.02)
        assert server.backpressure_waits >= 2
        await server.abort()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        assert [type(o) for o in outcomes] == [ServerClosed, ServerClosed]

    run(go())


def test_live_reshard_preserves_cached_tuples_and_keeps_serving():
    async def go():
        server = StreamServer(
            join_spec(cache_size=50),
            lambda: make_policy("lru"),
            n_shards=2,
        )
        await server.start()
        for t in range(20):
            await server.submit(t, t % 6, (t + 3) % 6)
        await server.drain()
        before = sorted(
            (t.uid, t.side, t.value, t.arrival)
            for t in server.cached_tuples()
        )
        await server.reshard(3)
        after = sorted(
            (t.uid, t.side, t.value, t.arrival)
            for t in server.cached_tuples()
        )
        assert after == before
        assert server.n_shards == 3

        # Still serving: new ticks apply, and uid minting never collides
        # with pre-reshard tuples.
        for t in range(20, 30):
            await server.submit(t, t % 6, (t + 3) % 6)
        await server.drain()
        uids = [t.uid for t in server.cached_tuples()]
        assert len(uids) == len(set(uids))
        await server.stop()
        return server

    server = run(go())
    assert sum(s.events_applied for s in server.shards) > 0


def test_producer_blocked_on_a_full_queue_gets_the_worker_failure():
    """Two producers on a 1-slot queue: when the worker dies, the one
    raising at submit and the one blocked inside a full-queue put both
    get the worker's ``RuntimeError``."""

    async def go():
        server = StreamServer(
            join_spec(cache_size=2),
            lambda: ExplodingPolicy(fuse=5),
            queue_maxsize=1,
        )
        await server.start()

        async def producer(first):
            for t in range(first, 200, 2):
                await server.submit(t, 1, 1)

        outcomes = await asyncio.gather(
            producer(0), producer(1), return_exceptions=True
        )
        assert [type(o) for o in outcomes] == [RuntimeError, RuntimeError]
        assert all("worker" in str(o) for o in outcomes)
        with pytest.raises(RuntimeError):
            await server.stop()

    run(go())


def test_drain_after_a_worker_crash_with_events_still_queued_raises():
    """Non-full submits do not yield, so the worker dies with events
    still queued while ``drain()`` waits; ``drain()`` must raise the
    failure rather than report the dead shard drained."""

    async def go():
        server = StreamServer(
            join_spec(cache_size=2), lambda: ExplodingPolicy(fuse=5)
        )
        await server.start()
        for t in range(20):
            await server.submit(t, 1, 1)
        with pytest.raises(RuntimeError):
            await server.drain()
        with pytest.raises(RuntimeError):
            await server.stop()

    run(go())
