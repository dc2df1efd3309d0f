"""Sim-vs-server parity for multi-join topologies (PR-7 serving tier).

The single-shard :class:`repro.serve.StreamServer` with
``kind="multi_join"`` drives :func:`repro.sim.step.multi_join_step` —
the same transition as :class:`repro.sim.multi_join.MultiJoinSimulator`
— and shares the caller's recorder verbatim, so a seeded replay must be
decision-identical: same results, same counters, byte-identical trace
events.  Sharded mode routes arrivals by join value (every query edge
probes the same attribute, so matches stay intra-shard).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.obs import CounterRecorder, TraceRecorder, read_trace
from repro.policies import make_policy
from repro.serve import (
    ServerClosed,
    StreamServer,
    generate_multi_join_stream,
    run_replay,
)
from repro.sim import ExperimentSpec
from repro.sim.multi_join import MultiJoinSimulator
from repro.streams import StationaryStream, from_mapping

LENGTH = 400
CACHE = 8
SEED = 20260808


def _models():
    dist = from_mapping({v: 1.0 / 6 for v in range(1, 7)})
    return {name: StationaryStream(dist) for name in ("A", "B", "C")}


QUERIES = [("A", "B"), ("B", "C")]


def _streams(models, length=LENGTH, seed=SEED):
    streams = generate_multi_join_stream(models, length, seed)
    holes = np.random.default_rng(seed)
    for vals in streams.values():
        for t in holes.choice(length, size=length // 5, replace=False):
            vals[t] = None
    return streams


def _spec(models, cache=CACHE):
    return ExperimentSpec(
        kind="multi_join",
        cache_size=cache,
        queries=tuple(tuple(q) for q in QUERIES),
        models=models,
    )


@pytest.mark.parametrize("policy_name", ["lru", "lfu", "trie"])
def test_multi_counters_match_simulator(policy_name):
    models = _models()
    streams = _streams(models)
    spec = _spec(models)

    rec_sim = CounterRecorder()
    sim = MultiJoinSimulator(
        CACHE, make_policy(policy_name), QUERIES, models=models, recorder=rec_sim
    )
    sim_result = sim.run(streams)

    rec_srv = CounterRecorder()
    summary = run_replay(
        spec, lambda: make_policy(policy_name), streams,
        n_shards=1, recorder=rec_srv,
    )

    assert summary.total_results == sim_result.total_results
    for key, value in rec_sim.counters.items():
        assert rec_srv.counters.get(key) == value, key
    extras = set(rec_srv.counters) - set(rec_sim.counters)
    assert all(k.startswith("serve.") for k in extras), extras


def test_multi_trace_events_are_byte_identical(tmp_path):
    models = _models()
    streams = _streams(models)
    spec = _spec(models)

    sim_path = tmp_path / "sim.jsonl"
    rec_sim = TraceRecorder(path=sim_path)
    MultiJoinSimulator(
        CACHE, make_policy("lru"), QUERIES, models=models, recorder=rec_sim
    ).run(streams)
    rec_sim.close()

    srv_path = tmp_path / "srv.jsonl"
    rec_srv = TraceRecorder(path=srv_path)
    run_replay(
        spec, lambda: make_policy("lru"), streams, n_shards=1, recorder=rec_srv
    )
    rec_srv.close()

    def step_events(path):
        return [
            e
            for e in read_trace(path)
            if not str(e.get("name", "")).startswith("serve.")
        ]

    sim_events = step_events(sim_path)
    srv_events = step_events(srv_path)
    assert sim_events == srv_events
    assert any(e["kind"] == "evict" for e in sim_events)


def test_multi_final_cache_contents_match():
    models = _models()
    streams = _streams(models)
    spec = _spec(models)

    from repro.sim.step import build_multi_join_state, multi_join_step

    state = build_multi_join_state(
        CACHE, make_policy("lru"), QUERIES, list(models), models=models
    )
    for t in range(LENGTH):
        multi_join_step(state, t, [streams[n][t] for n in models])
    sim_kept = sorted(
        (tup.uid, tup.side, tup.value, tup.arrival)
        for tup in state.cache.tuples()
    )

    async def run_server():
        server = StreamServer(spec, lambda: make_policy("lru"))
        await server.start()
        for t in range(LENGTH):
            await server.submit_multi(t, {n: streams[n][t] for n in models})
        await server.drain()
        kept = sorted(
            (tup.uid, tup.side, tup.value, tup.arrival)
            for tup in server.cached_tuples()
        )
        per_query = server.per_query_results()
        await server.stop()
        return kept, per_query

    srv_kept, per_query = asyncio.run(
        asyncio.wait_for(run_server(), timeout=60)
    )
    assert srv_kept == sim_kept
    assert sum(per_query.values()) == state.total_results
    assert set(per_query) == {frozenset(q) for q in QUERIES}


def test_sharded_multi_routes_by_value_and_conserves_arrivals():
    models = _models()
    streams = _streams(models, length=200)
    spec = _spec(models, cache=4)

    rec = CounterRecorder()
    summary = run_replay(
        spec, lambda: make_policy("lru"), streams, n_shards=3, recorder=rec
    )
    expected = sum(
        sum(v is not None for v in vals) for vals in streams.values()
    )
    assert summary.ingested_arrivals == expected
    # Matches are intra-shard: every cached value hashes to its shard.
    from repro.serve import ShardRouter

    router = ShardRouter(3)

    async def check():
        server = StreamServer(spec, lambda: make_policy("lru"), n_shards=3)
        await server.start()
        for t in range(200):
            await server.submit_multi(t, {n: streams[n][t] for n in models})
        await server.drain()
        for shard in server.shards:
            for tup in shard.state.cache.tuples():
                assert router.shard_for(tup.value) == shard.index
        await server.stop()

    asyncio.run(asyncio.wait_for(check(), timeout=60))


def test_submit_multi_validation():
    models = _models()
    spec = _spec(models)

    async def scenario():
        server = StreamServer(spec, lambda: make_policy("lru"))
        with pytest.raises(ServerClosed):
            await server.submit_multi(0, {"A": 1})
        await server.start()
        with pytest.raises(ValueError, match="unknown streams"):
            await server.submit_multi(0, {"Z": 1})
        with pytest.raises(ValueError, match="submit_multi"):
            await server.submit(0, 1, 2)
        # Absent names are "−"; an all-null tick is accepted.
        await server.submit_multi(0, {"A": 3})
        await server.submit_multi(1, {})
        await server.drain()
        assert server.ingested_arrivals == 1
        await server.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))


def test_multi_server_requires_known_query_streams():
    models = _models()
    with pytest.raises(ValueError, match="unknown streams"):
        StreamServer(
            ExperimentSpec(
                kind="multi_join",
                cache_size=4,
                queries=(("A", "Z"),),
                models=models,
            ),
            lambda: make_policy("lru"),
        )


def test_multi_shard_null_tick_counted():
    models = _models()
    spec = _spec(models)

    async def scenario():
        rec = CounterRecorder()
        server = StreamServer(
            spec, lambda: make_policy("lru"), n_shards=2, recorder=rec
        )
        await server.start()
        await server.submit_multi(0, {"A": None, "B": None})
        await server.drain()
        await server.stop()
        return rec.counters.get("serve.null_ticks")

    assert asyncio.run(asyncio.wait_for(scenario(), timeout=60)) == 1
