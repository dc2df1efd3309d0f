"""Seeded workloads and timed tier runners for the repo benchmark.

A workload is one paper configuration (stream model, policy, cache size)
turned into inputs from a seed: per input segment, one stream that the
single-stream tiers (simulator, server) replay tick by tick and a set of
independent trials for the multi-trial engines (batch, parallel).  Tick
counts, the open-loop rate and the pinned totals live in
``workloads.json`` next to this file.

Every runner times a call into a public entry point of the package —
``*Simulator.run``, ``run_experiment``, ``run_replay`` or a
``StreamServer`` the benchmark drives itself — and nothing in ``src/``
is patched.  Where the benchmark needs to see inside a call (open-loop
completion stamps, traced hooks), it wraps methods on the policy or
server *instances* it builds.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Optional

import numpy as np

from repro.analysis.fitting import fit_ar1
from repro.core.lifetime import LExp
from repro.core.precompute import ar1_h2_cache
from repro.experiments.configs import make_config
from repro.obs import NULL_RECORDER
from repro.policies import AR1CacheHeeb, FlowExpectPolicy, HeebPolicy, make_policy
from repro.serve import ShardRouter, StreamServer, run_replay
from repro.serve.replay import generate_join_stream
from repro.sim.cache_sim import CacheSimulator
from repro.sim.engine import ExperimentSpec, ParallelEngine, spawn_rng
from repro.sim.join_sim import JoinSimulator
from repro.sim.runner import generate_paths, run_experiment
from repro.streams import AR1Stream
from repro.streams.melbourne import melbourne_like_temperatures

SIZES_PATH = Path(__file__).resolve().parent / "workloads.json"

#: Cache size of the three join workloads (the paper's headline size).
JOIN_CACHE_SIZE = 10
#: Memory size of the REAL caching workload.
REAL_CACHE_SIZE = 50
#: Serve-tier shape shared by every workload.
SHARDS = 4
QUEUE_MAXSIZE = 256
#: Worker processes of the parallel tier (the benchmark box has 2 CPUs).
PARALLEL_WORKERS = 2
#: Independent input segments per run; round ``r`` replays segment
#: ``r % SEGMENTS``.
SEGMENTS = 8
#: Seconds of open-loop schedule between two reference passes: short
#: next to how long the host holds a speed state.
CHUNK_S = 0.1


@dataclass
class Workload:
    """One workload's seeded inputs and policy factory.

    The inputs come in ``SEGMENTS`` independent segments; round ``r`` of
    a run replays segment ``r % SEGMENTS`` (:meth:`segment`), so a run
    covers many distinct ticks while each tier family still shares its
    inputs within a round.
    """

    spec: ExperimentSpec
    factory: Callable
    #: Per segment, ``(stream, trials)``: the stream is ``(r_values,
    #: s_values)`` for joins or ``(references,)`` for caching, long enough
    #: for both the single-shard and the sharded tick counts; the trials
    #: feed the batch tier, and a prefix of them the parallel tier.
    segments: list
    sizes: dict
    streams_s: float
    policy_s: float
    index: int = 0

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def stream(self) -> tuple:
        return self.segments[self.index][0]

    @property
    def trials(self) -> list:
        return self.segments[self.index][1]

    def segment(self, r: int) -> "Workload":
        """The workload as round ``r`` sees it."""
        return replace(self, index=r % len(self.segments))

    def inputs(self, n: int) -> tuple:
        """The first ``n`` ticks of the stream, one sequence per side."""
        return tuple(values[:n] for values in self.stream)

    def ticks(self, n: int) -> list[tuple]:
        """The first ``n`` ticks as per-tick value tuples."""
        return list(zip(*self.inputs(n)))


def load_sizes() -> dict:
    """Per-workload tick counts, open-loop rate and pinned totals."""
    return json.loads(SIZES_PATH.read_text())


def _split(trials: list, n: int) -> list[list]:
    """``SEGMENTS`` consecutive groups of ``n`` trials."""
    return [trials[i * n:(i + 1) * n] for i in range(SEGMENTS)]


def _floor_join(policy_for: Callable, window: Optional[int] = None):
    """Builder for a FLOOR join workload under ``policy_for(config)``."""

    def build(sizes: dict, base: int):
        config = make_config("FLOOR")
        start = perf_counter()
        length = max(sizes["single_ticks"], sizes["sharded_ticks"])
        n_trials = sizes["batch_trials"]
        trials = generate_paths(
            config.r_model, config.s_model, sizes["trial_ticks"],
            SEGMENTS * n_trials, base,
        )
        # Stream runs are numbered after the trials' so no stream copies
        # a trial.
        streams = [
            generate_join_stream(config.r_model, config.s_model, length,
                                 base, run=SEGMENTS * n_trials + i)
            for i in range(SEGMENTS)
        ]
        segments = list(zip(streams, _split(trials, n_trials)))
        streams_done = perf_counter()
        factory = policy_for(config)
        factory()
        spec = ExperimentSpec(
            kind="join",
            cache_size=JOIN_CACHE_SIZE,
            window=window,
            r_model=config.r_model,
            s_model=config.s_model,
            seed=base,
        )
        return (spec, factory, segments, streams_done - start,
                perf_counter() - streams_done)

    return build


def _real_cache(sizes: dict, base: int):
    """REAL (Section 6.5): fit an AR(1) to a Melbourne-like series, then
    cache it under HEEB with the bicubic ``h2`` surface."""
    start = perf_counter()
    length = max(sizes["single_ticks"], sizes["sharded_ticks"])
    n_trials = sizes["batch_trials"]
    series = [
        melbourne_like_temperatures(length, spawn_rng(base, run))
        for run in range(SEGMENTS * n_trials, SEGMENTS * (n_trials + 1))
    ]
    # The model is fitted to the first series, the run's observed data.
    fit = fit_ar1(series[0])
    model = AR1Stream(fit.phi0, fit.phi1, fit.sigma, bucket=0.1)
    streams = [([model.to_bucket(x) for x in temps],) for temps in series]
    trials = [
        [model.to_bucket(x) for x in melbourne_like_temperatures(
            sizes["trial_ticks"], spawn_rng(base, run))]
        for run in range(SEGMENTS * n_trials)
    ]
    segments = list(zip(streams, _split(trials, n_trials)))
    streams_done = perf_counter()
    # The paper's 25 control points (5x5) over the observed range.
    lo = min(min(refs) for (refs,) in streams)
    hi = max(max(refs) for (refs,) in streams)
    surface = ar1_h2_cache(
        model,
        LExp(float(REAL_CACHE_SIZE)),
        np.linspace(lo, hi, 5).round().astype(int),
        np.linspace(lo * model.bucket, hi * model.bucket, 5),
        exact_steps=60,
    )
    factory = lambda: HeebPolicy(AR1CacheHeeb(model, surface))
    factory()
    spec = ExperimentSpec(
        kind="cache", cache_size=REAL_CACHE_SIZE, r_model=model, seed=base
    )
    return (spec, factory, segments, streams_done - start,
            perf_counter() - streams_done)


BUILDERS: dict[str, Callable] = {
    "join-lru": _floor_join(lambda config: lambda: make_policy("lru")),
    "join-heeb-window": _floor_join(
        lambda config: lambda: config.make_heeb(JOIN_CACHE_SIZE), window=8
    ),
    "join-flowexpect": _floor_join(
        lambda config: lambda: FlowExpectPolicy(
            8, config.r_model, config.s_model, fast=True
        )
    ),
    "cache-real-heeb": _real_cache,
}


def build_workload(name: str, seed: int, sizes: dict) -> Workload:
    """Sample the inputs and build the policy factory of one workload.

    Builders draw run ``i`` from ``spawn_rng(base, i)``, which seeds
    ``base + i``; spacing the bases by the runs one seed uses keeps the
    inputs of different seeds disjoint.
    """
    base = seed * SEGMENTS * (sizes["batch_trials"] + 1)
    spec, factory, segments, streams_s, policy_s = BUILDERS[name](sizes, base)
    return Workload(spec, factory, segments, sizes, streams_s, policy_s)


# ----------------------------------------------------------------------
# Output accounting
# ----------------------------------------------------------------------
def total_of(kind: str, outcome) -> object:
    """The checked output of one run: join results, or [hits, misses].

    Simulator results, step states and replay summaries all carry the
    same attribute names, so one accessor serves every tier.
    """
    if kind == "join":
        return outcome.total_results
    return [outcome.hits, outcome.misses]


class Checks:
    """Tick accounting and output checks for one benchmark run.

    A tier call that raises counts all of its ticks as failed; a failed
    output check voids the whole run (``failed == attempted``).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ticks = 0
        self.mismatches: list[str] = []

    def attempt(self, label: str, ticks: int, fn: Callable, *args, **kwargs):
        """Call ``fn``; on an exception, report it and return ``None``."""
        self.attempted += ticks
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed_ticks += ticks
            print(f"{label} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def expect(self, label: str, got, want) -> None:
        """Record a mismatch unless ``got == want`` (skipped if either is
        missing because its tier already failed)."""
        if got is not None and want is not None and got != want:
            self.mismatches.append(f"{label}: got {got!r}, expected {want!r}")

    @property
    def failed(self) -> int:
        return self.attempted if self.mismatches else self.failed_ticks

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed_ticks == 0


def repeat_rounds(run_round: Callable, seconds: float, min_rounds: int) -> list:
    """Call ``run_round(r)`` for r = 0, 1, ... until ``min_rounds`` are
    done and one more would overrun ``seconds`` (judged by the mean round
    time so far)."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(run_round(len(rounds)))
        mean = (perf_counter() - start) / len(rounds)
        if len(rounds) >= min_rounds and mean * (len(rounds) + 1) > seconds:
            return rounds


def medians(rounds: list[dict]) -> dict:
    """Per-key median over rounds; a key missing from a round (its tier
    failed) is taken over the rounds that have it."""
    keys = {key for values in rounds for key in values}
    return {
        key: statistics.median(v[key] for v in rounds if key in v)
        for key in keys
    }


def non_null_arrivals(w: Workload, n: int) -> int:
    """Arrivals carrying a value in the first ``n`` ticks."""
    return sum(v is not None for values in w.inputs(n) for v in values)


def expected_events(w: Workload, n: int, n_shards: int) -> int:
    """Shard events a sharded server enqueues for the first ``n`` ticks:
    one per distinct shard among a tick's non-"−" values."""
    router = ShardRouter(n_shards)
    return sum(
        len({router.shard_for(v) for v in tick if v is not None})
        for tick in w.ticks(n)
    )


# ----------------------------------------------------------------------
# Tier runners
# ----------------------------------------------------------------------
def run_sim(w: Workload, n: int, recorder=NULL_RECORDER, policy=None):
    """Time ``*Simulator.run`` over the first ``n`` ticks."""
    spec = w.spec
    policy = w.factory() if policy is None else policy
    if w.kind == "join":
        sim = JoinSimulator(
            spec.cache_size, policy, window=spec.window, band=spec.band,
            r_model=spec.r_model, s_model=spec.s_model,
            window_oracle=spec.window_oracle, recorder=recorder,
        )
    else:
        sim = CacheSimulator(
            spec.cache_size, policy, reference_model=spec.r_model,
            recorder=recorder,
        )
    inputs = w.inputs(n)
    start = perf_counter()
    result = sim.run(*inputs)
    return perf_counter() - start, result


def run_engine(w: Workload, engine, n_trials: int):
    """Time ``run_experiment`` over the first ``n_trials`` trials."""
    trials = w.trials[:n_trials]
    start = perf_counter()
    result = run_experiment(w.spec, w.factory, trials, engine=engine)
    return perf_counter() - start, result


def parallel_engine() -> ParallelEngine:
    return ParallelEngine(max_workers=PARALLEL_WORKERS)


def run_serve(w: Workload, n: int, n_shards: int, recorder=NULL_RECORDER,
              on_server: Optional[Callable] = None):
    """Closed-loop ``run_replay`` of the first ``n`` ticks.

    Returns the replay summary (its ``seconds`` span first submit to
    drain) and the server, captured through ``server_factory``;
    ``on_server`` may instrument the server before the replay starts.
    """
    servers = []

    def server_factory(*args, **kwargs):
        server = StreamServer(*args, **kwargs)
        if on_server is not None:
            on_server(server)
        servers.append(server)
        return server

    summary = run_replay(
        w.spec, w.factory, *w.inputs(n), n_shards=n_shards,
        queue_maxsize=QUEUE_MAXSIZE, recorder=recorder,
        server_factory=server_factory,
    )
    return summary, servers[0]


@dataclass
class OpenLoop:
    """Outcome of one open-loop serve run."""

    #: Due time to last policy-hook return, per scheduled tick.
    latency_ms: list[float]
    #: How late the generator submitted each scheduled tick.
    late_ms: list[float]
    #: Ticks carrying a value whose policy hooks never returned.
    unstamped: int
    #: Ticks carrying a value, warm-up included.
    expected: int
    total: object


def run_open_loop(w: Workload, n: int, rate: float, meter) -> OpenLoop:
    """Serve the first ``n`` ticks on 4 shards, the last 3/4 on a schedule.

    The first quarter warms the server up (caches filled, lazily built
    policy state such as FlowExpect's graph templates in place): it is
    submitted back to back and drained.  The rest is submitted at
    ``rate`` ticks per nominal-speed second, whether or not the server
    keeps up, so a slow tick delays every later one.  A tick's latency
    runs from its due time to the last return of ``select_victims`` or
    ``on_reference`` for its step on any shard policy; those hooks are
    wrapped on the instances this run's factory builds.

    The schedule runs in chunks of about ``CHUNK_S`` seconds.  After
    each chunk the server drains and ``meter`` marks a reference pass,
    which normalizes that chunk's latencies and paces the next chunk,
    so each chunk sees the same utilization at whatever speed the host
    runs it.

    The schedule and the stamps run on the process CPU clock.  The
    generator busy-yields (``asyncio.sleep(0)``) until each due time, so
    the process never idles and its CPU clock advances with wall time
    except while the host has descheduled the vCPU.  Those pauses (up to
    several ms, about 1% of the time on the benchmark box) would
    otherwise be most of the p99.
    """
    clock = process_time
    ticks = w.ticks(n)
    warm = n // 4
    stamps: list = [None] * n
    due = [0.0] * n
    late = [0.0] * n
    speed = [1.0] * n

    def stamped_factory():
        policy = w.factory()
        select, reference = policy.select_victims, policy.on_reference

        def select_victims(candidates, n_evict, ctx):
            victims = select(candidates, n_evict, ctx)
            stamps[ctx.time] = clock()
            return victims

        def on_reference(tup, t):
            reference(tup, t)
            stamps[t] = clock()

        policy.select_victims = select_victims
        policy.on_reference = on_reference
        return policy

    server = StreamServer(
        w.spec, stamped_factory, n_shards=SHARDS, queue_maxsize=QUEUE_MAXSIZE
    )
    submit = server.submit if w.kind == "join" else server.submit_reference

    async def drive() -> None:
        await server.start()
        try:
            for t in range(warm):
                await submit(t, *ticks[t])
            await server.drain()
            meter.mark()
            per_chunk = max(1, round(rate * CHUNK_S))
            for first in range(warm, n, per_chunk):
                chunk = range(first, min(n, first + per_chunk))
                interval = 1.0 / (rate * meter.speed)
                start = clock()
                for k, t in enumerate(chunk):
                    due[t] = start + k * interval
                    now = clock()
                    while now < due[t]:
                        await asyncio.sleep(0)
                        now = clock()
                    late[t] = now - due[t]
                    await submit(t, *ticks[t])
                await server.drain()
                chunk_speed = meter.mark()
                for t in chunk:
                    speed[t] = chunk_speed
        finally:
            await server.stop()

    asyncio.run(drive())
    latency_ms, unstamped, expected = [], 0, 0
    for t, values in enumerate(ticks):
        if all(v is None for v in values):
            continue
        expected += 1
        if stamps[t] is None:
            unstamped += 1
        elif t >= warm:
            latency_ms.append((stamps[t] - due[t]) * 1000.0 * speed[t])
    return OpenLoop(
        latency_ms=latency_ms,
        late_ms=[late[t] * 1000.0 * speed[t] for t in range(warm, n)],
        unstamped=unstamped,
        expected=expected,
        total=total_of(w.kind, server),
    )
