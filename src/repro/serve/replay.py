"""Replay clients: feed recorded or seeded streams into a StreamServer.

The serving tier is validated by *replay*: take a stream the simulators
could run — freshly sampled through the pinned seed-spawning scheme
(:func:`~repro.sim.engine.spawn_rng`) or reconstructed from a recorded
:mod:`repro.obs` trace file — and push it through a
:class:`~repro.serve.server.StreamServer` with one or more concurrent
producers.  ``run_replay`` is the synchronous one-call orchestration
used by the ``serve`` CLI subcommand and the benchmark harness.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from ..obs import read_trace
from ..obs.recorder import NULL_RECORDER, CounterRecorder, Recorder
from ..policies.base import ReplacementPolicy
from ..sim.engine import ExperimentSpec, spawn_rng
from ..streams.base import StreamModel, Value
from .server import StreamServer

__all__ = [
    "arrivals_from_trace",
    "generate_join_stream",
    "generate_multi_join_stream",
    "generate_reference_stream",
    "replay",
    "ReplaySummary",
    "run_replay",
]


# ----------------------------------------------------------------------
# Stream sources
# ----------------------------------------------------------------------
def generate_join_stream(
    r_model: StreamModel,
    s_model: StreamModel,
    length: int,
    seed: int,
    run: int = 0,
) -> tuple[list[Value], list[Value]]:
    """Sample one seeded (R, S) stream pair for replay.

    Uses :func:`~repro.sim.engine.spawn_rng` with the same
    ``(seed, run)`` derivation as :func:`~repro.sim.runner.generate_paths`
    — run ``k`` of a simulator experiment and a server replay of
    ``(seed, run=k)`` see the identical stream, which is what the parity
    suite leans on.
    """
    rng = spawn_rng(seed, run)
    return (
        r_model.sample_path(length, rng),
        s_model.sample_path(length, rng),
    )


def generate_multi_join_stream(
    models: Mapping[str, StreamModel],
    length: int,
    seed: int,
    run: int = 0,
) -> dict[str, list[Value]]:
    """Sample one seeded per-stream value mapping for multi-join replay.

    One :func:`~repro.sim.engine.spawn_rng` generator is consumed by the
    models in mapping order — the same convention a scalar
    :class:`~repro.sim.multi_join.MultiJoinSimulator` caller uses when
    sampling its ``streams`` argument, so simulator and server replays
    of ``(seed, run)`` see identical arrivals.
    """
    rng = spawn_rng(seed, run)
    return {
        name: model.sample_path(length, rng)
        for name, model in models.items()
    }


def generate_reference_stream(
    model: StreamModel, length: int, seed: int, run: int = 0
) -> list[Value]:
    """Sample one seeded reference stream for caching-problem replay."""
    return model.sample_path(length, spawn_rng(seed, run))


def arrivals_from_trace(
    path: str,
) -> tuple[list[Value], list[Value]]:
    """Reconstruct per-step (R, S) arrivals from a recorded trace file.

    Reads ``arrival`` events out of a :mod:`repro.obs` JSONL trace
    (written by any traced run) and rebuilds the dense per-step value
    lists, missing sides filled with ``None`` ("−").  Cache-kind traces
    only carry R-side arrivals; their S list comes back all-``None`` and
    the R list doubles as the reference stream.
    """
    events = read_trace(path)
    arrivals: dict[int, dict[str, Value]] = {}
    max_t = -1
    for event in events:
        if event.get("kind") != "arrival":
            continue
        t = int(event["t"])
        max_t = max(max_t, t)
        arrivals.setdefault(t, {})[event["side"]] = event.get("value")
    r_values: list[Value] = [None] * (max_t + 1)
    s_values: list[Value] = [None] * (max_t + 1)
    for t, sides in arrivals.items():
        r_values[t] = sides.get("R")
        s_values[t] = sides.get("S")
    return r_values, s_values


# ----------------------------------------------------------------------
# Producers
# ----------------------------------------------------------------------
async def replay(
    server: StreamServer,
    r_values: Union[Sequence[Value], Mapping[str, Sequence[Value]]],
    s_values: Optional[Sequence[Value]] = None,
    *,
    n_producers: int = 1,
) -> int:
    """Push a stream through the server with concurrent producers.

    The stream is a cache server's reference sequence, a join server's
    name-keyed stream mapping (one :meth:`~StreamServer.submit_multi`
    per tick), or its R and S sequences (one
    :meth:`~StreamServer.submit` per tick); ticks are truncated to the
    shortest stream, mirroring the scalar simulator.  Producer ``i`` of
    ``P`` submits steps ``i, i + P, i + 2P, ...`` concurrently.  With
    one producer (the default) submission order is exactly the
    simulator's step order, which keeps single-shard replay
    deterministic; more producers demonstrate concurrent ingestion and
    backpressure but make per-shard arrival interleaving scheduling-
    dependent.  Returns the number of ticks submitted.
    """
    if server.spec.kind == "cache":
        submit, ticks = server.submit_reference, [(v,) for v in r_values]
    elif isinstance(r_values, Mapping):
        submit = server.submit_multi
        ticks = [
            (dict(zip(r_values, values)),) for values in zip(*r_values.values())
        ]
    else:
        assert s_values is not None
        submit, ticks = server.submit, list(zip(r_values, s_values))
    n = len(ticks)

    async def producer(offset: int) -> None:
        for t in range(offset, n, n_producers):
            await submit(t, *ticks[t])

    if n_producers == 1:
        await producer(0)
    else:
        await asyncio.gather(*(producer(i) for i in range(n_producers)))
    return n


# ----------------------------------------------------------------------
# One-call orchestration (CLI + bench)
# ----------------------------------------------------------------------
@dataclass
class ReplaySummary:
    """Operational outcome of one end-to-end server replay."""

    kind: str
    steps: int
    n_shards: int
    n_producers: int
    #: Non-"−" arrivals accepted by the server.
    ingested_arrivals: int
    #: Wall-clock seconds from first submit to full drain.
    seconds: float
    #: Ingested arrivals per wall-clock second.
    tuples_per_sec: float
    #: High-water mark of any shard queue.
    max_queue_depth: int
    #: ``serve.queue_depth`` series quantiles, within one factor-2
    #: histogram bucket — sampled at enqueue *and* dequeue time, so
    #: drain phases count (``None`` when the recorder tracked no such
    #: series).
    p90_queue_depth: Optional[float]
    p99_queue_depth: Optional[float]
    backpressure_waits: int
    #: Fraction of the run producers spent blocked on full queues.
    backpressure_duty: float = 0.0
    #: P99 of the ``decide`` span from the merged latency histograms
    #: (``None`` unless spans were active: tracing recorder or live
    #: metrics endpoint).
    p99_decide_ms: Optional[float] = None
    #: Join results (join / multi-join kinds) — else ``None``.
    total_results: Optional[int] = None
    #: Cache hits / misses (cache kind) — else ``None``.
    hits: Optional[int] = None
    misses: Optional[int] = None
    #: Final per-shard occupancy, in shard order.
    shard_occupancy: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready summary (for the CLI and the bench harness)."""
        out = {
            "kind": self.kind,
            "steps": self.steps,
            "n_shards": self.n_shards,
            "n_producers": self.n_producers,
            "ingested_arrivals": self.ingested_arrivals,
            "seconds": self.seconds,
            "tuples_per_sec": self.tuples_per_sec,
            "max_queue_depth": self.max_queue_depth,
            "p90_queue_depth": self.p90_queue_depth,
            "p99_queue_depth": self.p99_queue_depth,
            "backpressure_waits": self.backpressure_waits,
            "backpressure_duty": self.backpressure_duty,
            "p99_decide_ms": self.p99_decide_ms,
            "shard_occupancy": self.shard_occupancy,
        }
        if self.total_results is not None:
            out["total_results"] = self.total_results
        if self.hits is not None:
            out["hits"] = self.hits
            out["misses"] = self.misses
        return out


def _queue_depth_quantile(recorder: Recorder, q: float) -> Optional[float]:
    """Pull a ``serve.queue_depth`` quantile from a counting recorder."""
    if not isinstance(recorder, CounterRecorder):
        return None
    series = recorder.series_data.get("serve.queue_depth")
    if series is None:
        return None
    return series.quantile(q)


async def _replay(
    server: StreamServer,
    r_values: Union[Sequence[Value], Mapping[str, Sequence[Value]]],
    s_values: Optional[Sequence[Value]],
    n_producers: int,
    metrics_host: str = "127.0.0.1",
    metrics_port: Optional[int] = None,
    health_path: Optional[str] = None,
) -> tuple[int, float]:
    """Start, feed, drain, and stop the server; time the hot section.

    When ``metrics_port`` is set the live scrape endpoint runs for the
    duration of the replay; when ``health_path`` is set the final
    ``/health`` document is written there as JSON (an offline snapshot
    ``repro.obs top --snapshot`` can render).
    """
    await server.start()
    if metrics_port is not None:
        await server.start_metrics(host=metrics_host, port=metrics_port)
    start = time.perf_counter()
    steps = await replay(server, r_values, s_values, n_producers=n_producers)
    await server.drain()
    seconds = time.perf_counter() - start
    if health_path is not None:
        from .metrics import server_health

        with open(health_path, "w", encoding="utf-8") as handle:
            json.dump(server_health(server), handle, indent=2)
            handle.write("\n")
    await server.stop()
    return steps, seconds


def run_replay(
    spec: ExperimentSpec,
    policy_factory: Callable[[], ReplacementPolicy],
    r_values: Union[Sequence[Value], Mapping[str, Sequence[Value]]],
    s_values: Optional[Sequence[Value]] = None,
    *,
    n_shards: int = 1,
    queue_maxsize: int = 1024,
    n_producers: int = 1,
    step_delay: float = 0.0,
    recorder: Recorder = NULL_RECORDER,
    server_factory: Callable[..., StreamServer] = StreamServer,
    metrics_host: str = "127.0.0.1",
    metrics_port: Optional[int] = None,
    health_path: Optional[str] = None,
) -> ReplaySummary:
    """Replay a stream through a fresh server and summarize the run.

    Synchronous wrapper (``asyncio.run``) so CLIs, benches, and tests
    need no event-loop plumbing.  The stream arguments are those of
    :func:`replay`: a join spec takes ``r_values`` and ``s_values`` or
    the name-keyed stream mapping (:func:`generate_multi_join_stream`)
    as ``r_values``; a cache spec takes the reference sequence.  ``metrics_port`` (0 = ephemeral) serves ``/metrics``
    and ``/health`` live for the duration of the replay;
    ``health_path`` writes the final health document as JSON.
    """
    server = server_factory(
        spec,
        policy_factory,
        n_shards=n_shards,
        queue_maxsize=queue_maxsize,
        recorder=recorder,
        step_delay=step_delay,
    )
    steps, seconds = asyncio.run(
        _replay(
            server,
            r_values,
            s_values,
            n_producers,
            metrics_host=metrics_host,
            metrics_port=metrics_port,
            health_path=health_path,
        )
    )
    decide = server.latency_histograms().get("serve.span.decide_ms")
    summary = ReplaySummary(
        kind=spec.kind,
        steps=steps,
        n_shards=server.n_shards,
        n_producers=n_producers,
        ingested_arrivals=server.ingested_arrivals,
        seconds=seconds,
        tuples_per_sec=(
            server.ingested_arrivals / seconds if seconds > 0 else 0.0
        ),
        max_queue_depth=max(
            (s.max_queue_depth for s in server.shards), default=0
        ),
        p90_queue_depth=_queue_depth_quantile(recorder, 0.9),
        p99_queue_depth=_queue_depth_quantile(recorder, 0.99),
        backpressure_waits=server.backpressure_waits,
        backpressure_duty=server.backpressure_duty,
        p99_decide_ms=(
            decide.quantile(0.99)
            if decide is not None and decide.count
            else None
        ),
        shard_occupancy=[s.occupancy for s in server.shards],
    )
    if spec.kind == "cache":
        summary.hits = server.hits
        summary.misses = server.misses
    else:
        summary.total_results = server.total_results
    return summary
