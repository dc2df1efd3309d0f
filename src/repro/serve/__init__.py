"""Streaming service tier: asyncio join/cache serving over the sim core.

The roadmap's production-scale direction: the pure per-step transitions
of :mod:`repro.sim.step` driven by an asyncio event loop
(:class:`~repro.serve.server.StreamServer`) instead of a simulator
``for`` loop.  Concurrent producers push arrivals; the join-attribute
space partitions across per-shard caches (:mod:`repro.serve.shard`);
bounded queues apply backpressure; hit-rate/occupancy/queue-depth flow
through the existing :mod:`repro.obs` recorder telemetry.  The replay
clients (:mod:`repro.serve.replay`) feed recorded traces or seeded
streams back through a server — the basis of the sim-vs-server parity
guarantee pinned by ``tests/test_serve_parity.py`` and, for the
Appendix-C multi-join topologies, ``tests/test_serve_multi.py``.

At runtime the request path is span-timed (:mod:`repro.obs.spans`) into
mergeable latency histograms, and an opt-in endpoint
(:mod:`repro.serve.metrics`) serves Prometheus ``/metrics`` and JSON
``/health`` live — watch it with ``python -m repro.obs top``.

See ``docs/SERVING.md`` for the architecture walkthrough.
"""

from .metrics import MetricsEndpoint, merged_snapshot, metrics_text, server_health
from .replay import (
    ReplaySummary,
    arrivals_from_trace,
    generate_join_stream,
    generate_multi_join_stream,
    generate_reference_stream,
    replay,
    run_replay,
)
from .server import DEFAULT_QUEUE_MAXSIZE, ServerClosed, Shard, StreamServer
from .shard import ShardRouter, partition_tuples, reshard, stable_hash

__all__ = [
    "DEFAULT_QUEUE_MAXSIZE",
    "MetricsEndpoint",
    "ReplaySummary",
    "ServerClosed",
    "Shard",
    "ShardRouter",
    "StreamServer",
    "arrivals_from_trace",
    "generate_join_stream",
    "generate_multi_join_stream",
    "generate_reference_stream",
    "merged_snapshot",
    "metrics_text",
    "partition_tuples",
    "replay",
    "reshard",
    "run_replay",
    "server_health",
    "stable_hash",
]
