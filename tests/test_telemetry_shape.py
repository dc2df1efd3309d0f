"""Telemetry shape of a counted 4-shard serve run, pinned point for point.

One seeded ``join-lru``-shaped replay (FLOOR join, LRU, cache 10, 3000
ticks, 4 shards, queue bound 256) under a :class:`CounterRecorder`.
The expected values were recorded with point-by-point folding, before
series points and span observations became buffered appends folded in
bulk, so this test shows that cheaper telemetry records the same points
into the same state: every counter, and per series its point count,
``count``/``sum``/``min``/``max``, latest point, bucket counts and
downsampling buffer.  ``*_ms`` series hold wall-clock values, so only
their point counts are pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.configs import make_config
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.serve import StreamServer, run_replay
from repro.serve.replay import generate_join_stream
from repro.sim import ExperimentSpec

TICKS = 3000

COUNTERS = {
    "arrivals.R": 3000,
    "arrivals.S": 3000,
    "arrivals.null": 4320,
    "evict.LRU": 5960,
    "join.results": 2491,
    "serve.backpressure.engaged": 5,
    "serve.ingested": 5160,
    "serve.started": 1,
    "serve.stopped": 1,
    "sim.steps": 5160,
}

#: Gauge series: aggregates, latest point, occupied buckets
#: ``{index: count}``, buffer shape and a digest of its retained points.
GAUGES = {
    "cache.occupancy": {
        "count": 5160, "sum": 51473.0, "min": 1.0, "max": 10.0,
        "last_t": 2999, "last": 10.0,
        "buckets": {54: 3, 55: 2, 56: 7, 57: 11, 58: 5137},
        "offered": 5160, "stride": 32, "retained": 321,
        "points_sha256": "a496629d2e3e0866",
    },
    "join.results.cum": {
        "count": 5160, "sum": 1632928.0, "min": 0.0, "max": 658.0,
        "last_t": 2999, "last": 658.0,
        "buckets": {44: 9, 54: 10, 55: 7, 56: 14, 57: 45, 58: 56, 59: 128,
                    60: 208, 61: 529, 62: 1064, 63: 2234, 64: 856},
        "offered": 5160, "stride": 32, "retained": 321,
        "points_sha256": "e710fde8e4510bc2",
    },
    "scores.cutoff": {
        "count": 5131, "sum": 7648384.0, "min": 0.0, "max": 2991.0,
        "last_t": 2999, "last": 2981.0,
        "buckets": {44: 1, 54: 1, 55: 1, 56: 4, 57: 5, 58: 9, 59: 32,
                    60: 57, 61: 111, 62: 221, 63: 451, 64: 912, 65: 1805,
                    66: 1521},
        "offered": 5131, "stride": 32, "retained": 319,
        "points_sha256": "ba990778ef77164f",
    },
    "serve.queue_depth": {
        "count": 10320, "sum": 1178250.0, "min": 0.0, "max": 256.0,
        "last_t": 2999, "last": 108.0,
        "buckets": {44: 24, 54: 48, 55: 48, 56: 96, 57: 192, 58: 384,
                    59: 768, 60: 1584, 61: 2914, 62: 4262},
        "offered": 10320, "stride": 256, "retained": 322,
        "points_sha256": "27779610bcfb5f45",
    },
}

#: Wall-clock series: point counts only.
MS_POINTS = {
    "serve.backpressure.wait_ms": 5,
    "serve.span.decide_ms": 5160,
    "serve.span.emit_ms": 5160,
    "serve.span.queue_wait_ms": 5160,
    "serve.span.route_ms": 3000,
    "serve.span.submit_ms": 3000,
    "serve.uptime_ms": 1,
}

#: Events each shard applied (their sum is the decide span count).
EVENTS_APPLIED = [1245, 1348, 1310, 1257]


def gauge_shape(state: dict) -> dict:
    """The pinned fields of one series snapshot."""
    points = state["buffer"]["points"]
    return {
        "count": state["count"], "sum": state["sum"],
        "min": state["min"], "max": state["max"],
        "last_t": state["last_t"], "last": state["last"],
        "buckets": {i: n for i, n in enumerate(state["hist"]["counts"]) if n},
        "offered": state["buffer"]["offered"],
        "stride": state["buffer"]["stride"],
        "retained": len(points),
        "points_sha256": hashlib.sha256(
            json.dumps(points).encode()).hexdigest()[:16],
    }


@pytest.fixture(scope="module")
def counted_run():
    config = make_config("FLOOR")
    spec = ExperimentSpec(kind="join", cache_size=10, r_model=config.r_model,
                          s_model=config.s_model)
    r_values, s_values = generate_join_stream(
        config.r_model, config.s_model, TICKS, seed=0)
    servers: list[StreamServer] = []

    def server_factory(*args, **kwargs):
        servers.append(StreamServer(*args, **kwargs))
        return servers[-1]

    recorder = CounterRecorder()
    summary = run_replay(
        spec, lambda: make_policy("lru"), r_values, s_values, n_shards=4,
        queue_maxsize=256, recorder=recorder, server_factory=server_factory,
    )
    return recorder.snapshot(), servers[0], summary


class TestCountedServeShape:
    """The same points reach the same telemetry state."""

    def test_results(self, counted_run):
        _, server, summary = counted_run
        assert summary.total_results == 2491
        assert [s.events_applied for s in server.shards] == EVENTS_APPLIED

    def test_every_counter(self, counted_run):
        snapshot, _, _ = counted_run
        assert snapshot["counters"] == COUNTERS

    def test_series_names(self, counted_run):
        snapshot, _, _ = counted_run
        assert set(snapshot["series"]) == set(GAUGES) | set(MS_POINTS)

    @pytest.mark.parametrize("name", sorted(GAUGES))
    def test_gauge_series(self, counted_run, name):
        snapshot, _, _ = counted_run
        assert gauge_shape(snapshot["series"][name]) == GAUGES[name]

    @pytest.mark.parametrize("name", sorted(MS_POINTS))
    def test_wall_clock_point_counts(self, counted_run, name):
        snapshot, _, _ = counted_run
        state = snapshot["series"][name]
        assert state["count"] == MS_POINTS[name]
        assert state["buffer"]["offered"] == MS_POINTS[name]

    def test_latency_histogram_counts(self, counted_run):
        _, server, _ = counted_run
        hists = server.latency_histograms()
        spans = {name: hist.count for name, hist in hists.items()}
        assert spans == {
            name: n for name, n in MS_POINTS.items()
            if name.startswith("serve.span.")
        }
        assert spans["serve.span.decide_ms"] == sum(EVENTS_APPLIED)
