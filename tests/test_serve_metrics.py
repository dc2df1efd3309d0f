"""The serve tier's scrape surface: /metrics, /health, span histograms.

Pins the observability acceptance criteria:

* **scrape exactness** — every counter/timer in the merged recorder
  snapshot appears in the Prometheus rendering with the identical
  value, and the rendering parses back losslessly;
* **live endpoint** — ``start_metrics`` serves both documents over real
  sockets (fetched via ``asyncio.to_thread`` so the client never blocks
  the server's own event loop), rejects unknown paths and methods, and
  dies with the server;
* **reshard-surviving histograms** — span-latency counts are preserved
  exactly across a live reshard and keep accumulating afterwards;
* **queue-depth sampling at both ends** — enqueue- and dequeue-side
  samples mean the series sees drain phases, and ``ReplaySummary``
  reports its p99;
* **spans off means no clock reads** — under a disabled recorder the
  request path's ``perf_counter`` reads do not grow with the stream.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import NULL_RECORDER, CounterRecorder, NullRecorder
from repro.obs.promtext import parse_prometheus_text, render_prometheus
from repro.obs.hist import LogHistogram
from repro.policies import make_policy
from repro.serve import (
    MetricsEndpoint,
    StreamServer,
    merged_snapshot,
    metrics_text,
    run_replay,
    server_health,
)
from repro.sim import ExperimentSpec

TIMEOUT = 30


def run(coro):
    """Run a coroutine under the suite's hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def join_spec(cache_size: int = 8) -> ExperimentSpec:
    return ExperimentSpec(kind="join", cache_size=cache_size)


def _get(url: str) -> tuple[int, str, str]:
    """Blocking GET: (status, content-type, body). Call via to_thread."""
    with urllib.request.urlopen(url, timeout=5) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestPromText:
    """render_prometheus ⟷ parse_prometheus_text is lossless."""

    def test_round_trip_all_families(self):
        hist = LogHistogram("serve.span.decide_ms")
        for v in (0.5, 1.5, 700.0):
            hist.observe(v)
        text = render_prometheus(
            counters={"sim.steps": 41, "serve.ingested": 40},
            timers={"flow.solve": {"seconds": 1.25, "calls": 3}},
            gauges=[("shard_alive", {"shard": 0}, 1.0)],
            histograms={"serve.span.decide_ms": hist},
        )
        samples = parse_prometheus_text(text)
        assert samples[("repro_counter_total", (("name", "sim.steps"),))] == 41
        assert (
            samples[("repro_timer_seconds_total", (("name", "flow.solve"),))]
            == 1.25
        )
        assert (
            samples[("repro_timer_calls_total", (("name", "flow.solve"),))]
            == 3
        )
        assert (
            samples[
                ("repro_gauge", (("name", "shard_alive"), ("shard", "0")))
            ]
            == 1.0
        )
        count_key = ("repro_latency_ms_count",
                     (("span", "serve.span.decide_ms"),))
        assert samples[count_key] == 3
        sum_key = ("repro_latency_ms_sum",
                   (("span", "serve.span.decide_ms"),))
        assert samples[sum_key] == pytest.approx(702.0)
        # The +Inf bucket carries the total count.
        inf_key = (
            "repro_latency_ms_bucket",
            (("le", "+Inf"), ("span", "serve.span.decide_ms")),
        )
        assert samples[inf_key] == 3

    def test_label_escaping_round_trips(self):
        text = render_prometheus(
            gauges=[("g", {"k": 'a"b\\c\nd'}, 1.0)]
        )
        ((name, labels),) = [
            key for key in parse_prometheus_text(text) if key[0] == "repro_gauge"
        ]
        assert dict(labels)["k"] == 'a"b\\c\nd'

    def test_empty_render_parses_to_nothing(self):
        assert parse_prometheus_text(render_prometheus()) == {}

    @pytest.mark.parametrize(
        "bad",
        [
            "# comment without HELP or TYPE\n",
            "metric_name not_a_number\n",
            'metric{name=unquoted} 1\n',
            "!!! 5\n",
            'dup{a="1"} 1\ndup{a="1"} 2\n',
        ],
    )
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)


class TestScrapeExactness:
    """/metrics counters equal the recorder snapshot, value for value."""

    def test_counters_and_timers_match_snapshot_exactly(self):
        recorder = CounterRecorder()

        async def go():
            server = StreamServer(
                join_spec(),
                lambda: make_policy("lru"),
                n_shards=2,
                recorder=recorder,
            )
            await server.start()
            for t in range(30):
                await server.submit(t, t % 5, (t + 2) % 5)
            await server.drain()
            snapshot = merged_snapshot(server)
            text = metrics_text(server)
            await server.stop()
            return snapshot, text

        snapshot, text = run(go())
        samples = parse_prometheus_text(text)
        counters = snapshot["counters"]
        assert counters  # the run produced real counters
        for name, value in counters.items():
            key = ("repro_counter_total", (("name", name),))
            assert samples[key] == value, name
        scraped = [k for k in samples if k[0] == "repro_counter_total"]
        assert len(scraped) == len(counters)  # nothing extra either
        for name, timer in snapshot.get("timers", {}).items():
            key = ("repro_timer_seconds_total", (("name", name),))
            assert samples[key] == pytest.approx(timer["seconds"])

    def test_single_shard_snapshot_is_the_callers_recorder(self):
        recorder = CounterRecorder()

        async def go():
            server = StreamServer(
                join_spec(), lambda: make_policy("lru"), recorder=recorder
            )
            await server.start()
            for t in range(10):
                await server.submit(t, t % 3, t % 4)
            await server.drain()
            merged = merged_snapshot(server)
            await server.stop()
            return merged

        merged = run(go())
        assert merged["counters"]["sim.steps"] == 10
        assert merged["counters"]["sim.steps"] == recorder.counters["sim.steps"]

    def test_sharded_live_scrape_sees_unmerged_fork_counters(self):
        # Before stop() the shard forks hold the sim counters; a live
        # merged_snapshot must already include them, and the post-stop
        # merge must not double-count.
        recorder = CounterRecorder()

        async def go():
            server = StreamServer(
                join_spec(),
                lambda: make_policy("lru"),
                n_shards=3,
                recorder=recorder,
            )
            await server.start()
            for t in range(24):
                await server.submit(t, t % 6, (t + 1) % 6)
            await server.drain()
            live = merged_snapshot(server)["counters"]["sim.steps"]
            applied = sum(s.events_applied for s in server.shards)
            await server.stop()
            final = merged_snapshot(server)["counters"]["sim.steps"]
            return live, applied, final

        live, applied, final = run(go())
        assert live == applied
        assert final == applied  # no double count after the stop-merge
        assert recorder.counters["sim.steps"] == applied


class TestLiveEndpoint:
    """The asyncio scrape endpoint over real sockets."""

    def test_scrape_metrics_and_health(self):
        async def go():
            server = StreamServer(
                join_spec(),
                lambda: make_policy("lru"),
                n_shards=2,
                recorder=CounterRecorder(),
            )
            await server.start()
            endpoint = await server.start_metrics(port=0)
            assert endpoint.port > 0
            assert server.metrics_endpoint is endpoint
            for t in range(20):
                await server.submit(t, t % 5, (t + 2) % 5)
            await server.drain()
            status, ctype, body = await asyncio.to_thread(
                _get, endpoint.url + "/metrics"
            )
            hstatus, hctype, hbody = await asyncio.to_thread(
                _get, endpoint.url + "/health"
            )
            await server.stop()
            return status, ctype, body, hstatus, hctype, hbody

        status, ctype, body, hstatus, hctype, hbody = run(go())
        assert status == 200
        assert "version=0.0.4" in ctype
        samples = parse_prometheus_text(body)  # also validates grammar
        families = {key[0] for key in samples}
        assert "repro_counter_total" in families
        assert "repro_gauge" in families
        assert "repro_latency_ms_bucket" in families
        assert "repro_latency_ms_count" in families
        assert hstatus == 200
        assert hctype.startswith("application/json")
        health = json.loads(hbody)
        assert health["status"] == "ok"
        assert health["n_shards"] == 2
        assert len(health["shards"]) == 2
        assert all(row["alive"] for row in health["shards"])
        assert "serve.span.decide_ms" in health["latency"]

    def test_unknown_path_and_method_rejected(self):
        async def go():
            server = StreamServer(join_spec(), lambda: make_policy("lru"))
            await server.start()
            endpoint = await server.start_metrics(port=0)

            def post(url):
                req = urllib.request.Request(url, data=b"", method="POST")
                with urllib.request.urlopen(req, timeout=5) as resp:
                    return resp.status

            codes = {}
            try:
                await asyncio.to_thread(_get, endpoint.url + "/nope")
            except urllib.error.HTTPError as exc:
                codes["path"] = exc.code
            try:
                await asyncio.to_thread(post, endpoint.url + "/metrics")
            except urllib.error.HTTPError as exc:
                codes["method"] = exc.code
            await server.stop()
            return codes

        codes = run(go())
        assert codes == {"path": 404, "method": 405}

    def test_double_start_rejected_and_stop_closes(self):
        async def go():
            server = StreamServer(join_spec(), lambda: make_policy("lru"))
            await server.start()
            endpoint = await server.start_metrics(port=0)
            with pytest.raises(RuntimeError):
                await server.start_metrics(port=0)
            url = endpoint.url
            await server.stop()  # closes the endpoint too
            assert server.metrics_endpoint is None
            await server.stop_metrics()  # idempotent after close
            try:
                await asyncio.to_thread(_get, url + "/health")
            except (urllib.error.URLError, OSError):
                return True
            return False

        assert run(go()) is True

    def test_standalone_endpoint_lifecycle(self):
        async def go():
            server = StreamServer(join_spec(), lambda: make_policy("lru"))
            await server.start()
            endpoint = MetricsEndpoint(server, port=0)
            assert endpoint.port == 0  # unbound until start
            await endpoint.start()
            with pytest.raises(RuntimeError):
                await endpoint.start()
            await endpoint.stop()
            await endpoint.stop()  # idempotent
            await server.stop()

        run(go())


class TestHealthDocument:
    """server_health status transitions and per-shard rows."""

    def test_status_lifecycle(self):
        async def go():
            server = StreamServer(join_spec(), lambda: make_policy("lru"))
            assert server_health(server)["status"] == "idle"
            await server.start()
            running = server_health(server)["status"]
            await server.stop()
            stopped = server_health(server)["status"]
            return running, stopped

        running, stopped = run(go())
        assert running == "ok"
        assert stopped == "stopped"

    def test_shard_rows_carry_operational_fields(self):
        async def go():
            server = StreamServer(
                join_spec(cache_size=4),
                lambda: make_policy("lru"),
                n_shards=2,
                recorder=CounterRecorder(),
            )
            await server.start()
            server.enable_spans()
            for t in range(30):
                await server.submit(t, t % 5, (t + 1) % 5)
            await server.drain()
            health = server_health(server)
            await server.stop()
            return health

        health = run(go())
        row = health["shards"][0]
        for field in (
            "shard",
            "alive",
            "queue_depth",
            "queue_maxsize",
            "queue_saturation",
            "events_applied",
            "occupancy",
            "max_queue_depth",
            "backpressure_waits",
            "backpressure_duty",
            "p99_decide_ms",
        ):
            assert field in row
        assert health["uptime_seconds"] > 0
        applied = sum(r["events_applied"] for r in health["shards"])
        assert applied == health["latency"]["serve.span.decide_ms"]["count"]


class TestSpanHistogramsOnServer:
    """Span latency survives fork/merge and live resharding."""

    def test_histogram_counts_survive_live_reshard(self):
        async def go():
            server = StreamServer(
                join_spec(cache_size=50),
                lambda: make_policy("lru"),
                n_shards=2,
            )
            await server.start()
            server.enable_spans()
            for t in range(40):
                await server.submit(t, t % 6, (t + 3) % 6)
            await server.drain()
            before = server.latency_histograms()["serve.span.decide_ms"]
            count_before = before.count
            sum_before = before.total
            await server.reshard(3)
            after = server.latency_histograms()["serve.span.decide_ms"]
            # Exact preservation: the retiring shards' histograms were
            # folded into the server set, bucket by bucket.
            preserved = (
                after.count == count_before
                and after.total == pytest.approx(sum_before)
                and after.counts == before.counts
            )
            for t in range(40, 55):
                await server.submit(t, t % 6, (t + 3) % 6)
            await server.drain()
            new_applied = sum(s.events_applied for s in server.shards)
            await server.stop()
            final = server.latency_histograms()["serve.span.decide_ms"]
            return preserved, count_before, new_applied, final

        preserved, count_before, new_applied, final = run(go())
        assert preserved
        # Post-reshard events keep accumulating into the merged view.
        assert final.count == count_before + new_applied
        assert final.quantile(0.99) is not None

    def test_spans_off_by_default_under_null_recorder(self):
        async def go():
            server = StreamServer(join_spec(), lambda: make_policy("lru"))
            await server.start()
            for t in range(10):
                await server.submit(t, t % 3, t % 4)
            await server.stop()
            return server.latency_histograms(), server.span_p99_ms()

        hists, p99 = run(go())
        assert hists == {}
        assert p99 is None

    def test_span_p99_ms_accessor(self):
        async def go():
            server = StreamServer(join_spec(), lambda: make_policy("lru"))
            await server.start()
            server.enable_spans()
            for t in range(15):
                await server.submit(t, t % 3, t % 4)
            await server.stop()
            return server

        server = run(go())
        assert server.span_p99_ms("decide") > 0
        assert server.span_p99_ms("submit") > 0
        assert server.span_p99_ms("no_such_span") is None


class TestDisabledSpansReadNoClock:
    """With spans off the request path reads no clock at all.

    The disabled-span contract as a count, not a timing budget: under
    the shared ``NULL_RECORDER`` and under a fresh ``NullRecorder`` the
    number of ``perf_counter`` reads must not depend on how many ticks
    are served.  The queue outsizes the stream so backpressure, which
    times its waits whatever the recorder, never engages.
    """

    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize(
        "make_recorder",
        [lambda: NULL_RECORDER, NullRecorder],
        ids=["NULL_RECORDER", "NullRecorder"],
    )
    def test_clock_reads_independent_of_stream_length(
        self, monkeypatch, n_shards, make_recorder
    ):
        reads = 0
        clock = time.perf_counter

        def counting_clock():
            nonlocal reads
            reads += 1
            return clock()

        monkeypatch.setattr("repro.serve.server.perf_counter", counting_clock)
        monkeypatch.setattr("repro.obs.spans.time.perf_counter", counting_clock)

        def reads_for(length):
            nonlocal reads

            async def go():
                server = StreamServer(
                    join_spec(),
                    lambda: make_policy("lru"),
                    n_shards=n_shards,
                    queue_maxsize=2 * length,
                    recorder=make_recorder(),
                )
                await server.start()
                for t in range(length):
                    await server.submit(t, t % 7, (t + 3) % 7)
                await server.drain()
                await server.stop()
                assert server.backpressure_waits == 0

            reads = 0
            run(go())
            return reads

        assert reads_for(100) == reads_for(400)


class TestQueueDepthSampling:
    """Depth is sampled at enqueue *and* dequeue (satellite 1)."""

    def test_two_samples_per_event(self):
        recorder = CounterRecorder()

        async def go():
            server = StreamServer(
                join_spec(), lambda: make_policy("lru"), recorder=recorder
            )
            await server.start()
            for t in range(12):
                await server.submit(t, t % 4, t % 5)
            await server.drain()
            await server.stop()
            return sum(s.events_applied for s in server.shards)

        applied = run(go())
        series = recorder.series_data["serve.queue_depth"]
        assert series.count == 2 * applied
        # Dequeue-side samples see the drained tail, so the series
        # minimum reaches an empty queue even under producer pressure.
        assert series.vmin == 0


class TestReplaySummary:
    """run_replay surfaces the new latency and duty-cycle fields."""

    R = [i % 7 for i in range(80)]
    S = [(i + 3) % 7 for i in range(80)]

    def test_counting_replay_reports_p99s(self):
        recorder = CounterRecorder()
        summary = run_replay(
            join_spec(),
            lambda: make_policy("lru"),
            self.R,
            self.S,
            n_shards=2,
            recorder=recorder,
        )
        assert summary.p99_queue_depth is not None
        assert summary.p90_queue_depth is not None
        assert 0.0 <= summary.backpressure_duty <= 1.0
        # CounterRecorder enables spans, so decide latency is measured.
        assert summary.p99_decide_ms > 0
        out = summary.as_dict()
        for key in ("p99_queue_depth", "backpressure_duty", "p99_decide_ms"):
            assert key in out

    def test_metrics_port_forces_spans_even_unrecorded(self):
        summary = run_replay(
            join_spec(),
            lambda: make_policy("lru"),
            self.R,
            self.S,
            metrics_port=0,
        )
        assert summary.p99_decide_ms > 0  # endpoint enabled spans
        assert summary.p99_queue_depth is None  # no counting recorder

    def test_health_path_writes_live_snapshot(self, tmp_path):
        out = tmp_path / "health.json"
        run_replay(
            join_spec(),
            lambda: make_policy("lru"),
            self.R,
            self.S,
            n_shards=2,
            recorder=CounterRecorder(),
            health_path=str(out),
        )
        health = json.loads(out.read_text(encoding="utf-8"))
        # Written after drain but before stop: the snapshot shows a
        # healthy serving state, not a corpse.
        assert health["status"] == "ok"
        assert len(health["shards"]) == 2
        assert all(row["alive"] for row in health["shards"])
        assert "serve.span.decide_ms" in health["latency"]
