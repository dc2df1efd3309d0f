"""Push-driven asyncio join/cache service over the shared step functions.

:class:`StreamServer` is the serving tier promised by the roadmap: the
same per-step transition the simulators drive with a ``for`` loop
(:mod:`repro.sim.step`), driven instead by an asyncio event loop fed by
concurrent producers.  Because both drivers call the *same* pure
transition over the *same* state objects, a single-shard server replay
of a seeded stream is decision-identical to the scalar simulator — the
parity suite (``tests/test_serve_parity.py``,
``tests/test_serve_multi.py``) pins kept/victim uids, hit counts, and
:mod:`repro.obs` counters byte for byte.  Joins of any topology are
served through one path — the spec's stream names and queries, with the
binary join as its ``R⋈S`` topology (:meth:`StreamServer.submit` maps
an ``(r, s)`` tick onto those names, :meth:`StreamServer.submit_multi`
takes arrivals by name) — and so is the caching problem.

Architecture
------------
* **Shards.**  The join-attribute space is partitioned across
  ``n_shards`` independent caches (:class:`~repro.serve.shard.ShardRouter`),
  each with its own policy instance, :class:`~repro.policies.base.PolicyContext`,
  and bounded event queue.  Routing by join value means all matches for
  a key are intra-shard — in the multi-join case every query edge probes
  by the same join attribute, so one value-keyed router covers all
  queries and no cross-shard probe exists.  Each shard's capacity is
  ``spec.cache_size`` (total capacity scales with shards).
* **Backpressure.**  Each shard queue is a bounded :class:`asyncio.Queue`;
  when a queue is full, ``submit`` awaits — producers slow to the rate
  of the slowest shard instead of growing memory without bound.
  Engagements are counted (``serve.backpressure.engaged``) and queue
  depth is reported through the recorder's ``series()`` telemetry.
* **Instrumentation.**  With one shard the caller's recorder is used
  directly (exact simulator parity, trace events included).  With many
  shards each shard records into a :meth:`~repro.obs.recorder.Recorder.fork`
  of the caller's recorder and the snapshots are merged back additively
  at :meth:`StreamServer.stop` — the same pattern the parallel engine
  uses for worker processes.
* **Runtime observability.**  The request path ``submit → route →
  queue_wait → decide → emit`` is span-timed (:mod:`repro.obs.spans`)
  into mergeable log-bucketed latency histograms
  (:mod:`repro.obs.hist`), all guarded so a
  :class:`~repro.obs.NullRecorder` run reads no clocks.  An opt-in
  asyncio endpoint (:meth:`StreamServer.start_metrics`) serves
  Prometheus-text ``/metrics`` and JSON ``/health`` live.
* **Uids.**  Shard ``i`` of ``n`` mints tuple uids ``i, i + n,
  i + 2n, ...`` (a strided :class:`~repro.core.tuples.TupleFactory`),
  so uids are globally unique and deterministic per shard regardless of
  event-loop interleaving — which is what makes live resharding
  (:meth:`StreamServer.reshard`) collision-free.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Union

from ..core.tuples import StreamTuple, TupleFactory
from ..obs.hist import HistogramSet, LogHistogram
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.spans import SERVE_SPAN_PREFIX, SpanTracker
from ..policies.base import ReplacementPolicy
from ..sim.engine import ExperimentSpec
from ..sim.step import (
    RS_NAMES,
    CacheStepState,
    MultiJoinStepState,
    build_multi_join_state,
    cache_step,
    make_cache_state,
    multi_join_step,
)
from ..streams.base import Value
from .shard import ShardRouter, reshard as reshard_tuples

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .metrics import MetricsEndpoint

__all__ = ["Shard", "StreamServer", "ServerClosed"]

#: Queue sentinel telling a shard worker to exit after draining.
_STOP = object()

#: Default bound on each shard's event queue.
DEFAULT_QUEUE_MAXSIZE = 1024


class ServerClosed(RuntimeError):
    """Raised when submitting to a server that is not accepting events."""


class Shard:
    """One shard: its own cache/policy state plus a bounded event queue.

    Created and owned by :class:`StreamServer`; exposed read-only for
    inspection (tests, stats).  ``state`` is a
    :class:`~repro.sim.step.MultiJoinStepState` (any join topology; the
    binary join is ``R⋈S``) or a :class:`~repro.sim.step.CacheStepState`.
    """

    def __init__(
        self,
        index: int,
        state: Union[MultiJoinStepState, CacheStepState],
        queue_maxsize: int,
    ):
        """Bind the shard's index, step state, and bounded queue."""
        self.index = index
        self.state = state
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_maxsize)
        self.worker: Optional[asyncio.Task] = None
        #: Events this shard's worker has applied.
        self.events_applied = 0
        #: Times a producer found this shard's queue full and had to wait.
        self.backpressure_waits = 0
        #: Seconds producers spent blocked on this shard's full queue.
        self.backpressure_wait_seconds = 0.0
        #: High-water mark of the queue depth observed at enqueue time.
        self.max_queue_depth = 0
        #: Recorder snapshot captured at server stop (sharded mode only).
        self.snapshot: Optional[dict] = None
        #: Worker-side span latency histograms (queue_wait/decide/emit).
        self.hists = HistogramSet()
        #: Span timing for this shard's worker loop; records ``*_ms``
        #: series through the shard recorder and into :attr:`hists`.
        self.spans = SpanTracker(
            state.recorder, self.hists, prefix=SERVE_SPAN_PREFIX
        )
        #: True once :attr:`hists` has been folded into the server-level
        #: set (shard retirement at stop/abort/reshard).
        self.hists_folded = False

    @property
    def alive(self) -> bool:
        """True while this shard's worker task is running."""
        return self.worker is not None and not self.worker.done()

    @property
    def occupancy(self) -> int:
        """Tuples currently cached by this shard."""
        return len(self.state.cache)


class StreamServer:
    """Asyncio join/cache service sharing the simulators' transition.

    Parameters
    ----------
    spec:
        The problem description: a join of any topology (its
        :attr:`~repro.sim.engine.ExperimentSpec.names` and ``queries``;
        ``kind="join"`` is ``R⋈S``) or ``kind="cache"``.
        ``cache_size`` is the *per-shard* capacity.
    policy_factory:
        Builds a fresh replacement policy per shard, exactly like the
        per-trial factories of :func:`~repro.sim.runner.run_experiment`.
    n_shards:
        Number of independent cache shards (default 1: simulator-parity
        mode, where the caller's recorder is shared verbatim).
    queue_maxsize:
        Bound on each shard's event queue; full queues apply
        backpressure to ``submit`` callers.
    recorder:
        Observability sink (:mod:`repro.obs`).  Counters/series:
        ``serve.ingested``, ``serve.backpressure.engaged``,
        ``serve.queue_depth`` plus everything the step functions emit.
    step_delay:
        Artificial seconds slept per applied event — a slow-consumer
        knob for backpressure tests and demos, 0.0 in production.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        policy_factory: Callable[[], ReplacementPolicy],
        *,
        n_shards: int = 1,
        queue_maxsize: int = DEFAULT_QUEUE_MAXSIZE,
        recorder: Recorder = NULL_RECORDER,
        step_delay: float = 0.0,
    ):
        """Validate the spec and build the (not yet started) shards."""
        if queue_maxsize < 1:
            raise ValueError("queue_maxsize must be >= 1")
        if step_delay < 0:
            raise ValueError("step_delay must be nonnegative")
        self._spec = spec
        self._policy_factory = policy_factory
        self._recorder = recorder
        self._queue_maxsize = queue_maxsize
        self._step_delay = step_delay
        self._router = ShardRouter(n_shards)
        self._started = False
        self._stopping = False
        self._stopped = False
        #: Arrivals (non-"−" values) accepted by ``submit`` so far.
        self.ingested_arrivals = 0
        #: Total times any producer hit a full queue.
        self.backpressure_waits = 0
        #: Total seconds producers spent blocked on full queues.
        self.backpressure_wait_seconds = 0.0
        #: Server-level latency histograms: producer-side spans plus the
        #: folded state of every retired shard (stop/abort/reshard).
        self._hists = HistogramSet()
        #: Producer-side span timing (submit/route).
        self._spans = SpanTracker(
            recorder, self._hists, prefix=SERVE_SPAN_PREFIX
        )
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._metrics: Optional["MetricsEndpoint"] = None
        self._shards = [
            self._make_shard(i, n_shards, uid_start=i)
            for i in range(n_shards)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_shard(self, index: int, n_shards: int, uid_start: int) -> Shard:
        """Build one shard with its own policy, state, and recorder."""
        # Single shard shares the caller's recorder verbatim so traces,
        # counters, and series match the scalar simulator exactly; many
        # shards fork and merge at stop (the parallel-engine pattern).
        if n_shards == 1:
            shard_recorder = self._recorder
        else:
            shard_recorder = self._recorder.fork()
        spec = self._spec
        state: Union[MultiJoinStepState, CacheStepState]
        if spec.kind == "cache":
            state = make_cache_state(
                spec.cache_size,
                self._policy_factory(),
                reference_model=spec.r_model,
                recorder=shard_recorder,
            )
        else:
            state = build_multi_join_state(
                spec.cache_size,
                self._policy_factory(),
                spec.queries,
                spec.names,
                window=spec.window,
                band=spec.band,
                models=spec.models,
                window_oracle=spec.window_oracle,
                recorder=shard_recorder,
            )
        state.factory = TupleFactory(start=uid_start, step=n_shards)
        shard = Shard(index, state, self._queue_maxsize)
        # A live metrics endpoint keeps spans on even under a disabled
        # recorder (histograms still fill); new shards inherit that.
        shard.spans.active = self._spans.active
        return shard

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ExperimentSpec:
        """The problem description this server was built for."""
        return self._spec

    @property
    def names(self) -> tuple[str, ...]:
        """Stream names served, in arrival order (``("R", "S")`` for the
        binary join; empty for caching)."""
        return self._spec.names

    @property
    def n_shards(self) -> int:
        """Current number of shards."""
        return self._router.n_shards

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The live shard objects, in index order (read-only view)."""
        return tuple(self._shards)

    @property
    def recorder(self) -> Recorder:
        """The server-level observability sink."""
        return self._recorder

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since :meth:`start` (frozen at stop)."""
        if self._started_at is None:
            return 0.0
        end = self._stopped_at
        return (end if end is not None else perf_counter()) - self._started_at

    @property
    def backpressure_duty(self) -> float:
        """Fraction of server uptime producers spent blocked on full
        queues (0.0 before start)."""
        uptime = self.uptime_seconds
        if uptime <= 0.0:
            return 0.0
        return min(1.0, self.backpressure_wait_seconds / uptime)

    @property
    def metrics_endpoint(self) -> Optional["MetricsEndpoint"]:
        """The live scrape endpoint, or ``None`` when not started."""
        return self._metrics

    def latency_histograms(self) -> dict[str, LogHistogram]:
        """Merged span-latency histograms across all shards.

        Combines the server-level set (producer-side spans plus every
        retired shard's folded state) with the live shards' sets, by
        exact bucket addition — total counts are preserved
        across fork/merge and :meth:`reshard` by construction.
        """
        merged = self._hists.copy()
        for shard in self._shards:
            if not shard.hists_folded and shard.hists:
                merged.merge(shard.hists.state())
        return merged.hists

    def span_p99_ms(self, span: str = "decide") -> Optional[float]:
        """P99 of one request-path span in milliseconds, or ``None``.

        ``span`` is the bare span name (``submit``, ``route``,
        ``queue_wait``, ``decide``, ``emit``).
        """
        hist = self.latency_histograms().get(f"{SERVE_SPAN_PREFIX}{span}_ms")
        if hist is None or hist.count == 0:
            return None
        return hist.quantile(0.99)

    @property
    def total_results(self) -> int:
        """Join results produced across all shards (join kinds)."""
        return sum(
            s.state.total_results
            for s in self._shards
            if isinstance(s.state, MultiJoinStepState)
        )

    def per_query_results(self) -> dict[frozenset, int]:
        """Results attributed per query pair, summed over shards
        (join kinds; the binary join's one query is ``R⋈S``)."""
        out: dict[frozenset, int] = {}
        for s in self._shards:
            if isinstance(s.state, MultiJoinStepState):
                for query, count in s.state.per_query.items():
                    out[query] = out.get(query, 0) + count
        return out

    @property
    def hits(self) -> int:
        """Cache hits across all shards (cache kind)."""
        return sum(
            s.state.hits
            for s in self._shards
            if isinstance(s.state, CacheStepState)
        )

    @property
    def misses(self) -> int:
        """Cache misses across all shards (cache kind)."""
        return sum(
            s.state.misses
            for s in self._shards
            if isinstance(s.state, CacheStepState)
        )

    def occupancy(self) -> int:
        """Tuples currently cached across all shards."""
        return sum(s.occupancy for s in self._shards)

    def cached_tuples(self) -> list[StreamTuple]:
        """All cached tuples, shard by shard in index order."""
        out: list[StreamTuple] = []
        for s in self._shards:
            out.extend(s.state.cache.tuples())
        return out

    def stats(self) -> dict:
        """Plain-dict operational summary for logs, CLIs, and benches."""
        per_shard = [
            {
                "shard": s.index,
                "events_applied": s.events_applied,
                "occupancy": s.occupancy,
                "max_queue_depth": s.max_queue_depth,
                "backpressure_waits": s.backpressure_waits,
            }
            for s in self._shards
        ]
        stats = {
            "kind": self._spec.kind,
            "n_shards": self.n_shards,
            "ingested_arrivals": self.ingested_arrivals,
            "backpressure_waits": self.backpressure_waits,
            "backpressure_wait_seconds": self.backpressure_wait_seconds,
            "uptime_seconds": self.uptime_seconds,
            "occupancy": self.occupancy(),
            "max_queue_depth": max(
                (s.max_queue_depth for s in self._shards), default=0
            ),
            "shards": per_shard,
        }
        if self._spec.kind == "cache":
            stats["hits"] = self.hits
            stats["misses"] = self.misses
        else:
            stats["total_results"] = self.total_results
        return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn one worker task per shard; idempotent calls are errors."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._started_at = perf_counter()
        for shard in self._shards:
            self._spawn_worker(shard)
        if self._recorder.enabled:
            self._recorder.count("serve.started")

    def _spawn_worker(self, shard: Shard) -> None:
        """Create the consumer task that applies events to one shard."""
        shard.worker = asyncio.create_task(
            self._worker(shard), name=f"repro-serve-shard-{shard.index}"
        )
        shard.worker.add_done_callback(lambda _: self._discard_if_dead(shard))

    async def _worker(self, shard: Shard) -> None:
        """Consume the shard queue, applying one step per event.

        Per event the worker times the tail of the request path: the
        ``queue_wait`` span (enqueue timestamp → dequeue), the
        ``decide`` span (the pure step-function application), and the
        ``emit`` span (dequeue-side telemetry).  All span work is
        guarded on the shard tracker's ``active`` flag so a disabled
        run reads no clocks at all.
        """
        # One step call per kind of transition: both join kinds run the
        # shared join step, caching its own.
        step = cache_step if self._spec.kind == "cache" else multi_join_step
        delay = self._step_delay
        recorder = shard.state.recorder
        spans = shard.spans
        while True:
            event = await shard.queue.get()
            try:
                if event is _STOP:
                    return
                spans_on = spans.active
                if spans_on:
                    t0 = perf_counter()
                    enq_ts = event[-1]
                    if enq_ts:
                        spans.record(
                            "queue_wait", event[0], (t0 - enq_ts) * 1000.0
                        )
                    t0 = perf_counter()
                t = event[0]
                step(shard.state, t, event[1])
                shard.events_applied += 1
                if spans_on:
                    t1 = perf_counter()
                    spans.record("decide", t, (t1 - t0) * 1000.0)
                # Dequeue-side depth sample: without it the series only
                # ever sees enqueue-time depths, so drain and quiesce
                # phases (consumer catching up, producers idle) are
                # invisible.
                if recorder.enabled:
                    recorder.series(
                        "serve.queue_depth", t, shard.queue.qsize()
                    )
                if spans_on:
                    spans.record("emit", t, (perf_counter() - t1) * 1000.0)
                if delay:
                    await asyncio.sleep(delay)
            finally:
                shard.queue.task_done()

    def _raise_if_worker_failed(self, shard: Shard) -> None:
        """Surface a crashed worker instead of deadlocking producers."""
        worker = shard.worker
        if worker is not None and worker.done() and not worker.cancelled():
            exc = worker.exception()
            if exc is not None:
                raise RuntimeError(
                    f"shard {shard.index} worker failed"
                ) from exc

    def _discard_if_dead(self, shard: Shard) -> None:
        """Empty a dead shard's queue, waking a producer blocked on it.

        Runs when the worker exits; a worker is dead when it crashed or
        :meth:`abort` cancelled it.  Each discarded event wakes one
        producer blocked on the full queue; its put then lands and
        :meth:`_enqueue` calls this again before raising the worker's
        failure (or :class:`ServerClosed` after an abort), which wakes
        the next, so every producer blocked on the dead shard gets an
        error instead of waiting forever.  The events could never be
        applied: a dead shard stays dead.  They stay counted as
        unfinished, so the queue's ``join()`` never resolves and
        :meth:`drain` raises instead of reporting the shard drained.
        """
        worker = shard.worker
        if worker is None or not worker.done():
            return
        if not worker.cancelled() and worker.exception() is None:
            return
        queue = shard.queue
        while not queue.empty():
            queue.get_nowait()

    def _check_accepting(self) -> None:
        """Reject submissions outside the started-and-not-stopping window."""
        if not self._started:
            raise ServerClosed("server not started; call start() first")
        if self._stopping or self._stopped:
            raise ServerClosed("server is stopping; no new events accepted")

    async def _enqueue(self, shard: Shard, event: tuple) -> None:
        """Bounded put with backpressure accounting and depth telemetry.

        The enqueue timestamp is appended to the event (0.0 when spans
        are off), so the shard worker can measure the ``queue_wait``
        span; when the queue is full the blocked time is accumulated
        into the backpressure duty-cycle accounting and emitted as the
        ``serve.backpressure.wait_ms`` series.  A producer whose blocked
        put returns because the worker died raises the worker's failure,
        or :class:`ServerClosed` when :meth:`abort` cancelled it (see
        :meth:`_discard_if_dead`).
        """
        self._raise_if_worker_failed(shard)
        queue = shard.queue
        rec_on = self._recorder.enabled
        spans_on = self._spans.active
        if queue.full():
            shard.backpressure_waits += 1
            self.backpressure_waits += 1
            if rec_on:
                self._recorder.count("serve.backpressure.engaged")
            wait_start = perf_counter()
            await queue.put(event + (wait_start if spans_on else 0.0,))
            self._discard_if_dead(shard)
            self._raise_if_worker_failed(shard)
            if shard.worker is not None and shard.worker.cancelled():
                raise ServerClosed("server aborted; the event was discarded")
            waited = perf_counter() - wait_start
            shard.backpressure_wait_seconds += waited
            self.backpressure_wait_seconds += waited
            if rec_on:
                self._recorder.series(
                    "serve.backpressure.wait_ms", event[0], waited * 1000.0
                )
        else:
            await queue.put(
                event + ((perf_counter() if spans_on else 0.0),)
            )
        depth = queue.qsize()
        if depth > shard.max_queue_depth:
            shard.max_queue_depth = depth
        if rec_on:
            self._recorder.count("serve.ingested")
            self._recorder.series("serve.queue_depth", event[0], depth)

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    async def submit(self, step: int, r_value: Value, s_value: Value) -> None:
        """Push one binary-join tick: the step's R and S arrivals
        (``None`` = "−"), delivered as :meth:`submit_multi` delivers
        ``{"R": r_value, "S": s_value}``."""
        self._check_accepting()
        if self._spec.names != RS_NAMES:
            raise ValueError(
                "submit() is for join servers; use submit_reference() "
                "or submit_multi()"
            )
        await self._submit_join(step, (r_value, s_value))

    async def submit_reference(self, step: int, value: Value) -> None:
        """Push one caching-problem reference (``None`` = skipped "−")."""
        self._check_accepting()
        if self._spec.kind != "cache":
            raise ValueError("submit_reference() is for cache servers; use submit()")
        spans = self._spans
        spans_on = spans.active
        if spans_on:
            start = perf_counter()
        if value is not None:
            self.ingested_arrivals += 1
        if self._router.n_shards == 1:
            await self._enqueue(self._shards[0], (step, value))
        elif value is None:
            if self._recorder.enabled:
                self._recorder.count("serve.null_ticks")
        else:
            if spans_on:
                routed = perf_counter()
            shard = self._shards[self._router.shard_for(value)]
            if spans_on:
                spans.record("route", step, (perf_counter() - routed) * 1000.0)
            await self._enqueue(shard, (step, value))
        if spans_on:
            spans.record("submit", step, (perf_counter() - start) * 1000.0)

    async def submit_multi(self, step: int, arrivals: Mapping[str, Value]) -> None:
        """Push one join tick: arrivals keyed by stream name.

        Streams absent from ``arrivals`` are treated as "−" (``None``).
        """
        self._check_accepting()
        if self._spec.kind == "cache":
            raise ValueError("submit_multi() is for multi-join servers")
        names = self._spec.names
        unknown = set(arrivals) - set(names)
        if unknown:
            raise ValueError(f"arrivals for unknown streams {sorted(unknown)}")
        await self._submit_join(step, tuple(arrivals.get(name) for name in names))

    async def _submit_join(self, step: int, values: tuple) -> None:
        """Route and enqueue one join tick, ``values`` in :attr:`names`
        order, timing the ``submit`` span."""
        spans = self._spans
        spans_on = spans.active
        if spans_on:
            start = perf_counter()
        for shard, shard_values in self._route(step, values):
            await self._enqueue(shard, (step, shard_values))
        if spans_on:
            spans.record("submit", step, (perf_counter() - start) * 1000.0)

    def _route(self, step: int, values: tuple) -> list:
        """Split one join tick, ``values`` in :attr:`names` order, into
        ``(shard, values)`` deliveries.

        With one shard the tick is delivered whole, normalized over the
        server's stream set — even an all-"−" tick — so the shard
        observes exactly the scalar simulator's input.  With many shards
        each non-"−" arrival routes by its join value — every query edge
        probes the same attribute, so all of a value's matches stay
        intra-shard — and arrivals landing on the same shard share one
        delivery, the absent streams as "−"; an all-"−" tick is not
        delivered at all (``serve.null_ticks``).
        """
        self.ingested_arrivals += len(values) - values.count(None)
        if self._router.n_shards == 1:
            return [(self._shards[0], values)]
        events: dict[int, list[Value]] = {}
        spans = self._spans
        spans_on = spans.active
        if spans_on:
            start = perf_counter()
        for i, value in enumerate(values):
            if value is not None:
                index = self._router.shard_for(value)
                events.setdefault(index, [None] * len(values))[i] = value
        if spans_on:
            spans.record("route", step, (perf_counter() - start) * 1000.0)
        if not events and self._recorder.enabled:
            self._recorder.count("serve.null_ticks")
        return [(self._shards[index], events[index]) for index in sorted(events)]

    # ------------------------------------------------------------------
    # Drain / stop
    # ------------------------------------------------------------------
    async def _await_or_worker_death(
        self, shard: Shard, awaitable: "asyncio.Future"
    ) -> None:
        """Wait for ``awaitable``, bailing out if the shard worker dies.

        A failed worker raises even when ``awaitable`` finished in the
        same loop turn: what it waited for says nothing about events the
        dead worker never applied.
        """
        pending_task = asyncio.ensure_future(awaitable)
        worker = shard.worker
        assert worker is not None
        done, _ = await asyncio.wait(
            {pending_task, worker}, return_when=asyncio.FIRST_COMPLETED
        )
        if pending_task not in done:
            pending_task.cancel()
        self._raise_if_worker_failed(shard)
        if pending_task not in done:
            raise RuntimeError(
                f"shard {shard.index} worker exited while waiting"
            )

    async def drain(self) -> None:
        """Block until every queued event has been applied.

        Deadlock-safe: if a shard worker crashed, the failure is raised
        here instead of waiting forever on its queue.
        """
        if not self._started:
            return
        for shard in self._shards:
            self._raise_if_worker_failed(shard)
            await self._await_or_worker_death(shard, shard.queue.join())

    async def stop(self) -> None:
        """Graceful shutdown: drain queues, stop workers, merge metrics.

        Sentinels go behind any queued work (FIFO), so every accepted
        event is applied before its worker exits.  In sharded mode each
        shard's forked recorder snapshot is merged into the caller's
        recorder (and kept on the shard for per-shard inspection).
        """
        if not self._started or self._stopped:
            self._stopped = True
            self._stopping = True
            await self.stop_metrics()
            return
        self._stopping = True
        failures: list[BaseException] = []
        for shard in self._shards:
            worker = shard.worker
            assert worker is not None
            if not worker.done():
                try:
                    await self._await_or_worker_death(
                        shard, shard.queue.put(_STOP)
                    )
                except RuntimeError:
                    pass  # worker died; collected from the task below
            try:
                await worker
            except asyncio.CancelledError:
                pass
            except BaseException as exc:  # resurfaced after cleanup below
                failures.append(exc)
        self._stopped = True
        if self._stopped_at is None:
            self._stopped_at = perf_counter()
        if self._recorder.enabled:
            self._recorder.series(
                "serve.uptime_ms", 0, self.uptime_seconds * 1000.0
            )
        self._fold_shard_hists()
        self._merge_shard_snapshots()
        if self._recorder.enabled:
            self._recorder.count("serve.stopped")
        await self.stop_metrics()
        if failures:
            raise failures[0]

    async def abort(self) -> None:
        """Hard shutdown: cancel workers without draining queues.

        Each cancelled worker's queue is emptied as it exits, so a
        producer blocked on a full queue wakes and raises
        :class:`ServerClosed` (see :meth:`_discard_if_dead`).
        """
        self._stopping = True
        for shard in self._shards:
            if shard.worker is not None:
                shard.worker.cancel()
        await asyncio.gather(
            *(s.worker for s in self._shards if s.worker is not None),
            return_exceptions=True,
        )
        self._stopped = True
        if self._stopped_at is None:
            self._stopped_at = perf_counter()
        self._fold_shard_hists()
        self._merge_shard_snapshots()
        await self.stop_metrics()

    def _merge_shard_snapshots(self) -> None:
        """Fold forked per-shard recorders back into the caller's sink."""
        if self.n_shards == 1 or not self._recorder.enabled:
            return
        for shard in self._shards:
            if shard.snapshot is None:
                shard.snapshot = shard.state.recorder.snapshot()
                self._recorder.merge(shard.snapshot)

    def _fold_shard_hists(self, shards: Optional[list[Shard]] = None) -> None:
        """Fold retiring shards' span histograms into the server set.

        Histogram merges add bucket counts exactly, so no
        observation is lost at stop, abort, or reshard; each shard is
        folded at most once (``hists_folded``).
        """
        for shard in self._shards if shards is None else shards:
            if not shard.hists_folded:
                if shard.hists:
                    self._hists.merge(shard.hists.state())
                shard.hists_folded = True

    # ------------------------------------------------------------------
    # Live metrics endpoint
    # ------------------------------------------------------------------
    def enable_spans(self) -> None:
        """Turn request-path span timing on for the server and shards.

        Called automatically by :meth:`start_metrics` so a live scrape
        has latency histograms to serve even under a
        :class:`~repro.obs.NullRecorder`; harmless to call directly.
        """
        self._spans.active = True
        for shard in self._shards:
            shard.spans.active = True

    async def start_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "MetricsEndpoint":
        """Start the opt-in HTTP scrape endpoint (``/metrics``, ``/health``).

        Binding ``port=0`` picks a free ephemeral port (see
        :attr:`~repro.serve.metrics.MetricsEndpoint.port`).  Span timing
        is enabled as a side effect so the latency histograms fill.
        """
        if self._metrics is not None:
            raise RuntimeError("metrics endpoint already started")
        from .metrics import MetricsEndpoint

        self.enable_spans()
        endpoint = MetricsEndpoint(self, host=host, port=port)
        await endpoint.start()
        self._metrics = endpoint
        return endpoint

    async def stop_metrics(self) -> None:
        """Close the scrape endpoint if one is running (idempotent)."""
        if self._metrics is not None:
            endpoint, self._metrics = self._metrics, None
            await endpoint.stop()

    # ------------------------------------------------------------------
    # Resharding
    # ------------------------------------------------------------------
    async def reshard(self, new_n_shards: int) -> None:
        """Repartition the cached tuples onto ``new_n_shards`` shards.

        Requires quiescence: queues are drained first, then the old
        workers are retired and fresh shards take over.  The multiset of
        cached tuples is preserved exactly
        (:func:`~repro.serve.shard.reshard`); new uid strides start past
        every uid minted so far, so no collision is possible.  Policies
        are rebuilt per shard and re-admitted their shard's tuples in
        uid order (recency/frequency state is reconstructed from the
        admissions; model-aware history restarts from later arrivals).
        """
        if new_n_shards < 1:
            raise ValueError("new_n_shards must be >= 1")
        if self._stopping or self._stopped:
            raise ServerClosed("cannot reshard a stopping server")
        if self._started:
            await self.drain()
            # Retire the old workers (queues are empty, so the sentinel
            # is consumed immediately).
            for shard in self._shards:
                await self._await_or_worker_death(
                    shard, shard.queue.put(_STOP)
                )
            await asyncio.gather(
                *(s.worker for s in self._shards if s.worker is not None)
            )
        old_shards = self._shards
        self._merge_shard_snapshots()
        # Retiring shards' span histograms fold into the server-level
        # set (exact bucket addition), so latency observed before the
        # reshard keeps counting toward the merged percentiles.
        self._fold_shard_hists(old_shards)
        uid_base = max(s.state.factory.next_uid for s in old_shards)
        new_router = ShardRouter(new_n_shards)
        assignments = reshard_tuples(
            [s.state.cache.tuples() for s in old_shards], new_router
        )
        # Sketch-backed policies (count-min / TinyLFU frequency state,
        # admission doorkeepers + cutoff EMAs) cannot be reconstructed
        # from re-admissions alone, so carry the retiring shards' sketch
        # state over and fold it into every successor.  Each new shard
        # receives the union of all old shards; for its own keys the
        # counts are preserved, for foreign keys the only cost is
        # count-min's one-sided overestimate.
        donor_states = [
            state
            for state in (s.state.policy.sketch_state() for s in old_shards)
            if state
        ]
        self._router = new_router
        self._shards = []
        for index, tuples in enumerate(assignments):
            shard = self._make_shard(
                index, new_n_shards, uid_start=uid_base + index
            )
            for state in donor_states:
                shard.state.policy.merge_sketch_state(state)
            for tup in sorted(tuples, key=lambda x: x.uid):
                shard.state.cache.add(tup)
                shard.state.policy.on_admit(tup, tup.arrival)
            self._shards.append(shard)
        if self._started:
            for shard in self._shards:
                self._spawn_worker(shard)
        if self._recorder.enabled:
            self._recorder.count("serve.reshard")
