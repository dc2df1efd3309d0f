"""Traced pass: where one tick's time goes, layer by layer.

Each round's ladder replays one stream (the first ``min(single_ticks,
sharded_ticks)`` ticks of the round's input segment) through nested
configurations, each adding one code layer to the one before:

====  ============================================  =====================
L0    the benchmark's ``make_*_state`` + ``*_step``   ``repro.sim.step``
      loop
L1    ``*Simulator.run``                             ``repro.sim.join_sim``
                                                     / ``cache_sim``
L2    L1 with a ``CounterRecorder``                  ``repro.obs``
L3    ``run_replay`` on 1 shard                      ``repro.serve``
L4    ``run_replay`` on 4 shards                     ``repro.serve``
L5    L4 with a ``CounterRecorder`` (spans on)       ``repro.obs``
====  ============================================  =====================

The difference between adjacent layers is the per-tick cost of the layer
added.  Everything is measured from outside the package: policy hooks by
wrapping them on the instances the benchmark builds (``HookTimer``), obs
calls by a ``CounterRecorder`` subclass that times its own ``count`` and
``series`` calls (``TimedCounterRecorder``), flow work from the counters
and timers ``repro.flow`` already records, and span latencies from
``StreamServer.latency_histograms()``.  The timed variants run
separately from the untimed layers, so the timers never inflate a
layer difference; ``trace.overhead_pct`` reports what the hook timers
cost on L1.  Like the end-to-end pass, every time is normalized to
nominal host speed with the ``SpeedMeter`` reference loop.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from repro.obs import CounterRecorder
from repro.obs.spans import SERVE_SPAN_NAMES, SERVE_SPAN_PREFIX
from repro.policies import make_batch_policy
from repro.serve import ShardRouter
from repro.sim.step import cache_step, join_step, make_cache_state, make_join_state

from workloads import (
    PARALLEL_WORKERS,
    SHARDS,
    medians,
    parallel_engine,
    repeat_rounds,
    run_engine,
    run_open_loop,
    run_serve,
    run_sim,
    total_of,
)


class HookTimer:
    """Times one run's policy hooks, wrapped per instance."""

    def __init__(self) -> None:
        self.select_s = 0.0
        self.select_calls = 0
        #: ``select_victims`` calls that had to evict (``n_evict > 0``).
        self.evicting_selects = 0
        #: Seconds in ``on_admit``/``on_evict``/``on_reference``.
        self.hook_s = 0.0

    def wrap(self, policy):
        select = policy.select_victims

        def select_victims(candidates, n_evict, ctx):
            start = perf_counter()
            victims = select(candidates, n_evict, ctx)
            self.select_s += perf_counter() - start
            self.select_calls += 1
            self.evicting_selects += n_evict > 0
            return victims

        policy.select_victims = select_victims
        for name in ("on_admit", "on_evict", "on_reference"):
            setattr(policy, name, self._timed(getattr(policy, name)))
        return policy

    def _timed(self, hook):
        def timed(tup, t):
            start = perf_counter()
            hook(tup, t)
            self.hook_s += perf_counter() - start

        return timed


class TimedCounterRecorder(CounterRecorder):
    """A ``CounterRecorder`` that times its own ``count``/``series`` calls.

    Shards of a sharded server record into forks; the forks are timed
    too and summed by :meth:`totals`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.count_calls = 0
        self.count_s = 0.0
        self.series_calls = 0
        self.series_s = 0.0
        self.forks: list[TimedCounterRecorder] = []

    def count(self, name, n=1):
        start = perf_counter()
        super().count(name, n)
        self.count_s += perf_counter() - start
        self.count_calls += 1

    def series(self, name, t, value):
        start = perf_counter()
        super().series(name, t, value)
        self.series_s += perf_counter() - start
        self.series_calls += 1

    def fork(self):
        child = TimedCounterRecorder()
        self.forks.append(child)
        return child

    def totals(self) -> tuple[int, float, int, float]:
        """(count calls, count seconds, series calls, series seconds)."""
        parts = [self, *self.forks]
        return (
            sum(p.count_calls for p in parts),
            sum(p.count_s for p in parts),
            sum(p.series_calls for p in parts),
            sum(p.series_s for p in parts),
        )


def run_steps(w, n: int):
    """L0: the step functions driven by the benchmark's own loop."""
    spec = w.spec
    policy = w.factory()
    ticks = w.ticks(n)
    start = perf_counter()
    if w.kind == "join":
        state = make_join_state(
            spec.cache_size, policy, window=spec.window, band=spec.band,
            r_model=spec.r_model, s_model=spec.s_model,
            window_oracle=spec.window_oracle,
        )
        for t, (r_val, s_val) in enumerate(ticks):
            join_step(state, t, r_val, s_val)
    else:
        state = make_cache_state(
            spec.cache_size, policy, reference_model=spec.r_model
        )
        for t, (value,) in enumerate(ticks):
            cache_step(state, t, value)
    return perf_counter() - start, state


def _timed_submit(server, box: list) -> None:
    """Accumulate wall time inside the server's submit calls in ``box``."""
    name = "submit" if server.spec.kind == "join" else "submit_reference"
    inner = getattr(server, name)

    async def submit(*args):
        start = perf_counter()
        await inner(*args)
        box[0] += perf_counter() - start

    setattr(server, name, submit)


def _batch_adapter_kwargs(spec) -> dict:
    """The arguments ``BatchEngine`` builds its adapter with."""
    if spec.kind == "cache":
        return {"kind": "cache", "r_model": spec.r_model}
    return {
        "kind": "join", "r_model": spec.r_model, "s_model": spec.s_model,
        "window": spec.window, "window_oracle": spec.window_oracle,
        "cache_size": spec.cache_size,
    }


def _route_seconds(values: list) -> float:
    router = ShardRouter(SHARDS)
    start = perf_counter()
    for value in values:
        router.shard_for(value)
    return perf_counter() - start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Layer(NamedTuple):
    """One timed ladder run."""

    #: Normalized seconds: the simulator run, or first submit to drain.
    seconds: float
    #: Step state, simulator result or server.
    outcome: object
    #: The replay summary (serve layers only).
    summary: Optional[object]
    speed: float


def trace_round(w, checks, meter) -> dict:
    """One pass over the ladder and the per-tier probes; metric values."""
    kind = w.kind
    sizes = w.sizes
    n = min(sizes["single_ticks"], sizes["sharded_ticks"])
    per_tick = 1e6 / n
    v: dict = {}
    totals: dict = {}

    def layer(label, fn, *args, **kwargs) -> Optional[Layer]:
        out = checks.attempt(label, n, meter.around, fn, *args, **kwargs)
        if out is None:
            return None
        (timing, outcome), speed = out
        # Step states, simulator results and servers share the total's
        # attribute names.
        totals[label] = total_of(kind, outcome)
        if fn is run_serve:
            return Layer(timing.seconds * speed, outcome, timing, speed)
        return Layer(timing * speed, outcome, None, speed)

    l0 = layer("L0", run_steps, w, n)
    l1 = layer("L1", run_sim, w, n)
    hooks = HookTimer()
    l1_traced = layer("L1 traced", run_sim, w, n,
                      policy=hooks.wrap(w.factory()))
    recorder = CounterRecorder()
    l2 = layer("L2", run_sim, w, n, recorder)
    if l0 and l1 and l1_traced:
        select_s = hooks.select_s * l1_traced.speed
        hook_s = hooks.hook_s * l1_traced.speed
        v["sim.step.us_per_tick"] = l0.seconds * per_tick
        v["sim.step.self_us_per_tick"] = (
            l0.seconds - select_s - hook_s) * per_tick
        v["sim.driver.us_per_tick"] = (l1.seconds - l0.seconds) * per_tick
        v["policies.select_us_per_tick"] = select_s * per_tick
        v["policies.select_calls_per_tick"] = hooks.select_calls / n
        v["policies.evicting_select_frac"] = _ratio(
            hooks.evicting_selects, hooks.select_calls)
        v["policies.hook_us_per_tick"] = hook_s * per_tick
        v["trace.overhead_pct"] = 100.0 * (l1_traced.seconds / l1.seconds - 1)
        v["cache.hit_rate"] = (
            _ratio(l1.outcome.hits, l1.outcome.steps)
            if kind == "cache" else 0.0)
    if l1 and l2:
        v["obs.sim_us_per_tick"] = (l2.seconds - l1.seconds) * per_tick
        counters = recorder.counters
        solves = counters.get("flow.solves", 0)
        table_hits = counters.get("prob_table.hits", 0)
        v["flow.solves_per_tick"] = solves / n
        v["flow.solve_us_per_tick"] = (
            recorder.timers.get("flow.solve", [0.0])[0] * l2.speed * per_tick)
        v["flow.iterations_per_solve"] = _ratio(
            counters.get("flow.solver_iterations", 0), solves)
        v["flow.prob_table_hit_rate"] = _ratio(
            table_hits, table_hits + counters.get("prob_table.misses", 0))

    l3 = layer("L3", run_serve, w, n, 1)
    submit_box = [0.0]
    l3_timed = layer("L3 timed submit", run_serve, w, n, 1,
                     on_server=lambda s: _timed_submit(s, submit_box))
    l4 = layer("L4", run_serve, w, n, SHARDS)
    l5 = layer("L5", run_serve, w, n, SHARDS, CounterRecorder())
    timed_recorder = TimedCounterRecorder()
    l5_timed = layer("L5 timed obs", run_serve, w, n, SHARDS, timed_recorder)
    if l0 and l3:
        v["serve.single_us_per_tick"] = (l3.seconds - l0.seconds) * per_tick
    if l3_timed:
        # Time blocked on a full queue is the worker's, not submit's.
        own_s = submit_box[0] - l3_timed.outcome.backpressure_wait_seconds
        v["serve.submit_us_per_tick"] = own_s * l3_timed.speed * per_tick
    if l3 and l4:
        events = [s.events_applied for s in l4.outcome.shards]
        v["serve.shard_us_per_tick"] = (l4.seconds - l3.seconds) * per_tick
        v["serve.events_per_tick"] = sum(events) / n
        v["serve.shard_skew"] = max(events) * len(events) / sum(events)
        v["serve.backpressure_duty"] = l4.summary.backpressure_duty
        v["serve.max_queue_depth"] = l4.summary.max_queue_depth
        v["cache.hit_rate_sharded"] = (
            _ratio(l4.summary.hits, l4.summary.hits + l4.summary.misses)
            if kind == "cache" else 0.0)
    if l4 and l5:
        obs_s = l5.seconds - l4.seconds
        v["obs.serve_us_per_tick"] = obs_s * per_tick
        hists = l5.outcome.latency_histograms()
        for span in SERVE_SPAN_NAMES:
            hist = hists.get(f"{SERVE_SPAN_PREFIX}{span}_ms")
            for q in (50, 99):
                v[f"serve.span.{span}_ms_p{q}"] = (
                    hist.quantile(q / 100) * l5.speed
                    if hist and hist.count else 0.0)
        if l5_timed:
            count_calls, count_s, series_calls, series_s = (
                timed_recorder.totals())
            count_s *= l5_timed.speed
            series_s *= l5_timed.speed
            v["obs.count_calls_per_tick"] = count_calls / n
            v["obs.count_us_per_tick"] = count_s * per_tick
            v["obs.series_calls_per_tick"] = series_calls / n
            v["obs.series_us_per_tick"] = series_s * per_tick
            v["obs.span_residual_us_per_tick"] = (
                obs_s - count_s - series_s) * per_tick

    routed = [x for tick in w.ticks(n) for x in tick if x is not None]
    seconds, speed = meter.around(_route_seconds, routed)
    v["serve.route_us_per_value"] = seconds * speed * 1e6 / len(routed)

    out = checks.attempt("open loop", n, meter.around, run_open_loop, w, n,
                         sizes["rate_per_s"], meter)
    if out:
        result = out[0]  # normalized chunk by chunk inside the run
        checks.failed_ticks += result.unstamped
        totals["open loop"] = result.total
        v["gen.late_ms_p99"] = float(np.percentile(result.late_ms, 99))
        v["gen.unstamped_frac"] = result.unstamped / result.expected

    # Batch and parallel tiers on the workload's trials.
    trial_ticks = sizes["trial_ticks"]
    n_batch, n_par = sizes["batch_trials"], sizes["parallel_trials"]

    def build_adapter():
        start = perf_counter()
        make_batch_policy(w.factory(), **_batch_adapter_kwargs(w.spec))
        return perf_counter() - start

    seconds, speed = meter.around(build_adapter)
    v["batch.adapter_build_ms"] = seconds * speed * 1e3
    batch = checks.attempt("batch", n_batch * trial_ticks, meter.around,
                           run_engine, w, "batch", n_batch)
    if batch:
        (seconds, _), speed = batch
        v["batch.us_per_trial_tick"] = (
            seconds * speed * 1e6 / (n_batch * trial_ticks))
    parallel = checks.attempt("parallel", n_par * trial_ticks,
                              meter.around_all_cpus, run_engine, w,
                              parallel_engine(), n_par)
    scalar = checks.attempt("scalar", n_par * trial_ticks, meter.around,
                            run_engine, w, "scalar", n_par)
    if parallel and scalar:
        (par_s, par_result), par_speed = parallel
        (scalar_s, scalar_result), scalar_speed = scalar
        par_s *= par_speed
        scalar_s *= scalar_speed
        v["parallel.speedup_vs_scalar"] = scalar_s / par_s
        v["parallel.overhead_s"] = par_s - scalar_s / PARALLEL_WORKERS
        checks.expect("parallel == scalar per trial",
                      [total_of(kind, r) for r in par_result.per_run],
                      [total_of(kind, r) for r in scalar_result.per_run])
        if batch:
            checks.expect("parallel == batch per trial",
                          [total_of(kind, r) for r in par_result.per_run],
                          [total_of(kind, r) for r in batch[0][1].per_run]
                          [:n_par])

    for label, group in (
        ("single-shard layers",
         ("L0", "L1", "L1 traced", "L2", "L3", "L3 timed submit")),
        ("sharded layers", ("L4", "L5", "L5 timed obs", "open loop")),
    ):
        for name in group[1:]:
            checks.expect(f"{label} agree ({name})", totals.get(name),
                          totals.get(group[0]))
    return v


def measure(w, checks, meter, seconds: float) -> tuple:
    """Repeat the ladder while ``seconds`` allows, round ``r`` on input
    segment ``r``; per-metric medians."""
    rounds = repeat_rounds(
        lambda r: trace_round(w.segment(r), checks, meter), seconds, 1
    )
    return medians(rounds), {"rounds": len(rounds)}
