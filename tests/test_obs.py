"""Observability layer: exact counters, trace round-trips, zero overhead.

Five contracts from ``docs/OBSERVABILITY.md`` are pinned here:

* counters are *exact* — a scripted LRU run whose arrivals/evictions we
  can count by hand produces exactly those counters;
* trace events round-trip: write JSONL, ``read_trace`` it back, and the
  ``repro.obs.report`` summary agrees with the recorder's own counters;
* a :class:`NullRecorder` run is seed-for-seed identical to an
  uninstrumented run (the zero-overhead guarantee is semantic, not just
  temporal);
* no simulator or policy calls a disabled recorder's ``count``,
  ``series``, ``event`` or ``timer``, for any registered policy and
  problem kind;
* the parallel engine's fork/merge of counter snapshots reproduces the
  scalar engine's counters exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import (
    NULL_RECORDER,
    CounterRecorder,
    NullRecorder,
    TraceRecorder,
    format_metrics,
    format_trace_summary,
    read_trace,
    summarize_trace,
    summarize_trace_file,
)
from repro.core.lifetime import LExp
from repro.experiments.configs import make_config
from repro.policies import LruPolicy, available_policies, make_policy
from repro.policies.adaptive_alpha import AdaptiveAlphaHeebPolicy
from repro.policies.heeb_policy import (
    GenericCacheHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
    WalkJoinHeeb,
)
from repro.sim.cache_sim import CacheSimulator
from repro.sim.engine import ExperimentSpec, ParallelEngine, ScalarEngine
from repro.sim.join_sim import JoinSimulator
from repro.sim.multi_join import MultiJoinSimulator
from repro.sim.runner import (
    generate_paths,
    run_experiment,
    run_join_experiment,
)
from repro.streams import RandomWalkStream, make_stream
from repro.streams.noise import bounded_uniform, discretized_normal

CACHE = 3


def _walk_models():
    step = discretized_normal(1.0)
    return (
        make_stream("random-walk", step=step),
        make_stream("random-walk", step=step),
    )


class TestExactCounters:
    """Counters on a run small enough to count by hand."""

    # 4 steps, no None values.  S re-emits R's earlier values while
    # they are still cached: S=1 at t=1 joins R=1 (arrived t=0) and S=2
    # at t=3 joins R=2 (arrived t=1, survives the t=2 LRU eviction),
    # so exactly 2 join results.
    R = [1, 2, 3, 4]
    S = [9, 1, 9, 2]
    K = 4

    def _run(self, recorder):
        sim = JoinSimulator(self.K, LruPolicy(), recorder=recorder)
        return sim.run(self.R, self.S)

    def test_lru_join_counters(self):
        rec = CounterRecorder()
        result = self._run(rec)
        counters = rec.snapshot()["counters"]
        assert counters["sim.steps"] == 4
        assert counters["arrivals.R"] == 4
        assert counters["arrivals.S"] == 4
        assert "arrivals.null" not in counters
        assert result.total_results == 2
        assert counters["join.results"] == 2
        # Two arrivals per step against 4 slots: 8 tuples enter, 4 fit,
        # so exactly 4 LRU evictions.
        assert counters["evict.LRU"] == 2 * 4 - self.K == 4
        assert "evict.window_expired" not in counters

    def test_metrics_attached_to_result(self):
        rec = CounterRecorder()
        result = self._run(rec)
        assert result.metrics is not None
        assert result.metrics["counters"] == rec.snapshot()["counters"]
        assert "evict.LRU" in format_metrics(result.metrics)

    def test_null_recorder_attaches_nothing(self):
        assert self._run(NULL_RECORDER).metrics is None

    def test_cache_run_counters(self):
        # 2-slot LRU over [1,2,1,3,4,1]: only the second reference to 1
        # (t=2) hits; 3 and 4 then evict 2 and 1, so the final 1 misses.
        refs = [1, 2, 1, 3, 4, 1]
        rec = CounterRecorder()
        result = CacheSimulator(2, LruPolicy(), recorder=rec).run(refs)
        counters = rec.snapshot()["counters"]
        assert counters["cache.hits"] == result.hits == 1
        assert counters["cache.misses"] == result.misses == 5
        assert counters["sim.steps"] == 6


class TestTraceRoundTrip:
    """Events written as JSONL read back and summarize consistently."""

    def _traced_run(self, path):
        r_model, s_model = _walk_models()
        rng = np.random.default_rng(7)
        r = r_model.sample_path(60, rng)
        s = s_model.sample_path(60, rng)
        with TraceRecorder(path) as rec:
            JoinSimulator(
                CACHE,
                LruPolicy(),
                r_model=r_model,
                s_model=s_model,
                recorder=rec,
            ).run(r, s)
        return rec

    def test_round_trip_matches_counters(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rec = self._traced_run(path)
        events = read_trace(path)
        counters = rec.snapshot()["counters"]

        summary = summarize_trace(events)
        assert summary.total_events == len(events)
        # The summary, computed from the file alone, agrees with the
        # live recorder's counters.
        assert summary.join_results == counters["join.results"]
        assert summary.evictions_by_policy["LRU"] == counters["evict.LRU"]
        assert summary.arrivals["R"] == counters.get("arrivals.R", 0)
        assert summary.arrivals["S"] == counters.get("arrivals.S", 0)
        assert summary.null_arrivals == counters.get("arrivals.null", 0)
        # Per-kind event counts match the recorder's events.* counters.
        for kind, n in summary.event_counts.items():
            assert counters[f"events.{kind}"] == n

        assert summarize_trace_file(path).total_events == len(events)
        rendered = format_trace_summary(summary)
        assert "evictions[LRU]" in rendered

    def test_header_is_validated(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "evict", "t": 0}\n')
        with pytest.raises(ValueError, match="missing header"):
            read_trace(bad)

    def test_bounded_trace_counts_drops(self):
        rec = TraceRecorder(max_events=3)
        for t in range(10):
            rec.event("step", t, results=0)
        assert len(rec.events) == 3
        assert rec.snapshot()["counters"]["trace.dropped"] == 7
        assert rec.snapshot()["counters"]["events.step"] == 10


class TestNullRecorderIdentity:
    """NullRecorder must not perturb results in any way."""

    @pytest.mark.parametrize("policy_name", ["rand", "lru", "heeb"])
    def test_seed_for_seed_identity(self, policy_name):
        r_model, s_model = _walk_models()
        paths = generate_paths(r_model, s_model, 80, n_runs=3, seed=5)

        def factory():
            if policy_name == "heeb":
                return HeebPolicy(WalkJoinHeeb(LExp(4.0), horizon=40))
            if policy_name == "rand":
                return make_policy("rand", seed=3)
            return make_policy(policy_name)

        kwargs = dict(
            cache_size=CACHE, r_model=r_model, s_model=s_model
        )
        plain = run_join_experiment(factory, paths, **kwargs)
        nulled = run_join_experiment(
            factory, paths, recorder=NullRecorder(), **kwargs
        )
        for a, b in zip(plain.per_run, nulled.per_run):
            assert a.total_results == b.total_results
            assert a.results_after_warmup == b.results_after_warmup
            np.testing.assert_array_equal(a.occupancy, b.occupancy)
            np.testing.assert_array_equal(a.r_occupancy, b.r_occupancy)
        assert nulled.metrics is None


class _TrippingRecorder(NullRecorder):
    """A disabled recorder whose every collecting method raises.

    ``enabled`` and ``trace`` stay ``False``, so a call that reaches
    one of these methods is instrumentation its call site failed to
    guard: work a disabled run pays for on every step.
    """

    def count(self, name, n=1):
        raise AssertionError(f"unguarded count({name!r})")

    def series(self, name, t, value):
        raise AssertionError(f"unguarded series({name!r})")

    def event(self, kind, t, /, **fields):
        raise AssertionError(f"unguarded event({kind!r})")

    def timer(self, name):
        raise AssertionError(f"unguarded timer({name!r})")


#: Policies whose inputs exist only for some problem kinds: FlowExpect
#: and LIFE model a join's partner stream and window, and LFD replays
#: one offline reference sequence.  Every other policy runs all kinds.
_ONLY_KINDS = {"flowexpect": ("join",), "life": ("join",), "lfd": ("cache",)}
_GUARD_LENGTH = 200
_GUARD_CACHE = 10


def _guard_cases():
    return [
        (kind, name)
        for name in available_policies()
        for kind in _ONLY_KINDS.get(name, ("join", "cache", "multi_join"))
    ]


def _guard_policy(kind, name, floor, chain, reference):
    """Build ``name`` for ``kind`` from the FLOOR and CHAIN3 configs."""
    if name == "heeb":
        if kind == "join":
            return floor.make_heeb(_GUARD_CACHE)
        if kind == "multi_join":
            return chain.make_heeb(_GUARD_CACHE)
        return HeebPolicy(GenericCacheHeeb(LExp(float(_GUARD_CACHE))))
    if name == "adaptive-alpha-heeb":
        strategy = {
            "join": TrendJoinHeeb,
            "cache": GenericCacheHeeb,
            "multi_join": GenericJoinHeeb,
        }[kind]
        return AdaptiveAlphaHeebPolicy(
            strategy, floor.heeb_alpha_for(_GUARD_CACHE)
        )
    if name == "flowexpect":
        return make_policy(
            "flowexpect", lookahead=4, r_model=floor.r_model,
            s_model=floor.s_model,
        )
    if name == "lfd":
        return make_policy("lfd", reference=reference)
    if name == "rand":
        return make_policy("rand", seed=1)
    return make_policy(name)


class TestDisabledRecorderIsNeverCalled:
    """The zero-overhead contract as a count, not a timing budget.

    Under a disabled recorder no simulator or policy may call
    ``count``, ``series``, ``event`` or ``timer``: each call site checks
    ``enabled``/``trace`` first, so the disabled cost is a flag load per
    guarded block, whatever the machine's timing noise.
    """

    @pytest.mark.parametrize("kind, name", _guard_cases())
    def test_no_unguarded_call(self, kind, name):
        floor = make_config("FLOOR")
        chain = make_config("CHAIN3")
        reference_model = chain.models["A"]
        reference = reference_model.sample_path(
            _GUARD_LENGTH, np.random.default_rng(3)
        )
        policy = _guard_policy(kind, name, floor, chain, reference)
        recorder = _TrippingRecorder()
        if kind == "join":
            rng = np.random.default_rng(1)
            JoinSimulator(
                _GUARD_CACHE,
                policy,
                r_model=floor.r_model,
                s_model=floor.s_model,
                window_oracle=floor.window_oracle,
                recorder=recorder,
            ).run(
                floor.r_model.sample_path(_GUARD_LENGTH, rng),
                floor.s_model.sample_path(_GUARD_LENGTH, rng),
            )
        elif kind == "cache":
            CacheSimulator(
                _GUARD_CACHE,
                policy,
                reference_model=reference_model,
                recorder=recorder,
            ).run(reference)
        else:
            rng = np.random.default_rng(2)
            streams = {
                stream: model.sample_path(_GUARD_LENGTH, rng)
                for stream, model in chain.models.items()
            }
            MultiJoinSimulator(
                _GUARD_CACHE,
                policy,
                chain.queries,
                models=chain.models,
                recorder=recorder,
            ).run(streams)


class TestEngineCounterParity:
    """Counters agree across execution tiers."""

    def _spec_and_paths(self):
        r_model, s_model = _walk_models()
        spec = ExperimentSpec(
            kind="join",
            cache_size=CACHE,
            r_model=r_model,
            s_model=s_model,
        )
        paths = generate_paths(r_model, s_model, 70, n_runs=4, seed=11)
        return spec, paths

    def _counters(self, engine):
        spec, paths = self._spec_and_paths()
        rec = CounterRecorder()
        engine.run(spec, lambda: LruPolicy(), paths, recorder=rec)
        return rec.snapshot()["counters"]

    def test_parallel_merge_equals_scalar(self):
        scalar = self._counters(ScalarEngine())
        # Explicit worker count: on a single-CPU box the negotiated
        # default would refuse to run in parallel at all.
        parallel = self._counters(ParallelEngine(max_workers=2))
        assert parallel == scalar
        assert scalar["evict.LRU"] > 0

    def test_batch_equals_scalar(self):
        spec, paths = self._spec_and_paths()
        rec_scalar = CounterRecorder()
        rec_batch = CounterRecorder()
        scalar = run_experiment(
            spec, lambda: LruPolicy(), paths, recorder=rec_scalar
        )
        batch = run_experiment(
            spec,
            lambda: LruPolicy(),
            paths,
            engine="batch",
            recorder=rec_batch,
        )
        assert batch.engine_used == "batch"
        s = rec_scalar.snapshot()["counters"]
        b = rec_batch.snapshot()["counters"]
        # Engine-dispatch bookkeeping differs by design; the simulation
        # counters must not.
        sim_keys = {
            k for k in s if not k.startswith(("engine.", "events."))
        }
        assert {k: s[k] for k in sim_keys} == {
            k: b[k] for k in sim_keys if k in b
        }
        assert b["engine.dispatch.batch"] == 1


class TestRecorderPrimitives:
    """Snapshot/merge/fork mechanics used by the parallel engine."""

    def test_merge_is_additive(self):
        a, b = CounterRecorder(), CounterRecorder()
        a.count("x", 2)
        b.count("x", 3)
        b.count("y")
        with b.timer("t"):
            pass
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"x": 5, "y": 1}
        assert snap["timers"]["t"]["calls"] == 1

    def test_trace_fork_is_counters_only(self):
        rec = TraceRecorder()
        child = rec.fork()
        assert isinstance(child, CounterRecorder)
        assert not child.trace

    def test_null_fork_is_shared_singleton(self):
        assert NULL_RECORDER.fork() is NULL_RECORDER
        assert NULL_RECORDER.snapshot() == {}


class TestFlowExpectCounters:
    """The FlowExpect fast path reports solver and memo work."""

    def test_fast_path_counters(self):
        r_model = RandomWalkStream(bounded_uniform(3))
        s_model = RandomWalkStream(bounded_uniform(3))
        rng = np.random.default_rng(2)
        r = r_model.sample_path(40, rng)
        s = s_model.sample_path(40, rng)
        rec = CounterRecorder()
        policy = make_policy(
            "flowexpect",
            lookahead=3,
            r_model=r_model,
            s_model=s_model,
            fast=True,
        )
        JoinSimulator(
            CACHE, policy, r_model=r_model, s_model=s_model, recorder=rec
        ).run(r, s)
        snap = rec.snapshot()
        counters = snap["counters"]
        assert counters["flow.solves"] > 0
        assert counters["flow.solver_iterations"] >= counters["flow.solves"]
        lookups = (
            counters["prob_table.hits"] + counters["prob_table.misses"]
        )
        assert lookups > 0
        assert snap["timers"]["flow.solve"]["calls"] == counters["flow.solves"]
