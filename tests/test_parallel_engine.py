"""Parallel engine: seed-for-seed scalar equivalence and worker semantics.

The parallel tier runs the *scalar* simulator per trial in worker
processes, so every result — join counts, hit counts, per-step sequences
— must be bit-identical to the scalar engine for every stream family and
every worker count.  A crash inside a worker must surface to the caller
as the original exception, not hang or vanish.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Sequence

import numpy as np
import pytest

import repro.sim.engine as sim_engine
from repro.core.lifetime import LExp
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.base import PolicyContext, ReplacementPolicy
from repro.policies.heeb_policy import HeebPolicy, WalkJoinHeeb
from repro.sim.engine import (
    ExperimentSpec,
    ParallelEngine,
    ScalarEngine,
    available_engines,
    get_engine,
)
from repro.sim.runner import (
    generate_paths,
    generate_reference_paths,
    run_cache_experiment,
    run_experiment,
    run_join_experiment,
)
from repro.streams import make_stream
from repro.streams.noise import (
    bounded_normal,
    bounded_uniform,
    discretized_normal,
    from_mapping,
)

LENGTH = 130
N_RUNS = 5
CACHE = 4


def _join_models(family: str):
    """One (r_model, s_model) pair per stream family in the paper."""
    if family == "trend-normal":
        r = make_stream("linear-trend", noise=bounded_normal(10, 1.0), lag=1)
        s = make_stream("linear-trend", noise=bounded_normal(15, 2.0), lag=0)
    elif family == "trend-uniform":
        r = make_stream("linear-trend", noise=bounded_uniform(10), lag=1)
        s = make_stream("linear-trend", noise=bounded_uniform(15), lag=0)
    elif family == "random-walk":
        step = discretized_normal(1.0)
        r = make_stream("random-walk", step=step)
        s = make_stream("random-walk", step=step)
    elif family == "stationary":
        pmf = from_mapping({1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1})
        r = make_stream("stationary", dist=pmf)
        s = make_stream("stationary", dist=pmf)
    else:  # pragma: no cover - guard against typos in parametrization
        raise ValueError(family)
    return r, s


def _assert_join_equal(a, b):
    assert a.policy_name == b.policy_name
    assert len(a.per_run) == len(b.per_run)
    for x, y in zip(a.per_run, b.per_run):
        assert x.total_results == y.total_results
        assert x.results_after_warmup == y.results_after_warmup
        np.testing.assert_array_equal(x.r_occupancy, y.r_occupancy)
        np.testing.assert_array_equal(x.occupancy, y.occupancy)


class TestJoinEquivalence:
    @pytest.mark.parametrize(
        "family",
        ["trend-normal", "trend-uniform", "random-walk", "stationary"],
    )
    def test_parallel_matches_scalar(self, family):
        r_model, s_model = _join_models(family)
        paths = generate_paths(r_model, s_model, LENGTH, N_RUNS, seed=3)
        factory = lambda: make_policy("rand", seed=7)
        kwargs = dict(
            cache_size=CACHE, warmup=10, r_model=r_model, s_model=s_model
        )
        scalar = run_join_experiment(factory, paths, **kwargs)
        # An explicit worker count keeps the tier parallel even on a
        # single-CPU machine, where the default would negotiate down.
        par = run_join_experiment(
            factory, paths, engine=ParallelEngine(max_workers=2), **kwargs
        )
        assert scalar.engine_used == "scalar"
        assert par.engine_used == "parallel"
        _assert_join_equal(scalar, par)

    def test_model_aware_policy_with_closure_factory(self):
        """HEEB factories are closures over strategy objects — they must
        reach forked workers without pickling."""
        r_model, s_model = _join_models("random-walk")
        paths = generate_paths(r_model, s_model, LENGTH, N_RUNS, seed=11)

        def factory():
            return HeebPolicy(WalkJoinHeeb(LExp(4.0), horizon=40))

        kwargs = dict(
            cache_size=CACHE, warmup=0, r_model=r_model, s_model=s_model
        )
        scalar = run_join_experiment(factory, paths, **kwargs)
        par = run_join_experiment(
            factory, paths, engine=ParallelEngine(max_workers=2), **kwargs
        )
        _assert_join_equal(scalar, par)


class TestCacheEquivalence:
    @pytest.mark.parametrize("policy_name", ["lru", "lfu", "rand"])
    def test_parallel_matches_scalar(self, policy_name):
        model = make_stream(
            "stationary", dist=from_mapping({i: 1 / 6 for i in range(6)})
        )
        refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=5)
        factory = lambda: make_policy(policy_name, **(
            {"seed": 2} if policy_name == "rand" else {}
        ))
        scalar = run_cache_experiment(factory, refs, cache_size=3, warmup=8)
        par = run_cache_experiment(
            factory,
            refs,
            cache_size=3,
            warmup=8,
            engine=ParallelEngine(max_workers=2),
        )
        assert par.engine_used == "parallel"
        assert len(scalar.per_run) == len(par.per_run)
        for x, y in zip(scalar.per_run, par.per_run):
            assert x.hits == y.hits
            assert x.misses == y.misses
            assert x.hits_after_warmup == y.hits_after_warmup
        assert scalar.mean_hits == par.mean_hits
        assert scalar.std_hits == par.std_hits


class TestWorkerCounts:
    def test_identical_across_worker_counts(self):
        """Chunking is an implementation detail: 2, 4, and cpu_count
        workers must reassemble the exact same per-trial sequence, and a
        single effective worker negotiates down to the scalar engine
        with — again — the exact same results."""
        r_model, s_model = _join_models("trend-normal")
        paths = generate_paths(r_model, s_model, LENGTH, N_RUNS, seed=1)
        spec = ExperimentSpec(
            kind="join",
            cache_size=CACHE,
            warmup=5,
            r_model=r_model,
            s_model=s_model,
        )
        factory = lambda: make_policy("prob")
        baseline = run_experiment(spec, factory, paths, engine=ScalarEngine())
        import os

        counts = sorted({1, 2, 4, os.cpu_count() or 1})
        for workers in counts:
            res = run_experiment(
                spec, factory, paths, engine=ParallelEngine(max_workers=workers)
            )
            expected = "scalar" if workers <= 1 else "parallel"
            assert res.engine_used == expected
            assert [r.total_results for r in res.per_run] == [
                r.total_results for r in baseline.per_run
            ]
            for got, want in zip(res.per_run, baseline.per_run):
                np.testing.assert_array_equal(got.occupancy, want.occupancy)

    def test_more_workers_than_trials(self):
        r_model, s_model = _join_models("stationary")
        paths = generate_paths(r_model, s_model, 60, 2, seed=9)
        spec = ExperimentSpec(kind="join", cache_size=2)
        factory = lambda: make_policy("lru")
        scalar = run_experiment(spec, factory, paths, engine=ScalarEngine())
        par = run_experiment(
            spec, factory, paths, engine=ParallelEngine(max_workers=8)
        )
        _assert_join_equal(scalar, par)

    def test_empty_data(self):
        spec = ExperimentSpec(kind="join", cache_size=2)
        res = run_experiment(
            spec,
            lambda: make_policy("lru"),
            [],
            engine=ParallelEngine(max_workers=2),
        )
        assert res.per_run == []
        assert res.engine_used == "parallel"

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelEngine(max_workers=0)


class _CrashOnTrial(ReplacementPolicy):
    """Evicts fine until a chosen trial, then raises inside the worker."""

    name = "CRASH"

    #: Class-level countdown: each forked child gets a copy-on-write
    #: snapshot and the caller's own chunk counts on, so the crash fires
    #: in-chunk wherever a chunk runs.
    instances = 0

    def __init__(self, crash_on_instance: int):
        type(self).instances += 1
        self._crash = type(self).instances == crash_on_instance

    def select_victims(
        self,
        candidates: Sequence,
        n_evict: int,
        ctx: PolicyContext,
    ) -> list:
        if self._crash:
            raise RuntimeError("policy exploded inside a worker")
        return sorted(candidates, key=lambda c: c.uid)[:n_evict]


class TestWorkerCrash:
    def test_crash_in_worker_surfaces_as_exception(self):
        r_model, s_model = _join_models("stationary")
        paths = generate_paths(r_model, s_model, 60, 4, seed=2)
        spec = ExperimentSpec(kind="join", cache_size=2)
        _CrashOnTrial.instances = 0
        with pytest.raises(RuntimeError, match="exploded inside a worker"):
            run_experiment(
                spec,
                lambda: _CrashOnTrial(crash_on_instance=2),
                paths,
                engine=ParallelEngine(max_workers=2),
            )

    def test_fork_payload_cleared_after_crash(self):
        import repro.sim.engine as engine_mod

        assert engine_mod._FORK_PAYLOAD is None

    def _run(self, where, action="raise"):
        r_model, s_model = _join_models("stationary")
        paths = generate_paths(r_model, s_model, 40, 4, seed=2)
        spec = ExperimentSpec(kind="join", cache_size=2)
        caller = os.getpid()
        return run_experiment(
            spec,
            lambda: _FailIn(where, caller, action),
            paths,
            engine=ParallelEngine(max_workers=2),
        )

    def test_child_chunk_raises(self):
        with pytest.raises(ValueError, match="failed in a child"):
            self._run("child")
        _assert_no_children()

    def test_caller_chunk_raises(self):
        with pytest.raises(ValueError, match="failed in the caller"):
            self._run("caller")
        _assert_no_children()

    def test_both_chunks_raise_first_chunk_wins(self):
        # Both chunks fail at their first eviction; chunk 0's failure
        # wins whichever process gets there first, as on the scalar tier.
        with pytest.raises(ValueError, match="failed in a child"):
            self._run("both")
        _assert_no_children()

    def test_child_exit_names_chunk_and_code(self):
        with pytest.raises(
            RuntimeError, match=r"chunk 0 \(trials 0-1\).*exit code 3"
        ):
            self._run("child", action="exit")
        _assert_no_children()

    def test_unpicklable_exception_becomes_runtime_error(self):
        with pytest.raises(RuntimeError, match="_UnpicklableError"):
            self._run("child", action="unpicklable")
        _assert_no_children()

    def test_interrupt_in_caller_kills_children(self):
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self._run("both", action="interrupt")
        # The child was sleeping for a minute: it was killed, not joined.
        assert time.perf_counter() - start < 30
        _assert_no_children()


class _UnpicklableError(Exception):
    """Carries a lock, so it cannot cross the process boundary."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _FailIn(ReplacementPolicy):
    """Fails on its first eviction in the child chunks, the caller's
    chunk, or both (told apart by process id)."""

    name = "FAIL"

    def __init__(self, where: str, caller: int, action: str):
        in_child = os.getpid() != caller
        self._fail = where == "both" or (where == "child") == in_child
        self._in_child = in_child
        self._action = action

    def select_victims(self, candidates, n_evict, ctx):
        if self._fail and n_evict:
            if self._action == "exit":
                os._exit(3)
            if self._action == "unpicklable":
                raise _UnpicklableError("cannot be pickled")
            if self._action == "interrupt":
                if self._in_child:
                    time.sleep(60)
                else:
                    raise KeyboardInterrupt
            where = "a child" if self._in_child else "the caller"
            raise ValueError(f"failed in {where}")
        return sorted(candidates, key=lambda c: c.uid)[:n_evict]


def _assert_no_children():
    """No child process — running or zombie — and no payload remain."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sim_engine._FORK_PAYLOAD is None


def _multi_join_data(n_trials=4, length=80):
    rng = np.random.default_rng(4)
    return [
        {name: [int(v) for v in rng.integers(0, 5, size=length)]
         for name in ("A", "B", "C")}
        for _ in range(n_trials)
    ]


def _parity_case(kind):
    """``(spec, factory, data)`` of a small run of ``kind``."""
    factory = lambda: make_policy("lru")  # noqa: E731
    if kind == "join":
        r_model, s_model = _join_models("random-walk")
        paths = generate_paths(r_model, s_model, 90, 4, seed=6)
        return ExperimentSpec(kind="join", cache_size=CACHE, warmup=5), factory, paths
    if kind == "cache":
        model = make_stream(
            "stationary", dist=from_mapping({i: 1 / 6 for i in range(6)})
        )
        refs = generate_reference_paths(model, 90, 4, seed=6)
        return ExperimentSpec(kind="cache", cache_size=3, warmup=5), factory, refs
    spec = ExperimentSpec(
        kind="multi_join",
        cache_size=CACHE,
        warmup=5,
        queries=(("A", "B"), ("B", "C")),
    )
    return spec, factory, _multi_join_data()


def _result_key(result):
    """The outcome fields every per-trial result type shares or owns."""
    return (
        result.steps,
        getattr(result, "total_results", None),
        getattr(result, "hits", None),
        getattr(result, "misses", None),
        result.primary_metric,
    )


class TestPlacementParity:
    """Which process runs a chunk changes nothing a run reports."""

    @pytest.mark.parametrize("kind", ["join", "cache", "multi_join"])
    def test_counted_run_equals_scalar(self, kind):
        spec, factory, data = _parity_case(kind)
        rec_s, rec_p = CounterRecorder(), CounterRecorder()
        scalar = ScalarEngine().run(spec, factory, data, recorder=rec_s)
        par = ParallelEngine(max_workers=2).run(
            spec, factory, data, recorder=rec_p
        )
        assert par.policy_name == scalar.policy_name
        assert [_result_key(r) for r in par.per_run] == [
            _result_key(r) for r in scalar.per_run
        ]
        assert rec_p.counters == rec_s.counters
        assert rec_p.counters["trials.done"] == len(data)
        assert set(rec_p.series_data) == set(rec_s.series_data)
        for name, ts_s in rec_s.series_data.items():
            got, want = rec_p.series_data[name].hist, ts_s.hist
            assert got.counts == want.counts, name
            assert (got.count, got.vmin, got.vmax) == (
                want.count, want.vmin, want.vmax
            ), name
            assert got.state()["sum"] == pytest.approx(want.state()["sum"])
            for q in (0.5, 0.9, 0.99):
                assert got.quantile(q) == want.quantile(q), (name, q)
        _assert_no_children()

    @pytest.mark.parametrize("n_trials, forks", [(2, 1), (1, 0)])
    def test_caller_runs_the_last_chunk(self, monkeypatch, n_trials, forks):
        spec, _, data = _parity_case("join")
        data = data[:n_trials]
        forked = []
        fork_chunk = sim_engine._fork_chunk

        def counting_fork(indices):
            forked.append(list(indices))
            return fork_chunk(indices)

        monkeypatch.setattr(sim_engine, "_fork_chunk", counting_fork)
        # Policies built in this process; a child's list is its own copy.
        built_here = []

        def factory():
            built_here.append(os.getpid())
            return make_policy("lru")

        rec_s, rec_p = CounterRecorder(), CounterRecorder()
        scalar = ScalarEngine().run(spec, factory, data, recorder=rec_s)
        built_here.clear()
        par = ParallelEngine(max_workers=3).run(
            spec, factory, data, recorder=rec_p
        )
        assert forked == [[0]] * forks
        assert built_here == [os.getpid()]
        _assert_join_equal(scalar, par)
        assert rec_p.counters == rec_s.counters
        assert rec_p.counters["trials.done"] == n_trials
        _assert_no_children()


class TestRegistry:
    def test_parallel_is_registered(self):
        assert "parallel" in available_engines()
        assert get_engine("parallel").name == "parallel"

    def test_engine_instance_passthrough(self):
        eng = ParallelEngine(max_workers=2)
        assert get_engine(eng) is eng
