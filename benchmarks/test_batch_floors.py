"""Speedup floors for the accelerated paths the benchmark suite does not time.

``benchmarks/suite`` measures the scalar, batch, parallel and serve
tiers on its four workloads.  Four accelerated paths fall outside them:
the LRU-k and trie batch adapters, the CHAIN3 n-way HEEB batch adapter,
and FlowExpect's fast solver against the networkx reference.  Each test
here first asserts that the fast path gives results identical to its
reference, then times the two interleaved three times and checks the
best ratio against a floor.

The floors sit at about a third of the measured speedup (LRU-k on
TOWER ≈5×, trie ≈8–10×, CHAIN3 HEEB ≈130× at 16 trials × 200 ticks).
Runner noise cannot trip them, but a lost vectorization or a fast path
that quietly falls back to the reference (speedup ≈1×) always does.
FlowExpect's fast path measures ≈110× (best of five on 2 vCPUs, with
benefit rows read from the frame-keyed memo) and keeps its 2× floor,
which still catches a lost fast path; a silent switch to the unit-flow
fallback (≈8× on its own) is caught by the ``flow.fallback_solves``
count in ``tests/test_flowexpect_fastpath.py`` instead.  The sizes keep
the whole file under a minute.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_batch_floors.py -q
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.configs import make_config, make_multi_config
from repro.policies import make_policy
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.policies.lru import LrukPolicy
from repro.sim.engine import spawn_rng
from repro.sim.join_sim import JoinSimulator
from repro.sim.runner import (
    generate_paths,
    run_join_experiment,
    run_multi_join_experiment,
)
from repro.streams import StationaryStream
from repro.streams.noise import from_mapping

CACHE_SIZE = 10
ROUNDS = 3


def _timed(fn):
    """``(fn(), wall seconds)``."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _best_ratio(slow, fast, check) -> float:
    """Best-of-``ROUNDS`` interleaved ``slow / fast`` wall-time ratio.

    ``check(slow_out, fast_out)`` runs on the first round, before any
    timing counts.  A contended round can read low, so the best round
    is what meets the floor; a lost fast path (≈1×) reads low in every
    round.
    """
    best = 0.0
    for round_ in range(ROUNDS):
        slow_out, slow_s = _timed(slow)
        fast_out, fast_s = _timed(fast)
        if round_ == 0:
            check(slow_out, fast_out)
        best = max(best, slow_s / fast_s)
    return best


def _assert_join_identical(scalar, batch):
    assert batch.engine_used == "batch"
    for a, b in zip(scalar.per_run, batch.per_run, strict=True):
        assert a.total_results == b.total_results
        np.testing.assert_array_equal(a.occupancy, b.occupancy)


def _join_batch_speedup(r_model, s_model, factory, trials, length) -> float:
    paths = generate_paths(r_model, s_model, length, trials, seed=0)
    kwargs = dict(
        cache_size=CACHE_SIZE,
        warmup=2 * CACHE_SIZE,
        r_model=r_model,
        s_model=s_model,
    )
    return _best_ratio(
        lambda: run_join_experiment(factory, paths, engine="scalar", **kwargs),
        lambda: run_join_experiment(factory, paths, engine="batch", **kwargs),
        _assert_join_identical,
    )


def _stationary_pair():
    pmf = from_mapping({1: 0.35, 2: 0.25, 3: 0.2, 4: 0.12, 5: 0.08})
    return StationaryStream(pmf), StationaryStream(pmf)


def test_lruk_batch_floor():
    tower = make_config("TOWER")
    speedup = _join_batch_speedup(
        tower.r_model, tower.s_model, lambda: LrukPolicy(2), 64, 200
    )
    assert speedup >= 2.0, f"LRU-k batch speedup {speedup:.2f}x < 2x"


def test_trie_batch_floor():
    r_model, s_model = _stationary_pair()
    speedup = _join_batch_speedup(
        r_model, s_model, lambda: make_policy("trie"), 32, 150
    )
    assert speedup >= 3.0, f"trie batch speedup {speedup:.2f}x < 3x"


def test_chain3_heeb_batch_floor():
    config = make_multi_config("CHAIN3")
    trials = []
    for run in range(8):
        rng = spawn_rng(0, run)
        trials.append(
            {n: m.sample_path(120, rng) for n, m in config.models.items()}
        )

    def run(engine):
        return run_multi_join_experiment(
            lambda: config.make_heeb(CACHE_SIZE),
            trials,
            CACHE_SIZE,
            config.queries,
            warmup=4 * CACHE_SIZE,
            models=config.models,
            engine=engine,
        )

    def check(scalar, batch):
        assert batch.engine_used == "batch"
        for a, b in zip(scalar.per_run, batch.per_run, strict=True):
            assert a.total_results == b.total_results
            assert a.per_query == b.per_query
            for name, occupancy in a.occupancy_by_stream.items():
                np.testing.assert_array_equal(
                    occupancy, b.occupancy_by_stream[name]
                )

    speedup = _best_ratio(lambda: run("scalar"), lambda: run("batch"), check)
    assert speedup >= 20.0, f"CHAIN3 HEEB batch speedup {speedup:.1f}x < 20x"


class _RecordingFlowExpect(FlowExpectPolicy):
    """FlowExpect that logs every ``(time, victim uids)`` decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions: list[tuple] = []

    def select_victims(self, candidates, n_evict, ctx):
        victims = super().select_victims(candidates, n_evict, ctx)
        self.decisions.append(
            (ctx.time, tuple(sorted(v.uid for v in victims)))
        )
        return victims


def test_flowexpect_fast_path_floor():
    config = make_config("FLOOR")
    r_values = config.r_model.sample_path(100, np.random.default_rng(42))
    s_values = config.s_model.sample_path(100, np.random.default_rng(43))

    def run(fast):
        policy = _RecordingFlowExpect(
            8, config.r_model, config.s_model, fast=fast
        )
        result = JoinSimulator(CACHE_SIZE, policy).run(r_values, s_values)
        return policy.decisions, result.total_results

    def check(reference, fast):
        assert fast == reference

    speedup = _best_ratio(lambda: run(False), lambda: run(True), check)
    assert speedup >= 2.0, f"FlowExpect fast-path speedup {speedup:.2f}x < 2x"
