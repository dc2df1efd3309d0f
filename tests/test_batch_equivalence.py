"""Scalar vs batch engine: exact, seed-for-seed equivalence.

The vectorized engine (:mod:`repro.sim.batch`) is specified to be a
*bit-exact* re-implementation of the scalar simulators for every policy
it supports -- same totals, same per-step occupancy traces, same RNG
consumption.  These tests pin that contract for the join and cache
simulators across all synthetic stream families, plus the sliding
window, determinism, and the silent scalar fallback for policies
without a batch adapter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lifetime import LExp
from repro.core.precompute import random_walk_h1_cache
from repro.experiments.configs import (
    roof_config,
    tower_config,
    walk_config,
)
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy, WalkCacheHeeb
from repro.policies.lfu import LfuPolicy
from repro.policies.life import LifePolicy
from repro.policies.lru import LruPolicy
from repro.policies.prob import ProbPolicy
from repro.policies.rand import RandPolicy
from repro.sim.runner import (
    generate_paths,
    generate_reference_paths,
    run_cache_experiment,
    run_join_experiment,
)
from repro.streams import (
    RandomWalkStream,
    StationaryStream,
    discretized_normal,
    from_mapping,
)

LENGTH = 300
N_RUNS = 4
CACHE = 6
WARMUP = 24


def _assert_join_equal(scalar, batch):
    assert scalar.policy_name == batch.policy_name
    assert len(scalar.per_run) == len(batch.per_run)
    for i, (a, b) in enumerate(zip(scalar.per_run, batch.per_run)):
        assert a.total_results == b.total_results, f"run {i}"
        assert a.results_after_warmup == b.results_after_warmup, f"run {i}"
        assert a.steps == b.steps and a.warmup == b.warmup
        assert a.cache_size == b.cache_size
        np.testing.assert_array_equal(a.occupancy, b.occupancy)
        np.testing.assert_array_equal(a.r_occupancy, b.r_occupancy)


def _assert_cache_equal(scalar, batch):
    assert scalar.policy_name == batch.policy_name
    for i, (a, b) in enumerate(zip(scalar.per_run, batch.per_run)):
        assert (a.hits, a.misses) == (b.hits, b.misses), f"run {i}"
        assert a.hits_after_warmup == b.hits_after_warmup, f"run {i}"
        assert a.misses_after_warmup == b.misses_after_warmup, f"run {i}"


def _join_both(config, factory, *, window=None, seed=0):
    paths = generate_paths(
        config.r_model, config.s_model, LENGTH, N_RUNS, seed=seed
    )
    kwargs = dict(
        cache_size=CACHE,
        warmup=WARMUP,
        window=window,
        r_model=config.r_model,
        s_model=config.s_model,
        window_oracle=config.window_oracle,
    )
    return (
        run_join_experiment(factory, paths, **kwargs),
        run_join_experiment(factory, paths, engine="batch", **kwargs),
    )


JOIN_POLICIES = {
    "RAND": lambda cfg: RandPolicy(seed=1),
    "LRU": lambda cfg: LruPolicy(),
    "PROB": lambda cfg: ProbPolicy(),
    "HEEB": lambda cfg: cfg.make_heeb(CACHE),
}


class TestJoinEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(JOIN_POLICIES))
    @pytest.mark.parametrize(
        "make_config", [tower_config, roof_config, walk_config]
    )
    def test_exact_match(self, make_config, policy_name):
        config = make_config()
        make_policy = JOIN_POLICIES[policy_name]
        scalar, batch = _join_both(config, lambda: make_policy(config))
        _assert_join_equal(scalar, batch)

    def test_life_on_trend(self):
        config = tower_config()
        scalar, batch = _join_both(config, LifePolicy)
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)

    @pytest.mark.parametrize("window", [0, 5, 25])
    @pytest.mark.parametrize(
        "make_policy", [lambda: RandPolicy(seed=3), LruPolicy, ProbPolicy]
    )
    def test_sliding_window_parity(self, make_policy, window):
        config = tower_config()
        scalar, batch = _join_both(config, make_policy, window=window)
        _assert_join_equal(scalar, batch)
        if window == 0:
            # lag-1 partners can never meet inside a zero-width window
            assert all(r.total_results == 0 for r in batch.per_run)


class TestCacheEquivalence:
    MODELS = {
        "stationary": StationaryStream(
            from_mapping({1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1})
        ),
        "walk": RandomWalkStream(discretized_normal(1.0), drift=0, start=0),
    }

    @pytest.mark.parametrize(
        "make_policy",
        [lambda: RandPolicy(seed=2), LruPolicy, ProbPolicy, LfuPolicy],
        ids=["RAND", "LRU", "PROB", "LFU"],
    )
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_exact_match(self, model_name, make_policy):
        model = self.MODELS[model_name]
        refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=7)
        kwargs = dict(cache_size=CACHE, warmup=WARMUP, reference_model=model)
        scalar = run_cache_experiment(make_policy, refs, **kwargs)
        batch = run_cache_experiment(make_policy, refs, engine="batch", **kwargs)
        _assert_cache_equal(scalar, batch)

    def test_walk_cache_heeb(self):
        model = self.MODELS["walk"]
        table = random_walk_h1_cache(model, LExp(float(CACHE)), horizon=40)
        refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=11)
        kwargs = dict(cache_size=CACHE, warmup=WARMUP, reference_model=model)
        factory = lambda: HeebPolicy(WalkCacheHeeb(table))
        scalar = run_cache_experiment(factory, refs, **kwargs)
        batch = run_cache_experiment(factory, refs, engine="batch", **kwargs)
        _assert_cache_equal(scalar, batch)
        assert any(r.hits > 0 for r in scalar.per_run)


class TestDeterminism:
    """Same seed, same engine -> byte-identical results, across engines."""

    def _run(self, engine: str):
        config = tower_config()
        return _join_both(config, lambda: RandPolicy(seed=9), seed=42)[
            1 if engine == "batch" else 0
        ]

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_repeat_runs_byte_identical(self, engine):
        first = self._run(engine)
        second = self._run(engine)
        for a, b in zip(first.per_run, second.per_run):
            assert a.total_results == b.total_results
            assert a.occupancy.tobytes() == b.occupancy.tobytes()
            assert a.r_occupancy.tobytes() == b.r_occupancy.tobytes()

    def test_engines_byte_identical(self):
        scalar = self._run("scalar")
        batch = self._run("batch")
        for a, b in zip(scalar.per_run, batch.per_run):
            assert a.occupancy.tobytes() == b.occupancy.tobytes()
            assert a.r_occupancy.tobytes() == b.r_occupancy.tobytes()


class TestScalarFallback:
    def test_unbatchable_policy_falls_back_with_warning(self, caplog):
        """Sketch-backed PROB has no batch adapter; ``engine="batch"`` must
        produce the scalar result, record the engine actually used, and
        log a one-time warning instead of failing silently."""
        import logging

        import repro.sim.engine as engine_mod

        model = StationaryStream(from_mapping({1: 0.5, 2: 0.3, 3: 0.2}))
        paths = [
            (
                model.sample_path(150, np.random.default_rng(0)),
                model.sample_path(150, np.random.default_rng(1)),
            )
        ]
        factory = lambda: ProbPolicy(counts="sketch")
        kwargs = dict(
            cache_size=4, warmup=10, window=8, r_model=model, s_model=model
        )
        scalar = run_join_experiment(factory, paths, **kwargs)
        engine_mod._FALLBACK_WARNED.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.engine"):
            batch = run_join_experiment(factory, paths, engine="batch", **kwargs)
        _assert_join_equal(scalar, batch)
        assert scalar.engine_used == "scalar"
        assert batch.engine_used == "scalar"
        fallback_records = [
            r
            for r in caplog.records
            if "falling back to the scalar engine" in r.getMessage()
        ]
        assert len(fallback_records) == 1
        assert "batch" in fallback_records[0].getMessage()

        # The warning is deduplicated: an identical second request stays
        # quiet.
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.engine"):
            run_join_experiment(factory, paths, engine="batch", **kwargs)
        assert not [
            r
            for r in caplog.records
            if "falling back to the scalar engine" in r.getMessage()
        ]
