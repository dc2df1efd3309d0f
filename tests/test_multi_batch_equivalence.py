"""Batch-vs-scalar parity for multi-join specs (the PR-7 acceptance gate).

``BatchEngine`` now accepts ``kind="multi_join"`` through the exact
multi-join policy adapters; every decision must be seed-for-seed
identical to the scalar reference: total and per-query results,
per-stream occupancy trajectories, :mod:`repro.obs` counters, and the
multi-join telemetry series (``cache.occupancy``, ``join.results.cum``,
``cache.hit_rate``), plus the policy-side series the batch tier mirrors
for scored adapters (``scores.cutoff``) and for the trie
replay (``trie.budget.<stream>``).  Trace events stay scalar-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lifetime import LExp
from repro.experiments.configs import make_multi_config
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy
from repro.sim.engine import BatchEngine, ExperimentSpec, ScalarEngine, spawn_rng

MULTI_SERIES = (
    "cache.occupancy",
    "join.results.cum",
    "cache.hit_rate",
    "scores.cutoff",
)


def _trials(config, length, n_runs, seed, null_every=5):
    """Seeded trial streams with "−" holes so null paths are exercised."""
    trials = []
    for run in range(n_runs):
        rng = spawn_rng(seed, run)
        streams = {
            name: model.sample_path(length, rng)
            for name, model in config.models.items()
        }
        holes = np.random.default_rng(seed + run)
        for vals in streams.values():
            for t in holes.choice(length, size=length // null_every, replace=False):
                vals[t] = None
        trials.append(streams)
    return trials


def _factory(policy_name, config, cache_size):
    if policy_name == "heeb":
        alpha = config.heeb_alpha_for(cache_size)
        return lambda: HeebPolicy(GenericJoinHeeb(LExp(alpha)))
    if policy_name == "rand":
        return lambda: make_policy("rand", seed=7)
    return lambda: make_policy(policy_name)


def _spec(config, cache_size=6, warmup=10):
    return ExperimentSpec(
        kind="multi_join",
        cache_size=cache_size,
        warmup=warmup,
        queries=tuple(tuple(q) for q in config.queries),
        models=config.models,
    )


@pytest.mark.parametrize("config_name", ["CHAIN3", "STAR5"])
@pytest.mark.parametrize("policy_name", ["rand", "lru", "lfu", "prob", "heeb"])
def test_batch_matches_scalar_seed_for_seed(config_name, policy_name):
    config = make_multi_config(config_name)
    spec = _spec(config)
    factory = _factory(policy_name, config, spec.cache_size)
    trials = _trials(config, length=150, n_runs=3, seed=11)

    assert BatchEngine().supports(spec, factory) is None

    scalar = ScalarEngine().run(spec, factory, trials)
    batch = BatchEngine().run(spec, factory, trials)

    assert len(batch.per_run) == len(scalar.per_run) == 3
    for b, s in zip(batch.per_run, scalar.per_run):
        assert b.total_results == s.total_results
        assert b.results_after_warmup == s.results_after_warmup
        assert b.per_query == s.per_query
        assert set(b.occupancy_by_stream) == set(s.occupancy_by_stream)
        for name in s.occupancy_by_stream:
            np.testing.assert_array_equal(
                np.asarray(b.occupancy_by_stream[name]),
                np.asarray(s.occupancy_by_stream[name]),
            )


@pytest.mark.parametrize("policy_name", ["lru", "prob", "heeb"])
def test_batch_counters_and_series_match_scalar(policy_name):
    config = make_multi_config("CHAIN3")
    spec = _spec(config)
    factory = _factory(policy_name, config, spec.cache_size)
    trials = _trials(config, length=120, n_runs=2, seed=23)

    rec_scalar = CounterRecorder()
    ScalarEngine().run(spec, factory, trials, recorder=rec_scalar)
    rec_batch = CounterRecorder()
    BatchEngine().run(spec, factory, trials, recorder=rec_batch)

    assert rec_batch.counters == rec_scalar.counters
    for name in MULTI_SERIES:
        assert name in rec_scalar.series_data, name
        assert (
            rec_batch.series_data[name].snapshot()
            == rec_scalar.series_data[name].snapshot()
        ), name


def test_unbatchable_multi_policy_is_rejected_not_wrong():
    """LRU-k keeps per-value histories the batch tier cannot replicate
    exactly; supports() must say so instead of running approximately."""
    config = make_multi_config("CHAIN3")
    spec = _spec(config)
    factory = lambda: make_policy("lru-k")
    reason = BatchEngine().supports(spec, factory)
    assert reason is not None and "LRU-k" in reason


def test_trie_policy_batches_with_series_parity():
    """Trie on independent models batches exactly: decisions, counters,
    and its own emitted series (``scores.cutoff``, ``trie.budget.*``)
    are byte-identical to the scalar run."""
    config = make_multi_config("CHAIN3")
    spec = _spec(config)
    factory = lambda: make_policy("trie")
    assert BatchEngine().supports(spec, factory) is None
    trials = _trials(config, length=150, n_runs=3, seed=31)

    rec_scalar = CounterRecorder()
    scalar = ScalarEngine().run(spec, factory, trials, recorder=rec_scalar)
    rec_batch = CounterRecorder()
    batch = BatchEngine().run(spec, factory, trials, recorder=rec_batch)

    for b, s in zip(batch.per_run, scalar.per_run):
        assert b.total_results == s.total_results
        assert b.per_query == s.per_query
        for name in s.occupancy_by_stream:
            np.testing.assert_array_equal(
                np.asarray(b.occupancy_by_stream[name]),
                np.asarray(s.occupancy_by_stream[name]),
            )
    assert rec_batch.counters == rec_scalar.counters
    budget_series = [
        name for name in rec_scalar.series_data if name.startswith("trie.budget.")
    ]
    assert budget_series, "scalar trie must emit per-level budget series"
    for name in (*MULTI_SERIES, *budget_series):
        assert name in rec_scalar.series_data, name
        assert (
            rec_batch.series_data[name].snapshot()
            == rec_scalar.series_data[name].snapshot()
        ), name
