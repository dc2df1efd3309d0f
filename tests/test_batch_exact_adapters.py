"""Exact batch adapters for the formerly scalar-only policy families.

PR-9 extends the vectorized tier to the last four policy families that
used to negotiate down to the scalar loop: LRU-k, the windowed /
band-join HEEB strategies, trie caching on the binary problems, and
FlowExpect.  Each adapter is specified to be *seed-for-seed identical*
to its scalar counterpart — same victims, same totals, same occupancy
traces, same policy-emitted series — not merely statistically
equivalent.  These tests pin that contract per family, and every test
also asserts ``engine_used == "batch"`` so a silent scalar fallback can
never make the equivalence pass vacuously.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp
from repro.experiments.configs import tower_config, walk_config
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.policies.heeb_policy import (
    BandJoinHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
)
from repro.policies.lru import LrukPolicy
from repro.sim.engine import BatchEngine, ExperimentSpec, ScalarEngine
from repro.sim.runner import (
    generate_paths,
    generate_reference_paths,
    run_cache_experiment,
    run_join_experiment,
)
from repro.streams import (
    LinearTrendStream,
    RandomWalkStream,
    StationaryStream,
)
from repro.streams.noise import (
    bounded_normal,
    discretized_normal,
    from_mapping,
)

LENGTH = 240
N_RUNS = 3
CACHE = 6
WARMUP = 20

STATIONARY_PMF = {1: 0.35, 2: 0.25, 3: 0.2, 4: 0.12, 5: 0.08}


def _stationary_pair():
    return (
        StationaryStream(from_mapping(STATIONARY_PMF)),
        StationaryStream(from_mapping(STATIONARY_PMF)),
    )


def _assert_join_equal(scalar, batch):
    assert scalar.policy_name == batch.policy_name
    assert len(scalar.per_run) == len(batch.per_run)
    for i, (a, b) in enumerate(zip(scalar.per_run, batch.per_run)):
        assert a.total_results == b.total_results, f"run {i}"
        assert a.results_after_warmup == b.results_after_warmup, f"run {i}"
        np.testing.assert_array_equal(a.occupancy, b.occupancy)
        np.testing.assert_array_equal(a.r_occupancy, b.r_occupancy)


def _assert_snapshot_equal(a, b, name):
    """Snapshot equality that also treats NaN == NaN.

    LRU-k cutoffs include ``-inf`` (below-k slots), so a histogram sum
    over mixed infinities could be NaN; ``repr`` round-trips floats
    exactly, so repr equality is still byte-level equality of the state.
    """
    assert repr(a.snapshot()) == repr(b.snapshot()), name


def _policy_counters(rec):
    """Counters minus the engine-dispatch bookkeeping (tier-specific)."""
    return {
        k: v for k, v in rec.counters.items() if not k.startswith("engine.")
    }


def _assert_cache_equal(scalar, batch):
    assert scalar.policy_name == batch.policy_name
    for i, (a, b) in enumerate(zip(scalar.per_run, batch.per_run)):
        assert (a.hits, a.misses) == (b.hits, b.misses), f"run {i}"
        assert a.hits_after_warmup == b.hits_after_warmup, f"run {i}"


def _join_both(
    r_model,
    s_model,
    factory,
    *,
    window=None,
    window_oracle=None,
    seed=0,
    length=LENGTH,
    n_runs=N_RUNS,
    cache_size=CACHE,
    recorders=None,
):
    paths = generate_paths(r_model, s_model, length, n_runs, seed=seed)
    kwargs = dict(
        cache_size=cache_size,
        warmup=WARMUP,
        window=window,
        r_model=r_model,
        s_model=s_model,
        window_oracle=window_oracle,
    )
    rec_scalar, rec_batch = recorders or (None, None)
    scalar = run_join_experiment(
        factory,
        paths,
        **kwargs,
        **({"recorder": rec_scalar} if rec_scalar is not None else {}),
    )
    batch = run_join_experiment(
        factory,
        paths,
        engine="batch",
        **kwargs,
        **({"recorder": rec_batch} if rec_batch is not None else {}),
    )
    assert batch.engine_used == "batch", "adapter fell back to scalar"
    return scalar, batch


# ----------------------------------------------------------------------
# LRU-k
# ----------------------------------------------------------------------
class TestLruK:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "make_config", [tower_config, walk_config], ids=["TOWER", "WALK"]
    )
    def test_join_exact(self, make_config, k):
        config = make_config()
        scalar, batch = _join_both(
            config.r_model, config.s_model, lambda: LrukPolicy(k)
        )
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)

    def test_join_windowed(self):
        config = tower_config()
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            lambda: LrukPolicy(2),
            window=8,
            window_oracle=config.window_oracle,
        )
        _assert_join_equal(scalar, batch)

    @pytest.mark.parametrize("k", [1, 2])
    def test_cache_exact(self, k):
        models = {
            "stationary": StationaryStream(from_mapping(STATIONARY_PMF)),
            "walk": RandomWalkStream(discretized_normal(1.0), drift=0, start=0),
        }
        for model in models.values():
            refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=7)
            kwargs = dict(
                cache_size=CACHE, warmup=WARMUP, reference_model=model
            )
            scalar = run_cache_experiment(
                lambda: LrukPolicy(k), refs, **kwargs
            )
            batch = run_cache_experiment(
                lambda: LrukPolicy(k), refs, engine="batch", **kwargs
            )
            assert batch.engine_used == "batch"
            _assert_cache_equal(scalar, batch)

    def test_cutoff_series_parity(self):
        """LRU-k is exactly scored: the batch tier must mirror its
        scores.cutoff series byte-for-byte."""
        config = tower_config()
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        _join_both(
            config.r_model,
            config.s_model,
            lambda: LrukPolicy(2),
            recorders=(rec_scalar, rec_batch),
        )
        _assert_snapshot_equal(
            rec_batch.series_data["scores.cutoff"],
            rec_scalar.series_data["scores.cutoff"],
            "scores.cutoff",
        )


# ----------------------------------------------------------------------
# Windowed HEEB (trend + stationary) and the band join
# ----------------------------------------------------------------------
class TestWindowedHeeb:
    @pytest.mark.parametrize("window", [5, 25])
    def test_trend_unit_speed(self, window):
        config = tower_config()
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            lambda: config.make_heeb(CACHE),
            window=window,
            window_oracle=config.window_oracle,
        )
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)

    def test_trend_general_speed(self):
        """speed != 1 lacks translation invariance: the adapter's
        per-step memo branch must still reproduce the scalar sums."""
        r_model = LinearTrendStream(bounded_normal(10, 1.5), speed=2.0, lag=1)
        s_model = LinearTrendStream(bounded_normal(15, 2.0), speed=2.0, lag=0)
        factory = lambda: HeebPolicy(TrendJoinHeeb(LExp(4.0)))
        scalar, batch = _join_both(
            r_model, s_model, factory, window=8, length=160
        )
        _assert_join_equal(scalar, batch)

    @pytest.mark.parametrize("window", [None, 6])
    def test_stationary_generic(self, window):
        r_model, s_model = _stationary_pair()
        factory = lambda: HeebPolicy(GenericJoinHeeb(LExp(3.0), horizon=40))
        scalar, batch = _join_both(
            r_model, s_model, factory, window=window
        )
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)


class TestBandJoinHeeb:
    @pytest.mark.parametrize("band", [1, 2])
    def test_stationary_band_exact(self, band):
        r_model, s_model = _stationary_pair()
        spec = ExperimentSpec(
            kind="join",
            cache_size=CACHE,
            warmup=WARMUP,
            band=band,
            r_model=r_model,
            s_model=s_model,
        )
        factory = lambda: HeebPolicy(
            BandJoinHeeb(band, LExp(3.0), horizon=40)
        )
        paths = generate_paths(r_model, s_model, LENGTH, N_RUNS, seed=13)
        assert BatchEngine().supports(spec, factory) is None
        scalar = ScalarEngine().run(spec, factory, paths)
        batch = BatchEngine().run(spec, factory, paths)
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)


# ----------------------------------------------------------------------
# Trie caching on the binary problems
# ----------------------------------------------------------------------
class TestTrieBinary:
    def test_join_exact_with_series(self):
        r_model, s_model = _stationary_pair()
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        scalar, batch = _join_both(
            r_model,
            s_model,
            lambda: make_policy("trie"),
            recorders=(rec_scalar, rec_batch),
        )
        _assert_join_equal(scalar, batch)
        assert _policy_counters(rec_batch) == _policy_counters(rec_scalar)
        budget_series = [
            name
            for name in rec_scalar.series_data
            if name.startswith("trie.budget.")
        ]
        assert budget_series, "scalar trie must emit per-level budgets"
        for name in ("scores.cutoff", *budget_series):
            _assert_snapshot_equal(
                rec_batch.series_data[name], rec_scalar.series_data[name], name
            )

    def test_cache_exact_with_series(self):
        model = StationaryStream(from_mapping(STATIONARY_PMF))
        refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=29)
        kwargs = dict(cache_size=CACHE, warmup=WARMUP, reference_model=model)
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        scalar = run_cache_experiment(
            lambda: make_policy("trie"), refs, recorder=rec_scalar, **kwargs
        )
        batch = run_cache_experiment(
            lambda: make_policy("trie"),
            refs,
            engine="batch",
            recorder=rec_batch,
            **kwargs,
        )
        assert batch.engine_used == "batch"
        _assert_cache_equal(scalar, batch)
        assert _policy_counters(rec_batch) == _policy_counters(rec_scalar)
        for name in rec_scalar.series_data:
            if name.startswith("trie.budget.") or name == "scores.cutoff":
                _assert_snapshot_equal(
                    rec_batch.series_data[name],
                    rec_scalar.series_data[name],
                    name,
                )

    def test_trend_models_batch_too(self):
        """Independent but time-*dependent* models (linear trends) take
        the per-step memo branch; decisions must still match."""
        config = tower_config()
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            lambda: make_policy("trie"),
            length=160,
        )
        _assert_join_equal(scalar, batch)


# ----------------------------------------------------------------------
# FlowExpect
# ----------------------------------------------------------------------
class TestFlowExpectBatch:
    def _flow_counters(self, rec):
        return {
            k: v
            for k, v in rec.counters.items()
            if k in ("flow.solves", "flow.solver_iterations")
        }

    @pytest.mark.parametrize("lookahead", [1, 3, 6])
    def test_stationary_exact(self, lookahead):
        r_model, s_model = _stationary_pair()
        factory = lambda: FlowExpectPolicy(
            lookahead, r_model, s_model, fast=True
        )
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        scalar, batch = _join_both(
            r_model,
            s_model,
            factory,
            length=100,
            n_runs=2,
            cache_size=4,
            recorders=(rec_scalar, rec_batch),
        )
        _assert_join_equal(scalar, batch)
        # The batch tier shares one ProbTable/template cache across
        # trials, so memo hit/miss telemetry legitimately differs; the
        # *decision-path* counters must agree exactly.
        assert self._flow_counters(rec_scalar) == self._flow_counters(
            rec_batch
        )
        assert rec_scalar.counters["flow.solves"] > 0

    def test_trend_models_exact(self):
        """Independent time-dependent models: per-(t, value) ProbTable
        entries, shared across trials, must not change any decision."""
        config = tower_config()
        factory = lambda: FlowExpectPolicy(
            3, config.r_model, config.s_model, fast=True
        )
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            factory,
            length=80,
            n_runs=2,
            cache_size=4,
        )
        _assert_join_equal(scalar, batch)

    @settings(max_examples=25, deadline=None)
    @given(
        support=st.integers(min_value=2, max_value=5),
        weights=st.lists(
            st.integers(min_value=1, max_value=9), min_size=5, max_size=5
        ),
        lookahead=st.integers(min_value=1, max_value=6),
        cache_size=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=10, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_random_stationary_runs(
        self, support, weights, lookahead, cache_size, length, seed
    ):
        """Property-based mirror of the fastpath suite, one level up:
        random stationary pmfs and parameters, full short runs, exact
        batch-vs-scalar agreement on results and occupancy."""
        total = sum(weights[:support])
        pmf = {v: w / total for v, w in enumerate(weights[:support])}
        r_model = StationaryStream(from_mapping(pmf))
        s_model = StationaryStream(from_mapping(pmf))
        factory = lambda: FlowExpectPolicy(
            lookahead, r_model, s_model, fast=True
        )
        paths = generate_paths(r_model, s_model, length, 1, seed=seed)
        kwargs = dict(
            cache_size=cache_size,
            warmup=0,
            r_model=r_model,
            s_model=s_model,
        )
        scalar = run_join_experiment(factory, paths, **kwargs)
        batch = run_join_experiment(factory, paths, engine="batch", **kwargs)
        assert batch.engine_used == "batch"
        _assert_join_equal(scalar, batch)

    def test_slow_reference_pipeline_stays_scalar(self):
        """fast=False pins the networkx reference pipeline; the batch
        tier must refuse rather than silently swap solvers."""
        r_model, s_model = _stationary_pair()
        spec = ExperimentSpec(
            kind="join", cache_size=4, r_model=r_model, s_model=s_model
        )
        factory = lambda: FlowExpectPolicy(2, r_model, s_model, fast=False)
        reason = BatchEngine().supports(spec, factory)
        assert reason is not None and "networkx" in reason

    def test_markov_models_stay_scalar(self):
        """History-anchored (Markov) models rebind the ProbTable every
        step per trial; there is no exact shared-memo replay."""
        step = discretized_normal(1.0)
        r_model = RandomWalkStream(step, drift=0, start=0)
        s_model = RandomWalkStream(step, drift=0, start=0)
        spec = ExperimentSpec(
            kind="join", cache_size=4, r_model=r_model, s_model=s_model
        )
        factory = lambda: FlowExpectPolicy(2, r_model, s_model, fast=True)
        reason = BatchEngine().supports(spec, factory)
        assert reason is not None and "has no exact batch adapter" in reason
