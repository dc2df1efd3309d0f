"""Tests for HEEB strategies and the HEEB policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp, LFixed
from repro.core.tuples import StreamTuple
from repro.policies.base import PolicyContext
from repro.policies.heeb_policy import (
    AR1CacheHeeb,
    GenericCacheHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
    WalkJoinHeeb,
)
from repro.sim.cache_sim import CacheSimulator
from repro.sim.join_sim import JoinSimulator
from repro.streams import (
    AR1Stream,
    LinearTrendStream,
    RandomWalkStream,
    StationaryStream,
    bounded_normal,
    bounded_uniform,
    discretized_normal,
    from_mapping,
)

ALPHA = 8.0


def join_ctx(r_model, s_model, time, r_hist, s_hist, cache_size=5, window=None):
    return PolicyContext(
        kind="join",
        time=time,
        cache_size=cache_size,
        r_history=list(r_hist),
        s_history=list(s_hist),
        r_model=r_model,
        s_model=s_model,
        window=window,
    )


class TestTrendJoinHeebAgainstGeneric:
    def test_table_matches_direct_sum(self):
        r_model = LinearTrendStream(bounded_normal(5, 2.0), speed=1.0, lag=1)
        s_model = LinearTrendStream(bounded_uniform(7), speed=1.0)
        generic = GenericJoinHeeb(LExp(ALPHA))
        fast = TrendJoinHeeb(LExp(ALPHA))
        t0 = 60
        ctx = join_ctx(r_model, s_model, t0, [t0 - 1] * (t0 + 1), [t0] * (t0 + 1))
        fast.reset(ctx)
        for side, values in (("R", range(t0 - 8, t0 + 6)), ("S", range(t0 - 6, t0 + 6))):
            for i, v in enumerate(values):
                tup = StreamTuple(i, side, v, t0)
                assert fast.h_value(tup, ctx) == pytest.approx(
                    generic.h_value(tup, ctx), abs=1e-9
                ), (side, v)

    def test_rejects_non_trend_partner(self):
        model = StationaryStream(from_mapping({1: 1.0}))
        fast = TrendJoinHeeb(LExp(ALPHA))
        ctx = join_ctx(model, model, 0, [1], [1])
        with pytest.raises(ValueError):
            fast.h_value(StreamTuple(0, "R", 1, 0), ctx)

    def test_requires_lexp(self):
        with pytest.raises(ValueError):
            TrendJoinHeeb(LFixed(5))

    def test_fractional_speed_fallback(self):
        r_model = LinearTrendStream(bounded_uniform(4), speed=0.5)
        s_model = LinearTrendStream(bounded_uniform(4), speed=0.5)
        generic = GenericJoinHeeb(LExp(ALPHA))
        fast = TrendJoinHeeb(LExp(ALPHA))
        t0 = 40
        ctx = join_ctx(r_model, s_model, t0, [20] * (t0 + 1), [20] * (t0 + 1))
        tup = StreamTuple(0, "S", 22, t0)
        assert fast.h_value(tup, ctx) == pytest.approx(
            generic.h_value(tup, ctx), abs=1e-6
        )


WINDOW = 6

# (side, value offset, arrival lag, t): the value sits near the partner
# trend, the tuple arrived up to WINDOW + 1 steps before t, and t moves
# in any direction between queries (as when a new batch run restarts
# at t = 0 on a warm strategy).  The ranges are narrow so that memo
# keys repeat within one example.
_QUERIES = st.lists(
    st.tuples(
        st.sampled_from(["R", "S"]),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=WINDOW + 1),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=10,
    max_size=60,
)


def _assert_warm_memo_exact(make_strategy, r_model, s_model, queries, speed):
    """A strategy that scored every earlier query (warm memo) must give
    the bit-identical float a fresh strategy computes."""
    warm = make_strategy()
    for uid, (side, offset, lag, t) in enumerate(queries):
        ctx = join_ctx(r_model, s_model, t, [], [], window=WINDOW)
        value = int(round(speed * t)) + offset
        tup = StreamTuple(uid, side, value, t - lag)
        expected = make_strategy().h_value(tup, ctx)
        assert warm.h_value(tup, ctx) == expected, (side, value, t - lag, t)


class TestWindowedMemoExact:
    # Integer speeds keep the trend offset translation-invariant; 0.5
    # does not (rounding), so it must bypass the memo.
    @pytest.mark.parametrize("speed", [1.0, 2.0, 0.5])
    @settings(max_examples=60, deadline=None)
    @given(queries=_QUERIES)
    def test_trend_memo_matches_fresh(self, speed, queries):
        r_model = LinearTrendStream(bounded_normal(5, 2.0), speed=speed, lag=1)
        s_model = LinearTrendStream(bounded_uniform(4), speed=speed)
        _assert_warm_memo_exact(
            lambda: TrendJoinHeeb(LExp(3.0)), r_model, s_model, queries, speed
        )

    @settings(max_examples=60, deadline=None)
    @given(queries=_QUERIES)
    def test_generic_stationary_memo_matches_fresh(self, queries):
        r_model = StationaryStream(from_mapping({-2: 0.3, 0: 0.5, 3: 0.2}))
        s_model = StationaryStream(bounded_uniform(4))
        _assert_warm_memo_exact(
            lambda: GenericJoinHeeb(LExp(3.0), horizon=20),
            r_model,
            s_model,
            queries,
            0.0,
        )

    @settings(max_examples=30, deadline=None)
    @given(queries=_QUERIES)
    def test_generic_time_dependent_partner_matches_fresh(self, queries):
        """Trend partners make ``heeb_join`` depend on ``t``: no memo."""
        r_model = LinearTrendStream(bounded_normal(5, 2.0), speed=1.0, lag=1)
        s_model = LinearTrendStream(bounded_uniform(4), speed=1.0)
        _assert_warm_memo_exact(
            lambda: GenericJoinHeeb(LExp(3.0), horizon=20),
            r_model,
            s_model,
            queries,
            1.0,
        )


class TestWalkJoinHeebAgainstGeneric:
    def test_table_matches_direct_sum(self):
        step = discretized_normal(1.0)
        r_model = RandomWalkStream(step)
        s_model = RandomWalkStream(step)
        estimator = LExp(ALPHA)
        horizon = estimator.suggested_horizon(1e-9)
        generic = GenericJoinHeeb(estimator, horizon=horizon)
        fast = WalkJoinHeeb(estimator, horizon=horizon)
        t0 = 5
        r_hist = [0, 1, 1, 2, 3, 3]
        s_hist = [0, -1, -1, 0, 1, 2]
        ctx = join_ctx(r_model, s_model, t0, r_hist, s_hist)
        fast.reset(ctx)
        for side in ("R", "S"):
            for i, v in enumerate(range(-4, 8)):
                tup = StreamTuple(i, side, v, t0)
                assert fast.h_value(tup, ctx) == pytest.approx(
                    generic.h_value(tup, ctx), abs=1e-9
                ), (side, v)

    def test_empty_history_scores_zero(self):
        step = discretized_normal(1.0)
        model = RandomWalkStream(step)
        fast = WalkJoinHeeb(LExp(ALPHA), horizon=40)
        ctx = join_ctx(model, model, 0, [None], [None])
        assert fast.h_value(StreamTuple(0, "R", 0, 0), ctx) == 0.0


class TestAR1CacheHeebPolicy:
    def test_surface_strategy_runs_and_prefers_near_values(self):
        from repro.core.precompute import ar1_h2_cache

        model = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
        estimator = LExp(20.0)
        center = model.stationary_mean
        v_grid = np.linspace(center - 6, center + 6, 5).round().astype(int)
        x_grid = np.linspace(center - 6, center + 6, 5)
        surface = ar1_h2_cache(model, estimator, v_grid, x_grid, exact_steps=40)
        strategy = AR1CacheHeeb(model, surface)
        ctx = PolicyContext(
            kind="cache",
            time=3,
            cache_size=5,
            r_history=[model.to_bucket(center)] * 4,
            r_model=model,
        )
        near = StreamTuple(0, "S", model.to_bucket(center), 0)
        far = StreamTuple(1, "S", model.to_bucket(center + 5.5), 0)
        assert strategy.h_value(near, ctx) > strategy.h_value(far, ctx)


class TestGenericCacheHeeb:
    def test_matches_module_function(self, stationary_stream):
        from repro.core.heeb import heeb_cache

        strategy = GenericCacheHeeb(LExp(ALPHA))
        ctx = PolicyContext(
            kind="cache",
            time=2,
            cache_size=3,
            r_history=[1, 2, 1],
            r_model=stationary_stream,
        )
        tup = StreamTuple(0, "S", 1, 0)
        assert strategy.h_value(tup, ctx) == pytest.approx(
            heeb_cache(stationary_stream, 2, 1, LExp(ALPHA))
        )

    def test_requires_model(self):
        strategy = GenericCacheHeeb(LExp(ALPHA))
        ctx = PolicyContext(kind="cache", time=0, cache_size=1)
        with pytest.raises(ValueError):
            strategy.h_value(StreamTuple(0, "S", 1, 0), ctx)


class TestHeebPolicyEndToEnd:
    def test_heeb_beats_prob_on_trend_streams(self):
        """The headline claim: hardwired heuristics fail under trends."""
        from repro.policies import ProbPolicy

        r_model = LinearTrendStream(bounded_normal(10, 1.0), speed=1.0, lag=1)
        s_model = LinearTrendStream(bounded_normal(15, 2.0), speed=1.0)
        heeb_total = prob_total = 0
        for run in range(3):
            rng_r = np.random.default_rng(run)
            rng_s = np.random.default_rng(100 + run)
            r = r_model.sample_path(500, rng_r)
            s = s_model.sample_path(500, rng_s)
            heeb = HeebPolicy(TrendJoinHeeb(LExp(3.0)))
            heeb_total += (
                JoinSimulator(10, heeb, r_model=r_model, s_model=s_model)
                .run(r, s)
                .total_results
            )
            prob_total += JoinSimulator(10, ProbPolicy()).run(r, s).total_results
        assert heeb_total > 1.5 * prob_total

    def test_heeb_cache_matches_lfu_on_stationary(self):
        """Section 5.2: HEEB's stationary caching order equals LFU's, so
        hit counts should match closely."""
        from repro.policies import LfuPolicy

        dist = from_mapping({1: 0.4, 2: 0.3, 3: 0.15, 4: 0.1, 5: 0.05})
        model = StationaryStream(dist)
        rng = np.random.default_rng(1)
        trace = model.sample_path(2000, rng)
        heeb = HeebPolicy(GenericCacheHeeb(LExp(20.0), horizon=300))
        lfu = LfuPolicy()
        h = CacheSimulator(2, heeb, reference_model=model).run(trace)
        f = CacheSimulator(2, lfu).run(trace)
        # Identical asymptotic behavior; allow small transient differences.
        assert abs(h.hits - f.hits) <= 0.05 * f.hits
