"""Windowed TrendJoinHeeb: Section-7 semantics on trend streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lifetime import LExp
from repro.core.tuples import StreamTuple
from repro.policies.base import PolicyContext
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy, TrendJoinHeeb
from repro.sim.join_sim import JoinSimulator
from repro.streams import LinearTrendStream, bounded_uniform

ALPHA = 8.0


def ctx_for(r_model, s_model, t0, window=None):
    return PolicyContext(
        kind="join",
        time=t0,
        cache_size=5,
        histories={"R": [t0] * (t0 + 1), "S": [t0] * (t0 + 1)},
        models={"R": r_model, "S": s_model},
        window=window,
    )


class TestWindowedTrendHeeb:
    @pytest.fixture
    def models(self):
        r = LinearTrendStream(bounded_uniform(4), speed=1.0, lag=1)
        s = LinearTrendStream(bounded_uniform(6), speed=1.0)
        return r, s

    def test_matches_generic_windowed(self, models):
        r_model, s_model = models
        fast = TrendJoinHeeb(LExp(ALPHA))
        generic = GenericJoinHeeb(LExp(ALPHA))
        t0 = 50
        ctx = ctx_for(r_model, s_model, t0, window=7)
        fast.reset(ctx)
        for arrival in (44, 47, 50):
            for v in range(t0 - 5, t0 + 6):
                tup = StreamTuple(arrival * 100 + v, "S", v, arrival)
                assert fast.h_value(tup, ctx) == pytest.approx(
                    generic.h_value(tup, ctx), abs=1e-9
                ), (arrival, v)

    def test_expired_tuple_scores_zero(self, models):
        r_model, s_model = models
        fast = TrendJoinHeeb(LExp(ALPHA))
        ctx = ctx_for(r_model, s_model, 50, window=5)
        old = StreamTuple(0, "S", 52, 40)  # arrival long past the window
        assert fast.h_value(old, ctx) == 0.0

    def test_window_reduces_h(self, models):
        r_model, s_model = models
        fast = TrendJoinHeeb(LExp(ALPHA))
        t0 = 50
        no_window = ctx_for(r_model, s_model, t0, window=None)
        short = ctx_for(r_model, s_model, t0, window=2)
        fast.reset(no_window)
        tup = StreamTuple(0, "S", t0 + 3, t0)
        h_full = fast.h_value(tup, no_window)
        h_short = fast.h_value(tup, short)
        assert 0.0 <= h_short < h_full

    def test_windowed_simulation_runs(self, models):
        r_model, s_model = models
        rng = np.random.default_rng(0)
        r = r_model.sample_path(300, rng)
        s = s_model.sample_path(300, np.random.default_rng(1))
        policy = HeebPolicy(TrendJoinHeeb(LExp(ALPHA)))
        result = JoinSimulator(
            5, policy, window=6, r_model=r_model, s_model=s_model
        ).run(r, s)
        assert result.total_results > 0

    def test_windowed_heeb_tracks_unwindowed_when_window_is_wide(self, models):
        r_model, s_model = models
        rng = np.random.default_rng(2)
        r = r_model.sample_path(300, rng)
        s = s_model.sample_path(300, np.random.default_rng(3))

        def run(window):
            policy = HeebPolicy(TrendJoinHeeb(LExp(ALPHA)))
            return (
                JoinSimulator(
                    5, policy, window=window, r_model=r_model, s_model=s_model
                )
                .run(r, s)
                .total_results
            )

        # A window wider than any tuple's joinable life is a no-op.
        assert run(500) == run(100)
