"""Tests for sliding-window semantics (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ecb import ECB, ecb_join, windowed_ecb
from repro.core.heeb import heeb_from_ecb
from repro.core.lifetime import LExp, WindowedLExp
from repro.core.tuples import StreamTuple
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy
from repro.policies.lru import LruPolicy
from repro.policies.prob import ProbPolicy
from repro.sim.join_sim import JoinSimulator
from repro.streams import StationaryStream, from_mapping


class TestSection7Example:
    """The x1/x2/x3 example: PROB and LIFE misrank; windowed HEEB ranks
    x2 > x1 > x3 -- 'arguably the most reasonable order'."""

    # p(x): stationary match probability; l(x): remaining window life.
    P = {"x1": 0.50, "x2": 0.49, "x3": 0.01}
    LIFE_LEFT = {"x1": 1, "x2": 50, "x3": 51}

    def _windowed_h(self, name: str, alpha: float = 20.0) -> float:
        # Stationary partner: ECB increments are p at every step; the
        # sliding window clips the tuple's own participation at l(x).
        horizon = 200
        p = self.P[name]
        ecb = ECB(np.cumsum(np.full(horizon, p)))
        L = WindowedLExp(alpha, self.LIFE_LEFT[name])
        return heeb_from_ecb(ecb, L)

    def test_prob_prefers_x1(self):
        assert self.P["x1"] > self.P["x2"]  # PROB's (shortsighted) order

    def test_life_prefers_x3_over_x1(self):
        life_score = {k: self.P[k] * self.LIFE_LEFT[k] for k in self.P}
        assert life_score["x3"] > life_score["x1"]  # LIFE's pessimism

    def test_windowed_heeb_ranks_x2_x1_x3(self):
        h = {k: self._windowed_h(k) for k in self.P}
        assert h["x2"] > h["x1"] > h["x3"]

    def test_ranking_robust_to_alpha(self):
        for alpha in (5.0, 10.0, 40.0):
            h = {k: self._windowed_h(k, alpha) for k in self.P}
            assert h["x2"] > h["x1"] > h["x3"], alpha


class TestWindowedEcbConsistency:
    def test_windowed_ecb_equals_weighted_clip(self, stationary_stream):
        """Clipping the ECB or the L function yields the same H."""
        base = ecb_join(stationary_stream, 0, 1, 100)
        alpha = 7.0
        arrival, t0, window = 3, 10, 12  # 5 steps of life left
        clipped_ecb = windowed_ecb(base, arrival, t0, window)
        h_via_ecb = heeb_from_ecb(clipped_ecb, LExp(alpha))
        h_via_l = heeb_from_ecb(
            base, WindowedLExp(alpha, arrival + window - t0)
        )
        assert h_via_ecb == pytest.approx(h_via_l)


class TestWindowedSimulation:
    def test_windowed_heeb_policy_runs(self):
        model = StationaryStream(from_mapping({1: 0.5, 2: 0.3, 3: 0.2}))
        policy = HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=60))
        rng = np.random.default_rng(0)
        r = model.sample_path(150, rng)
        s = model.sample_path(150, np.random.default_rng(1))
        sim = JoinSimulator(
            4, policy, window=8, r_model=model, s_model=model
        )
        result = sim.run(r, s)
        assert result.total_results > 0

    def test_window_reduces_results(self):
        model = StationaryStream(from_mapping({1: 0.5, 2: 0.5}))
        rng = np.random.default_rng(0)
        r = model.sample_path(200, rng)
        s = model.sample_path(200, np.random.default_rng(1))

        def run(window):
            policy = HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40))
            return (
                JoinSimulator(3, policy, window=window, r_model=model, s_model=model)
                .run(r, s)
                .total_results
            )

        assert run(2) <= run(50)

class TestWindowEdgeCases:
    """Boundary semantics: a tuple arriving at ``t_x`` participates
    through ``t_x + window`` inclusive and expires at ``t_x + window + 1``
    (the cache drops ``arrival < t - window`` *before* probing)."""

    def _run(self, r, s, window, warmup=0, cache_size=8):
        sim = JoinSimulator(
            cache_size, LruPolicy(), warmup=warmup, window=window
        )
        return sim.run(r, s)

    def test_join_exactly_at_expiry_boundary(self):
        window = 4
        r = [5, None, None, None, None, None]
        s = [None, None, None, None, 5, None]  # S probes at t = t_x + window
        assert self._run(r, s, window).total_results == 1

    def test_no_join_one_step_past_window(self):
        window = 4
        r = [5, None, None, None, None, None]
        s = [None, None, None, None, None, 5]  # t = t_x + window + 1
        assert self._run(r, s, window).total_results == 0

    def test_window_zero_yields_no_joins(self):
        """window=0 keeps a tuple probe-able only on its arrival step,
        but same-step arrivals are admitted after probing -- so nothing
        ever joins, even on identical streams."""
        values = [1, 2, 3, 1, 2, 3, 1, 2]
        result = self._run(list(values), list(values), window=0)
        assert result.total_results == 0

    def test_window_one_joins_adjacent_steps_only(self):
        r = [7, None, None, 7, None]
        s = [None, 7, None, None, 7]  # t=1 joins r@0; t=4 joins r@3
        assert self._run(r, s, window=1).total_results == 2

    def test_window_shorter_than_warmup(self):
        """A window smaller than the warmup period is legal: warmup only
        gates *counting*, not expiry, so pre-warmup joins still age out
        and post-warmup joins are the only ones reported."""
        n = 40
        r = [1 if t % 2 == 0 else None for t in range(n)]
        s = [1 if t % 2 == 1 else None for t in range(n)]
        result = self._run(r, s, window=2, warmup=20)
        assert result.total_results > result.results_after_warmup > 0

    def test_batch_engine_matches_on_edge_paths(self):
        from repro.policies.batch import make_batch_policy
        from repro.sim.batch import BatchMultiJoinSimulator, streams_to_arrays

        # Batch trials run in lock-step, so keep all trials the same
        # length.
        paths = [
            ([5, None, None, None, None, None, None, None],
             [None, None, None, None, 5, None, None, None]),
            ([5, None, None, None, None, None, None, None],
             [None, None, None, None, None, 5, None, None]),
            ([1, 2, 3, 1, 2, 3, 1, 2], [1, 2, 3, 1, 2, 3, 1, 2]),
        ]
        for window in (0, 1, 4):
            scalar = [
                JoinSimulator(8, LruPolicy(), window=window).run(r, s)
                for r, s in paths
            ]
            batch = BatchMultiJoinSimulator(
                8,
                make_batch_policy(LruPolicy()),
                [("R", "S")],
                window=window,
            ).run(streams_to_arrays([{"R": r, "S": s} for r, s in paths]))
            for i, run in enumerate(batch):
                assert run.total_results == scalar[i].total_results, (
                    window,
                    i,
                )


class TestWindowedHeebVsProb:
    def test_windowed_heeb_beats_prob_on_example_like_setup(self):
        """A stationary workload where window-awareness matters: a value
        with slightly lower probability but much more remaining life
        should be retained by windowed HEEB."""
        model = StationaryStream(
            from_mapping({1: 0.45, 2: 0.44, 3: 0.11})
        )
        rng = np.random.default_rng(5)
        r = model.sample_path(400, rng)
        s = model.sample_path(400, np.random.default_rng(6))
        window = 10
        heeb = HeebPolicy(GenericJoinHeeb(LExp(8.0), horizon=60))
        h_res = JoinSimulator(
            2, heeb, window=window, r_model=model, s_model=model
        ).run(r, s)
        p_res = JoinSimulator(2, ProbPolicy(), window=window).run(r, s)
        assert h_res.total_results >= p_res.total_results
