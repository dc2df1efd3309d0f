"""Tests for the multi-stream join generalization (Appendix C)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lifetime import LExp
from repro.policies import (
    GenericJoinHeeb,
    HeebPolicy,
    PolicyContext,
    ProbPolicy,
    RandPolicy,
    ScheduledPolicy,
)
from repro.sim.multi_join import (
    MultiJoinSimulator,
    brute_force_multi_benefit,
    solve_opt_offline_multi,
)
from repro.streams import (
    LinearTrendStream,
    StationaryStream,
    bounded_normal,
    from_mapping,
)


class KeepOldestMulti(RandPolicy):
    name = "KEEP-OLDEST"

    def select_victims(self, candidates, n_evict, ctx):
        if n_evict <= 0:
            return []
        return sorted(candidates, key=lambda t: -t.uid)[:n_evict]


class TestSimulatorBasics:
    def test_three_stream_chain_counting(self):
        # Queries A-B and B-C; B tuples join both sides.
        streams = {
            "A": [1, None, None],
            "B": [None, 1, None],
            "C": [None, None, 1],
        }
        sim = MultiJoinSimulator(
            10, KeepOldestMulti(), queries=[("A", "B"), ("B", "C")]
        )
        result = sim.run(streams)
        # t=1: B(1) joins cached A(1).  t=2: C(1) joins cached B(1).
        assert result.total_results == 2
        assert result.per_query[frozenset(("A", "B"))] == 1
        assert result.per_query[frozenset(("B", "C"))] == 1
        # A and C never join each other (no query).
        assert frozenset(("A", "C")) not in result.per_query

    def test_one_arrival_matching_two_partners(self):
        # B arrival matches cached A and C simultaneously.
        streams = {"A": [5, None], "B": [None, 5], "C": [5, None]}
        sim = MultiJoinSimulator(
            10, KeepOldestMulti(), queries=[("A", "B"), ("B", "C")]
        )
        result = sim.run(streams)
        assert result.total_results == 2

    def test_stream_without_query_not_cached(self):
        streams = {"A": [1, 1], "B": [1, 1], "D": [1, 1]}
        sim = MultiJoinSimulator(10, KeepOldestMulti(), queries=[("A", "B")])
        result = sim.run(streams)
        assert result.occupancy_by_stream["D"].max() == 0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            MultiJoinSimulator(0, KeepOldestMulti(), queries=[("A", "B")])
        with pytest.raises(ValueError):
            MultiJoinSimulator(1, KeepOldestMulti(), queries=[])
        with pytest.raises(ValueError):
            MultiJoinSimulator(1, KeepOldestMulti(), queries=[("A", "A")])
        with pytest.raises(ValueError):
            MultiJoinSimulator(
                1, KeepOldestMulti(), queries=[("A", "B"), ("B", "A")]
            )

    def test_unknown_stream_in_query(self):
        sim = MultiJoinSimulator(1, KeepOldestMulti(), queries=[("A", "Z")])
        with pytest.raises(ValueError, match="unknown"):
            sim.run({"A": [1]})

    def test_capacity_respected(self):
        rng = np.random.default_rng(0)
        streams = {
            name: list(rng.integers(0, 4, size=50)) for name in "ABC"
        }
        sim = MultiJoinSimulator(
            3, RandPolicy(seed=1), queries=[("A", "B"), ("B", "C")]
        )
        result = sim.run(streams)
        total_occ = sum(result.occupancy_by_stream[n] for n in "ABC")
        assert total_occ.max() <= 3


class TestOptOfflineMulti:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        streams = {
            name: list(rng.integers(0, 3, size=7)) for name in "ABC"
        }
        queries = [("A", "B"), ("B", "C")]
        sol = solve_opt_offline_multi(streams, queries, 2)
        brute = brute_force_multi_benefit(streams, queries, 2)
        assert sol.total_benefit == brute

    def test_triangle_queries(self):
        rng = np.random.default_rng(9)
        streams = {name: list(rng.integers(0, 3, size=6)) for name in "ABC"}
        queries = [("A", "B"), ("B", "C"), ("A", "C")]
        sol = solve_opt_offline_multi(streams, queries, 2)
        brute = brute_force_multi_benefit(streams, queries, 2)
        assert sol.total_benefit == brute

    def test_replay_achieves_benefit(self):
        rng = np.random.default_rng(3)
        streams = {
            name: list(rng.integers(0, 5, size=60)) for name in "ABC"
        }
        queries = [("A", "B"), ("B", "C")]
        sol = solve_opt_offline_multi(streams, queries, 3)
        policy = ScheduledPolicy(sol)
        result = MultiJoinSimulator(3, policy, queries=queries).run(streams)
        assert result.total_results == sol.total_benefit
        assert policy.mismatches == 0

    def test_two_stream_case_matches_binary_solver(self):
        from repro.flow.opt_offline import solve_opt_offline

        rng = np.random.default_rng(5)
        r = list(rng.integers(0, 4, size=40))
        s = list(rng.integers(0, 4, size=40))
        multi = solve_opt_offline_multi(
            {"R": r, "S": s}, [("R", "S")], 2
        )
        binary = solve_opt_offline(r, s, 2)
        assert multi.total_benefit == binary.total_benefit


class TestMultiHeeb:
    def test_beats_baselines_on_trend_streams(self):
        a = LinearTrendStream(bounded_normal(10, 1.0), speed=1.0, lag=1)
        b = LinearTrendStream(bounded_normal(12, 1.5), speed=1.0)
        c = LinearTrendStream(bounded_normal(15, 2.0), speed=1.0, lag=2)
        models = {"A": a, "B": b, "C": c}
        queries = [("A", "B"), ("B", "C")]
        totals = {"HEEB": 0, "PROB": 0, "RAND": 0}
        for run in range(2):
            streams = {
                name: model.sample_path(600, np.random.default_rng(run * 10 + i))
                for i, (name, model) in enumerate(models.items())
            }
            policies = {
                "HEEB": HeebPolicy(GenericJoinHeeb(LExp(3.0), horizon=60)),
                "PROB": ProbPolicy(),
                "RAND": RandPolicy(seed=run),
            }
            for name, policy in policies.items():
                sim = MultiJoinSimulator(
                    10, policy, queries=queries, models=models
                )
                totals[name] += sim.run(streams).total_results
        assert totals["HEEB"] > totals["PROB"]
        assert totals["HEEB"] > totals["RAND"]

    def test_requires_models(self):
        policy = HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=10))
        sim = MultiJoinSimulator(2, policy, queries=[("A", "B")])
        with pytest.raises(ValueError, match="models"):
            sim.run({"A": [1, 1], "B": [1, 1]})

    def test_hub_stream_scores_higher_with_two_partners(self):
        """A value matched by two partner streams accrues the summed
        benefit (the appendix's rule)."""
        model = StationaryStream(from_mapping({1: 0.5, 2: 0.5}))
        models = {"A": model, "B": model, "C": model}
        from repro.core.tuples import StreamTuple

        policy = HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40))
        ctx = PolicyContext(
            kind="multi_join",
            time=0,
            cache_size=2,
            partner_names={"A": ("B",), "B": ("A", "C"), "C": ("B",)},
            histories={"A": [1], "B": [1], "C": [1]},
            models=models,
        )
        hub = StreamTuple(0, "B", 1, 0)
        leaf = StreamTuple(1, "A", 1, 0)
        h_hub = policy.strategy.h_value(hub, ctx)
        h_leaf = policy.strategy.h_value(leaf, ctx)
        assert h_hub == pytest.approx(2 * h_leaf, rel=1e-9)

