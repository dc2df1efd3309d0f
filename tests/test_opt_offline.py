"""Tests for OPT-offline: exact optimality and schedule replay."""

from __future__ import annotations

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import make_config, make_multi_config
from repro.flow import opt_offline
from repro.flow.brute_force import brute_force_offline_benefit
from repro.flow.opt_offline import (
    match_times,
    solve_opt_offline,
    solve_opt_offline_multi,
)
from repro.flow.solver import solve_unit_flow
from repro.policies.scheduled import ScheduledPolicy
from repro.serve.replay import generate_multi_join_stream
from repro.sim.join_sim import JoinSimulator
from repro.sim.runner import generate_paths


class TestMatchTimes:
    def test_basic(self):
        r = [1, 2, 1]
        s = [2, 1, 1]
        # r(1)@0 matched by s at 1 and 2; r(2)@1 matched never (s=2 at 0
        # precedes it); r(1)@2 matched never.
        assert match_times(r, s) == [[1, 2], [], []]

    def test_none_values(self):
        assert match_times([None, 1], [1, 1]) == [[], []]
        assert match_times([1], [None]) == [[]]


class TestSolveOptOffline:
    def test_trivial_all_fit(self):
        r = [1, 2, 3]
        s = [0, 1, 2]
        sol = solve_opt_offline(r, s, cache_size=10)
        assert sol.total_benefit == 2

    def test_capacity_one_forces_choice(self):
        # Keeping r(1) yields 2 matches (s=1 at t=1,2); keeping anything
        # else yields fewer.
        r = [1, 9, 8]
        s = [0, 1, 1]
        sol = solve_opt_offline(r, s, cache_size=1)
        assert sol.total_benefit == 2
        assert ("R", 0) in sol.cached

    def test_empty_streams(self):
        sol = solve_opt_offline([], [], 3)
        assert sol.total_benefit == 0

    def test_eviction_defaults_to_arrival(self):
        r = [1]
        s = [2]
        sol = solve_opt_offline(r, s, 1)
        assert sol.scheduled_eviction("R", 0) == 0
        assert sol.scheduled_eviction("S", 0) == 0

    def test_rejects_bad_cache(self):
        with pytest.raises(ValueError):
            solve_opt_offline([1], [1], 0)

    @pytest.mark.parametrize("query", [("A", "Z"), ("Y", "Z")])
    def test_rejects_queries_on_unknown_streams(self, query):
        # A partly unknown query used to raise KeyError, a wholly
        # unknown one to return an empty schedule with benefit 0.
        with pytest.raises(ValueError, match="unknown streams"):
            solve_opt_offline_multi({"A": [1, 1]}, [query], 1)


class TestOptimalityAgainstBruteForce:
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=8),
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=8),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_optimum(self, r, s, k):
        n = min(len(r), len(s))
        sol = solve_opt_offline(r[:n], s[:n], k)
        brute = brute_force_offline_benefit(r[:n], s[:n], k)
        assert sol.total_benefit == brute

    def test_randomized_medium_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = list(rng.integers(0, 4, size=9))
            s = list(rng.integers(0, 4, size=9))
            sol = solve_opt_offline(r, s, 2)
            assert sol.total_benefit == brute_force_offline_benefit(r, s, 2)


class TestScheduleReplay:
    def _replay(self, r, s, k):
        sol = solve_opt_offline(r, s, k)
        policy = ScheduledPolicy(sol)
        sim = JoinSimulator(k, policy)
        result = sim.run(r, s)
        return sol, policy, result

    def test_replay_achieves_flow_benefit(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = 40
            r = list(rng.integers(0, 6, size=n))
            s = list(rng.integers(0, 6, size=n))
            k = int(rng.integers(1, 4))
            sol, policy, result = self._replay(r, s, k)
            assert result.total_results == sol.total_benefit
            assert policy.mismatches == 0

    def test_replay_on_trend_streams(self):
        from repro.streams import LinearTrendStream, bounded_uniform

        rng = np.random.default_rng(9)
        r_model = LinearTrendStream(bounded_uniform(4), speed=1.0, lag=1)
        s_model = LinearTrendStream(bounded_uniform(6), speed=1.0)
        r = r_model.sample_path(300, rng)
        s = s_model.sample_path(300, rng)
        sol, policy, result = self._replay(r, s, 5)
        assert result.total_results == sol.total_benefit
        assert policy.mismatches == 0

    def test_opt_dominates_heuristics(self):
        """OPT-offline must produce at least as many results as any
        online policy on the same inputs."""
        from repro.policies import ProbPolicy, RandPolicy

        rng = np.random.default_rng(2)
        r = list(rng.integers(0, 5, size=120))
        s = list(rng.integers(0, 5, size=120))
        k = 3
        sol, _, result = self._replay(r, s, k)
        for policy in (RandPolicy(seed=0), ProbPolicy()):
            other = JoinSimulator(k, policy).run(r, s)
            assert result.total_results >= other.total_results


class TestSolverAgainstNetworkSimplex:
    """The shared SSP solver and ``nx.network_simplex`` agree on the very
    flat graph OPT-offline builds, and the SSP flow is a feasible flow
    of exactly that cost."""

    def _solve_both(self, solve):
        """Run ``solve``; check the flat graph it built against networkx."""
        calls = []

        def spy(graph, cost, amount):
            flow = solve_unit_flow(graph, cost, amount)
            calls.append((graph, cost, amount, flow))
            return flow

        with mock.patch.object(opt_offline, "solve_unit_flow", spy):
            sol = solve()
        (graph, cost, amount, flow), = calls
        src, sink = graph.topo[0], graph.topo[-1]
        nx_graph = nx.MultiDiGraph()
        nx_graph.add_nodes_from(range(graph.n_nodes))
        for a, (u, v) in enumerate(zip(graph.tails, graph.heads)):
            nx_graph.add_edge(u, v, capacity=graph.capacity[a], weight=cost[a])
        nx_graph.nodes[src]["demand"] = -amount
        nx_graph.nodes[sink]["demand"] = amount
        nx_cost, _ = nx.network_simplex(nx_graph)

        net = [0] * graph.n_nodes
        for a, f in enumerate(flow):
            assert 0 <= f <= graph.capacity[a]
            net[graph.tails[a]] -= f
            net[graph.heads[a]] += f
        expected = [0] * graph.n_nodes
        expected[src], expected[sink] = -amount, amount
        assert net == expected
        assert sum(c * f for c, f in zip(cost, flow)) == nx_cost
        return sol, nx_cost

    @given(
        config=st.sampled_from(["TOWER", "ROOF", "FLOOR", "WALK"]),
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=150),
        k=st.integers(min_value=1, max_value=12),
        band=st.sampled_from([0, 1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_paths(self, config, seed, length, k, band):
        cfg = make_config(config)
        r, s = generate_paths(cfg.r_model, cfg.s_model, length, 1, seed)[0]
        sol, nx_cost = self._solve_both(
            lambda: solve_opt_offline(r, s, k, band=band)
        )
        assert sol.total_benefit == -nx_cost

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=1, max_value=12),
        band=st.sampled_from([0, 1]),
    )
    @settings(max_examples=25, deadline=None)
    def test_chain3_streams(self, seed, length, k, band):
        cfg = make_multi_config("CHAIN3")
        streams = generate_multi_join_stream(cfg.models, length, seed)
        sol, nx_cost = self._solve_both(
            lambda: solve_opt_offline_multi(streams, cfg.queries, k, band)
        )
        assert sol.total_benefit == -nx_cost
