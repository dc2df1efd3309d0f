"""FlowExpect fast path: decision-identical to the reference pipeline.

The fast path (:mod:`repro.flow.fastpath`) replaces three layers of the
reference decide — per-step networkx graph construction, the scaled
integer copy, and ``network_simplex`` — with a reusable arc template, a
memoized :class:`~repro.flow.prob_table.ProbTable`, and a direct
successive-shortest-paths solver.  Because both paths round costs with
the same expression and apply the same uid-rank tie-break (which makes
the optimal kept-set *unique*), they must return byte-identical
kept/victim splits on every input, not merely equally-good ones.  These
tests pin that equivalence three ways: property-based on random single
decisions, seed-for-seed at the simulator level across stream families,
and on deliberately tie-heavy constructions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import StreamTuple
from repro.flow import (
    FlowExpectFastPath,
    LookaheadTemplate,
    flowexpect_decide,
    flowexpect_decide_fast,
    solve_unit_flow,
)
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.sim.join_sim import JoinSimulator
from repro.streams import make_stream
from repro.streams.base import History
from repro.streams.noise import discretized_normal, from_mapping


def _uids(tuples):
    return [t.uid for t in tuples]


def _assert_same_decision(fast, ref):
    assert _uids(fast.kept) == _uids(ref.kept)
    assert _uids(fast.victims) == _uids(ref.victims)
    assert fast.expected_benefit == pytest.approx(
        ref.expected_benefit, rel=1e-9, abs=1e-9
    )


# ----------------------------------------------------------------------
# Property-based: random single decisions
# ----------------------------------------------------------------------
@st.composite
def _decision_cases(draw):
    """One random FlowExpect step: model pair, candidates, parameters."""
    markov = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=6))
    lookahead = draw(st.integers(min_value=1, max_value=10))
    cache_size = draw(st.integers(min_value=1, max_value=6))
    t0 = draw(st.integers(min_value=0, max_value=15))

    if markov:
        r_model = make_stream("random-walk", step=discretized_normal(1.0))
        s_model = make_stream("random-walk", step=discretized_normal(1.5))
        values = st.integers(min_value=-3, max_value=3)
        histories = st.one_of(
            st.none(),
            st.builds(
                History,
                now=st.just(t0),
                last_value=st.integers(min_value=-3, max_value=3),
            ),
        )
        r_history = draw(histories)
        s_history = draw(histories)
    else:
        support = draw(st.integers(min_value=2, max_value=5))
        weights = draw(
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=support,
                max_size=support,
            )
        )
        total = sum(weights)
        pmf = {v: w / total for v, w in enumerate(weights)}
        r_model = make_stream("stationary", dist=from_mapping(pmf))
        s_model = make_stream("stationary", dist=from_mapping(pmf))
        values = st.integers(min_value=0, max_value=support - 1)
        r_history = s_history = None

    sides = draw(
        st.lists(st.sampled_from("RS"), min_size=n, max_size=n)
    )
    vals = draw(st.lists(values, min_size=n, max_size=n))
    arrivals = draw(
        st.lists(
            st.integers(min_value=0, max_value=t0), min_size=n, max_size=n
        )
    )
    candidates = [
        StreamTuple(uid, side, value, arrival)
        for uid, (side, value, arrival) in enumerate(
            zip(sides, vals, arrivals)
        )
    ]
    return (
        candidates,
        t0,
        lookahead,
        cache_size,
        r_model,
        s_model,
        r_history,
        s_history,
    )


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(case=_decision_cases())
    def test_fast_matches_reference(self, case):
        fast = flowexpect_decide_fast(*case)
        ref = flowexpect_decide(*case)
        _assert_same_decision(fast, ref)

    @settings(max_examples=20, deadline=None)
    @given(case=_decision_cases(), reps=st.integers(min_value=2, max_value=4))
    def test_reused_engine_is_stateless_across_calls(self, case, reps):
        """Repeating the same decision through one FlowExpectFastPath —
        warm ProbTable, warm template — must not drift."""
        (candidates, t0, lookahead, cache_size,
         r_model, s_model, r_history, s_history) = case
        engine = FlowExpectFastPath(r_model, s_model)
        ref = flowexpect_decide(*case)
        for _ in range(reps):
            fast = engine.decide(
                candidates, t0, lookahead, cache_size, r_history, s_history
            )
            _assert_same_decision(fast, ref)


# ----------------------------------------------------------------------
# Simulator level: seed-for-seed across families, lookaheads, caches
# ----------------------------------------------------------------------
class _SpyFlowExpect(FlowExpectPolicy):
    """Records every (time, candidate-uids, victim-uids) decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions: list[tuple] = []

    def select_victims(self, candidates, n_evict, ctx):
        victims = super().select_victims(candidates, n_evict, ctx)
        self.decisions.append(
            (
                ctx.time,
                tuple(sorted(c.uid for c in candidates)),
                tuple(sorted(v.uid for v in victims)),
            )
        )
        return victims


def _family_models(family):
    if family == "stationary":
        pmf = from_mapping({1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1})
        return make_stream("stationary", dist=pmf), make_stream(
            "stationary", dist=pmf
        )
    if family == "random-walk":
        step = discretized_normal(1.0)
        return (
            make_stream("random-walk", step=step),
            make_stream("random-walk", step=step),
        )
    raise ValueError(family)


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("family", ["stationary", "random-walk"])
    @pytest.mark.parametrize("lookahead", [1, 4, 8])
    @pytest.mark.parametrize("cache_size", [2, 4])
    def test_seed_for_seed_identical_decisions(
        self, family, lookahead, cache_size
    ):
        r_model, s_model = _family_models(family)
        rng = np.random.default_rng(17 * lookahead + cache_size)
        r = r_model.sample_path(50, rng)
        s = s_model.sample_path(50, np.random.default_rng(rng.integers(1 << 30)))

        runs = {}
        for fast in (True, False):
            policy = _SpyFlowExpect(
                lookahead, r_model, s_model, fast=fast
            )
            result = JoinSimulator(cache_size, policy).run(r, s)
            runs[fast] = (result, policy.decisions)

        fast_result, fast_decisions = runs[True]
        ref_result, ref_decisions = runs[False]
        assert fast_decisions == ref_decisions
        assert fast_result.total_results == ref_result.total_results
        np.testing.assert_array_equal(
            fast_result.occupancy, ref_result.occupancy
        )

    def test_policy_flag_reaches_registry(self):
        from repro.policies import make_policy

        assert make_policy("flowexpect", lookahead=2)._fast is True
        assert (
            make_policy("flowexpect", lookahead=2, fast=False)._fast is False
        )


# ----------------------------------------------------------------------
# Ties: equal-cost kept-sets must resolve identically on both paths
# ----------------------------------------------------------------------
class TestTieBreaking:
    def _tied_candidates(self, uids):
        # Same side, same value, same arrival: every kept-set of the
        # right size has exactly the same float cost, so only the
        # tie-break perturbation decides who survives.
        return [StreamTuple(uid, "R", 1, 0) for uid in uids]

    @pytest.mark.parametrize("uids", [[0, 1, 2, 3], [9, 4, 11, 2, 7]])
    @pytest.mark.parametrize("cache_size", [1, 2, 3])
    def test_lowest_uids_survive_ties(self, uids, cache_size):
        pmf = from_mapping({1: 0.5, 2: 0.5})
        model = make_stream("stationary", dist=pmf)
        candidates = self._tied_candidates(uids)
        ref = flowexpect_decide(candidates, 0, 3, cache_size, model, model)
        fast = flowexpect_decide_fast(
            candidates, 0, 3, cache_size, model, model
        )
        want_kept = sorted(uids)[: min(cache_size, len(uids))]
        assert sorted(_uids(ref.kept)) == want_kept
        _assert_same_decision(fast, ref)

    def test_uniform_streams_full_run_identical(self):
        """A uniform stationary stream makes *every* step a tie."""
        pmf = from_mapping({v: 0.25 for v in range(4)})
        model = make_stream("stationary", dist=pmf)
        rng = np.random.default_rng(5)
        r = model.sample_path(40, rng)
        s = model.sample_path(40, np.random.default_rng(6))
        runs = {}
        for fast in (True, False):
            policy = _SpyFlowExpect(4, model, model, fast=fast)
            JoinSimulator(3, policy).run(r, s)
            runs[fast] = policy.decisions
        assert runs[True] == runs[False]


# ----------------------------------------------------------------------
# Template internals
# ----------------------------------------------------------------------
class TestTemplate:
    def test_counts_match_section_3_1(self):
        # l slices, n determined + 2(l-1) undetermined entities, plus
        # source and sink.
        n, look = 3, 5
        t = LookaheadTemplate(n, look)
        n_entities = n + 2 * (look - 1)
        assert t.n_nodes == 2 + sum(
            sum(1 for b in t.born if b <= s) for s in range(look)
        )
        assert len(t.born) == n_entities
        # Costed arcs: one horizontal arc per (entity alive before s, s)
        # plus one sink arc per entity.
        horizontals = sum(
            sum(1 for b in t.born if b < s) for s in range(1, look)
        )
        assert len(t.costed) == horizontals + n_entities

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            LookaheadTemplate(0, 3)
        with pytest.raises(ValueError):
            LookaheadTemplate(2, 0)

    def test_infeasible_amount_signals_failure(self):
        # src fans out one arc per candidate: n+1 units cannot fit.
        template = LookaheadTemplate(2, 3)
        cost = [-5] * len(template.tails)
        with pytest.raises(RuntimeError, match="cannot"):
            solve_unit_flow(template, cost, 3)

    def test_lookahead_one_is_pure_admission(self):
        # With l = 1 the graph is src → candidates → sink: FlowExpect
        # degenerates to keeping the cache_size best next-step matchers.
        pmf = from_mapping({1: 0.7, 2: 0.3})
        model = make_stream("stationary", dist=pmf)
        candidates = [
            StreamTuple(0, "R", 2, 0),
            StreamTuple(1, "R", 1, 0),
            StreamTuple(2, "R", 2, 0),
        ]
        fast = flowexpect_decide_fast(candidates, 0, 1, 1, model, model)
        ref = flowexpect_decide(candidates, 0, 1, 1, model, model)
        _assert_same_decision(fast, ref)
        assert _uids(fast.kept) == [1]  # value 1 matches with prob 0.7
