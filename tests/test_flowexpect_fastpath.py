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
from repro.experiments.configs import make_config
from repro.flow import (
    FlowExpectFastPath,
    LookaheadTemplate,
    ProbTable,
    expected_match_prob,
    flowexpect_decide,
    flowexpect_decide_fast,
    solve_leave_slots,
    solve_unit_flow,
    unit_flow_costs,
)
from repro.flow import prob_table
from repro.obs import CounterRecorder
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.sim.join_sim import JoinSimulator
from repro.streams import (
    AR1Stream,
    LinearTrendStream,
    RandomWalkStream,
    StationaryStream,
    TabularStream,
    make_stream,
)
from repro.streams.base import History
from repro.streams.noise import (
    bounded_normal,
    bounded_uniform,
    discretized_normal,
    from_mapping,
)


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


# ----------------------------------------------------------------------
# Leave-slot assignment: same optimum as the unit-flow solver
# ----------------------------------------------------------------------
def _check_against_unit_flow(benefit, lookahead, amount, ranks):
    """Solve both ways on the same integer costs; return the assignment."""
    n = len(ranks)
    sol = solve_leave_slots(benefit, lookahead, amount, ranks)
    template = LookaheadTemplate(n, lookahead)
    cost = unit_flow_costs(template, benefit, ranks)
    used = solve_unit_flow(template, cost, amount)

    # A valid schedule: n − amount leave at slice 0, two at each later
    # slice, nobody before its birth, and ``amount`` stay to the end.
    born = template.born
    assert all(d >= b for d, b in zip(sol.leave, born))
    leaving = [sol.leave.count(d) for d in range(lookahead + 1)]
    assert leaving == [n - amount] + [2] * (lookahead - 1) + [amount]

    assert sol.kept == [used[a] for a in template.src_arcs]
    # Integer objective of the schedule, read as a flow: the costed arcs
    # of the held cells plus the kept candidates' source arcs.
    schedule_cost = sum(
        cost[a] for a, e, dt in template.costed if dt - 1 < sol.leave[e]
    )
    schedule_cost += sum(
        cost[template.src_arcs[p]] for p in range(n) if sol.kept[p]
    )
    assert schedule_cost == sum(c for c, u in zip(cost, used) if u)
    flow_benefit = sum(
        benefit[e][dt - 1] for a, e, dt in template.costed if used[a]
    )
    assert sol.expected_benefit == pytest.approx(
        flow_benefit, rel=1e-9, abs=1e-12
    )
    return sol


def _benefit_rows(rng, n, lookahead):
    """Random benefit rows with ties, zero before each entity's birth."""

    def cell():
        if rng.random() < 0.5:
            return float(rng.choice([0.0, 0.25, 0.5]))
        return rng.random()

    born = LookaheadTemplate(n, lookahead).born
    return [[0.0 if s < b else cell() for s in range(lookahead)] for b in born]


@st.composite
def _slot_problems(draw):
    """Random benefits with forced zeros and ties, scaled across the guard."""
    n = draw(st.integers(min_value=1, max_value=16))
    lookahead = draw(st.integers(min_value=1, max_value=10))
    amount = draw(st.integers(min_value=1, max_value=n))
    ranks = draw(st.permutations(range(n)))
    scale = draw(st.sampled_from([1.0, 1e4, 1e8]))
    palette = draw(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=3)
    )
    cell = st.one_of(
        st.just(0.0),
        st.sampled_from(palette),
        st.floats(min_value=0, max_value=1),
    )
    benefit = []
    for b in LookaheadTemplate(n, lookahead).born:
        alive = lookahead - b
        cells = draw(st.lists(cell, min_size=alive, max_size=alive))
        benefit.append([0.0] * b + [scale * v for v in cells])
    return benefit, lookahead, amount, ranks


class TestLeaveSlots:
    @settings(max_examples=80, deadline=None)
    @given(problem=_slot_problems())
    def test_matches_unit_flow(self, problem):
        _check_against_unit_flow(*problem)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_slice_zero_slots(self, seed):
        # n ≤ cache_size: every candidate is kept at slice 0.
        rng = np.random.default_rng(seed)
        n, lookahead = 5, 6
        sol = _check_against_unit_flow(
            _benefit_rows(rng, n, lookahead), lookahead, n, list(range(n))
        )
        assert sol.kept == [True] * n

    @pytest.mark.parametrize("amount", [1, 3, 6])
    def test_lookahead_one(self, amount):
        # No later slices: only the slice-0 slots exist.
        rng = np.random.default_rng(amount)
        n = 6
        ranks = [int(r) for r in rng.permutation(n)]
        sol = _check_against_unit_flow(
            _benefit_rows(rng, n, 1), 1, amount, ranks
        )
        assert sum(sol.kept) == amount

    def test_scaled_across_guard(self):
        # One problem at growing scale: exact in float64 at first, then
        # too large for it, where the unit-flow fallback must agree.
        rng = np.random.default_rng(7)
        n, lookahead, amount = 12, 8, 10
        benefit = _benefit_rows(rng, n, lookahead)
        ranks = [int(r) for r in rng.permutation(n)]
        flags = []
        for scale in (1.0, 1e2, 1e4, 1e6):
            scaled = [[scale * v for v in row] for row in benefit]
            sol = _check_against_unit_flow(scaled, lookahead, amount, ranks)
            flags.append(sol.fallback)
        assert flags[0] is False and flags[-1] is True

    def test_hand_checked_schedule(self):
        # Two candidates, one slot, look-ahead 2.  Keeping candidate 0
        # (0.3) and swapping it for the S newborn (0.9) earns 1.2; every
        # schedule keeping candidate 1 earns at most 0.1 + 0.9.
        benefit = [[0.3, 0.2], [0.1, 0.5], [0.0, 0.4], [0.0, 0.9]]
        sol = _check_against_unit_flow(benefit, 2, 1, [1, 0])
        assert sol.kept == [True, False]
        assert sol.leave == [1, 0, 1, 2]
        assert sol.expected_benefit == pytest.approx(1.2)

    @pytest.mark.parametrize(
        "rows, lookahead, amount",
        [(1, 1, 2), (2, 1, 1), (1, 0, 1)],
    )
    def test_rejects_malformed_problems(self, rows, lookahead, amount):
        with pytest.raises(ValueError):
            solve_leave_slots([[0.1]] * rows, lookahead, amount, [0])

    @pytest.mark.parametrize("n", [11, 12])
    def test_benchmark_shape_never_falls_back(self, n):
        # Cache 10 with one or two arrivals, look-ahead 8: any benefits
        # ≤ 1 fit float64.
        lookahead = 8
        born = LookaheadTemplate(n, lookahead).born
        ones = [[float(s >= b) for s in range(lookahead)] for b in born]
        sol = solve_leave_slots(ones, lookahead, 10, list(range(n)))
        assert sol.fallback is False


# ----------------------------------------------------------------------
# Simulator level: where the unit-flow fallback runs
# ----------------------------------------------------------------------
def _config_paths(config, length, seed):
    rng = np.random.default_rng(seed)
    r = config.r_model.sample_path(length, rng)
    s = config.s_model.sample_path(length, np.random.default_rng(seed + 1))
    return r, s


class TestFallbackCounter:
    def test_floor_benchmark_shape_has_no_fallbacks(self):
        # FLOOR at cache 10, look-ahead 8 — the benchmark workload.
        config = make_config("FLOOR")
        r, s = _config_paths(config, 120, 3)
        rec = CounterRecorder()
        policy = FlowExpectPolicy(8, config.r_model, config.s_model)
        JoinSimulator(10, policy, recorder=rec).run(r, s)
        assert rec.counters["flow.solves"] > 0
        assert rec.counters.get("flow.fallback_solves", 0) == 0

    def test_tower_cache_20_falls_back_every_solve(self):
        config = make_config("TOWER")
        r, s = _config_paths(config, 60, 4)
        runs = {}
        for fast in (True, False):
            rec = CounterRecorder()
            policy = _SpyFlowExpect(
                3, config.r_model, config.s_model, fast=fast
            )
            JoinSimulator(20, policy, recorder=rec).run(r, s)
            runs[fast] = (policy.decisions, rec.counters)
        (fast_decisions, counters), (ref_decisions, _) = runs[True], runs[False]
        assert counters["flow.solves"] > 0
        assert counters["flow.fallback_solves"] == counters["flow.solves"]
        assert fast_decisions == ref_decisions


# ----------------------------------------------------------------------
# Frame-keyed memo: rows equal fresh computations, decisions unchanged
# ----------------------------------------------------------------------
def _fresh_candidate_row(model, t0, lookahead, value):
    return tuple(model.prob(t, value) for t in range(t0 + 1, t0 + lookahead + 1))


def _fresh_newborn_rows(models, t0, lookahead):
    return tuple(
        (0.0,) * b
        + tuple(
            expected_match_prob(
                models[side], t0 + b, models[other], t0 + dt, None, None
            )
            for dt in range(b + 1, lookahead + 1)
        )
        for b in range(1, lookahead)
        for side, other in (("R", "S"), ("S", "R"))
    )


_NOISES = [
    bounded_uniform(2),
    bounded_normal(3, 1.0),
    from_mapping({-1: 0.2, 0: 0.5, 2: 0.3}),
]


@st.composite
def _framed_pairs(draw):
    """A framed model pair: trends at speed ½, 1 or 2, or stationary."""

    def model():
        noise = draw(st.sampled_from(_NOISES))
        if draw(st.booleans()):
            return LinearTrendStream(
                noise,
                speed=draw(st.sampled_from([0.5, 1.0, 2.0])),
                lag=draw(st.integers(min_value=-3, max_value=3)),
                intercept=draw(st.integers(min_value=-5, max_value=5)),
            )
        return StationaryStream(noise)

    return model(), model()


class TestFramedRows:
    @settings(max_examples=60, deadline=None)
    @given(
        pair=_framed_pairs(),
        start=st.integers(min_value=0, max_value=30),
        jumps=st.lists(
            st.integers(min_value=-3, max_value=5), min_size=1, max_size=8
        ),
        lookahead=st.integers(min_value=1, max_value=8),
        offsets=st.lists(
            st.one_of(st.none(), st.integers(min_value=-6, max_value=6)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_rows_equal_fresh_computation(
        self, pair, start, jumps, lookahead, offsets
    ):
        """One warm table across steps: every row read from the memo is
        ``==`` the row computed from the models at that step's times.
        Values sit at fixed offsets from each step's trend, so the same
        frame offsets recur under different shapes (speed ½) and
        different times."""
        models = {"R": pair[0], "S": pair[1]}
        table = ProbTable(pair[0], pair[1])
        assert table.framed
        times = [start]
        for jump in jumps:
            times.append(max(0, times[-1] + jump))
        for t0 in times:
            step = table.step(t0, lookahead)
            for side in "RS":
                c0 = models[side].frame(t0)
                for offset in offsets:
                    value = None if offset is None else c0 + offset
                    assert table.candidate_row(
                        step, side, value
                    ) == _fresh_candidate_row(
                        models[side], t0, lookahead, value
                    )
            assert table.newborn_rows(step) == _fresh_newborn_rows(
                models, t0, lookahead
            )

    def test_dash_candidate_row_is_zero(self):
        trend = LinearTrendStream(bounded_uniform(2), speed=2.0, lag=1)
        table = ProbTable(trend, trend)
        row = table.candidate_row(table.step(5, 4), "S", None)
        assert row == (0.0,) * 4

    def test_unit_speed_rows_shared_across_steps(self):
        # A unit-speed trend has one shape: a value keeping its offset
        # to the trend reads the same stored row at every step.
        config = make_config("FLOOR")
        table = ProbTable(config.r_model, config.s_model)
        first = table.step(10, 8)
        later = table.step(30, 8)
        assert first.frames["S"][1] == later.frames["S"][1]
        row = table.candidate_row(first, "S", config.s_model.trend(10) + 1)
        again = table.candidate_row(later, "S", config.s_model.trend(30) + 1)
        assert again is row
        assert table.newborn_rows(later) is table.newborn_rows(first)


    def test_entry_valve_covers_row_memos(self, monkeypatch):
        monkeypatch.setattr(prob_table, "MAX_ENTRIES", 8)
        config = make_config("ROOF")
        models = {"R": config.r_model, "S": config.s_model}
        table = ProbTable(config.r_model, config.s_model)
        memos = (
            table._prob,
            table._support,
            table._emp,
            table._rows,
            table._blocks,
        )
        for t0 in range(0, 40, 3):
            step = table.step(t0, 4)
            for value in range(t0 - 6, t0 + 6):
                assert table.candidate_row(
                    step, "S", value
                ) == _fresh_candidate_row(models["S"], t0, 4, value)
                assert sum(map(len, memos)) <= 9
            assert table.newborn_rows(step) == _fresh_newborn_rows(
                models, t0, 4
            )


class TestTimeKeyedModels:
    @pytest.mark.parametrize(
        "model",
        [
            RandomWalkStream(discretized_normal(1.0), drift=0, start=0),
            AR1Stream(phi0=1.0, phi1=0.5, sigma=1.0),
            TabularStream([[(1, 0.5), (2, 0.25)], [], [(2, 1.0)]] * 3),
        ],
        ids=["random-walk", "ar1", "tabular"],
    )
    def test_no_frame_takes_time_keyed_path(self, model):
        assert all(model.frame(t) is None for t in range(5))
        table = ProbTable(model, model)
        assert not table.framed
        step = table.step(2, 3)
        assert step.frames is None
        assert table.candidate_row(step, "R", 2) == _fresh_candidate_row(
            model, 2, 3, 2
        )
        assert table.newborn_rows(step) == _fresh_newborn_rows(
            {"R": model, "S": model}, 2, 3
        )

    def test_mixed_pair_is_time_keyed(self):
        # Row keys need both sides' frames; one unframed side keys all.
        trend = make_config("FLOOR").r_model
        walk = RandomWalkStream(discretized_normal(1.0))
        assert ProbTable(trend, walk).framed is False


class TestMemoCounters:
    def test_warm_decision_counts_one_hit_per_row(self):
        """A repeated framed decision: n candidate rows plus one newborn
        block, all hits, and no primitive lookups."""
        config = make_config("FLOOR")
        rec = CounterRecorder()
        engine = FlowExpectFastPath(config.r_model, config.s_model, rec)
        candidates = [StreamTuple(u, "RS"[u % 2], 20 + u, 19) for u in range(12)]
        engine.decide(candidates, 20, 8, 10)
        cold = dict(rec.counters)
        engine.decide(candidates, 20, 8, 10)
        assert rec.counters["prob_table.hits"] - cold["prob_table.hits"] == 13
        assert rec.counters["prob_table.misses"] == cold["prob_table.misses"]

    @pytest.mark.parametrize("config_name", ["FLOOR", "WALK"])
    def test_hit_rate_is_a_ratio(self, config_name):
        config = make_config(config_name)
        r, s = _config_paths(config, 80, 5)
        rec = CounterRecorder()
        policy = FlowExpectPolicy(4, config.r_model, config.s_model)
        JoinSimulator(4, policy, recorder=rec).run(r, s)
        series = rec.snapshot()["series"]["prob_table.hit_rate"]
        assert 0.0 <= series["min"] <= series["max"] <= 1.0
        counters = rec.counters
        assert counters["prob_table.hits"] + counters["prob_table.misses"] > 0


class TestFramedDecisions:
    @pytest.mark.parametrize(
        "config_name, cache_size, lookahead",
        [
            ("TOWER", 5, 4),
            ("ROOF", 10, 8),
            ("FLOOR", 10, 8),
            ("FLOOR", 5, 4),
            ("WALK", 5, 4),
        ],
    )
    def test_fast_equals_reference(self, config_name, cache_size, lookahead):
        config = make_config(config_name)
        r, s = _config_paths(config, 60, 11)
        runs = {}
        for fast in (True, False):
            policy = _SpyFlowExpect(
                lookahead, config.r_model, config.s_model, fast=fast
            )
            result = JoinSimulator(cache_size, policy).run(r, s)
            runs[fast] = (policy.decisions, result.total_results)
        assert runs[True] == runs[False]
        assert runs[True][0]

    def test_speed_two_trend(self):
        r_model = LinearTrendStream(bounded_uniform(4), speed=2.0, lag=1)
        s_model = LinearTrendStream(
            bounded_normal(4, 2.0), speed=2.0, intercept=3
        )
        rng = np.random.default_rng(3)
        r = r_model.sample_path(60, rng)
        s = s_model.sample_path(60, rng)
        runs = {}
        for fast in (True, False):
            policy = _SpyFlowExpect(5, r_model, s_model, fast=fast)
            result = JoinSimulator(6, policy).run(r, s)
            runs[fast] = (policy.decisions, result.total_results)
        assert runs[True] == runs[False]
        assert runs[True][0]
