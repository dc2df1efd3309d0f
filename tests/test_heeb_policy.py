"""Tests for HEEB strategies and the HEEB policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp, LFixed
from repro.core.tuples import StreamTuple
from repro.obs import CounterRecorder
from repro.policies.base import PolicyContext, ScoredPolicy
from repro.policies.heeb_policy import (
    AR1CacheHeeb,
    AR1JoinHeeb,
    BandJoinHeeb,
    GenericCacheHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
    WalkCacheHeeb,
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
        histories={"R": list(r_hist), "S": list(s_hist)},
        models={"R": r_model, "S": s_model},
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


#: ``suggested_horizon`` of the ``LExp(3.0)`` the windowed tests use.
_SUGGESTED = LExp(3.0).suggested_horizon(1e-12)


def _trend_pair(speed):
    return (
        LinearTrendStream(bounded_normal(5, 2.0), speed=speed, lag=1),
        LinearTrendStream(bounded_uniform(4), speed=speed),
    )


def _cell_queries(speed):
    """``(partner index, offset, remaining, t)`` lists: the clipped
    horizon spans ``0..suggested`` (small ones drawn often, so cells
    repeat), the offset from the partner trend spans 3 below to 3 above
    the columns where that horizon's sum can be nonzero, and ``t``
    moves in any direction."""
    partners = _trend_pair(speed)

    @st.composite
    def query(draw):
        index = draw(st.sampled_from([0, 1]))
        noise = partners[index].noise
        remaining = draw(
            st.one_of(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=_SUGGESTED + 3),
            )
        )
        horizon = min(remaining, _SUGGESTED)
        offset = draw(
            st.integers(
                min_value=noise.min_value + 1 - 3,
                max_value=noise.max_value + horizon + 3,
            )
        )
        t = draw(st.integers(min_value=0, max_value=40))
        return index, offset, remaining, t

    return st.lists(query(), min_size=10, max_size=60)


class TestWindowedMemoExact:
    # Integer speeds keep the trend offset translation-invariant; 0.5
    # does not (rounding), so it must bypass the memo.
    @pytest.mark.parametrize("speed", [1.0, 2.0, 0.5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_trend_table_matches_direct_sum(self, speed, data):
        """After any query sequence, ``windowed_h`` is a fresh
        strategy's direct sum to the clipped horizon, bit for bit."""
        partners = _trend_pair(speed)
        warm = TrendJoinHeeb(LExp(3.0))
        for index, offset, remaining, t in data.draw(_cell_queries(speed)):
            partner = partners[index]
            value = partner.trend(t) + offset
            expected = TrendJoinHeeb(LExp(3.0))._direct_sum(
                partner, value, t, min(remaining, _SUGGESTED)
            )
            got = warm.windowed_h(partner, value, remaining, t)
            assert got == expected, (index, offset, remaining, t)
            assert type(got) is float

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
            histories={"R": [model.to_bucket(center)] * 4},
            models={"R": model},
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
            histories={"R": [1, 2, 1]},
            models={"R": stationary_stream},
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


# ----------------------------------------------------------------------
# Block scoring: h_values / scores against the per-tuple reference
# ----------------------------------------------------------------------
_WALK = RandomWalkStream(discretized_normal(1.0))
_AR1 = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
_STATIONARY = StationaryStream(bounded_uniform(4))
_TREND_R = LinearTrendStream(bounded_normal(5, 2.0), speed=1.0, lag=1)
_TREND_S = LinearTrendStream(bounded_uniform(4), speed=1.0)
_T0 = 12


def _ar1_grids():
    center = _AR1.stationary_mean
    v_grid = np.linspace(center - 6, center + 6, 5).round().astype(int)
    return v_grid, np.linspace(center - 6, center + 6, 5)


@pytest.fixture(scope="module")
def ar1_surfaces():
    from repro.core.precompute import ar1_h2_cache, ar1_h2_join

    return {
        "cache": ar1_h2_cache(_AR1, LExp(ALPHA), *_ar1_grids(), exact_steps=30),
        "join": ar1_h2_join(_AR1, LExp(ALPHA), *_ar1_grids(), horizon=40),
    }


def _walk_cache_table():
    from repro.core.precompute import random_walk_h1_cache

    return random_walk_h1_cache(_WALK, LExp(ALPHA), horizon=40, max_offset=8)


# name -> (kind, strategy builder taking the AR(1) surfaces, r model,
# s model); candidate values are drawn near the partner's latest value.
_BLOCK_CASES = {
    "GenericJoinHeeb": (
        "join", lambda s: GenericJoinHeeb(LExp(ALPHA), horizon=30),
        _STATIONARY, _STATIONARY,
    ),
    "GenericCacheHeeb": (
        "cache", lambda s: GenericCacheHeeb(LExp(ALPHA), horizon=30),
        _STATIONARY, None,
    ),
    "TrendJoinHeeb": (
        "join", lambda s: TrendJoinHeeb(LExp(ALPHA)), _TREND_R, _TREND_S,
    ),
    "WalkJoinHeeb": (
        "join", lambda s: WalkJoinHeeb(LExp(ALPHA), horizon=40), _WALK, _WALK,
    ),
    "WalkCacheHeeb": (
        "cache", lambda s: WalkCacheHeeb(_walk_cache_table()), _WALK, None,
    ),
    "AR1CacheHeeb": (
        "cache", lambda s: AR1CacheHeeb(_AR1, s["cache"]), _AR1, None,
    ),
    "AR1JoinHeeb": (
        "join", lambda s: AR1JoinHeeb(_AR1, s["join"]), _AR1, _AR1,
    ),
    "BandJoinHeeb": (
        "join", lambda s: BandJoinHeeb(1, LExp(ALPHA), horizon=30),
        _STATIONARY, _STATIONARY,
    ),
}

#: Strategies that score against the latest observation and so have no
#: score (0.0) before one exists.
_ANCHORED = {"WalkJoinHeeb", "WalkCacheHeeb", "AR1CacheHeeb", "AR1JoinHeeb"}


def _block_ctx(name, with_history):
    kind, _, r_model, s_model = _BLOCK_CASES[name]
    if with_history:
        r_hist = [(t % 5) + 3 for t in range(_T0 + 1)]
        s_hist = [(t % 3) + 4 for t in range(_T0 + 1)]
        if isinstance(r_model, LinearTrendStream):
            r_hist, s_hist = list(range(_T0 + 1)), list(range(_T0 + 1))
    else:
        r_hist = s_hist = [None] * (_T0 + 1)
    return PolicyContext(
        kind=kind,
        time=_T0,
        cache_size=5,
        histories={"R": r_hist, "S": s_hist if kind == "join" else []},
        models={"R": r_model, "S": s_model},
    )


def _block_candidates(kind, values):
    """Both sides (joins), new arrivals and older tuples, uids shuffled."""
    sides = ("R", "S") if kind == "join" else ("S",)
    pairs = [(side, int(v)) for v in values for side in sides]
    uids = np.random.default_rng(5).permutation(len(pairs))
    return [
        StreamTuple(int(uid), side, v, _T0 - (i % 4))
        for i, ((side, v), uid) in enumerate(zip(pairs, uids))
    ]


def _build(name, surfaces):
    return _BLOCK_CASES[name][1](surfaces)


class TestBlockScoring:
    def test_every_strategy_has_a_case(self):
        import inspect

        from repro.policies import heeb_policy

        strategies = {
            name
            for name in heeb_policy.__all__
            if inspect.isclass(obj := getattr(heeb_policy, name))
            and issubclass(obj, heeb_policy.HeebStrategy)
            and not inspect.isabstract(obj)
        }
        assert strategies == set(_BLOCK_CASES)

    @pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
    @pytest.mark.parametrize("with_history", [True, False])
    def test_block_equals_per_tuple(self, name, with_history, ar1_surfaces):
        strategy = _build(name, ar1_surfaces)
        ctx = _block_ctx(name, with_history)
        strategy.reset(ctx)
        center = _T0 - 4 if name == "TrendJoinHeeb" else 4
        cands = _block_candidates(ctx.kind, range(center - 5, center + 6))
        block = strategy.h_values(cands, ctx)
        assert block == [strategy.h_value(tup, ctx) for tup in cands]
        assert all(type(h) is float for h in block)
        if not with_history and name in _ANCHORED:
            assert block == [0.0] * len(cands)
        assert strategy.h_values([], ctx) == []

    @pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
    def test_out_of_domain_values_match_per_tuple(self, name, ar1_surfaces):
        strategy = _build(name, ar1_surfaces)
        ctx = _block_ctx(name, True)
        strategy.reset(ctx)
        cands = _block_candidates(ctx.kind, [-500, 4, 500])
        block = strategy.h_values(cands, ctx)
        assert block == [strategy.h_value(tup, ctx) for tup in cands]

    @pytest.mark.parametrize("window", [0, 1, 3, 400])
    @pytest.mark.parametrize("speed", [1.0, 2.0, 0.5])
    def test_windowed_trend_block_equals_per_tuple(self, window, speed):
        """Windowed blocks, including tuples whose clipped horizon
        exceeds the window (arrival after ``t``) and values far outside
        the partner windows, score as per tuple and as a fresh
        strategy."""
        r_model, s_model = _trend_pair(speed)
        ctx = PolicyContext(
            kind="join",
            time=_T0,
            cache_size=5,
            histories={"R": [], "S": []},
            models={"R": r_model, "S": s_model},
            window=window,
        )
        strategy = TrendJoinHeeb(LExp(ALPHA))
        strategy.reset(ctx)
        center = s_model.trend(_T0)
        cands = _block_candidates("join", range(center - 14, center + 14))
        cands += [
            StreamTuple(900, "R", center, _T0 + 3),
            StreamTuple(901, "S", center - 500, _T0),
            StreamTuple(902, "R", center + 500, _T0 - 1),
        ]
        block = strategy.h_values(cands, ctx)
        assert block == [strategy.h_value(tup, ctx) for tup in cands]
        fresh = TrendJoinHeeb(LExp(ALPHA))
        assert block == [fresh.h_value(tup, ctx) for tup in cands]
        assert all(type(h) is float for h in block)
        # A window of 0 leaves no survival to tuples that arrived by t.
        assert any(h > 0.0 for h in block[:-3]) == (window > 0)

    def test_surface_clamps_out_of_domain_values(self, ar1_surfaces):
        strategy = _build("AR1CacheHeeb", ar1_surfaces)
        ctx = _block_ctx("AR1CacheHeeb", True)
        v_grid = strategy.surface.v_grid
        far = _block_candidates(ctx.kind, [-500, 500])
        edge = _block_candidates(ctx.kind, [v_grid[0], v_grid[-1]])
        assert strategy.h_values(far, ctx) == strategy.h_values(edge, ctx)


# ----------------------------------------------------------------------
# REAL caching (Section 6.5) through the block-scoring path
# ----------------------------------------------------------------------
REAL_MEMORY = 20


@pytest.fixture(scope="module")
def real_setup():
    """A seeded Melbourne-like reference trace, its fitted AR(1) and the
    5×5 caching ``h2`` surface over the observed range."""
    from repro.analysis.fitting import fit_ar1
    from repro.core.precompute import ar1_h2_cache
    from repro.streams.melbourne import melbourne_like_temperatures

    temps = melbourne_like_temperatures(400, np.random.default_rng(3))
    fit = fit_ar1(temps)
    model = AR1Stream(fit.phi0, fit.phi1, fit.sigma, bucket=0.1)
    refs = [model.to_bucket(x) for x in temps]
    lo, hi = min(refs), max(refs)
    surface = ar1_h2_cache(
        model,
        LExp(float(REAL_MEMORY)),
        np.linspace(lo, hi, 5).round().astype(int),
        np.linspace(lo * model.bucket, hi * model.bucket, 5),
        exact_steps=30,
    )
    return model, surface, refs


class _LoggedHeeb(HeebPolicy):
    """HEEB that logs every selection: ``(t, n_evict, candidate count,
    victim uids)``."""

    def __init__(self, strategy):
        super().__init__(strategy)
        self.log = []

    def select_victims(self, candidates, n_evict, ctx):
        victims = super().select_victims(candidates, n_evict, ctx)
        self.log.append(
            (ctx.time, n_evict, len(candidates), [v.uid for v in victims])
        )
        return victims


class _PerTupleHeeb(_LoggedHeeb):
    """The same policy forced onto the per-tuple ``score`` loop."""

    scores = ScoredPolicy.scores


class _SeriesLog(CounterRecorder):
    """A counter recorder that also keeps every series point verbatim."""

    def __init__(self):
        super().__init__()
        self.points = []

    def series(self, name, t, value):
        self.points.append((name, t, value))
        super().series(name, t, value)


class TestRealCachingBlockScores:
    def _run(self, policy_cls, real_setup, admission=None):
        model, surface, refs = real_setup
        policy = policy_cls(AR1CacheHeeb(model, surface))
        if admission is not None:
            policy.with_admission(admission)
        rec = _SeriesLog()
        result = CacheSimulator(
            REAL_MEMORY, policy, reference_model=model, recorder=rec
        ).run(refs)
        return policy, rec, result

    @pytest.mark.parametrize("with_admission", [False, True])
    def test_block_path_matches_per_tuple_loop(self, real_setup, with_admission):
        """Same victims, rejects and cutoff series as the per-tuple loop."""
        from repro.sketch import AdmissionFilter

        runs = []
        for policy_cls in (_LoggedHeeb, _PerTupleHeeb):
            admission = AdmissionFilter() if with_admission else None
            policy, rec, result = self._run(policy_cls, real_setup, admission)
            rejects = admission.rejects if admission is not None else None
            runs.append((policy.log, rejects, rec.points, result.hits))
        assert runs[0] == runs[1]
        log, rejects, points, _ = runs[0]
        assert any(n_evict > 0 for _, n_evict, _, _ in log)
        assert any(name == "scores.cutoff" for name, _, _ in points)
        if with_admission:
            assert rejects > 0

    def test_one_spline_call_per_evicting_selection(self, real_setup, monkeypatch):
        """The block path's cost contract as a count, not a timing floor:
        one spline evaluation per eviction decision, however many
        candidates it ranks."""
        model, surface, refs = real_setup
        calls = 0
        ev = surface._spline.ev

        def counting_ev(*args, **kwargs):
            nonlocal calls
            calls += 1
            return ev(*args, **kwargs)

        monkeypatch.setattr(surface._spline, "ev", counting_ev)
        policy = _LoggedHeeb(AR1CacheHeeb(model, surface))
        CacheSimulator(REAL_MEMORY, policy, reference_model=model).run(refs)
        evicting = [entry for entry in policy.log if entry[1] > 0]
        assert len(evicting) > 0
        assert calls == len(evicting)
        assert sum(n_cands for _, _, n_cands, _ in evicting) > REAL_MEMORY * calls
