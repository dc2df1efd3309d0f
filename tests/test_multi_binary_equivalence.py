"""The multi-join simulator reduces to the binary one for two streams.

The binary join runs as the 2-stream multi-join on every tier, so these
suites also pin Section-7 windows and band joins on the shared step:
binary against 2-stream multi-join, and scalar against batch against
parallel against a 1-shard server, each returning one ``JoinRunResult``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp
from repro.experiments.configs import make_config, make_multi_config
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy
from repro.serve import StreamServer, run_replay
from repro.sim.engine import ExperimentSpec, ParallelEngine, spawn_rng
from repro.sim.join_sim import JoinSimulator
from repro.sim.multi_join import JoinRunResult, MultiJoinSimulator
from repro.sim.runner import generate_paths, run_experiment
from repro.policies.base import ReplacementPolicy, ScoredPolicy
from repro.streams import StationaryStream, from_mapping


class KeepLargestValueBinary(ScoredPolicy):
    name = "KEEP-LARGEST"

    def score(self, tup, ctx):
        return float(tup.value)


class KeepLargestValueMulti(ReplacementPolicy):
    name = "KEEP-LARGEST"

    def select_victims(self, candidates, n_evict, ctx):
        if n_evict <= 0:
            return []
        return sorted(candidates, key=lambda t: (float(t.value), t.uid))[
            :n_evict
        ]


value_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=30,
)
windows = st.one_of(st.none(), st.integers(min_value=0, max_value=5))
bands = st.integers(min_value=0, max_value=2)


class TestTwoStreamEquivalence:
    @given(value_lists, value_lists, st.integers(1, 4), windows, bands)
    @settings(max_examples=50, deadline=None)
    def test_same_results_with_value_deterministic_policy(
        self, r, s, k, window, band
    ):
        """A value-deterministic policy produces identical result counts
        through both simulators when the multi-join runs the single query
        R⋈S, windowed and banded alike."""
        binary = JoinSimulator(
            k, KeepLargestValueBinary(), window=window, band=band
        ).run(r, s)
        multi = MultiJoinSimulator(
            k,
            KeepLargestValueMulti(),
            queries=[("R", "S")],
            window=window,
            band=band,
        ).run({"R": r, "S": s})
        assert multi.total_results == binary.total_results
        assert multi.per_query == {frozenset(("R", "S")): binary.total_results}
        assert list(multi.occupancy_by_stream["R"]) == list(binary.r_occupancy)

    def test_per_query_attribution_sums(self):
        rng = np.random.default_rng(0)
        streams = {
            name: list(rng.integers(0, 3, size=40)) for name in "ABC"
        }
        sim = MultiJoinSimulator(
            4, KeepLargestValueMulti(), queries=[("A", "B"), ("B", "C")]
        )
        result = sim.run(streams)
        assert sum(result.per_query.values()) == result.total_results


class _RecordingHeeb(HeebPolicy):
    """HEEB wrapper logging every eviction decision as (t, victim uids)."""

    def __init__(self, strategy, log):
        super().__init__(strategy)
        self.log = log

    def select_victims(self, candidates, n_evict, ctx):
        victims = super().select_victims(candidates, n_evict, ctx)
        if victims:
            self.log.append((ctx.time, tuple(v.uid for v in victims)))
        return victims


class TestUnifiedHeebDegeneracy:
    """The unified HeebPolicy is the binary policy on 1-partner contexts.

    Appendix C sums the binary benefit over partner streams; with one
    partner the sum has one term, so a 2-stream/1-query multi-join run
    must make byte-identical decisions to the binary simulator — same
    victims at the same steps, not merely the same counts.
    """

    @given(value_lists, value_lists, st.integers(1, 4), windows, bands)
    @settings(max_examples=25, deadline=None)
    def test_heeb_two_stream_decisions_byte_identical(
        self, r, s, k, window, band
    ):
        dist = from_mapping({v: 1.0 / 6 for v in range(6)})
        models = {"R": StationaryStream(dist), "S": StationaryStream(dist)}

        binary_log, multi_log = [], []
        binary = JoinSimulator(
            k,
            _RecordingHeeb(GenericJoinHeeb(LExp(4.0), horizon=20), binary_log),
            window=window,
            band=band,
            r_model=models["R"],
            s_model=models["S"],
        ).run(r, s)
        multi = MultiJoinSimulator(
            k,
            _RecordingHeeb(GenericJoinHeeb(LExp(4.0), horizon=20), multi_log),
            queries=[("R", "S")],
            window=window,
            band=band,
            models=models,
        ).run({"R": r, "S": s})

        assert multi.total_results == binary.total_results
        assert multi_log == binary_log


# ----------------------------------------------------------------------
# One join step on every tier: scalar, batch and 1-shard serve
# ----------------------------------------------------------------------
tick_lists = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    ),
    min_size=1,
    max_size=30,
)

#: Counters only the serve tier or the engines emit.
_DRIVER_KEYS = ("serve.", "trials.", "engine.")


def _step_counters(rec):
    return {
        key: value
        for key, value in rec.counters.items()
        if not key.startswith(_DRIVER_KEYS)
    }


def _serve_run(spec, factory, data, recorder):
    """One trial through a 1-shard server, as a ``JoinRunResult``.

    Ticks go through ``submit`` for a ``"join"`` spec and
    ``submit_multi`` otherwise; the shard's per-stream counts are read
    after each tick drains, which is the simulator's occupancy series.
    """
    streams = spec.trial_streams(data)
    names = spec.names
    n = min(len(values) for values in streams.values())
    occupancy = {name: [] for name in names}

    async def serve():
        server = StreamServer(spec, factory, recorder=recorder)
        await server.start()
        cache = server.shards[0].state.cache
        for t in range(n):
            if spec.kind == "join":
                await server.submit(t, streams["R"][t], streams["S"][t])
            else:
                await server.submit_multi(
                    t, {name: streams[name][t] for name in names}
                )
            await server.drain()
            for name in names:
                occupancy[name].append(cache.count_side(name))
        await server.stop()
        return server

    server = asyncio.run(asyncio.wait_for(serve(), timeout=60))
    return JoinRunResult(
        total_results=server.total_results,
        results_after_warmup=server.total_results,
        steps=n,
        warmup=0,
        cache_size=spec.cache_size,
        per_query=server.per_query_results(),
        occupancy_by_stream={
            name: np.array(counts, dtype=np.int64)
            for name, counts in occupancy.items()
        },
    )


def _tiers(spec, factory, data):
    """One trial's ``JoinRunResult`` and step counters on scalar, batch,
    parallel and 1-shard serve."""
    out = {}
    for engine in ("scalar", "batch"):
        rec = CounterRecorder()
        result = run_experiment(
            spec, factory, [data], engine=engine, recorder=rec
        )
        assert result.engine_used == engine
        out[engine] = (result.per_run[0], _step_counters(rec))
    # Two trials, so one runs in a forked child and one in the caller.
    rec = CounterRecorder()
    got = ParallelEngine(max_workers=2).run(
        spec, factory, [data, data], recorder=rec
    )
    assert got.per_run[0].total_results == got.per_run[1].total_results
    halved = {key: value // 2 for key, value in _step_counters(rec).items()}
    out["parallel"] = (got.per_run[1], halved)
    rec = CounterRecorder()
    out["serve"] = (_serve_run(spec, factory, data, rec), _step_counters(rec))
    return out


def _assert_same_run(got, want, label):
    """The whole ``JoinRunResult`` agrees, derived occupancy included."""
    assert got.total_results == want.total_results, label
    assert got.results_after_warmup == want.results_after_warmup, label
    assert (got.steps, got.warmup, got.cache_size) == (
        want.steps,
        want.warmup,
        want.cache_size,
    ), label
    assert got.per_query == want.per_query, label
    assert list(got.occupancy_by_stream) == list(want.occupancy_by_stream)
    for name, occupancy in want.occupancy_by_stream.items():
        np.testing.assert_array_equal(
            got.occupancy_by_stream[name], occupancy, err_msg=label
        )
    np.testing.assert_array_equal(got.occupancy, want.occupancy, err_msg=label)
    if "R" in want.occupancy_by_stream:
        np.testing.assert_array_equal(got.r_occupancy, want.r_occupancy)
        np.testing.assert_array_equal(got.r_fraction, want.r_fraction)


class TestSharedStepOnEveryTier:
    """The binary join and the 2-stream multi-join are one step on every
    tier, windows and bands included, and every tier returns the same
    ``JoinRunResult``."""

    @given(tick_lists, st.integers(1, 4), windows, bands)
    @settings(max_examples=25, deadline=None)
    def test_join_and_multi_join_agree_across_tiers(
        self, ticks, k, window, band
    ):
        r = [a for a, _ in ticks]
        s = [b for _, b in ticks]
        factory = lambda: make_policy("lru")  # noqa: E731
        join = ExperimentSpec(kind="join", cache_size=k, window=window, band=band)
        multi = ExperimentSpec(
            kind="multi_join",
            cache_size=k,
            window=window,
            band=band,
            queries=(("R", "S"),),
        )
        chain3 = ExperimentSpec(
            kind="multi_join",
            cache_size=k,
            window=window,
            band=band,
            queries=tuple(make_multi_config("CHAIN3").queries),
        )
        join_tiers = _tiers(join, factory, (r, s))
        multi_tiers = _tiers(multi, factory, {"R": r, "S": s})
        chain_tiers = _tiers(chain3, factory, {"A": r, "B": s, "C": r[::-1]})
        expected = JoinSimulator(
            k, make_policy("lru"), window=window, band=band
        ).run(r, s)
        for tier in ("scalar", "batch", "parallel", "serve"):
            _assert_same_run(join_tiers[tier][0], expected, tier)
            _assert_same_run(multi_tiers[tier][0], expected, tier)
            _assert_same_run(chain_tiers[tier][0], chain_tiers["scalar"][0], tier)
            assert join_tiers[tier][1] == join_tiers["scalar"][1], tier
            assert multi_tiers[tier][1] == multi_tiers["scalar"][1], tier
            assert chain_tiers[tier][1] == chain_tiers["scalar"][1], tier
        assert join_tiers["scalar"][1] == multi_tiers["scalar"][1]

    def test_floor_occupancy_pin(self):
        """Pinned occupancy series of a seeded FLOOR HEEB run: the R
        and total series Figures 14, 17 and 18 read, on the scalar and
        batch tiers."""
        config = make_config("FLOOR")
        (paths,) = generate_paths(config.r_model, config.s_model, 40, 1, seed=7)
        spec = ExperimentSpec(
            kind="join",
            cache_size=6,
            r_model=config.r_model,
            s_model=config.s_model,
        )
        r_occupancy = [
            1, 2, 3, 3, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 2,
            1, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 1, 1, 0, 0, 0, 0, 0,
        ]
        occupancy = [2, 4] + [6] * 38
        for engine in ("scalar", "batch"):
            result = run_experiment(
                spec, lambda: config.make_heeb(6), [paths], engine=engine
            )
            assert result.engine_used == engine
            run = result.per_run[0]
            assert run.total_results == 10
            assert run.r_occupancy.tolist() == r_occupancy
            assert run.occupancy.tolist() == occupancy

    def test_windowed_banded_multi_join_on_parallel_tier(self):
        rng = np.random.default_rng(5)
        trials = [
            [int(v) for v in rng.integers(0, 6, size=60)] for _ in range(4)
        ]
        paths = [(trials[i], trials[(i + 1) % 4]) for i in range(4)]
        factory = lambda: make_policy("lru")  # noqa: E731
        join = ExperimentSpec(kind="join", cache_size=4, window=2, band=1)
        multi = ExperimentSpec(
            kind="multi_join",
            cache_size=4,
            window=2,
            band=1,
            queries=(("R", "S"),),
        )
        engine = ParallelEngine(max_workers=2)
        expected = [
            run.total_results
            for run in run_experiment(join, factory, paths).per_run
        ]
        got = engine.run(multi, factory, [{"R": r, "S": s} for r, s in paths])
        assert [run.total_results for run in got.per_run] == expected


class TestWindowedChain3:
    """A windowed CHAIN3 topology: scalar, batch and a 1-shard server
    agree on totals, per-query counts and counters."""

    @pytest.mark.parametrize("policy_name", ["lru", "heeb"])
    def test_tiers_agree(self, policy_name):
        config = make_multi_config("CHAIN3")
        rng = spawn_rng(3, 0)
        streams = {
            name: model.sample_path(120, rng)
            for name, model in config.models.items()
        }
        for t in range(0, 120, 7):
            streams["B"][t] = None
        spec = ExperimentSpec(
            kind="multi_join",
            cache_size=16,
            window=3,
            queries=tuple(tuple(q) for q in config.queries),
            models=config.models,
        )
        if policy_name == "heeb":
            alpha = config.heeb_alpha_for(spec.cache_size)
            factory = lambda: HeebPolicy(GenericJoinHeeb(LExp(alpha)))  # noqa: E731
        else:
            factory = lambda: make_policy("lru")  # noqa: E731

        runs, counters = {}, {}
        for engine in ("scalar", "batch"):
            rec = CounterRecorder()
            result = run_experiment(
                spec, factory, [streams], engine=engine, recorder=rec
            )
            assert result.engine_used == engine
            runs[engine] = result.per_run[0]
            counters[engine] = _step_counters(rec)
        rec = CounterRecorder()

        async def serve():
            server = StreamServer(spec, factory, recorder=rec)
            await server.start()
            for t in range(120):
                await server.submit_multi(
                    t, {name: vals[t] for name, vals in streams.items()}
                )
            await server.stop()
            return server.total_results, server.per_query_results()

        served_total, served_per_query = asyncio.run(
            asyncio.wait_for(serve(), timeout=60)
        )
        counters["serve"] = _step_counters(rec)

        scalar = runs["scalar"]
        assert counters["scalar"].get("evict.window_expired", 0) > 0
        assert runs["batch"].total_results == scalar.total_results
        assert runs["batch"].per_query == scalar.per_query
        assert served_total == scalar.total_results
        assert served_per_query == scalar.per_query
        assert counters["batch"] == counters["scalar"]
        assert counters["serve"] == counters["scalar"]
        unwindowed = MultiJoinSimulator(
            16, factory(), config.queries, models=config.models
        ).run(streams)
        assert unwindowed.total_results != scalar.total_results
