"""Per-step series telemetry: cross-engine parity and emitter coverage.

Pins the acceptance contract of the time-series layer:

* the batch engine's simulator series are **bit-identical** to the
  scalar engine's — full snapshot states including downsampling buffers
  and histograms — because batch replays its per-trial logs trial-major
  in the same order the scalar loop offered them;
* the parallel engine's merged series equal the scalar run's exactly:
  histogram state (bucket counts, count, sum, min, max) and therefore
  every quantile;
* infinite gauge values (LFD's ``-inf`` cutoffs) are counted, never
  turned into NaN;
* every documented emitter actually emits: simulators (occupancy,
  cumulative results/hits, hit rate), scored policies (score cutoff,
  mirrored bit-identically by the batch tier for every scored
  adapter), and the FlowExpect fast path (per-solve latency, memo hit
  rate — scalar-only, since batch shares one memo across trials);
* recorders merge exactly: counter and series points split across
  forked recorders and merged back equal the unsplit recorder's
  counters and every series' histogram, count and extremes, whether or
  not the split crosses a pending block's fold.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs import CounterRecorder, NullRecorder
from repro.obs.hist import FOLD_SIZE
from repro.policies import LruPolicy, make_policy
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.policies.lfd import LfdPolicy
from repro.sim.cache_sim import CacheSimulator
from repro.sim.engine import ExperimentSpec, ParallelEngine, ScalarEngine
from repro.sim.join_sim import JoinSimulator
from repro.sim.runner import (
    generate_paths,
    generate_reference_paths,
    run_experiment,
)
from repro.streams import RandomWalkStream, make_stream
from repro.streams.noise import bounded_uniform, discretized_normal

CACHE = 3

#: Series emitted by the join simulator itself (engine-independent).
JOIN_SIM_SERIES = {"cache.occupancy", "join.results.cum"}
#: Series emitted by the cache simulator itself.
CACHE_SIM_SERIES = {"cache.occupancy", "cache.hits.cum", "cache.hit_rate"}


def _join_spec_and_paths(n_runs=4, length=70, seed=11):
    step = discretized_normal(1.0)
    r_model = make_stream("random-walk", step=step)
    s_model = make_stream("random-walk", step=step)
    spec = ExperimentSpec(
        kind="join", cache_size=CACHE, r_model=r_model, s_model=s_model
    )
    return spec, generate_paths(r_model, s_model, length, n_runs, seed=seed)


def _cache_spec_and_paths(n_runs=4, length=80, seed=9):
    model = make_stream("random-walk", step=bounded_uniform(2))
    spec = ExperimentSpec(kind="cache", cache_size=CACHE, r_model=model)
    return spec, generate_reference_paths(model, length, n_runs, seed=seed)


def _series_snapshot(spec, paths, engine=None):
    rec = CounterRecorder()
    run_experiment(spec, lambda: LruPolicy(), paths, engine=engine, recorder=rec)
    return rec.snapshot().get("series", {})


class TestBatchSeriesParity:
    """Scalar and batch produce bit-identical simulator series."""

    def test_join_series_identical(self):
        spec, paths = _join_spec_and_paths()
        scalar = _series_snapshot(spec, paths)
        batch = _series_snapshot(spec, paths, engine="batch")
        assert JOIN_SIM_SERIES <= set(scalar)
        # The batch tier mirrors the simulator series AND the scored
        # policies' scores.cutoff (LRU is exactly scored), all
        # bit-identical; trace events remain scalar-only.
        assert set(batch) == JOIN_SIM_SERIES | {"scores.cutoff"}
        for name in sorted(set(batch)):
            assert scalar[name] == batch[name], name

    def test_cache_series_identical(self):
        spec, paths = _cache_spec_and_paths()
        scalar = _series_snapshot(spec, paths)
        batch = _series_snapshot(spec, paths, engine="batch")
        assert CACHE_SIM_SERIES <= set(scalar)
        for name in (*CACHE_SIM_SERIES, "scores.cutoff"):
            assert scalar[name] == batch[name], name

    def test_hit_rate_division_matches_scalar(self):
        # hit_rate is int/int in both tiers — the *same* operands, so
        # the float results are bit-equal, not merely close.
        spec, paths = _cache_spec_and_paths(n_runs=2, length=60, seed=3)
        scalar = _series_snapshot(spec, paths)
        batch = _series_snapshot(spec, paths, engine="batch")
        assert (
            scalar["cache.hit_rate"]["buffer"]["points"]
            == batch["cache.hit_rate"]["buffer"]["points"]
        )


class TestParallelSeriesMerge:
    """Worker histograms merge back exactly: state and quantiles."""

    def test_merged_aggregates_and_quantiles(self):
        spec, paths = _join_spec_and_paths()
        rec_scalar, rec_par = CounterRecorder(), CounterRecorder()
        ScalarEngine().run(spec, lambda: LruPolicy(), paths, recorder=rec_scalar)
        ParallelEngine(max_workers=2).run(
            spec, lambda: LruPolicy(), paths, recorder=rec_par
        )
        for name in JOIN_SIM_SERIES:
            ts_s = rec_scalar.series_data[name]
            ts_p = rec_par.series_data[name]
            # Integer-valued gauges: even the sum is order-independent.
            assert ts_p.hist.state() == ts_s.hist.state(), name
            for q in (0.5, 0.9, 0.99):
                assert ts_p.quantile(q) == ts_s.quantile(q), (name, q)


class TestInfiniteValues:
    """LFD evicts never-recurring values with a ``-inf`` cutoff."""

    def test_lfd_cutoffs_give_no_nan(self):
        random.seed(0)
        ref = [random.randint(0, 40) for _ in range(300)]
        points: list[float] = []

        class Capturing(CounterRecorder):
            def series(self, name, t, value):
                super().series(name, t, value)
                if name == "scores.cutoff":
                    points.append(value)

        rec = Capturing()
        CacheSimulator(5, LfdPolicy(ref), recorder=rec).run(ref)
        cutoff = rec.series_data["scores.cutoff"]
        assert cutoff.count == len(points) == 188
        assert cutoff.vmin == -math.inf == min(points)
        assert cutoff.vmax == max(points)
        ordered = sorted(points)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            est = cutoff.quantile(q)
            assert not math.isnan(est), q
            # Within one factor-2 bucket of the nearest-rank truth.
            true = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            if math.isinf(true):
                assert est == true, q
            else:
                assert true * 2 <= est <= true / 2, q


class TestEmitters:
    """Each documented series name is actually produced."""

    def test_scored_policy_emits_cutoff(self):
        spec, paths = _join_spec_and_paths(n_runs=1)
        series = _series_snapshot(spec, paths)
        assert "scores.cutoff" in series
        assert series["scores.cutoff"]["count"] > 0

    def test_flowexpect_fast_path_emits_latency_and_hit_rate(self):
        model = RandomWalkStream(step=bounded_uniform(3))
        r = model.sample_path(60, np.random.default_rng(1))
        s = model.sample_path(60, np.random.default_rng(2))
        rec = CounterRecorder()
        policy = FlowExpectPolicy(4, model, model, fast=True)
        JoinSimulator(4, policy, recorder=rec).run(r, s)
        series = rec.snapshot()["series"]
        assert series["flow.solve_ms"]["count"] > 0
        assert series["flow.solve_ms"]["min"] >= 0.0
        hit_rate = series["prob_table.hit_rate"]
        assert 0.0 <= hit_rate["min"] <= hit_rate["max"] <= 1.0

    def test_cache_sim_emits_on_hits_and_misses(self):
        # A reference stream with guaranteed repeats: occupancy series
        # must cover hit steps too, not only the miss path.
        rec = CounterRecorder()
        sim = CacheSimulator(2, make_policy("lru"), recorder=rec)
        sim.run([1, 1, 2, 2, 3, 1])
        series = rec.snapshot()["series"]
        counters = rec.snapshot()["counters"]
        assert counters["cache.hits"] > 0
        # One occupancy point per observed reference — hits included.
        assert series["cache.occupancy"]["count"] == 6
        assert series["cache.hit_rate"]["last"] == counters["cache.hits"] / 6

    def test_null_recorder_collects_no_series(self):
        spec, paths = _join_spec_and_paths(n_runs=1)
        rec = NullRecorder()
        run_experiment(spec, lambda: LruPolicy(), paths, recorder=rec)
        assert rec.enabled is False

    def test_series_absent_from_snapshot_when_unused(self):
        rec = CounterRecorder()
        rec.count("x")
        assert "series" not in rec.snapshot()


class TestRecorderMergeProperty:
    """merge(split(x)) == x for recorder counters and series."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["a", "b.c", "evict.LRU"]),
                st.integers(-1000, 1000),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=12,
        ),
        length=st.one_of(
            st.integers(1, 30),
            st.sampled_from([FOLD_SIZE - 1, FOLD_SIZE, FOLD_SIZE + 1,
                             2 * FOLD_SIZE + 1]),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_recorders_merge_to_whole(self, ops, length):
        whole = CounterRecorder()
        parts = [whole.fork() for _ in range(3)]
        for t in range(length):
            name, value, k = ops[t % len(ops)]
            for rec in (whole, parts[k]):
                rec.count(name, abs(value))
                rec.series(name, t, value)
        merged = CounterRecorder()
        for part in parts:
            merged.merge(part.snapshot())
        assert merged.counters == whole.counters
        whole_series = whole.snapshot()["series"]
        merged_series = merged.snapshot()["series"]
        assert set(merged_series) == set(whole_series)
        for name, state in whole_series.items():
            # Integer points: every partial sum is exact, so the merged
            # histogram equals the whole one, sum included.
            assert merged_series[name]["hist"] == state["hist"], name
            for key in ("count", "sum", "min", "max", "last_t", "last"):
                assert merged_series[name][key] == state[key], (name, key)
            assert merged_series[name]["buffer"]["offered"] == (
                state["buffer"]["offered"])
