"""Sketch front-ends: count-min/TinyLFU counts and bloom admission.

Pins the acceptance contract of :mod:`repro.sketch`:

* the data structures themselves — count-min never undercounts, the
  bloom filter never false-negatives, TinyLFU ages by halving, and the
  admission filter gates on doorkeeper membership plus the cutoff EMA;
* the policy integration — ``ProbPolicy(counts="sketch")`` stays within
  one-sided count-min error of exact frequencies, ``counts="exact"`` is
  seed-for-seed identical to the default construction, and the
  admission wrapper rejects one-hit wonders while emitting the
  documented observability series;
* the engine boundary — sketch modes and admission filters are
  scalar-only, so the batch adapter must refuse them and the engine
  negotiation must fall back to the scalar loop;
* state plumbing — fresh simulator states reset stale admission
  filters, and ``sketch_state``/``merge_sketch_state`` union donor
  state across a reshard.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.tuples import StreamTuple
from repro.obs import CounterRecorder
from repro.policies import LfuPolicy, ProbPolicy, make_policy
from repro.policies.base import PolicyContext
from repro.policies.batch import UnbatchablePolicyError, make_batch_policy
from repro.sim.cache_sim import CacheSimulator
from repro.sim.step import make_cache_state
from repro.sketch import (
    AdmissionFilter,
    BloomFilter,
    CountMinSketch,
    TinyLfuFilter,
)
from repro.sketch.countmin import value_hashes


def make_ctx(kind="cache", time=0, cache_size=5, r_hist=None, s_hist=None):
    return PolicyContext(
        kind=kind,
        time=time,
        cache_size=cache_size,
        r_history=list(r_hist or []),
        s_history=list(s_hist or []),
    )


class TestCountMinSketch:
    def test_never_undercounts(self):
        rng = np.random.default_rng(0)
        values = [int(v) for v in rng.integers(0, 200, 2_000)]
        exact: dict[int, int] = {}
        cms = CountMinSketch(width=512, depth=4)
        for v in values:
            cms.increment(v)
            exact[v] = exact.get(v, 0) + 1
        for v, n in exact.items():
            assert cms.estimate(v) >= n

    def test_halve_floors_counts(self):
        cms = CountMinSketch(width=64, depth=2)
        for _ in range(7):
            cms.increment("x")
        cms.halve()
        assert cms.estimate("x") == 3
        assert cms.total <= 3

    def test_merge_is_additive(self):
        a = CountMinSketch(width=128, depth=3)
        b = CountMinSketch(width=128, depth=3)
        a.increment("v", by=2)
        b.increment("v", by=5)
        b.increment("w")
        a.merge(b)
        assert a.estimate("v") >= 7
        assert a.estimate("w") >= 1

    def test_merge_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=64, depth=2).merge(
                CountMinSketch(width=128, depth=2)
            )

    def test_hashes_are_deterministic(self):
        # Process-stable hashing is what makes reshard merges and
        # bench fingerprints reproducible: no PYTHONHASHSEED leakage.
        assert value_hashes(12345) == value_hashes(12345)
        h1, h2 = value_hashes("abc")
        assert h2 % 2 == 1

    def test_memory_is_width_times_depth(self):
        cms = CountMinSketch(width=1024, depth=4)
        assert cms.memory_bytes() == 1024 * 4 * 4


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(n_bits=4096, n_hashes=4)
        for v in range(300):
            bf.add(v)
        assert all(v in bf for v in range(300))

    def test_add_reports_probably_new(self):
        bf = BloomFilter(n_bits=4096, n_hashes=4)
        assert bf.add("a") is True
        assert bf.add("a") is False

    def test_clear_and_fill(self):
        bf = BloomFilter(n_bits=256, n_hashes=2)
        bf.add("a")
        assert bf.fill_ratio() > 0
        bf.clear()
        assert bf.fill_ratio() == 0.0
        assert "a" not in bf

    def test_merge_unions_membership(self):
        a = BloomFilter(n_bits=512, n_hashes=3)
        b = BloomFilter(n_bits=512, n_hashes=3)
        a.add("left")
        b.add("right")
        a.merge(b)
        assert "left" in a and "right" in a


class TestTinyLfu:
    def test_doorkeeper_absorbs_first_occurrence(self):
        tl = TinyLfuFilter(width=256, depth=2)
        tl.increment("v")
        assert tl.estimate("v") >= 1
        # The backing sketch only sees occurrences past the first.
        assert tl.sketch.estimate("v") == 0
        tl.increment("v")
        assert tl.sketch.estimate("v") >= 1

    def test_aging_halves_at_sample_size(self):
        tl = TinyLfuFilter(width=64, depth=2, sample_size=10)
        for _ in range(10):
            tl.increment("hot")
        assert tl.resets == 1
        # Post-halving the estimate is roughly half the raw count.
        assert tl.estimate("hot") <= 6

    def test_merge_sums_estimates(self):
        a = TinyLfuFilter(width=128, depth=2)
        b = TinyLfuFilter(width=128, depth=2)
        for _ in range(3):
            a.increment("v")
            b.increment("v")
        a.merge(b)
        assert a.estimate("v") >= 5


class TestAdmissionFilter:
    def test_repeat_values_always_admitted(self):
        af = AdmissionFilter()
        af.update_cutoff(100.0)
        # First sighting trains the doorkeeper even when rejected ...
        assert not af.admit("v", score=0.0)
        # ... so any repeat is admitted regardless of score.
        assert af.admit("v", score=-1.0)

    def test_first_timer_gated_by_cutoff_ema(self):
        af = AdmissionFilter(ema_alpha=1.0, margin=1.0)
        af.update_cutoff(5.0)
        assert not af.admit("low", score=4.0)
        assert af.admit("high", score=6.0)
        assert af.rejects == 1 and af.admits == 1

    def test_untrained_filter_rejects_first_timers(self):
        # No evictions yet -> no cutoff -> pure doorkeeper mode.
        af = AdmissionFilter()
        assert not af.admit("v", score=1e9)
        assert af.admit("v", score=0.0)

    def test_reset_clears_state(self):
        af = AdmissionFilter(ema_alpha=1.0)
        af.update_cutoff(1.0)
        af.admit("v", score=2.0)
        af.reset()
        assert af.cutoff_ema is None
        assert af.admits == 0 and af.rejects == 0
        assert not af.admit("v", score=1e9)

    def test_merge_unions_doorkeepers_and_averages_emas(self):
        a = AdmissionFilter(ema_alpha=1.0)
        b = AdmissionFilter(ema_alpha=1.0)
        a.update_cutoff(2.0)
        b.update_cutoff(4.0)
        a.admit("a-val", score=3.0)
        b.admit("b-val", score=5.0)
        a.merge(b)
        assert a.cutoff_ema == pytest.approx(3.0)
        # Both doorkeeper populations survive the merge.
        assert a.admit("a-val", score=-1.0)
        assert a.admit("b-val", score=-1.0)


class TestProbPolicySketchCounts:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ProbPolicy(counts="bogus")

    @pytest.mark.parametrize("mode", ["sketch", "tinylfu"])
    def test_sketch_frequency_never_undercounts(self, mode):
        rng = np.random.default_rng(1)
        hist = [int(v) for v in rng.integers(0, 50, 400)]
        ctx = make_ctx(kind="join", time=len(hist), r_hist=hist, s_hist=hist)
        exact = ProbPolicy()
        approx = ProbPolicy(counts=mode, sketch_width=4096)
        exact.reset(ctx)
        approx.reset(ctx)
        for v in set(hist):
            tup = StreamTuple(v, "R", v, 0)
            assert approx.frequency(tup, ctx) >= exact.frequency(tup, ctx)

    def test_exact_mode_is_default_identical(self):
        rng = np.random.default_rng(2)
        reference = [int(v) for v in rng.integers(0, 30, 500)]
        base = CacheSimulator(8, make_policy("lfu")).run(reference)
        explicit = CacheSimulator(8, make_policy("lfu", counts="exact")).run(
            reference
        )
        assert base.hits == explicit.hits
        assert base.misses == explicit.misses

    def test_asymmetric_histories_count_full_s_tail(self):
        """Regression: the old single-cursor sync stopped consuming
        ``s_history`` at ``len(r_history)``, so any S suffix beyond the
        R length was never counted."""
        p = ProbPolicy()
        ctx = make_ctx(kind="join", time=3, r_hist=[1], s_hist=[2, 2, 2])
        p.reset(ctx)
        # An R tuple scores by its partner-side (S) frequency;
        # score() performs the history sync before reading counts.
        tup = StreamTuple(0, "R", 2, 0)
        assert p.score(tup, ctx) == 3

    def test_asymmetric_histories_incremental_sync(self):
        # Growing the longer side after an initial sync must also land.
        p = ProbPolicy()
        ctx = make_ctx(kind="join", time=2, r_hist=[1, 1], s_hist=[2, 2])
        p.reset(ctx)
        p.score(StreamTuple(0, "R", 2, 0), ctx)
        ctx2 = make_ctx(
            kind="join", time=5, r_hist=[1, 1], s_hist=[2, 2, 2, 2, 2]
        )
        assert p.score(StreamTuple(0, "R", 2, 0), ctx2) == 5
        assert p.score(StreamTuple(1, "S", 1, 0), ctx2) == 2

    def test_sketch_fill_series_emitted(self):
        rec = CounterRecorder()
        rng = np.random.default_rng(3)
        reference = [int(v) for v in rng.integers(0, 40, 200)]
        policy = make_policy("lfu", counts="sketch", sketch_width=1024)
        CacheSimulator(4, policy, recorder=rec).run(reference)
        series = rec.snapshot().get("series", {})
        assert "sketch.fill" in series

    def test_sketch_memory_is_bounded(self):
        policy = ProbPolicy(counts="sketch", sketch_width=1024, sketch_depth=4)
        ctx = make_ctx()
        policy.reset(ctx)
        # Two binary-join sketches (R and S) of width x depth uint32 cells.
        assert policy.sketch_memory_bytes() == 2 * 1024 * 4 * 4


class TestAdmissionIntegration:
    def test_one_hit_wonders_rejected(self):
        """A hot head plus a unique tail: the doorkeeper admits the head
        on its second sighting and rejects the never-repeating tail."""
        rng = np.random.default_rng(4)
        head = [int(v) for v in rng.integers(0, 5, 400)]
        tail = [1_000 + i for i in range(400)]
        order = rng.permutation(800)
        reference = [
            (head + tail)[i] for i in order  # interleave head and tail
        ]
        rec = CounterRecorder()
        policy = LfuPolicy().with_admission(AdmissionFilter())
        result = CacheSimulator(6, policy, recorder=rec).run(reference)
        assert policy.admission.rejects > 0
        assert result.hits > 0
        series = rec.snapshot().get("series", {})
        assert "admission.rejects.cum" in series
        assert "sketch.fp_rate" in series

    def test_with_admission_returns_self(self):
        af = AdmissionFilter()
        policy = LfuPolicy()
        assert policy.with_admission(af) is policy
        assert policy.admission is af

    def test_rejected_arrival_becomes_extra_victim(self):
        policy = LfuPolicy().with_admission(AdmissionFilter(ema_alpha=1.0))
        ctx = make_ctx(kind="cache", time=3, r_hist=[1, 2, 3, 9])
        policy.reset(ctx)
        policy.admission.update_cutoff(1e9)  # nothing can clear the bar
        resident = [StreamTuple(i, "R", i + 1, 0) for i in range(3)]
        arrival = StreamTuple(99, "R", 9, 3)
        victims = policy.select_victims(resident + [arrival], 0, ctx)
        assert victims == [arrival]

    def test_make_cache_state_resets_stale_admission(self):
        af = AdmissionFilter(ema_alpha=1.0)
        af.update_cutoff(123.0)
        af.admit("stale", score=200.0)
        policy = LfuPolicy().with_admission(af)
        make_cache_state(4, policy)
        assert af.cutoff_ema is None
        assert af.admits == 0 and af.rejects == 0


class TestBatchGating:
    def test_batch_adapter_refuses_sketch_counts(self):
        with pytest.raises(UnbatchablePolicyError):
            make_batch_policy(ProbPolicy(counts="sketch"), kind="cache")

    def test_batch_adapter_refuses_admission(self):
        with pytest.raises(UnbatchablePolicyError):
            make_batch_policy(
                LfuPolicy().with_admission(AdmissionFilter()), kind="cache"
            )

    def test_batch_adapter_accepts_exact(self):
        assert make_batch_policy(ProbPolicy(counts="exact"), kind="cache")

    def test_engine_falls_back_to_scalar(self):
        from repro.sim.runner import run_cache_experiment
        from repro.streams import StationaryStream, from_mapping

        model = StationaryStream(from_mapping({1: 0.5, 2: 0.3, 3: 0.2}))
        paths = [model.sample_path(80, np.random.default_rng(0))]
        factory = lambda: make_policy("lfu", counts="sketch")  # noqa: E731
        result = run_cache_experiment(
            factory, paths, cache_size=3, engine="batch"
        )
        assert result.engine_used == "scalar"


class TestShardMerge:
    def test_sketch_state_round_trip(self):
        hist = [1, 1, 2]
        ctx = make_ctx(kind="join", time=3, r_hist=hist, s_hist=hist)
        donor = ProbPolicy(counts="sketch", sketch_width=512)
        donor.reset(ctx)
        donor.score(StreamTuple(0, "R", 1, 0), ctx)
        heir = ProbPolicy(counts="sketch", sketch_width=512)
        heir.reset(make_ctx(kind="join", time=0))
        state = donor.sketch_state()
        assert state is not None and "counts" in state
        heir.merge_sketch_state(state)
        empty_ctx = make_ctx(kind="join", time=0)
        assert heir.frequency(StreamTuple(0, "S", 1, 0), empty_ctx) >= 2
        assert heir.frequency(StreamTuple(1, "R", 2, 0), empty_ctx) >= 1

    def test_merge_ignores_mode_mismatch(self):
        a = ProbPolicy(counts="sketch")
        b = ProbPolicy(counts="exact")
        a.reset(make_ctx())
        b.reset(make_ctx())
        a.merge_sketch_state(b.sketch_state() or {"counts": None})

    def test_exact_policy_has_no_sketch_state(self):
        p = ProbPolicy()
        p.reset(make_ctx())
        assert p.sketch_state() is None

    def test_admission_state_survives_reshard(self):
        """Server-level: per-shard admission doorkeepers are unioned
        into the successor shards when the shard count changes."""
        from repro.serve import StreamServer
        from repro.sim import ExperimentSpec

        spec = ExperimentSpec(kind="cache", cache_size=3)
        factory = lambda: LfuPolicy().with_admission(  # noqa: E731
            AdmissionFilter()
        )

        async def go():
            server = StreamServer(spec, factory, n_shards=2)
            await server.start()
            for t in range(8):
                await server.submit_reference(t, t % 4)
            await server.reshard(3)
            merged = [
                shard.state.policy.admission.observed
                for shard in server.shards
            ]
            await server.stop()
            return merged

        observed = asyncio.run(asyncio.wait_for(go(), timeout=60))
        # Every successor saw the union of donor doorkeeper history.
        assert all(n > 0 for n in observed)
