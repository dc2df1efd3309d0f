"""Mergeable log-bucketed latency histograms (:mod:`repro.obs.hist`).

The serve tier's latency story rests on three guarantees this suite
pins:

* **no observation is ever dropped** — values near zero land in the
  bucket holding zero, negatives in the mirrored half by magnitude,
  ``±inf`` and other out-of-range values in the overflow bucket of their
  sign, and exact bucket bounds settle inclusively;
* **merge is exact** — observations partitioned across histograms and
  merged back are *bucket-identical* to the unpartitioned histogram, so
  every quantile (p99 included) matches exactly, not just "within a
  bucket";
* **state round-trips as plain JSON** — the dict snapshots the serve
  tier ships across shard boundaries rebuild the histogram losslessly.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.hist import (
    GROWTH,
    MIN_BOUND,
    N_BUCKETS,
    HistogramSet,
    LogHistogram,
)


def filled(values) -> LogHistogram:
    hist = LogHistogram("test")
    for v in values:
        hist.observe(v)
    return hist


class TestBucketLayout:
    """Bucket geometry: bounds, boundary settling, sign mirroring."""

    def test_constructor_validates_layout(self):
        # The layout is fixed: it is not a constructor knob, so every
        # histogram shares it and any two merge exactly.
        for knob in ("min_value", "growth", "n_buckets"):
            with pytest.raises(TypeError):
                LogHistogram("h", **{knob: 2})

    def test_default_layout_constants(self):
        hist = LogHistogram()
        assert len(hist.counts) == 2 * N_BUCKETS
        assert (MIN_BOUND, GROWTH, N_BUCKETS) == (1e-3, 2.0, 44)

    def test_bounds_grow_geometrically(self):
        highs = [LogHistogram.bucket_edges(N_BUCKETS + i)[1] for i in range(4)]
        assert highs == [MIN_BOUND * GROWTH**i for i in range(4)]
        # Negative buckets mirror the positive ones by magnitude.
        for i in range(N_BUCKETS):
            lo, hi = LogHistogram.bucket_edges(N_BUCKETS + i)
            assert LogHistogram.bucket_edges(N_BUCKETS - 1 - i) == (-hi, -lo)

    def test_exact_boundary_values_land_in_their_bucket(self):
        # Upper bounds are inclusive on the positive side: v == bound[i]
        # belongs to bucket i; the mirrored -v belongs to its mirror.
        for i in range(N_BUCKETS - 1):
            v = MIN_BOUND * GROWTH**i
            assert LogHistogram.bucket_index(v) == N_BUCKETS + i, i
            assert LogHistogram.bucket_index(-v) == N_BUCKETS - 1 - i, i
            # Just past an inclusive bound falls into the next bucket.
            assert LogHistogram.bucket_index(v * 1.0000001) == N_BUCKETS + i + 1
            assert LogHistogram.bucket_index(-v * 1.0000001) == N_BUCKETS - 2 - i

    def test_underflow_and_overflow_clamp(self):
        index = LogHistogram.bucket_index
        assert index(0.0) == index(-0.0) == index(MIN_BOUND / 10) == N_BUCKETS
        assert index(-MIN_BOUND / 10) == N_BUCKETS - 1
        assert index(1e12) == index(math.inf) == 2 * N_BUCKETS - 1
        assert index(-1e12) == index(-math.inf) == 0
        hist = filled([1e12, math.inf, -math.inf])
        assert hist.count == 3  # overflow counted, not dropped

    def test_every_observation_lands_somewhere(self):
        rng = random.Random(7)
        hist = LogHistogram()
        values = [
            rng.choice((-1, 1)) * rng.lognormvariate(0.0, 3.0) for _ in range(500)
        ]
        for v in values:
            hist.observe(v)
        assert sum(hist.counts) == hist.count == 500
        assert hist.total == pytest.approx(sum(values))
        assert hist.vmin == min(values)
        assert hist.vmax == max(values)
        for v in values:
            lo, hi = LogHistogram.bucket_edges(LogHistogram.bucket_index(v))
            assert lo <= v <= hi


class TestQuantiles:
    """Quantile interpolation, clamping, and the log-bucket bound."""

    def test_empty_histogram(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(0.99) is None
        assert hist.percentiles()["p50"] is None

    def test_quantile_domain_checked(self):
        with pytest.raises(ValueError):
            LogHistogram().quantile(1.5)

    def test_single_value_reports_exact_extremes(self):
        hist = filled([3.7])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(3.7)

    def test_quantiles_within_one_bucket_of_truth(self):
        rng = random.Random(11)
        values = sorted(rng.uniform(0.01, 500.0) for _ in range(1000))
        hist = filled(values)
        for q in (0.5, 0.9, 0.99):
            true = values[int(q * len(values)) - 1]
            est = hist.quantile(q)
            # The estimate lives within one geometric bucket of truth.
            assert true / GROWTH <= est <= true * GROWTH

    def test_quantiles_monotone_and_clamped(self):
        hist = filled([0.5, 1.5, 2.5, 100.0])
        qs = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] >= hist.vmin
        assert qs[-1] <= hist.vmax

    def test_percentiles_summary_shape(self):
        pct = filled([1.0, 2.0, 4.0]).percentiles()
        assert set(pct) == {"count", "p50", "p90", "p99", "max"}
        assert pct["count"] == 3
        assert pct["max"] == 4.0

    def test_mean_matches_arithmetic_mean(self):
        assert filled([1.0, 2.0, 3.0]).mean == pytest.approx(2.0)

    def test_negative_quantiles_within_one_bucket_of_truth(self):
        rng = random.Random(5)
        values = sorted(-rng.uniform(0.01, 500.0) for _ in range(1000))
        hist = filled(values)
        for q in (0.01, 0.1, 0.5):
            true = values[int(q * len(values)) - 1]
            est = hist.quantile(q)
            assert true * GROWTH <= est <= true / GROWTH

    def test_infinities_are_returned_not_nan(self):
        # LFD-style cutoffs: a never-recurring victim scores -inf.
        # Interpolating towards an infinite edge would give inf - inf =
        # NaN; the infinite extreme is returned instead.
        hist = filled([-math.inf, -math.inf, -3.0, 5.0, math.inf])
        assert hist.quantile(0.0) == hist.quantile(0.4) == -math.inf
        assert hist.quantile(1.0) == math.inf
        bound = MIN_BOUND * GROWTH**11  # -3.0 sits in [-2 * bound, -bound)
        assert -2 * bound <= hist.quantile(0.6) <= -bound
        for q in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
            assert not math.isnan(hist.quantile(q))

    def test_finite_overflow_interpolates_to_observed_max(self):
        big = MIN_BOUND * GROWTH ** (N_BUCKETS + 2)
        hist = filled([big, big])
        assert hist.quantile(0.5) == big


class TestMerge:
    """Merge adds bucket counts: exact, associative, commutative."""

    def test_partitioned_merge_is_bucket_identical(self):
        # The acceptance bound for live resharding: observations split
        # across shard histograms and merged equal the unsharded
        # histogram exactly — counts, sum, extremes, and thus p99.
        rng = random.Random(23)
        values = [rng.lognormvariate(1.0, 2.0) for _ in range(600)]
        whole = filled(values)
        shards = [LogHistogram("s") for _ in range(3)]
        for i, v in enumerate(values):
            shards[i % 3].observe(v)
        merged = LogHistogram("merged")
        for shard in shards:
            merged.merge(shard.state())
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert merged.vmin == whole.vmin
        assert merged.vmax == whole.vmax
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == pytest.approx(whole.quantile(q))

    def test_merge_is_commutative(self):
        a = filled([0.1, 5.0, 40.0])
        b = filled([0.7, 0.7, 900.0])
        ab = filled([0.1, 5.0, 40.0])
        ab.merge(b.state())
        ba = filled([0.7, 0.7, 900.0])
        ba.merge(a.state())
        assert ab.counts == ba.counts
        assert ab.count == ba.count == 6

    def test_merge_into_empty_equals_donor(self):
        donor = filled([1.0, 2.0, 3.0])
        empty = LogHistogram("empty")
        empty.merge(donor.state())
        assert empty.counts == donor.counts
        assert empty.vmin == donor.vmin and empty.vmax == donor.vmax


def _sum_close(merged: float, whole: float, values) -> bool:
    """Sums agree up to float summation order (1e-12 of the magnitude)."""
    if math.isnan(whole) or math.isinf(whole):
        return repr(merged) == repr(whole)
    return abs(merged - whole) <= 1e-12 * math.fsum(abs(v) for v in values)


#: Floats of either sign plus the edge values a gauge can carry.
GAUGE_VALUES = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
)

#: Quantiles every merge must reproduce exactly.
QS = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


class TestMergeProperty:
    """Split, observe, merge: the union histogram, bucket for bucket."""

    @given(
        items=st.lists(st.tuples(GAUGE_VALUES, st.integers(0, 3)), max_size=80)
    )
    @settings(max_examples=150, deadline=None)
    def test_split_merge_equals_whole(self, items):
        values = [v for v, _ in items]
        whole = filled(values)
        parts = [LogHistogram("part") for _ in range(4)]
        for v, k in items:
            parts[k].observe(v)
        merged = LogHistogram("merged")
        for part in parts:
            merged.merge(json.loads(json.dumps(part.state())))
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.vmin == whole.vmin and merged.vmax == whole.vmax
        assert _sum_close(merged.total, whole.total, values)
        for q in QS:
            assert merged.quantile(q) == whole.quantile(q), q


class TestState:
    """JSON snapshots rebuild histograms losslessly."""

    def test_state_round_trip(self):
        hist = filled([0.002, 1.5, 88.0, 4000.0])
        clone = LogHistogram.from_state("test", hist.state())
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.total == hist.total
        assert clone.vmin == hist.vmin and clone.vmax == hist.vmax
        assert clone.quantile(0.99) == hist.quantile(0.99)

    def test_state_is_json_serializable(self):
        hist = filled([1.0, 2.0])
        rebuilt = LogHistogram.from_state(
            "test", json.loads(json.dumps(hist.state()))
        )
        assert rebuilt.counts == hist.counts

    def test_empty_state_round_trip(self):
        clone = LogHistogram.from_state("e", LogHistogram().state())
        assert clone.count == 0
        assert clone.vmin is None and clone.vmax is None


class TestCumulativeBuckets:
    """The Prometheus-facing cumulative view."""

    def test_ends_with_infinity_bucket(self):
        hist = filled([1.0, 2.0, 2.0, 64.0])
        pairs = hist.cumulative_buckets()
        bound, cum = pairs[-1]
        assert math.isinf(bound)
        assert cum == hist.count

    def test_cumulative_counts_are_nondecreasing(self):
        hist = filled([0.1, 1.0, 10.0, 100.0, 1000.0])
        cums = [c for _, c in hist.cumulative_buckets()]
        assert cums == sorted(cums)

    def test_empty_histogram_renders_compactly(self):
        pairs = LogHistogram().cumulative_buckets()
        assert pairs == [(math.inf, 0)]

    def test_trailing_empty_buckets_elided(self):
        hist = filled([1.0])  # far below the top of the default range
        pairs = hist.cumulative_buckets()
        assert len(pairs) < N_BUCKETS

    def test_nonnegative_histograms_start_at_the_zero_bucket(self):
        # Latency histograms never see negatives: their exposition keeps
        # the 1 µs first bucket, whatever the mirrored half holds.
        pairs = filled([0.5, 3.0]).cumulative_buckets()
        assert pairs[0] == (MIN_BOUND, 0)
        assert [b for b, _ in pairs[:-1]] == [
            MIN_BOUND * GROWTH**i for i in range(len(pairs) - 1)
        ]

    def test_negative_buckets_precede_zero(self):
        pairs = filled([-3.0, -0.5, 2.0]).cumulative_buckets()
        bounds = [b for b, _ in pairs]
        assert bounds == sorted(bounds)
        assert bounds[0] == -MIN_BOUND * GROWTH**11  # -3.0's exclusive edge
        assert dict(pairs)[0.0] == 2
        assert pairs[-1] == (math.inf, 3)


class TestHistogramSet:
    """The name-keyed collection the serve shards carry."""

    def test_observe_creates_lazily_and_get(self):
        hs = HistogramSet()
        assert not hs
        assert hs.get("a") is None
        hs.observe("a", 1.0)
        assert hs
        assert hs.get("a").count == 1

    def test_set_merge_unions_names(self):
        a = HistogramSet()
        a.observe("x", 1.0)
        a.observe("y", 2.0)
        b = HistogramSet()
        b.observe("y", 3.0)
        b.observe("z", 4.0)
        a.merge(b.state())
        assert set(a.hists) == {"x", "y", "z"}
        assert a.get("y").count == 2
        assert a.get("z").count == 1

    def test_copy_is_independent(self):
        hs = HistogramSet()
        hs.observe("x", 1.0)
        clone = hs.copy()
        clone.observe("x", 2.0)
        assert hs.get("x").count == 1
        assert clone.get("x").count == 2

    def test_state_round_trip(self):
        hs = HistogramSet()
        hs.observe("x", 5.0)
        rebuilt = HistogramSet()
        rebuilt.merge(json.loads(json.dumps(hs.state())))
        assert rebuilt.get("x").counts == hs.get("x").counts
