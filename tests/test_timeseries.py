"""Bounded-memory time-series primitives: buffers, histograms, merging.

Pins the contracts ``docs/OBSERVABILITY.md`` states for
:mod:`repro.obs.timeseries`:

* :class:`SeriesBuffer` never exceeds its budget regardless of stream
  length, keeps an evenly-strided sample, and is deterministic in the
  order points are offered;
* :class:`TimeSeries` snapshots round-trip through ``from_state``, and
  ``merge`` is exact on the histogram: split-and-merged series equal
  the whole series' count/min/max, bucket counts and every quantile;
* recorded points wait in a pending block that is folded in bulk, and
  the folded :class:`LogHistogram`, :class:`SeriesBuffer` and
  :class:`TimeSeries` state equals point-by-point folding (a reference
  kept here) for any sequence and any interleaving of reads;
* :func:`sparkline` renders any numeric list without blowing up on
  constant or empty input.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import LogHistogram, SeriesBuffer, TimeSeries, sparkline
from repro.obs.hist import FOLD_SIZE, MIN_BOUND, N_BUCKETS


class TestSeriesBuffer:
    """Fixed-budget downsampling buffer."""

    def test_never_exceeds_budget(self):
        buf = SeriesBuffer(budget=16)
        for t in range(10_000):
            buf.add(t, float(t))
        state = buf.state()
        assert len(state["points"]) <= 16
        assert state["offered"] == 10_000

    def test_keeps_evenly_strided_sample(self):
        buf = SeriesBuffer(budget=8)
        for t in range(100):
            buf.add(t, float(t))
        ts = [t for t, _ in buf.state()["points"]]
        strides = {b - a for a, b in zip(ts, ts[1:])}
        assert len(strides) == 1  # uniform spacing
        assert ts[0] == 0

    def test_exact_below_budget(self):
        buf = SeriesBuffer(budget=64)
        points = [[t, t * 0.5] for t in range(20)]
        for t, v in points:
            buf.add(t, v)
        assert buf.state()["points"] == points

    def test_deterministic_in_offer_order(self):
        a, b = SeriesBuffer(budget=8), SeriesBuffer(budget=8)
        for t in range(500):
            a.add(t, float(t % 7))
            b.add(t, float(t % 7))
        assert a.state() == b.state()

    def test_merge_respects_budget(self):
        a, b = SeriesBuffer(budget=8), SeriesBuffer(budget=8)
        for t in range(100):
            a.add(t, float(t))
            b.add(100 + t, float(t))
        a.merge(b.state())
        state = a.state()
        assert len(state["points"]) <= 8
        assert state["offered"] == 200
        ts = [t for t, _ in state["points"]]
        assert ts == sorted(ts)


class TestTimeSeries:
    """Histogram-backed aggregates + downsampling buffer."""

    def test_exact_aggregates(self):
        ts = TimeSeries("gauge")
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        for t, v in enumerate(values):
            ts.add(t, v)
        snap = ts.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == sum(values)
        assert snap["min"] == 1.0
        assert snap["max"] == 5.0
        assert snap["last"] == 5.0
        assert snap["last_t"] == 4

    def test_snapshot_round_trip(self):
        ts = TimeSeries("gauge", budget=16)
        for t in range(200):
            ts.add(t, float(t % 13))
        clone = TimeSeries.from_state("gauge", ts.snapshot())
        assert clone.snapshot() == ts.snapshot()

    def test_merge_exact_on_scalar_aggregates(self):
        full = TimeSeries("g")
        left, right = TimeSeries("g"), TimeSeries("g")
        rng = np.random.default_rng(11)
        for t, v in enumerate(rng.uniform(0, 10, size=600)):
            full.add(t, float(v))
            (left if t < 300 else right).add(t, float(v))
        left.merge(right.snapshot())
        a, b = left.snapshot(), full.snapshot()
        for key in ("count", "min", "max", "last", "last_t"):
            assert a[key] == b[key]
        # Sum is exact up to float summation order.
        assert a["sum"] == pytest.approx(b["sum"], rel=1e-12)
        assert a["hist"]["counts"] == b["hist"]["counts"]
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == full.quantile(q)

    def test_snapshot_is_json_serializable(self):
        ts = TimeSeries("g")
        for t in range(50):
            ts.add(t, float(t))
        json.dumps(ts.snapshot())

    def test_any_quantile_is_answered(self):
        ts = TimeSeries("g")
        for t in range(1, 101):
            ts.add(t, float(t))
        assert ts.quantile(0.0) == 1.0
        assert ts.quantile(1.0) == 100.0
        for q in (0.05, 0.37, 0.5, 0.9, 0.999):
            true = float(np.quantile(np.arange(1, 101), q))
            assert true / 2 <= ts.quantile(q) <= true * 2, q
        with pytest.raises(ValueError):
            ts.quantile(1.5)

    def test_legacy_quantiles_key_is_ignored(self):
        ts = TimeSeries("g")
        for t in range(20):
            ts.add(t, float(t))
        legacy = ts.snapshot()
        legacy["quantiles"] = {"0.5": {"q": 0.5, "count": 20.0}}
        assert TimeSeries.from_state("g", legacy).snapshot() == ts.snapshot()
        merged = TimeSeries("g")
        merged.merge(legacy)
        assert merged.snapshot()["hist"] == ts.snapshot()["hist"]

    @given(
        items=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                ),
                st.integers(0, 3),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_split_merge_equals_whole(self, items):
        """Any k-way split of the points, merged, is the whole series'
        histogram: counts, count, min, max and every quantile exactly;
        sum to 1e-12 of the values' magnitude (float summation order)."""
        whole = TimeSeries("g")
        parts = [TimeSeries("g") for _ in range(4)]
        for t, (v, k) in enumerate(items):
            whole.add(t, v)
            parts[k].add(t, v)
        merged = TimeSeries("g")
        for part in parts:
            merged.merge(json.loads(json.dumps(part.snapshot())))
        a, b = merged.hist, whole.hist
        assert a.counts == b.counts
        assert (a.count, a.vmin, a.vmax) == (b.count, b.vmin, b.vmax)
        assert (merged.last_t, merged.last) == (whole.last_t, whole.last)
        if math.isnan(b.total) or math.isinf(b.total):
            assert repr(a.total) == repr(b.total)
        else:
            magnitude = math.fsum(abs(v) for v, _ in items)
            assert abs(a.total - b.total) <= 1e-12 * magnitude
        for q in (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            assert merged.quantile(q) == whole.quantile(q), q


_BOUNDS = [MIN_BOUND * 2.0**i for i in range(N_BUCKETS)]


class RefHistogram:
    """Point-by-point fold: the semantics the bulk fold must reproduce."""

    def __init__(self):
        self.counts = [0] * (2 * N_BUCKETS)
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None

    def observe(self, value):
        value = float(value)
        if value < 0:
            index = N_BUCKETS - 1 - min(bisect_left(_BOUNDS, -value), N_BUCKETS - 1)
        else:
            index = N_BUCKETS + min(bisect_left(_BOUNDS, value), N_BUCKETS - 1)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def state(self):
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }


class RefBuffer:
    """Point-by-point stride keep / thin / double."""

    def __init__(self, budget):
        self.budget = budget
        self.stride = 1
        self.offered = 0
        self.points = []

    def add(self, t, value):
        if self.offered % self.stride == 0:
            self.points.append((t, float(value)))
            if len(self.points) >= self.budget:
                self.points = self.points[::2]
                self.stride *= 2
        self.offered += 1

    def state(self):
        return {
            "budget": self.budget,
            "stride": self.stride,
            "offered": self.offered,
            "points": [[t, v] for t, v in self.points],
        }


def ref_snapshot(points, budget):
    """A point-by-point :meth:`TimeSeries.snapshot` of ``points``."""
    hist, buf = RefHistogram(), RefBuffer(budget)
    for t, v in points:
        hist.observe(v)
        buf.add(t, v)
    state = hist.state()
    return {
        "count": state["count"],
        "sum": state["sum"],
        "min": state["min"],
        "max": state["max"],
        "last_t": points[-1][0] if points else None,
        "last": float(points[-1][1]) if points else None,
        "buffer": buf.state(),
        "hist": state,
    }


def same(a, b) -> bool:
    """Equal state, NaN and the sign of zero included."""
    return repr(a) == repr(b)


def merged_equal(a: dict, b: dict) -> bool:
    """Equal histogram state up to what merging leaves open: the sign
    of a zero extreme (parts merge in part order), and NaN sums."""
    return all(
        a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]) for k in a
    ) and a.keys() == b.keys()


#: Values whose folding is easy to get wrong: signed zeros, infinities,
#: NaN, every bucket bound and its negative, and plain ints.
SPECIAL = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 0, 7, -3, 10**6]
    + _BOUNDS
    + [-b for b in _BOUNDS]
)
FOLD_VALUES = st.one_of(
    SPECIAL, st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
)
#: Lengths at and around every fold boundary, plus short runs.
FOLD_LENGTHS = st.one_of(
    st.integers(0, 40),
    st.sampled_from(
        [k * FOLD_SIZE + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    ),
)


@st.composite
def fold_runs(draw):
    """``(points, reads)``: a point sequence drawn from a small pool
    (so lengths past the fold size stay cheap) and the positions where
    a read interrupts it."""
    pool = draw(st.lists(FOLD_VALUES, min_size=1, max_size=24))
    length = draw(FOLD_LENGTHS)
    rng = draw(st.randoms(use_true_random=False))
    values = [pool[rng.randrange(len(pool))] for _ in range(length)]
    points = [(3 * t + rng.randrange(3), v) for t, v in enumerate(values)]
    reads = draw(st.sets(st.integers(0, length), max_size=6))
    return points, reads


class TestBulkFold:
    """Buffered points folded in bulk equal point-by-point folding."""

    @given(run=fold_runs())
    @settings(max_examples=120, deadline=None)
    def test_histogram_matches_point_by_point(self, run):
        points, reads = run
        hist, ref = LogHistogram("h"), RefHistogram()
        for i, (_, v) in enumerate(points):
            if i in reads:
                assert same(hist.state(), ref.state()), i
            hist.observe(v)
            ref.observe(v)
        assert same(hist.state(), ref.state())
        assert hist.count == ref.count == len(points)

    @given(run=fold_runs(), budget=st.sampled_from([4, 5, 8, 64, 512]))
    @settings(max_examples=120, deadline=None)
    def test_buffer_blocks_match_point_by_point(self, run, budget):
        # The read positions cut the points into blocks, each offered
        # with one extend (a block may span several stride doublings).
        points, reads = run
        buf, ref = SeriesBuffer(budget), RefBuffer(budget)
        cuts = [0, *sorted(reads), len(points)]
        for lo, hi in zip(cuts, cuts[1:]):
            block = points[lo:hi]
            buf.extend([t for t, _ in block], [float(v) for _, v in block])
            for t, v in block:
                ref.add(t, v)
            assert same(buf.state(), ref.state()), (lo, hi)

    @given(run=fold_runs(), budget=st.sampled_from([4, 16, 512]))
    @settings(max_examples=120, deadline=None)
    def test_series_matches_point_by_point(self, run, budget):
        points, reads = run
        series = TimeSeries("g", budget=budget)
        for i, (t, v) in enumerate(points):
            if i in reads:
                # Each read folds what is pending so far.
                assert series.count == i
                assert same(series.snapshot(), ref_snapshot(points[:i], budget))
            series.add(t, v)
        assert same(series.snapshot(), ref_snapshot(points, budget))
        if points:
            assert same((series.last_t, series.last),
                        (points[-1][0], float(points[-1][1])))

    def test_extend_equals_observe(self):
        values = [float(v) for v in range(-5, 3 * FOLD_SIZE)]
        one, bulk = LogHistogram(), LogHistogram()
        for v in values:
            one.observe(v)
        bulk.observe(values[0])
        bulk.extend(values[1:])
        assert same(one.state(), bulk.state())

    @pytest.mark.parametrize(
        "values", [[5.0, -0.0, 0.0], [5.0, 0.0, -0.0], [-5.0, 0.0, -0.0],
                   [-5.0, -0.0, 0.0], [0.0, -0.0] * FOLD_SIZE]
    )
    def test_tied_extremes_keep_the_first(self, values):
        # 0.0 == -0.0: a strict comparison keeps whichever came first.
        hist, ref = LogHistogram(), RefHistogram()
        for v in values:
            hist.observe(v)
            ref.observe(v)
        assert same(hist.state(), ref.state())

    def test_nan_extremes_follow_point_by_point(self):
        # NaN first pins min and max to NaN; a later NaN is ignored.
        first = TimeSeries("g")
        later = TimeSeries("g")
        for v in (math.nan, 1.0, -2.0):
            first.add(0, v)
        for v in (1.0, math.nan, -2.0):
            later.add(0, v)
        assert math.isnan(first.vmin) and math.isnan(first.vmax)
        assert (later.vmin, later.vmax) == (-2.0, 1.0)
        # NaN lands in the bucket holding zero.
        assert later.hist.counts[N_BUCKETS] == 1

    @given(
        items=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-10**6, 10**6),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                ),
                st.integers(0, 3),
            ),
            max_size=8,
        ),
        length=FOLD_LENGTHS,
    )
    @settings(max_examples=80, deadline=None)
    def test_merge_of_split_equals_whole(self, items, length):
        """merge(split(x)) == x across fold boundaries.  Integer-valued
        points keep every partial sum exact, so the whole histogram
        state (sum included) and the count and extremes of the series
        must match."""
        if not items:
            return
        points = [items[i % len(items)] for i in range(length)]
        whole_hist, whole = LogHistogram("h"), TimeSeries("g")
        part_hists = [LogHistogram("h") for _ in range(4)]
        parts = [TimeSeries("g") for _ in range(4)]
        for t, (v, k) in enumerate(points):
            whole_hist.observe(v)
            whole.add(t, v)
            part_hists[k].observe(v)
            parts[k].add(t, v)
        merged_hist, merged = LogHistogram("h"), TimeSeries("g")
        for part_hist, part in zip(part_hists, parts):
            merged_hist.merge(json.loads(json.dumps(part_hist.state())))
            merged.merge(json.loads(json.dumps(part.snapshot())))
        assert merged_equal(merged_hist.state(), whole_hist.state())
        assert merged_equal(merged.hist.state(), whole.hist.state())
        assert (merged.count, merged.vmin, merged.vmax) == (
            whole.count, whole.vmin, whole.vmax)
        assert (merged.last_t, merged.last) == (whole.last_t, whole.last)


class TestSparkline:
    """Unicode rendering edge cases."""

    def test_monotone_ramp_uses_full_range(self):
        line = sparkline(list(range(48)))
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series_is_flat(self):
        line = sparkline([5.0] * 10)
        assert len(set(line)) == 1
        assert len(line) == 10

    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40
