"""Bounded-memory time-series primitives: buffers, histograms, merging.

Pins the contracts ``docs/OBSERVABILITY.md`` states for
:mod:`repro.obs.timeseries`:

* :class:`SeriesBuffer` never exceeds its budget regardless of stream
  length, keeps an evenly-strided sample, and is deterministic in the
  order points are offered;
* :class:`TimeSeries` snapshots round-trip through ``from_state``, and
  ``merge`` is exact on the histogram: split-and-merged series equal
  the whole series' count/min/max, bucket counts and every quantile;
* :func:`sparkline` renders any numeric list without blowing up on
  constant or empty input.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import SeriesBuffer, TimeSeries, sparkline


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
