"""Mergeable log-bucketed histograms: span latencies and series gauges.

One structure answers every quantile question the telemetry asks: the
serve tier's request-latency tails (p99, max), where per-shard state
must merge *exactly* across ``fork``/``merge`` and live resharding, and
the per-step gauges of :class:`~repro.obs.timeseries.TimeSeries`
(occupancy, hit rate, eviction cutoffs), where worker and shard series
must merge exactly too.  :class:`LogHistogram` is the standard answer
from the telemetry literature (HdrHistogram, Prometheus native
histograms): a fixed budget of geometrically growing buckets.

Design contract
---------------
* **Fixed layout.**  :data:`N_BUCKETS` buckets per sign at one bucket
  per factor of :data:`GROWTH`, starting at :data:`MIN_BOUND`: in
  milliseconds, 1 µs .. ~2.4 hours.  Nonnegative values fill the upper
  half; negative values (eviction cutoffs of LFD-style policies) fill a
  mirrored lower half, bucketed by magnitude.  Values beyond the last
  bound, ``±inf`` included, land in the overflow bucket of their sign,
  so no observation is ever dropped.  NaN lands in the bucket holding
  zero and never replaces an extreme it does not open.
* **Buffered observations.**  :meth:`LogHistogram.observe` only appends
  the value to a pending block of at most :data:`FOLD_SIZE` floats.
  The block is folded into the buckets, count, sum and extremes in
  bulk (one ``searchsorted`` and ``bincount``), when it fills and
  before anything reads the histogram, so every read sees every
  observation.  The folded state is exactly the point-by-point one:
  the sum accumulates sequentially from the running total, and the
  extremes keep the first value that attains them.
* **Exact merge.**  Merging adds bucket counts — associative,
  commutative, lossless.  Count, min and max are preserved exactly and
  sum up to float summation order, so a merged histogram answers every
  quantile exactly as the histogram of the union of observations does.
* **Accuracy.**  A quantile estimate lies in the bucket holding the
  true order statistic: within a factor of two of it for magnitudes in
  ``[MIN_BOUND, 2**(N_BUCKETS - 2) * MIN_BOUND]``, within ``MIN_BOUND``
  absolutely below that.  An estimate that falls in an overflow bucket
  is interpolated towards the observed extreme, which is returned
  as-is when infinite.
* **JSON state.**  ``state()`` / ``from_state()`` / ``merge()`` produce
  and consume plain dicts, so histogram state travels through the same
  snapshots the parallel engine and the serve tier already ship across
  process and shard boundaries.

:class:`HistogramSet` is the name-keyed collection the serve tier hangs
off every shard: observe into it per span, merge sets at shard
retirement, and render the result as Prometheus histogram families
(:func:`repro.obs.promtext.render_prometheus`).
"""

from __future__ import annotations

import math
from array import array
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "FOLD_SIZE",
    "GROWTH",
    "MIN_BOUND",
    "N_BUCKETS",
    "LogHistogram",
    "HistogramSet",
]

#: Geometric growth factor between bucket bounds.
GROWTH = 2.0

#: Upper bound of the first nonnegative bucket (1 µs in milliseconds).
MIN_BOUND = 1e-3

#: Buckets per sign: 1 µs · 2^43 ≈ 2.4 hours of millisecond range.
N_BUCKETS = 44

#: Pending points a histogram or series holds before it folds them in
#: bulk (4 KB of float64 per pending block).
FOLD_SIZE = 512

#: Inclusive upper bounds of the nonnegative buckets by magnitude.
_BOUNDS = tuple(MIN_BOUND * GROWTH**i for i in range(N_BUCKETS))

#: Every bound below the overflow bucket: ``searchsorted`` over these
#: gives a magnitude's bucket within its sign's half directly, since a
#: magnitude past the last one is overflow whatever the bound above.
_INNER_BOUNDS = np.array(_BOUNDS[:-1])

#: Value edges of all ``2 * N_BUCKETS`` buckets in ascending order:
#: bucket ``k`` spans ``_EDGES[k] .. _EDGES[k + 1]``.
_EDGES = (
    -math.inf,
    *(-b for b in reversed(_BOUNDS[:-1])),
    0.0,
    *_BOUNDS[:-1],
    math.inf,
)


def _bucket_indices(values: np.ndarray, signed: bool = True,
                    nan: bool = True) -> np.ndarray:
    """Index into ``counts`` of the bucket receiving each of ``values``.

    A magnitude goes to the first bound it does not exceed (overflow
    past the last); negatives mirror into the lower half.  NaN compares
    false against every bound, so it takes the bucket holding zero.
    ``signed=False`` or ``nan=False`` promise that ``values`` holds no
    negatives or no NaN, which skips that work.
    """
    index = np.searchsorted(_INNER_BOUNDS, np.abs(values) if signed else values)
    if nan:
        index[np.isnan(values)] = 0
    if signed:
        return np.where(values < 0, N_BUCKETS - 1 - index, N_BUCKETS + index)
    return index + N_BUCKETS


class LogHistogram:
    """Fixed-layout histogram with geometrically growing buckets.

    ``counts`` lists the ``2 * N_BUCKETS`` buckets in ascending value
    order.  Nonnegative bucket ``N_BUCKETS + i`` counts observations
    ``v`` with ``bound[i-1] < v <= bound[i]``, where ``bound[i] =
    MIN_BOUND * GROWTH**i`` (bucket ``N_BUCKETS`` also takes zero);
    negative bucket ``N_BUCKETS - 1 - i`` counts ``-v`` in the same
    range.  The outermost bucket of each sign is its overflow bucket.
    ``counts``, ``count``, ``total``, ``vmin`` and ``vmax`` fold the
    pending observations before they answer.
    """

    __slots__ = ("name", "_counts", "_count", "_total", "_vmin", "_vmax",
                 "_pending")

    def __init__(self, name: str = ""):
        """Empty histogram ``name``."""
        self.name = name
        self._counts = [0] * (2 * N_BUCKETS)
        self._count = 0
        self._total = 0.0
        self._vmin: Optional[float] = None
        self._vmax: Optional[float] = None
        self._pending = array("d")

    @staticmethod
    def bucket_index(value: float) -> int:
        """Index into ``counts`` of the bucket that receives ``value``."""
        return int(_bucket_indices(np.array([float(value)]))[0])

    @staticmethod
    def bucket_edges(index: int) -> tuple[float, float]:
        """``(low, high)`` value edges of bucket ``index``.

        Nonnegative buckets include their high edge, negative ones their
        low edge; the overflow buckets' outer edges are ``±inf``.
        """
        return _EDGES[index], _EDGES[index + 1]

    def observe(self, value: float) -> None:
        """Buffer one observation; a full pending block is folded."""
        pending = self._pending
        pending.append(value)
        if len(pending) >= FOLD_SIZE:
            self._fold()

    def extend(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order, as if each were observed in turn."""
        self._fold()
        block = np.asarray(values, dtype=np.float64)
        if block.size:
            self._absorb(block)

    def _fold(self) -> None:
        """Fold the pending block into the buckets and aggregates."""
        pending = self._pending
        if pending:
            self._pending = array("d")
            self._absorb(np.frombuffer(pending, dtype=np.float64))

    def _absorb(self, block: np.ndarray) -> None:
        """Fold a nonempty block of observations, in order."""
        # Sequential, from the running total: bit-identical to adding
        # the values one by one (``sum`` would compensate on 3.12+).
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(
                np.add.accumulate(np.concatenate(((self._total,), block)))[-1]
            )
        self._total = total
        self._count += block.size
        # A NaN in the block makes the running total NaN, so a number
        # proves the block NaN-free without scanning it.
        nan = total != total and bool(np.isnan(block).any())
        kept = block[~np.isnan(block)] if nan else block
        if self._vmin is None:
            self._vmin = self._vmax = float(block[0])
        signed = False
        if kept.size:
            # argmin/argmax return the first occurrence, which is the
            # value a strict point-by-point comparison keeps.
            low = float(kept[kept.argmin()])
            high = float(kept[kept.argmax()])
            if low < self._vmin:
                self._vmin = low
            if high > self._vmax:
                self._vmax = high
            signed = low < 0
        index = _bucket_indices(block, signed, nan)
        added = np.bincount(index, minlength=2 * N_BUCKETS)
        occupied = np.flatnonzero(added)
        counts = self._counts
        for i, n in zip(occupied.tolist(), added[occupied].tolist()):
            counts[i] += n

    @property
    def counts(self) -> list[int]:
        """Bucket counts in ascending value order."""
        self._fold()
        return self._counts

    @property
    def count(self) -> int:
        """Number of observations."""
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observations."""
        self._fold()
        return self._total

    @property
    def vmin(self) -> Optional[float]:
        """Smallest observation, ``None`` when empty."""
        self._fold()
        return self._vmin

    @property
    def vmax(self) -> Optional[float]:
        """Largest observation, ``None`` when empty."""
        self._fold()
        return self._vmax

    @property
    def mean(self) -> Optional[float]:
        """Mean of all observations, ``None`` when empty."""
        self._fold()
        return self._total / self._count if self._count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate of quantile ``q`` (``0 <= q <= 1``), or ``None``.

        Locates the bucket where the cumulative count crosses
        ``q * count`` and interpolates linearly inside it; the result is
        clamped to the observed ``[min, max]`` so single-bucket
        histograms report exact extremes.  An overflow bucket's outer
        edge is the observed extreme, returned directly when infinite.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        self._fold()
        if self._count == 0:
            return None
        target = q * self._count
        cum = 0
        for index, n in enumerate(self._counts):
            if n == 0:
                continue
            if cum + n >= target:
                lo, hi = self.bucket_edges(index)
                if lo == -math.inf:
                    lo = self._vmin
                    if lo == -math.inf:
                        return lo
                if hi == math.inf:
                    hi = self._vmax
                    if hi == math.inf:
                        return hi
                value = lo + (target - cum) / n * (hi - lo)
                return min(max(value, self._vmin), self._vmax)
            cum += n
        return self._vmax

    def percentiles(self) -> dict:
        """The headline latency summary: p50/p90/p99/max (and count)."""
        return {
            "count": self.count,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "max": self.vmax,
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style.

        Buckets run from the first non-empty negative one (or the
        nonnegative bucket holding zero) to the last non-empty one below
        the overflow, followed by the infinity bucket, so empty
        histograms render compactly.  A negative bucket's upper bound
        is exclusive.
        """
        counts = self.counts
        occupied = [index for index, n in enumerate(counts) if n]
        out: list[tuple[float, int]] = []
        if occupied:
            cum = 0
            first = min(occupied[0], N_BUCKETS)
            last = min(occupied[-1], 2 * N_BUCKETS - 2)
            for index in range(first, last + 1):
                cum += counts[index]
                out.append((self.bucket_edges(index)[1], cum))
        out.append((math.inf, self._count))
        return out

    def state(self) -> dict:
        """JSON-serializable state for snapshots and merging."""
        self._fold()
        return {
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._total,
            "min": self._vmin,
            "max": self._vmax,
        }

    @classmethod
    def from_state(cls, name: str, state: Mapping) -> "LogHistogram":
        """Rebuild a histogram from :meth:`state` output."""
        hist = cls(name)
        hist.merge(state)
        return hist

    def merge(self, state: Mapping) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Bucket counts add, so the merge is exact: the result equals the
        histogram of both inputs' observations (``sum`` up to float
        summation order).
        """
        self._fold()
        for index, n in enumerate(state.get("counts", ())):
            self._counts[index] += int(n)
        self._count += int(state.get("count", 0))
        self._total += float(state.get("sum", 0.0))
        other_min = state.get("min")
        if other_min is not None and (
            self._vmin is None or other_min < self._vmin
        ):
            self._vmin = float(other_min)
        other_max = state.get("max")
        if other_max is not None and (
            self._vmax is None or other_max > self._vmax
        ):
            self._vmax = float(other_max)


class HistogramSet:
    """Name-keyed :class:`LogHistogram` collection with set-level merge.

    The serve tier hangs one of these off every shard (span latencies
    observed worker-side) plus one off the server (producer-side spans
    and retired shards' merged state); ``state()``/``merge()`` make the
    whole set travel like one recorder snapshot.
    """

    __slots__ = ("hists",)

    def __init__(self) -> None:
        """Start empty; histograms are created on first observe."""
        self.hists: dict[str, LogHistogram] = {}

    def observe(self, name: str, value: float) -> None:
        """Buffer ``value`` into the histogram ``name`` (created lazily)."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = LogHistogram(name)
        hist.observe(value)

    def get(self, name: str) -> Optional[LogHistogram]:
        """The histogram ``name``, or ``None`` if never observed."""
        return self.hists.get(name)

    def __bool__(self) -> bool:
        """True when at least one histogram holds observations."""
        return any(h.count for h in self.hists.values())

    def state(self) -> dict:
        """``{name: histogram state}`` for every histogram in the set."""
        return {name: hist.state() for name, hist in self.hists.items()}

    def merge(self, state: Mapping) -> None:
        """Fold another set's :meth:`state` into this one, name by name."""
        for name, hist_state in state.items():
            hist = self.hists.get(name)
            if hist is None:
                self.hists[name] = LogHistogram.from_state(name, hist_state)
            else:
                hist.merge(hist_state)

    def copy(self) -> "HistogramSet":
        """Deep copy via state round-trip (cheap: fixed-budget state)."""
        clone = HistogramSet()
        clone.merge(self.state())
        return clone
