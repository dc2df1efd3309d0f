"""Bounded-memory per-step time series: buffers, histograms, sparklines.

PR 4's counters answer "how many evictions happened?"; the questions the
paper's figures actually pose — *when* does HEEB's hit rate converge to
FlowExpect's, *how* does occupancy settle after warm-up, *is* the
per-solve FlowExpect latency drifting — need values over time.  Storing
every ``(t, value)`` point is not an option for million-step streams, so
this module provides the standard streaming-telemetry shape (cf. the
sketch-based monitoring literature): every series is folded into a
fixed-size state no matter how many points it receives.

Two pieces compose into :class:`TimeSeries`, the per-series state held
by :class:`~repro.obs.recorder.CounterRecorder`:

* a :class:`~repro.obs.hist.LogHistogram` holding the exact count, sum,
  min and max plus log-spaced bucket counts, which answer any quantile
  to within one factor-2 bucket and merge exactly across engines,
  worker processes and serve shards;
* :class:`SeriesBuffer`, a fixed-budget downsampling buffer: it keeps
  every ``stride``-th point and doubles the stride (thinning in place)
  whenever the budget fills, so the retained shape always spans the full
  run at uniform resolution.

Recording a point is one buffered append: :meth:`TimeSeries.add` puts
``t`` and the value on a pending block of at most
:data:`~repro.obs.hist.FOLD_SIZE` points.  The block is folded into the
buffer (one strided slice per stride doubling) and the histogram (the
same bulk routine :meth:`LogHistogram.observe` uses) when it fills and
before any read — ``last``, ``buffer``, ``hist``, the aggregates,
``snapshot`` and ``merge`` — so a live scrape or a merge sees every
point recorded so far, and the folded state is exactly the one
point-by-point folding would build.

Memory per series is therefore bounded by ``2 × buffer budget`` points
plus one pending block, regardless of stream length.  Both pieces are
*deterministic* in the order points arrive, which is what lets the
batch engine reproduce a scalar run's series bit for bit (it replays
its arrays in the same trial-major order); the histogram is also
order-free, so a parallel run's merged series answers every quantile
exactly as the scalar run's.

:func:`sparkline` renders any value sequence as a fixed-width Unicode
strip for the ``python -m repro.obs report --series`` tables.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Optional, Sequence

from .hist import FOLD_SIZE, LogHistogram

__all__ = [
    "DEFAULT_BUFFER_BUDGET",
    "SeriesBuffer",
    "TimeSeries",
    "sparkline",
]

#: Default point budget of a :class:`SeriesBuffer` (~8 KB per series).
DEFAULT_BUFFER_BUDGET = 512

#: Unicode blocks used by :func:`sparkline`, lowest to highest.
_BLOCKS = "▁▂▃▄▅▆▇█"


class SeriesBuffer:
    """Fixed-budget downsampling buffer of ``(t, value)`` points.

    Keeps every ``stride``-th offered point; when the retained list hits
    the budget it is thinned in place (every other point) and the stride
    doubles.  Retained points therefore always include the first point
    and span the run at uniform resolution, and the sequence of retained
    points is a deterministic function of the offered sequence — the
    property behind exact scalar/batch series parity.
    """

    __slots__ = ("budget", "stride", "offered", "points")

    def __init__(self, budget: int = DEFAULT_BUFFER_BUDGET):
        """Retain at most ``budget`` points (``budget >= 4``)."""
        if budget < 4:
            raise ValueError("budget must be >= 4")
        self.budget = budget
        self.stride = 1
        self.offered = 0
        self.points: list[tuple[int, float]] = []

    def add(self, t: int, value: float) -> None:
        """Offer one point; retained iff it falls on the current stride."""
        self.extend((t,), (value,))

    def extend(self, times: Sequence[int], values: Sequence[float]) -> None:
        """Offer ``zip(times, values)`` in order, as :meth:`add` would
        point by point: one strided slice per stride doubling."""
        n = len(values)
        budget = self.budget
        points = self.points
        stride = self.stride
        offered = self.offered
        pos = -offered % stride  # first block index on the stride
        while pos < n:
            taken = min(budget - len(points), (n - 1 - pos) // stride + 1)
            stop = pos + (taken - 1) * stride + 1
            points.extend(zip(times[pos:stop:stride], values[pos:stop:stride]))
            if len(points) < budget:
                break
            # Kept points sit at offered indices 0, s, 2s, ...; dropping
            # every other one leaves multiples of 2s, so the doubled
            # stride continues the pattern seamlessly.
            points = points[::2]
            stride *= 2
            pos = stop + -(offered + stop) % stride
        self.points = points
        self.stride = stride
        self.offered = offered + n

    def state(self) -> dict:
        """JSON-serializable state for snapshots and merging."""
        return {
            "budget": self.budget,
            "stride": self.stride,
            "offered": self.offered,
            "points": [[t, v] for t, v in self.points],
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "SeriesBuffer":
        """Rebuild a buffer from :meth:`state` output."""
        buf = cls(int(state.get("budget", DEFAULT_BUFFER_BUDGET)))
        buf.stride = int(state.get("stride", 1))
        buf.offered = int(state.get("offered", 0))
        buf.points = [(int(t), float(v)) for t, v in state.get("points", ())]
        return buf

    def merge(self, state: Mapping) -> None:
        """Fold another buffer's :meth:`state` into this one.

        Points are interleaved by time and re-thinned to the budget.
        After a merge the buffer is a representative sample of both
        inputs (worker trials overlap in ``t``), not an exact replay —
        the exact aggregates live in the :class:`TimeSeries` histogram.
        """
        other_points = [(int(t), float(v)) for t, v in state.get("points", ())]
        if not other_points:
            self.offered += int(state.get("offered", 0))
            return
        combined = sorted(self.points + other_points, key=lambda p: p[0])
        stride = max(self.stride, int(state.get("stride", 1)))
        while len(combined) >= self.budget:
            combined = combined[::2]
            stride *= 2
        self.points = combined
        self.stride = stride
        self.offered += int(state.get("offered", 0))


class TimeSeries:
    """Bounded-memory aggregate of one named per-step gauge.

    A :class:`~repro.obs.hist.LogHistogram` (exact count/sum/min/max,
    quantiles within one factor-2 bucket, exact merge), a
    :class:`SeriesBuffer` for shape, and the latest point.  Points wait
    in one pending block that every read folds first.
    """

    __slots__ = ("name", "_last_t", "_last", "_buffer", "_hist", "_times",
                 "_values")

    def __init__(self, name: str, budget: int = DEFAULT_BUFFER_BUDGET):
        """Empty series ``name`` retaining at most ``budget`` points."""
        self.name = name
        self._last_t: Optional[int] = None
        self._last: Optional[float] = None
        self._buffer = SeriesBuffer(budget)
        self._hist = LogHistogram(name)
        self._times = array("q")
        self._values = array("d")

    def add(self, t: int, value: float) -> None:
        """Buffer the point ``(t, value)``; a full pending block is folded."""
        values = self._values
        values.append(value)
        self._times.append(t)
        if len(values) >= FOLD_SIZE:
            self._fold()

    def _fold(self) -> None:
        """Fold the pending block into the latest point, buffer and
        histogram."""
        values = self._values
        if values:
            times = self._times
            self._times, self._values = array("q"), array("d")
            self._last_t = times[-1]
            self._last = values[-1]
            self._buffer.extend(times, values)
            self._hist.extend(values)

    @property
    def last_t(self) -> Optional[int]:
        """Step of the latest point, ``None`` when empty."""
        self._fold()
        return self._last_t

    @property
    def last(self) -> Optional[float]:
        """Value of the latest point, ``None`` when empty."""
        self._fold()
        return self._last

    @property
    def buffer(self) -> SeriesBuffer:
        """The downsampling buffer, every point folded in."""
        self._fold()
        return self._buffer

    @property
    def hist(self) -> LogHistogram:
        """The histogram, every point folded in."""
        self._fold()
        return self._hist

    @property
    def count(self) -> int:
        """Number of points folded in."""
        return self.hist.count

    @property
    def total(self) -> float:
        """Sum of all points."""
        return self.hist.total

    @property
    def vmin(self) -> Optional[float]:
        """Smallest point, ``None`` when empty."""
        return self.hist.vmin

    @property
    def vmax(self) -> Optional[float]:
        """Largest point, ``None`` when empty."""
        return self.hist.vmax

    @property
    def mean(self) -> Optional[float]:
        """Mean of all points, ``None`` when empty."""
        return self.hist.mean

    def quantile(self, q: float) -> Optional[float]:
        """Quantile ``q`` in ``[0, 1]`` to within one factor-2 bucket."""
        return self.hist.quantile(q)

    def snapshot(self) -> dict:
        """Plain-dict view: aggregates, buffer state, histogram state."""
        hist = self.hist
        return {
            "count": hist.count,
            "sum": hist.total,
            "min": hist.vmin,
            "max": hist.vmax,
            "last_t": self._last_t,
            "last": self._last,
            "buffer": self._buffer.state(),
            "hist": hist.state(),
        }

    @classmethod
    def from_state(cls, name: str, state: Mapping) -> "TimeSeries":
        """Rebuild a series from :meth:`snapshot` output."""
        series = cls(name)
        series._last_t = state.get("last_t")
        series._last = state.get("last")
        series._buffer = SeriesBuffer.from_state(state.get("buffer", {}))
        series._hist = LogHistogram.from_state(name, state.get("hist", {}))
        return series

    def merge(self, state: Mapping) -> None:
        """Fold another series' :meth:`snapshot` into this one.

        The histogram merges exactly; the buffer interleaves.  The
        merged ``last`` is the point with the larger ``t`` (ties keep
        ours), which makes the merge of same-shaped worker series
        deterministic.
        """
        self._fold()
        other_t = state.get("last_t")
        if other_t is not None and (
            self._last_t is None or other_t > self._last_t
        ):
            self._last_t = int(other_t)
            last = state.get("last")
            self._last = float(last) if last is not None else None
        self._buffer.merge(state.get("buffer", {}))
        self._hist.merge(state.get("hist", {}))


def sparkline(values: Iterable[float], width: int = 48) -> str:
    """Render values as a fixed-width Unicode block strip.

    Longer sequences are bucket-averaged down to ``width`` cells;
    shorter ones use one cell per value.  A constant (or empty) series
    renders as a flat mid-height strip so tables stay aligned.
    """
    data = [float(v) for v in values]
    if not data:
        return ""
    if len(data) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(data) // width
            hi = max(lo + 1, (i + 1) * len(data) // width)
            chunk = data[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        data = bucketed
    vmin = min(data)
    vmax = max(data)
    if vmax - vmin <= 0:
        return _BLOCKS[3] * len(data)
    scale = (len(_BLOCKS) - 1) / (vmax - vmin)
    return "".join(_BLOCKS[int((v - vmin) * scale + 0.5)] for v in data)
