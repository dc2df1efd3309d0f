"""PROB: discard the tuple least likely to join, by observed frequency.

PROB (Das, Gehrke, Riedewald [8]) estimates a tuple's match probability
from the historical frequency of its join value in the partner stream and
evicts the least frequent.  Section 5.2 proves this is optimal for
stationary, independent streams; Section 6.3 shows it fails under trends
because "the past is used to predict the future in a simplistic manner".

On the caching problem the same rule counts value frequencies in the
reference stream, which is exactly perfect LFU (the paper labels the REAL
experiment's variant "PROB (essentially LFU in this case)").

With a window oracle, dead tuples are evicted first (Section 6.2).

Frequency state is exact by default (an unbounded ``Counter``); the
``counts="sketch"`` / ``counts="tinylfu"`` knobs swap in the bounded
:mod:`repro.sketch` back-ends so PROB/LFU scale to value domains far
larger than memory -- estimates can then over-count (count-min is
one-sided), which is the documented exact-vs-sketch parity caveat.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional, Union

from ..core.tuples import StreamTuple
from ..sketch import CountMinSketch, TinyLfuFilter
from .base import PolicyContext, ScoredPolicy

__all__ = ["ProbPolicy"]

#: Score penalty that forces window-dead tuples below every live tuple.
_DEAD_PENALTY = 1e18


class _ExactCounts(Counter):
    """Unbounded exact counter speaking the sketch increment protocol."""

    def increment(self, value, by: int = 1) -> None:
        """Add ``by`` occurrences of ``value``."""
        self[value] += by


#: Shared empty counter so multi-join frequency lookups on streams with
#: no recorded arrivals allocate nothing.
_EMPTY_COUNTER: _ExactCounts = _ExactCounts()

_Counts = Union[_ExactCounts, CountMinSketch, TinyLfuFilter]

_COUNT_MODES = ("exact", "sketch", "tinylfu")


class ProbPolicy(ScoredPolicy):
    name = "PROB"

    def __init__(
        self,
        counts: str = "exact",
        sketch_width: int = 2048,
        sketch_depth: int = 4,
        sample_size: Optional[int] = None,
    ) -> None:
        """``counts`` selects the frequency back-end.

        ``"exact"`` (default) keeps the byte-identical ``Counter`` path;
        ``"sketch"`` backs counts with a :class:`CountMinSketch` and
        ``"tinylfu"`` with a :class:`TinyLfuFilter` (doorkeeper +
        periodic halving), both in O(width x depth) memory.
        """
        if counts not in _COUNT_MODES:
            raise ValueError(
                f"counts must be one of {_COUNT_MODES}, got {counts!r}"
            )
        self.counts = counts
        self._sketch_width = sketch_width
        self._sketch_depth = sketch_depth
        self._sample_size = sample_size
        # Per-stream frequency counters and history cursors, keyed by
        # stream name (one counter per context stream at reset).
        self._counts: dict[str, _Counts] = {}
        self._consumed: dict[str, int] = {}

    def _make_counts(self) -> _Counts:
        if self.counts == "sketch":
            return CountMinSketch(
                width=self._sketch_width, depth=self._sketch_depth
            )
        if self.counts == "tinylfu":
            return TinyLfuFilter(
                width=self._sketch_width,
                depth=self._sketch_depth,
                sample_size=self._sample_size,
            )
        return _ExactCounts()

    def reset(self, ctx: PolicyContext) -> None:
        self._counts = {name: self._make_counts() for name in ctx.histories}
        self._consumed = {}

    def _sync_counts(self, ctx: PolicyContext) -> None:
        """Fold newly observed history entries into the frequency counters.

        Each stream's consumption is tracked with its own cursor: the
        simulators feed equal-length histories, but replayed contexts
        may not, and a single shared cursor would silently skip the
        entries of a longer history forever.
        """
        consumed = False
        for name, history in ctx.histories.items():
            start = self._consumed.get(name, 0)
            n = len(history)
            if n > start:
                counts = self._counts.get(name)
                if counts is None:
                    counts = self._counts[name] = self._make_counts()
                for t in range(start, n):
                    v = history[t]
                    if v is not None:
                        counts.increment(v)
                consumed = True
                self._consumed[name] = n
        if consumed and self.counts != "exact" and ctx.recorder.enabled:
            ctx.recorder.series("sketch.fill", ctx.time, self._sketch_fill())

    def _sketch_fill(self) -> float:
        """Mean fill ratio over the sketches that have absorbed events."""
        fills = [
            sk.fill_ratio()
            for sk in self._counts.values()
            if not isinstance(sk, _ExactCounts) and sk.total > 0
        ]
        return sum(fills) / len(fills) if fills else 0.0

    def sketch_memory_bytes(self) -> int:
        """Bytes held by the sketch back-ends (0 in exact mode)."""
        return sum(
            sk.memory_bytes()
            for sk in self._counts.values()
            if not isinstance(sk, _ExactCounts)
        )

    # -- merge-on-reshard -----------------------------------------------
    def sketch_state(self) -> Optional[dict[str, Any]]:
        """Admission filter plus (in sketch modes) the frequency state."""
        state = super().sketch_state() or {}
        if self.counts != "exact":
            state["counts"] = {
                "mode": self.counts,
                "streams": dict(self._counts),
            }
        return state or None

    def merge_sketch_state(self, state: Optional[dict[str, Any]]) -> None:
        """Fold a retiring policy's sketches into this one's."""
        super().merge_sketch_state(state)
        if not state:
            return
        donor = state.get("counts")
        if donor is None or self.counts == "exact":
            return
        if donor.get("mode") != self.counts:
            return
        for name, counts in donor["streams"].items():
            mine = self._counts.setdefault(name, self._make_counts())
            if mine is not counts:
                mine.merge(counts)

    def frequency(self, tup: StreamTuple, ctx: PolicyContext) -> int:
        """Observed occurrences of the tuple's value in the stream it matches.

        A tuple matches arrivals of *every* partner stream, so its
        frequency sums the partner counts: the other side of a binary
        join, the reference stream R for cached database tuples.
        """
        total = 0
        for name in ctx.partner_names.get(tup.side, ()):
            total += self._counts.get(name, _EMPTY_COUNTER)[tup.value]
        return total

    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        self._sync_counts(ctx)
        score = float(self.frequency(tup, ctx))
        oracle = ctx.window_oracle
        if oracle is not None and oracle.is_dead(tup, ctx.time):
            score -= _DEAD_PENALTY
        return score
