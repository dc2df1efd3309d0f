"""Memoized probability lookups and benefit rows for the FlowExpect hot path.

Building one look-ahead problem queries ``StreamModel.prob`` and
``StreamModel.support`` for the same ``(time, value)`` pairs many times
over: every candidate sharing a join value repeats the same partner-side
``prob`` call on every slice, and every undetermined arrival repeats the
same support-weighted convolution.  Successive FlowExpect steps then
repeat most of those queries again, shifted by one step — the stream-join
caching insight (CACHEJOIN-style operators win by keeping intermediate
lookup structures alive across arrivals, not recomputing them per tuple).

:class:`ProbTable` memoizes the three primitives behind the benefits and
the two kinds of benefit row built from them.  Its keys depend on the
model pair:

* **Framed models** (:meth:`~repro.streams.base.StreamModel.frame` is an
  integer on both sides, e.g. linear trends and stationary streams)
  predict ``Pr{X_t = v} = g(v − c(t))`` for one fixed ``g``.  Every memo
  is keyed on frame offsets instead of times: ``prob`` on ``v − c(t)``,
  ``expected_match`` on ``c_p(t_p) − c_c(t_c)``, a candidate's row on
  its value's offset ``v − c(t0)`` plus the partner's frame *shape*
  ``c(t0 + k) − c(t0)``, and a step's newborn block on
  ``c_R(t0) − c_S(t0)`` plus both shapes.  A unit-speed trend has the
  same shape at every step, so after warm-up a decision reads each of
  its rows from the memo instead of rebuilding it.
* **Other models** (Markov, tabular, offline) key every primitive by
  ``(side, time, value)`` / ``(side, t_produce, t_consume)`` and build
  rows from the primitives at every step.

Either way the keys hold *under the currently bound history anchors*
(the :class:`~repro.streams.base.History` objects conditioning each
side's predictions): rebinding to a different anchor invalidates the
affected entries.  For independent models the anchor is always
``None``, so the table persists across the whole run; for Markov models
the anchor advances every step and the table still collapses the
per-arc duplication within one decision.

Every value is first computed by the *same calls* the reference graph
builder makes (``model.prob``, ``model.support``, and the summation
order of :func:`~repro.flow.graph.expected_match_prob`) at a real time
of the step that misses it.  A frame offset determines those calls'
results exactly, so memoized rows are bit-identical to freshly computed
ones — a prerequisite for the fast path's decisions matching the
reference path exactly.  Rows are tuples, shared without copies.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..core.tuples import partner
from ..streams.base import History, StreamModel, Value

__all__ = ["FrameStep", "ProbTable"]

#: Safety valve: a table growing past this many memoized entries (values,
#: supports and rows) is cleared wholesale.  Reached only by very long
#: runs of time-keyed models; correctness never depends on retention.
MAX_ENTRIES = 1 << 20

Row = tuple[float, ...]


class FrameStep(NamedTuple):
    """One decision's time window and, for framed tables, its frame key.

    Built once per step by :meth:`ProbTable.step` and shared by every
    row lookup of that step (across trials too, in the batch tier).
    """

    #: The decision time.
    t0: int
    #: Slices of the look-ahead window (the paper's ``l``).
    lookahead: int
    #: Per side, ``(c(t0), shape)`` with ``shape[k−1] = c(t0 + k) −
    #: c(t0)`` for ``k = 1 .. lookahead``; ``None`` for a time-keyed table.
    frames: Optional[dict[str, tuple[int, tuple[int, ...]]]]


class ProbTable:
    """Per-model-pair memo of probabilities, supports and benefit rows."""

    def __init__(self, r_model: StreamModel, s_model: StreamModel):
        """Empty memo over the ``R``/``S`` model pair."""
        self._models = {"R": r_model, "S": s_model}
        self._anchors: dict[str, Optional[History]] = {"R": None, "S": None}
        #: Whether both models have a frame (see the module docstring).
        self.framed = (
            r_model.frame(0) is not None and s_model.frame(0) is not None
        )
        #: (side, v − c(t)) or (side, t, v) -> Pr{X^side_t = v | anchor}
        self._prob: dict[tuple, float] = {}
        #: (side, t) -> side's joinable support at t (list of (v, p))
        self._support: dict[tuple, list[tuple[int, float]]] = {}
        #: (producer, c_p(t_p) − c_c(t_c)) or (producer, t_p, t_c) ->
        #: expected match prob
        self._emp: dict[tuple, float] = {}
        #: (partner side, v − c(t0), partner shape) -> candidate row
        self._rows: dict[tuple, Row] = {}
        #: (c_R(t0) − c_S(t0), R shape, S shape) -> newborn rows
        self._blocks: dict[tuple, tuple[Row, ...]] = {}
        #: Memo hit/miss tallies, maintained only after
        #: :meth:`enable_counting` (one predictable branch per lookup
        #: otherwise — the zero-overhead contract of :mod:`repro.obs`).
        #: Framed tables count one per row or block lookup plus one per
        #: primitive lookup made on a row or block miss; time-keyed
        #: tables count one per primitive lookup.
        self.hits = 0
        self.misses = 0
        self._counting = False

    def enable_counting(self) -> None:
        """Start tallying memo hits/misses in :attr:`hits`/:attr:`misses`.

        Called by instrumented consumers
        (:class:`~repro.flow.fastpath.FlowExpectFastPath` under an
        enabled recorder); uninstrumented lookups skip the bookkeeping.
        """
        self._counting = True

    def rebind(
        self,
        r_history: Optional[History],
        s_history: Optional[History],
    ) -> None:
        """Bind the history anchors all subsequent lookups condition on.

        Entries cached under a different anchor for a side are dropped
        (they can never be queried again: FlowExpect only conditions on
        the latest observation).  Binding the same anchors is free, which
        is what keeps the table warm across steps of independent models.
        """
        for side, history in (("R", r_history), ("S", s_history)):
            if self._anchors[side] != history:
                self._anchors[side] = history
                self._drop_side(side)

    def _drop_side(self, side: str) -> None:
        # Values, supports and candidate rows condition on one side's
        # anchor, the first element of their keys.
        self._prob = {k: v for k, v in self._prob.items() if k[0] != side}
        self._support = {
            k: v for k, v in self._support.items() if k[0] != side
        }
        self._rows = {k: v for k, v in self._rows.items() if k[0] != side}
        # Expected matches and newborn blocks condition on both sides'
        # anchors: the producer's support and the consumer's prob.
        self._emp.clear()
        self._blocks.clear()

    def _room(self) -> None:
        memos = (self._prob, self._support, self._emp, self._rows, self._blocks)
        if sum(map(len, memos)) > MAX_ENTRIES:
            for memo in memos:
                memo.clear()

    def _tally(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def prob(self, side: str, t: int, value: Value) -> float:
        """``Pr{X^side_t = value}`` under ``side``'s bound anchor."""
        if not self.framed:
            key: tuple = (side, t, value)
        elif value is None:
            key = (side, None)
        else:
            key = (side, value - self._models[side].frame(t))
        hit = self._prob.get(key)
        if self._counting:
            self._tally(hit is not None)
        if hit is None:
            self._room()
            hit = self._models[side].prob(t, value, self._anchors[side])
            self._prob[key] = hit
        return hit

    def support(self, side: str, t: int) -> list[tuple[int, float]]:
        """``side``'s joinable values at ``t`` under its bound anchor."""
        key = (side, t)
        hit = self._support.get(key)
        if self._counting:
            self._tally(hit is not None)
        if hit is None:
            self._room()
            hit = self._models[side].support(t, self._anchors[side])
            self._support[key] = hit
        return hit

    def expected_match(
        self, producer_side: str, t_produce: int, t_consume: int
    ) -> float:
        """Expected benefit of an undetermined ``producer_side`` arrival.

        Matches :func:`repro.flow.graph.expected_match_prob` term for
        term (same support order, same accumulation order), so the result
        is bit-identical to the reference computation.
        """
        consumer = partner(producer_side)
        if self.framed:
            key: tuple = (
                producer_side,
                self._models[producer_side].frame(t_produce)
                - self._models[consumer].frame(t_consume),
            )
        else:
            key = (producer_side, t_produce, t_consume)
        hit = self._emp.get(key)
        if self._counting:
            self._tally(hit is not None)
        if hit is None:
            self._room()
            total = 0.0
            for v, p in self.support(producer_side, t_produce):
                if p:
                    total += p * self.prob(consumer, t_consume, v)
            self._emp[key] = total
            hit = total
        return hit

    def step(self, t0: int, lookahead: int) -> FrameStep:
        """The frame key of the decision at ``t0`` over ``lookahead`` slices."""
        if not self.framed:
            return FrameStep(t0, lookahead, None)
        frames = {}
        for side, model in self._models.items():
            frame = model.frame
            c0, *later = [frame(t) for t in range(t0, t0 + lookahead + 1)]
            frames[side] = (c0, tuple([c - c0 for c in later]))
        return FrameStep(t0, lookahead, frames)

    def candidate_row(self, step: FrameStep, side: str, value: Value) -> Row:
        """Benefit row of a determined candidate whose partner is ``side``.

        Slice ``s`` holds the probability that ``side`` produces
        ``value`` at ``t0 + s + 1``.
        """
        times = range(step.t0 + 1, step.t0 + step.lookahead + 1)
        if step.frames is None:
            return tuple([self.prob(side, t, value) for t in times])
        c0, shape = step.frames[side]
        key = (side, None if value is None else value - c0, shape)
        row = self._rows.get(key)
        if self._counting:
            self._tally(row is not None)
        if row is None:
            self._room()
            row = tuple([self.prob(side, t, value) for t in times])
            self._rows[key] = row
        return row

    def newborn_rows(self, step: FrameStep) -> tuple[Row, ...]:
        """Benefit rows of the step's undetermined arrivals, in entity order.

        The row of the side-``"RS"[j]`` arrival born at slice ``b`` holds
        its expected match probability at ``t0 + s + 1`` for ``s ≥ b``
        and zero before its birth.  The rows depend only on the step,
        not on the candidates, so one step's deciders can share them.
        """
        if step.frames is None:
            return self._build_newborn_rows(step)
        (c_r, shape_r), (c_s, shape_s) = step.frames["R"], step.frames["S"]
        key = (c_r - c_s, shape_r, shape_s)
        block = self._blocks.get(key)
        if self._counting:
            self._tally(block is not None)
        if block is None:
            self._room()
            block = self._build_newborn_rows(step)
            self._blocks[key] = block
        return block

    def _build_newborn_rows(self, step: FrameStep) -> tuple[Row, ...]:
        emp = self.expected_match
        t0, look = step.t0, step.lookahead
        return tuple(
            (0.0,) * b
            + tuple([emp(side, t0 + b, t0 + dt) for dt in range(b + 1, look + 1)])
            for b in range(1, look)
            for side in "RS"
        )
