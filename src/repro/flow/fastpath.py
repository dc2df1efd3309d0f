"""FlowExpect fast path: per-shape layouts, one assignment per step.

The reference pipeline (:func:`~repro.flow.flowexpect.flowexpect_decide`)
rebuilds an O(l²)-node :class:`networkx.DiGraph` at every simulation
step, converts it wholesale to a scaled-integer copy, and hands it to
the generic ``network_simplex``.  Profiling shows all three stages are
avoidable:

* **Shape reuse** — two FlowExpect steps with the same candidate
  count and look-ahead produce graphs that are *isomorphic*: only the
  time origin and the first-slice candidates differ.  The problem
  layout is built once per shape and each decision merely rebinds
  benefits.
* **Benefit-row memoization** — benefits come from a
  :class:`~repro.flow.prob_table.ProbTable`, so each distinct
  probability is computed once per decision (and once per *run* for
  independent models) instead of once per arc.  For framed models
  (linear trends, stationary streams) the table keys whole rows on
  frame offsets rather than times, so a warm decision reads every
  candidate's row and the step's newborn block from the memo instead
  of rebuilding them.
* **Direct solver** — the look-ahead flow has a special shape: one
  unit per cache slot, entities that never return once they leave, and
  exactly two newborns per slice after the first.  So every slice
  ``s ≥ 1`` sees exactly two entities leave (an admitted newborn
  evicts one, a rejected newborn leaves by itself) and slice 0 sees
  ``n − amount`` candidates leave.  A schedule is therefore an
  assignment of those *leave slots* to distinct entities, a slot at
  slice ``d`` open only to entities born at or before ``d``.  Leaving
  at ``d`` forfeits the entity's benefits from ``d`` on, so
  :func:`solve_leave_slots` builds that small rectangular cost matrix
  with numpy and solves it with one
  :func:`scipy.optimize.linear_sum_assignment` call.  The shared
  successive-shortest-paths :func:`~repro.flow.solver.solve_unit_flow`
  (OPT-offline's solver) over a :class:`LookaheadTemplate` stays as the
  exact fallback for costs too large for float64 (see
  :func:`solve_leave_slots`).

Decisions are *identical* to the reference path, not merely equally
good: both paths round float costs to integers with the same expression
and apply the same uid-rank tie-break perturbation (see
:func:`~repro.flow.solver.solve_min_cost_flow`), which makes the
optimal kept-set unique.  The assignment objective is that perturbed
flow cost minus a constant, so any exact solver returns the same
kept/victim split, which the equivalence suite pins seed for seed.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..core.tuples import StreamTuple, partner
from ..obs.recorder import NULL_RECORDER, Recorder
from ..streams.base import History, StreamModel
from .flowexpect import FlowExpectDecision
from .prob_table import ProbTable
from .solver import COST_SCALE, FlowGraph, solve_unit_flow

__all__ = [
    "LeaveSlots",
    "LookaheadTemplate",
    "FlowExpectFastPath",
    "flowexpect_decide_fast",
    "solve_leave_slots",
    "unit_flow_costs",
]

#: Node ids of the virtual terminals in every template.
_SRC = 0
_SINK = 1


def _born_slices(n: int, lookahead: int) -> list[int]:
    """Birth slice of each entity: ``n`` candidates, then two per slice."""
    return [0] * n + [s for s in range(1, lookahead) for _ in "RS"]


class LookaheadTemplate(FlowGraph):
    """Arc skeleton of the Section-3.1 graph for ``(n, lookahead)``.

    Entities are numbered ``0 .. n−1`` for the determined first-slice
    candidates (in candidate order) and ``n + 2(s−1) + j`` for the
    undetermined arrival of side ``"RS"[j]`` born at slice ``s ≥ 1``.
    Node ids are assigned in topological order: source, then slice by
    slice (copies before newborns, since replacement arcs run copy →
    newborn within a slice), then sink.

    A :class:`~repro.flow.solver.FlowGraph` with unit capacities.
    ``costed`` maps each benefit-carrying arc (horizontal and sink arcs)
    to the ``(entity, Δt)`` pair whose negated expected benefit at
    ``t0 + Δt`` is its cost; all other arcs cost zero.
    """

    __slots__ = ("n_candidates", "lookahead", "born", "src_arcs", "costed")

    def __init__(self, n_candidates: int, lookahead: int):
        """Precompute the graph skeleton for this problem shape."""
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if n_candidates < 1:
            raise ValueError("need at least one candidate")
        n, look = n_candidates, lookahead
        self.n_candidates = n
        self.lookahead = look
        #: Slice at which each entity first exists.
        self.born = _born_slices(n, look)
        born = self.born
        n_entities = len(born)

        node: dict[tuple[int, int], int] = {}
        topo = [_SRC]
        nid = 2
        for s in range(look):
            for newborn in (False, True):
                for e in range(n_entities):
                    if born[e] <= s and (born[e] == s) == newborn:
                        node[(e, s)] = nid
                        topo.append(nid)
                        nid += 1
        topo.append(_SINK)

        tails: list[int] = []
        heads: list[int] = []
        costed: list[tuple[int, int, int]] = []

        def add_arc(u: int, v: int) -> int:
            tails.append(u)
            heads.append(v)
            return len(tails) - 1

        self.src_arcs = [add_arc(_SRC, node[(i, 0)]) for i in range(n)]
        for s in range(1, look):
            for e in range(n_entities):
                if born[e] < s:
                    costed.append((add_arc(node[(e, s - 1)], node[(e, s)]), e, s))
            for u in range(n_entities):
                if born[u] == s:
                    for e in range(n_entities):
                        if born[e] < s:
                            add_arc(node[(e, s)], node[(u, s)])
        for e in range(n_entities):
            costed.append((add_arc(node[(e, look - 1)], _SINK), e, look))

        self.costed = costed
        super().__init__(nid, tails, heads, [1] * len(tails), topo)


def unit_flow_costs(
    template: LookaheadTemplate,
    benefit: Sequence[Sequence[float]],
    ranks: Sequence[int],
) -> list[int]:
    """Perturbed integer arc costs of ``template`` for one decision.

    ``benefit[e][s]`` is the expected benefit of holding entity ``e``
    during slice ``s`` (its costed arc at ``Δt = s + 1``); ``ranks[p]``
    is candidate ``p``'s uid rank.  Costs are shifted to make room for
    the uid-rank tie-break on the source arcs — the scheme of the
    reference solver, so both paths share one unique optimal kept-set.
    """
    n = len(ranks)
    cost = [0] * len(template.tails)
    for a, e, dt in template.costed:
        cost[a] = -(int(round(benefit[e][dt - 1] * COST_SCALE)) << n)
    for p, rank in enumerate(ranks):
        cost[template.src_arcs[p]] += 1 << rank
    return cost


class LeaveSlots(NamedTuple):
    """One optimal look-ahead schedule (see :func:`solve_leave_slots`)."""

    #: Per candidate: whether it is kept past slice 0.
    kept: list[bool]
    #: Per entity: the slice it leaves at (``lookahead`` if never).
    leave: list[int]
    #: Summed benefit of the held ``(entity, slice)`` cells.
    expected_benefit: float
    #: Whether the costs were too large for the assignment and
    #: :func:`solve_unit_flow` solved the step instead.
    fallback: bool


class _SlotShape:
    """Leave-slot layout of one ``(n, lookahead, amount)`` problem."""

    __slots__ = ("born", "alive", "slot_slice", "n_zero", "blocked", "max_cost")

    def __init__(self, n: int, lookahead: int, amount: int):
        """Lay out the slots, their blocked cells and the float64 guard."""
        if lookahead < 1 or not 0 <= amount <= n:
            raise ValueError(
                f"no leave-slot layout for n={n}, lookahead={lookahead}, "
                f"amount={amount}"
            )
        born = np.array(_born_slices(n, lookahead))
        #: ``n − amount`` slots at slice 0, then two per later slice.
        slot_slice = np.array(
            [0] * (n - amount) + _born_slices(0, lookahead), dtype=np.intp
        )
        self.born = born
        #: ``(entity, slice)`` cells at or after the entity's birth.
        self.alive = np.arange(lookahead) >= born[:, None]
        self.slot_slice = slot_slice
        self.n_zero = n - amount
        #: ``inf`` where the entity is born after the slot's slice.
        self.blocked = np.where(
            born[None, :] > slot_slice[:, None], np.inf, 0.0
        )
        # float64 holds every integer below 2**53 exactly.  The solver
        # (shortest augmenting paths, duals u = v = 0 at the start) adds
        # one row per phase.  In the phase after k rows are matched, a
        # path length is c(P) − v_j, where c(P) sums at most 2k + 1
        # costs of an alternating path; each v_j is a difference of two
        # such sums, and each matched u_i is a cost minus a v_j.  So
        # every value it forms, partial sums included, stays within
        # (14k + 9)·max|C| < 14·rows·max|C|.  The guard keeps
        # 16·rows·max|C| below 2**53, so all of its arithmetic is exact.
        self.max_cost = 2.0**53 / (16 * max(len(slot_slice), 1))


@lru_cache(maxsize=256)
def _slot_shape(n: int, lookahead: int, amount: int) -> _SlotShape:
    return _SlotShape(n, lookahead, amount)


@lru_cache(maxsize=256)
def _template(n: int, lookahead: int) -> LookaheadTemplate:
    return LookaheadTemplate(n, lookahead)


def solve_leave_slots(
    benefit: Sequence[Sequence[float]],
    lookahead: int,
    amount: int,
    ranks: Sequence[int],
) -> LeaveSlots:
    """Optimal FlowExpect schedule as a leave-slot assignment.

    ``benefit`` has one row per entity (the ``n = len(ranks)``
    candidates, then the step's
    :meth:`~repro.flow.prob_table.ProbTable.newborn_rows`), ``lookahead``
    columns, and zeros before each entity's birth slice.  ``amount`` entities
    are held at every slice; ``ranks[p]`` is candidate ``p``'s uid rank
    for the tie-break.

    With ``W = int(round(B·COST_SCALE)) << n``, slot ``d`` taken by
    entity ``e`` costs ``Σ_{s≥d} W[e][s]``, and a slice-0 slot taken by
    candidate ``p`` also gives back ``p``'s ``1 << rank`` tie-break.
    That objective is :func:`unit_flow_costs`' flow cost minus a
    constant, so its optimal kept-set is the flow's unique one.  Costs
    too large for float64 to solve exactly go to :func:`solve_unit_flow`
    on the same integer costs.
    """
    n = len(ranks)
    shape = _slot_shape(n, lookahead, amount)
    if len(benefit) != len(shape.born):
        raise ValueError(
            f"need {len(shape.born)} benefit rows, got {len(benefit)}"
        )
    b = np.fromiter(
        chain.from_iterable(benefit), float, shape.alive.size
    ).reshape(shape.alive.shape)
    # forfeit[e, d]: what leaving at slice d gives up, Σ_{s≥d} W[e][s].
    scaled = np.rint(b * COST_SCALE) * 2.0**n
    forfeit = np.cumsum(scaled[:, ::-1], axis=1)[:, ::-1]
    cost = forfeit.T[shape.slot_slice]
    cost[: shape.n_zero, :n] -= np.ldexp(1.0, ranks)
    fallback = not np.abs(cost).max(initial=0.0) < shape.max_cost
    if not fallback:
        rows, cols = linear_sum_assignment(cost + shape.blocked)
        leave = np.full(len(shape.born), lookahead)
        leave[cols] = shape.slot_slice[rows]
    else:
        template = _template(n, lookahead)
        used = solve_unit_flow(
            template, unit_flow_costs(template, benefit, ranks), amount
        )
        leave = shape.born.copy()
        for a, e, _ in template.costed:
            if used[a]:
                leave[e] += 1
    held = shape.alive & (np.arange(lookahead) < leave[:, None])
    # Summed in the reference's arc order, (Δt, entity).
    expected = sum(b.T[held.T].tolist())
    return LeaveSlots(
        kept=(leave[:n] > 0).tolist(),
        leave=leave.tolist(),
        expected_benefit=expected,
        fallback=fallback,
    )


class FlowExpectFastPath:
    """Reusable FlowExpect decision engine for one stream-model pair.

    Holds the :class:`~repro.flow.prob_table.ProbTable` that successive
    decisions share; one instance per simulation run (a fresh policy
    instance per trial keeps trials independent).

    An enabled ``recorder`` (:mod:`repro.obs`) collects per-decision
    solver work (``flow.solves``, ``flow.solver_iterations`` in flow
    units, ``flow.fallback_solves``, the ``flow.solve`` timer, the
    ``flow.solve_ms`` per-solve series) and the probability-memo
    effectiveness (``prob_table.hits`` / ``prob_table.misses`` counters
    plus the per-decision ``prob_table.hit_rate`` series); the default
    no-op recorder leaves the hot path untouched.
    """

    def __init__(
        self,
        r_model: StreamModel,
        s_model: StreamModel,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Bind the model pair and (optionally) an observability sink."""
        self._table = ProbTable(r_model, s_model)
        self._recorder = recorder
        self._hits_flushed = 0
        self._misses_flushed = 0
        if recorder.enabled:
            self._table.enable_counting()

    def decide(
        self,
        candidates: Sequence[StreamTuple],
        t0: int,
        lookahead: int,
        cache_size: int,
        r_history: Optional[History] = None,
        s_history: Optional[History] = None,
    ) -> FlowExpectDecision:
        """One FlowExpect step; mirrors ``flowexpect_decide`` exactly."""
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if not candidates:
            return FlowExpectDecision(kept=[], victims=[], expected_benefit=0.0)

        table = self._table
        table.rebind(r_history, s_history)
        n = len(candidates)
        step = table.step(t0, lookahead)
        row = table.candidate_row
        benefit = [row(step, partner(c.side), c.value) for c in candidates]
        benefit += table.newborn_rows(step)
        ranks = [0] * n
        by_uid = sorted(range(n), key=lambda p: candidates[p].uid)
        for rank, p in enumerate(by_uid):
            ranks[p] = rank

        amount = min(cache_size, n)
        rec = self._recorder
        if rec.enabled:
            solve_start = time.perf_counter()
            with rec.timer("flow.solve"):
                sol = solve_leave_slots(benefit, lookahead, amount, ranks)
            solve_ms = (time.perf_counter() - solve_start) * 1e3
            rec.count("flow.solves")
            rec.count("flow.solver_iterations", amount)
            if sol.fallback:
                rec.count("flow.fallback_solves")
            rec.series("flow.solve_ms", t0, solve_ms)
            # Flush the memo tallies accumulated since the last decision.
            table_hits, table_misses = table.hits, table.misses
            d_hits = table_hits - self._hits_flushed
            d_misses = table_misses - self._misses_flushed
            if d_hits > 0:
                rec.count("prob_table.hits", d_hits)
                self._hits_flushed = table_hits
            if d_misses > 0:
                rec.count("prob_table.misses", d_misses)
                self._misses_flushed = table_misses
            # Per-decision memo effectiveness (fraction of this step's
            # probability lookups answered from the memo).
            lookups = d_hits + d_misses
            if lookups > 0:
                rec.series("prob_table.hit_rate", t0, d_hits / lookups)
        else:
            sol = solve_leave_slots(benefit, lookahead, amount, ranks)

        return FlowExpectDecision(
            kept=[c for c, k in zip(candidates, sol.kept) if k],
            victims=[c for c, k in zip(candidates, sol.kept) if not k],
            expected_benefit=sol.expected_benefit,
        )


def flowexpect_decide_fast(
    candidates: Sequence[StreamTuple],
    t0: int,
    lookahead: int,
    cache_size: int,
    r_model: StreamModel,
    s_model: StreamModel,
    r_history: Optional[History] = None,
    s_history: Optional[History] = None,
) -> FlowExpectDecision:
    """One-shot fast-path decision (signature of ``flowexpect_decide``).

    Builds a throwaway :class:`FlowExpectFastPath`; callers deciding
    every step should hold one instance instead to reuse its tables.
    """
    return FlowExpectFastPath(r_model, s_model).decide(
        candidates, t0, lookahead, cache_size, r_history, s_history
    )
