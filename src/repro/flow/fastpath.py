"""FlowExpect fast path: template-reused graphs, direct min-cost flow.

The reference pipeline (:func:`~repro.flow.flowexpect.flowexpect_decide`)
rebuilds an O(l²)-node :class:`networkx.DiGraph` at every simulation
step, converts it wholesale to a scaled-integer copy, and hands it to
the generic ``network_simplex``.  Profiling shows all three stages are
avoidable:

* **Template reuse** — two FlowExpect steps with the same candidate
  count and look-ahead produce graphs that are *isomorphic*: only the
  time origin and the first-slice candidates differ.
  :class:`LookaheadTemplate` builds the arc skeleton (tails, heads,
  residual adjacency, topological order) once per ``(n_candidates,
  lookahead)`` pair; each decision merely rebinds arc costs.
* **Probability memoization** — arc costs come from a
  :class:`~repro.flow.prob_table.ProbTable`, so each distinct
  probability is computed once per decision (and once per *run* for
  independent models) instead of once per arc.
* **Direct solver** — the layered look-ahead DAG has unit capacities
  and integral (scaled) costs, so ``amount`` rounds of successive
  shortest paths — one plain array-based Dijkstra with Johnson
  potentials per unit — replace the generic simplex.

Decisions are *identical* to the reference path, not merely equally
good: both paths round float costs to integers with the same expression
and apply the same uid-rank tie-break perturbation (see
:func:`~repro.flow.solver.solve_min_cost_flow`), which makes the
optimal kept-set unique.  Any exact solver therefore returns the same
kept/victim split, which the equivalence suite pins seed for seed.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Optional, Sequence

from ..core.tuples import StreamTuple, partner
from ..obs.recorder import NULL_RECORDER, Recorder
from ..streams.base import History, StreamModel
from .flowexpect import FlowExpectDecision
from .prob_table import ProbTable
from .solver import COST_SCALE

__all__ = [
    "LookaheadTemplate",
    "FlowExpectFastPath",
    "flowexpect_decide_fast",
    "solve_unit_flow",
]

#: Node ids of the virtual terminals in every template.
_SRC = 0
_SINK = 1


class LookaheadTemplate:
    """Arc skeleton of the Section-3.1 graph for ``(n, lookahead)``.

    Entities are numbered ``0 .. n−1`` for the determined first-slice
    candidates (in candidate order) and ``n + 2(s−1) + j`` for the
    undetermined arrival of side ``"RS"[j]`` born at slice ``s ≥ 1``.
    Node ids are assigned in topological order: source, then slice by
    slice (copies before newborns, since replacement arcs run copy →
    newborn within a slice), then sink.

    Arc ``a`` runs ``tails[a] → heads[a]`` with unit capacity; residual
    arc ids are ``2a`` (forward) and ``2a+1`` (backward).  ``costed``
    maps each benefit-carrying arc (horizontal and sink arcs) to the
    ``(entity, Δt)`` pair whose negated expected benefit at ``t0 + Δt``
    is its cost; all other arcs cost zero.
    """

    __slots__ = (
        "n_candidates",
        "lookahead",
        "n_nodes",
        "born",
        "tails",
        "heads",
        "out_arcs",
        "adj",
        "topo",
        "src_arcs",
        "costed",
    )

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
        self.born = [0] * n + [s for s in range(1, look) for _ in "RS"]
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
        self.n_nodes = nid
        self.topo = topo

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

        self.tails = tails
        self.heads = heads
        self.costed = costed
        self.out_arcs: list[list[int]] = [[] for _ in range(nid)]
        self.adj: list[list[int]] = [[] for _ in range(nid)]
        for a, (u, v) in enumerate(zip(tails, heads)):
            self.out_arcs[u].append(a)
            self.adj[u].append(2 * a)
            self.adj[v].append(2 * a + 1)


def solve_unit_flow(
    template: LookaheadTemplate, cost: list[int], amount: int
) -> list[bool]:
    """Min-cost flow of ``amount`` units on the template's unit-cap DAG.

    Successive shortest paths: the first path is found by relaxation in
    topological order (the graph is a DAG with negative arcs), later
    paths by Dijkstra over the residual network with Johnson potentials
    keeping reduced costs nonnegative.  Exact on integer costs.

    Returns a per-forward-arc "carries flow" mask; raises
    :class:`RuntimeError` when the DAG cannot carry ``amount`` units.
    """
    tails, heads, adj = template.tails, template.heads, template.adj
    n_nodes = template.n_nodes
    cap = [1, 0] * len(tails)
    pot = [0] * n_nodes
    inf = float("inf")

    for iteration in range(amount):
        dist: list = [inf] * n_nodes
        par = [-1] * n_nodes
        dist[_SRC] = 0
        if iteration == 0:
            for u in template.topo:
                du = dist[u]
                if du is inf:
                    continue
                for a in template.out_arcs[u]:
                    v = heads[a]
                    nd = du + cost[a]
                    if nd < dist[v]:
                        dist[v] = nd
                        par[v] = 2 * a
        else:
            done = [False] * n_nodes
            heap: list[tuple] = [(0, _SRC)]
            while heap:
                d, u = heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                if u == _SINK:
                    break
                pot_u = pot[u]
                for r in adj[u]:
                    if not cap[r]:
                        continue
                    a = r >> 1
                    if r & 1:
                        v, rc = tails[a], -cost[a]
                    else:
                        v, rc = heads[a], cost[a]
                    if done[v]:
                        continue
                    nd = d + rc + pot_u - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        par[v] = r
                        heappush(heap, (nd, v))
        d_sink = dist[_SINK]
        if d_sink is inf:
            raise RuntimeError(
                f"lookahead DAG cannot carry {amount} flow units"
            )
        if iteration == 0:
            # Distances are exact for every node (the DAG pass has no
            # early exit) and arc costs are negative, so the potentials
            # must be the distances themselves — capping at the sink
            # distance is only sound once reduced costs are nonnegative.
            for v in range(n_nodes):
                dv = dist[v]
                pot[v] = dv if dv is not inf else d_sink
        else:
            # Dijkstra may stop at the sink: nodes not yet finalized
            # carry upper-bound labels ≥ the sink distance, and the
            # standard cap keeps the reduced-cost invariant intact.
            for v in range(n_nodes):
                dv = dist[v]
                pot[v] += dv if dv < d_sink else d_sink

        v = _SINK
        while v != _SRC:
            r = par[v]
            cap[r] -= 1
            cap[r ^ 1] += 1
            v = heads[r >> 1] if r & 1 else tails[r >> 1]

    return [cap[2 * a] == 0 for a in range(len(tails))]


class FlowExpectFastPath:
    """Reusable FlowExpect decision engine for one stream-model pair.

    Holds the :class:`~repro.flow.prob_table.ProbTable` and the template
    cache that successive decisions share; one instance per simulation
    run (a fresh policy instance per trial keeps trials independent).

    An enabled ``recorder`` (:mod:`repro.obs`) collects per-decision
    solver work (``flow.solves``, ``flow.solver_iterations``, the
    ``flow.solve`` timer, the ``flow.solve_ms`` per-solve series) and
    the probability-memo effectiveness (``prob_table.hits`` /
    ``prob_table.misses`` counters plus the per-decision
    ``prob_table.hit_rate`` series); the default no-op recorder leaves
    the hot path untouched.
    """

    def __init__(
        self,
        r_model: StreamModel,
        s_model: StreamModel,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Bind the model pair and (optionally) an observability sink."""
        self._table = ProbTable(r_model, s_model)
        self._templates: dict[tuple[int, int], LookaheadTemplate] = {}
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
        template = self._templates.get((n, lookahead))
        if template is None:
            template = LookaheadTemplate(n, lookahead)
            self._templates[(n, lookahead)] = template

        # Rebind arc costs: one memoized probability per costed arc.
        partner_sides = [partner(c.side) for c in candidates]
        born = template.born
        cost_float = [0.0] * len(template.tails)
        for a, e, dt in template.costed:
            if e < n:
                benefit = table.prob(
                    partner_sides[e], t0 + dt, candidates[e].value
                )
            else:
                benefit = table.expected_match(
                    "RS"[(e - n) % 2], t0 + born[e], t0 + dt
                )
            cost_float[a] = -benefit

        # Integer costs, shifted to make room for the uid-rank tie-break
        # perturbation on the source arcs — the same scheme the reference
        # solver applies, so both paths share one unique optimal kept-set.
        cost_int = [
            int(round(w * COST_SCALE)) << n for w in cost_float
        ]
        by_uid = sorted(range(n), key=lambda p: candidates[p].uid)
        for rank, p in enumerate(by_uid):
            cost_int[template.src_arcs[p]] += 1 << rank

        amount = min(cache_size, n)
        rec = self._recorder
        if rec.enabled:
            solve_start = time.perf_counter()
            with rec.timer("flow.solve"):
                used = solve_unit_flow(template, cost_int, amount)
            solve_ms = (time.perf_counter() - solve_start) * 1e3
            rec.count("flow.solves")
            rec.count("flow.solver_iterations", amount)
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
            used = solve_unit_flow(template, cost_int, amount)

        kept_mask = [used[template.src_arcs[p]] for p in range(n)]
        benefit = -sum(
            w for a, w in enumerate(cost_float) if used[a] and w
        )
        return FlowExpectDecision(
            kept=[c for c, k in zip(candidates, kept_mask) if k],
            victims=[c for c, k in zip(candidates, kept_mask) if not k],
            expected_benefit=benefit,
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
