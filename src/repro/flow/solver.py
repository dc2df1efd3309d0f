"""Min-cost-flow solving: one exact flat-graph solver, one networkx reference.

:func:`solve_unit_flow` (successive shortest paths on a :class:`FlowGraph`)
solves OPT-offline's tuple-chain graph (:mod:`repro.flow.opt_offline`)
and, when the leave-slot costs are too large for float64, the FlowExpect
fast path's look-ahead template (:mod:`repro.flow.fastpath`).

:func:`solve_min_cost_flow` is the FlowExpect reference pipeline's
solver (``fast=False``).  The paper uses Goldberg's scaling algorithm
[9]; the reference substitutes networkx's network simplex, which
computes the same optimum.  Network simplex requires integer arc weights
for exact arithmetic, while FlowExpect's arc costs are negated
probabilities, so costs are scaled by a fixed factor and rounded; the
returned objective is recomputed from the original float weights.

Rounding float weights to integers independently per arc can create
*ties*: distinct flows whose true costs differ below the rounding
granularity (or genuinely equal-cost optima) leave the simplex free to
return either one, and which one it picks is an implementation detail
that has flipped across platforms.  ``tie_break_arcs`` makes the optimum
unique: the scaled integer costs are left-shifted by the number of listed
arcs and arc ``i`` of the list gains a ``2^i`` perturbation.  Every unit
of flow crosses at most one listed arc, so the perturbation total stays
below one un-shifted cost unit — the perturbed optimum is still an
optimum of the rounded problem — and because subset sums of distinct
powers of two are distinct, exactly one optimal flow pattern over the
listed arcs survives.  FlowExpect lists its source arcs in candidate-uid
order, which both makes its kept-set deterministic (prefer keeping
lower-uid candidates among ties) and lets the direct fast-path solver
(:mod:`repro.flow.fastpath`) reproduce the reference decision exactly.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Sequence

import networkx as nx

__all__ = ["COST_SCALE", "FlowGraph", "solve_min_cost_flow", "solve_unit_flow"]

#: Float costs are multiplied by this and rounded to integers before
#: solving.  1e9 keeps probabilities' precision comfortably above the
#: rounding granularity while staying far from int64 overflow.
COST_SCALE = 10**9


def solve_min_cost_flow(
    graph: nx.DiGraph,
    source,
    sink,
    amount: int,
    cost_scale: int = COST_SCALE,
    tie_break_arcs: Optional[Sequence[tuple]] = None,
) -> tuple[dict, float]:
    """Push ``amount`` units from ``source`` to ``sink`` at minimum cost.

    Arcs carry ``capacity`` (int) and ``weight`` (float) attributes.
    Returns ``(flow_dict, cost)`` where ``flow_dict[u][v]`` is the integer
    flow on arc ``(u, v)`` and ``cost`` is the total cost under the
    original float weights.

    ``tie_break_arcs`` optionally lists ``(u, v)`` arcs, most preferred
    first, whose flow pattern breaks ties between equal-cost optima (see
    the module docstring); listed arcs must each lie on at most one unit
    of any source-sink flow.  The reported cost ignores the perturbation.
    """
    if amount < 0:
        raise ValueError("flow amount must be nonnegative")
    if amount == 0:
        return {u: {v: 0 for v in graph.successors(u)} for u in graph}, 0.0

    shift = len(tie_break_arcs) if tie_break_arcs else 0
    scaled = nx.DiGraph()
    scaled.add_nodes_from(graph.nodes)
    for u, v, data in graph.edges(data=True):
        scaled.add_edge(
            u,
            v,
            capacity=int(data.get("capacity", 1)),
            weight=int(round(float(data.get("weight", 0.0)) * cost_scale))
            << shift,
        )
    if tie_break_arcs:
        for i, (u, v) in enumerate(tie_break_arcs):
            scaled[u][v]["weight"] += 1 << i
    scaled.nodes[source]["demand"] = -amount
    scaled.nodes[sink]["demand"] = amount

    _, flow_dict = nx.network_simplex(scaled)

    cost = 0.0
    for u, flows in flow_dict.items():
        for v, f in flows.items():
            if f:
                cost += f * float(graph[u][v].get("weight", 0.0))
    return flow_dict, cost


class FlowGraph:
    """A DAG as flat arc arrays, the input of :func:`solve_unit_flow`.

    Arc ``a`` runs ``tails[a] → heads[a]`` with integer ``capacity[a]``;
    ``topo`` lists all ``n_nodes`` nodes in a topological order, source
    first and sink last.  ``out_arcs[u]`` lists ``u``'s arcs and
    ``adj[u]`` its residual arcs: ``2a`` forward, ``2a+1`` backward.
    """

    __slots__ = ("n_nodes", "tails", "heads", "capacity", "topo", "out_arcs", "adj")

    def __init__(
        self,
        n_nodes: int,
        tails: list[int],
        heads: list[int],
        capacity: list[int],
        topo: list[int],
    ):
        """Bind the arc arrays and derive both adjacency lists."""
        self.n_nodes = n_nodes
        self.tails = tails
        self.heads = heads
        self.capacity = capacity
        self.topo = topo
        self.out_arcs: list[list[int]] = [[] for _ in range(n_nodes)]
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for a, (u, v) in enumerate(zip(tails, heads)):
            self.out_arcs[u].append(a)
            self.adj[u].append(2 * a)
            self.adj[v].append(2 * a + 1)


def solve_unit_flow(graph: FlowGraph, cost: list[int], amount: int) -> list[int]:
    """Min-cost flow of ``amount`` units from source to sink of ``graph``.

    Successive shortest paths: the first path is found by relaxation in
    topological order (the graph is a DAG with negative arcs), later
    paths by Dijkstra over the residual network with Johnson potentials
    keeping reduced costs nonnegative.  Each path carries its bottleneck
    residual capacity.  Exact on integer costs.

    Returns the flow on every arc; raises :class:`RuntimeError` when the
    DAG cannot carry ``amount`` units.
    """
    tails, heads, adj = graph.tails, graph.heads, graph.adj
    n_nodes = graph.n_nodes
    src, sink = graph.topo[0], graph.topo[-1]
    cap = [0] * (2 * len(tails))
    cap[::2] = graph.capacity
    pot = [0] * n_nodes
    inf = float("inf")
    pushed = 0
    first = True

    while pushed < amount:
        dist: list = [inf] * n_nodes
        par = [-1] * n_nodes
        dist[src] = 0
        if first:
            for u in graph.topo:
                du = dist[u]
                if du is inf:
                    continue
                for a in graph.out_arcs[u]:
                    v = heads[a]
                    nd = du + cost[a]
                    if nd < dist[v]:
                        dist[v] = nd
                        par[v] = 2 * a
        else:
            done = [False] * n_nodes
            heap: list[tuple] = [(0, src)]
            while heap:
                d, u = heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                if u == sink:
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
        d_sink = dist[sink]
        if d_sink is inf:
            raise RuntimeError(f"flow graph cannot carry {amount} units")
        if first:
            # Distances are exact for every node (the DAG pass has no
            # early exit) and arc costs are negative, so the potentials
            # must be the distances themselves — capping at the sink
            # distance is only sound once reduced costs are nonnegative.
            for v in range(n_nodes):
                dv = dist[v]
                pot[v] = dv if dv is not inf else d_sink
            first = False
        else:
            # Dijkstra may stop at the sink: nodes not yet finalized
            # carry upper-bound labels ≥ the sink distance, and the
            # standard cap keeps the reduced-cost invariant intact.
            for v in range(n_nodes):
                dv = dist[v]
                pot[v] += dv if dv < d_sink else d_sink

        path = []
        v = sink
        while v != src:
            r = par[v]
            path.append(r)
            v = heads[r >> 1] if r & 1 else tails[r >> 1]
        push = min(amount - pushed, min(cap[r] for r in path))
        for r in path:
            cap[r] -= push
            cap[r ^ 1] += push
        pushed += push

    return cap[1::2]
