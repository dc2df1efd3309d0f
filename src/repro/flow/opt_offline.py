"""OPT-offline: the optimal offline join cache schedule (Das et al. [8]).

With every stream fully known, the MAX-subset-optimal sequence of cache
replacement decisions is computable as a min-cost flow.  This module uses
a *compact* formulation equivalent to the slice graph of Section 3.1 but
with O(#matches) arcs instead of O(n²) nodes, so paper-scale runs (5000
steps) are feasible:

* One time node ``T_t`` per step, with capacity-``k`` zero-cost arcs
  ``T_t → T_{t+1}`` carrying idle cache slots.
* For each tuple ``x`` arriving at ``a_x`` with future match *events*
  ``(m_1, c_1), …, (m_j, c_j)`` (``m_1 < … < m_j`` are the steps at which
  ``c_i ≥ 1`` partner arrivals join ``x``), a private chain
  ``T_{a_x} → x_1 → … → x_j`` whose arc into ``x_i`` costs ``−c_i`` (the
  results reached), and zero-cost exits ``x_i → T_{m_i}``.

A unit of flow is one cache slot.  Entering ``x``'s chain at ``T_{a_x}``
caches the tuple at its arrival (the only time it is available); exiting
at ``x_i`` evicts it right after collecting the match at ``m_i``.
Evicting between matches is never better than evicting at the previous
match, and caching past the last match is useless, so the restriction to
match-time evictions is lossless.  Flow conservation makes every unit
cross each time column exactly once -- either on the time arc (idle /
uninstrumented slot) or inside a chain (a cached tuple) -- so cache
occupancy never exceeds ``k``.

:func:`solve_opt_offline_multi` builds the graph for any topology of
binary equijoin queries (Appendix C: one arrival may join a cached tuple
through several partners at once, hence the counts); the two-stream
:func:`solve_opt_offline` is its ``R⋈S`` case.  The shared exact solver
:func:`~repro.flow.solver.solve_unit_flow` solves it, with every chain
node for a match at step ``m`` ordered just before ``T_m``.

The result maps every tuple to an eviction time; replaying it through the
ordinary simulator (:class:`~repro.policies.scheduled.ScheduledPolicy`)
reproduces exactly ``−cost`` join results, which tests assert.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Mapping, Sequence

from ..streams.base import Value
from .solver import FlowGraph, solve_unit_flow

__all__ = [
    "OfflineSolution",
    "match_times",
    "solve_opt_offline",
    "solve_opt_offline_multi",
]


@dataclass
class OfflineSolution:
    """An optimal offline schedule.

    ``eviction_time[(side, arrival)]`` is the step at which the tuple
    should be evicted; equal to ``arrival`` when the tuple should never
    be cached.  ``total_benefit`` is the optimal number of join results
    generated from the cache.
    """

    eviction_time: dict[tuple[str, int], int]
    total_benefit: int
    cache_size: int
    length: int
    #: Tuples the optimizer caches at their arrival.
    cached: set[tuple[str, int]] = field(default_factory=set)

    def scheduled_eviction(self, side: str, arrival: int) -> int:
        """When the optimizer evicts the given tuple (arrival if never cached)."""
        return self.eviction_time.get((side, arrival), arrival)


def match_times(
    values: Sequence[Value], partner_values: Sequence[Value], band: int = 0
) -> list[list[int]]:
    """For each tuple, the future steps at which the partner matches it.

    ``result[t]`` lists the times ``t' > t`` with
    ``partner_values[t'] == values[t]`` (empty for "−" tuples).  With
    ``band > 0`` the predicate generalizes to
    ``|partner_values[t'] − values[t]| ≤ band`` (integer values only).
    """
    if band < 0:
        raise ValueError("band must be nonnegative")
    occurrences: dict[Hashable, list[int]] = {}
    for t, v in enumerate(partner_values):
        if v is not None:
            occurrences.setdefault(v, []).append(t)

    def future_occurrences(v: Hashable, after: int) -> list[int]:
        occs = occurrences.get(v, [])
        return occs[bisect_right(occs, after):]

    out: list[list[int]] = []
    for t, v in enumerate(values):
        if v is None:
            out.append([])
            continue
        if band == 0:
            out.append(future_occurrences(v, t))
            continue
        merged: set[int] = set()
        for offset in range(-band, band + 1):
            merged.update(future_occurrences(int(v) + offset, t))
        out.append(sorted(merged))
    return out


def solve_opt_offline(
    r_values: Sequence[Value],
    s_values: Sequence[Value],
    cache_size: int,
    band: int = 0,
) -> OfflineSolution:
    """Compute the optimal offline schedule for the given sequences.

    The two-stream case of :func:`solve_opt_offline_multi`.  ``band > 0``
    solves the band-join generalization (a cached tuple matches partner
    arrivals within ``band`` of its value).
    """
    return solve_opt_offline_multi(
        {"R": r_values, "S": s_values}, [("R", "S")], cache_size, band
    )


def solve_opt_offline_multi(
    streams: Mapping[str, Sequence[Value]],
    queries: Sequence[tuple[str, str]],
    cache_size: int,
    band: int = 0,
) -> OfflineSolution:
    """Optimal offline schedule for binary join queries over named streams.

    ``queries`` are stream-name pairs, validated as by the simulators;
    the run lasts as long as the shortest stream.  A tuple's chain
    events count the partner arrivals that join it at each step
    (:func:`match_times` per partner stream, with ``band`` as there).
    """
    # Imported here because repro.sim imports this module.
    from ..sim.step import multi_partner_names

    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    partner_names = multi_partner_names(queries, streams)
    n = min(len(values) for values in streams.values()) if streams else 0
    eviction: dict[tuple[str, int], int] = {}
    cached: set[tuple[str, int]] = set()
    if n == 0:
        return OfflineSolution(eviction, 0, cache_size, 0, cached)

    columns = {name: list(values[:n]) for name, values in streams.items()}
    # Nodes 0..n are T_0..T_n; ``order`` is each node's topological key:
    # T_t sorts at 2t + 1, a chain node for a match at m at 2m.
    tails = list(range(n))
    heads = list(range(1, n + 1))
    capacity = [cache_size] * n
    cost = [0] * n
    order = list(range(1, 2 * n + 2, 2))
    # (stream, arrival, match steps, id of the chain's first arc): chain
    # arc i is ``first + 2i`` and its exit ``first + 2i + 1``.
    chains: list[tuple[str, int, list[int], int]] = []
    for name in (name for name in streams if name in partner_names):
        per_partner = [
            match_times(columns[name], columns[p], band)
            for p in partner_names[name]
        ]
        for t in range(n):
            eviction[(name, t)] = t  # default: never cached
            counts = Counter(chain(*(pm[t] for pm in per_partner)))
            events = sorted(counts.items())
            if not events:
                continue
            chains.append((name, t, [m for m, _ in events], len(tails)))
            prev = t
            for m, count in events:
                node = len(order)
                order.append(2 * m)
                tails += (prev, node)
                heads += (node, m)
                capacity += (1, 1)
                cost += (-count, 0)
                prev = node

    topo = sorted(range(len(order)), key=order.__getitem__)
    flow = solve_unit_flow(
        FlowGraph(len(order), tails, heads, capacity, topo), cost, cache_size
    )
    for name, arrival, matches, first in chains:
        if flow[first]:
            cached.add((name, arrival))
            eviction[(name, arrival)] = next(
                m for i, m in enumerate(matches) if flow[first + 2 * i + 1]
            )
    return OfflineSolution(
        eviction_time=eviction,
        total_benefit=-sum(c * f for c, f in zip(cost, flow) if f),
        cache_size=cache_size,
        length=n,
        cached=cached,
    )
