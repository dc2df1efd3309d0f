"""Multi-stream joins: multiple binary join queries over many streams.

Appendix C of the paper notes that the framework extends from one binary
join to "the general scenario in which multiple binary join queries
[run] over multiple probabilistic streams.  The only difference ... lies
in computation of expected benefit of the horizontal arc: ... this
expected benefit is a summary of each expected benefit of the binary
join with one partner stream."

The policy layer is partner-aware
(:class:`repro.policies.base.PolicyContext` addresses streams by name
when ``partner_names`` is set, with the binary join as the 1-partner
degenerate case), so the unified policies serve both shapes: HEEB over
:class:`~repro.policies.heeb_policy.GenericJoinHeeb` applies the
appendix's per-partner benefit summation (the "summary" rule).  This
module adds what is specific to the n-way shape:

* :class:`MultiJoinSimulator` -- ``n`` named streams, a set of binary
  equijoin queries (stream-name pairs), one shared cache;
* :func:`solve_opt_offline_multi` -- the compact OPT-offline formulation
  with per-match-step benefit *counts* (a tuple may match arrivals from
  several partners in one step), replayable through the simulator via
  the ordinary :class:`~repro.policies.scheduled.ScheduledPolicy`;
* :func:`brute_force_multi_benefit` -- the exhaustive oracle for tiny
  instances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import networkx as nx
import numpy as np

from ..flow.opt_offline import OfflineSolution
from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import ReplacementPolicy
from ..streams.base import StreamModel, Value
from .engine import RunResult
from .step import build_multi_join_state, multi_join_step, multi_partner_names

__all__ = [
    "MultiJoinRunResult",
    "MultiJoinSimulator",
    "solve_opt_offline_multi",
    "brute_force_multi_benefit",
]


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
@dataclass
class MultiJoinRunResult(RunResult):
    """Outcome of one multi-join run (result counts and occupancy)."""

    total_results: int
    results_after_warmup: int
    steps: int
    warmup: int
    cache_size: int
    #: results attributed to each query (unordered stream-name pair).
    per_query: dict[frozenset, int]
    #: per-step cache occupancy per stream.
    occupancy_by_stream: dict[str, np.ndarray]

    @property
    def primary_metric(self) -> float:
        """Join results produced after the warm-up window."""
        return float(self.results_after_warmup)


class MultiJoinSimulator:
    """Simulates several streams sharing one cache under binary queries.

    Parameters
    ----------
    cache_size:
        Shared capacity in tuples.
    policy:
        Any :class:`~repro.policies.base.ReplacementPolicy`; the
        partner-aware context carries the topology.
    queries:
        Binary equijoin queries as stream-name pairs.  A pair may appear
        once; self-joins are rejected.
    models:
        Optional per-stream models handed to model-aware policies.
    recorder:
        Observability sink (:mod:`repro.obs`); the default no-op sink
        keeps the loop uninstrumented.
    """

    def __init__(
        self,
        cache_size: int,
        policy: ReplacementPolicy,
        queries: Sequence[tuple[str, str]],
        warmup: int = 0,
        models: Mapping[str, StreamModel] | None = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Validate the query set and bind the shared-cache parameters."""
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be nonnegative")
        self._partner_names = multi_partner_names(queries)
        self._queries = [tuple(q) for q in queries]
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._models = models
        self._recorder = recorder

    def run(
        self, streams: Mapping[str, Sequence[Value]]
    ) -> MultiJoinRunResult:
        """Drive the policy over per-stream value sequences.

        The per-step semantics live in
        :func:`repro.sim.step.multi_join_step` (shared with the
        :mod:`repro.serve` event loop); this method is the finite
        driver adding warmup accounting and per-stream occupancy.
        """
        names = list(streams.keys())
        missing = set(self._partner_names) - set(names)
        if missing:
            raise ValueError(f"queries reference unknown streams {missing}")
        n = min(len(v) for v in streams.values())
        state = build_multi_join_state(
            self._cache_size,
            self._policy,
            self._queries,
            names,
            models=self._models,
            recorder=self._recorder,
        )

        after_warmup = 0
        occupancy = {name: np.zeros(n, dtype=np.int64) for name in names}

        for t in range(n):
            arrivals = {name: streams[name][t] for name in names}
            outcome = multi_join_step(state, t, arrivals)
            if t >= self._warmup:
                after_warmup += outcome.results
            for name in names:
                occupancy[name][t] = state.cache.count_side(name)

        result = MultiJoinRunResult(
            total_results=state.total_results,
            results_after_warmup=after_warmup,
            steps=n,
            warmup=self._warmup,
            cache_size=self._cache_size,
            per_query=state.per_query,
            occupancy_by_stream=occupancy,
        )
        if self._recorder.enabled:
            result.metrics = self._recorder.snapshot()
        return result


# ----------------------------------------------------------------------
# OPT-offline for the multi-join case
# ----------------------------------------------------------------------
def solve_opt_offline_multi(
    streams: Mapping[str, Sequence[Value]],
    queries: Sequence[tuple[str, str]],
    cache_size: int,
) -> OfflineSolution:
    """Optimal offline schedule for multiple binary queries.

    Same compact tuple-chain formulation as the two-stream solver, except
    that a tuple's match *events* carry counts: at one step, arrivals
    from several partner streams may all match, so the chain arc entering
    that event costs ``−count``.
    """
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    partner_names: dict[str, list[str]] = {}
    for a, b in queries:
        partner_names.setdefault(a, []).append(b)
        partner_names.setdefault(b, []).append(a)
    names = [n for n in streams if n in partner_names]
    n = min(len(streams[name]) for name in streams) if streams else 0

    eviction: dict[tuple[str, int], int] = {}
    cached: set[tuple[str, int]] = set()
    if n == 0:
        return OfflineSolution(eviction, 0, cache_size, 0, cached)

    # occurrence[name][v] = sorted arrival times of v in that stream.
    occurrence: dict[str, dict[Value, list[int]]] = {}
    for name in names:
        occ: dict[Value, list[int]] = {}
        for t in range(n):
            v = streams[name][t]
            if v is not None:
                occ.setdefault(v, []).append(t)
        occurrence[name] = occ

    graph = nx.DiGraph()
    for t in range(n):
        graph.add_edge(("T", t), ("T", t + 1), capacity=cache_size, weight=0)

    chains: list[tuple[str, int, list[tuple[int, int]]]] = []
    for name in names:
        for t in range(n):
            eviction[(name, t)] = t
            v = streams[name][t]
            if v is None:
                continue
            counts: Counter = Counter()
            for partner_name in partner_names[name]:
                for m in occurrence[partner_name].get(v, ()):  # type: ignore[arg-type]
                    if m > t:
                        counts[m] += 1
            if counts:
                events = sorted(counts.items())
                chains.append((name, t, events))

    for name, arrival, events in chains:
        prev = ("T", arrival)
        for i, (m, count) in enumerate(events):
            node = ("x", name, arrival, i)
            graph.add_edge(prev, node, capacity=1, weight=-count)
            graph.add_edge(node, ("T", m), capacity=1, weight=0)
            prev = node

    graph.nodes[("T", 0)]["demand"] = -cache_size
    graph.nodes[("T", n)]["demand"] = cache_size
    cost, flow_dict = nx.network_simplex(graph)

    for name, arrival, events in chains:
        if flow_dict[("T", arrival)].get(("x", name, arrival, 0), 0) <= 0:
            continue
        cached.add((name, arrival))
        evict_at = events[0][0]
        for i, (m, _count) in enumerate(events):
            node = ("x", name, arrival, i)
            if flow_dict[node].get(("T", m), 0) > 0:
                evict_at = m
                break
        eviction[(name, arrival)] = evict_at

    return OfflineSolution(
        eviction_time=eviction,
        total_benefit=-cost,
        cache_size=cache_size,
        length=n,
        cached=cached,
    )


def brute_force_multi_benefit(
    streams: Mapping[str, Sequence[Value]],
    queries: Sequence[tuple[str, str]],
    cache_size: int,
    max_states: int = 2_000_000,
) -> int:
    """Exhaustive optimum for tiny multi-join instances (validation)."""
    from functools import lru_cache
    from itertools import combinations

    partner_names: dict[str, list[str]] = {}
    for a, b in queries:
        partner_names.setdefault(a, []).append(b)
        partner_names.setdefault(b, []).append(a)
    names = [name for name in streams if name in partner_names]
    n = min(len(v) for v in streams.values())
    states_seen = 0

    @lru_cache(maxsize=None)
    def solve(t: int, cache: frozenset) -> int:
        nonlocal states_seen
        states_seen += 1
        if states_seen > max_states:
            raise RuntimeError("state budget exhausted")
        if t == n:
            return 0
        gained = 0
        for (name, _arrival, value) in cache:
            for partner_name in partner_names[name]:
                if streams[partner_name][t] == value:
                    gained += 1
        new = [
            (name, t, streams[name][t])
            for name in names
            if streams[name][t] is not None
        ]
        candidates = list(cache) + new
        n_keep = min(cache_size, len(candidates))
        best = 0
        seen = set()
        for keep in combinations(candidates, n_keep):
            key = frozenset(keep)
            if key in seen:
                continue
            seen.add(key)
            best = max(best, solve(t + 1, key))
        return gained + best

    return solve(0, frozenset())
