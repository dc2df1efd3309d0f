"""Multi-stream joins: multiple binary join queries over many streams.

Appendix C of the paper notes that the framework extends from one binary
join to "the general scenario in which multiple binary join queries
[run] over multiple probabilistic streams.  The only difference ... lies
in computation of expected benefit of the horizontal arc: ... this
expected benefit is a summary of each expected benefit of the binary
join with one partner stream."

The policy layer is partner-aware
(:class:`repro.policies.base.PolicyContext` addresses streams by name,
with the binary join as the 1-partner degenerate case), so the unified
policies serve both shapes: HEEB over
:class:`~repro.policies.heeb_policy.GenericJoinHeeb` applies the
appendix's per-partner benefit summation (the "summary" rule).  The
step itself (:func:`repro.sim.step.multi_join_step`) is the one join
transition of every tier.  This module adds:

* :class:`MultiJoinSimulator` -- the one join simulator: ``n`` named
  streams, a set of binary equijoin queries (stream-name pairs), one
  shared cache, with Section-7 sliding windows and band joins.  The
  binary :class:`~repro.sim.join_sim.JoinSimulator` is its ``R⋈S``
  constructor;
* :class:`JoinRunResult` -- the outcome of one join run, any topology;
* :func:`solve_opt_offline_multi` -- re-exported from
  :mod:`repro.flow.opt_offline`: the compact OPT-offline formulation
  with per-match-step benefit *counts* (a tuple may match arrivals from
  several partners in one step), replayable through the simulator via
  the ordinary :class:`~repro.policies.scheduled.ScheduledPolicy`;
* :func:`brute_force_multi_benefit` -- the exhaustive oracle for tiny
  instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..flow.opt_offline import solve_opt_offline_multi
from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import ReplacementPolicy, WindowOracle
from ..streams.base import StreamModel, Value
from .engine import RunResult
from .step import (
    build_multi_join_state,
    check_run_params,
    multi_join_step,
    multi_partner_names,
)

__all__ = [
    "JoinRunResult",
    "MultiJoinSimulator",
    "solve_opt_offline_multi",
    "brute_force_multi_benefit",
]


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
@dataclass
class JoinRunResult(RunResult):
    """Outcome of one join run (result counts and occupancy), any topology."""

    total_results: int
    results_after_warmup: int
    steps: int
    warmup: int
    cache_size: int
    #: results attributed to each query (unordered stream-name pair).
    per_query: dict[frozenset, int]
    #: per-step cache occupancy per stream (after that step's evictions).
    occupancy_by_stream: dict[str, np.ndarray]

    @property
    def r_occupancy(self) -> np.ndarray:
        """Per-step count of cached stream-R tuples."""
        return self.occupancy_by_stream["R"]

    @property
    def occupancy(self) -> np.ndarray:
        """Per-step total cache occupancy."""
        return sum(self.occupancy_by_stream.values())

    @property
    def r_fraction(self) -> np.ndarray:
        """Fraction of the cache capacity held by R tuples at each step."""
        return self.r_occupancy / max(self.cache_size, 1)

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
    warmup:
        Results produced during the first ``warmup`` steps are excluded
        from ``results_after_warmup`` (the paper uses at least 4× the
        cache size).
    window:
        Optional sliding-window length (Section 7 semantics): a tuple
        that arrived at ``t_x`` joins only while the current time is at
        most ``t_x + window``; expired tuples leave the cache for free.
    band:
        Non-equality band-join generalization: a new arrival with value
        ``v`` joins cached partner tuples with values in ``[v − band,
        v + band]``.  ``0`` (the default) is the paper's equijoin.
    models:
        Optional per-stream models handed to model-aware policies.
    window_oracle:
        Value-window knowledge passed through to window-aware baselines
        (it speaks of streams R and S).
    recorder:
        Observability sink (:mod:`repro.obs`).  The default no-op sink
        keeps the loop uninstrumented; when the recorder is enabled the
        run's counter snapshot is attached to the result's ``metrics``.
    """

    def __init__(
        self,
        cache_size: int,
        policy: ReplacementPolicy,
        queries: Sequence[tuple[str, str]],
        warmup: int = 0,
        window: int | None = None,
        band: int = 0,
        models: Mapping[str, StreamModel] | None = None,
        window_oracle: WindowOracle | None = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Validate the query set and bind the shared-cache parameters."""
        check_run_params(cache_size, warmup, window, band)
        multi_partner_names(queries)  # reject malformed topologies early
        self._queries = [tuple(q) for q in queries]
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._window = window
        self._band = band
        self._models = models
        self._window_oracle = window_oracle
        self._recorder = recorder

    def run(self, streams: Mapping[str, Sequence[Value]]) -> JoinRunResult:
        """Drive the policy over per-stream value sequences.

        The streams arrive in mapping order; the run lasts as long as
        the shortest one.  The per-step semantics live in
        :func:`repro.sim.step.multi_join_step` (shared with the
        :mod:`repro.serve` event loop); this loop feeds it and adds
        warmup accounting and per-stream occupancy.
        """
        names = list(streams.keys())
        state = build_multi_join_state(
            self._cache_size,
            self._policy,
            self._queries,
            names,
            window=self._window,
            band=self._band,
            models=self._models,
            window_oracle=self._window_oracle,
            recorder=self._recorder,
        )
        count = state.cache.side_counts.get
        logs: dict[str, list[int]] = {
            name: [] for name, probes in zip(names, state.probes) if probes
        }
        appends = [(name, log.append) for name, log in logs.items()]
        after_warmup = 0
        warmup = self._warmup
        for t, values in enumerate(zip(*(streams[name] for name in names))):
            results = multi_join_step(state, t, values).results
            if t >= warmup:
                after_warmup += results
            for name, append in appends:
                append(count(name, 0))
        n = min(len(streams[name]) for name in names)
        result = JoinRunResult(
            total_results=state.total_results,
            results_after_warmup=after_warmup,
            steps=n,
            warmup=warmup,
            cache_size=self._cache_size,
            per_query=state.per_query,
            occupancy_by_stream={
                name: np.array(logs.get(name, [0] * n), dtype=np.int64)
                for name in names
            },
        )
        if self._recorder.enabled:
            result.metrics = self._recorder.snapshot()
        return result


def brute_force_multi_benefit(
    streams: Mapping[str, Sequence[Value]],
    queries: Sequence[tuple[str, str]],
    cache_size: int,
    max_states: int = 2_000_000,
) -> int:
    """Exhaustive optimum for tiny multi-join instances (validation)."""
    from functools import lru_cache
    from itertools import combinations

    partner_names = multi_partner_names(queries)
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
