"""Two-stream equijoin simulator under the MAX-subset metric.

Implements the joining problem of Section 2: at every step each stream
produces one tuple; new arrivals join against cached tuples of the other
stream; then the replacement policy chooses which tuples to discard so the
cache stays within its capacity.  The performance metric is the number of
result tuples produced (after an optional warm-up period, per Section
6.2), which is what every algorithm in the paper tries to maximize in
expectation.

Sliding-window semantics (Section 7) are supported via ``window``: a tuple
that arrived at ``t_x`` participates in joins only while the current time
is at most ``t_x + window``; expired tuples are removed from the cache
automatically (keeping them is never useful, so this does not restrict
any policy).

Accounting choices (constant across policies, hence shape-preserving):

* a new R and a new S tuple arriving at the same step do **not** join
  each other (Section 3.1 ignores same-step joins because they happen
  regardless of replacement decisions);
* "−" tuples (``value is None``) join nothing and are not cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import ReplacementPolicy, WindowOracle
from ..streams.base import StreamModel, Value
from .engine import RunResult
from .multi_join import drive_join
from .step import check_run_params, make_join_state

__all__ = ["JoinRunResult", "JoinSimulator"]


@dataclass
class JoinRunResult(RunResult):
    """Outcome of one simulated run."""

    total_results: int
    results_after_warmup: int
    steps: int
    warmup: int
    cache_size: int
    #: Per-step count of cached R tuples (after that step's evictions).
    r_occupancy: np.ndarray
    #: Per-step total cache occupancy.
    occupancy: np.ndarray

    @property
    def r_fraction(self) -> np.ndarray:
        """Fraction of the cache capacity held by R tuples at each step."""
        return self.r_occupancy / max(self.cache_size, 1)

    @property
    def primary_metric(self) -> float:
        """Join results produced after the warm-up window."""
        return float(self.results_after_warmup)


class JoinSimulator:
    """Drives one replacement policy over a pair of value sequences.

    Parameters
    ----------
    cache_size:
        Capacity ``k`` shared by tuples from both streams.
    policy:
        The replacement policy under test.
    warmup:
        Results produced during the first ``warmup`` steps are excluded
        from ``results_after_warmup`` (the paper uses at least 4× the
        cache size).
    window:
        Optional sliding-window length (Section 7 semantics).
    band:
        Non-equality band-join generalization: a new arrival with value
        ``v`` joins cached partner tuples with values in ``[v − band,
        v + band]``.  ``0`` (the default) is the paper's equijoin.
    r_model / s_model:
        Stream models passed through to model-aware policies.
    window_oracle:
        Value-window knowledge passed through to window-aware baselines.
    recorder:
        Observability sink (:mod:`repro.obs`).  The default no-op
        recorder keeps the loop exactly as fast as an uninstrumented
        one; a :class:`~repro.obs.recorder.CounterRecorder` collects
        eviction/arrival/result counters, a
        :class:`~repro.obs.trace.TraceRecorder` additionally streams
        per-step events.  When the recorder is enabled the run's
        counter snapshot is attached to the result's ``metrics``.
    """

    def __init__(
        self,
        cache_size: int,
        policy: ReplacementPolicy,
        warmup: int = 0,
        window: int | None = None,
        band: int = 0,
        r_model: StreamModel | None = None,
        s_model: StreamModel | None = None,
        window_oracle: WindowOracle | None = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Validate and bind the join-run parameters (see class docs)."""
        check_run_params(cache_size, warmup, window, band)
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._window = window
        self._band = band
        self._r_model = r_model
        self._s_model = s_model
        self._window_oracle = window_oracle
        self._recorder = recorder

    def run(
        self, r_values: Sequence[Value], s_values: Sequence[Value]
    ) -> JoinRunResult:
        """Simulate the join over the given value sequences.

        The binary join is the 2-stream topology ``R⋈S``: the per-step
        semantics live in :func:`repro.sim.step.multi_join_step` (shared
        with the n-way simulator and the :mod:`repro.serve` event loop),
        and :func:`~repro.sim.multi_join.drive_join` feeds the
        pre-sampled values step by step and aggregates warmup-aware
        metrics and occupancy series.
        """
        state = make_join_state(
            self._cache_size,
            self._policy,
            window=self._window,
            band=self._band,
            r_model=self._r_model,
            s_model=self._s_model,
            window_oracle=self._window_oracle,
            recorder=self._recorder,
        )
        n, after_warmup, occupancy = drive_join(
            state, (r_values, s_values), self._warmup
        )
        result = JoinRunResult(
            total_results=state.total_results,
            results_after_warmup=after_warmup,
            steps=n,
            warmup=self._warmup,
            cache_size=self._cache_size,
            r_occupancy=occupancy["R"],
            occupancy=occupancy["R"] + occupancy["S"],
        )
        if self._recorder.enabled:
            result.metrics = self._recorder.snapshot()
        return result
