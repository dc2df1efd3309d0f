"""Classic caching simulator: a reference stream against a database.

Implements the caching problem of Section 2: every reference-stream tuple
joins exactly one database tuple (referential integrity); a hit occurs
when that tuple is cached, otherwise the tuple is demand-fetched and may
be cached.  The policy maximizes hits (minimizes misses).

Database tuples are represented as side-"S" :class:`StreamTuple` objects
(matching the supply-stream role they play in the Section-2 reduction),
with the referenced value as their join value and the fetch time as their
arrival.  There is at most one cached tuple per value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import ReplacementPolicy
from ..streams.base import StreamModel
from .engine import RunResult
from .step import cache_step, check_run_params, make_cache_state

__all__ = ["CacheRunResult", "CacheSimulator"]


@dataclass
class CacheRunResult(RunResult):
    """Outcome of one simulated caching run.

    ``steps`` counts the references the run actually observed, so
    ``steps == hits + misses`` always holds; ``None`` ("−") entries in
    the input sequence — which the simulator skips without consulting
    the cache — are reported separately as ``skipped``.
    """

    hits: int
    misses: int
    hits_after_warmup: int
    misses_after_warmup: int
    steps: int
    warmup: int
    cache_size: int
    #: Input entries skipped as missing values (``None``).
    skipped: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups, 0.0 when nothing was observed."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def primary_metric(self) -> float:
        """Cache hits scored after the warm-up window."""
        return float(self.hits_after_warmup)


class CacheSimulator:
    """Drives one replacement policy over a reference value sequence."""

    def __init__(
        self,
        cache_size: int,
        policy: ReplacementPolicy,
        warmup: int = 0,
        reference_model: StreamModel | None = None,
        recorder: Recorder = NULL_RECORDER,
    ):
        """Validate and bind the caching-run parameters."""
        check_run_params(cache_size, warmup)
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._reference_model = reference_model
        self._recorder = recorder

    def run(self, reference: Sequence[Hashable]) -> CacheRunResult:
        """Drive the policy over ``reference`` and tally hits/misses.

        The per-step semantics live in :func:`repro.sim.step.cache_step`
        (shared with the :mod:`repro.serve` event loop); this method is
        the finite driver adding warmup-aware hit/miss accounting.
        """
        state = make_cache_state(
            self._cache_size,
            self._policy,
            reference_model=self._reference_model,
            recorder=self._recorder,
        )

        hits_w = misses_w = 0
        for t, value in enumerate(reference):
            outcome = cache_step(state, t, value)
            if outcome.hit is None or t < self._warmup:
                continue
            if outcome.hit:
                hits_w += 1
            else:
                misses_w += 1

        result = CacheRunResult(
            hits=state.hits,
            misses=state.misses,
            hits_after_warmup=hits_w,
            misses_after_warmup=misses_w,
            steps=state.hits + state.misses,
            warmup=self._warmup,
            cache_size=self._cache_size,
            skipped=state.skipped,
        )
        if self._recorder.enabled:
            result.metrics = self._recorder.snapshot()
        return result
