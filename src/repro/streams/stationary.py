"""Stationary, independent streams -- the scenario of Section 5.2.

Every ``X_t`` is an independent draw from one time-invariant distribution
``p(v)``.  This is the setting assumed (implicitly) by most classic cache
replacement heuristics; the paper shows that under it, discarding the tuple
with the lowest reference probability is optimal (recovering LFU / A_o for
caching and PROB for joining).
"""

from __future__ import annotations

import numpy as np

from .base import History, StreamModel, Value
from .noise import DiscreteDistribution

__all__ = ["StationaryStream"]


class StationaryStream(StreamModel):
    """An i.i.d. stream drawing each value from a fixed distribution."""

    is_independent = True

    def __init__(self, dist: DiscreteDistribution):
        self._dist = dist

    @property
    def dist(self) -> DiscreteDistribution:
        """The time-invariant per-step value distribution ``p(v)``."""
        return self._dist

    def frame(self, t: int) -> int:
        """Zero: every step predicts the same distribution."""
        return 0

    def sample_path(self, length: int, rng: np.random.Generator) -> list[Value]:
        return [int(v) for v in self._dist.sample(rng, size=length)]

    def cond_dist(self, t: int, history: History | None = None) -> DiscreteDistribution:
        self.check_time(t, history)
        return self._dist
