"""Linear-trend streams with i.i.d. noise -- Sections 5.3 and 5.4.

The process is ``X_t = f(t) + Y_t`` where ``f`` is a (non-)decreasing
integer-valued trend and the ``Y_t`` are i.i.d. zero-mean noise terms drawn
from a bounded distribution.  The experiments of Section 6 use
``f(t) = speed * (t - lag)`` with:

* bounded uniform noise (FLOOR),
* discretized bounded normal noise with small / large standard deviation
  (TOWER / ROOF).

The moving noise support creates the "reference window" that drives the
category analysis of Sections 5.3-5.4 and Appendix O.
"""

from __future__ import annotations

import numpy as np

from .base import History, StreamModel, Value
from .noise import DiscreteDistribution

__all__ = ["LinearTrendStream"]


class LinearTrendStream(StreamModel):
    """A drifting stream ``X_t = f(t) + Y_t`` with i.i.d. noise.

    Parameters
    ----------
    noise:
        Zero-mean (or otherwise) noise distribution; its support bounds
        define the moving window ``[f(t) + noise.min, f(t) + noise.max]``.
    speed:
        Drift speed of the trend (the experiments use 1).
    lag:
        Number of steps the stream lags behind the nominal trend; the
        paper's configurations have R lag one step behind S.
    intercept:
        Constant offset of the trend.
    """

    is_independent = True

    def __init__(
        self,
        noise: DiscreteDistribution,
        speed: float = 1.0,
        lag: int = 0,
        intercept: int = 0,
    ):
        if speed < 0:
            raise ValueError("speed must be nonnegative (trend non-decreasing)")
        self._noise = noise
        self._speed = float(speed)
        self._lag = int(lag)
        self._intercept = int(intercept)

    # ------------------------------------------------------------------
    @property
    def noise(self) -> DiscreteDistribution:
        return self._noise

    @property
    def speed(self) -> float:
        return self._speed

    @property
    def lag(self) -> int:
        return self._lag

    @property
    def intercept(self) -> int:
        return self._intercept

    def trend(self, t: int) -> int:
        """The trend value ``f(t)`` (rounded to an integer)."""
        return self._intercept + int(round(self._speed * (t - self._lag)))

    def window(self, t: int) -> tuple[int, int]:
        """Inclusive value window with nonzero probability at time ``t``."""
        f = self.trend(t)
        return f + self._noise.min_value, f + self._noise.max_value

    def frame(self, t: int) -> int:
        """The trend: ``prob`` is ``noise.pmf(v − trend(t))`` at any speed."""
        return self.trend(t)

    # ------------------------------------------------------------------
    def sample_path(self, length: int, rng: np.random.Generator) -> list[Value]:
        steps = self._noise.sample(rng, size=length)
        return [self.trend(t) + int(y) for t, y in enumerate(steps)]

    def cond_dist(self, t: int, history: History | None = None) -> DiscreteDistribution:
        self.check_time(t, history)
        return self._noise.shift(self.trend(t))

    def prob(self, t: int, value: Value, history: History | None = None) -> float:
        # Direct pmf lookup avoids building a shifted distribution per call.
        self.check_time(t, history)
        if value is None:
            return 0.0
        return self._noise.pmf(int(value) - self.trend(t))
