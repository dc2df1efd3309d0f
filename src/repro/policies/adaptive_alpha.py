"""Runtime-adaptive α calibration for HEEB (the paper's future work).

Section 5.3: "We use (w_R + w_S)/2 as a very crude estimate for the
average lifetime of a cached tuple, and choose α accordingly.  A more
principled technique would be to observe the average lifetime at runtime
and adjust α adaptively.  We plan to experiment with this technique as
future work."

:class:`AdaptiveAlphaHeebPolicy` implements that technique: it tracks the
lifetimes of evicted tuples with an exponential moving average, solves
the Section-4.3 calibration equation ``1/(1 − e^(−1/α)) = mean lifetime``
for α, and rebuilds its HEEB strategy whenever the calibrated α has
drifted by more than a configurable factor.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.lifetime import LExp, alpha_for_mean_lifetime
from ..core.tuples import StreamTuple
from .base import PolicyContext, ReplacementPolicy, rank_by_score
from .heeb_policy import HeebStrategy

__all__ = ["AdaptiveAlphaHeebPolicy"]


class AdaptiveAlphaHeebPolicy(ReplacementPolicy):
    """HEEB with α recalibrated from observed tuple lifetimes.

    Parameters
    ----------
    strategy_factory:
        Builds a scenario-appropriate HEEB strategy for a given ``LExp``
        (e.g. ``lambda est: TrendJoinHeeb(est)``).
    initial_alpha:
        Starting calibration, used until enough evictions are observed.
    smoothing:
        Weight of each new lifetime observation in the exponential
        moving average (0 < smoothing ≤ 1).
    rebuild_threshold:
        Relative α drift that triggers rebuilding the strategy (tables
        are α-specific, so rebuilds are not free).
    min_observations:
        Evictions to observe before the first recalibration.
    """

    name = "HEEB-ADAPTIVE"

    def __init__(
        self,
        strategy_factory: Callable[[LExp], HeebStrategy],
        initial_alpha: float,
        smoothing: float = 0.05,
        rebuild_threshold: float = 0.25,
        min_observations: int = 20,
    ):
        if initial_alpha <= 0:
            raise ValueError("initial_alpha must be positive")
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        if rebuild_threshold <= 0:
            raise ValueError("rebuild_threshold must be positive")
        self._factory = strategy_factory
        self._initial_alpha = float(initial_alpha)
        self._smoothing = float(smoothing)
        self._threshold = float(rebuild_threshold)
        self._min_observations = int(min_observations)
        self._reset_state()

    def _reset_state(self) -> None:
        self.alpha = self._initial_alpha
        self._strategy = self._factory(LExp(self.alpha))
        self._mean_lifetime: float | None = None
        self._observations = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    def reset(self, ctx: PolicyContext) -> None:
        self._reset_state()
        self._strategy.reset(ctx)

    def on_evict(self, tup: StreamTuple, t: int) -> None:
        lifetime = max(1, t - tup.arrival)
        if self._mean_lifetime is None:
            self._mean_lifetime = float(lifetime)
        else:
            self._mean_lifetime += self._smoothing * (
                lifetime - self._mean_lifetime
            )
        self._observations += 1

    def _maybe_recalibrate(self, ctx: PolicyContext) -> None:
        if (
            self._mean_lifetime is None
            or self._observations < self._min_observations
            or self._mean_lifetime <= 1.05
        ):
            return
        target = alpha_for_mean_lifetime(self._mean_lifetime)
        drift = abs(target - self.alpha) / self.alpha
        if drift > self._threshold:
            self.alpha = target
            self._strategy = self._factory(LExp(self.alpha))
            self._strategy.reset(ctx)
            self.rebuilds += 1

    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if n_evict <= 0:
            return []
        self._maybe_recalibrate(ctx)
        scores = self._strategy.h_values(candidates, ctx)
        return [tup for _, _, tup in rank_by_score(candidates, scores, n_evict)]
