"""Self-configuring HEEB: identify the input models online, then exploit
them.

The paper's framework needs "known or observed statistical properties of
input streams"; this policy closes the loop for deployments where nothing
is known a priori.  It watches the observed history, periodically runs
the model classifier (:mod:`repro.analysis.detection`) on both streams,
instantiates the scenario-appropriate HEEB strategy (trend table, walk
``h1`` table, or the generic direct sum), and recalibrates α from
observed eviction lifetimes.  Before enough history has accumulated it
falls back to PROB, which needs no model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ..analysis.detection import detect_model
from ..core.lifetime import LExp, alpha_for_mean_lifetime
from ..core.tuples import StreamTuple
from ..streams.ar1 import AR1Stream
from ..streams.base import StreamModel, Value
from ..streams.linear_trend import LinearTrendStream
from ..streams.random_walk import RandomWalkStream
from .base import PolicyContext, ReplacementPolicy, rank_by_score
from .heeb_policy import (
    GenericJoinHeeb,
    HeebStrategy,
    TrendJoinHeeb,
    WalkJoinHeeb,
)
from .prob import ProbPolicy

__all__ = ["ModelDrivenHeebPolicy"]


def _ar1_join_strategy(partner: AR1Stream, estimator, horizon: int):
    """Precompute a Theorem-5 joining surface against one AR(1) partner."""
    from ..core.precompute import ar1_h2_join
    from .heeb_policy import AR1JoinHeeb

    center = partner.stationary_mean
    half = 4.0 * partner.stationary_std
    v_grid = np.linspace(
        partner.to_bucket(center - half), partner.to_bucket(center + half), 7
    ).round()
    x_grid = np.linspace(center - half, center + half, 7)
    surface = ar1_h2_join(partner, estimator, v_grid, x_grid, horizon)
    return AR1JoinHeeb(partner, surface)


class _PerSideStrategy(HeebStrategy):
    """Dispatches H computation to a per-stream-side strategy."""

    def __init__(self, by_side: dict):
        self._by_side = by_side

    def reset(self, ctx) -> None:
        for strategy in self._by_side.values():
            strategy.reset(ctx)

    def h_value(self, tup, ctx) -> float:
        return self._by_side[tup.side].h_value(tup, ctx)


class ModelDrivenHeebPolicy(ReplacementPolicy):
    """HEEB that fits its own stream models from the observed history.

    Parameters
    ----------
    min_history:
        Observations per stream required before the first fit; PROB is
        used until then.
    refit_every:
        Steps between model refits.
    initial_alpha:
        α used until lifetime observations accumulate.
    horizon:
        Horizon cap for the generic strategy.
    """

    name = "HEEB-AUTO"

    def __init__(
        self,
        min_history: int = 120,
        refit_every: int = 400,
        initial_alpha: float = 10.0,
        horizon: int = 200,
        lifetime_smoothing: float = 0.05,
    ):
        if min_history < 20:
            raise ValueError("min_history must be >= 20 (classifier minimum)")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self._min_history = int(min_history)
        self._refit_every = int(refit_every)
        self._initial_alpha = float(initial_alpha)
        self._horizon = int(horizon)
        self._smoothing = float(lifetime_smoothing)
        self._reset_state()

    def _reset_state(self) -> None:
        self._cold_start = ProbPolicy()
        self._strategy: HeebStrategy | None = None
        self._r_model: StreamModel | None = None
        self._s_model: StreamModel | None = None
        self._last_fit_at = -(10**9)
        self._mean_lifetime: float | None = None
        self.alpha = self._initial_alpha
        self.refits = 0
        #: Diagnoses of the most recent fit, for introspection.
        self.kinds: tuple[str, str] | None = None

    # ------------------------------------------------------------------
    def reset(self, ctx: PolicyContext) -> None:
        self._reset_state()
        self._cold_start.reset(ctx)

    def on_evict(self, tup: StreamTuple, t: int) -> None:
        lifetime = max(1, t - tup.arrival)
        if self._mean_lifetime is None:
            self._mean_lifetime = float(lifetime)
        else:
            self._mean_lifetime += self._smoothing * (
                lifetime - self._mean_lifetime
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _clean(history: Sequence[Value]) -> np.ndarray:
        return np.array([v for v in history if v is not None], dtype=float)

    def _current_alpha(self) -> float:
        if self._mean_lifetime is None or self._mean_lifetime <= 1.05:
            return self._initial_alpha
        return alpha_for_mean_lifetime(self._mean_lifetime)

    def _strategy_for(
        self, r_model: StreamModel, s_model: StreamModel
    ) -> HeebStrategy:
        estimator = LExp(self._current_alpha())
        if isinstance(r_model, LinearTrendStream) and isinstance(
            s_model, LinearTrendStream
        ):
            return TrendJoinHeeb(estimator)
        if isinstance(r_model, RandomWalkStream) and isinstance(
            s_model, RandomWalkStream
        ):
            horizon = min(self._horizon, estimator.suggested_horizon(1e-6))
            return WalkJoinHeeb(estimator, horizon=horizon)
        if isinstance(r_model, AR1Stream) and isinstance(s_model, AR1Stream):
            horizon = min(self._horizon, estimator.suggested_horizon(1e-6))
            return _PerSideStrategy(
                {
                    # A tuple from R joins S arrivals and vice versa.
                    "R": _ar1_join_strategy(s_model, estimator, horizon),
                    "S": _ar1_join_strategy(r_model, estimator, horizon),
                }
            )
        return GenericJoinHeeb(estimator, horizon=self._horizon)

    def _maybe_refit(self, ctx: PolicyContext) -> None:
        r_clean = self._clean(ctx.r_history)
        s_clean = self._clean(ctx.s_history)
        if min(r_clean.size, s_clean.size) < self._min_history:
            return
        if ctx.time - self._last_fit_at < self._refit_every:
            return
        try:
            r_model = detect_model(r_clean)
            s_model = detect_model(s_clean)
        except ValueError:
            return  # classifier could not commit; keep the previous setup
        self._r_model, self._s_model = r_model, s_model
        self.alpha = self._current_alpha()
        self._strategy = self._strategy_for(r_model, s_model)
        self._strategy.reset(ctx)
        self._last_fit_at = ctx.time
        self.refits += 1
        self.kinds = (type(r_model).__name__, type(s_model).__name__)

    # ------------------------------------------------------------------
    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if n_evict <= 0:
            return []
        self._maybe_refit(ctx)
        if self._strategy is None:
            return self._cold_start.select_victims(candidates, n_evict, ctx)
        shadow = replace(ctx, models={"R": self._r_model, "S": self._s_model})
        scores = self._strategy.h_values(candidates, shadow)
        return [tup for _, _, tup in rank_by_score(candidates, scores, n_evict)]
