"""HEEB as a replacement policy, with per-scenario evaluation strategies.

Section 5 shows that *how* ``H_x`` is computed efficiently depends on the
input model: direct summation for arbitrary models, a translation-
invariant table for linear trends (value-incremental computation,
Corollary 5), precomputed ``h1`` curves for random walks and ``h2``
surfaces for AR(1) (Theorem 5).  :class:`HeebPolicy` delegates to a
:class:`HeebStrategy` implementing the appropriate computation; all
strategies share one ``L`` for every candidate, which trivially satisfies
property 4 of Section 4.3.

An eviction scores its whole candidate block in one
:meth:`HeebStrategy.h_values` call.  :class:`AR1CacheHeeb` answers it
with one :meth:`H2Surface.evaluate_many` call, the routine the batch
adapter uses, so a scalar REAL-caching eviction costs one spline call
rather than one per candidate and both tiers read the same floats.

The strategies also own the score memo of Section 4.4.  Windowed
joining HEEB (Section 7) clips each tuple's survival at its own window
expiry, so no per-value table applies; the strategies instead memoize
the score on exactly what it depends on.  :class:`TrendJoinHeeb` keeps
one dense trend-offset × clipped-horizon table per unit-speed partner,
filled cell by cell on first use, which :meth:`TrendJoinHeeb.windowed_h`
(behind the block :meth:`TrendJoinHeeb.h_values` too) and the batch
tier's :meth:`TrendJoinHeeb.windowed_many` gather both read;
:meth:`GenericJoinHeeb.windowed_h` memoizes stationary partners on
``(partner, value, remaining)`` and the batch tier calls it once per
distinct key.  Every tier reads the same floats.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence

import numpy as np

from ..core.heeb import heeb_cache, heeb_join
from ..core.lifetime import LExp, LifetimeEstimator, WindowedLExp
from ..core.precompute import H1Table, H2Surface, random_walk_h1_join
from ..core.tuples import StreamTuple
from ..streams.ar1 import AR1Stream
from ..streams.base import History, StreamModel, Value
from ..streams.linear_trend import LinearTrendStream
from ..streams.random_walk import RandomWalkStream
from ..streams.stationary import StationaryStream
from .base import PolicyContext, ScoredPolicy

__all__ = [
    "HeebStrategy",
    "GenericJoinHeeb",
    "GenericCacheHeeb",
    "TrendJoinHeeb",
    "WalkJoinHeeb",
    "WalkCacheHeeb",
    "AR1CacheHeeb",
    "AR1JoinHeeb",
    "BandJoinHeeb",
    "HeebPolicy",
]


class HeebStrategy(abc.ABC):
    """Computes ``H_x`` for candidate tuples in a given scenario."""

    def reset(self, ctx: PolicyContext) -> None:
        """Clear per-run state / lazily built tables."""

    @abc.abstractmethod
    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        """``H`` for one candidate at the current time ``ctx.time``."""

    def h_values(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        """:meth:`h_value` of every candidate, in candidate order.

        A strategy that can score the whole block through one
        vectorized lookup overrides this; each element must equal the
        per-tuple :meth:`h_value` bit for bit.
        """
        h_value = self.h_value
        return [h_value(tup, ctx) for tup in candidates]


class GenericJoinHeeb(HeebStrategy):
    """Direct summation of the joining ``H`` for any stream model.

    Exact but slow (one ``prob`` call per look-ahead step); intended for
    small runs and as the reference the specialized strategies are tested
    against.  Appendix C sums the binary benefit over every partner
    stream the tuple can join; the binary join is the 1-partner case and
    yields the identical float.  Supports sliding-window semantics by
    switching to the window-clipped ``L_exp`` of Section 7
    (:meth:`windowed_h`).
    """

    def __init__(self, estimator: LifetimeEstimator, horizon: int | None = None):
        self.estimator = estimator
        self.horizon = horizon
        self._memo: dict[tuple[StreamModel, Value, int], float] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._memo = {}

    def windowed_h(
        self,
        partner: StreamModel,
        value: Value,
        remaining: int,
        t: int,
        history: History | None = None,
    ) -> float:
        """``H`` against ``partner`` with ``L`` clipped after ``remaining`` steps.

        A :class:`StationaryStream` partner's ``heeb_join`` does not
        depend on ``t``, so its scores are memoized on ``(partner, value,
        remaining)``: at most support × (window + 1) entries per partner,
        each the direct sum itself.  Other partners are summed directly.
        """
        if not isinstance(self.estimator, LExp):
            raise ValueError("windowed HEEB requires an LExp base estimator")
        key = (partner, value, remaining)
        h = self._memo.get(key)
        if h is None:
            estimator = WindowedLExp(self.estimator.alpha, remaining)
            h = heeb_join(partner, t, value, estimator, self.horizon, history)
            if isinstance(partner, StationaryStream):
                self._memo[key] = h
        return h

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        remaining = None
        if ctx.window is not None:
            remaining = max(0, tup.arrival + ctx.window - ctx.time)
        total = 0.0
        for name in ctx.partners_of(tup.side):
            partner = ctx.model_for(name)
            if partner is None:
                raise ValueError(
                    f"GenericJoinHeeb needs stream models in context "
                    f"(none for {name!r})"
                )
            history = None if partner.is_independent else ctx.latest_history(name)
            if remaining is None:
                total += heeb_join(
                    partner, ctx.time, tup.value, self.estimator, self.horizon,
                    history,
                )
            else:
                total += self.windowed_h(
                    partner, tup.value, remaining, ctx.time, history
                )
        return total


class GenericCacheHeeb(HeebStrategy):
    """Direct summation of the caching ``H`` for any reference model."""

    def __init__(self, estimator: LifetimeEstimator, horizon: int | None = None):
        self.estimator = estimator
        self.horizon = horizon

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        reference = ctx.r_model
        if reference is None:
            raise ValueError("GenericCacheHeeb needs the reference model")
        history = None
        if not reference.is_independent:
            history = ctx.latest_history("R")
        return heeb_cache(
            reference,
            ctx.time,
            tup.value,
            self.estimator,
            self.horizon,
            history,
        )


class TrendJoinHeeb(HeebStrategy):
    """Value-incremental ``H`` for linear-trend streams (Corollary 5).

    For a unit-speed trend, ``H`` depends only on the offset
    ``d = v_x − f_partner(t0)`` -- the tuple sees the same future from its
    frame of reference at every time -- so one table per partner stream,
    built lazily, answers every query in O(1):

        ``H(d) = Σ_{Δt≥1} pmf_noise(d − Δt) · e^{−Δt/α}``.

    Non-unit speeds fall back to a vectorized direct sum over the Δt range
    where the partner window covers the value.
    """

    def __init__(self, estimator: LExp, tol: float = 1e-12):
        if not isinstance(estimator, LExp):
            raise ValueError("TrendJoinHeeb requires LExp")
        self.estimator = estimator
        self.tol = tol
        self._suggested = estimator.suggested_horizon(tol)
        self._tables: dict[str, dict[int, float]] = {}
        self._windowed: dict[LinearTrendStream, np.ndarray] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._tables = {}
        self._windowed = {}

    def _table_for(self, partner: LinearTrendStream, key: str) -> dict[int, float]:
        table = self._tables.get(key)
        if table is not None:
            return table
        noise = partner.noise
        alpha = self.estimator.alpha
        extra = int(math.ceil(alpha * math.log(1.0 / self.tol)))
        table = {}
        for d in range(noise.min_value + 1, noise.max_value + extra + 1):
            lo = max(1, d - noise.max_value)
            hi = d - noise.min_value
            dts = np.arange(lo, hi + 1)
            if dts.size:
                pmfs = noise.pmf_many(d - dts)
                table[d] = float(np.dot(pmfs, np.exp(-dts / alpha)))
            else:
                table[d] = 0.0
        self._tables[key] = table
        return table

    def _direct_sum(
        self,
        partner: LinearTrendStream,
        value: int,
        t0: int,
        max_dt: int,
    ) -> float:
        """Vectorized Σ pmf(v − f(t0+Δt))·e^(−Δt/α) over Δt ≤ max_dt."""
        if max_dt < 1:
            return 0.0
        noise = partner.noise
        alpha = self.estimator.alpha
        dts = np.arange(1, max_dt + 1)
        trend_vals = np.array([partner.trend(t0 + int(dt)) for dt in dts])
        pmfs = noise.pmf_many(value - trend_vals)
        return float(np.dot(pmfs, np.exp(-dts / alpha)))

    def _windowed_table(
        self, partner: LinearTrendStream, top: int
    ) -> np.ndarray:
        """The unit-speed ``partner``'s windowed table, rows ``0..top`` at least.

        Cell ``[horizon, col]`` is the direct sum to ``horizon`` at the
        trend offset ``noise.min + 1 + col``; row ``horizon`` can be
        nonzero only on its first ``noise.max − noise.min + horizon``
        columns.  ``NaN`` marks a cell not yet filled (a filled one is a
        finite sum of probabilities).  Rows stop at the largest horizon
        requested so far, so a short window keeps the table small;
        growing keeps the column origin and copies filled cells.
        """
        table = self._windowed.get(partner)
        if table is None or table.shape[0] <= top:
            noise = partner.noise
            grown = np.full(
                (top + 1, noise.max_value - noise.min_value + top), np.nan
            )
            if table is not None:
                grown[: table.shape[0], : table.shape[1]] = table
            self._windowed[partner] = table = grown
        return table

    def _windowed_reader(
        self, partner: LinearTrendStream, t: int, top: int
    ) -> Callable[[int, int], float]:
        """``read(value, remaining)``: :meth:`windowed_h` against ``partner`` at ``t``.

        The partner's speed, table and ``f(t)`` are read once, here, so
        an eviction pays them once per side rather than once per
        candidate; each unit-speed read is then one table cell.
        ``remaining`` must not exceed ``top``.
        """
        suggested = self._suggested
        direct_sum = self._direct_sum
        if partner.speed != 1.0:
            return lambda v, r: direct_sum(partner, v, t, min(r, suggested))
        noise = partner.noise
        origin = partner.trend(t) + noise.min_value + 1
        span = noise.max_value - noise.min_value
        table = self._windowed_table(partner, min(top, suggested))

        def read(v: int, r: int) -> float:
            horizon = min(r, suggested)
            col = v - origin
            if not 0 <= col < span + horizon:
                return 0.0
            h = table.item(horizon, col)
            if h != h:
                h = direct_sum(partner, v, t, horizon)
                table[horizon, col] = h
            return h

        return read

    def windowed_h(
        self, partner: LinearTrendStream, value: int, remaining: int, t: int
    ) -> float:
        """``H`` at ``t`` with ``L`` clipped after ``remaining`` steps.

        The direct sum runs to ``min(remaining, suggested_horizon)``.  For
        a unit-speed partner it depends only on the trend offset ``value
        − f(t)`` and that clipped horizon (integer trend arithmetic makes
        the translated pmf arrays element-identical), so it is read from
        one dense offset × horizon table per partner, each cell filled by
        the direct sum on first use; offsets outside a row's nonzero
        columns read ``0.0``, which is what the sum gives there.  Other
        speeds lack translation invariance and are summed directly.
        """
        return self._windowed_reader(partner, t, remaining)(value, remaining)

    def windowed_many(
        self,
        partner: LinearTrendStream,
        values: np.ndarray,
        remaining: np.ndarray,
        t: int,
    ) -> np.ndarray:
        """:meth:`windowed_h` over non-empty 1-D int arrays, unit-speed partner.

        Fills only the cells the block needs that are still empty (by
        the direct sum, once per distinct cell), then reads the block
        with one fancy index, so each element is the float
        :meth:`windowed_h` returns for it.
        """
        noise = partner.noise
        origin = partner.trend(t) + noise.min_value + 1
        horizons = np.minimum(remaining, self._suggested)
        cols = values - origin
        inside = (cols >= 0) & (cols < noise.max_value - noise.min_value + horizons)
        table = self._windowed_table(partner, int(horizons.max()))
        cols = np.where(inside, cols, 0)
        out = table[horizons, cols]
        missing = inside & np.isnan(out)
        if missing.any():
            for h, col in set(
                zip(horizons[missing].tolist(), cols[missing].tolist())
            ):
                table[h, col] = self._direct_sum(partner, origin + col, t, h)
            out = table[horizons, cols]
        return np.where(inside, out, 0.0)

    def table_array(
        self, partner: LinearTrendStream, key: str
    ) -> tuple[int, np.ndarray]:
        """The lazily built offset table as ``(lowest_offset, values)``.

        Offsets are contiguous, so the dict maps losslessly onto a dense
        array; the batch engine scores whole candidate blocks by indexing
        it (entries outside the array are 0, matching ``table.get(d,
        0.0)``).  Returns the exact same floats the scalar path uses.
        """
        table = self._table_for(partner, key)
        lo = partner.noise.min_value + 1
        return lo, np.array([table[d] for d in range(lo, lo + len(table))])

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        partner = ctx.partner_model(tup.side)
        if not isinstance(partner, LinearTrendStream):
            raise ValueError("TrendJoinHeeb expects LinearTrendStream partners")
        v = int(tup.value)
        if ctx.window is not None:
            # Section 7: the tuple's own window expiry clips L, so the
            # score also depends on the tuple's clipped horizon.
            remaining = max(0, tup.arrival + ctx.window - ctx.time)
            return self.windowed_h(partner, v, remaining, ctx.time)
        if partner.speed == 1.0:
            table = self._table_for(partner, f"partner-of-{tup.side}")
            return table.get(v - partner.trend(ctx.time), 0.0)
        # General speed: direct vectorized sum over the covering Δt range.
        return self._direct_sum(partner, v, ctx.time, self._suggested)

    def h_values(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        """Windowed blocks read each side's partner once per eviction.

        Each side gets one :meth:`_windowed_reader`, sized to the
        block's largest remaining window; unwindowed blocks score per
        tuple.
        """
        window = ctx.window
        if window is None or not candidates:
            return super().h_values(candidates, ctx)
        t = ctx.time
        expiry = window - t
        top = max(0, max(tup.arrival for tup in candidates) + expiry)
        readers: dict[str, Callable[[int, int], float]] = {}
        out = []
        for tup in candidates:
            read = readers.get(tup.side)
            if read is None:
                partner = ctx.partner_model(tup.side)
                if not isinstance(partner, LinearTrendStream):
                    raise ValueError(
                        "TrendJoinHeeb expects LinearTrendStream partners"
                    )
                read = readers[tup.side] = self._windowed_reader(partner, t, top)
            out.append(read(int(tup.value), max(0, tup.arrival + expiry)))
        return out


class WalkJoinHeeb(HeebStrategy):
    """Precomputed ``h1`` per stream for random-walk joins (Theorem 5(2)).

    ``H = h1_partner(v_x − x^partner_{t0})`` where ``x^partner_{t0}`` is
    the partner stream's most recent observation.
    """

    def __init__(self, estimator: LExp, horizon: int | None = None):
        if not isinstance(estimator, LExp):
            raise ValueError("WalkJoinHeeb requires LExp")
        self.estimator = estimator
        self.horizon = horizon
        self._tables: dict[str, H1Table] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._tables = {}

    def table_for(self, partner: RandomWalkStream, key: str) -> H1Table:
        """The per-partner ``h1`` table, built lazily.

        The batch engine reuses the exact same table via
        :meth:`H1Table.lookup`, which keeps batch and scalar scores
        bit-identical.
        """
        table = self._tables.get(key)
        if table is None:
            table = random_walk_h1_join(partner, self.estimator, self.horizon)
            self._tables[key] = table
        return table

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        partner = ctx.partner_model(tup.side)
        if not isinstance(partner, RandomWalkStream):
            raise ValueError("WalkJoinHeeb expects RandomWalkStream partners")
        history = ctx.latest_history(ctx.partners_of(tup.side)[0])
        if history is None:
            return 0.0
        table = self.table_for(partner, f"partner-of-{tup.side}")
        return table(int(tup.value) - int(history.last_value))


class WalkCacheHeeb(HeebStrategy):
    """Precomputed ``h1`` for random-walk *caching* (Theorem 5(2)).

    ``H = h1(v_x − x_{t0})`` with ``h1`` the L-weighted first-reference
    curve of Figure 6 (see
    :func:`repro.core.precompute.random_walk_h1_cache`).  The table is
    built offline and passed in, mirroring the AR(1) surface workflow.
    """

    def __init__(self, table: H1Table):
        self.table = table

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        history = ctx.latest_history("R")
        if history is None:
            return 0.0
        return self.table(int(tup.value) - int(history.last_value))


class AR1CacheHeeb(HeebStrategy):
    """Spline-interpolated ``h2`` surface for AR(1) caching (Theorem 5(1)).

    Exactly the paper's REAL setup: ``h2`` precomputed at a small control
    grid (25 points by default) and interpolated bicubically at runtime;
    ``H = h2(v_x, x_{t0})``.
    """

    def __init__(self, model: AR1Stream, surface: H2Surface):
        self.model = model
        self.surface = surface

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        history = ctx.latest_history("R")
        if history is None:
            return 0.0
        latent_now = self.model.to_latent(int(history.last_value))
        return self.surface(float(tup.value), latent_now)

    def h_values(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        history = ctx.latest_history("R")
        if history is None:
            return [0.0] * len(candidates)
        latent_now = self.model.to_latent(int(history.last_value))
        values = np.fromiter(
            (tup.value for tup in candidates), np.float64, len(candidates)
        )
        return self.surface.evaluate_many(values, latent_now).tolist()


class AR1JoinHeeb(HeebStrategy):
    """Precomputed ``h2`` surface for AR(1) *joining* (Theorem 5(1)).

    ``H = h2(v_x, x^partner_{t0})``: the surface weights the partner's
    conditional match probabilities (no taboo term), precomputed over a
    control grid and interpolated bicubically, exactly like the caching
    variant used for REAL.
    """

    def __init__(self, model: AR1Stream, surface: H2Surface):
        self.model = model
        self.surface = surface

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        history = ctx.latest_history(ctx.partners_of(tup.side)[0])
        if history is None:
            return 0.0
        latent_now = self.model.to_latent(int(history.last_value))
        return self.surface(float(tup.value), latent_now)


class BandJoinHeeb(HeebStrategy):
    """Direct band-join ``H`` for any stream model (future-work variant).

    Uses the non-equality predicate ``|X^partner_t − v_x| ≤ band``; see
    :func:`repro.core.heeb.heeb_join_band`.
    """

    def __init__(
        self,
        band: int,
        estimator: LifetimeEstimator,
        horizon: int | None = None,
    ):
        if band < 0:
            raise ValueError("band must be nonnegative")
        self.band = int(band)
        self.estimator = estimator
        self.horizon = horizon

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        from ..core.heeb import heeb_join_band

        partner = ctx.partner_model(tup.side)
        if partner is None:
            raise ValueError("BandJoinHeeb needs stream models in context")
        history = None
        if not partner.is_independent:
            history = ctx.latest_history(ctx.partners_of(tup.side)[0])
        return heeb_join_band(
            partner,
            ctx.time,
            tup.value,
            self.band,
            self.estimator,
            self.horizon,
            history,
        )


class HeebPolicy(ScoredPolicy):
    """Evict the candidates with the lowest estimated expected benefit."""

    name = "HEEB"

    def __init__(self, strategy: HeebStrategy):
        self.strategy = strategy

    def reset(self, ctx: PolicyContext) -> None:
        self.strategy.reset(ctx)

    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        return self.strategy.h_value(tup, ctx)

    def scores(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        return self.strategy.h_values(candidates, ctx)
