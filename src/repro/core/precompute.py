"""Precomputed HEEB functions for Markov streams -- Theorem 5 / Section 4.4.3.

Time- and value-incremental computation require independent per-step
variables, so random walks and AR(1) streams need a different trick.
Theorem 5 shows ``H_x`` depends on time-invariant quantities only:

* **random walk with drift** (``φ1 = 1``): ``H_x = h1(v_x − x_{t0})`` --
  a one-dimensional curve over the offset from the latest observation;
* **AR(1)** (``0 < |φ1| < 1``): ``H_x = h2(v_x, x_{t0})`` -- a
  two-dimensional surface.

Both can be precomputed offline and stored compactly.  The paper stores
``h2`` via bicubic interpolation of 25 control points (Section 6.5,
Figures 15/16); :class:`H2Surface` reproduces that with a SciPy bicubic
spline.

Caching variants weight *first-reference* probabilities (requiring a
taboo dynamic program); joining variants weight plain match
probabilities.  For AR(1) caching, the DP runs exactly for
``exact_steps`` steps, after which the process has mixed and the
remaining contribution is closed in geometric/exponential form using the
stationary reference probability of the taboo bucket.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.stats import norm

from ..streams.ar1 import AR1Stream
from ..streams.random_walk import RandomWalkStream
from .first_reference import ar1_transition_matrix, first_reference_random_walk
from .lifetime import LExp, LifetimeEstimator

__all__ = [
    "H1Table",
    "random_walk_h1_join",
    "random_walk_h1_cache",
    "H2Surface",
    "ar1_h2_join",
    "ar1_h2_cache",
    "ar1_cache_heeb_values",
    "ar1_stationary_bucket_prob",
    "save_tables",
    "load_tables",
]


class H1Table:
    """A precomputed ``h1`` curve: ``H = h1(v_x − x_{t0})`` (Theorem 5(2)).

    Stores exact values on an integer offset grid; offsets outside the
    grid have (numerically) zero ``H``.
    """

    def __init__(self, offsets: np.ndarray, values: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if offsets.ndim != 1 or offsets.shape != values.shape:
            raise ValueError("offsets and values must be matching 1-D arrays")
        if offsets.size and np.any(np.diff(offsets) != 1):
            raise ValueError("offsets must be contiguous integers")
        self._lo = int(offsets[0]) if offsets.size else 0
        self._values = values
        self._offsets = offsets

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __call__(self, offset: int) -> float:
        idx = int(offset) - self._lo
        if 0 <= idx < self._values.size:
            return float(self._values[idx])
        return 0.0

    def lookup(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over an arbitrary-shape offset array.

        Each element equals the scalar lookup bit-for-bit (same stored
        value, zero outside the grid); this is the array-in/array-out
        entry point the batch engine scores whole ``(B, slots)`` blocks
        through.
        """
        offs = np.asarray(offsets, dtype=np.int64)
        if self._values.size == 0:
            return np.zeros(offs.shape)
        idx = offs - self._lo
        valid = (idx >= 0) & (idx < self._values.size)
        return np.where(
            valid, self._values[np.clip(idx, 0, self._values.size - 1)], 0.0
        )


def _lexp_weights(estimator: LifetimeEstimator, horizon: int | None) -> np.ndarray:
    h = estimator.suggested_horizon() if horizon is None else horizon
    if h is None:
        raise ValueError(
            "estimator has no natural horizon; pass horizon explicitly"
        )
    return estimator.weights(h)


def random_walk_h1_join(
    walk: RandomWalkStream,
    estimator: LifetimeEstimator,
    horizon: int | None = None,
) -> H1Table:
    """Joining ``h1``: ``h1(d) = Σ_Δt Pr{S_Δt = d − Δt·φ0} · L(Δt)``.

    ``S_Δt`` is the sum of ``Δt`` i.i.d. steps; the multi-step pmfs come
    from cached convolutions on the walk.
    """
    weights = _lexp_weights(estimator, horizon)
    h = weights.size
    lo = min(
        dt * walk.drift + walk.step_sum(dt).min_value for dt in range(1, h + 1)
    )
    hi = max(
        dt * walk.drift + walk.step_sum(dt).max_value for dt in range(1, h + 1)
    )
    offsets = np.arange(lo, hi + 1)
    values = np.zeros(offsets.size)
    for dt in range(1, h + 1):
        dist = walk.step_sum(dt)
        values += weights[dt - 1] * dist.pmf_many(offsets - dt * walk.drift)
    return H1Table(offsets, values)


def random_walk_h1_cache(
    walk: RandomWalkStream,
    estimator: LifetimeEstimator,
    horizon: int | None = None,
    max_offset: int | None = None,
) -> H1Table:
    """Caching ``h1``: first-reference probabilities weighted by ``L``.

    This is the curve plotted in Figure 6 of the paper (random-walk
    reference streams with drift 0 / 2 / 4).  One taboo DP runs per
    offset, so the grid is limited to offsets with non-negligible mass.
    """
    weights = _lexp_weights(estimator, horizon)
    h = weights.size
    if max_offset is None:
        last = walk.step_sum(h)
        max_offset = max(
            abs(h * walk.drift + last.min_value),
            abs(h * walk.drift + last.max_value),
        )
    offsets = np.arange(-max_offset, max_offset + 1)
    values = np.zeros(offsets.size)
    anchor = walk.start
    for i, d in enumerate(offsets):
        first = first_reference_random_walk(walk, anchor + int(d), h)
        values[i] = float(np.dot(first, weights))
    return H1Table(offsets, values)


def ar1_stationary_bucket_prob(model: AR1Stream, bucket_value: int) -> float:
    """Stationary probability that the AR(1) emits the given bucket."""
    lo = (bucket_value - 0.5) * model.bucket
    hi = (bucket_value + 0.5) * model.bucket
    return float(
        norm.cdf(hi, loc=model.stationary_mean, scale=model.stationary_std)
        - norm.cdf(lo, loc=model.stationary_mean, scale=model.stationary_std)
    )


def ar1_cache_heeb_values(
    model: AR1Stream,
    taboo_bucket: int,
    x0_latents: np.ndarray,
    estimator: LExp,
    exact_steps: int = 60,
    n_sigmas: float = 6.0,
    close_tail: bool = True,
) -> np.ndarray:
    """Caching ``H`` values for one taboo bucket across many anchors.

    Runs the taboo DP exactly for ``exact_steps`` steps (vectorized over
    all anchor values at once), then closes the tail analytically: after
    the AR(1) has mixed, first-reference events are (approximately)
    geometric with the stationary bucket probability ``p∞``, and

        ``tail = survival · Σ_{Δt>m} p∞ (1−p∞)^{Δt−m−1} e^{−Δt/α}``
        ``     = survival · p∞ · e^{−(m+1)/α} / (1 − (1−p∞) e^{−1/α})``.
    """
    x0_latents = np.asarray(x0_latents, dtype=np.float64)
    lo_latent = (
        min(model.stationary_mean, float(x0_latents.min()))
        - n_sigmas * model.stationary_std
    )
    hi_latent = (
        max(model.stationary_mean, float(x0_latents.max()))
        + n_sigmas * model.stationary_std
    )
    buckets = np.arange(model.to_bucket(lo_latent), model.to_bucket(hi_latent) + 1)
    taboo_idx = int(taboo_bucket) - int(buckets[0])
    in_range = 0 <= taboo_idx < buckets.size

    transition = ar1_transition_matrix(model, buckets)
    edges = (np.concatenate([buckets, [buckets[-1] + 1]]) - 0.5) * model.bucket

    # Exact first step from each latent anchor.
    means1 = model.phi0 + model.phi1 * x0_latents
    cdf = norm.cdf((edges[None, :] - means1[:, None]) / model.sigma)
    dist = np.diff(cdf, axis=1)
    dist[:, 0] += cdf[:, 0]
    dist[:, -1] += 1.0 - cdf[:, -1]

    alpha = estimator.alpha
    h_values = np.zeros(x0_latents.size)
    for dt in range(1, exact_steps + 1):
        if dt > 1:
            dist = dist @ transition
        if in_range:
            h_values += dist[:, taboo_idx] * math.exp(-dt / alpha)
            dist[:, taboo_idx] = 0.0

    if close_tail and in_range:
        p_inf = ar1_stationary_bucket_prob(model, int(taboo_bucket))
        survival = dist.sum(axis=1)
        ratio = (1.0 - p_inf) * math.exp(-1.0 / alpha)
        tail = survival * p_inf * math.exp(-(exact_steps + 1) / alpha) / (1.0 - ratio)
        h_values += tail
    return h_values


class H2Surface:
    """A precomputed ``h2`` surface with bicubic interpolation.

    ``H = h2(v_x, x_{t0})`` per Theorem 5(1).  The surface is stored at
    control points (the paper uses 25, i.e. a 5×5 grid) and evaluated via
    a bicubic spline; queries outside the control domain are clamped to
    its boundary.
    """

    def __init__(
        self,
        v_grid: np.ndarray,
        x_grid: np.ndarray,
        values: np.ndarray,
    ):
        v_grid = np.asarray(v_grid, dtype=np.float64)
        x_grid = np.asarray(x_grid, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (v_grid.size, x_grid.size):
            raise ValueError(
                f"values shape {values.shape} does not match grids "
                f"({v_grid.size}, {x_grid.size})"
            )
        if v_grid.size < 4 or x_grid.size < 4:
            raise ValueError("bicubic interpolation needs >= 4 points per axis")
        self.v_grid = v_grid
        self.x_grid = x_grid
        self.values = values
        self._spline = RectBivariateSpline(v_grid, x_grid, values, kx=3, ky=3)

    def __call__(self, v: float, x0: float) -> float:
        """Spline value at one point, clamped to the control domain.

        Evaluates through the pointwise fitpack routine (``.ev``) that
        :meth:`evaluate_many` uses, so a scalar query and the same pair
        inside a batch array give bit-identical floats.
        """
        v_c = float(np.clip(v, self.v_grid[0], self.v_grid[-1]))
        x_c = float(np.clip(x0, self.x_grid[0], self.x_grid[-1]))
        return float(self._spline.ev(v_c, x_c))

    def evaluate_grid(
        self, v_values: np.ndarray, x_values: np.ndarray
    ) -> np.ndarray:
        """Spline values on a dense grid (rows: v, columns: x)."""
        v_c = np.clip(v_values, self.v_grid[0], self.v_grid[-1])
        x_c = np.clip(x_values, self.x_grid[0], self.x_grid[-1])
        return self._spline(v_c, x_c)

    def evaluate_many(self, v_values: np.ndarray, x_values: np.ndarray) -> np.ndarray:
        """Pointwise spline evaluation over broadcastable (v, x) arrays.

        Unlike :meth:`evaluate_grid` (outer product), this pairs
        ``v_values[i]`` with ``x_values[i]``, which is the shape batch
        scoring needs.  Out-of-domain queries clamp to the control-grid
        boundary, and every element equals the scalar :meth:`__call__`
        bit for bit (same clip, same routine).
        """
        v_c = np.clip(np.asarray(v_values, dtype=np.float64), self.v_grid[0], self.v_grid[-1])
        x_c = np.clip(np.asarray(x_values, dtype=np.float64), self.x_grid[0], self.x_grid[-1])
        v_b, x_b = np.broadcast_arrays(v_c, x_c)
        flat = self._spline.ev(v_b.ravel(), x_b.ravel())
        return flat.reshape(v_b.shape)


def ar1_h2_join(
    model: AR1Stream,
    estimator: LifetimeEstimator,
    v_grid: np.ndarray,
    x_grid: np.ndarray,
    horizon: int | None = None,
) -> H2Surface:
    """Joining ``h2``: match probabilities weighted by ``L`` (no taboo).

    ``v_grid`` holds emitted bucket values, ``x_grid`` latent anchors.
    Exact via the conditional normal moments of the AR(1).
    """
    weights = _lexp_weights(estimator, horizon)
    h = weights.size
    v_grid = np.asarray(v_grid, dtype=np.float64)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    values = np.zeros((v_grid.size, x_grid.size))
    lo = (v_grid - 0.5) * model.bucket
    hi = (v_grid + 0.5) * model.bucket
    for j, x0 in enumerate(x_grid):
        for dt in range(1, h + 1):
            mean, std = model.conditional_moments(dt, float(x0))
            probs = norm.cdf(hi, loc=mean, scale=std) - norm.cdf(
                lo, loc=mean, scale=std
            )
            values[:, j] += weights[dt - 1] * probs
    return H2Surface(v_grid, x_grid, values)


def ar1_h2_cache(
    model: AR1Stream,
    estimator: LExp,
    v_grid: np.ndarray,
    x_grid: np.ndarray,
    exact_steps: int = 60,
    close_tail: bool = True,
) -> H2Surface:
    """Caching ``h2``: the surface of Figures 15/16.

    One vectorized taboo DP per ``v`` control point computes the column
    of ``H`` values across all ``x`` anchors.
    """
    v_grid = np.asarray(v_grid)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    values = np.zeros((v_grid.size, x_grid.size))
    for i, v in enumerate(v_grid):
        values[i, :] = ar1_cache_heeb_values(
            model,
            int(round(float(v))),
            x_grid,
            estimator,
            exact_steps=exact_steps,
            close_tail=close_tail,
        )
    return H2Surface(v_grid.astype(np.float64), x_grid, values)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def save_tables(path, **tables) -> None:
    """Persist precomputed ``H1Table`` / ``H2Surface`` objects to ``.npz``.

    Precomputation is an offline step in the paper's architecture
    (Section 4.4.3); persisting its outputs lets a stream processor load
    them at startup instead of recomputing.  Example::

        save_tables("heeb.npz", walk=h1_table, real=h2_surface)
        tables = load_tables("heeb.npz")
    """
    arrays: dict[str, np.ndarray] = {}
    for name, table in tables.items():
        if isinstance(table, H1Table):
            arrays[f"{name}.kind"] = np.array("h1")
            arrays[f"{name}.offsets"] = table.offsets
            arrays[f"{name}.values"] = table.values
        elif isinstance(table, H2Surface):
            arrays[f"{name}.kind"] = np.array("h2")
            arrays[f"{name}.v_grid"] = table.v_grid
            arrays[f"{name}.x_grid"] = table.x_grid
            arrays[f"{name}.values"] = table.values
        else:
            raise TypeError(
                f"{name}: expected H1Table or H2Surface, got {type(table)}"
            )
    np.savez(path, **arrays)


def load_tables(path) -> dict:
    """Load tables persisted by :func:`save_tables`."""
    data = np.load(path, allow_pickle=False)
    names = {key.split(".")[0] for key in data.files}
    out: dict = {}
    for name in names:
        kind = str(data[f"{name}.kind"])
        if kind == "h1":
            out[name] = H1Table(data[f"{name}.offsets"], data[f"{name}.values"])
        elif kind == "h2":
            out[name] = H2Surface(
                data[f"{name}.v_grid"],
                data[f"{name}.x_grid"],
                data[f"{name}.values"],
            )
        else:  # pragma: no cover - file written by save_tables only
            raise ValueError(f"unknown table kind {kind!r}")
    return out
