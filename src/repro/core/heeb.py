"""HEEB: the Heuristic of Estimated Expected Benefit -- Section 4.3.

For each candidate tuple ``x``, HEEB computes

    ``H_x = B_x(1) L_x(1) + Σ_{Δt≥2} (B_x(Δt) − B_x(Δt−1)) L_x(Δt)``,

the expected total benefit of caching ``x`` weighted by the estimated
probability ``L_x(Δt)`` that ``x`` survives in the cache that long.
Tuples with the lowest ``H`` are discarded.  Theorem 4 guarantees HEEB
agrees with every optimal decision identified by dominance tests when the
``L`` functions satisfy the five properties of Section 4.3.

Equivalent forms used here (both proved in the paper by applying Lemma 1
/ Corollary 1 to the definition):

* joining: ``H_x = Σ_{Δt≥1} Pr{X^R_{t0+Δt} = v_x | x̄_t0} · L(Δt)``;
* caching: ``H_x = Σ_{Δt≥1} Pr{v_x first referenced at t0+Δt | x̄_t0}
  · L(Δt)``.
"""

from __future__ import annotations

import numpy as np

from ..streams.base import History, StreamModel, Value
from .ecb import ECB
from .first_reference import first_reference_probs
from .lifetime import LifetimeEstimator

__all__ = [
    "heeb_from_ecb",
    "heeb_join",
    "heeb_join_batch",
    "heeb_join_band",
    "heeb_cache",
    "heeb_cache_batch",
    "default_horizon",
]


def default_horizon(estimator: LifetimeEstimator, fallback: int = 500) -> int:
    """Pick a summation horizon from the estimator's decay, if it has one."""
    h = estimator.suggested_horizon()
    return fallback if h is None else max(1, min(h, 100_000))


def heeb_from_ecb(ecb: ECB, estimator: LifetimeEstimator) -> float:
    """``H`` from a materialized ECB: Σ increments × survival weights."""
    weights = estimator.weights(ecb.horizon)
    return float(np.dot(ecb.increments(), weights))


def heeb_join(
    partner: StreamModel,
    t0: int,
    value: Value,
    estimator: LifetimeEstimator,
    horizon: int | None = None,
    history: History | None = None,
) -> float:
    """Joining-problem ``H_x`` for a tuple joining against ``partner``."""
    if value is None:
        return 0.0
    h = default_horizon(estimator) if horizon is None else horizon
    weights = estimator.weights(h)
    probs = np.array(
        [partner.prob(t0 + dt, value, history) for dt in range(1, h + 1)]
    )
    return float(np.dot(probs, weights))


def heeb_join_batch(
    partner: StreamModel,
    t0: int,
    values: "np.ndarray | list[Value]",
    estimator: LifetimeEstimator,
    horizon: int | None = None,
    history: History | None = None,
) -> np.ndarray:
    """Vectorized :func:`heeb_join`: ``H`` for many candidate values.

    Materializes one conditional distribution per look-ahead step and
    evaluates all values against it, so the cost is ``O(horizon)``
    distribution queries instead of ``O(len(values) · horizon)`` scalar
    pmf calls.  ``None`` values get ``H = 0``.  Agrees with the scalar
    function up to floating-point summation order.
    """
    h = default_horizon(estimator) if horizon is None else horizon
    weights = estimator.weights(h)
    none_mask = np.array([v is None for v in values], dtype=bool)
    safe = np.array([0 if v is None else int(v) for v in values], dtype=np.int64)
    probs = np.zeros((safe.size, h))
    for dt in range(1, h + 1):
        dist = partner.cond_dist(t0 + dt, history)
        probs[:, dt - 1] = dist.pmf_many(safe)
    out = probs @ weights
    out[none_mask] = 0.0
    return out


def heeb_cache_batch(
    reference: StreamModel,
    t0: int,
    values: "np.ndarray | list[Value]",
    estimator: LifetimeEstimator,
    horizon: int | None = None,
    history: History | None = None,
) -> np.ndarray:
    """Vectorized :func:`heeb_cache`: caching ``H`` for many values.

    The taboo first-reference dynamic program is inherently per-value
    (each value changes the taboo state), so this runs one DP per value
    and only vectorizes the final weighting; it exists so batch callers
    have an array-in/array-out entry point symmetric with
    :func:`heeb_join_batch`.
    """
    h = default_horizon(estimator) if horizon is None else horizon
    weights = estimator.weights(h)
    out = np.zeros(len(values))
    for i, v in enumerate(values):
        if v is None:
            continue
        first = first_reference_probs(reference, t0, int(v), h, history)
        out[i] = float(np.dot(first, weights))
    return out


def heeb_join_band(
    partner: StreamModel,
    t0: int,
    value: Value,
    band: int,
    estimator: LifetimeEstimator,
    horizon: int | None = None,
    history: History | None = None,
) -> float:
    """Band-join ``H_x``: per-step band match probabilities × ``L``."""
    if band < 0:
        raise ValueError("band must be nonnegative")
    if value is None:
        return 0.0
    h = default_horizon(estimator) if horizon is None else horizon
    weights = estimator.weights(h)
    v = int(value)
    probs = np.array(
        [
            sum(
                partner.prob(t0 + dt, v + offset, history)
                for offset in range(-band, band + 1)
            )
            for dt in range(1, h + 1)
        ]
    )
    return float(np.dot(probs, weights))


def heeb_cache(
    reference: StreamModel,
    t0: int,
    value: Value,
    estimator: LifetimeEstimator,
    horizon: int | None = None,
    history: History | None = None,
) -> float:
    """Caching-problem ``H_x`` for a database tuple referenced by ``reference``."""
    if value is None:
        return 0.0
    h = default_horizon(estimator) if horizon is None else horizon
    weights = estimator.weights(h)
    first = first_reference_probs(reference, t0, int(value), h, history)
    return float(np.dot(first, weights))
