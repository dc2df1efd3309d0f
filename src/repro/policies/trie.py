"""Trie-style shared-prefix caching with adaptive per-level budgets.

In an n-way topology the cached tuples factor naturally into a shallow
trie: the first level branches on the *stream* a tuple arrived on, the
second on its join-attribute *value*.  Every query edge a stream
participates in probes the same ``(stream, value)`` node, so the benefit
of keeping that node is shared by all of them — the multi-join analogue
of shared prefixes in a cache trie.  :class:`TrieCachePolicy` exploits
both consequences:

* **Shared-prefix scoring.**  All candidate tuples sitting under one
  ``(stream, value)`` node share a single benefit computation per step
  (memoized, cleared when the step advances).  With stream models in the
  context the node benefit is the Appendix-C HEEB sum over the stream's
  partners (:func:`repro.core.heeb.heeb_join`); without models it falls
  back to the observed partner-frequency of the value, maintained
  incrementally the way PROB keeps its counts.

* **Adaptive per-level budgets.**  The cache capacity is split into
  per-stream keep budgets.  Each eviction round measures, per level, the
  best score that was still evicted — the level's *cutoff*, the same
  quantity the scored policies publish as ``scores.cutoff`` — and an
  exponential moving average of those cutoffs re-weights the budgets:
  levels whose evicted tuples were valuable grow, levels evicting junk
  shrink, subject to a minimum share floor so no stream is starved
  outright.  Budgets are reported through the ``trie.budget.<stream>``
  series.

The policy is written against the partner-aware
:class:`~repro.policies.base.PolicyContext` surface
(:meth:`~repro.policies.base.PolicyContext.partners_of`,
:meth:`~repro.policies.base.PolicyContext.model_for`), so the binary
join and the caching problem are served as the 1-partner and 0-partner
degenerate cases of the same code path.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.heeb import heeb_cache, heeb_join
from ..core.lifetime import LExp, LifetimeEstimator
from ..core.tuples import StreamTuple
from .base import PolicyContext, ReplacementPolicy

__all__ = ["TrieCachePolicy"]


class TrieCachePolicy(ReplacementPolicy):
    """Shared-prefix trie caching with adaptive per-level budgets.

    Parameters
    ----------
    estimator:
        Lifetime estimator for the model-aware node benefit (defaults to
        ``LExp(8.0)``); only consulted when the context carries stream
        models.
    horizon:
        Look-ahead truncation for the HEEB sums.
    beta:
        EMA weight of the newest per-level cutoff (0 < beta <= 1).
        Higher values re-allocate budgets faster.
    min_share:
        Floor on any level's budget share, as a fraction of an equal
        split (0 <= min_share <= 1).  ``0.1`` means no stream's budget
        drops below 10% of ``cache_size / n_levels``.
    """

    name = "TRIE"

    def __init__(
        self,
        estimator: Optional[LifetimeEstimator] = None,
        horizon: int = 64,
        beta: float = 0.25,
        min_share: float = 0.1,
    ):
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0.0 <= min_share <= 1.0:
            raise ValueError("min_share must be in [0, 1]")
        self.estimator = estimator if estimator is not None else LExp(8.0)
        self.horizon = horizon
        self.beta = beta
        self.min_share = min_share
        self._levels: tuple[str, ...] = ()
        #: EMA of each level's eviction cutoff (its budget pressure).
        self._pressure: dict[str, float] = {}
        #: Current budget shares per level (sum to 1 over levels).
        self._shares: dict[str, float] = {}
        #: Per-step memo of node scores, keyed ``(stream, value)``.
        self._memo: dict[tuple[str, int], float] = {}
        #: Frequency fallback: per-stream value counts plus the history
        #: prefix length already folded in (PROB-style incremental sync).
        self._counts: dict[str, dict[int, int]] = {}
        self._consumed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, ctx: PolicyContext) -> None:
        """Derive the trie levels from the topology and equalize budgets."""
        # Caching keeps the single reference-stream level.
        if ctx.kind == "cache":
            self._levels = ("R",)
        else:
            self._levels = tuple(ctx.partner_names)
        self._pressure = {name: 0.0 for name in self._levels}
        self._shares = {
            name: 1.0 / len(self._levels) for name in self._levels
        }
        self._memo = {}
        self._counts = {name: {} for name in self._levels}
        self._consumed = {name: 0 for name in self._levels}

    # ------------------------------------------------------------------
    # Node scoring (shared across every tuple under a (stream, value))
    # ------------------------------------------------------------------
    def _sync(self, ctx: PolicyContext) -> None:
        """Start this step's node-score memo and fold new history
        entries into the frequency counts.

        Simulators select at most once per step, so a fresh memo per
        call is the per-step epoch (and a second call in the same step
        would only recompute the same floats).
        """
        self._memo = {}
        for name in self._levels:
            history = ctx.history_for(name)
            counts = self._counts[name]
            for value in history[self._consumed[name] :]:
                if value is not None:
                    counts[value] = counts.get(value, 0) + 1
            self._consumed[name] = len(history)

    def _node_score(self, stream: str, value: int, ctx: PolicyContext) -> float:
        key = (stream, value)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if ctx.kind == "cache":
            score = self._cache_benefit(value, ctx)
        else:
            score = self._join_benefit(stream, value, ctx)
        self._memo[key] = score
        return score

    def _cache_benefit(self, value: int, ctx: PolicyContext) -> float:
        model = ctx.r_model
        if model is None:
            return float(self._counts["R"].get(value, 0))
        history = None if model.is_independent else ctx.latest_history("R")
        return heeb_cache(
            model, ctx.time, value, self.estimator, self.horizon, history
        )

    def _join_benefit(self, stream: str, value: int, ctx: PolicyContext) -> float:
        total = 0.0
        for name in ctx.partners_of(stream):
            model = ctx.model_for(name)
            if model is None:
                total += float(self._counts.get(name, {}).get(value, 0))
                continue
            history = None
            if not model.is_independent:
                history = ctx.latest_history(name)
            total += heeb_join(
                model, ctx.time, value, self.estimator, self.horizon, history
            )
        return total

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if n_evict <= 0:
            return []
        self._sync(ctx)
        keep_count = len(candidates) - n_evict
        scored = sorted(
            (self._node_score(tup.side, tup.value, ctx), tup.uid, tup)
            for tup in candidates
        )
        if keep_count <= 0:
            victims = [tup for _, _, tup in scored]
            self._finish_round(scored[:n_evict], ctx)
            return victims

        # Phase 1: per-level keeps, up to each level's integer quota.
        by_level: dict[str, list[tuple[float, int, StreamTuple]]] = {}
        for entry in scored:
            by_level.setdefault(entry[2].side, []).append(entry)
        quotas = self._integer_quotas(keep_count, by_level)
        kept: set[int] = set()
        for name, group in by_level.items():
            # ``scored`` order is (score, uid) ascending — keep from the
            # back so ties evict the lower uid, like ScoredPolicy.
            for entry in group[len(group) - quotas.get(name, 0) :]:
                kept.add(entry[1])

        # Phase 2: fill any leftover keeps globally by score.
        leftover = keep_count - len(kept)
        if leftover > 0:
            for entry in reversed(scored):
                if leftover == 0:
                    break
                if entry[1] not in kept:
                    kept.add(entry[1])
                    leftover -= 1

        victims_scored = [e for e in scored if e[1] not in kept]
        self._finish_round(victims_scored, ctx)
        return [tup for _, _, tup in victims_scored]

    def _integer_quotas(
        self,
        keep_count: int,
        by_level: dict[str, list],
    ) -> dict[str, int]:
        """Split ``keep_count`` across the candidate levels by budget
        share (largest-remainder rounding, capped at group size)."""
        present = [name for name in self._levels if name in by_level]
        if not present:
            return {}
        total_share = sum(self._shares[name] for name in present)
        raw = {
            name: keep_count * self._shares[name] / total_share
            for name in present
        }
        quotas = {name: min(int(raw[name]), len(by_level[name])) for name in present}
        remainder = keep_count - sum(quotas.values())
        # Hand out leftover slots by descending fractional part (ties in
        # level order), skipping saturated levels.
        order = sorted(
            present, key=lambda n: (-(raw[n] - int(raw[n])), present.index(n))
        )
        while remainder > 0:
            progressed = False
            for name in order:
                if remainder == 0:
                    break
                if quotas[name] < len(by_level[name]):
                    quotas[name] += 1
                    remainder -= 1
                    progressed = True
            if not progressed:
                break
        return quotas

    def _finish_round(
        self,
        victims_scored: Sequence[tuple[float, int, StreamTuple]],
        ctx: PolicyContext,
    ) -> None:
        """Publish the cutoff, then EMA-adapt the per-level budgets."""
        rec = ctx.recorder
        if victims_scored and rec.enabled:
            rec.series(
                "scores.cutoff", ctx.time, max(e[0] for e in victims_scored)
            )
        cutoffs = {name: 0.0 for name in self._levels}
        for score, _, tup in victims_scored:
            if tup.side in cutoffs and score > cutoffs[tup.side]:
                cutoffs[tup.side] = score
        beta = self.beta
        for name in self._levels:
            self._pressure[name] = (
                (1.0 - beta) * self._pressure[name] + beta * cutoffs[name]
            )
        floor = self.min_share / len(self._levels)
        total = sum(self._pressure.values())
        if total > 0.0:
            shares = {
                name: max(self._pressure[name] / total, floor)
                for name in self._levels
            }
            norm = sum(shares.values())
            self._shares = {n: s / norm for n, s in shares.items()}
        if rec.enabled:
            for name in self._levels:
                rec.series(
                    f"trie.budget.{name}", ctx.time, self._shares[name]
                )
