"""Dominance-guarded replacement: Corollary 2 as an executable policy.

The paper's decision procedure is two-staged: if a *dominated subset* of
the right size exists, discarding it is provably optimal (Theorem 3 /
Corollary 2); only when candidates are incomparable is a heuristic such
as HEEB needed.  :class:`DominanceGuardedPolicy` implements exactly this
split: it materializes each candidate's ECB, discards a dominated subset
first, and delegates any remaining evictions to a fallback policy.

Besides being faithful to the paper's framework, the guard is a
correctness harness: whatever the fallback does, the guarded evictions
are optimal, so a guarded policy can never be worse than its fallback on
the dominance-forced decisions.
"""

from __future__ import annotations

from typing import Sequence

from ..core.dominance import find_dominated_subset
from ..core.ecb import ECB, ecb_cache, ecb_join
from ..core.tuples import StreamTuple
from .base import PolicyContext, ReplacementPolicy

__all__ = ["DominanceGuardedPolicy"]


class DominanceGuardedPolicy(ReplacementPolicy):
    """Evict dominated subsets optimally; defer the rest to a fallback.

    Parameters
    ----------
    fallback:
        Policy consulted for evictions the dominance test cannot decide.
    horizon:
        Horizon over which candidate ECBs are materialized and compared.
        Must extend past every candidate's last possible benefit for the
        dominance verdicts to be exact.
    """

    def __init__(self, fallback: ReplacementPolicy, horizon: int = 60):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.fallback = fallback
        self.horizon = int(horizon)
        self.name = f"DOM+{fallback.name}"
        #: How many evictions were decided by dominance vs the fallback.
        self.decided_by_dominance = 0
        self.decided_by_fallback = 0

    def reset(self, ctx: PolicyContext) -> None:
        self.decided_by_dominance = 0
        self.decided_by_fallback = 0
        self.fallback.reset(ctx)

    # Forward bookkeeping hooks so stateful fallbacks stay consistent.
    def on_admit(self, tup: StreamTuple, t: int) -> None:
        self.fallback.on_admit(tup, t)

    def on_evict(self, tup: StreamTuple, t: int) -> None:
        self.fallback.on_evict(tup, t)

    def on_reference(self, tup: StreamTuple, t: int) -> None:
        self.fallback.on_reference(tup, t)

    def _candidate_ecb(self, tup: StreamTuple, ctx: PolicyContext) -> ECB:
        if ctx.kind == "cache":
            reference = ctx.r_model
            if reference is None:
                raise ValueError("dominance guard needs the reference model")
            history = None
            if not reference.is_independent:
                history = ctx.latest_history("R")
            return ecb_cache(reference, ctx.time, tup.value, self.horizon, history)
        partner = ctx.partner_model(tup.side)
        if partner is None:
            raise ValueError("dominance guard needs both stream models")
        history = None
        if not partner.is_independent:
            history = ctx.latest_history(ctx.partners_of(tup.side)[0])
        return ecb_join(partner, ctx.time, tup.value, self.horizon, history)

    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if n_evict <= 0:
            return []
        ecbs = {tup: self._candidate_ecb(tup, ctx) for tup in candidates}
        dominated = find_dominated_subset(ecbs, n_evict)
        self.decided_by_dominance += len(dominated)
        if len(dominated) >= n_evict:
            return list(dominated)
        remaining_need = n_evict - len(dominated)
        self.decided_by_fallback += remaining_need
        evicted = set(t.uid for t in dominated)
        rest = [c for c in candidates if c.uid not in evicted]
        extra = self.fallback.select_victims(rest, remaining_need, ctx)
        return list(dominated) + list(extra)
