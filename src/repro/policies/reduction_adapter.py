"""Run a caching policy on the reduced joining problem (Theorem 1).

Section 2 proves that hits in the caching problem equal join results in
the reduced joining problem *under the same reasonable policy*.  This
module makes the correspondence executable: :class:`ReducedJoiningPolicy`
wraps an arbitrary caching policy and drives the joining simulator on the
transformed streams so that the cache evolution is isomorphic step by
step:

* the reference-stream tuple ``r'_(v,k)`` is never cached (Observation 3:
  it can join no future supply tuple);
* on a *hit* (the joining supply tuple ``s_(v,k)`` is cached), the
  expired ``s_(v,k)`` is replaced by the freshly arrived ``s_(v,k+1)`` --
  the same database tuple under its next label (the unique reasonable
  move, Definition 1);
* on a *miss*, the wrapped caching policy chooses the victim among the
  cached database tuples plus the newly fetched one, and its decision is
  mirrored onto the joining candidates.

Tests drive LRU, LFD, and RAND through both simulators and assert
``H(C0, R, P) = J(C0, R, S, P)`` exactly.
"""

from __future__ import annotations

from typing import Sequence

from ..core.tuples import StreamTuple
from .base import PolicyContext, ReplacementPolicy

__all__ = ["ReducedJoiningPolicy"]


def _original_value(tup: StreamTuple):
    """The database value behind a reduced ``(v, i)`` pair."""
    return tup.value[0]


class ReducedJoiningPolicy(ReplacementPolicy):
    """Adapts a caching policy to the reduced joining problem.

    The wrapped policy sees a faithful caching-problem view: candidate
    "database tuples" carry the original values (not the ``(v, i)``
    labels), hits are forwarded as references, and its victim choice is
    translated back to the joining candidates.
    """

    def __init__(self, caching_policy: ReplacementPolicy):
        self._inner = caching_policy
        self.name = f"REDUCED[{caching_policy.name}]"
        #: maps original value -> current proxy StreamTuple shown to the
        #: inner policy (stable identity across supply-tuple relabelings,
        #: like a real database tuple).
        self._proxies: dict = {}
        self._next_proxy_uid = 0
        self._inner_ctx: PolicyContext | None = None

    def reset(self, ctx: PolicyContext) -> None:
        self._proxies = {}
        self._next_proxy_uid = 0
        self._inner_ctx = PolicyContext(
            kind="cache",
            time=-1,
            cache_size=ctx.cache_size,
            models={"R": ctx.r_model},
        )
        self._inner.reset(self._inner_ctx)

    def _proxy_for(self, value, arrival: int) -> StreamTuple:
        proxy = self._proxies.get(value)
        if proxy is None:
            proxy = StreamTuple(self._next_proxy_uid, "S", value, arrival)
            self._next_proxy_uid += 1
            self._proxies[value] = proxy
        return proxy

    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        assert self._inner_ctx is not None, "reset() not called"
        t = ctx.time
        # Mirror the reference history (original values) for the inner
        # policy: the reduced R' stream carries (v, k) pairs.
        inner_ctx = self._inner_ctx
        inner_ctx.time = t
        while len(inner_ctx.r_history) < len(ctx.r_history):
            pos = len(inner_ctx.r_history)
            pair = ctx.r_history[pos]
            inner_ctx.r_history.append(None if pair is None else pair[0])

        new_r = [c for c in candidates if c.side == "R" and c.arrival == t]
        new_s = [c for c in candidates if c.side == "S" and c.arrival == t]
        cached_s = [
            c for c in candidates if c.side == "S" and c.arrival < t
        ]
        victims: list[StreamTuple] = list(new_r)  # never cache R' tuples

        if not new_s:
            return victims[:]

        (supply,) = new_s
        ref_value = _original_value(supply)
        predecessor = next(
            (
                c
                for c in cached_s
                if _original_value(c) == ref_value
            ),
            None,
        )
        if predecessor is not None:
            # Hit: the predecessor s_(v,k) just joined r'_(v,k) and is now
            # expired; replacing it with s_(v,k+1) is the unique
            # reasonable move and keeps the cache isomorphic.
            self._inner.on_reference(self._proxy_for(ref_value, t), t)
            victims.append(predecessor)
            return victims

        # Miss: ask the caching policy to pick a victim among the cached
        # database tuples plus the newly fetched one.
        proxy_new = self._proxy_for(ref_value, t)
        proxy_candidates = [
            self._proxy_for(_original_value(c), c.arrival) for c in cached_s
        ] + [proxy_new]
        inner_needed = max(0, len(proxy_candidates) - ctx.cache_size)
        if inner_needed == 0:
            inner_victims: list[StreamTuple] = []
        else:
            inner_victims = list(
                self._inner.select_victims(
                    proxy_candidates, inner_needed, inner_ctx
                )
            )
        by_value = {_original_value(c): c for c in cached_s}
        for inner_victim in inner_victims:
            self._inner.on_evict(inner_victim, t)
            if inner_victim.value == ref_value:
                victims.append(supply)
                self._proxies.pop(ref_value, None)
            else:
                victims.append(by_value[inner_victim.value])
                self._proxies.pop(inner_victim.value, None)
        if supply not in victims:
            self._inner.on_admit(proxy_new, t)
        return victims
