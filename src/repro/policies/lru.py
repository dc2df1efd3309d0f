"""LRU and LRU-k: recency-based classic caching policies.

LRU evicts the least recently referenced tuple; the paper's Section 5.2
cites it (via Aho-Denning-Ullman) as an approximation of the optimal
``A_o`` for (almost) stationary reference streams.  LRU-k (O'Neil, O'Neil,
Weikum [14]) evicts the tuple whose k-th most recent reference is oldest,
treating tuples with fewer than k recorded references as oldest of all
(ties broken by plain recency).  Both are the "perfect" versions: full
reference history per cached value, no approximation.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Sequence

from ..core.tuples import StreamTuple
from .base import PolicyContext, ScoredPolicy

__all__ = ["LruPolicy", "LrukPolicy"]


class LruPolicy(ScoredPolicy):
    name = "LRU"

    def __init__(self) -> None:
        # Last-use times are kept as floats, the score type, so block
        # scoring is a bare dict lookup per candidate.
        self._last_use: dict[int, float] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._last_use = {}

    def on_admit(self, tup: StreamTuple, t: int) -> None:
        self._last_use[tup.uid] = float(t)

    def on_reference(self, tup: StreamTuple, t: int) -> None:
        self._last_use[tup.uid] = float(t)

    def on_evict(self, tup: StreamTuple, t: int) -> None:
        self._last_use.pop(tup.uid, None)

    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        # New arrivals (not yet admitted) count as just-referenced.
        return self._last_use.get(tup.uid, float(ctx.time))

    def scores(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        get = self._last_use.get
        now = float(ctx.time)
        return [get(tup.uid, now) for tup in candidates]


class LrukPolicy(ScoredPolicy):
    """LRU-k over reference histories kept per *value*.

    Reference times are tracked per join value by scanning the observed
    reference stream (the classic setting: references address values, and
    history survives evictions), so a re-fetched database tuple retains
    its history and miss-references count as uses.
    """

    def __init__(self, k: int = 2):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.name = f"LRU-{self.k}"
        self._uses: dict = defaultdict(lambda: deque(maxlen=self.k))
        self._consumed = 0

    def reset(self, ctx: PolicyContext) -> None:
        self._uses = defaultdict(lambda: deque(maxlen=self.k))
        self._consumed = 0

    def _sync(self, ctx: PolicyContext) -> None:
        # References address values of stream R (the reference stream).
        history = ctx.histories.get("R", ())
        for t in range(self._consumed, len(history)):
            v = history[t]
            if v is not None:
                self._uses[v].append(t)
        self._consumed = len(history)

    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        self._sync(ctx)
        uses = self._uses.get(tup.value)
        history = list(uses) if uses else []
        if len(history) >= self.k:
            kth_recent = history[-self.k]
            last = history[-1]
        else:
            # Fewer than k references: backward-k distance is infinite;
            # evict before any tuple with full history, tie-break by recency.
            kth_recent = float("-inf")
            last = history[-1] if history else ctx.time
        # Primary key: k-th most recent reference time; secondary: last use.
        return float(kth_recent) + 1e-9 * float(last)
