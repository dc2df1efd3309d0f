"""Tuple and cache-state representations shared by simulators and policies.

Section 2 of the paper assumes all tuples are distinct objects even when
their join-attribute values coincide, and that every tuple occupies one
cache slot.  :class:`StreamTuple` therefore carries a unique id alongside
its value, and :class:`CacheState` indexes cached tuples by (side, value)
so join probing is O(matches) rather than O(cache size).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Optional

__all__ = ["Side", "StreamTuple", "CacheState", "TupleFactory", "partner"]

#: Which stream a tuple came from.  The caching problem uses "R" for the
#: reference stream and "S" for database (supply) tuples, mirroring the
#: reduction of Section 2.
Side = str

R_SIDE: Side = "R"
S_SIDE: Side = "S"


def partner(side: Side) -> Side:
    """The stream a tuple joins against."""
    if side == R_SIDE:
        return S_SIDE
    if side == S_SIDE:
        return R_SIDE
    raise ValueError(f"unknown side {side!r}")


@dataclass(frozen=True)
class StreamTuple:
    """One stream tuple: distinct identity, join value, provenance.

    Attributes
    ----------
    uid:
        Unique id; two tuples with equal values are still distinct.
    side:
        ``"R"`` or ``"S"``.
    value:
        Join-attribute value.  Usually an integer; the caching→joining
        reduction uses ``(v, i)`` pairs; ``None`` is the paper's "−".
    arrival:
        The time step at which the tuple was produced (for database tuples
        in the caching problem: the step at which they were fetched).
    """

    uid: int
    side: Side
    value: Optional[Hashable]
    arrival: int

    def joins_with(self, other: "StreamTuple") -> bool:
        """Equijoin predicate: opposite sides, equal non-"−" values."""
        return (
            self.side != other.side
            and self.value is not None
            and self.value == other.value
        )


class TupleFactory:
    """Mints :class:`StreamTuple` objects with unique ids.

    ``start`` and ``step`` define a strided uid space: the factory mints
    ``start, start + step, start + 2*step, ...``.  The default
    ``(0, 1)`` is the dense sequence every simulator uses; the sharded
    server (:mod:`repro.serve`) gives shard ``i`` of ``n`` the stride
    ``(i, n)`` so uids stay globally unique — and deterministic per
    shard — no matter how the event loop interleaves the shards.
    """

    def __init__(self, start: int = 0, step: int = 1) -> None:
        if step < 1:
            raise ValueError("step must be >= 1")
        self._next_uid = start
        self._step = step

    @property
    def next_uid(self) -> int:
        """The uid the next minted tuple will receive."""
        return self._next_uid

    def make(self, side: Side, value, arrival: int) -> StreamTuple:
        t = StreamTuple(self._next_uid, side, value, arrival)
        self._next_uid += self._step
        return t


@dataclass
class CacheState:
    """The set of cached tuples with value-indexed lookup.

    Not size-enforcing by itself -- the simulators enforce capacity after
    asking the policy for victims; this class only maintains indexes
    (by value, and a per-side count so :meth:`count_side` is O(1)).
    """

    _tuples: dict[int, StreamTuple] = field(default_factory=dict)
    _by_key: dict[tuple[Side, Hashable], set[int]] = field(default_factory=dict)
    _side_counts: defaultdict[Side, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples.values())

    def __contains__(self, tup: StreamTuple) -> bool:
        return tup.uid in self._tuples

    def tuples(self) -> list[StreamTuple]:
        return list(self._tuples.values())

    def add(self, tup: StreamTuple) -> None:
        if tup.uid in self._tuples:
            raise ValueError(f"tuple {tup.uid} already cached")
        self._tuples[tup.uid] = tup
        self._side_counts[tup.side] += 1
        if tup.value is not None:
            self._by_key.setdefault((tup.side, tup.value), set()).add(tup.uid)

    def remove(self, tup: StreamTuple) -> None:
        if tup.uid not in self._tuples:
            raise KeyError(f"tuple {tup.uid} not cached")
        del self._tuples[tup.uid]
        self._side_counts[tup.side] -= 1
        if tup.value is not None:
            key = (tup.side, tup.value)
            bucket = self._by_key[key]
            bucket.discard(tup.uid)
            if not bucket:
                del self._by_key[key]

    def matching(self, side: Side, value) -> list[StreamTuple]:
        """Cached tuples of ``side`` whose value equals ``value``."""
        if value is None:
            return []
        uids = self._by_key.get((side, value), ())
        return [self._tuples[u] for u in uids]

    def matching_band(self, side: Side, value, band: int) -> list[StreamTuple]:
        """Cached tuples of ``side`` within ``band`` of an integer value.

        Supports the band-join generalization (``|v_x − v| ≤ band``);
        requires integer join values.  ``band=0`` reduces to
        :meth:`matching`.
        """
        if value is None:
            return []
        if band == 0:
            return self.matching(side, value)
        out: list[StreamTuple] = []
        for u in range(int(value) - band, int(value) + band + 1):
            out.extend(self.matching(side, u))
        return out

    def count_side(self, side: Side) -> int:
        """Number of cached tuples from the given stream."""
        return self._side_counts.get(side, 0)

    @property
    def side_counts(self) -> Mapping[Side, int]:
        """Cached tuples per stream, as a live read-only mapping."""
        return MappingProxyType(self._side_counts)

    def expired(self, oldest_allowed_arrival: int) -> list[StreamTuple]:
        """Tuples that fell out of a sliding window (arrival too old)."""
        return [
            t for t in self._tuples.values() if t.arrival < oldest_allowed_arrival
        ]

    def remove_many(self, tuples: Iterable[StreamTuple]) -> None:
        for t in tuples:
            self.remove(t)
