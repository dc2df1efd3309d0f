"""Tests for tuple and cache-state primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import CacheState, StreamTuple, TupleFactory, partner


class TestStreamTuple:
    def test_joins_with_opposite_side_equal_value(self):
        r = StreamTuple(0, "R", 5, 0)
        s = StreamTuple(1, "S", 5, 1)
        assert r.joins_with(s) and s.joins_with(r)

    def test_same_side_never_joins(self):
        a = StreamTuple(0, "R", 5, 0)
        b = StreamTuple(1, "R", 5, 0)
        assert not a.joins_with(b)

    def test_none_never_joins(self):
        a = StreamTuple(0, "R", None, 0)
        b = StreamTuple(1, "S", None, 0)
        assert not a.joins_with(b)

    def test_pair_values_join_on_equality(self):
        a = StreamTuple(0, "R", ("x", 2), 0)
        b = StreamTuple(1, "S", ("x", 2), 0)
        c = StreamTuple(2, "S", ("x", 3), 0)
        assert a.joins_with(b)
        assert not a.joins_with(c)

    def test_partner(self):
        assert partner("R") == "S" and partner("S") == "R"
        with pytest.raises(ValueError):
            partner("Q")


class TestTupleFactory:
    def test_unique_uids(self):
        f = TupleFactory()
        a = f.make("R", 1, 0)
        b = f.make("R", 1, 0)
        assert a.uid != b.uid
        assert a != b


class TestCacheState:
    def test_add_remove(self):
        c = CacheState()
        t = StreamTuple(0, "R", 1, 0)
        c.add(t)
        assert t in c and len(c) == 1
        c.remove(t)
        assert t not in c and len(c) == 0

    def test_add_duplicate_rejected(self):
        c = CacheState()
        t = StreamTuple(0, "R", 1, 0)
        c.add(t)
        with pytest.raises(ValueError):
            c.add(t)

    def test_remove_missing_rejected(self):
        c = CacheState()
        with pytest.raises(KeyError):
            c.remove(StreamTuple(0, "R", 1, 0))

    def test_matching(self):
        c = CacheState()
        c.add(StreamTuple(0, "R", 5, 0))
        c.add(StreamTuple(1, "R", 5, 1))
        c.add(StreamTuple(2, "S", 5, 1))
        assert len(c.matching("R", 5)) == 2
        assert len(c.matching("S", 5)) == 1
        assert c.matching("R", 6) == []
        assert c.matching("R", None) == []

    def test_matching_after_removal(self):
        c = CacheState()
        a = StreamTuple(0, "R", 5, 0)
        b = StreamTuple(1, "R", 5, 1)
        c.add(a)
        c.add(b)
        c.remove(a)
        assert c.matching("R", 5) == [b]

    def test_count_side(self):
        c = CacheState()
        c.add(StreamTuple(0, "R", 1, 0))
        c.add(StreamTuple(1, "S", 1, 0))
        c.add(StreamTuple(2, "S", 2, 0))
        assert c.count_side("R") == 1
        assert c.count_side("S") == 2

    def test_expired(self):
        c = CacheState()
        old = StreamTuple(0, "R", 1, 0)
        new = StreamTuple(1, "R", 1, 10)
        c.add(old)
        c.add(new)
        assert c.expired(5) == [old]
        assert c.expired(0) == []

    def test_none_value_tuples_not_indexed(self):
        c = CacheState()
        t = StreamTuple(0, "R", None, 0)
        c.add(t)
        assert c.matching("R", None) == []
        c.remove(t)  # removal of unindexed tuple works
        assert len(c) == 0

    def test_remove_many(self):
        c = CacheState()
        ts = [StreamTuple(i, "R", i, 0) for i in range(4)]
        for t in ts:
            c.add(t)
        c.remove_many(ts[:2])
        assert len(c) == 2


class TestCountSideProperty:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(["R", "S", "A"]),
                st.one_of(st.none(), st.integers(0, 3)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_a_scan(self, ops):
        """After any add/remove sequence the O(1) per-side counts equal
        a full scan of the cached tuples."""
        cache = CacheState()
        factory = TupleFactory()
        for add, side, value in ops:
            cached = [t for t in cache if t.side == side]
            if add or not cached:
                cache.add(factory.make(side, value, 0))
            else:
                cache.remove(cached[0])
            for name in ("R", "S", "A", "Z"):
                scan = sum(1 for t in cache.tuples() if t.side == name)
                assert cache.count_side(name) == scan
