"""The multi-join simulator reduces to the binary one for two streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy
from repro.sim.join_sim import JoinSimulator
from repro.sim.multi_join import MultiJoinSimulator
from repro.policies.base import ReplacementPolicy, ScoredPolicy
from repro.streams import StationaryStream, from_mapping


class KeepLargestValueBinary(ScoredPolicy):
    name = "KEEP-LARGEST"

    def score(self, tup, ctx):
        return float(tup.value)


class KeepLargestValueMulti(ReplacementPolicy):
    name = "KEEP-LARGEST"

    def select_victims(self, candidates, n_evict, ctx):
        if n_evict <= 0:
            return []
        return sorted(candidates, key=lambda t: (float(t.value), t.uid))[
            :n_evict
        ]


value_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    min_size=1,
    max_size=30,
)


class TestTwoStreamEquivalence:
    @given(value_lists, value_lists, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_same_results_with_value_deterministic_policy(self, r, s, k):
        """A value-deterministic policy produces identical result counts
        through both simulators when the multi-join runs the single query
        R⋈S."""
        binary = JoinSimulator(k, KeepLargestValueBinary()).run(r, s)
        multi = MultiJoinSimulator(
            k, KeepLargestValueMulti(), queries=[("R", "S")]
        ).run({"R": r, "S": s})
        assert multi.total_results == binary.total_results

    def test_per_query_attribution_sums(self):
        rng = np.random.default_rng(0)
        streams = {
            name: list(rng.integers(0, 3, size=40)) for name in "ABC"
        }
        sim = MultiJoinSimulator(
            4, KeepLargestValueMulti(), queries=[("A", "B"), ("B", "C")]
        )
        result = sim.run(streams)
        assert sum(result.per_query.values()) == result.total_results


class _RecordingHeeb(HeebPolicy):
    """HEEB wrapper logging every eviction decision as (t, victim uids)."""

    def __init__(self, strategy, log):
        super().__init__(strategy)
        self.log = log

    def select_victims(self, candidates, n_evict, ctx):
        victims = super().select_victims(candidates, n_evict, ctx)
        if victims:
            self.log.append((ctx.time, tuple(v.uid for v in victims)))
        return victims


class TestUnifiedHeebDegeneracy:
    """The unified HeebPolicy is the binary policy on 1-partner contexts.

    Appendix C sums the binary benefit over partner streams; with one
    partner the sum has one term, so a 2-stream/1-query multi-join run
    must make byte-identical decisions to the binary simulator — same
    victims at the same steps, not merely the same counts.
    """

    @given(value_lists, value_lists, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_heeb_two_stream_decisions_byte_identical(self, r, s, k):
        dist = from_mapping({v: 1.0 / 6 for v in range(6)})
        models = {"R": StationaryStream(dist), "S": StationaryStream(dist)}

        binary_log, multi_log = [], []
        binary = JoinSimulator(
            k,
            _RecordingHeeb(GenericJoinHeeb(LExp(4.0), horizon=20), binary_log),
            r_model=models["R"],
            s_model=models["S"],
        ).run(r, s)
        multi = MultiJoinSimulator(
            k,
            _RecordingHeeb(GenericJoinHeeb(LExp(4.0), horizon=20), multi_log),
            queries=[("R", "S")],
            models=models,
        ).run({"R": r, "S": s})

        assert multi.total_results == binary.total_results
        assert multi_log == binary_log
