"""Capability negotiation: select_engine, ExperimentSpec, and registries.

These are the unit tests of the dispatch layer itself — which engine a
preference resolves to, what the spec validator rejects, and how the
string-keyed registries (engines, policies, streams, configs) report
unknown names.
"""

from __future__ import annotations

import logging
import re

import numpy as np
import pytest

from repro.core.lifetime import LExp
from repro.experiments.configs import (
    available_configs,
    available_multi_configs,
    make_config,
    make_multi_config,
)
from repro.policies import available_policies, make_policy
from repro.policies.heeb_policy import GenericJoinHeeb, HeebPolicy
from repro.sim.runner import run_experiment
from repro.sim.engine import (
    BatchEngine,
    Engine,
    EngineRun,
    ExperimentSpec,
    ParallelEngine,
    ScalarEngine,
    _FALLBACK_WARNED,
    available_engines,
    get_engine,
    register_engine,
    select_engine,
)
from repro.streams import available_streams, make_stream
from repro.streams.noise import from_mapping


def _join_spec(**overrides) -> ExperimentSpec:
    defaults = dict(kind="join", cache_size=4)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _rand_factory():
    return make_policy("rand", seed=0)


class TestExperimentSpec:
    def test_defaults(self):
        spec = _join_spec()
        assert spec.warmup == 0
        assert spec.window is None
        assert spec.band == 0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(kind="nope"), "unknown kind"),
            (dict(cache_size=0), "cache_size"),
            (dict(warmup=-1), "warmup"),
            (dict(window=-2), "window"),
            (dict(band=-1), "band"),
        ],
    )
    def test_validation(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _join_spec(**overrides)

    def test_multi_join_needs_queries(self):
        with pytest.raises(ValueError, match="at least one query"):
            ExperimentSpec(kind="multi_join", cache_size=4)

    @pytest.mark.parametrize(
        "overrides", [dict(window=3), dict(band=2), dict(window=3, band=2)]
    )
    def test_cache_spec_rejects_join_only_parameters(self, overrides):
        with pytest.raises(ValueError, match="window and band"):
            ExperimentSpec(kind="cache", cache_size=4, **overrides)

    @pytest.mark.parametrize(
        "overrides",
        [dict(kind="cache"), dict(kind="multi_join", queries=(("R", "S"),))],
    )
    def test_window_oracle_is_binary_join_only(self, overrides):
        """Regression: these specs used to construct, and every tier
        dropped the oracle without a word."""
        oracle = make_config("FLOOR").window_oracle
        assert _join_spec(window_oracle=oracle).window_oracle is oracle
        with pytest.raises(ValueError, match="window_oracle"):
            ExperimentSpec(cache_size=4, window_oracle=oracle, **overrides)

    @pytest.mark.parametrize("engine", [None, "batch"])
    def test_windowed_multi_join_equals_join(self, engine):
        """Regression: multi-join specs used to ignore ``window`` (61
        results against the join spec's 34 on this stream)."""
        rng = np.random.default_rng(0)
        r = [int(v) for v in rng.integers(0, 4, size=60)]
        s = [int(v) for v in rng.integers(0, 4, size=60)]
        join = ExperimentSpec(kind="join", cache_size=4, window=1)
        multi = ExperimentSpec(
            kind="multi_join", cache_size=4, window=1, queries=(("R", "S"),)
        )
        factory = lambda: make_policy("lru")  # noqa: E731
        join_run = run_experiment(join, factory, [(r, s)], engine=engine)
        multi_run = run_experiment(
            multi, factory, [{"R": r, "S": s}], engine=engine
        )
        assert multi_run.engine_used == join_run.engine_used
        assert join_run.per_run[0].total_results == 34
        assert multi_run.per_run[0].total_results == 34


class TestSelectEngine:
    def test_no_preference_is_scalar(self):
        chosen = select_engine(_join_spec(), _rand_factory)
        assert isinstance(chosen, ScalarEngine)

    def test_supported_preference_is_honoured(self):
        chosen = select_engine(_join_spec(), _rand_factory, prefer="batch")
        assert isinstance(chosen, BatchEngine)

    def test_engine_instance_preference(self):
        eng = ParallelEngine(max_workers=2)
        assert select_engine(_join_spec(), _rand_factory, prefer=eng) is eng

    def test_single_worker_parallel_negotiates_to_scalar(self, caplog):
        """A parallel engine whose effective worker count is 1 only adds
        fork overhead; the resolver must drop to scalar and warn once."""
        eng = ParallelEngine(max_workers=1)
        assert eng.supports(_join_spec(), _rand_factory) is not None
        _FALLBACK_WARNED.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.engine"):
            first = select_engine(_join_spec(), _rand_factory, prefer=eng)
            second = select_engine(_join_spec(), _rand_factory, prefer=eng)
        assert isinstance(first, ScalarEngine)
        assert isinstance(second, ScalarEngine)
        warnings = [
            r
            for r in caplog.records
            if "falling back to the scalar engine" in r.getMessage()
        ]
        assert len(warnings) == 1

    def test_unsupported_preference_falls_back_and_warns_once(self, caplog):
        """Generic HEEB on a spec without stream models has no exact
        replay; the resolver must pick scalar and say so exactly once
        per (engine, reason) pair."""
        factory = lambda: HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40))
        spec = _join_spec(window=8)
        _FALLBACK_WARNED.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.engine"):
            first = select_engine(spec, factory, prefer="batch")
            second = select_engine(spec, factory, prefer="batch")
        assert isinstance(first, ScalarEngine)
        assert isinstance(second, ScalarEngine)
        warnings = [
            r
            for r in caplog.records
            if "falling back to the scalar engine" in r.getMessage()
        ]
        assert len(warnings) == 1

    def test_batch_accepts_multi_join(self):
        """Multi-join specs negotiate onto the batch tier when the policy
        has an exact adapter (the old blanket rejection is gone)."""
        spec = ExperimentSpec(
            kind="multi_join", cache_size=4, queries=[("A", "B")]
        )
        assert BatchEngine().supports(spec, _rand_factory) is None
        chosen = select_engine(spec, _rand_factory, prefer="batch")
        assert isinstance(chosen, BatchEngine)

    def test_batch_rejects_unbatchable_multi_join_policy(self):
        """Policies without a multi-join adapter still fall back."""
        from repro.policies.scheduled import ScheduledPolicy

        spec = ExperimentSpec(
            kind="multi_join", cache_size=4, queries=[("A", "B")]
        )
        factory = lambda: ScheduledPolicy({})
        assert BatchEngine().supports(spec, factory) is not None
        _FALLBACK_WARNED.clear()
        chosen = select_engine(spec, factory, prefer="batch")
        assert isinstance(chosen, ScalarEngine)


class TestUnbatchableReasonFormat:
    """Every batch refusal speaks the same normalized sentence.

    The contract (pinned here so tooling can parse fallback warnings):
    ``<POLICY> has no exact batch adapter (<reason>); it runs on the
    scalar tier``.
    """

    FORMAT = (
        r"^\S.* has no exact batch adapter \(.+\); "
        r"it runs on the scalar tier$"
    )

    def _reason(self, spec, factory):
        reason = BatchEngine().supports(spec, factory)
        assert reason is not None
        assert re.match(self.FORMAT, reason), reason
        return reason

    def _stationary_spec(self, **overrides):
        model = make_stream(
            "stationary", dist=from_mapping({1: 0.6, 2: 0.4})
        )
        return _join_spec(r_model=model, s_model=model, **overrides), model

    def test_sketch_counters(self):
        spec, _ = self._stationary_spec()
        reason = self._reason(spec, lambda: make_policy("prob", counts="sketch"))
        assert reason.startswith("PROB ")

    def test_windowed_heeb_needs_lexp(self):
        from repro.core.lifetime import LFixed

        spec, _ = self._stationary_spec(window=8)
        factory = lambda: HeebPolicy(GenericJoinHeeb(LFixed(5), horizon=40))
        reason = self._reason(spec, factory)
        assert "LExp" in reason

    def test_heeb_without_models(self):
        factory = lambda: HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40))
        self._reason(_join_spec(), factory)

    def test_trie_on_markov_models(self):
        model = make_stream("random-walk", step=from_mapping({-1: 0.5, 1: 0.5}))
        spec = _join_spec(r_model=model, s_model=model)
        reason = self._reason(spec, lambda: make_policy("trie"))
        assert reason.startswith("TRIE ")

    def test_flowexpect_reference_pipeline(self):
        spec, model = self._stationary_spec()
        factory = lambda: make_policy(
            "flowexpect", lookahead=2, r_model=model, s_model=model, fast=False
        )
        reason = self._reason(spec, factory)
        assert "networkx" in reason

    def test_flowexpect_on_markov_models(self):
        model = make_stream("random-walk", step=from_mapping({-1: 0.5, 1: 0.5}))
        spec = _join_spec(r_model=model, s_model=model)
        factory = lambda: make_policy(
            "flowexpect", lookahead=2, r_model=model, s_model=model
        )
        self._reason(spec, factory)

    def test_multi_join_lruk_names_the_family(self):
        spec = ExperimentSpec(
            kind="multi_join", cache_size=4, queries=[("A", "B")]
        )
        reason = self._reason(spec, lambda: make_policy("lru-k"))
        assert "LRU-k" in reason


class TestEngineRegistry:
    def test_builtins_present_scalar_first(self):
        names = available_engines()
        assert names[0] == "scalar"
        assert {"scalar", "batch", "parallel"} <= set(names)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp-drive")

    def test_custom_engine_registration(self):
        class NullEngine(Engine):
            name = "null"

            def supports(self, spec, policy_factory):
                return None

            def run(self, spec, policy_factory, data):
                return EngineRun(policy_name="null", per_run=[])

        register_engine("null", NullEngine)
        try:
            assert "null" in available_engines()
            assert isinstance(get_engine("null"), NullEngine)
        finally:
            from repro.sim.engine import _ENGINE_FACTORIES

            _ENGINE_FACTORIES.pop("null", None)


class TestNameRegistries:
    def test_policy_registry(self):
        assert "heeb" in available_policies()
        assert make_policy("RAND", seed=3).name == "RAND"
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("clairvoyant")

    def test_stream_registry(self):
        assert "ar1" in available_streams()
        model = make_stream(
            "Stationary", dist=from_mapping({1: 0.5, 2: 0.5})
        )
        assert model.sample_path(3, __import__("numpy").random.default_rng(0))
        with pytest.raises(ValueError, match="unknown stream"):
            make_stream("brownian-bridge")

    def test_config_registry(self):
        assert available_configs() == ("TOWER", "ROOF", "FLOOR", "WALK")
        assert make_config("tower").name == "TOWER"
        with pytest.raises(ValueError, match="unknown config"):
            make_config("cliff")

    def test_multi_config_registry(self):
        assert available_multi_configs() == ("CHAIN3", "STAR5")
        chain = make_multi_config("chain3")
        assert chain.name == "CHAIN3"
        assert list(chain.models) == ["A", "B", "C"]
        star = make_multi_config("STAR5")
        assert len(star.queries) == 4
        # make_config falls through to the multi registry by name.
        assert make_config("chain3").name == "CHAIN3"
        with pytest.raises(ValueError, match="unknown multi-join config"):
            make_multi_config("ring9")
        # Binary registry is untouched by the fallthrough.
        assert "CHAIN3" not in available_configs()
