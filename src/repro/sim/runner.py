"""Multi-run experiment execution with seeded stream generation.

The paper's synthetic experiments average 50 runs of 5000-tuple streams
(Section 6.2).  This module provides path generation (per-run seeds) and
the experiment entry points, all built on the engine layer of
:mod:`repro.sim.engine`: callers describe the problem with an
:class:`~repro.sim.engine.ExperimentSpec` (or use the thin
``run_join_experiment`` / ``run_cache_experiment`` shims, kept for one
release) and the capability-negotiated resolver picks the execution tier
— scalar, vectorized batch, or process-parallel — recording the engine
actually used on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import ReplacementPolicy, WindowOracle
from ..streams.base import StreamModel, Value
from .cache_sim import CacheRunResult
from .engine import Engine, ExperimentSpec, RunResult, select_engine, spawn_rng
from .join_sim import JoinRunResult
from .multi_join import MultiJoinRunResult

__all__ = [
    "ExperimentResult",
    "JoinExperimentResult",
    "CacheExperimentResult",
    "MultiJoinExperimentResult",
    "run_experiment",
    "run_join_experiment",
    "run_cache_experiment",
    "run_multi_join_experiment",
    "generate_paths",
    "generate_reference_paths",
]


# ----------------------------------------------------------------------
# Aggregated results
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """Aggregated outcome of one policy across independent trials.

    ``engine_used`` names the execution tier that actually ran the
    trials (``"scalar"``, ``"batch"``, ``"parallel"``, ...), which the
    old silent-fallback dispatch never exposed.  ``metrics`` is the
    :mod:`repro.obs` counter/timer snapshot aggregated over all trials
    when the experiment ran with an enabled recorder, else ``None``.
    """

    policy_name: str
    per_run: list[RunResult] = field(default_factory=list)
    engine_used: str = "scalar"
    metrics: dict | None = None

    @property
    def mean_metric(self) -> float:
        """Mean of the per-trial primary metric (results / hits)."""
        return float(np.mean([r.primary_metric for r in self.per_run]))


@dataclass
class JoinExperimentResult(ExperimentResult):
    """Aggregated joining results of one policy across runs."""

    per_run: list[JoinRunResult] = field(default_factory=list)

    @property
    def mean_results(self) -> float:
        """Mean post-warmup join results across trials."""
        return float(
            np.mean([r.results_after_warmup for r in self.per_run])
        )

    @property
    def std_results(self) -> float:
        """Standard deviation of post-warmup join results across trials."""
        return float(np.std([r.results_after_warmup for r in self.per_run]))

    def mean_r_fraction(self) -> np.ndarray:
        """Per-step fraction of cache held by R tuples, averaged over runs."""
        return np.mean([r.r_fraction for r in self.per_run], axis=0)


@dataclass
class CacheExperimentResult(ExperimentResult):
    """Aggregated caching results of one policy across runs."""

    per_run: list[CacheRunResult] = field(default_factory=list)

    @property
    def mean_hits(self) -> float:
        """Mean post-warmup cache hits across trials."""
        return float(np.mean([r.hits_after_warmup for r in self.per_run]))

    @property
    def std_hits(self) -> float:
        """Standard deviation of post-warmup cache hits across trials."""
        return float(np.std([r.hits_after_warmup for r in self.per_run]))

    @property
    def mean_misses(self) -> float:
        """Mean post-warmup cache misses across trials."""
        return float(np.mean([r.misses_after_warmup for r in self.per_run]))

    @property
    def mean_hit_rate(self) -> float:
        """Mean per-trial hit rate (hits / observations)."""
        return float(np.mean([r.hit_rate for r in self.per_run]))


@dataclass
class MultiJoinExperimentResult(ExperimentResult):
    """Aggregated multi-join results of one policy across runs."""

    per_run: list[MultiJoinRunResult] = field(default_factory=list)

    @property
    def mean_results(self) -> float:
        """Mean post-warmup multi-join results across trials."""
        return float(
            np.mean([r.results_after_warmup for r in self.per_run])
        )


_RESULT_TYPES: dict[str, type[ExperimentResult]] = {
    "join": JoinExperimentResult,
    "cache": CacheExperimentResult,
    "multi_join": MultiJoinExperimentResult,
}


# ----------------------------------------------------------------------
# Path generation
# ----------------------------------------------------------------------
def generate_paths(
    r_model: StreamModel,
    s_model: StreamModel,
    length: int,
    n_runs: int,
    seed: int,
) -> list[tuple[list[Value], list[Value]]]:
    """Draw ``n_runs`` independent stream-pair realizations.

    Per-run seeds derive through :func:`~repro.sim.engine.spawn_seed`
    (the one seed-spawning scheme shared with the batch generators and
    the :mod:`repro.serve` replay client); R is drawn before S from the
    same per-run generator.
    """
    paths = []
    for run in range(n_runs):
        rng = spawn_rng(seed, run)
        paths.append(
            (r_model.sample_path(length, rng), s_model.sample_path(length, rng))
        )
    return paths


def generate_reference_paths(
    model: StreamModel,
    length: int,
    n_runs: int,
    seed: int,
) -> list[list[Value]]:
    """Draw ``n_runs`` independent reference-stream realizations.

    Seeds derive through :func:`~repro.sim.engine.spawn_seed`, like
    :func:`generate_paths`.
    """
    return [
        model.sample_path(length, spawn_rng(seed, run))
        for run in range(n_runs)
    ]


# ----------------------------------------------------------------------
# The canonical entry point
# ----------------------------------------------------------------------
def run_experiment(
    spec: ExperimentSpec,
    policy_factory: Callable[[], ReplacementPolicy],
    data: Sequence,
    engine: Union[str, Engine, None] = None,
    recorder: Recorder = NULL_RECORDER,
) -> ExperimentResult:
    """Run one policy over pre-sampled trial data on the best engine.

    ``policy_factory`` builds a fresh policy instance per trial so that
    per-run state (frequency counters, RNG streams) never leaks across
    runs.  ``engine`` is a preference, not a command: capability
    negotiation (:func:`~repro.sim.engine.select_engine`) falls back to
    the scalar reference tier — with a one-time logged warning — when the
    preferred engine does not support the (spec, policy) combination.
    The tier that actually ran is recorded as ``engine_used``.

    ``recorder`` is the observability sink (:mod:`repro.obs`) shared by
    every trial; when it is enabled, its counter snapshot after the run
    is attached to the result's ``metrics``.
    """
    chosen = select_engine(spec, policy_factory, prefer=engine, recorder=recorder)
    outcome = chosen.run(spec, policy_factory, data, recorder=recorder)
    result_type = _RESULT_TYPES[spec.kind]
    return result_type(
        policy_name=outcome.policy_name,
        per_run=outcome.per_run,
        engine_used=chosen.name,
        metrics=recorder.snapshot() if recorder.enabled else None,
    )


# ----------------------------------------------------------------------
# Thin shims (deprecation path: prefer run_experiment + ExperimentSpec)
# ----------------------------------------------------------------------
def run_join_experiment(
    policy_factory: Callable[[], ReplacementPolicy],
    paths: Sequence[tuple[list[Value], list[Value]]],
    cache_size: int,
    warmup: int = 0,
    window: int | None = None,
    r_model: StreamModel | None = None,
    s_model: StreamModel | None = None,
    window_oracle: WindowOracle | None = None,
    engine: Union[str, Engine, None] = None,
    recorder: Recorder = NULL_RECORDER,
) -> JoinExperimentResult:
    """Shim over :func:`run_experiment` for the joining problem.

    ``engine`` selects the execution tier by name (``"scalar"``,
    ``"batch"``, ``"parallel"``).  The request is a preference:
    unsupported combinations negotiate down to the scalar loop and record
    ``engine_used`` accordingly.
    """
    spec = ExperimentSpec(
        kind="join",
        cache_size=cache_size,
        warmup=warmup,
        window=window,
        r_model=r_model,
        s_model=s_model,
        window_oracle=window_oracle,
    )
    result = run_experiment(
        spec, policy_factory, paths, engine=engine, recorder=recorder
    )
    assert isinstance(result, JoinExperimentResult)
    return result


def run_cache_experiment(
    policy_factory: Callable[[], ReplacementPolicy],
    references: Sequence[Sequence[Value]],
    cache_size: int,
    warmup: int = 0,
    reference_model: StreamModel | None = None,
    engine: Union[str, Engine, None] = None,
    recorder: Recorder = NULL_RECORDER,
) -> CacheExperimentResult:
    """Shim over :func:`run_experiment` for the caching problem."""
    spec = ExperimentSpec(
        kind="cache",
        cache_size=cache_size,
        warmup=warmup,
        r_model=reference_model,
    )
    result = run_experiment(
        spec, policy_factory, references, engine=engine, recorder=recorder
    )
    assert isinstance(result, CacheExperimentResult)
    return result


def run_multi_join_experiment(
    policy_factory: Callable[[], "object"],
    trials: Sequence,
    cache_size: int,
    queries: Sequence[tuple[str, str]],
    warmup: int = 0,
    models=None,
    engine: Union[str, Engine, None] = None,
    recorder: Recorder = NULL_RECORDER,
) -> MultiJoinExperimentResult:
    """Run a multi-join policy over per-trial ``{stream: values}`` maps."""
    spec = ExperimentSpec(
        kind="multi_join",
        cache_size=cache_size,
        warmup=warmup,
        queries=tuple(tuple(q) for q in queries),
        models=models,
    )
    result = run_experiment(
        spec, policy_factory, trials, engine=engine, recorder=recorder
    )
    assert isinstance(result, MultiJoinExperimentResult)
    return result
