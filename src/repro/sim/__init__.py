"""Simulators: joins of any topology, classic caching, and run orchestration.

One join simulator (:class:`MultiJoinSimulator`) runs every join
topology and returns one result type (:class:`JoinRunResult`); the
binary join is its ``R⋈S`` topology, built by :class:`JoinSimulator`
or by a ``kind="join"`` :class:`ExperimentSpec`.

Execution is layered (:mod:`repro.sim.engine`): experiment entry points
describe the problem with an :class:`ExperimentSpec` and a
capability-negotiated resolver picks the tier — ``scalar`` (reference
loop), ``batch`` (vectorized), or ``parallel`` (process fan-out).
"""

from .engine import (
    BatchEngine,
    Engine,
    EngineRun,
    ExperimentSpec,
    ParallelEngine,
    RunResult,
    ScalarEngine,
    available_engines,
    get_engine,
    register_engine,
    select_engine,
    spawn_rng,
    spawn_seed,
)
from .batch import (
    BatchCacheRunResult,
    BatchCacheSimulator,
    BatchState,
    values_to_array,
)
from .cache_sim import CacheRunResult, CacheSimulator
from .join_sim import JoinRunResult, JoinSimulator
from .multi_join import (
    MultiJoinSimulator,
    brute_force_multi_benefit,
    solve_opt_offline_multi,
)
from .step import (
    CacheStepOutcome,
    CacheStepState,
    MultiJoinStepOutcome,
    MultiJoinStepState,
    cache_step,
    join_step,
    make_cache_state,
    make_join_state,
    multi_join_step,
)
from .runner import (
    CacheExperimentResult,
    ExperimentResult,
    JoinExperimentResult,
    generate_paths,
    generate_reference_paths,
    run_cache_experiment,
    run_experiment,
    run_join_experiment,
    run_multi_join_experiment,
)

__all__ = [
    "BatchEngine",
    "Engine",
    "EngineRun",
    "ExperimentResult",
    "ExperimentSpec",
    "ParallelEngine",
    "RunResult",
    "ScalarEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "run_experiment",
    "run_multi_join_experiment",
    "select_engine",
    "BatchCacheRunResult",
    "BatchCacheSimulator",
    "BatchState",
    "values_to_array",
    "CacheExperimentResult",
    "CacheRunResult",
    "CacheSimulator",
    "generate_reference_paths",
    "run_cache_experiment",
    "JoinExperimentResult",
    "JoinRunResult",
    "JoinSimulator",
    "MultiJoinSimulator",
    "brute_force_multi_benefit",
    "generate_paths",
    "run_join_experiment",
    "solve_opt_offline_multi",
    "CacheStepOutcome",
    "CacheStepState",
    "MultiJoinStepOutcome",
    "MultiJoinStepState",
    "cache_step",
    "join_step",
    "make_cache_state",
    "make_join_state",
    "multi_join_step",
    "spawn_rng",
    "spawn_seed",
]
