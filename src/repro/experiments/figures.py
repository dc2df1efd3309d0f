"""Per-figure experiment harnesses for the paper's evaluation (Section 6).

Each ``figureN`` function regenerates the data behind one figure of the
paper and returns plain data structures (dicts of series) that the
benchmark suite prints as tables.  Parameters default to laptop-scale
values; the paper-scale parameters (50 runs × 5000 tuples) are reachable
through the keyword arguments and are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..analysis.fitting import AR1Fit, fit_ar1
from ..core.lifetime import LExp
from ..core.precompute import (
    H1Table,
    H2Surface,
    ar1_cache_heeb_values,
    ar1_h2_cache,
    random_walk_h1_cache,
)
from ..flow.opt_offline import solve_opt_offline
from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies import make_policy
from ..policies.base import ReplacementPolicy
from ..policies.heeb_policy import AR1CacheHeeb
from ..policies.scheduled import ScheduledPolicy
from ..sim.cache_sim import CacheSimulator
from ..sim.join_sim import JoinSimulator
from ..sim.runner import generate_paths, run_join_experiment
from ..streams.ar1 import AR1Stream
from ..streams.linear_trend import LinearTrendStream
from ..streams.melbourne import melbourne_like_temperatures
from ..streams.noise import (
    DiscreteDistribution,
    bounded_normal,
    bounded_uniform,
    discretized_normal,
)
from ..streams.random_walk import RandomWalkStream
from .configs import JoinConfig, SYNTHETIC_CONFIGS, floor_config

__all__ = [
    "FIGURE_REGISTRY",
    "FigureSpec",
    "figure_ext_multi_sweep",
    "figure_names",
    "make_figure",
    "register_figure",
    "render_figure",
    "run_opt_offline",
    "figure6",
    "figure7",
    "figure8",
    "figure9_12",
    "figure13",
    "figure14",
    "figure15_16",
    "figure17_18",
    "figure19",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def run_opt_offline(
    paths: Sequence[tuple[list, list]],
    cache_size: int,
    warmup: int,
) -> float:
    """Mean OPT-offline result count across paths (solve + replay)."""
    totals = []
    for r_values, s_values in paths:
        solution = solve_opt_offline(r_values, s_values, cache_size)
        policy = ScheduledPolicy(solution)
        sim = JoinSimulator(cache_size, policy, warmup=warmup)
        result = sim.run(r_values, s_values)
        totals.append(result.results_after_warmup)
    return float(np.mean(totals))


def _join_policies(
    config: JoinConfig,
    cache_size: int,
    include_flowexpect: bool,
    lookahead: int,
) -> dict[str, Callable[[], ReplacementPolicy]]:
    """Policy factories for one configuration (everything but OPT).

    Baselines are built through the string-keyed policy registry
    (:func:`repro.policies.make_policy`); only the scenario-calibrated
    HEEB strategy comes from the configuration itself.
    """
    factories: dict[str, Callable[[], ReplacementPolicy]] = {}
    if include_flowexpect:
        factories["FLOWEXPECT"] = lambda: make_policy(
            "flowexpect",
            lookahead=lookahead,
            r_model=config.r_model,
            s_model=config.s_model,
        )
    factories["RAND"] = lambda: make_policy("rand", seed=1)
    factories["PROB"] = lambda: make_policy("prob")
    if config.has_life:
        factories["LIFE"] = lambda: make_policy("life")
    factories["HEEB"] = lambda: config.make_heeb(cache_size)
    return factories


def _run_config(
    config: JoinConfig,
    cache_size: int,
    length: int,
    n_runs: int,
    warmup: int,
    seed: int,
    include_opt: bool = True,
    include_flowexpect: bool = False,
    lookahead: int = 5,
    engine: str | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> dict[str, float]:
    """Mean results for every algorithm on one configuration.

    ``engine`` prefers an execution tier (``"batch"``, ``"parallel"``)
    for each policy's trials; capability negotiation falls back to the
    scalar loop where no exact adapter exists (OPT and FlowExpect always
    negotiate down to scalar).  ``recorder`` is the observability sink
    shared by every policy's trials (:mod:`repro.obs`).
    """
    paths = generate_paths(config.r_model, config.s_model, length, n_runs, seed)
    out: dict[str, float] = {}
    if include_opt:
        out["OPT-OFFLINE"] = run_opt_offline(paths, cache_size, warmup)
    factories = _join_policies(config, cache_size, include_flowexpect, lookahead)
    for name, factory in factories.items():
        result = run_join_experiment(
            factory,
            paths,
            cache_size,
            warmup=warmup,
            r_model=config.r_model,
            s_model=config.s_model,
            window_oracle=config.window_oracle,
            engine=engine,
            recorder=recorder,
        )
        out[name] = result.mean_results
    return out


# ----------------------------------------------------------------------
# Figure 6: precomputed h_R for random walks with drift 0 / 2 / 4
# ----------------------------------------------------------------------
def figure6(
    drifts: Sequence[int] = (0, 2, 4),
    alpha: float = 10.0,
    step_sigma: float = 1.0,
    horizon: int | None = None,
    max_offset: int = 25,
) -> dict[int, H1Table]:
    """The caching ``h_R`` curves of Figure 6 (Section 5.5)."""
    estimator = LExp(alpha)
    if horizon is None:
        horizon = estimator.suggested_horizon(1e-6)
    out: dict[int, H1Table] = {}
    for drift in drifts:
        walk = RandomWalkStream(discretized_normal(step_sigma), drift=drift)
        out[drift] = random_walk_h1_cache(
            walk, estimator, horizon=horizon, max_offset=max_offset
        )
    return out


# ----------------------------------------------------------------------
# Figure 7: the TOWER / ROOF / FLOOR noise pdfs
# ----------------------------------------------------------------------
def figure7(bound: int = 15) -> dict[str, DiscreteDistribution]:
    """The S-stream noise distributions of Figure 7."""
    return {
        "TOWER": bounded_normal(bound, 2.0),
        "ROOF": bounded_normal(bound, 5.0),
        "FLOOR": bounded_uniform(bound),
    }


# ----------------------------------------------------------------------
# Figure 8: all algorithms across the synthetic configurations
# ----------------------------------------------------------------------
def figure8(
    length: int = 600,
    cache_size: int = 10,
    n_runs: int = 5,
    warmup: int | None = None,
    seed: int = 0,
    include_flowexpect: bool = True,
    lookahead: int = 5,
    configs: dict[str, JoinConfig] | None = None,
    engine: str | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> dict[str, dict[str, float]]:
    """Figure 8: average join counts per algorithm per configuration.

    Paper parameters: ``length=5000, n_runs=50, cache_size=10`` ("the
    scale is intentionally kept small so that FlowExpect is feasible").
    """
    if warmup is None:
        warmup = 4 * cache_size
    if configs is None:
        configs = SYNTHETIC_CONFIGS()
    out: dict[str, dict[str, float]] = {}
    for name, config in configs.items():
        out[name] = _run_config(
            config,
            cache_size,
            length,
            n_runs,
            warmup,
            seed,
            include_opt=True,
            include_flowexpect=include_flowexpect,
            lookahead=lookahead,
            engine=engine,
            recorder=recorder,
        )
    return out


# ----------------------------------------------------------------------
# Figures 9-12: cache-size sweeps per configuration
# ----------------------------------------------------------------------
def figure9_12(
    config: JoinConfig,
    cache_sizes: Sequence[int] = (1, 5, 10, 20, 30, 50),
    length: int = 1000,
    n_runs: int = 3,
    warmup_factor: int = 4,
    seed: int = 0,
    engine: str | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> dict[str, list[float]]:
    """One cache-size sweep (Figure 9=TOWER, 10=ROOF, 11=FLOOR, 12=WALK).

    Paper parameters: sizes 1..50, ``length=5000, n_runs=50``.
    FlowExpect is excluded, as in the paper.
    """
    out: dict[str, list[float]] = {}
    for k in cache_sizes:
        warmup = warmup_factor * k
        row = _run_config(
            config,
            k,
            length,
            n_runs,
            warmup,
            seed,
            include_opt=True,
            include_flowexpect=False,
            engine=engine,
            recorder=recorder,
        )
        for name, value in row.items():
            out.setdefault(name, []).append(value)
    return out


# ----------------------------------------------------------------------
# Figure 13: REAL -- caching the Melbourne-like temperature stream
# ----------------------------------------------------------------------
@dataclass
class Figure13Result:
    memory_sizes: list[int]
    misses: dict[str, list[float]]
    fit: AR1Fit
    n_days: int


def figure13(
    memory_sizes: Sequence[int] = (10, 50, 100, 200, 300),
    n_days: int = 3650,
    seed: int = 0,
    bucket: float = 0.1,
    exact_steps: int = 60,
    n_controls: int = 5,
) -> Figure13Result:
    """Figure 13: misses vs memory for LFD, RAND, LRU, PROB(LFU), HEEB.

    Pipeline per Section 6.5: generate the temperature series (our
    synthetic Melbourne substitute), fit an AR(1) by MLE, precompute the
    ``h2`` surface at ``n_controls²`` control points, run the caching
    simulation.  One run (real-data experiment in the paper is a single
    run too).
    """
    rng = np.random.default_rng(seed)
    temps = melbourne_like_temperatures(n_days, rng)
    fit = fit_ar1(temps)
    model = AR1Stream(fit.phi0, fit.phi1, fit.sigma, bucket=bucket)
    reference = [model.to_bucket(t) for t in temps]

    lo, hi = min(reference), max(reference)
    v_grid = np.linspace(lo, hi, n_controls).round().astype(int)
    x_grid = np.linspace(lo * bucket, hi * bucket, n_controls)

    misses: dict[str, list[float]] = {}
    for m in memory_sizes:
        estimator = LExp(float(m))
        surface = ar1_h2_cache(
            model, estimator, v_grid, x_grid, exact_steps=exact_steps
        )
        policies: dict[str, ReplacementPolicy] = {
            "LFD": make_policy("lfd", reference=reference),
            "RAND": make_policy("rand", seed=1),
            "LRU": make_policy("lru"),
            "PROB(LFU)": make_policy("lfu"),
            "HEEB": make_policy("heeb", strategy=AR1CacheHeeb(model, surface)),
        }
        for name, policy in policies.items():
            sim = CacheSimulator(m, policy, reference_model=model)
            result = sim.run(reference)
            misses.setdefault(name, []).append(float(result.misses))
    return Figure13Result(
        memory_sizes=list(memory_sizes),
        misses=misses,
        fit=fit,
        n_days=n_days,
    )


# ----------------------------------------------------------------------
# Figure 14 / Figures 17-18: HEEB memory allocation between streams
# ----------------------------------------------------------------------
def _allocation_config(lag: int, sigma_r: float, sigma_s: float) -> JoinConfig:
    """A TOWER-style configuration with identical bounds on both streams.

    Figure 14 starts from "R and S having identical statistical
    properties and no lag" and varies lag / S-noise spread.
    """
    from ..core.lifetime import alpha_for_mean_lifetime
    from ..policies.heeb_policy import TrendJoinHeeb
    from ..policies.window_oracle import TrendWindowOracle

    bound = 10
    r_model = LinearTrendStream(bounded_normal(bound, sigma_r), speed=1.0, lag=lag)
    s_model = LinearTrendStream(bounded_normal(bound, sigma_s), speed=1.0, lag=0)
    alpha = alpha_for_mean_lifetime(max(1.5, sigma_r + sigma_s))
    return JoinConfig(
        name=f"lag={lag},sigmaR={sigma_r},sigmaS={sigma_s}",
        r_model=r_model,
        s_model=s_model,
        heeb_alpha_for=lambda k: alpha,
        heeb_strategy_for=lambda k: TrendJoinHeeb(LExp(alpha)),
        window_oracle=TrendWindowOracle(r_model, s_model),
    )


def figure14(
    length: int = 2000,
    cache_size: int = 10,
    n_runs: int = 3,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Figure 14: fraction of cache held by R tuples under HEEB.

    Variants: identical streams; R lagging by 2 and 4; S noise with 2×
    and 4× the standard deviation.  Paper: ``length=5000``.
    """
    variants = {
        "R AND S HAVE SAME PROPERTIES": _allocation_config(0, 1.0, 1.0),
        "R LAGS BEHIND BY 2": _allocation_config(2, 1.0, 1.0),
        "R LAGS BEHIND BY 4": _allocation_config(4, 1.0, 1.0),
        "S NOISE HAS TWICE THE STDEV": _allocation_config(0, 1.0, 2.0),
        "S NOISE HAS FOUR TIMES THE STDEV": _allocation_config(0, 1.0, 4.0),
    }
    out: dict[str, np.ndarray] = {}
    for label, config in variants.items():
        paths = generate_paths(config.r_model, config.s_model, length, n_runs, seed)
        result = run_join_experiment(
            lambda config=config: config.make_heeb(cache_size),
            paths,
            cache_size,
            r_model=config.r_model,
            s_model=config.s_model,
            window_oracle=config.window_oracle,
        )
        out[label] = result.mean_r_fraction()
    return out


def figure17_18(
    length: int = 2000,
    cache_size: int = 10,
    n_runs: int = 3,
    seed: int = 0,
) -> dict[str, dict[str, np.ndarray]]:
    """Figures 17/18: occupancy over time for variance ratios and lags."""
    variance_variants = {
        "Std0:Std1 = 1:1": _allocation_config(0, 1.0, 1.0),
        "Std0:Std1 = 1:2": _allocation_config(0, 1.0, 2.0),
        "Std0:Std1 = 1:4": _allocation_config(0, 1.0, 4.0),
    }
    lag_variants = {
        "stream0 is 1 behind stream1": _allocation_config(1, 1.0, 1.0),
        "stream0 is 2 behind stream1": _allocation_config(2, 1.0, 1.0),
        "stream0 is 4 behind stream1": _allocation_config(4, 1.0, 1.0),
    }
    out: dict[str, dict[str, np.ndarray]] = {"variance": {}, "lag": {}}
    for group, variants in (("variance", variance_variants), ("lag", lag_variants)):
        for label, config in variants.items():
            paths = generate_paths(
                config.r_model, config.s_model, length, n_runs, seed
            )
            result = run_join_experiment(
                lambda config=config: config.make_heeb(cache_size),
                paths,
                cache_size,
                r_model=config.r_model,
                s_model=config.s_model,
                window_oracle=config.window_oracle,
            )
            out[group][label] = result.mean_r_fraction()
    return out


# ----------------------------------------------------------------------
# Figures 15/16: actual vs approximated h2 surface for REAL
# ----------------------------------------------------------------------
@dataclass
class SurfaceComparison:
    actual: H2Surface
    approximated: H2Surface
    dense_v: np.ndarray
    dense_x: np.ndarray
    actual_values: np.ndarray
    approx_values: np.ndarray

    @property
    def max_abs_error(self) -> float:
        return float(np.max(np.abs(self.actual_values - self.approx_values)))

    @property
    def mean_abs_error(self) -> float:
        return float(np.mean(np.abs(self.actual_values - self.approx_values)))

    @property
    def max_value(self) -> float:
        return float(np.max(self.actual_values))


def figure15_16(
    phi0: float = 5.59,
    phi1: float = 0.72,
    sigma: float = 4.22,
    bucket: float = 0.1,
    alpha: float = 100.0,
    n_controls: int = 5,
    n_dense: int = 9,
    exact_steps: int = 40,
    span_sigmas: float = 2.5,
) -> SurfaceComparison:
    """Figures 15/16: the ``h2`` surface and its 25-control-point spline.

    The "actual" surface is computed exactly on a dense grid; the
    approximation interpolates ``n_controls²`` control points (paper: 25,
    bicubic).  Returns both plus error statistics.
    """
    model = AR1Stream(phi0, phi1, sigma, bucket=bucket)
    center = model.stationary_mean
    half = span_sigmas * model.stationary_std
    v_lo, v_hi = model.to_bucket(center - half), model.to_bucket(center + half)

    control_v = np.linspace(v_lo, v_hi, n_controls).round().astype(int)
    control_x = np.linspace(
        (center - half), (center + half), n_controls
    )
    estimator = LExp(alpha)
    approximated = ar1_h2_cache(
        model, estimator, control_v, control_x, exact_steps=exact_steps
    )

    dense_v = np.linspace(v_lo, v_hi, n_dense).round().astype(int)
    dense_x = np.linspace(center - half, center + half, n_dense)
    actual_values = np.zeros((dense_v.size, dense_x.size))
    for i, v in enumerate(dense_v):
        actual_values[i, :] = ar1_cache_heeb_values(
            model, int(v), dense_x, estimator, exact_steps=exact_steps
        )
    actual = H2Surface(dense_v.astype(float), dense_x, actual_values)
    approx_values = approximated.evaluate_grid(
        dense_v.astype(float), dense_x
    )
    return SurfaceComparison(
        actual=actual,
        approximated=approximated,
        dense_v=dense_v,
        dense_x=dense_x,
        actual_values=actual_values,
        approx_values=approx_values,
    )


# ----------------------------------------------------------------------
# Figure 19: FlowExpect look-ahead distance
# ----------------------------------------------------------------------
def figure19(
    delta_ts: Sequence[int] = (1, 2, 3, 5, 8),
    length: int = 200,
    cache_size: int = 10,
    n_runs: int = 2,
    warmup: int | None = None,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
) -> dict[str, list[float]]:
    """Figure 19: FlowExpect performance vs look-ahead distance ΔT.

    Streams follow the FLOOR scenario (linear trend, bounded uniform
    noise).  Paper parameters: ``length=500, cache_size=20`` and ΔT up to
    30.  The baselines (RAND/PROB/LIFE) are look-ahead independent and
    reported as flat series.
    """
    if warmup is None:
        warmup = 4 * cache_size
    config = floor_config()
    paths = generate_paths(config.r_model, config.s_model, length, n_runs, seed)

    out: dict[str, list[float]] = {"FLOWEXPECT": []}
    for dt in delta_ts:
        result = run_join_experiment(
            lambda dt=dt: make_policy(
                "flowexpect",
                lookahead=dt,
                r_model=config.r_model,
                s_model=config.s_model,
            ),
            paths,
            cache_size,
            warmup=warmup,
            r_model=config.r_model,
            s_model=config.s_model,
            window_oracle=config.window_oracle,
            recorder=recorder,
        )
        out["FLOWEXPECT"].append(result.mean_results)

    for name, factory in (
        ("RAND", lambda: make_policy("rand", seed=1)),
        ("PROB", lambda: make_policy("prob")),
        ("LIFE", lambda: make_policy("life")),
    ):
        result = run_join_experiment(
            factory,
            paths,
            cache_size,
            warmup=warmup,
            r_model=config.r_model,
            s_model=config.s_model,
            window_oracle=config.window_oracle,
            recorder=recorder,
        )
        out[name] = [result.mean_results] * len(delta_ts)
    return out


# ----------------------------------------------------------------------
# Extension figures and the figure registry
# ----------------------------------------------------------------------
def figure_ext_multi_sweep(
    config_names: Sequence[str] = ("CHAIN3", "STAR5"),
    cache_sizes: Sequence[int] = (4, 8, 12),
    length: int = 300,
    n_runs: int = 2,
    seed: int = 0,
    engine: str | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> dict[str, dict[str, list[float]]]:
    """Cache-size sweep over n-way topologies: trie vs unified HEEB.

    For each topology in ``config_names`` (keys of the multi-config
    registry, e.g. CHAIN3/STAR5) the sweep runs the shared-prefix
    :class:`~repro.policies.trie.TrieCachePolicy` and the unified
    partner-aware HEEB over the same sampled trials at each cache size,
    returning ``{config: {policy: [mean results per cache size]}}`` —
    the ROADMAP item-4 comparison closing the n-way workload.
    """
    from ..sim.engine import spawn_rng
    from ..sim.runner import run_multi_join_experiment
    from .configs import make_multi_config

    out: dict[str, dict[str, list[float]]] = {}
    for config_name in config_names:
        config = make_multi_config(config_name)
        trials = []
        for run in range(n_runs):
            rng = spawn_rng(seed, run)
            trials.append(
                {
                    name: model.sample_path(length, rng)
                    for name, model in config.models.items()
                }
            )
        rows: dict[str, list[float]] = {}
        for cache_size in cache_sizes:
            for label, factory in (
                ("HEEB", lambda k=cache_size: config.make_heeb(k)),
                ("TRIE", lambda: make_policy("trie")),
            ):
                result = run_multi_join_experiment(
                    factory,
                    trials,
                    cache_size,
                    config.queries,
                    warmup=0,
                    models=config.models,
                    engine=engine,
                    recorder=recorder,
                )
                rows.setdefault(label, []).append(result.mean_results)
        out[config_name] = rows
    return out


@dataclass(frozen=True)
class FigureSpec:
    """One registered figure: a data builder plus a headless renderer.

    ``builder(**kwargs)`` regenerates the figure's data; ``render(data,
    **meta)`` turns it into the text-table form every environment can
    produce (the optional matplotlib PNG path stays CLI-only).  The
    registry gives scenario sweeps one comparison pipeline: new figures
    drop in with :func:`register_figure` and are immediately listable
    and renderable by name.
    """

    name: str
    title: str
    builder: Callable[..., dict]
    render: Callable[..., str]


FIGURE_REGISTRY: dict[str, FigureSpec] = {}


def register_figure(spec: FigureSpec) -> FigureSpec:
    """Add ``spec`` to the registry (name must be unused)."""
    if spec.name in FIGURE_REGISTRY:
        raise ValueError(f"figure {spec.name!r} already registered")
    FIGURE_REGISTRY[spec.name] = spec
    return spec


def figure_names() -> list[str]:
    """Registered figure names, sorted."""
    return sorted(FIGURE_REGISTRY)


def make_figure(name: str, **kwargs) -> dict:
    """Build a registered figure's data by name."""
    try:
        spec = FIGURE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; registered: {figure_names()}"
        ) from None
    return spec.builder(**kwargs)


def render_figure(name: str, **kwargs) -> str:
    """Build and render a registered figure headlessly (text tables)."""
    spec = FIGURE_REGISTRY[name]
    data = spec.builder(**kwargs)
    return spec.render(data, **kwargs)


def _render_ext_multi_sweep(
    data: dict[str, dict[str, list[float]]],
    cache_sizes: Sequence[int] = (4, 8, 12),
    **kwargs,
) -> str:
    """Text tables for :func:`figure_ext_multi_sweep` (one per config)."""
    from .report import format_series_table

    blocks = []
    for config_name, rows in data.items():
        table = format_series_table("cache", list(cache_sizes), rows)
        blocks.append(f"[{config_name}] trie vs unified HEEB\n{table}")
    return "\n\n".join(blocks)


register_figure(
    FigureSpec(
        name="ext-multi-sweep",
        title="n-way cache-size sweep: trie vs unified HEEB",
        builder=figure_ext_multi_sweep,
        render=_render_ext_multi_sweep,
    )
)
