"""Layered simulation-engine architecture with capability negotiation.

The repository grew three hand-rolled step loops (two-stream joining,
classic caching, multi-way joining) plus a vectorized batch engine that
callers selected through scattered ``try/except`` blocks.  This module
dissolves that coupling into an explicit operator/engine split:

* :class:`ExperimentSpec` — a typed description of *what* to simulate
  (problem kind, cache size, warmup, window, band, stream models, window
  oracle, multi-join queries), independent of *how* it runs;
* :class:`RunResult` — the common base of every per-trial outcome
  (:class:`~repro.sim.multi_join.JoinRunResult` for joins of any
  topology, :class:`~repro.sim.cache_sim.CacheRunResult`);
* :class:`Engine` — the execution-tier interface.  Three tiers ship:

  ============  =====================================================
  ``scalar``    the reference per-trial Python loop (supports all
                kinds and all policies, including FlowExpect's
                fast/reference paths)
  ``batch``     the vectorized NumPy engine (:mod:`repro.sim.batch`);
                joins (binary and n-way) and caching with an exact
                batch policy adapter
  ``parallel``  fans independent trials across forked children
                and the calling process; needs ``fork`` and an
                effective worker count > 1
  ============  =====================================================

* **capability negotiation** — every engine answers
  :meth:`Engine.supports` with ``None`` (supported) or a human-readable
  reason, and :func:`select_engine` resolves a preference to the best
  supported tier, logging a one-time warning whenever it has to fall
  back.  No caller ever catches
  :class:`~repro.policies.batch.UnbatchablePolicyError` again.

Both accelerated tiers are *exact*: for the same input paths and seeds
they reproduce the scalar loop's decisions tuple for tuple, which the
equivalence suites (``tests/test_batch_equivalence.py``,
``tests/test_parallel_engine.py``) pin.
"""

from __future__ import annotations

import abc
import logging
import multiprocessing
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import WindowOracle
from ..streams.base import StreamModel
from .step import RS_QUERIES, check_run_params

__all__ = [
    "RunResult",
    "ExperimentSpec",
    "EngineRun",
    "Engine",
    "ScalarEngine",
    "BatchEngine",
    "ParallelEngine",
    "register_engine",
    "available_engines",
    "get_engine",
    "select_engine",
    "spawn_seed",
    "spawn_rng",
]

logger = logging.getLogger(__name__)

#: Kinds an :class:`ExperimentSpec` may describe.
KINDS = ("join", "cache", "multi_join")


# ----------------------------------------------------------------------
# Per-trial seed spawning
# ----------------------------------------------------------------------
def spawn_seed(seed: int, index: int) -> int:
    """The derived seed of trial / producer ``index`` under base ``seed``.

    This is the single place the repo turns one experiment seed into
    independent per-trial (or per-producer) seeds.  Path generation
    (:func:`~repro.sim.runner.generate_paths`,
    :func:`~repro.sim.runner.generate_reference_paths`), the batch
    engine's array generators, and the :mod:`repro.serve` replay client
    all derive their RNGs here, so a spec seed means the same stream
    realizations everywhere.  The scheme — ``seed + index`` — is pinned
    by a regression test because every recorded benchmark and every
    decision-identical equivalence suite depends on it; changing it
    would silently invalidate all committed baselines.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return seed + index


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """A fresh :class:`numpy.random.Generator` for trial ``index``.

    Equivalent to ``np.random.default_rng(spawn_seed(seed, index))``;
    see :func:`spawn_seed` for why derivation is centralized.
    """
    return np.random.default_rng(spawn_seed(seed, index))


class RunResult:
    """Base class of every per-trial simulation outcome.

    Subclasses are dataclasses carrying the metric(s) of their problem;
    all expose the bookkeeping triple below plus :attr:`primary_metric`,
    the quantity the paper's figures aggregate (join results after
    warmup, cache hits after warmup).

    ``metrics`` carries the observability snapshot of the run — the
    counters/timers dict of the :mod:`repro.obs` recorder that
    instrumented it — and stays ``None`` on uninstrumented runs.  It is
    deliberately a plain class attribute, not a dataclass field, so
    existing positional constructions of every subclass keep working.
    """

    steps: int
    warmup: int
    cache_size: int
    #: Recorder snapshot (``repro.obs``) of the run, or ``None``.
    metrics: Optional[dict] = None

    @property
    def primary_metric(self) -> float:
        """The quantity the paper's figures aggregate for this run."""
        raise NotImplementedError


@dataclass
class ExperimentSpec:
    """Typed description of one simulation problem.

    The spec captures everything an engine needs besides the sampled
    input data and the policy: it is the negotiation currency of
    :func:`select_engine` and deliberately contains no execution detail
    (no trial counts, no worker counts, no engine names).

    Attributes
    ----------
    kind:
        ``"join"`` (two-stream equijoin), ``"cache"`` (reference stream
        against a database), or ``"multi_join"`` (several streams under
        binary join queries).  ``"join"`` is resolved here, once, to the
        ``R⋈S`` topology (:attr:`names`, :attr:`queries`, :attr:`models`),
        so every layer below the spec runs one join over the topology
        and branches only on joining versus caching.
    cache_size / warmup / window / band:
        The simulator parameters of Sections 2, 6.2, and 7.  ``window``
        and ``band`` apply to the joining problems (binary and n-way)
        only; a cache spec setting either is rejected.
    r_model / s_model:
        Stream models for model-aware policies.  For ``"cache"``,
        ``r_model`` is the reference-stream model and ``s_model`` unused.
    window_oracle:
        Value-window knowledge for the window-aware baselines; binary
        joins only (the oracle speaks of the R and S streams), so any
        other kind setting one is rejected.
    queries / models:
        The join topology: binary query pairs and the per-stream model
        mapping.  Given for ``"multi_join"``; a ``"join"`` spec's are
        ``(("R", "S"),)`` and ``{"R": r_model, "S": s_model}``.
    seed:
        Bookkeeping: the base seed the input paths were drawn with, when
        known.  Engines never consume it (paths are pre-sampled).
    names:
        Derived: the join's stream names in arrival order — the model
        names, else the queried streams in first-mention order; empty
        for ``"cache"``.
    """

    kind: str
    cache_size: int
    warmup: int = 0
    window: Optional[int] = None
    band: int = 0
    r_model: Optional[StreamModel] = None
    s_model: Optional[StreamModel] = None
    window_oracle: Optional[WindowOracle] = None
    queries: Optional[Sequence[tuple[str, str]]] = None
    models: Optional[Mapping[str, StreamModel]] = None
    seed: Optional[int] = None
    names: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        check_run_params(self.cache_size, self.warmup, self.window, self.band)
        if self.kind == "multi_join" and not self.queries:
            raise ValueError("multi_join specs need at least one query")
        if self.kind == "cache" and (self.window is not None or self.band):
            raise ValueError(
                "window and band apply to the joining problems only, "
                "not to cache specs"
            )
        if self.kind != "join" and self.window_oracle is not None:
            raise ValueError(
                "window_oracle applies to binary join specs only, "
                f"not to {self.kind} specs"
            )
        if self.kind == "join":
            self.queries = RS_QUERIES
            self.models = {"R": self.r_model, "S": self.s_model}
        if self.kind == "cache":
            self.names = ()
        else:
            self.names = tuple(
                self.models or dict.fromkeys(n for q in self.queries for n in q)
            )

    def trial_streams(self, item) -> Mapping:
        """One join trial as a ``{stream name: values}`` mapping.

        A mapping passes through; a sequence of value columns (a
        ``"join"`` trial's ``(r_values, s_values)``) is keyed by
        :attr:`names`.
        """
        if isinstance(item, Mapping):
            return item
        return dict(zip(self.names, item))


#: A zero-argument callable producing a fresh policy instance per trial.
PolicyFactory = Callable[[], object]


class EngineRun(NamedTuple):
    """What an engine hands back: the policy's name and per-trial results."""

    policy_name: str
    per_run: list


class Engine(abc.ABC):
    """One execution tier for Monte-Carlo simulation experiments.

    Engines are stateless between runs; configuration (worker counts)
    lives in constructor arguments.  ``supports`` is the capability side
    of the negotiation: it must be cheap, must not run a simulation, and
    returns ``None`` when the (spec, policy) combination is supported or
    a reason string when it is not.
    """

    #: Registry key and the value recorded as ``engine_used`` on results.
    name: str = "engine"

    @abc.abstractmethod
    def supports(
        self, spec: ExperimentSpec, policy_factory: PolicyFactory
    ) -> Optional[str]:
        """``None`` when this engine can run the spec, else the reason."""

    @abc.abstractmethod
    def run(
        self,
        spec: ExperimentSpec,
        policy_factory: PolicyFactory,
        data: Sequence,
        recorder: Recorder = NULL_RECORDER,
    ) -> EngineRun:
        """Execute one trial per ``data`` item and return ordered results.

        ``data`` items are reference sequences for ``"cache"``; a join
        trial is a ``{stream_name: values}`` mapping or its value
        columns in :attr:`ExperimentSpec.names` order (a ``"join"``
        spec's ``(r_values, s_values)`` pairs), see
        :meth:`ExperimentSpec.trial_streams`.

        ``recorder`` is the observability sink (:mod:`repro.obs`)
        shared by every trial of the run; the default no-op recorder
        keeps instrumentation free.  Tiers that execute trials in other
        processes must fold worker-side counters back into it
        (:meth:`~repro.obs.recorder.Recorder.merge`).
        """


# ----------------------------------------------------------------------
# Scalar tier
# ----------------------------------------------------------------------
def _run_one_scalar(
    spec: ExperimentSpec,
    policy,
    item,
    recorder: Recorder = NULL_RECORDER,
) -> RunResult:
    """Run one trial through the reference simulator for ``spec.kind``."""
    if spec.kind == "cache":
        from .cache_sim import CacheSimulator

        sim = CacheSimulator(
            spec.cache_size,
            policy,
            warmup=spec.warmup,
            reference_model=spec.r_model,
            recorder=recorder,
        )
        return sim.run(item)
    from .multi_join import MultiJoinSimulator

    sim = MultiJoinSimulator(
        spec.cache_size,
        policy,
        spec.queries,
        warmup=spec.warmup,
        window=spec.window,
        band=spec.band,
        models=spec.models,
        window_oracle=spec.window_oracle,
        recorder=recorder,
    )
    return sim.run(spec.trial_streams(item))


class ScalarEngine(Engine):
    """The reference tier: one fresh policy instance per trial, the
    original Python step loops.  Supports every (spec, policy)
    combination; every other tier is pinned against it."""

    name = "scalar"

    def supports(self, spec, policy_factory):
        """Always ``None``: the scalar tier runs everything."""
        return None

    def run(self, spec, policy_factory, data, recorder=NULL_RECORDER):
        """One fresh policy + one reference simulator per trial."""
        results = []
        name = None
        rec_on = recorder.enabled
        for item in data:
            policy = policy_factory()
            name = getattr(policy, "name", None) or "policy"
            results.append(_run_one_scalar(spec, policy, item, recorder))
            if rec_on:
                recorder.count("trials.done")
        return EngineRun(policy_name=name or "policy", per_run=results)


# ----------------------------------------------------------------------
# Batch (vectorized) tier
# ----------------------------------------------------------------------
class BatchEngine(Engine):
    """The vectorized tier: all trials advance in lockstep over
    ``(B, slots)`` NumPy arrays (:mod:`repro.sim.batch`).

    Capability: joining (any topology) and caching specs whose policy
    has an exact batch adapter
    (:func:`~repro.policies.batch.make_batch_policy`).
    """

    name = "batch"

    def _adapter(self, spec: ExperimentSpec, policy):
        from ..policies.batch import make_batch_policy

        return make_batch_policy(
            policy,
            kind=spec.kind,
            r_model=spec.r_model,
            s_model=spec.s_model,
            window=spec.window,
            window_oracle=spec.window_oracle,
            models=spec.models,
            queries=spec.queries,
            cache_size=spec.cache_size,
        )

    def supports(self, spec, policy_factory):
        """``None`` for specs whose policy has an exact batch adapter."""
        from ..policies.batch import UnbatchablePolicyError

        try:
            self._adapter(spec, policy_factory())
        except UnbatchablePolicyError as exc:
            return str(exc)
        return None

    def run(self, spec, policy_factory, data, recorder=NULL_RECORDER):
        """Run all trials in lockstep on the vectorized simulators.

        Counters are aggregated across trials (arrivals, results,
        evictions sum over the whole batch, matching what the scalar
        tier would record over the same trials); per-step trace events
        are not emitted — trace with the scalar engine for per-tuple
        visibility.
        """
        from .batch import (
            BatchCacheSimulator,
            BatchMultiJoinSimulator,
            streams_to_arrays,
            values_to_array,
        )

        policy = policy_factory()
        adapter = self._adapter(spec, policy)
        if spec.kind == "cache":
            sim = BatchCacheSimulator(
                spec.cache_size,
                adapter,
                warmup=spec.warmup,
                recorder=recorder,
                policy_name=policy.name,
            )
            per_run = sim.run(values_to_array(data)).unbatch()
        else:
            arrays = streams_to_arrays([spec.trial_streams(i) for i in data])
            if not arrays:
                return EngineRun(policy_name=policy.name, per_run=[])
            sim = BatchMultiJoinSimulator(
                spec.cache_size,
                adapter,
                spec.queries,
                warmup=spec.warmup,
                window=spec.window,
                band=spec.band,
                recorder=recorder,
                policy_name=policy.name,
            )
            per_run = sim.run(arrays)
        if recorder.enabled:
            recorder.count("trials.done", len(per_run))
        return EngineRun(policy_name=policy.name, per_run=per_run)


# ----------------------------------------------------------------------
# Parallel tier
# ----------------------------------------------------------------------
#: Payload the chunks of a parallel run read.  Set immediately before the
#: first fork (children inherit it through fork) so policy factories —
#: routinely closures or lambdas — never need to be pickled.
_FORK_PAYLOAD: Optional[
    tuple[ExperimentSpec, PolicyFactory, tuple, Recorder]
] = None


#: What a chunk returns: the policy name, its per-trial results, and its
#: recorder snapshot (``None`` when recording is off).
_ChunkResult = tuple[str, list, Optional[dict]]


def _parallel_worker(indices: list[int]) -> _ChunkResult:
    """Run one contiguous chunk of trials from the fork payload.

    Each chunk instruments its trials with a fresh child of the run's
    recorder (:meth:`~repro.obs.recorder.Recorder.fork`) and returns the
    child's snapshot with the results, so counters cross the fork
    boundary even though a forked child's memory does not.  The chunk
    the calling process runs itself goes through the same path.
    """
    assert _FORK_PAYLOAD is not None, "chunk started without a fork payload"
    spec, policy_factory, data, recorder = _FORK_PAYLOAD
    child = recorder.fork() if recorder.enabled else NULL_RECORDER
    results = []
    name = "policy"
    child_on = child.enabled
    for i in indices:
        policy = policy_factory()
        name = getattr(policy, "name", None) or "policy"
        results.append(_run_one_scalar(spec, policy, data[i], child))
        if child_on:
            child.count("trials.done")
    snapshot = child.snapshot() if child.enabled else None
    return name, results, snapshot


class _ChildTraceback(Exception):
    """A forked chunk's formatted traceback, chained as ``__cause__`` of
    the exception it raised."""


def _child_main(indices: list[int], fd: int) -> None:
    """Body of a forked child: run one chunk, write its pickled outcome.

    The outcome is ``(True, (name, results, snapshot))`` or ``(False,
    (exception, traceback text))``.  An exception that does not survive
    a pickle round trip travels as a ``RuntimeError`` carrying its repr.
    Closing the pipe before the child exits lets the parent read and
    merge while the kernel tears the child's address space down.
    """
    try:
        payload = pickle.dumps(
            (True, _parallel_worker(indices)), pickle.HIGHEST_PROTOCOL
        )
    except BaseException as exc:
        text = "".join(traceback.format_exception(exc))
        try:
            payload = pickle.dumps((False, (exc, text)), pickle.HIGHEST_PROTOCOL)
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps(
                (False, (RuntimeError(repr(exc)), text)), pickle.HIGHEST_PROTOCOL
            )
    with open(fd, "wb") as pipe:
        pipe.write(payload)


@dataclass
class _Child:
    """One forked chunk as the parent tracks it."""

    pid: int
    #: Read end of the child's outcome pipe.
    pipe: BinaryIO
    #: Its outcome was read: the child is exiting on its own.
    received: bool = False
    reaped: bool = False


def _flush_std_streams() -> None:
    """Flush Python-level stdout/stderr: before a fork, so a child does
    not inherit (and write out again) text the parent buffered; and
    before a child exits, since ``os._exit`` flushes nothing."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


def _fork_chunk(indices: list[int]) -> _Child:
    """Fork a child that runs ``indices`` and writes back its outcome."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # child: never returns, never runs the caller's cleanup
        code = 1
        try:
            os.close(r)
            _child_main(indices, w)
            code = 0
        finally:
            _flush_std_streams()
            os._exit(code)
    os.close(w)
    return _Child(pid=pid, pipe=open(r, "rb"))


def _receive(child: _Child, label: str) -> Union[_ChunkResult, BaseException]:
    """Read ``child``'s outcome: its chunk result, or the exception to
    raise for it."""
    with child.pipe as pipe:
        payload = pipe.read()
    child.received = True
    if not payload:
        _, status = os.waitpid(child.pid, 0)
        child.reaped = True
        code = os.waitstatus_to_exitcode(status)
        return RuntimeError(f"{label} exited without a result (exit code {code})")
    ok, value = pickle.loads(payload)
    if ok:
        return value
    exc, text = value
    exc.__cause__ = _ChildTraceback(text)
    return exc


def _reap(children: list[_Child]) -> None:
    """Kill every child whose outcome was not read, then reap them all."""
    for child in children:
        child.pipe.close()
        if not child.received:
            os.kill(child.pid, signal.SIGKILL)
    for child in children:
        if not child.reaped:
            os.waitpid(child.pid, 0)
            child.reaped = True


class ParallelEngine(Engine):
    """Fans independent Monte-Carlo trials across forked processes.

    Each trial runs the *scalar* simulator with its own fresh policy
    instance, exactly as :class:`ScalarEngine` would, so results are
    seed-for-seed identical to the scalar tier for every policy and every
    worker count — parallelism only changes which process executes a
    trial, never the trial itself.  Trials are split into one contiguous
    chunk per worker; the calling process forks one child per chunk but
    the last and runs that last chunk itself, and results are
    reassembled in trial order.  There is no pool: every run forks
    afresh, so children always see the caller's current state, and no
    child outlives :meth:`run`.

    Requires the ``fork`` start method (Linux; the default there): the
    spec, policy factory, and input data reach children by process
    inheritance, so unpicklable closures work unchanged; only results,
    counter snapshots and exceptions are pickled.  A failing chunk's
    exception (type and message; an unpicklable one as a
    ``RuntimeError`` carrying its repr) propagates to the caller, the
    first failing chunk in trial order winning, as on the scalar tier; a
    child that dies without a result (a signal, ``os._exit``, the OOM
    killer) surfaces as a ``RuntimeError`` naming its chunk and exit
    code.  An exception in the caller's own chunk waits for the children
    to report; an interrupt kills them.  Either way every child is
    reaped before the exception propagates.

    Capability: besides the start method, the tier declares itself
    unsupported when its effective worker count is 1 (explicitly, or
    because the machine has a single CPU) — one worker would run every
    trial in the calling process, a scalar run under another name, so
    the negotiation falls back to scalar with the usual one-time warning
    instead of silently recording a 1x "parallel" run.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None):
        """Cap the worker count; ``None`` means one worker per CPU."""
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers

    @property
    def max_workers(self) -> int:
        """Effective worker count after the CPU-count default."""
        return self._max_workers or os.cpu_count() or 1

    def supports(self, spec, policy_factory):
        """Reject platforms/configurations where forking cannot win."""
        if "fork" not in multiprocessing.get_all_start_methods():
            return "the parallel engine requires the 'fork' start method"
        if self.max_workers <= 1:
            return (
                "the parallel engine has an effective worker count of 1 "
                "(single-CPU machine or max_workers=1), which only adds "
                "fork overhead"
            )
        return None

    def run(self, spec, policy_factory, data, recorder=NULL_RECORDER):
        """Fork a child per chunk but the last, run the last chunk here,
        and reassemble in trial order.

        Chunk counter snapshots — the caller's own chunk's included —
        are merged into ``recorder`` in chunk order, so after the run a
        :class:`~repro.obs.recorder.CounterRecorder`'s counters equal a
        scalar run's over the same trials (timers measure per-process
        wall clock and are merged additively; per-step trace events do
        not cross the fork boundary).
        """
        global _FORK_PAYLOAD
        data = list(data)
        if not data:
            name = getattr(policy_factory(), "name", None) or "policy"
            return EngineRun(policy_name=name, per_run=[])
        n_workers = min(self.max_workers, len(data))
        bounds = [
            (len(data) * w // n_workers, len(data) * (w + 1) // n_workers)
            for w in range(n_workers)
        ]
        chunks = [list(range(lo, hi)) for lo, hi in bounds if hi > lo]

        _FORK_PAYLOAD = (spec, policy_factory, tuple(data), recorder)
        children: list[_Child] = []
        try:
            _flush_std_streams()
            for chunk in chunks[:-1]:
                children.append(_fork_chunk(chunk))
            own: Union[_ChunkResult, BaseException]
            try:
                own = _parallel_worker(chunks[-1])
            except Exception as exc:
                # Held until the children report: an earlier chunk's
                # failure wins, as it would on the scalar tier.
                own = exc
            outcomes = [
                _receive(child, f"parallel chunk {n} (trials "
                         f"{chunk[0]}-{chunk[-1]})")
                for n, (child, chunk) in enumerate(zip(children, chunks))
            ]
            outcomes.append(own)
            done: list[_ChunkResult] = []
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
                done.append(outcome)
            results: list = []
            for name, chunk_results, chunk_metrics in done:
                results.extend(chunk_results)
                if chunk_metrics is not None:
                    recorder.merge(chunk_metrics)
        finally:
            _FORK_PAYLOAD = None
            _reap(children)
        return EngineRun(policy_name=name, per_run=results)


# ----------------------------------------------------------------------
# Registry and negotiation
# ----------------------------------------------------------------------
_ENGINE_FACTORIES: dict[str, Callable[[], Engine]] = {}


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Register an execution tier under a string key."""
    _ENGINE_FACTORIES[name] = factory


def available_engines() -> tuple[str, ...]:
    """Registered engine names, scalar (the reference tier) first."""
    names = sorted(_ENGINE_FACTORIES)
    if "scalar" in names:
        names.remove("scalar")
        names.insert(0, "scalar")
    return tuple(names)


def get_engine(engine: Union[str, Engine]) -> Engine:
    """Resolve a registry key (or pass an instance through)."""
    if isinstance(engine, Engine):
        return engine
    try:
        return _ENGINE_FACTORIES[engine]()
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; available: {available_engines()}"
        ) from None


register_engine("scalar", ScalarEngine)
register_engine("batch", BatchEngine)
register_engine("parallel", ParallelEngine)


#: (preferred engine, reason) pairs already warned about, so a sweep that
#: hits the same unsupported combination hundreds of times logs once.
_FALLBACK_WARNED: set[tuple[str, str]] = set()


def select_engine(
    spec: ExperimentSpec,
    policy_factory: PolicyFactory,
    prefer: Union[str, Engine, None] = None,
    recorder: Recorder = NULL_RECORDER,
) -> Engine:
    """Resolve the engine to run ``spec`` with, negotiating capabilities.

    With no preference the reference ``scalar`` tier is chosen.  With a
    preference (a registry name or an :class:`Engine` instance), that
    engine is used when it supports the combination; otherwise the
    resolver falls back to ``scalar`` and emits a one-time
    :mod:`logging` warning naming the reason — the structural replacement
    for the old silent ``try/except UnbatchablePolicyError`` dispatch.

    An enabled ``recorder`` counts every resolution
    (``engine.dispatch.<tier>``) and every demotion
    (``engine.fallback.<preferred>``), so a sweep's metrics make silent
    negotiation visible.
    """
    if prefer is None:
        if recorder.enabled:
            recorder.count("engine.dispatch.scalar")
        return get_engine("scalar")
    preferred = get_engine(prefer)
    reason = preferred.supports(spec, policy_factory)
    if reason is None:
        if recorder.enabled:
            recorder.count(f"engine.dispatch.{preferred.name}")
        return preferred
    if recorder.enabled:
        recorder.count(f"engine.fallback.{preferred.name}")
        recorder.count("engine.dispatch.scalar")
    key = (preferred.name, reason)
    if key not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(key)
        logger.warning(
            "engine %r cannot run this experiment (%s); falling back to "
            "the scalar engine",
            preferred.name,
            reason,
        )
    return get_engine("scalar")
