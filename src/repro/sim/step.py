"""Pure per-step transitions shared by the simulators and the server.

The simulators (:mod:`repro.sim.join_sim`, :mod:`repro.sim.cache_sim`,
:mod:`repro.sim.multi_join`) and the streaming service tier
(:mod:`repro.serve`) drive the *same* per-step transition — arrival →
expiry → probe → admit/evict via the policy → emit results — the former
with a ``for`` loop, the latter with an asyncio event loop.  This module
holds the two transitions as functions over explicit state objects:

* :class:`MultiJoinStepState` / :func:`multi_join_step` — the join
  transition of Section 2 over any topology of binary equijoin queries
  (Appendix C), with Section-7 sliding windows and band joins.  The
  two-stream join ``R⋈S`` is its 2-stream topology:
  :func:`make_join_state` builds that state and :func:`join_step`
  advances it, each a few lines over the shared pair;
* :class:`CacheStepState` / :func:`cache_step` — the classic caching
  transition (reference stream against a database).  Caching keeps its
  own step: Theorem 1 equates hits with reduced-join results, but the
  reduction doubles the tuples per step.

Each ``*_step`` function applies exactly one time step to the state and
returns a :class:`MultiJoinStepOutcome` / :class:`CacheStepOutcome`
describing what happened (results produced, victims evicted, tuples
admitted).  The functions are "pure" in the transition-system sense: all
mutation is confined to the passed state object, the same ``(state,
inputs)`` always produces the same ``(state', outcome)``, and no global
or ambient state is consulted — which is what makes a finite driver loop
(the simulators) and a long-lived event loop (the server) provably the
same semantics rather than a fork.  The parity suites
(``tests/test_serve_parity.py``, ``tests/test_multi_binary_equivalence.py``)
pin this: a seeded stream replayed through the scalar simulator and
through a single-shard server produces byte-identical eviction decisions
and observability counters.

All :mod:`repro.obs` instrumentation lives *inside* the step functions
(guarded on :attr:`~repro.obs.recorder.Recorder.enabled` /
:attr:`~repro.obs.recorder.Recorder.trace` as everywhere else), so any
two drivers of the same transition also report identical counters,
series, and trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ..core.tuples import CacheState, StreamTuple, TupleFactory
from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import (
    PolicyContext,
    ReplacementPolicy,
    WindowOracle,
    binary_topology,
    validate_victims,
)
from ..streams.base import StreamModel, Value

__all__ = [
    "check_run_params",
    "MultiJoinStepState",
    "MultiJoinStepOutcome",
    "multi_partner_names",
    "make_join_state",
    "build_multi_join_state",
    "join_step",
    "multi_join_step",
    "CacheStepState",
    "CacheStepOutcome",
    "make_cache_state",
    "cache_step",
]


def check_run_params(
    cache_size: int,
    warmup: int = 0,
    window: Optional[int] = None,
    band: int = 0,
) -> None:
    """Reject invalid run parameters with the diagnostics every tier shares."""
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")
    if window is not None and window < 0:
        raise ValueError("window must be nonnegative")
    if band < 0:
        raise ValueError("band must be nonnegative")


def _reset_policy(policy: ReplacementPolicy, ctx: PolicyContext) -> None:
    """Run-start reset for the policy plus its admission front-end.

    The admission filter is reset here rather than in ``reset``
    overrides because subclasses do not call ``super().reset()`` and
    policies are reused across trials.
    """
    policy.reset(ctx)
    admission = getattr(policy, "admission", None)
    if admission is not None:
        admission.reset()


def _victim_records(victims: Sequence[StreamTuple]) -> list[dict]:
    """JSON-ready ``{uid, side, value, arrived}`` records for a trace."""
    return [
        {"uid": v.uid, "side": v.side, "value": v.value, "arrived": v.arrival}
        for v in victims
    ]


# ----------------------------------------------------------------------
# Joins: any topology of binary equijoin queries
# ----------------------------------------------------------------------
@dataclass
class MultiJoinStepState:
    """Mutable state of one join run, step by step.

    Built by :func:`make_join_state` (the binary join ``R⋈S``) or
    :func:`build_multi_join_state` (any query set); advanced by
    :func:`multi_join_step`.  ``ctx`` is the partner-aware
    :class:`~repro.policies.base.PolicyContext` addressing streams by
    name; its ``window`` is the Section-7 sliding window.
    """

    cache_size: int
    policy: ReplacementPolicy
    ctx: PolicyContext
    #: Stream names that participate in this run, in arrival order.
    names: Sequence[str]
    #: Band-join width: an arrival with value ``v`` joins cached partner
    #: tuples with values in ``[v − band, v + band]`` (0: equijoin).
    band: int = 0
    #: The recorded set, fixed when the state is built: ``True``
    #: (``make_join_state``) adds ``r=`` to ``occupancy`` trace events
    #: and records no ``cache.hit_rate``; ``False`` records the n-way
    #: probe hit rate and no ``r=``.
    binary: bool = False
    cache: CacheState = field(default_factory=CacheState)
    factory: TupleFactory = field(default_factory=TupleFactory)
    #: results attributed to each query (unordered stream-name pair).
    per_query: dict = field(default_factory=dict)
    total_results: int = 0
    #: Cumulative probe outcomes: a non-"−" arrival of a query stream
    #: that matched ≥1 cached partner tuple counts as one hit, else one
    #: miss.  Feeds the ``cache.hit_rate`` series, so a binary run,
    #: which records none, counts none.
    probe_hits: int = 0
    probe_misses: int = 0
    #: Per stream, in :attr:`names` order: its ``(partner, query key)``
    #: probe edges (empty for streams in no query, which are never
    #: cached).
    probes: tuple = field(init=False)
    #: Per stream, in :attr:`names` order: its ``arrivals.<name>``
    #: counter, formatted once here rather than per counted arrival.
    arrival_counters: tuple = field(init=False)
    #: The ``evict.<policy name>`` counter of policy evictions.
    evict_counter: str = field(init=False)

    def __post_init__(self) -> None:
        self.probes = tuple(
            tuple(
                (partner, frozenset((name, partner)))
                for partner in self.ctx.partners_of(name)
            )
            for name in self.names
        )
        self.arrival_counters = tuple(f"arrivals.{name}" for name in self.names)
        self.evict_counter = f"evict.{self.policy.name}"

    @property
    def recorder(self) -> Recorder:
        """The observability sink the run was built with."""
        return self.ctx.recorder


@dataclass
class MultiJoinStepOutcome:
    """What one :func:`multi_join_step` application did."""

    #: Join results produced by this step's arrivals.
    results: int
    #: Tuples minted for this step's non-"−" query-stream arrivals.
    new_tuples: list[StreamTuple]
    #: Tuples the policy evicted (may include new arrivals never admitted).
    victims: list[StreamTuple]
    #: New tuples actually admitted to the cache.
    admitted: list[StreamTuple]
    #: Tuples removed by sliding-window expiry before the probe.
    expired: list[StreamTuple]
    #: Cache occupancy after the step.
    occupancy: int


def multi_partner_names(
    queries: Sequence[tuple[str, str]],
    names: Optional[Iterable[str]] = None,
) -> dict[str, tuple[str, ...]]:
    """Validate a query set and derive the partner map.

    Queries are binary equijoins as stream-name pairs; a pair may appear
    once and self-joins are rejected.  When the stream ``names`` are
    given, every queried stream must be one of them.  Returns ``stream
    name -> names it has a join query with`` (partner order follows
    query order).  Shared by the simulator, the batch engine, the server
    and OPT-offline so every tier rejects malformed topologies with the
    same diagnostics.
    """
    if not queries:
        raise ValueError("need at least one join query")
    partner_names: dict[str, list[str]] = {}
    seen = set()
    for a, b in queries:
        if a == b:
            raise ValueError(f"self-join {a!r} not supported")
        key = frozenset((a, b))
        if key in seen:
            raise ValueError(f"duplicate query {a!r}-{b!r}")
        seen.add(key)
        partner_names.setdefault(a, []).append(b)
        partner_names.setdefault(b, []).append(a)
    if names is not None:
        missing = set(partner_names) - set(names)
        if missing:
            raise ValueError(
                f"queries reference unknown streams {sorted(missing)}"
            )
    return {name: tuple(ps) for name, ps in partner_names.items()}


def _join_state(
    ctx: PolicyContext,
    policy: ReplacementPolicy,
    names: Sequence[str],
    queries: Sequence[tuple[str, str]],
    band: int,
    binary: bool,
) -> MultiJoinStepState:
    """Validate the run parameters, reset the policy, assemble the state."""
    check_run_params(ctx.cache_size, window=ctx.window, band=band)
    _reset_policy(policy, ctx)
    return MultiJoinStepState(
        cache_size=ctx.cache_size,
        policy=policy,
        ctx=ctx,
        names=tuple(names),
        band=band,
        binary=binary,
        per_query={frozenset(q): 0 for q in queries},
    )


def make_join_state(
    cache_size: int,
    policy: ReplacementPolicy,
    *,
    window: Optional[int] = None,
    band: int = 0,
    r_model: Optional[StreamModel] = None,
    s_model: Optional[StreamModel] = None,
    window_oracle: Optional[WindowOracle] = None,
    recorder: Recorder = NULL_RECORDER,
) -> MultiJoinStepState:
    """The binary join ``R⋈S`` as a step-ready 2-stream topology.

    This is the shared "run starts now" ritual of every binary join
    driver: validate, build the policy context, reset the policy.
    """
    names, _ = binary_topology("join")
    ctx = PolicyContext(
        kind="join",
        time=-1,
        cache_size=cache_size,
        window=window,
        window_oracle=window_oracle,
        recorder=recorder,
        histories={name: [] for name in names},
        models={"R": r_model, "S": s_model},
    )
    return _join_state(ctx, policy, names, [("R", "S")], band, binary=True)


def build_multi_join_state(
    cache_size: int,
    policy: ReplacementPolicy,
    queries: Sequence[tuple[str, str]],
    names: Sequence[str],
    *,
    window: Optional[int] = None,
    band: int = 0,
    models: Optional[Mapping[str, StreamModel]] = None,
    recorder: Recorder = NULL_RECORDER,
) -> MultiJoinStepState:
    """Validate the topology, build the partner-aware context, reset the
    policy — the n-way counterpart of :func:`make_join_state`, shared
    by :class:`~repro.sim.multi_join.MultiJoinSimulator` and the
    :mod:`repro.serve` event loop."""
    partner_names = multi_partner_names(queries, names)
    ctx = PolicyContext(
        kind="multi_join",
        time=-1,
        cache_size=cache_size,
        window=window,
        recorder=recorder,
        partner_names=partner_names,
        histories={name: [] for name in names},
        models=dict(models or {}),
    )
    return _join_state(ctx, policy, names, queries, band, binary=False)


def multi_join_step(
    state: MultiJoinStepState, t: int, values: Sequence[Value]
) -> MultiJoinStepOutcome:
    """Apply one join step: arrivals, expiry, probes, admit/evict.

    ``values[i]`` is this step's arrival on stream ``state.names[i]``
    (``None`` is the paper's "−").  Expired tuples leave the cache
    before the policy is consulted.  Each non-"−" arrival probes the
    cached tuples of every partner stream (within ``state.band``);
    results are attributed to their (unordered) query pair.  Same-step
    arrivals do not join each other, "−" arrivals join nothing and are
    not cacheable, and streams that appear in no query are observed
    (their histories grow) but never cached.  Matched tuples receive
    :meth:`~repro.policies.base.ReplacementPolicy.on_reference`, and
    evictions/admissions fire the corresponding hooks.
    """
    cache = state.cache
    policy = state.policy
    ctx = state.ctx
    rec: Recorder = ctx.recorder
    rec_on = rec.enabled
    rec_trace = rec.trace
    policy_name: str = policy.name
    names = state.names

    ctx.time = t
    record_arrival = ctx.record_arrival
    for name, val in zip(names, values):
        record_arrival(name, val)
    if rec_on:
        rec.count("sim.steps")
        for name, counter, val in zip(names, state.arrival_counters, values):
            rec.count("arrivals.null" if val is None else counter)
            if rec_trace:
                rec.event("arrival", t, side=name, value=val)

    # Sliding-window expiry: free removal of dead tuples.
    expired: list[StreamTuple] = []
    window = ctx.window
    if window is not None:
        expired = cache.expired(t - window)
        if expired and rec_on:
            rec.count("evict.window_expired", len(expired))
            if rec_trace:
                rec.event(
                    "evict",
                    t,
                    policy=policy_name,
                    victims=_victim_records(expired),
                    expired=True,
                )
        for dead in expired:
            cache.remove(dead)
            policy.on_evict(dead, t)

    # New arrivals join cached partner tuples; they are minted here but
    # admitted only after selection, so same-step arrivals never join.
    step_results = 0
    band = state.band
    per_query = state.per_query
    make = state.factory.make
    count_probes = not state.binary
    new_tuples = []
    for name, val, probes in zip(names, values, state.probes):
        if val is None or not probes:
            continue
        arrival_results = 0
        for partner, query in probes:
            if band:
                matches = cache.matching_band(partner, val, band)
            else:
                matches = cache.matching(partner, val)
            if matches:
                arrival_results += len(matches)
                per_query[query] += len(matches)
                for match in matches:
                    policy.on_reference(match, t)
        step_results += arrival_results
        if count_probes:
            if arrival_results:
                state.probe_hits += 1
            else:
                state.probe_misses += 1
        new_tuples.append(make(name, val, t))
    state.total_results += step_results

    candidates = cache.tuples() + new_tuples
    n_evict = max(0, len(candidates) - state.cache_size)
    victims = validate_victims(
        policy_name,
        candidates,
        policy.select_victims(candidates, n_evict, ctx),
        n_evict,
    )
    if victims and rec_on:
        rec.count(state.evict_counter, len(victims))
        if rec_trace:
            rec.event(
                "evict",
                t,
                policy=policy_name,
                victims=_victim_records(victims),
            )
    victim_uids = {v.uid for v in victims}
    for tup in victims:
        if tup in cache:
            cache.remove(tup)
        policy.on_evict(tup, t)
    admitted = []
    for tup in new_tuples:
        if tup.uid not in victim_uids:
            cache.add(tup)
            policy.on_admit(tup, t)
            admitted.append(tup)

    occupancy = len(cache)
    if rec_on:
        if step_results:
            rec.count("join.results", step_results)
        rec.series("cache.occupancy", t, occupancy)
        rec.series("join.results.cum", t, state.total_results)
        if not state.binary:
            n_probes = state.probe_hits + state.probe_misses
            if n_probes:
                rec.series("cache.hit_rate", t, state.probe_hits / n_probes)
        if rec_trace:
            rec.event("step", t, results=step_results)
            if state.binary:
                rec.event(
                    "occupancy", t, total=occupancy, r=cache.count_side("R")
                )
            else:
                rec.event("occupancy", t, total=occupancy)

    return MultiJoinStepOutcome(
        results=step_results,
        new_tuples=new_tuples,
        victims=victims,
        admitted=admitted,
        expired=expired,
        occupancy=occupancy,
    )


def join_step(
    state: MultiJoinStepState, t: int, r_val: Value, s_val: Value
) -> MultiJoinStepOutcome:
    """One step of the binary join: :func:`multi_join_step` over ``(R, S)``."""
    return multi_join_step(state, t, (r_val, s_val))


# ----------------------------------------------------------------------
# Classic caching
# ----------------------------------------------------------------------
@dataclass
class CacheStepState:
    """Mutable state of one classic-caching run, step by step."""

    cache_size: int
    policy: ReplacementPolicy
    ctx: PolicyContext
    cache: CacheState = field(default_factory=CacheState)
    factory: TupleFactory = field(default_factory=TupleFactory)
    #: Cumulative hits / misses / skipped-"−" entries so far.
    hits: int = 0
    misses: int = 0
    skipped: int = 0
    #: The ``evict.<policy name>`` counter, formatted once per run.
    evict_counter: str = field(init=False)

    def __post_init__(self) -> None:
        self.evict_counter = f"evict.{self.policy.name}"

    @property
    def recorder(self) -> Recorder:
        """The observability sink the run was built with."""
        return self.ctx.recorder


@dataclass
class CacheStepOutcome:
    """What one :func:`cache_step` application did."""

    #: ``True`` hit, ``False`` miss, ``None`` skipped ("−" reference).
    hit: Optional[bool]
    #: Tuples the policy evicted on a miss (empty otherwise).
    victims: list[StreamTuple]
    #: The demand-fetched tuple, when it was admitted to the cache.
    admitted: Optional[StreamTuple]
    #: Cache occupancy after the step.
    occupancy: int


def make_cache_state(
    cache_size: int,
    policy: ReplacementPolicy,
    *,
    reference_model: Optional[StreamModel] = None,
    recorder: Recorder = NULL_RECORDER,
) -> CacheStepState:
    """Validate parameters, build the policy context, reset the policy."""
    check_run_params(cache_size)
    ctx = PolicyContext(
        kind="cache",
        time=-1,
        cache_size=cache_size,
        recorder=recorder,
        histories={name: [] for name in binary_topology("cache")[0]},
        models={"R": reference_model},
    )
    _reset_policy(policy, ctx)
    return CacheStepState(cache_size=cache_size, policy=policy, ctx=ctx)


def cache_step(
    state: CacheStepState, t: int, value: Hashable
) -> CacheStepOutcome:
    """Apply one caching step: reference lookup, demand fetch, evict.

    A hit touches the cached tuple (``on_reference``); a miss
    demand-fetches the referenced tuple and lets the policy choose
    victims among cache + fetched tuple; a "−" reference (``None``) is
    skipped without consulting the cache.
    """
    cache = state.cache
    policy = state.policy
    ctx = state.ctx
    rec = ctx.recorder
    rec_on = rec.enabled
    rec_trace = rec.trace

    ctx.time = t
    ctx.record_arrival("R", value)
    if rec_on:
        rec.count("sim.steps")
    if value is None:
        state.skipped += 1
        if rec_on:
            rec.count("arrivals.null")
            if rec_trace:
                rec.event("arrival", t, side="R", value=None)
        return CacheStepOutcome(
            hit=None, victims=[], admitted=None, occupancy=len(cache)
        )

    cached = cache.matching("S", value)
    if rec_on:
        rec.count("arrivals.R")
        rec.count("cache.hits" if cached else "cache.misses")
        if rec_trace:
            rec.event("arrival", t, side="R", value=value, hit=bool(cached))
    if cached:
        state.hits += 1
        policy.on_reference(cached[0], t)
        victims: list[StreamTuple] = []
        admitted: Optional[StreamTuple] = None
    else:
        state.misses += 1
        fetched = state.factory.make("S", value, t)
        candidates = cache.tuples() + [fetched]
        n_evict = max(0, len(candidates) - state.cache_size)
        victims = validate_victims(
            policy.name,
            candidates,
            policy.select_victims(candidates, n_evict, ctx),
            n_evict,
        )
        if victims and rec_on:
            rec.count(state.evict_counter, len(victims))
            if rec_trace:
                rec.event(
                    "evict",
                    t,
                    policy=policy.name,
                    victims=_victim_records(victims),
                )
        victim_uids = {v.uid for v in victims}
        for tup in victims:
            if tup in cache:
                cache.remove(tup)
            policy.on_evict(tup, t)
        admitted = None
        if fetched.uid not in victim_uids:
            cache.add(fetched)
            policy.on_admit(fetched, t)
            admitted = fetched
    if rec_on:
        rec.series("cache.occupancy", t, len(cache))
        rec.series("cache.hits.cum", t, state.hits)
        rec.series(
            "cache.hit_rate", t, state.hits / (state.hits + state.misses)
        )
        if rec_trace and not cached:
            rec.event("occupancy", t, total=len(cache))
    return CacheStepOutcome(
        hit=bool(cached),
        victims=victims,
        admitted=admitted,
        occupancy=len(cache),
    )
