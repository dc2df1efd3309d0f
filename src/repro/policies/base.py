"""Replacement-policy interface shared by the join and cache simulators.

A policy is asked, at each time step, to pick victims among the candidate
tuples (cached tuples plus new arrivals), exactly as in the paper's
Section 3.3 formalization: the algorithm sees the cache ``K``, the new
arrivals ``N``, the observed history ``H``, and (optionally) the stream
models ``p``, and outputs the tuples *not* kept.

Policies may also receive notification hooks (admissions, evictions, and
references, i.e. join matches or cache hits) so that recency/frequency
bookkeeping such as LRU's does not require scanning histories.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Protocol, Sequence

from ..core.tuples import StreamTuple
from ..obs.recorder import NULL_RECORDER, Recorder
from ..streams.base import History, StreamModel, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..sketch import AdmissionFilter

__all__ = [
    "binary_topology",
    "PolicyContext",
    "WindowOracle",
    "ReplacementPolicy",
    "ScoredPolicy",
    "rank_by_score",
    "validate_victims",
]


def rank_by_score(
    candidates: Sequence[StreamTuple], scores: Sequence[float], n: int
) -> list[tuple[float, int, StreamTuple]]:
    """The ``n`` lowest-scoring candidates as ``(score, uid, tuple)``.

    ``scores[i]`` belongs to ``candidates[i]`` and ``n >= 1``.  The
    result is the first ``n`` entries of the full ranking by ``(score,
    uid)``: lowest score first, ties broken by uid (oldest first) so runs
    are reproducible.  Only candidates scoring at most the ``n``-th
    lowest score are decorated and sorted, which is what keeps a large
    cache's selection cheap; scores must therefore be comparable (no
    NaN).  Uids are unique, so the tuples themselves are never compared.
    """
    cut = sorted(scores)[n - 1] if n < len(scores) else math.inf
    return sorted(
        [(s, tup.uid, tup) for s, tup in zip(scores, candidates) if s <= cut]
    )[:n]


def validate_victims(
    policy_name: str,
    candidates: Sequence[StreamTuple],
    victims: Sequence[StreamTuple],
    n_evict: int,
) -> list[StreamTuple]:
    """Check a policy's victim selection against the eviction contract.

    Victims must be distinct, drawn from the candidate set, and number at
    least ``n_evict`` (returning more is allowed — evicting worthless
    tuples is never harmful).  Returns the victims as a list; raises
    :class:`ValueError` naming the offending policy otherwise.  Shared by
    every engine so all simulators reject malformed selections with the
    same diagnostics.
    """
    victims = list(victims)
    uids = {v.uid for v in victims}
    if len(uids) != len(victims):
        raise ValueError(f"{policy_name}: duplicate victims")
    if not uids <= {c.uid for c in candidates}:
        raise ValueError(f"{policy_name}: victim not a candidate")
    if len(victims) < n_evict:
        raise ValueError(
            f"{policy_name}: returned {len(victims)} victims, "
            f"needed {n_evict}"
        )
    return victims


class WindowOracle(Protocol):
    """Joinability window knowledge handed to window-aware heuristics.

    Section 6.2: "LIFE requires a sliding window to determine tuples'
    lifetimes ... we use the bound on the noise distribution as the
    sliding window.  We make RAND and PROB aware of this sliding window,
    too, so they always discard tuples outside the window first."
    """

    def is_dead(self, tup: StreamTuple, t: int) -> bool:
        """True when the tuple can no longer join any future arrival."""
        ...

    def remaining_life(self, tup: StreamTuple, t: int) -> int:
        """Number of future steps during which the tuple can still join."""
        ...


def binary_topology(kind: str) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """Stream names and partner map of a binary problem kind.

    The one definition of the two fixed topologies, shared by
    :class:`PolicyContext`, the step functions and the batch engine.
    The names order assigns the batch side codes (R first).  Joining
    partners R and S with each other; caching is the Theorem 1
    reduction, in which the cached (side-S) database tuples have the
    reference stream R as their only partner.
    """
    if kind == "join":
        return ("R", "S"), {"R": ("S",), "S": ("R",)}
    if kind == "cache":
        return ("R", "S"), {"S": ("R",)}
    raise ValueError(f"unknown kind {kind!r}")


@dataclass
class PolicyContext:
    """Everything a policy may consult when choosing victims.

    The context is *partner-aware* for every problem kind: streams are
    addressed by name through :attr:`histories` / :attr:`models`, and
    :meth:`partners_of` returns the streams each side joins against.
    A binary R/S join is the 1-partner case of the n-way topology, and
    caching is the Theorem 1 reduction (cached S tuples partnered with
    the reference stream R); a context built without a partner map
    takes its kind's fixed one from :func:`binary_topology`.

    Attributes
    ----------
    kind:
        ``"join"`` (any topology of equijoin queries) or ``"cache"``
        (reference stream against a database relation).
    time:
        The current step ``t0``; the new arrivals of this step are already
        appended to the histories.
    cache_size:
        Capacity ``k`` in tuples.
    window:
        Sliding-window length under Section-7 semantics, else ``None``.
    window_oracle:
        Value-window knowledge for the window-aware baselines.
    partner_names:
        Stream name → names of the streams its tuples join against (one
        entry per query edge).  When left empty, set from
        :func:`binary_topology`: ``R⋈S`` for joins, the Theorem 1
        reduction for caching.
    histories:
        Stream name → observed values so far (indices are time steps).
        For caching, ``"R"`` is the reference stream.
    models:
        Stream name → stochastic model, for model-aware policies (HEEB,
        FlowExpect); ``None`` means no models.  For caching, ``"R"`` is
        the reference model.
    recorder:
        Observability sink (:mod:`repro.obs`).  Defaults to the shared
        no-op recorder; policies emitting counters or trace events must
        guard on ``recorder.enabled`` / ``recorder.trace`` so disabled
        runs stay free.

    ``r_history`` / ``s_history`` / ``r_model`` / ``s_model`` are
    read-only views of the ``"R"`` / ``"S"`` entries for the binary
    callers that address the two streams directly.
    """

    kind: str
    time: int
    cache_size: int
    window: Optional[int] = None
    window_oracle: Optional[WindowOracle] = None
    recorder: Recorder = NULL_RECORDER
    partner_names: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    histories: dict[str, list[Value]] = field(default_factory=dict)
    models: Mapping[str, Optional[StreamModel]] = field(default_factory=dict)
    #: Per-stream ``(t, value)`` of the most recent non-"−" observation,
    #: maintained by :meth:`record_arrival`.  Markov-model anchoring
    #: (HEEB, FlowExpect) reads these in O(1) instead of rescanning the
    #: history on every eviction.
    last_obs: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.partner_names:
            self.partner_names = binary_topology(self.kind)[1]
        if self.models is None:
            self.models = {}

    @property
    def r_history(self) -> list[Value]:
        """Observed ``"R"`` values (the reference stream for caching)."""
        return self.history_for("R")

    @property
    def s_history(self) -> list[Value]:
        """Observed ``"S"`` values (empty for caching)."""
        return self.history_for("S")

    @property
    def r_model(self) -> Optional[StreamModel]:
        """Model of stream ``"R"`` (the reference model for caching)."""
        return self.models.get("R")

    @property
    def s_model(self) -> Optional[StreamModel]:
        """Model of stream ``"S"``."""
        return self.models.get("S")

    def record_arrival(self, side: str, value: Value) -> None:
        """Append this step's arrival and update the last-observed anchor.

        Simulators must call this (with :attr:`time` already set to the
        current step) instead of appending to the history lists directly;
        it is what keeps :meth:`latest_history` incremental.  ``None``
        (the paper's "−") is recorded in the history but never becomes an
        anchor — a "−" tuple is an observation that carries no value to
        condition on.
        """
        try:
            self.histories[side].append(value)
        except KeyError:
            self.histories[side] = [value]
        if value is not None:
            self.last_obs[side] = (self.time, value)

    def latest_history(self, side: str) -> Optional[History]:
        """Anchor for ``side``'s Markov model: its latest non-"−" value.

        O(1) via the anchors :meth:`record_arrival` maintains.  Falls
        back to one backward scan for hand-built contexts whose histories
        were populated directly (the scan can only run while no arrival
        has ever been recorded, so it cannot reintroduce the per-eviction
        rescans this replaces).
        """
        obs = self.last_obs.get(side)
        if obs is None:
            values = self.history_for(side)
            for t in range(min(self.time, len(values) - 1), -1, -1):
                if values[t] is not None:
                    obs = (t, values[t])
                    break
            if obs is None:
                return None
        return History(now=obs[0], last_value=obs[1])

    def history_for(self, side: str) -> list[Value]:
        """Observed values of stream ``side`` (created empty on demand)."""
        return self.histories.setdefault(side, [])

    def partner_model(self, side: str) -> Optional[StreamModel]:
        """Model of the (first) stream that ``side`` tuples join against."""
        partners = self.partner_names.get(side)
        return self.models.get(partners[0]) if partners else None

    def partners_of(self, side: str) -> tuple[str, ...]:
        """Names of the streams that ``side`` tuples join against.

        The binary join degenerates to a single partner: ``R`` joins
        ``S`` and vice versa.
        """
        return tuple(self.partner_names.get(side, ()))

    def model_for(self, name: str) -> Optional[StreamModel]:
        """Model of stream ``name`` (binary names are ``"R"``/``"S"``)."""
        return self.models.get(name)


class ReplacementPolicy(abc.ABC):
    """Base class for all cache replacement policies."""

    #: Human-readable name used in experiment reports.
    name: str = "policy"

    def reset(self, ctx: PolicyContext) -> None:
        """Called once before a run starts; clear any per-run state."""

    @abc.abstractmethod
    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        """Choose at least ``n_evict`` candidates to discard.

        Returning more than ``n_evict`` victims is allowed (evicting
        tuples known to be worthless is never harmful); returning fewer
        is an error the simulator rejects.
        """

    # -- sketch-state hooks (default no-ops) ---------------------------
    def sketch_state(self) -> Optional[dict[str, Any]]:
        """Bounded-memory sketch state to carry across a reshard.

        ``None`` means the policy has no sketch state (the exact
        policies); otherwise the returned mapping is fed to every
        successor policy's :meth:`merge_sketch_state` so frequency and
        admission history survive shard rebuilds.
        """
        return None

    def merge_sketch_state(self, state: Optional[dict[str, Any]]) -> None:
        """Fold a retiring policy's :meth:`sketch_state` into this one."""

    # -- notification hooks (default no-ops) ---------------------------
    def on_admit(self, tup: StreamTuple, t: int) -> None:
        """A tuple entered the cache at step ``t``."""

    def on_evict(self, tup: StreamTuple, t: int) -> None:
        """A tuple left the cache at step ``t``."""

    def on_reference(self, tup: StreamTuple, t: int) -> None:
        """A cached tuple joined a new arrival / produced a hit at ``t``."""


class ScoredPolicy(ReplacementPolicy):
    """A policy that evicts the ``n`` lowest-scoring candidates.

    Subclasses implement :meth:`score`; higher scores mean more worth
    keeping.  A selection scores all candidates in one :meth:`scores`
    call and ranks them with :func:`rank_by_score`: ties break
    deterministically by tuple uid (oldest first) so runs are
    reproducible.

    An optional :class:`~repro.sketch.AdmissionFilter` can be attached
    with :meth:`with_admission`; new arrivals whose score cannot clear
    the filter's running eviction-cutoff EMA are then returned as extra
    victims (the ``validate_victims`` contract allows over-eviction), so
    every scored policy gains admission control without per-policy code.
    """

    #: Opt-in admission front-end; ``None`` keeps the exact seed-for-seed
    #: eviction path byte-identical to previous releases.
    admission: "AdmissionFilter | None" = None

    def with_admission(self, admission: "AdmissionFilter") -> "ScoredPolicy":
        """Attach an admission front-end; returns ``self`` for chaining."""
        self.admission = admission
        return self

    def sketch_state(self) -> Optional[dict[str, Any]]:
        """Expose the admission filter for merge-on-reshard."""
        if self.admission is None:
            return None
        return {"admission": self.admission}

    def merge_sketch_state(self, state: Optional[dict[str, Any]]) -> None:
        """Merge a retiring shard's admission filter into ours."""
        if not state:
            return
        donor = state.get("admission")
        if (
            donor is not None
            and self.admission is not None
            and donor is not self.admission
        ):
            self.admission.merge(donor)

    @abc.abstractmethod
    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        """Desirability of keeping ``tup`` (higher is better)."""

    def scores(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        """:meth:`score` of every candidate, in candidate order.

        Every ranking goes through this one call, so a policy that can
        score a whole block at once (a vectorized table or surface
        lookup) overrides it; the result must equal the per-tuple
        :meth:`score` values exactly.
        """
        score = self.score
        return [score(tup, ctx) for tup in candidates]

    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if self.admission is not None:
            return self._select_with_admission(candidates, n_evict, ctx)
        if n_evict <= 0:
            return []
        scores = self.scores(candidates, ctx)
        rec = ctx.recorder
        if rec.enabled and rec.trace:
            # Snapshot every candidate's score (the per-candidate ECB/HEEB
            # values for the model-aware policies) before ranking, so a
            # trace can answer "why was X evicted at t?".
            rec.event(
                "scores",
                ctx.time,
                policy=self.name,
                candidates=[
                    {
                        "uid": tup.uid,
                        "side": tup.side,
                        "value": tup.value,
                        "score": score,
                    }
                    for tup, score in zip(candidates, scores)
                ],
            )
        ranked = rank_by_score(candidates, scores, n_evict)
        if rec.enabled:
            # Eviction threshold over time: the best score that still got
            # evicted.  The batch engine mirrors this series for every
            # scored adapter (trace events stay scalar-only).
            rec.series("scores.cutoff", ctx.time, ranked[-1][0])
        return [tup for _, _, tup in ranked]

    def _select_with_admission(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        """Eviction with the admission front-end in the loop.

        New arrivals (``tup.arrival == ctx.time``) are screened first:
        a rejected arrival becomes an extra victim, shrinking (or
        eliminating) the ranked eviction pass.  The ranked pass feeds
        its marginal-survivor score back into the filter's cutoff EMA,
        so admission thresholds track whatever the policy currently
        considers worth keeping.
        """
        admission = self.admission
        assert admission is not None
        t = ctx.time
        rec = ctx.recorder
        arrivals = [tup for tup in candidates if tup.arrival == t]
        survivors: list[StreamTuple] = []
        survivor_scores: list[float] = []
        rejected: list[StreamTuple] = []
        for tup, score in zip(arrivals, self.scores(arrivals, ctx)):
            if admission.admit(tup.value, score):
                survivors.append(tup)
                survivor_scores.append(score)
            else:
                rejected.append(tup)
        victims = list(rejected)
        n_more = n_evict - len(rejected)
        if n_more > 0:
            cached = [tup for tup in candidates if tup.arrival != t]
            survivors += cached
            survivor_scores += self.scores(cached, ctx)
            ranked = rank_by_score(survivors, survivor_scores, n_more)
            cutoff = ranked[-1][0]
            admission.update_cutoff(cutoff)
            if rec.enabled:
                rec.series("scores.cutoff", t, cutoff)
            victims.extend(tup for _, _, tup in ranked)
        if rec.enabled:
            rec.series("admission.rejects.cum", t, admission.rejects)
            rec.series("sketch.fp_rate", t, admission.fp_rate())
        return victims
