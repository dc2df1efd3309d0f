"""Batch-aware replacement-policy adapters for the vectorized engine.

The batch simulators in :mod:`repro.sim.batch` run ``B`` independent
Monte-Carlo trials simultaneously over ``(B, slots)`` state arrays.  Each
adapter here mirrors one scalar policy *exactly*: for the same per-trial
seeds the batch engine's eviction decisions are identical to the scalar
:class:`~repro.sim.join_sim.JoinSimulator` /
:class:`~repro.sim.cache_sim.CacheSimulator` runs, which the equivalence
suite (``tests/test_batch_equivalence.py``) asserts tuple-for-tuple.

Equivalence is achieved by construction rather than by approximation:

* scored adapters reproduce the scalar score formula with the same
  floating-point operations (PROB's integer frequencies, LRU's last-use
  times, HEEB's precomputed tables reused verbatim), and the engine
  breaks ties by tuple uid exactly like
  :class:`~repro.policies.base.ScoredPolicy`;
* RAND keeps one ``numpy.random.Generator`` per trial, seeded like the
  scalar policy, and issues the identical sequence of ``choice`` calls;
* the window-oracle logic of Section 6.2 (dead tuples first) is
  vectorized for :class:`~repro.policies.window_oracle.TrendWindowOracle`;
* stateful policies whose scalar math is per-*value* rather than
  per-slot (LRU-k's reference histories, the windowed HEEB variants'
  per-tuple window clips, TrieCachePolicy's shared node scores and EMA
  budgets, FlowExpect's min-cost-flow solves) are replayed through
  *memo-gather* adapters: each distinct key calls the identical scalar
  function exactly once and the result is scattered across all trials,
  so the per-trial decisions stay bit-identical while the expensive
  math is shared ``B``-fold.

A few configurations remain scalar-only and raise
:class:`UnbatchablePolicyError` from :func:`make_batch_policy` (OPT
offline schedules, sketch-backed counts, admission filters,
history-anchored models under the trie/FlowExpect adapters); the
runner then falls back to the scalar loop, so mixing batchable and
unbatchable policies in one experiment is seamless.  The coverage
matrix in ``docs/PERFORMANCE.md`` documents exactly which policy ×
problem-kind pairs dispatch where, and ``tests/test_docs_consistency``
asserts it against this module's dispatch.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Optional

import numpy as np

from ..core.heeb import heeb_cache, heeb_join, heeb_join_band
from ..core.lifetime import LExp, WindowedLExp
from ..core.precompute import H1Table, H2Surface
from ..flow.fastpath import LookaheadTemplate, solve_unit_flow
from ..flow.prob_table import ProbTable
from ..flow.solver import COST_SCALE
from ..streams.ar1 import AR1Stream
from ..streams.base import StreamModel
from ..streams.linear_trend import LinearTrendStream
from ..streams.random_walk import RandomWalkStream
from ..streams.stationary import StationaryStream
from .base import ReplacementPolicy, WindowOracle
from .flowexpect_policy import FlowExpectPolicy
from .heeb_policy import (
    AR1CacheHeeb,
    AR1JoinHeeb,
    BandJoinHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
    WalkCacheHeeb,
    WalkJoinHeeb,
)
from .life import LifePolicy
from .lru import LrukPolicy, LruPolicy
from .prob import ProbPolicy, _DEAD_PENALTY
from .rand import RandPolicy
from .trie import TrieCachePolicy
from .window_oracle import TrendWindowOracle

__all__ = [
    "NONE_VALUE",
    "R_CODE",
    "S_CODE",
    "UnbatchablePolicyError",
    "BatchPolicy",
    "BatchRand",
    "BatchLru",
    "BatchLruK",
    "BatchProb",
    "BatchLife",
    "BatchTrendJoinHeeb",
    "BatchWalkJoinHeeb",
    "BatchWalkCacheHeeb",
    "BatchStationaryJoinHeeb",
    "BatchWindowedStationaryJoinHeeb",
    "BatchWindowedTrendJoinHeeb",
    "BatchBandJoinHeeb",
    "BatchSurfaceHeeb",
    "BatchTrendOracle",
    "BatchTrie",
    "BatchFlowExpect",
    "BatchMultiPolicy",
    "BatchMultiRand",
    "BatchMultiLru",
    "BatchMultiProb",
    "BatchMultiStationaryHeeb",
    "BatchMultiTrie",
    "make_batch_policy",
]

#: Sentinel encoding the paper's "−" (``None``) value in integer arrays.
NONE_VALUE = np.iinfo(np.int64).min

#: Integer side codes used by the ``(B, slots)`` state arrays.
R_CODE = 0
S_CODE = 1


class UnbatchablePolicyError(TypeError):
    """The policy has no exact batch adapter; run it on the scalar path."""


def _unbatchable(policy_name: str, reason: str) -> UnbatchablePolicyError:
    """Build the normalized rejection: policy, reason, fallback tier.

    Every refusal in this module goes through here so the engine
    negotiation (and the user reading its warning) always sees the same
    shape: ``<POLICY> has no exact batch adapter (<reason>); it runs on
    the scalar tier``.  ``tests/test_engine_select`` asserts the format.
    """
    return UnbatchablePolicyError(
        f"{policy_name} has no exact batch adapter ({reason}); "
        "it runs on the scalar tier"
    )


class BatchPolicy(abc.ABC):
    """One replacement policy vectorized across ``B`` independent trials.

    The engine drives the adapter through the same event sequence the
    scalar simulators use (history observation, expiry, references,
    admissions, victim selection), but each event covers all trials at
    once.  Auxiliary per-slot state (recency stamps, frequency counts)
    lives in ``(B, slots)`` arrays returned by :meth:`aux_arrays`; the
    engine permutes them in lockstep with the tuple slots whenever the
    cache is compacted, so adapters never track slot movement themselves.
    """

    name: str = "batch-policy"

    #: Scored adapters return a ``(B, slots)`` score array and let the
    #: engine pick the ``n_evict`` lowest (score, uid) slots per trial.
    #: Non-scored adapters implement :meth:`select` directly.
    scored: bool = True

    #: Whether :meth:`scores` returns the *bit-identical* floats the
    #: scalar policy computes.  The engine only mirrors the scalar
    #: ``scores.cutoff`` series for exactly-scored adapters (the one
    #: tolerance-level adapter, :class:`BatchSurfaceHeeb`, opts out).
    exact_scores: bool = True

    def reset(self, n_trials: int, n_slots: int) -> None:
        """Allocate per-run state before a batch run starts."""

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-slot arrays the engine must permute on cache compaction."""
        return ()

    def begin_step(self, state, t: int, r_vals, s_vals) -> None:
        """Observe this step's arrivals (all trials), before any probing.

        ``r_vals`` / ``s_vals`` are ``(B,)`` int64 arrays using
        :data:`NONE_VALUE` for "−"; ``s_vals`` is ``None`` for the
        caching problem.
        """

    def on_reference(self, state, mask, t: int) -> None:
        """Slots flagged in ``mask`` joined an arrival / produced a hit."""

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        """New tuples appeared at ``(rows, cols)`` (before selection)."""

    def scores(self, state, t: int) -> np.ndarray:
        """Keep-desirability per slot; garbage in dead slots is fine."""
        raise NotImplementedError

    def select(self, state, n_evict, t: int) -> np.ndarray:
        """Boolean victim mask for non-scored adapters."""
        raise NotImplementedError

    def series_logs(self) -> dict[str, list[list[tuple[int, float]]]]:
        """Policy-emitted series, per trial, drained after the run.

        Maps series name to one ``[(t, value), ...]`` list per trial;
        the simulators replay them trial-major into the recorder (the
        scalar emission order) when recording is on.  Adapters that
        mirror scalar policies emitting their own series (Trie's
        ``trie.budget.*``) accumulate here unconditionally — the cost is
        a few floats per eviction round.
        """
        return {}

    def counter_totals(self) -> dict[str, int]:
        """Policy-emitted counters, summed over all trials and steps.

        Mirrors scalar ``rec.count`` calls made inside policies
        (FlowExpect's ``flow.solves``); drained once after the run.
        """
        return {}


# ----------------------------------------------------------------------
# Window oracle
# ----------------------------------------------------------------------
class BatchTrendOracle:
    """Vectorized :class:`TrendWindowOracle` over ``(B, slots)`` arrays.

    Reproduces the scalar arithmetic (float division + floor) exactly so
    the dead/alive split and LIFE's remaining lifetimes match the scalar
    oracle element-for-element.
    """

    _FOREVER = float(2**62)

    def __init__(self, oracle: TrendWindowOracle):
        self._partner_of = {
            R_CODE: oracle.partner_model("R"),
            S_CODE: oracle.partner_model("S"),
        }

    def last_joinable(self, state) -> np.ndarray:
        """Latest joinable time per slot, as float64 (huge = forever)."""
        out = np.empty(state.val.shape, dtype=np.float64)
        for code, partner in self._partner_of.items():
            if partner.speed == 0:
                lj = np.full(state.val.shape, self._FOREVER)
            else:
                lj = partner.lag + np.floor(
                    (state.val - partner.noise.min_value - partner.intercept)
                    / partner.speed
                )
            mask = state.side == code
            out[mask] = lj[mask]
        return out

    def dead(self, state, t: int) -> np.ndarray:
        return self.last_joinable(state) <= t

    def remaining_life(self, state, t: int) -> np.ndarray:
        return np.maximum(0.0, self.last_joinable(state) - t)


def _batch_oracle(
    oracle: Optional[WindowOracle], policy_name: str
) -> Optional[BatchTrendOracle]:
    if oracle is None:
        return None
    if isinstance(oracle, TrendWindowOracle):
        return BatchTrendOracle(oracle)
    raise _unbatchable(
        policy_name,
        f"window oracle {type(oracle).__name__} has no vectorized replay",
    )


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
class BatchRand(BatchPolicy):
    """RAND with one generator per trial, replaying the scalar call trace.

    The scalar policy evicts oracle-dead tuples first (in candidate
    order) and fills the remainder with ``rng.choice`` over the live
    candidates; both the candidate ordering (slot order equals cache
    insertion order) and the per-trial RNG call pattern are preserved, so
    trial ``b`` makes exactly the draws scalar run ``b`` makes.
    """

    name = "RAND"
    scored = False

    def __init__(self, seed: int, oracle: Optional[BatchTrendOracle] = None):
        self._seed = seed
        self._oracle = oracle
        self._rngs: list[np.random.Generator] = []

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._rngs = [np.random.default_rng(self._seed) for _ in range(n_trials)]

    def select(self, state, n_evict, t: int) -> np.ndarray:
        victims = np.zeros(state.alive.shape, dtype=bool)
        if self._oracle is not None:
            dead = (self._oracle.dead(state, t) & state.alive).tolist()
        else:
            dead = None
        # Alive slots occupy the row prefix, so candidate positions are
        # simply range(alive count); plain-Python bookkeeping beats
        # per-trial numpy calls at these sizes, and the per-trial
        # ``choice`` call replays the scalar policy's RNG stream exactly.
        counts = state.alive.sum(axis=1).tolist()
        rngs = self._rngs
        rows: list[int] = []
        cols: list[int] = []
        for b, ne in enumerate(n_evict.tolist()):
            if ne <= 0:
                continue
            cnt = counts[b]
            flags = dead[b] if dead is not None else None
            if flags is not None and True in flags:
                chosen = [i for i in range(cnt) if flags[i]][:ne]
                live = [i for i in range(cnt) if not flags[i]]
            else:
                chosen = []
                live = range(cnt)
            remaining = ne - len(chosen)
            if remaining > 0:
                picks = rngs[b].choice(len(live), size=remaining, replace=False)
                chosen.extend(live[i] for i in picks.tolist())
            rows.extend([b] * len(chosen))
            cols.extend(chosen)
        victims[rows, cols] = True
        return victims


class BatchLru(BatchPolicy):
    """LRU: per-slot last-use stamps; new arrivals count as just used."""

    name = "LRU"

    def __init__(self) -> None:
        self._last_use = np.zeros((0, 0), dtype=np.int64)

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._last_use = np.zeros((n_trials, n_slots), dtype=np.int64)

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._last_use,)

    def on_reference(self, state, mask, t: int) -> None:
        self._last_use[mask] = t

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        self._last_use[rows, cols] = t

    def scores(self, state, t: int) -> np.ndarray:
        return self._last_use.astype(np.float64)


class BatchLruK(BatchPolicy):
    """LRU-k: per-*value* reference histories, scattered into score arrays.

    The scalar :class:`~repro.policies.lru.LrukPolicy` keeps one
    ``deque(maxlen=k)`` of reference times per join value (histories
    survive evictions) and scores a tuple
    ``float(history[-k]) + 1e-9 * float(history[-1])``, with exactly
    ``-inf`` below ``k`` references (IEEE: ``-inf`` plus any finite
    tie-break stays ``-inf``).  The batch adapter keeps the same
    per-trial value→deque dicts, but exploits that a slot's score can
    only change when its value is referenced (at most one value per
    step, this step's R arrival) or when the slot is admitted:

    * ``begin_step`` appends the arrival to each trial's deque, computes
      the handful of fresh scores in plain Python — the identical float
      expression — and scatters them into every matching alive slot with
      one masked array assignment;
    * ``on_admit`` initializes the few admitted slots from the dicts.

    Everything else (ranking, uid tie-breaks, compaction) is the
    engine's shared vectorized machinery, so decisions, counters and
    the ``scores.cutoff`` series match the scalar run bit for bit.
    """

    def __init__(self, k: int):
        self.k = int(k)
        self.name = f"LRU-{self.k}"
        self._score = np.zeros((0, 0), dtype=np.float64)
        self._uses: list[dict[int, deque]] = []

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._score = np.zeros((n_trials, n_slots), dtype=np.float64)
        self._uses = [dict() for _ in range(n_trials)]

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._score,)

    def _value_score(self, history: Optional[deque]) -> float:
        """The scalar score formula for a value's current history."""
        if history is None or len(history) < self.k:
            # Fewer than k references: the -inf primary key absorbs any
            # finite recency tie-break, exactly like the scalar policy.
            return float("-inf")
        return float(history[0]) + 1e-9 * float(history[-1])

    def begin_step(self, state, t: int, r_vals, s_vals) -> None:
        # LRU-k histories track the *reference* stream R only (both join
        # sides share the value-keyed dict), mirroring LrukPolicy._sync.
        has = r_vals != NONE_VALUE
        if not bool(has.any()):
            return
        new_scores = np.zeros(r_vals.shape[0], dtype=np.float64)
        vals = r_vals.tolist()
        for b in np.flatnonzero(has).tolist():
            v = vals[b]
            history = self._uses[b].get(v)
            if history is None:
                history = deque(maxlen=self.k)
                self._uses[b][v] = history
            history.append(t)
            new_scores[b] = self._value_score(history)
        safe = np.where(has, r_vals, 0)
        mask = state.alive & has[:, None] & (state.val == safe[:, None])
        np.copyto(
            self._score,
            np.broadcast_to(new_scores[:, None], self._score.shape),
            where=mask,
        )

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        self._score[rows, cols] = [
            self._value_score(self._uses[b].get(v))
            for b, v in zip(rows.tolist(), values.tolist())
        ]

    def scores(self, state, t: int) -> np.ndarray:
        return self._score


class BatchProb(BatchPolicy):
    """PROB / LFU: observed partner-value frequencies, kept incrementally.

    Cached slots carry their frequency as per-slot state updated by array
    comparisons against each step's arrivals; only the two dictionary
    updates per trial per step (the global value counters, needed to
    initialize newly admitted tuples) remain Python-level, so the scoring
    path is entirely vectorized.
    """

    name = "PROB"

    def __init__(self, kind: str, oracle: Optional[BatchTrendOracle] = None):
        if kind not in ("join", "cache"):
            raise ValueError(f"unknown kind {kind!r}")
        self._kind = kind
        self._oracle = oracle
        self._freq = np.zeros((0, 0), dtype=np.int64)
        self._r_counts: list[dict] = []
        self._s_counts: list[dict] = []

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._freq = np.zeros((n_trials, n_slots), dtype=np.int64)
        self._r_counts = [dict() for _ in range(n_trials)]
        self._s_counts = [dict() for _ in range(n_trials)]

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._freq,)

    def begin_step(self, state, t: int, r_vals, s_vals) -> None:
        for counts, v in zip(self._r_counts, r_vals.tolist()):
            if v != NONE_VALUE:
                counts[v] = counts.get(v, 0) + 1
        if s_vals is not None:
            for counts, w in zip(self._s_counts, s_vals.tolist()):
                if w != NONE_VALUE:
                    counts[w] = counts.get(w, 0) + 1
        # A slot's frequency counts its value in the stream it matches:
        # R-side tuples match S arrivals and vice versa; in the caching
        # problem every (database) tuple matches the reference stream R.
        if self._kind == "cache":
            hit_r = (
                state.alive
                & (r_vals[:, None] != NONE_VALUE)
                & (state.val == np.where(r_vals == NONE_VALUE, 0, r_vals)[:, None])
            )
            self._freq += hit_r
        else:
            r_safe = np.where(r_vals == NONE_VALUE, 0, r_vals)
            s_safe = np.where(s_vals == NONE_VALUE, 0, s_vals)
            self._freq += (
                state.alive
                & (state.side == R_CODE)
                & (s_vals[:, None] != NONE_VALUE)
                & (state.val == s_safe[:, None])
            )
            self._freq += (
                state.alive
                & (state.side == S_CODE)
                & (r_vals[:, None] != NONE_VALUE)
                & (state.val == r_safe[:, None])
            )

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        if self._kind == "cache" or side_code == S_CODE:
            source = self._r_counts
        else:
            source = self._s_counts
        self._freq[rows, cols] = [
            source[b].get(v, 0) for b, v in zip(rows.tolist(), values.tolist())
        ]

    def scores(self, state, t: int) -> np.ndarray:
        sc = self._freq.astype(np.float64)
        if self._oracle is not None:
            sc = np.where(self._oracle.dead(state, t), sc - _DEAD_PENALTY, sc)
        return sc


class BatchLife(BatchPolicy):
    """LIFE: match-probability estimate × oracle remaining lifetime."""

    name = "LIFE"

    def __init__(self, kind: str, oracle: Optional[BatchTrendOracle]):
        if oracle is None:
            raise _unbatchable(
                "LIFE",
                "it requires a window oracle to determine tuple lifetimes",
            )
        self._prob = BatchProb(kind)
        self._oracle = oracle

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._prob.reset(n_trials, n_slots)

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        return self._prob.aux_arrays()

    def begin_step(self, state, t: int, r_vals, s_vals) -> None:
        self._prob.begin_step(state, t, r_vals, s_vals)

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        self._prob.on_admit(state, rows, cols, side_code, values, t)

    def scores(self, state, t: int) -> np.ndarray:
        life = self._oracle.remaining_life(state, t)
        freq = self._prob._freq.astype(np.float64)
        total = float(max(1, t + 1))
        return (freq / total) * life


# ----------------------------------------------------------------------
# HEEB strategies
# ----------------------------------------------------------------------
def _dense_lookup(values: np.ndarray, lo: int, offsets: np.ndarray) -> np.ndarray:
    """Index a dense offset-table, returning 0.0 outside its range."""
    if values.size == 0:
        return np.zeros(offsets.shape)
    idx = offsets - lo
    valid = (idx >= 0) & (idx < values.size)
    return np.where(valid, values[np.clip(idx, 0, values.size - 1)], 0.0)


class BatchTrendJoinHeeb(BatchPolicy):
    """HEEB over unit-speed linear trends, via the Corollary-5 tables.

    Reads the exact per-offset tables the scalar
    :class:`~repro.policies.heeb_policy.TrendJoinHeeb` builds, densified
    into arrays, so batch and scalar scores are bit-identical.
    """

    name = "HEEB"

    def __init__(
        self,
        strategy: TrendJoinHeeb,
        r_model: LinearTrendStream,
        s_model: LinearTrendStream,
    ):
        self._r_model = r_model
        self._s_model = s_model
        # Keys mirror the scalar policy's cache: the table for side-X
        # tuples is built from the partner stream of X.
        self._lo_for_r, self._tab_for_r = strategy.table_array(
            s_model, "partner-of-R"
        )
        self._lo_for_s, self._tab_for_s = strategy.table_array(
            r_model, "partner-of-S"
        )

    def scores(self, state, t: int) -> np.ndarray:
        d_r = state.val - self._s_model.trend(t)
        d_s = state.val - self._r_model.trend(t)
        sc_r = _dense_lookup(self._tab_for_r, self._lo_for_r, d_r)
        sc_s = _dense_lookup(self._tab_for_s, self._lo_for_s, d_s)
        return np.where(state.side == R_CODE, sc_r, sc_s)


class BatchWalkJoinHeeb(BatchPolicy):
    """HEEB over random walks: vectorized ``h1`` lookups (Theorem 5(2))."""

    name = "HEEB"

    def __init__(
        self,
        strategy: WalkJoinHeeb,
        r_model: RandomWalkStream,
        s_model: RandomWalkStream,
    ):
        self._tab_for_r: H1Table = strategy.table_for(s_model, "partner-of-R")
        self._tab_for_s: H1Table = strategy.table_for(r_model, "partner-of-S")

    def scores(self, state, t: int) -> np.ndarray:
        no_s = state.last_s == NONE_VALUE
        no_r = state.last_r == NONE_VALUE
        anchor_s = np.where(no_s, 0, state.last_s)
        anchor_r = np.where(no_r, 0, state.last_r)
        sc_r = np.where(
            no_s[:, None], 0.0, self._tab_for_r.lookup(state.val - anchor_s[:, None])
        )
        sc_s = np.where(
            no_r[:, None], 0.0, self._tab_for_s.lookup(state.val - anchor_r[:, None])
        )
        return np.where(state.side == R_CODE, sc_r, sc_s)


class BatchWalkCacheHeeb(BatchPolicy):
    """Caching HEEB for random-walk references: one shared ``h1`` curve."""

    name = "HEEB"

    def __init__(self, strategy: WalkCacheHeeb):
        self._table = strategy.table

    def scores(self, state, t: int) -> np.ndarray:
        no_r = state.last_r == NONE_VALUE
        anchor = np.where(no_r, 0, state.last_r)
        return np.where(
            no_r[:, None], 0.0, self._table.lookup(state.val - anchor[:, None])
        )


class BatchStationaryJoinHeeb(BatchPolicy):
    """Generic joining HEEB specialized to stationary partners.

    For i.i.d. streams ``H`` depends on the candidate's value only, so
    the scalar ``heeb_join`` is evaluated once per support value into a
    dense table (identical floats for every query time) and scoring is a
    pure array lookup.
    """

    name = "HEEB"

    def __init__(
        self,
        strategy: GenericJoinHeeb,
        r_model: StationaryStream,
        s_model: StationaryStream,
    ):
        self._lo_for_r, self._tab_for_r = self._build(strategy, s_model)
        self._lo_for_s, self._tab_for_s = self._build(strategy, r_model)

    @staticmethod
    def _build(
        strategy: GenericJoinHeeb, partner: StationaryStream
    ) -> tuple[int, np.ndarray]:
        lo, hi = partner.dist.min_value, partner.dist.max_value
        values = np.array(
            [
                heeb_join(partner, 0, v, strategy.estimator, strategy.horizon)
                for v in range(lo, hi + 1)
            ]
        )
        return lo, values

    def scores(self, state, t: int) -> np.ndarray:
        sc_r = _dense_lookup(self._tab_for_r, self._lo_for_r, state.val)
        sc_s = _dense_lookup(self._tab_for_s, self._lo_for_s, state.val)
        return np.where(state.side == R_CODE, sc_r, sc_s)


class _MemoGatherHeeb(BatchPolicy):
    """Windowed HEEB via memo-gather over ``(side, value, remaining)``.

    Section 7 clips each tuple's survival estimate at its own window
    expiry, so scores depend on the per-tuple *remaining* window —
    ``max(0, arrival + window − t)``, at most ``window + 1`` distinct
    values — rather than the value alone.  Subclasses provide
    ``_score_one(side_code, value, remaining, t)``, which calls the
    identical scalar scoring function once per distinct key; this base
    class vectorizes the rest: the remaining-window arithmetic, the
    ``np.unique`` key extraction over all alive slots, and the scatter
    of memoized scores back into the ``(B, slots)`` array.  Because
    every float comes out of the scalar function, batch scores (and the
    ``scores.cutoff`` series) are bit-identical to the scalar tier.
    """

    name = "HEEB"

    def __init__(self, window: int):
        self._window = int(window)
        self._memo: dict[tuple[int, int, int], float] = {}

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._memo = {}

    def _score_one(self, side: int, value: int, remaining: int, t: int) -> float:
        raise NotImplementedError

    def _memo_key(
        self, side: int, value: int, remaining: int, t: int
    ) -> Optional[tuple]:
        """Memo key for a score, or ``None`` to disable memoization."""
        return (side, value, remaining)

    def scores(self, state, t: int) -> np.ndarray:
        out = np.zeros(state.val.shape)
        alive = state.alive
        if not bool(alive.any()):
            return out
        remaining = np.maximum(0, state.arr + self._window - t)
        keys = np.stack(
            [state.side[alive], state.val[alive], remaining[alive]], axis=-1
        )
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        scores = np.empty(uniq.shape[0])
        for i, (side, value, rem) in enumerate(uniq.tolist()):
            key = self._memo_key(side, value, rem, t)
            h = self._memo.get(key) if key is not None else None
            if h is None:
                h = self._score_one(side, value, rem, t)
                if key is not None:
                    self._memo[key] = h
            scores[i] = h
        out[alive] = scores[inverse]
        return out


class BatchWindowedStationaryJoinHeeb(_MemoGatherHeeb):
    """Windowed generic joining HEEB over stationary partners.

    The scalar path scores a tuple with ``heeb_join(partner, t, v,
    WindowedLExp(alpha, remaining), horizon)``; for i.i.d. partners the
    result is independent of ``t``, so one persistent memo keyed
    ``(side, value, remaining)`` — each entry produced by that exact
    scalar call — answers every query for the whole run.
    """

    def __init__(
        self,
        strategy: GenericJoinHeeb,
        r_model: StationaryStream,
        s_model: StationaryStream,
        window: int,
    ):
        super().__init__(window)
        assert isinstance(strategy.estimator, LExp)
        self._alpha = strategy.estimator.alpha
        self._horizon = strategy.horizon
        self._partner_of = {R_CODE: s_model, S_CODE: r_model}

    def _score_one(self, side: int, value: int, remaining: int, t: int) -> float:
        estimator = WindowedLExp(self._alpha, remaining)
        return heeb_join(
            self._partner_of[side], 0, value, estimator, self._horizon
        )


class BatchWindowedTrendJoinHeeb(_MemoGatherHeeb):
    """Windowed HEEB over linear trends: memoized per-tuple direct sums.

    The scalar path evaluates ``TrendJoinHeeb._direct_sum(partner, v, t,
    min(remaining, suggested_horizon))`` per tuple.  For unit-speed
    trends the sum depends only on the trend offset ``v − f(t)`` and the
    clipped horizon (integer trend arithmetic makes the translated pmf
    arrays element-identical), so the memo persists across steps keyed
    on the offset; other speeds lack translation invariance and fall
    back to a per-step memo.  Every entry is produced by the public
    :meth:`~repro.policies.heeb_policy.TrendJoinHeeb.direct_sum` — the
    scalar expression itself — keeping scores bit-identical.
    """

    def __init__(
        self,
        strategy: TrendJoinHeeb,
        r_model: LinearTrendStream,
        s_model: LinearTrendStream,
        window: int,
    ):
        super().__init__(window)
        self._strategy = strategy
        self._partner_of = {R_CODE: s_model, S_CODE: r_model}
        self._suggested = strategy.estimator.suggested_horizon(strategy.tol)
        self._translation = r_model.speed == 1.0 and s_model.speed == 1.0
        self._memo_t: Optional[int] = None

    def _memo_key(
        self, side: int, value: int, remaining: int, t: int
    ) -> Optional[tuple]:
        horizon = min(remaining, self._suggested)
        if self._translation:
            return (side, value - self._partner_of[side].trend(t), horizon)
        return (side, value, remaining)

    def scores(self, state, t: int) -> np.ndarray:
        if not self._translation and self._memo_t != t:
            self._memo = {}
            self._memo_t = t
        return super().scores(state, t)

    def _score_one(self, side: int, value: int, remaining: int, t: int) -> float:
        horizon = min(remaining, self._suggested)
        return self._strategy.direct_sum(
            self._partner_of[side], value, t, horizon
        )


class BatchBandJoinHeeb(BatchPolicy):
    """Band-join HEEB over stationary partners, as dense value tables.

    The scalar :class:`~repro.policies.heeb_policy.BandJoinHeeb` ignores
    the window (its ``h_value`` never consults ``ctx.window``), and for
    i.i.d. partners ``heeb_join_band`` is independent of the query time,
    so one dense table per side — each entry the scalar call itself —
    covers the run.  The table spans ``[support_lo − band, support_hi +
    band]``: outside it every per-step band probability is zero and the
    scalar sum is exactly ``0.0``, matching the lookup's default.
    """

    name = "HEEB"

    def __init__(
        self,
        strategy: BandJoinHeeb,
        r_model: StationaryStream,
        s_model: StationaryStream,
    ):
        self._lo_for_r, self._tab_for_r = self._build(strategy, s_model)
        self._lo_for_s, self._tab_for_s = self._build(strategy, r_model)

    @staticmethod
    def _build(
        strategy: BandJoinHeeb, partner: StationaryStream
    ) -> tuple[int, np.ndarray]:
        lo = partner.dist.min_value - strategy.band
        hi = partner.dist.max_value + strategy.band
        values = np.array(
            [
                heeb_join_band(
                    partner, 0, v, strategy.band, strategy.estimator,
                    strategy.horizon,
                )
                for v in range(lo, hi + 1)
            ]
        )
        return lo, values

    def scores(self, state, t: int) -> np.ndarray:
        sc_r = _dense_lookup(self._tab_for_r, self._lo_for_r, state.val)
        sc_s = _dense_lookup(self._tab_for_s, self._lo_for_s, state.val)
        return np.where(state.side == R_CODE, sc_r, sc_s)


class BatchSurfaceHeeb(BatchPolicy):
    """AR(1) HEEB via the precomputed ``h2`` spline surface (Theorem 5(1)).

    Uses pointwise spline evaluation
    (:meth:`~repro.core.precompute.H2Surface.evaluate_many`); agrees with
    the scalar strategies to floating-point evaluation order, which is
    close but not guaranteed bit-identical — the one adapter outside the
    bit-exactness guarantee (hence ``exact_scores = False``: the engine
    does not mirror the scalar ``scores.cutoff`` series for it).
    """

    name = "HEEB"
    exact_scores = False

    def __init__(self, surface: H2Surface, model: AR1Stream, kind: str):
        self._surface = surface
        self._model = model
        self._kind = kind

    def _latent(self, anchors: np.ndarray) -> np.ndarray:
        return anchors * self._model.bucket

    def scores(self, state, t: int) -> np.ndarray:
        if self._kind == "cache":
            no_anchor = state.last_r == NONE_VALUE
            anchor = np.where(no_anchor, 0, state.last_r)
            latent = self._latent(anchor)[:, None]
            latent = np.broadcast_to(latent, state.val.shape)
            sc = self._surface.evaluate_many(state.val.astype(np.float64), latent)
            return np.where(no_anchor[:, None], 0.0, sc)
        no_s = state.last_s == NONE_VALUE
        no_r = state.last_r == NONE_VALUE
        lat_s = self._latent(np.where(no_s, 0, state.last_s))[:, None]
        lat_r = self._latent(np.where(no_r, 0, state.last_r))[:, None]
        vals = state.val.astype(np.float64)
        sc_r = self._surface.evaluate_many(
            vals, np.broadcast_to(lat_s, vals.shape)
        )
        sc_s = self._surface.evaluate_many(
            vals, np.broadcast_to(lat_r, vals.shape)
        )
        sc_r = np.where(no_s[:, None], 0.0, sc_r)
        sc_s = np.where(no_r[:, None], 0.0, sc_s)
        return np.where(state.side == R_CODE, sc_r, sc_s)


# ----------------------------------------------------------------------
# Trie caching
# ----------------------------------------------------------------------
class _TrieReplayCore:
    """Shared replay machinery behind :class:`BatchTrie` / :class:`BatchMultiTrie`.

    :class:`~repro.policies.trie.TrieCachePolicy` is stateful in two
    coupled ways — shared per-``(stream, value)`` node scores and the EMA
    budget shares its two-phase selection consults — so the batch replay
    splits the work accordingly:

    * node scores go through one *shared* memo (``score_of`` is the
      identical scalar benefit function, called once per distinct node),
      persistent across steps when every consulted model is stationary
      and cleared per step otherwise;
    * the selection phases (score-sort, per-level quotas via
      largest-remainder rounding, global fill) are replayed per trial in
      plain Python over that trial's shares row — the same float
      expressions in the same order as the scalar policy;
    * the budget update is vectorized over the participating trials:
      the EMA is elementwise (bit-exact per element) and the share
      totals/norms accumulate columns left to right, matching Python's
      ``sum`` over the scalar policy's dicts.

    Cutoff and per-level budget series are accumulated per trial and
    handed to the engine through ``series_logs`` so recorded runs see
    the scalar emission order.
    """

    def __init__(
        self,
        levels: tuple[str, ...],
        level_of_code: dict[int, str],
        score_of,
        beta: float,
        min_share: float,
        persistent: bool,
    ):
        self._levels = levels
        self._level_of_code = level_of_code
        self._score_of = score_of
        self._beta = beta
        self._min_share = min_share
        self._persistent = persistent
        self._memo: dict[tuple[int, int], float] = {}
        self._memo_t: Optional[int] = None
        self._pressure = np.zeros((0, 0))
        self._shares = np.zeros((0, 0))
        self._cutoff_log: list[list[tuple[int, float]]] = []
        self._budget_logs: dict[str, list[list[tuple[int, float]]]] = {}

    def reset(self, n_trials: int) -> None:
        n_levels = len(self._levels)
        self._pressure = np.zeros((n_trials, n_levels))
        self._shares = np.full((n_trials, n_levels), 1.0 / n_levels)
        self._memo = {}
        self._memo_t = None
        self._cutoff_log = [[] for _ in range(n_trials)]
        self._budget_logs = {
            name: [[] for _ in range(n_trials)] for name in self._levels
        }

    def series_logs(self) -> dict[str, list[list[tuple[int, float]]]]:
        out: dict[str, list[list[tuple[int, float]]]] = {
            "scores.cutoff": self._cutoff_log
        }
        for name, logs in self._budget_logs.items():
            out[f"trie.budget.{name}"] = logs
        return out

    def select(self, state, n_evict: np.ndarray, t: int) -> np.ndarray:
        if self._memo_t != t:
            if not self._persistent:
                self._memo = {}
            self._memo_t = t
        victims = np.zeros(state.alive.shape, dtype=bool)
        part_rows = np.flatnonzero(n_evict > 0).tolist()
        if not part_rows:
            return victims
        counts = state.alive.sum(axis=1)
        levels = self._levels
        level_index = {name: j for j, name in enumerate(levels)}
        name_of = self._level_of_code
        memo = self._memo
        participants: list[int] = []
        cutoff_rows: list[list[float]] = []
        for b in part_rows:
            ne = int(n_evict[b])
            cnt = int(counts[b])
            if cnt == 0:
                continue
            vals = state.val[b, :cnt].tolist()
            sides = state.side[b, :cnt].tolist()
            uids = state.uid[b, :cnt].tolist()
            entries: list[tuple[float, int, int]] = []
            for i in range(cnt):
                key = (sides[i], vals[i])
                score = memo.get(key)
                if score is None:
                    score = self._score_of(sides[i], vals[i], t)
                    memo[key] = score
                entries.append((score, uids[i], i))
            entries.sort()
            keep_count = cnt - ne
            if keep_count <= 0:
                for _, _, i in entries:
                    victims[b, i] = True
                victims_scored = entries[:ne]
            else:
                victims_scored = self._two_phase(
                    b, entries, keep_count, sides, level_index, victims
                )
            # _finish_round replay: publish the cutoff, collect this
            # trial's per-level cutoffs for the vectorized EMA below.
            self._cutoff_log[b].append(
                (t, max(entry[0] for entry in victims_scored))
            )
            cut = [0.0] * len(levels)
            for score, _, i in victims_scored:
                j = level_index.get(name_of.get(sides[i], ""))
                if j is not None and score > cut[j]:
                    cut[j] = score
            participants.append(b)
            cutoff_rows.append(cut)
        if participants:
            self._adapt_budgets(participants, cutoff_rows, t)
        return victims

    def _two_phase(
        self,
        b: int,
        entries: list[tuple[float, int, int]],
        keep_count: int,
        sides: list[int],
        level_index: dict[str, int],
        victims: np.ndarray,
    ) -> list[tuple[float, int, int]]:
        """Replay the scalar two-phase keep selection for one trial."""
        name_of = self._level_of_code
        by_level: dict[str, list[tuple[float, int, int]]] = {}
        for entry in entries:
            by_level.setdefault(name_of[sides[entry[2]]], []).append(entry)
        quotas = self._integer_quotas(b, keep_count, by_level, level_index)
        kept: set[int] = set()
        for name, group in by_level.items():
            for entry in group[len(group) - quotas.get(name, 0) :]:
                kept.add(entry[1])
        leftover = keep_count - len(kept)
        if leftover > 0:
            for entry in reversed(entries):
                if leftover == 0:
                    break
                if entry[1] not in kept:
                    kept.add(entry[1])
                    leftover -= 1
        victims_scored = [e for e in entries if e[1] not in kept]
        for _, _, i in victims_scored:
            victims[b, i] = True
        return victims_scored

    def _integer_quotas(
        self,
        b: int,
        keep_count: int,
        by_level: dict[str, list],
        level_index: dict[str, int],
    ) -> dict[str, int]:
        """``TrieCachePolicy._integer_quotas`` over trial ``b``'s shares."""
        present = [name for name in self._levels if name in by_level]
        if not present:
            return {}
        shares_row = self._shares[b]
        share = {name: float(shares_row[level_index[name]]) for name in present}
        total_share = sum(share[name] for name in present)
        raw = {
            name: keep_count * share[name] / total_share for name in present
        }
        quotas = {
            name: min(int(raw[name]), len(by_level[name])) for name in present
        }
        remainder = keep_count - sum(quotas.values())
        order = sorted(
            present, key=lambda n: (-(raw[n] - int(raw[n])), present.index(n))
        )
        while remainder > 0:
            progressed = False
            for name in order:
                if remainder == 0:
                    break
                if quotas[name] < len(by_level[name]):
                    quotas[name] += 1
                    remainder -= 1
                    progressed = True
            if not progressed:
                break
        return quotas

    def _adapt_budgets(
        self,
        participants: list[int],
        cutoff_rows: list[list[float]],
        t: int,
    ) -> None:
        """``TrieCachePolicy._finish_round``'s EMA over participating rows.

        The EMA is elementwise, so vectorizing over the ``(rows,
        levels)`` block is bit-exact; totals and norms accumulate
        columns left to right, matching Python's ``sum`` over the
        scalar dict values in level order.
        """
        beta = self._beta
        n_levels = len(self._levels)
        rows = np.asarray(participants)
        cuts = np.asarray(cutoff_rows)
        block = self._pressure[rows]
        block = (1.0 - beta) * block + beta * cuts
        self._pressure[rows] = block
        total = np.zeros(rows.size)
        for j in range(n_levels):
            total = total + block[:, j]
        update = total > 0.0
        if update.any():
            floor = self._min_share / n_levels
            up_rows = rows[update]
            shares = np.maximum(block[update] / total[update][:, None], floor)
            norm = np.zeros(up_rows.size)
            for j in range(n_levels):
                norm = norm + shares[:, j]
            self._shares[up_rows] = shares / norm[:, None]
        for b in participants:
            for j, name in enumerate(self._levels):
                self._budget_logs[name][b].append(
                    (t, float(self._shares[b, j]))
                )


class BatchTrie(BatchPolicy):
    """Trie caching on the binary problems, replayed trial by trial.

    Requires every model the scalar policy would consult (the reference
    model for ``kind="cache"``, both stream models for ``kind="join"``)
    to be present and independent, so node scores are shared across
    trials: each distinct ``(side, value)`` node calls the identical
    scalar benefit function (:func:`~repro.core.heeb.heeb_cache` /
    :func:`~repro.core.heeb.heeb_join`) exactly once per memo epoch.
    The window, when set, never enters the scalar policy's scoring —
    expiry is simulator-level — so windowed runs batch unchanged.
    """

    name = "TRIE"
    scored = False

    def __init__(
        self,
        policy: TrieCachePolicy,
        kind: str,
        r_model: StreamModel,
        s_model: Optional[StreamModel],
    ):
        estimator = policy.estimator
        horizon = policy.horizon
        if kind == "cache":
            levels: tuple[str, ...] = ("R",)
            consulted: tuple[StreamModel, ...] = (r_model,)

            def score_of(code: int, value: int, t: int) -> float:
                return heeb_cache(r_model, t, value, estimator, horizon)

        else:
            assert s_model is not None
            levels = ("R", "S")
            consulted = (r_model, s_model)
            partner_model = {R_CODE: s_model, S_CODE: r_model}

            def score_of(code: int, value: int, t: int) -> float:
                # _join_benefit's single-partner sum: 0.0 + H == H.
                return heeb_join(partner_model[code], t, value, estimator, horizon)

        persistent = all(isinstance(m, StationaryStream) for m in consulted)
        self._core = _TrieReplayCore(
            levels,
            {R_CODE: "R", S_CODE: "S"},
            score_of,
            policy.beta,
            policy.min_share,
            persistent,
        )

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._core.reset(n_trials)

    def select(self, state, n_evict, t: int) -> np.ndarray:
        return self._core.select(state, n_evict, t)

    def series_logs(self) -> dict[str, list[list[tuple[int, float]]]]:
        return self._core.series_logs()


# ----------------------------------------------------------------------
# FlowExpect
# ----------------------------------------------------------------------
class BatchFlowExpect(BatchPolicy):
    """FlowExpect replayed per trial over shared templates and ProbTables.

    Each eviction round mirrors
    :meth:`~repro.flow.fastpath.FlowExpectFastPath.decide` per trial —
    the same integer cost rounding, the same uid-rank perturbation, one
    :func:`~repro.flow.fastpath.solve_unit_flow` call — while sharing all
    trial-independent work across the batch:

    * one :class:`~repro.flow.prob_table.ProbTable` answers every
      probability query (independent models never rebind their anchors,
      so memoized entries stay valid for the whole run and across
      trials);
    * the :class:`~repro.flow.fastpath.LookaheadTemplate` cache is keyed
      by candidate count, and per step each distinct count also shares
      its base cost vector — the undetermined-arrival arcs and the
      uid-rank perturbation (alive slots hold strictly ascending uids,
      making the scalar rank permutation the identity) — leaving only
      the determined first-slice arcs to fill per trial.

    The per-trial solver calls remain the dominant cost, which is why
    this adapter's batch speedup is modest compared to the scored
    adapters (see ``docs/PERFORMANCE.md``).

    ``counter_totals`` mirrors the scalar ``flow.solves`` /
    ``flow.solver_iterations`` counters; wall-clock series
    (``flow.solve_ms``, ``prob_table.hit_rate``) and the memo tallies
    are scalar-only — sharing the table across trials changes hit/miss
    counts without changing any decision.
    """

    name = "FLOWEXPECT"
    scored = False

    def __init__(
        self,
        policy: FlowExpectPolicy,
        r_model: StreamModel,
        s_model: StreamModel,
        cache_size: int,
    ):
        self.lookahead = policy.lookahead
        self._cache_size = int(cache_size)
        self._table = ProbTable(r_model, s_model)
        self._templates: dict[tuple[int, int], LookaheadTemplate] = {}
        self._solves = 0
        self._iterations = 0

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._solves = 0
        self._iterations = 0

    def counter_totals(self) -> dict[str, int]:
        return {
            "flow.solves": self._solves,
            "flow.solver_iterations": self._iterations,
        }

    def _base_costs(
        self, n: int, t: int
    ) -> tuple[LookaheadTemplate, list[int]]:
        """Template + trial-independent cost vector for ``n`` candidates."""
        template = self._templates.get((n, self.lookahead))
        if template is None:
            template = LookaheadTemplate(n, self.lookahead)
            self._templates[(n, self.lookahead)] = template
        table = self._table
        born = template.born
        base = [0] * len(template.tails)
        for a, e, dt in template.costed:
            if e >= n:
                w = -table.expected_match(
                    "RS"[(e - n) % 2], t + born[e], t + dt
                )
                base[a] = int(round(w * COST_SCALE)) << n
        for rank, arc in enumerate(template.src_arcs):
            base[arc] += 1 << rank
        return template, base

    def select(self, state, n_evict, t: int) -> np.ndarray:
        victims = np.zeros(state.alive.shape, dtype=bool)
        rows = np.flatnonzero(n_evict > 0).tolist()
        if not rows:
            return victims
        counts = state.alive.sum(axis=1)
        table = self._table
        base_cache: dict[int, tuple[LookaheadTemplate, list[int]]] = {}
        for b in rows:
            n = int(counts[b])
            if n == 0:
                continue
            entry = base_cache.get(n)
            if entry is None:
                entry = self._base_costs(n, t)
                base_cache[n] = entry
            template, base = entry
            cost = list(base)
            vals = state.val[b, :n].tolist()
            sides = state.side[b, :n].tolist()
            for a, e, dt in template.costed:
                if e < n:
                    pside = "S" if sides[e] == R_CODE else "R"
                    w = -table.prob(pside, t + dt, vals[e])
                    cost[a] = int(round(w * COST_SCALE)) << n
            amount = min(self._cache_size, n)
            used = solve_unit_flow(template, cost, amount)
            self._solves += 1
            self._iterations += amount
            for p in range(n):
                if not used[template.src_arcs[p]]:
                    victims[b, p] = True
        return victims


# ----------------------------------------------------------------------
# Multi-join adapters
# ----------------------------------------------------------------------
class BatchMultiPolicy(BatchPolicy):
    """One replacement policy vectorized over an n-way join topology.

    Multi-join state arrays use *stream codes* — the index of the stream
    name in the run's arrival order — as ``side`` values, so the adapter
    must learn the code assignment before the run starts: the simulator
    calls :meth:`bind` with the stream names and the partner map, then
    :meth:`reset` as usual.  ``begin_step`` receives one ``(B,)`` value
    column per stream, indexed by code, instead of the binary R/S pair.
    """

    def bind(self, names, partner_names) -> None:
        """Learn the name → code assignment of this run (before reset)."""

    def begin_step(self, state, t: int, vals) -> None:  # type: ignore[override]
        """Observe this step's arrivals: ``vals[code]`` is ``(B,)`` int64."""


class BatchMultiRand(BatchMultiPolicy):
    """RAND on an n-way topology: per-trial generators, scalar call trace.

    The scalar policy draws ``rng.choice`` over the candidates in
    cache-insertion order; the row-prefix layout preserves that order, so
    delegating to :class:`BatchRand`'s oracle-free select replays the
    exact draws.
    """

    name = "RAND"
    scored = False

    def __init__(self, seed: int):
        self._inner = BatchRand(seed)

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._inner.reset(n_trials, n_slots)

    def select(self, state, n_evict, t: int) -> np.ndarray:
        return self._inner.select(state, n_evict, t)


class BatchMultiLru(BatchMultiPolicy):
    """LRU on an n-way topology: the binary stamp logic, name-agnostic."""

    name = "LRU"

    def __init__(self) -> None:
        self._inner = BatchLru()

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._inner.reset(n_trials, n_slots)

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        return self._inner.aux_arrays()

    def on_reference(self, state, mask, t: int) -> None:
        self._inner.on_reference(state, mask, t)

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        self._inner.on_admit(state, rows, cols, side_code, values, t)

    def scores(self, state, t: int) -> np.ndarray:
        return self._inner.scores(state, t)


class BatchMultiProb(BatchMultiPolicy):
    """PROB / LFU over many streams: per-partner frequency summation.

    A tuple's frequency sums its value's observed count over *every*
    partner stream (the scalar policy's n-way rule).  Cached slots carry
    that sum as per-slot state updated by array comparisons against each
    step's arrivals; one dictionary update per trial per arriving stream
    (the global value counters, needed to initialize newly admitted
    tuples) remains Python-level, exactly like the binary adapter.
    """

    name = "PROB"

    def __init__(self) -> None:
        self._freq = np.zeros((0, 0), dtype=np.int64)
        self._adj = np.zeros((0, 0), dtype=bool)
        self._tracked: list[int] = []
        self._partners_by_code: dict[int, list[int]] = {}
        self._counts: dict[int, list[dict]] = {}

    def bind(self, names, partner_names) -> None:
        idx = {name: i for i, name in enumerate(names)}
        n = len(names)
        # adj[cached_code, arriving_code]: does the arrival probe the slot?
        self._adj = np.zeros((n, n), dtype=bool)
        for name, partners in partner_names.items():
            for p in partners:
                self._adj[idx[name], idx[p]] = True
        self._tracked = [idx[name] for name in names if name in partner_names]
        self._partners_by_code = {
            idx[name]: [idx[p] for p in partners]
            for name, partners in partner_names.items()
        }

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._freq = np.zeros((n_trials, n_slots), dtype=np.int64)
        self._counts = {
            code: [dict() for _ in range(n_trials)] for code in self._tracked
        }

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._freq,)

    def begin_step(self, state, t: int, vals) -> None:
        for code in self._tracked:
            counts = self._counts[code]
            for b, v in enumerate(vals[code].tolist()):
                if v != NONE_VALUE:
                    counts[b][v] = counts[b].get(v, 0) + 1
        for code in self._tracked:
            v = vals[code]
            has = v != NONE_VALUE
            if not has.any():
                continue
            safe = np.where(has, v, 0)
            # Dead slots' garbage side codes may index anywhere in the
            # adjacency column; the alive mask discards those lookups.
            partnered = self._adj[:, code][state.side]
            self._freq += (
                state.alive
                & partnered
                & has[:, None]
                & (state.val == safe[:, None])
            )

    def on_admit(self, state, rows, cols, side_code: int, values, t: int) -> None:
        partners = self._partners_by_code[side_code]
        counts = self._counts
        self._freq[rows, cols] = [
            sum(counts[p][b].get(v, 0) for p in partners)
            for b, v in zip(rows.tolist(), values.tolist())
        ]

    def scores(self, state, t: int) -> np.ndarray:
        return self._freq.astype(np.float64)


class BatchMultiStationaryHeeb(BatchMultiPolicy):
    """Generic joining HEEB on n-way topologies of stationary streams.

    Appendix C sums the binary benefit over every partner stream; for
    i.i.d. partners each term depends on the candidate's value only, so
    one dense per-stream table (the scalar ``heeb_join`` summed over the
    partners in partner order — identical floats for every query time)
    turns scoring into an array lookup per stream code.
    """

    name = "HEEB"

    def __init__(self, strategy: GenericJoinHeeb, models, partner_names):
        self._tables: dict[str, tuple[int, np.ndarray]] = {}
        for name, partners in partner_names.items():
            lo = min(models[p].dist.min_value for p in partners)
            hi = max(models[p].dist.max_value for p in partners)
            values = []
            for v in range(lo, hi + 1):
                total = 0.0
                for p in partners:
                    total += heeb_join(
                        models[p], 0, v, strategy.estimator, strategy.horizon
                    )
                values.append(total)
            self._tables[name] = (lo, np.array(values))
        self._by_code: list[Optional[tuple[int, np.ndarray]]] = []

    def bind(self, names, partner_names) -> None:
        # Streams outside every query are never cached, hence never scored.
        self._by_code = [self._tables.get(name) for name in names]

    def scores(self, state, t: int) -> np.ndarray:
        out = np.zeros(state.val.shape)
        for code, entry in enumerate(self._by_code):
            if entry is None:
                continue
            mask = state.side == code
            if not mask.any():
                continue
            lo, tab = entry
            out = np.where(mask, _dense_lookup(tab, lo, state.val), out)
        return out


class BatchMultiTrie(BatchMultiPolicy):
    """Trie caching on n-way topologies: the binary replay, per-stream levels.

    The scalar policy derives its trie levels from the run's partner map
    (one level per query stream), so the adapter builds its
    :class:`_TrieReplayCore` in :meth:`bind` — the simulator binds before
    resetting.  Node benefits sum :func:`~repro.core.heeb.heeb_join`
    over the cached stream's partners in partner order, shared across
    trials through the core's memo; requires every partner model to be
    present and independent.
    """

    name = "TRIE"
    scored = False

    def __init__(self, policy: TrieCachePolicy, models):
        self._policy = policy
        self._models = models
        self._core: Optional[_TrieReplayCore] = None

    def bind(self, names, partner_names) -> None:
        models = self._models
        policy = self._policy
        estimator = policy.estimator
        horizon = policy.horizon
        names = list(names)
        partner_lists = {
            name: tuple(partners) for name, partners in partner_names.items()
        }

        def score_of(code: int, value: int, t: int) -> float:
            total = 0.0
            for p in partner_lists[names[code]]:
                total += heeb_join(models[p], t, value, estimator, horizon)
            return total

        consulted = {p for partners in partner_lists.values() for p in partners}
        persistent = all(
            isinstance(models[p], StationaryStream) for p in consulted
        )
        self._core = _TrieReplayCore(
            tuple(partner_names),
            {code: name for code, name in enumerate(names)},
            score_of,
            policy.beta,
            policy.min_share,
            persistent,
        )

    def reset(self, n_trials: int, n_slots: int) -> None:
        assert self._core is not None, "bind() must precede reset()"
        self._core.reset(n_trials)

    def select(self, state, n_evict, t: int) -> np.ndarray:
        assert self._core is not None
        return self._core.select(state, n_evict, t)

    def series_logs(self) -> dict[str, list[list[tuple[int, float]]]]:
        assert self._core is not None
        return self._core.series_logs()


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _batch_heeb(
    policy: HeebPolicy,
    kind: str,
    r_model: Optional[StreamModel],
    s_model: Optional[StreamModel],
    window: Optional[int],
) -> BatchPolicy:
    strategy = policy.strategy
    if isinstance(strategy, TrendJoinHeeb):
        if (
            kind == "join"
            and isinstance(r_model, LinearTrendStream)
            and isinstance(s_model, LinearTrendStream)
        ):
            if window is not None:
                # The windowed branch of the scalar h_value applies at
                # every speed; the memo-gather replay covers it whole.
                return BatchWindowedTrendJoinHeeb(
                    strategy, r_model, s_model, window
                )
            if r_model.speed == 1.0 and s_model.speed == 1.0:
                return BatchTrendJoinHeeb(strategy, r_model, s_model)
    elif isinstance(strategy, WalkJoinHeeb):
        # Walk/AR1/band scoring never consults the window (expiry is
        # simulator-level), so these adapters hold windowed or not.
        if (
            kind == "join"
            and isinstance(r_model, RandomWalkStream)
            and isinstance(s_model, RandomWalkStream)
        ):
            return BatchWalkJoinHeeb(strategy, r_model, s_model)
    elif isinstance(strategy, WalkCacheHeeb):
        if kind == "cache":
            return BatchWalkCacheHeeb(strategy)
    elif isinstance(strategy, AR1CacheHeeb):
        if kind == "cache":
            return BatchSurfaceHeeb(strategy.surface, strategy.model, "cache")
    elif isinstance(strategy, AR1JoinHeeb):
        if kind == "join":
            return BatchSurfaceHeeb(strategy.surface, strategy.model, "join")
    elif isinstance(strategy, BandJoinHeeb):
        if (
            kind == "join"
            and isinstance(r_model, StationaryStream)
            and isinstance(s_model, StationaryStream)
        ):
            return BatchBandJoinHeeb(strategy, r_model, s_model)
    elif isinstance(strategy, GenericJoinHeeb):
        if (
            kind == "join"
            and isinstance(r_model, StationaryStream)
            and isinstance(s_model, StationaryStream)
        ):
            if window is not None:
                if not isinstance(strategy.estimator, LExp):
                    raise _unbatchable(
                        policy.name,
                        "its windowed form clips L per tuple, which "
                        "requires an LExp base estimator",
                    )
                return BatchWindowedStationaryJoinHeeb(
                    strategy, r_model, s_model, window
                )
            return BatchStationaryJoinHeeb(strategy, r_model, s_model)
    raise _unbatchable(
        policy.name,
        f"HEEB strategy {type(strategy).__name__} has no exact replay "
        f"on this stream configuration",
    )


def _batch_trie(
    policy: TrieCachePolicy,
    kind: str,
    r_model: Optional[StreamModel],
    s_model: Optional[StreamModel],
) -> BatchPolicy:
    """Exact trie dispatch: require every consulted model, independent."""
    consulted = (r_model,) if kind == "cache" else (r_model, s_model)
    if any(m is None for m in consulted):
        raise _unbatchable(
            policy.name,
            "its frequency fallback folds per-trial stream histories",
        )
    if any(not m.is_independent for m in consulted):  # type: ignore[union-attr]
        raise _unbatchable(
            policy.name,
            "history-anchored models condition node benefits on "
            "per-trial observations",
        )
    return BatchTrie(policy, kind, r_model, s_model)  # type: ignore[arg-type]


def _batch_flowexpect(
    policy: FlowExpectPolicy,
    kind: str,
    r_model: Optional[StreamModel],
    s_model: Optional[StreamModel],
    cache_size: Optional[int],
) -> BatchPolicy:
    """Exact FlowExpect dispatch: fast path, resolved independent models."""
    if kind != "join":
        raise _unbatchable(
            policy.name, "the lookahead flow network is a joining construct"
        )
    if not policy.fast:
        raise _unbatchable(
            policy.name, "fast=False pins the networkx reference pipeline"
        )
    r = policy.r_model or r_model
    s = policy.s_model or s_model
    if r is None or s is None:
        raise _unbatchable(
            policy.name, "its cost matrix needs both stream models resolved"
        )
    if not (r.is_independent and s.is_independent):
        raise _unbatchable(
            policy.name,
            "Markov models rebind per-trial history anchors every step",
        )
    if cache_size is None:
        raise _unbatchable(
            policy.name, "its flow amount needs the cache size at build time"
        )
    return BatchFlowExpect(policy, r, s, cache_size)


def _check_sketch_free(policy: ReplacementPolicy) -> None:
    """Refuse batch adapters for sketch-frontend configurations.

    The batch adapters are exact-parity replays of the scalar decisions;
    count-min estimates and admission rejections are stateful
    approximations with no decision-identical vectorized counterpart, so
    the engine negotiation must fall back to the scalar loop for them
    (``counts="exact"`` without an admission filter stays batchable and
    seed-for-seed identical).
    """
    if getattr(policy, "admission", None) is not None:
        raise _unbatchable(
            policy.name,
            "the admission filter's doorkeeper/EMA state has no exact "
            "batch replay",
        )
    if isinstance(policy, ProbPolicy) and policy.counts != "exact":
        raise _unbatchable(
            policy.name,
            f"sketch-backed counts ({policy.counts!r}) are approximate; "
            "BatchProb replays exact counts",
        )


def _batch_multi(policy: ReplacementPolicy, models, queries) -> BatchMultiPolicy:
    """Exact multi-join adapter dispatch (see :func:`make_batch_policy`)."""
    from ..sim.step import multi_partner_names

    if not queries:
        raise ValueError("multi_join batch adapters need at least one query")
    partner_names = multi_partner_names(queries)
    if isinstance(policy, RandPolicy):
        return BatchMultiRand(policy.seed)
    if isinstance(policy, LrukPolicy):
        raise _unbatchable(
            policy.name,
            "LRU-k per-value reference histories have no n-way "
            "vectorized replay",
        )
    if isinstance(policy, LruPolicy):
        return BatchMultiLru()
    if isinstance(policy, ProbPolicy):
        # LFU subclasses PROB (identical mechanics, different label).
        adapter = BatchMultiProb()
        adapter.name = policy.name
        return adapter
    if isinstance(policy, TrieCachePolicy):
        consulted: list[str] = []
        for partners in partner_names.values():
            for p in partners:
                if p not in consulted:
                    consulted.append(p)
        if models is None or any(models.get(p) is None for p in consulted):
            raise _unbatchable(
                policy.name,
                "its frequency fallback folds per-trial stream histories",
            )
        if any(not models[p].is_independent for p in consulted):
            raise _unbatchable(
                policy.name,
                "history-anchored models condition node benefits on "
                "per-trial observations",
            )
        return BatchMultiTrie(policy, models)
    if isinstance(policy, HeebPolicy):
        strategy = policy.strategy
        if (
            isinstance(strategy, GenericJoinHeeb)
            and models is not None
            and all(
                isinstance(models.get(name), StationaryStream)
                for name in partner_names
            )
        ):
            return BatchMultiStationaryHeeb(strategy, models, partner_names)
        raise _unbatchable(
            policy.name,
            f"HEEB strategy {type(strategy).__name__} has no n-way replay "
            f"unless every query-stream model is stationary",
        )
    raise _unbatchable(
        policy.name,
        f"no multi-join adapter for policy type {type(policy).__name__}",
    )


def make_batch_policy(
    policy: ReplacementPolicy,
    kind: str = "join",
    r_model: Optional[StreamModel] = None,
    s_model: Optional[StreamModel] = None,
    window: Optional[int] = None,
    window_oracle: Optional[WindowOracle] = None,
    models=None,
    queries=None,
    cache_size: Optional[int] = None,
) -> BatchPolicy:
    """Build the exact batch adapter for a scalar policy instance.

    For ``kind="multi_join"`` the topology is described by ``queries``
    (binary stream-name pairs) and ``models`` (per-stream models for the
    model-aware policies); the returned adapter is a
    :class:`BatchMultiPolicy` that the simulator still has to
    :meth:`~BatchMultiPolicy.bind` to the run's stream order.
    ``cache_size`` is only consulted by the FlowExpect adapter, whose
    flow amount is fixed at build time.

    Raises :class:`UnbatchablePolicyError` when no exact adapter exists;
    callers (the engine negotiation) fall back to the scalar loop.  All
    refusals share the normalized ``<POLICY> has no exact batch adapter
    (<reason>); it runs on the scalar tier`` shape.
    """
    _check_sketch_free(policy)
    if kind == "multi_join":
        return _batch_multi(policy, models, queries)
    if kind not in ("join", "cache"):
        raise ValueError(f"unknown kind {kind!r}")
    if isinstance(policy, RandPolicy):
        return BatchRand(policy.seed, _batch_oracle(window_oracle, policy.name))
    if isinstance(policy, LrukPolicy):
        return BatchLruK(policy.k)
    if isinstance(policy, LruPolicy):
        return BatchLru()
    if isinstance(policy, LifePolicy):
        return BatchLife(kind, _batch_oracle(window_oracle, policy.name))
    if isinstance(policy, ProbPolicy):
        # LFU subclasses PROB (identical mechanics, different label).
        adapter = BatchProb(kind, _batch_oracle(window_oracle, policy.name))
        adapter.name = policy.name
        return adapter
    if isinstance(policy, TrieCachePolicy):
        return _batch_trie(policy, kind, r_model, s_model)
    if isinstance(policy, FlowExpectPolicy):
        return _batch_flowexpect(policy, kind, r_model, s_model, cache_size)
    if isinstance(policy, HeebPolicy):
        return _batch_heeb(policy, kind, r_model, s_model, window)
    raise _unbatchable(
        policy.name,
        f"no adapter for policy type {type(policy).__name__}",
    )
