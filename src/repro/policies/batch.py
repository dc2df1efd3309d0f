"""Batch-aware replacement-policy adapters for the vectorized engine.

The batch simulators in :mod:`repro.sim.batch` run ``B`` independent
Monte-Carlo trials simultaneously over ``(B, slots)`` state arrays.  Each
adapter here mirrors one scalar policy *exactly*: for the same per-trial
seeds the batch engine's eviction decisions are identical to the scalar
:class:`~repro.sim.join_sim.JoinSimulator`,
:class:`~repro.sim.cache_sim.CacheSimulator` and
:class:`~repro.sim.multi_join.MultiJoinSimulator` runs, which the
equivalence suites (``tests/test_batch_equivalence.py``,
``tests/test_multi_batch_equivalence.py``) assert tuple-for-tuple.

There is one adapter per policy for every problem kind.  Like the
scalar policy layer (Appendix C), adapters see a *topology*: the run's
stream names, whose index is the ``side`` code of a cached tuple, and
the partner map naming the streams each side joins against.  The
simulators :meth:`~BatchPolicy.bind` it before every run: the binary
join is streams ``R``/``S`` partnered with each other, caching is the
Theorem 1 reduction (cached database tuples, side ``S``, partnered with
the reference stream ``R``), and the n-way join is the query graph.

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
  per-slot (LRU-k's reference histories, windowed generic HEEB's
  per-tuple window clips, TrieCachePolicy's shared node scores and EMA
  budgets, FlowExpect's benefit rows) are replayed through
  *memo-gather* adapters: each distinct key calls the identical scalar
  function once and the result is scattered across all trials, so the
  per-trial decisions stay bit-identical while the expensive math is
  shared ``B``-fold (windowed generic HEEB and non-unit trend speeds
  gather from the strategy's own ``windowed_h``, whose memo both tiers
  share; FlowExpect still solves one leave-slot assignment per trial);
* windowed HEEB on unit-speed trends needs no per-key calls: the
  strategy's offset × clipped-horizon table holds every score the run
  can need, so :class:`BatchTrendJoinHeeb` fills a step's missing cells
  and gathers each side's slots with one fancy index.

A few configurations remain scalar-only and raise
:class:`UnbatchablePolicyError` from :func:`make_batch_policy` (OPT
offline schedules, sketch-backed counts, admission filters,
history-anchored models under the trie/FlowExpect adapters, and the
per-kind gaps: LRU-k, LIFE, FlowExpect and non-stationary HEEB on
n-way joins); the runner then falls back to the scalar loop, so mixing
batchable and unbatchable policies in one experiment is seamless.  The
coverage matrix in ``docs/PERFORMANCE.md`` documents exactly which
policy × problem-kind pairs dispatch where, and
``tests/test_docs_consistency`` asserts it against this module's
dispatch.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Optional

import numpy as np

from ..core.heeb import heeb_cache, heeb_join, heeb_join_band
from ..core.lifetime import LExp
from ..core.precompute import H1Table, H2Surface
from ..flow.fastpath import solve_leave_slots
from ..flow.prob_table import ProbTable
from ..streams.ar1 import AR1Stream
from ..streams.base import StreamModel
from ..streams.linear_trend import LinearTrendStream
from ..streams.random_walk import RandomWalkStream
from ..streams.stationary import StationaryStream
from .base import ReplacementPolicy, WindowOracle, binary_topology
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
    "BatchWindowedJoinHeeb",
    "BatchBandJoinHeeb",
    "BatchSurfaceHeeb",
    "BatchTrendOracle",
    "BatchTrie",
    "BatchFlowExpect",
    "binary_topology",
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

    #: Scored adapters return a ``(B, slots)`` score array — the
    #: bit-identical floats the scalar policy computes — and let the
    #: engine pick the ``n_evict`` lowest (score, uid) slots per trial
    #: and mirror the scalar ``scores.cutoff`` series.  Non-scored
    #: adapters implement :meth:`select` directly.
    scored: bool = True

    def bind(self, names, partner_names) -> None:
        """Learn the run's topology (called before :meth:`reset`).

        ``names`` lists the streams in arrival order — a stream's index
        is the ``side`` code of its cached tuples — and
        ``partner_names`` maps each cacheable stream to the streams its
        tuples join against (see :func:`binary_topology`).
        """

    def reset(self, n_trials: int, n_slots: int) -> None:
        """Allocate per-run state before a batch run starts."""

    def aux_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-slot arrays the engine must permute on cache compaction."""
        return ()

    def begin_step(self, state, t: int, vals) -> None:
        """Observe this step's arrivals (all trials), before any probing.

        ``vals[code]`` is that stream's ``(B,)`` int64 column, using
        :data:`NONE_VALUE` for "−" (the cached S side of the caching
        problem never arrives, so its column is all "−").
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

    def begin_step(self, state, t: int, vals) -> None:
        # LRU-k histories track the *reference* stream R only (both join
        # sides share the value-keyed dict), mirroring LrukPolicy._sync.
        r_vals = vals[R_CODE]
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

    A tuple's frequency sums its value's observed count over every
    partner stream of its side — the scalar n-way rule; the binary join
    has one partner per side, and cached tuples count the reference
    stream R.  Cached slots carry that sum as per-slot state updated by
    array comparisons against each step's arrivals; only one dictionary
    update per trial per partner stream (the global value counters,
    needed to initialize newly admitted tuples) remains Python-level, so
    the scoring path is entirely vectorized.
    """

    name = "PROB"

    def __init__(self, oracle: Optional[BatchTrendOracle] = None):
        self._oracle = oracle
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
        # Only streams some side joins against need value counters.
        self._tracked = [code for code in range(n) if self._adj[:, code].any()]
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
            for counts, v in zip(self._counts[code], vals[code].tolist()):
                if v != NONE_VALUE:
                    counts[v] = counts.get(v, 0) + 1
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
        trials, vals = rows.tolist(), values.tolist()
        freq = [0] * len(trials)
        for p in self._partners_by_code[side_code]:
            counts = self._counts[p]
            freq = [f + counts[b].get(v, 0) for f, b, v in zip(freq, trials, vals)]
        self._freq[rows, cols] = freq

    def scores(self, state, t: int) -> np.ndarray:
        sc = self._freq.astype(np.float64)
        if self._oracle is not None:
            sc = np.where(self._oracle.dead(state, t), sc - _DEAD_PENALTY, sc)
        return sc


class BatchLife(BatchProb):
    """LIFE: match-probability estimate × oracle remaining lifetime."""

    name = "LIFE"

    def __init__(self, oracle: Optional[BatchTrendOracle]):
        if oracle is None:
            raise _unbatchable(
                "LIFE",
                "it requires a window oracle to determine tuple lifetimes",
            )
        super().__init__(oracle)
        self._life = oracle

    def scores(self, state, t: int) -> np.ndarray:
        life = self._life.remaining_life(state, t)
        freq = self._freq.astype(np.float64)
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

    Unwindowed, it reads the exact per-offset tables the scalar
    :class:`~repro.policies.heeb_policy.TrendJoinHeeb` builds, densified
    into arrays.  Windowed (Section 7), each slot's score is one cell of
    the strategy's offset × clipped-horizon table: per step and side,
    :meth:`~repro.policies.heeb_policy.TrendJoinHeeb.windowed_many`
    fills the missing cells and gathers the alive slots with one fancy
    index.  Either way batch and scalar scores are bit-identical.
    """

    name = "HEEB"

    def __init__(
        self,
        strategy: TrendJoinHeeb,
        r_model: LinearTrendStream,
        s_model: LinearTrendStream,
        window: Optional[int] = None,
    ):
        self._strategy = strategy
        self._r_model = r_model
        self._s_model = s_model
        self._window = window
        if window is None:
            # Keys mirror the scalar policy's cache: the table for side-X
            # tuples is built from the partner stream of X.
            self._lo_for_r, self._tab_for_r = strategy.table_array(
                s_model, "partner-of-R"
            )
            self._lo_for_s, self._tab_for_s = strategy.table_array(
                r_model, "partner-of-S"
            )

    def scores(self, state, t: int) -> np.ndarray:
        if self._window is not None:
            return self._windowed_scores(state, t, self._window)
        d_r = state.val - self._s_model.trend(t)
        d_s = state.val - self._r_model.trend(t)
        sc_r = _dense_lookup(self._tab_for_r, self._lo_for_r, d_r)
        sc_s = _dense_lookup(self._tab_for_s, self._lo_for_s, d_s)
        return np.where(state.side == R_CODE, sc_r, sc_s)

    def _windowed_scores(self, state, t: int, window: int) -> np.ndarray:
        out = np.zeros(state.val.shape)
        remaining = np.maximum(state.arr + (window - t), 0)
        r_side = state.side == R_CODE
        for mask, partner in (
            (state.alive & r_side, self._s_model),
            (state.alive & ~r_side, self._r_model),
        ):
            if mask.any():
                out[mask] = self._strategy.windowed_many(
                    partner, state.val[mask], remaining[mask], t
                )
        return out


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
        last_r, last_s = state.last[R_CODE], state.last[S_CODE]
        no_s = last_s == NONE_VALUE
        no_r = last_r == NONE_VALUE
        anchor_s = np.where(no_s, 0, last_s)
        anchor_r = np.where(no_r, 0, last_r)
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
        last_r = state.last[R_CODE]
        no_r = last_r == NONE_VALUE
        anchor = np.where(no_r, 0, last_r)
        return np.where(
            no_r[:, None], 0.0, self._table.lookup(state.val - anchor[:, None])
        )


class BatchStationaryJoinHeeb(BatchPolicy):
    """Generic joining HEEB specialized to stationary partners.

    Appendix C sums the binary benefit over every partner stream (the
    binary join is the one-partner case).  For i.i.d. streams each term
    depends on the candidate's value only, so one dense table per
    stream — the scalar ``heeb_join`` summed over its partners in
    partner order, identical floats for every query time — turns
    scoring into an array lookup per stream code.
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


class BatchWindowedJoinHeeb(BatchPolicy):
    """Windowed joining HEEB (Section 7), gathered from the strategy.

    Serves windowed generic HEEB (binary or n-way) and trend HEEB at
    non-unit speeds; unit-speed trends read their dense table through
    :class:`BatchTrendJoinHeeb` instead.

    The window clips each tuple's survival estimate at its own expiry,
    so scores depend on the per-tuple *remaining* window —
    ``max(0, arrival + window − t)``, at most ``window + 1`` distinct
    values — rather than the value alone.  The adapter vectorizes the
    remaining-window arithmetic, extracts the distinct ``(side, value,
    remaining)`` keys over all alive slots with ``np.unique``, sums the
    strategy's ``windowed_h`` over the side's partners (in partner
    order, from ``0.0``, as the scalar ``h_value`` does; one term on a
    binary join) once per key and scatters the scores back into the
    ``(B, slots)`` array.  ``windowed_h`` (trend or generic) owns the
    score memo, so batch scores (and the ``scores.cutoff`` series) are
    the scalar floats.
    """

    name = "HEEB"

    def __init__(
        self, strategy: TrendJoinHeeb | GenericJoinHeeb, models, window
    ):
        self._strategy = strategy
        self._models = models
        self._window = int(window)
        self._partners: list[tuple[StreamModel, ...]] = []

    def bind(self, names, partner_names) -> None:
        self._partners = [
            tuple(self._models[p] for p in partner_names.get(name, ()))
            for name in names
        ]

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
        windowed_h = self._strategy.windowed_h
        partners = self._partners
        scores = []
        for side, value, rem in uniq.tolist():
            total = 0.0
            for partner in partners[side]:
                total += windowed_h(partner, value, rem, t)
            scores.append(total)
        out[alive] = np.array(scores)[inverse]
        return out


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
    (:meth:`~repro.core.precompute.H2Surface.evaluate_many`), the same
    fitpack routine the scalar strategies call through
    :meth:`~repro.core.precompute.H2Surface.__call__` on the same
    latent anchors, so batch and scalar scores are bit-identical.
    """

    name = "HEEB"

    def __init__(self, surface: H2Surface, model: AR1Stream, kind: str):
        self._surface = surface
        self._model = model
        self._kind = kind

    def scores(self, state, t: int) -> np.ndarray:
        # Each slot's anchor is its partner's latest observation: R for
        # cached tuples, the other side of the join otherwise.
        anchor = state.last[R_CODE][:, None]
        if self._kind == "join":
            anchor = np.where(
                state.side == R_CODE, state.last[S_CODE][:, None], anchor
            )
        anchor = np.broadcast_to(anchor, state.val.shape)
        no_anchor = anchor == NONE_VALUE
        latent = np.where(no_anchor, 0, anchor) * self._model.bucket
        sc = self._surface.evaluate_many(state.val.astype(np.float64), latent)
        return np.where(no_anchor, 0.0, sc)


# ----------------------------------------------------------------------
# Trie caching
# ----------------------------------------------------------------------
class BatchTrie(BatchPolicy):
    """Trie caching on any topology, replayed trial by trial.

    :class:`~repro.policies.trie.TrieCachePolicy` is stateful in two
    coupled ways — shared per-``(stream, value)`` node scores and the EMA
    budget shares its two-phase selection consults — so the batch replay
    splits the work accordingly:

    * node scores go through one *shared* memo: each distinct ``(side,
      value)`` node calls the identical scalar benefit function exactly
      once per memo epoch — :func:`~repro.core.heeb.heeb_cache` for the
      caching problem, :func:`~repro.core.heeb.heeb_join` summed over
      the side's partners otherwise — and the memo persists across
      steps when every consulted model is stationary, clearing per step
      otherwise;
    * the selection phases (score-sort, per-level quotas via
      largest-remainder rounding, global fill) are replayed per trial in
      plain Python over that trial's shares row — the same float
      expressions in the same order as the scalar policy;
    * the budget update is vectorized over the participating trials:
      the EMA is elementwise (bit-exact per element) and the share
      totals/norms accumulate columns left to right, matching Python's
      ``sum`` over the scalar policy's dicts.

    Like the scalar policy, the levels are the topology's query streams,
    except for caching, which keeps the single ``"R"`` level.  Requires
    every consulted model to be present and independent.  The window,
    when set, never enters the scalar policy's scoring — expiry is
    simulator-level — so windowed runs batch unchanged.  Cutoff and
    per-level budget series are accumulated per trial and handed to the
    engine through ``series_logs`` so recorded runs see the scalar
    emission order.
    """

    name = "TRIE"
    scored = False

    def __init__(self, policy: TrieCachePolicy, kind: str, models):
        self._estimator = policy.estimator
        self._horizon = policy.horizon
        self._beta = policy.beta
        self._min_share = policy.min_share
        self._cache = kind == "cache"
        self._models = models
        self._levels: tuple[str, ...] = ()
        self._level_of_code: dict[int, str] = {}
        self._partners_of: list[tuple[str, ...]] = []
        self._persistent = False
        self._memo: dict[tuple[int, int], float] = {}
        self._pressure = np.zeros((0, 0))
        self._shares = np.zeros((0, 0))
        self._cutoff_log: list[list[tuple[int, float]]] = []
        self._budget_logs: dict[str, list[list[tuple[int, float]]]] = {}

    def bind(self, names, partner_names) -> None:
        self._levels = ("R",) if self._cache else tuple(partner_names)
        self._level_of_code = dict(enumerate(names))
        self._partners_of = [tuple(partner_names.get(name, ())) for name in names]
        consulted = {p for partners in partner_names.values() for p in partners}
        self._persistent = all(
            isinstance(self._models[p], StationaryStream) for p in consulted
        )

    def _node_score(self, code: int, value: int, t: int) -> float:
        """The scalar node benefit of a ``(side, value)`` trie node."""
        if self._cache:
            return heeb_cache(
                self._models["R"], t, value, self._estimator, self._horizon
            )
        # _join_benefit's partner sum (0.0 + H == H for one partner).
        total = 0.0
        for p in self._partners_of[code]:
            total += heeb_join(
                self._models[p], t, value, self._estimator, self._horizon
            )
        return total

    def reset(self, n_trials: int, n_slots: int) -> None:
        n_levels = len(self._levels)
        self._pressure = np.zeros((n_trials, n_levels))
        self._shares = np.full((n_trials, n_levels), 1.0 / n_levels)
        self._memo = {}
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
        if not self._persistent:
            # The engine selects at most once per step: a fresh memo here
            # is the per-step epoch of time-dependent node scores.
            self._memo = {}
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
                    score = self._node_score(sides[i], vals[i], t)
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


# ----------------------------------------------------------------------
# FlowExpect
# ----------------------------------------------------------------------
class BatchFlowExpect(BatchPolicy):
    """FlowExpect replayed per trial over one shared ProbTable.

    Each eviction round mirrors
    :meth:`~repro.flow.fastpath.FlowExpectFastPath.decide` per trial —
    the same benefit rows, the same uid-rank tie-break, one
    :func:`~repro.flow.fastpath.solve_leave_slots` call — while sharing
    all trial-independent work across the batch:

    * one :class:`~repro.flow.prob_table.ProbTable` answers every
      probability and row query (independent models never rebind their
      anchors, so memoized entries stay valid for the whole run and
      across trials);
    * per step, every trial shares the step's frame key
      (:meth:`~repro.flow.prob_table.ProbTable.step`) and the
      undetermined arrivals' benefit rows, and alive slots hold strictly
      ascending uids, making the scalar rank permutation the identity —
      leaving only the candidates' row lookups per trial.

    ``counter_totals`` mirrors the scalar ``flow.solves`` /
    ``flow.solver_iterations`` / ``flow.fallback_solves`` counters;
    wall-clock series (``flow.solve_ms``, ``prob_table.hit_rate``) and
    the memo tallies are scalar-only — sharing the table across trials
    changes hit/miss counts without changing any decision.
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
        self._solves = 0
        self._iterations = 0
        self._fallbacks = 0

    def reset(self, n_trials: int, n_slots: int) -> None:
        self._solves = 0
        self._iterations = 0
        self._fallbacks = 0

    def counter_totals(self) -> dict[str, int]:
        return {
            "flow.solves": self._solves,
            "flow.solver_iterations": self._iterations,
            "flow.fallback_solves": self._fallbacks,
        }

    def select(self, state, n_evict, t: int) -> np.ndarray:
        victims = np.zeros(state.alive.shape, dtype=bool)
        rows = np.flatnonzero(n_evict > 0).tolist()
        if not rows:
            return victims
        counts = state.alive.sum(axis=1)
        look = self.lookahead
        table = self._table
        step = table.step(t, look)
        row = table.candidate_row
        newborn = table.newborn_rows(step)
        for b in rows:
            n = int(counts[b])
            if n == 0:
                continue
            benefit = [
                row(step, "S" if code == R_CODE else "R", value)
                for code, value in zip(
                    state.side[b, :n].tolist(), state.val[b, :n].tolist()
                )
            ]
            benefit += newborn
            amount = min(self._cache_size, n)
            sol = solve_leave_slots(benefit, look, amount, range(n))
            self._solves += 1
            self._iterations += amount
            self._fallbacks += sol.fallback
            victims[b, :n] = np.logical_not(sol.kept)
        return victims


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _batch_windowed(
    policy: HeebPolicy, strategy: GenericJoinHeeb, models, window: int
) -> BatchPolicy:
    """Windowed generic HEEB: the per-tuple clip needs an LExp estimator."""
    if not isinstance(strategy.estimator, LExp):
        raise _unbatchable(
            policy.name,
            "its windowed form clips L per tuple, which "
            "requires an LExp base estimator",
        )
    return BatchWindowedJoinHeeb(strategy, models, window)


def _batch_heeb(
    policy: HeebPolicy,
    kind: str,
    nway: bool,
    models,
    partner_names,
    window: Optional[int],
) -> BatchPolicy:
    strategy = policy.strategy
    if nway:
        if isinstance(strategy, GenericJoinHeeb) and all(
            isinstance(models.get(name), StationaryStream)
            for name in partner_names
        ):
            if window is not None:
                return _batch_windowed(policy, strategy, models, window)
            return BatchStationaryJoinHeeb(strategy, models, partner_names)
        raise _unbatchable(
            policy.name,
            f"HEEB strategy {type(strategy).__name__} has no n-way replay "
            f"unless every query-stream model is stationary",
        )
    r_model, s_model = models.get("R"), models.get("S")
    if isinstance(strategy, TrendJoinHeeb):
        if (
            kind == "join"
            and isinstance(r_model, LinearTrendStream)
            and isinstance(s_model, LinearTrendStream)
        ):
            if r_model.speed == 1.0 and s_model.speed == 1.0:
                return BatchTrendJoinHeeb(strategy, r_model, s_model, window)
            if window is not None:
                # The windowed branch of the scalar h_value applies at
                # every speed; the gather replay covers the others.
                return BatchWindowedJoinHeeb(strategy, models, window)
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
                return _batch_windowed(policy, strategy, models, window)
            return BatchStationaryJoinHeeb(strategy, models, partner_names)
    raise _unbatchable(
        policy.name,
        f"HEEB strategy {type(strategy).__name__} has no exact replay "
        f"on this stream configuration",
    )


def _batch_trie(
    policy: TrieCachePolicy, kind: str, models, partner_names
) -> BatchPolicy:
    """Exact trie dispatch: require every consulted model, independent."""
    consulted = {p for partners in partner_names.values() for p in partners}
    if any(models.get(p) is None for p in consulted):
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
    return BatchTrie(policy, kind, models)


def _batch_flowexpect(
    policy: FlowExpectPolicy,
    kind: str,
    models,
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
    r = policy.r_model or models.get("R")
    s = policy.s_model or models.get("S")
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

    ``kind`` is ``"cache"`` or a join: caching takes its reference
    model from ``r_model`` and its topology from :func:`binary_topology`.
    A join's topology is ``queries`` (binary stream-name pairs) and
    ``models`` (per-stream models, whose names give the stream order);
    without ``queries`` it is ``R⋈S`` over ``r_model`` / ``s_model``.
    The adapters that exist only for ``R⋈S`` (LRU-k, LIFE, FlowExpect,
    non-stationary HEEB) dispatch on that topology, however the spec
    spelled it.  Either way the simulator binds the returned adapter to
    the run's stream order before resetting it.
    ``cache_size`` is only consulted by the FlowExpect adapter, whose
    flow amount is fixed at build time.

    Raises :class:`UnbatchablePolicyError` when no exact adapter exists;
    callers (the engine negotiation) fall back to the scalar loop.  All
    refusals share the normalized ``<POLICY> has no exact batch adapter
    (<reason>); it runs on the scalar tier`` shape.
    """
    _check_sketch_free(policy)
    if kind == "cache":
        partner_names = binary_topology(kind)[1]
        models = {"R": r_model, "S": s_model}
        nway = False
    else:
        from ..sim.step import RS_QUERIES, is_rs_join, multi_partner_names

        if queries is None:
            if kind != "join":
                raise ValueError(f"{kind} batch adapters need at least one query")
            queries, models = RS_QUERIES, {"R": r_model, "S": s_model}
        partner_names = multi_partner_names(queries)
        models = dict(models or {})
        nway = not is_rs_join(tuple(models or partner_names), queries)
        kind = "join"  # either spelling: the topology decides from here
    if isinstance(policy, RandPolicy):
        return BatchRand(policy.seed, _batch_oracle(window_oracle, policy.name))
    if isinstance(policy, LrukPolicy):
        if nway:
            raise _unbatchable(
                policy.name,
                "LRU-k per-value reference histories have no n-way "
                "vectorized replay",
            )
        return BatchLruK(policy.k)
    if isinstance(policy, LruPolicy):
        return BatchLru()
    if isinstance(policy, LifePolicy) and not nway:
        return BatchLife(_batch_oracle(window_oracle, policy.name))
    if isinstance(policy, ProbPolicy):
        # LFU subclasses PROB (identical mechanics, different label).
        adapter = BatchProb(_batch_oracle(window_oracle, policy.name))
        adapter.name = policy.name
        return adapter
    if isinstance(policy, TrieCachePolicy):
        return _batch_trie(policy, kind, models, partner_names)
    if isinstance(policy, FlowExpectPolicy) and not nway:
        return _batch_flowexpect(policy, kind, models, cache_size)
    if isinstance(policy, HeebPolicy):
        return _batch_heeb(policy, kind, nway, models, partner_names, window)
    raise _unbatchable(
        policy.name,
        f"no {'multi-join ' if nway else ''}adapter for policy type "
        f"{type(policy).__name__}",
    )
