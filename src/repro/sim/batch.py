"""Vectorized batch Monte-Carlo engine: B independent trials at once.

The scalar simulators (:class:`~repro.sim.multi_join.MultiJoinSimulator`,
:class:`~repro.sim.cache_sim.CacheSimulator`) drive one sample path at a
time through Python-object caches; the paper's experiments average 50
such runs per configuration, and sweeps repeat that per cache size and
per policy.  This module runs all trials of one policy simultaneously
over ``(B, slots)`` NumPy arrays, turning the per-step work into a
handful of array operations.

The batch engine is an *exact* reimplementation, not an approximation:
for the same input paths and the same per-trial policy seeds it makes
the same decisions as the scalar simulators, tuple for tuple.  The
scalar path therefore remains the reference oracle — the equivalence
suite (``tests/test_batch_equivalence.py``) pins every supported policy
to it — and the batch path is a drop-in accelerator selected with
``engine="batch"`` on the runner entry points.

Like the scalar tier, the batch tier has one join transition and one
caching transition.  :class:`BatchMultiJoinSimulator` runs any query
topology, with sliding windows and band joins; the binary join is its
2-stream topology ``R⋈S``.  :class:`BatchCacheSimulator` runs the
caching problem.  Both share one set of policy adapters
(:mod:`repro.policies.batch`): each binds its adapter to its topology
before a run — the query graph for joins, the Theorem 1 reduction
(cached side S, partner R) for caching — and hands ``begin_step`` one
value column per stream.  Trials advance in lock-step, so every trial
of a run must have the same length; ragged trials belong on the scalar
or parallel tier.

Layout invariants the engine maintains:

* alive tuples occupy a prefix of each row, in *candidate order* — the
  scalar cache's dict insertion order followed by this step's arrivals
  in stream order — so per-slot positions line up with the scalar
  candidate lists;
* compaction (window expiry, eviction) is a stable partition, applied in
  lockstep to policy auxiliary arrays, so relative order is preserved
  exactly as dict deletion preserves it;
* ``None`` stream values ("−" in the paper) are encoded as
  :data:`~repro.policies.batch.NONE_VALUE` and masked out of every
  comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.base import binary_topology
from ..policies.batch import NONE_VALUE, R_CODE, S_CODE, BatchPolicy
from ..streams.base import Value
from .cache_sim import CacheRunResult
from .multi_join import JoinRunResult
from .step import check_run_params, is_rs_join, multi_partner_names

__all__ = [
    "BatchState",
    "BatchCacheRunResult",
    "BatchCacheSimulator",
    "BatchMultiJoinSimulator",
    "values_to_array",
    "streams_to_arrays",
]


@dataclass
class BatchState:
    """Slot arrays for ``B`` trials × ``slots`` cache positions.

    ``alive`` marks occupied slots (a prefix of each row, ``count``
    long); dead slots hold stale garbage and must be masked in every
    read.  ``next_uid`` is each trial's next tuple uid.  ``last[code]``
    carries stream ``code``'s most recent non-``None`` observation per
    trial (the ``x_{t0}`` anchors of Theorem 5), :data:`NONE_VALUE`
    before the first one.
    """

    val: np.ndarray
    side: np.ndarray
    arr: np.ndarray
    uid: np.ndarray
    alive: np.ndarray
    count: np.ndarray
    next_uid: np.ndarray
    last: np.ndarray

    @classmethod
    def empty(cls, n_trials: int, n_slots: int, n_streams: int) -> "BatchState":
        """All-empty state for ``n_trials`` caches of ``n_slots`` slots."""
        return cls(
            val=np.zeros((n_trials, n_slots), dtype=np.int64),
            side=np.full((n_trials, n_slots), -1, dtype=np.int8),
            arr=np.zeros((n_trials, n_slots), dtype=np.int64),
            uid=np.zeros((n_trials, n_slots), dtype=np.int64),
            alive=np.zeros((n_trials, n_slots), dtype=bool),
            count=np.zeros(n_trials, dtype=np.int64),
            next_uid=np.zeros(n_trials, dtype=np.int64),
            last=np.full((n_streams, n_trials), NONE_VALUE, dtype=np.int64),
        )

    def compact(self, keep: np.ndarray, aux: tuple[np.ndarray, ...]) -> None:
        """Stable-partition kept slots to the row front, in place.

        ``keep`` must be a subset of ``alive``.  Policy auxiliary arrays
        are permuted identically so per-slot bookkeeping follows its
        tuple.
        """
        perm = np.argsort(~keep, axis=1, kind="stable")
        for a in (self.val, self.side, self.arr, self.uid, *aux):
            a[:] = np.take_along_axis(a, perm, axis=1)
        self.alive[:] = np.take_along_axis(keep, perm, axis=1)
        self.count = self.alive.sum(axis=1)

    def append(self, rows, code: int, values, t: int) -> np.ndarray:
        """Mint tuples at the first free slot of each trial in ``rows``.

        Arrivals are appended in candidate order, so per-slot positions
        keep lining up with the scalar candidate lists; each gets its
        trial's next uid.  Returns the slots written.
        """
        slots = self.count[rows]
        self.val[rows, slots] = values
        self.side[rows, slots] = code
        self.arr[rows, slots] = t
        self.uid[rows, slots] = self.next_uid[rows]
        self.alive[rows, slots] = True
        self.next_uid[rows] += 1
        self.count[rows] += 1
        return slots


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class BatchCacheRunResult:
    """Per-trial outcomes of one batched caching run (arrays over B).

    ``steps`` holds per-trial *observed* reference counts (missing
    ``None`` entries excluded), matching the scalar simulator's
    ``steps == hits + misses`` invariant; ``skipped`` holds the per-trial
    missing-entry counts.
    """

    hits: np.ndarray
    misses: np.ndarray
    hits_after_warmup: np.ndarray
    misses_after_warmup: np.ndarray
    steps: np.ndarray
    warmup: int
    cache_size: int
    skipped: np.ndarray

    def unbatch(self) -> list[CacheRunResult]:
        """Split into scalar-compatible per-trial results."""
        return [
            CacheRunResult(
                hits=int(self.hits[b]),
                misses=int(self.misses[b]),
                hits_after_warmup=int(self.hits_after_warmup[b]),
                misses_after_warmup=int(self.misses_after_warmup[b]),
                steps=int(self.steps[b]),
                warmup=self.warmup,
                cache_size=self.cache_size,
                skipped=int(self.skipped[b]),
            )
            for b in range(self.hits.size)
        ]


# ----------------------------------------------------------------------
# Input conversion
# ----------------------------------------------------------------------
def _lockstep_length(lengths: Sequence[int]) -> int:
    """The one trial length lock-step execution needs.

    The batch engine advances every trial through the same steps, so
    trials of different lengths cannot share a run; truncating them to
    the shortest would silently drop the longer trials' tails.
    """
    n = lengths[0]
    if any(m != n for m in lengths):
        raise ValueError(
            f"batch trials must all run the same number of steps, got "
            f"per-trial lengths {list(lengths)}; run ragged trials on the "
            "scalar or parallel tier"
        )
    return n


def _stack(seqs: Sequence[Sequence[Value]], n: int) -> np.ndarray:
    """The first ``n`` values of each sequence as a ``(B, n)`` array."""
    out = np.empty((len(seqs), n), dtype=np.int64)
    for b, seq in enumerate(seqs):
        out[b] = [NONE_VALUE if v is None else int(v) for v in seq[:n]]
    return out


def values_to_array(paths: Sequence[Sequence[Value]]) -> np.ndarray:
    """Stack value sequences into a ``(B, n)`` int64 array.

    ``None`` ("−") becomes :data:`NONE_VALUE`.  Every sequence must have
    the same length (``ValueError`` naming the lengths otherwise), as
    the scalar caching simulator runs each trial over its whole
    sequence.
    """
    if not paths:
        return np.zeros((0, 0), dtype=np.int64)
    return _stack(paths, _lockstep_length([len(p) for p in paths]))


def streams_to_arrays(
    data: Sequence[Mapping[str, Sequence[Value]]],
) -> dict[str, np.ndarray]:
    """Stack per-trial stream mappings into ``{name: (B, n)}`` arrays.

    Every trial must list the same streams in the same order — the
    arrival (and hence uid-minting) order the scalar simulator derives
    from each mapping, which lock-step execution needs to be shared.
    Each trial runs for its shortest stream's length, the scalar
    simulator's convention; the per-trial lengths must agree
    (``ValueError`` otherwise).
    """
    if not data:
        return {}
    names = list(data[0])
    for item in data[1:]:
        if list(item) != names:
            raise ValueError(
                "all multi-join trials must list the same streams "
                "in the same order"
            )
    n = _lockstep_length(
        [min(len(seq) for seq in item.values()) for item in data]
    )
    return {name: _stack([item[name] for item in data], n) for name in names}


# ----------------------------------------------------------------------
# Victim selection shared by both engines
# ----------------------------------------------------------------------
def _select_victims(
    policy: BatchPolicy,
    state: BatchState,
    n_evict: np.ndarray,
    t: int,
    cutoff_log: list[list[tuple[int, float]]] | None = None,
) -> np.ndarray:
    if not policy.scored:
        victims = policy.select(state, n_evict, t)
        return victims & state.alive
    scores = policy.scores(state, t)
    # Dead slots sort last (+inf beats every finite score); ties among
    # candidates break by uid ascending, exactly like ScoredPolicy's
    # sorted(key=(score, uid)).
    masked = np.where(state.alive, scores, np.inf)
    order = np.lexsort((state.uid, masked), axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.arange(order.shape[1], dtype=order.dtype)[None, :], axis=1
    )
    if cutoff_log is not None:
        # ScoredPolicy's "scores.cutoff": the best score still evicted —
        # the slot at rank n_evict-1 (alive whenever n_evict <= count).
        for b in np.flatnonzero(n_evict > 0).tolist():
            col = order[b, n_evict[b] - 1]
            cutoff_log[b].append((t, float(scores[b, col])))
    return (ranks < n_evict[:, None]) & state.alive


def _evict(policy, state, k, t, cutoff_log, aux) -> int:
    """Evict each trial down to ``k`` tuples; returns the victim count."""
    n_evict = np.maximum(state.count - k, 0)
    if n_evict.any():
        victims = _select_victims(policy, state, n_evict, t, cutoff_log)
        if victims.any():
            state.compact(state.alive & ~victims, aux)
            return int(victims.sum())
    return 0


def _cutoff_log_for(
    policy: BatchPolicy, rec_on: bool, n_trials: int
) -> list[list[tuple[int, float]]] | None:
    """Per-trial ``scores.cutoff`` sinks, only where the scalar tier emits.

    Scalar ``scores.cutoff`` comes from
    :class:`~repro.policies.base.ScoredPolicy`; every scored adapter
    returns its bit-identical floats, so every one mirrors it.
    Non-scored adapters that emit their own series (Trie) route them
    through :meth:`~repro.policies.batch.BatchPolicy.series_logs`
    instead.
    """
    if rec_on and policy.scored:
        return [[] for _ in range(n_trials)]
    return None


def _emit_policy_series(
    rec: Recorder,
    policy: BatchPolicy,
    cutoff_log: list[list[tuple[int, float]]] | None,
) -> None:
    """Drain policy-side series and counters after a recorded run.

    Series points are replayed trial-major with per-trial times
    ascending — the order a scalar recorder sees over the same trials —
    so order-dependent series aggregates match bit for bit.  Counters
    with zero totals are skipped, mirroring the scalar key sets.
    """
    series: dict[str, list[list[tuple[int, float]]]] = {}
    if cutoff_log is not None:
        series["scores.cutoff"] = cutoff_log
    series.update(policy.series_logs())
    for name, logs in series.items():
        for trial_points in logs:
            for t, value in trial_points:
                rec.series(name, t, value)
    for name, count in policy.counter_totals().items():
        if count:
            rec.count(name, count)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class BatchCacheSimulator:
    """Vectorized counterpart of :class:`~repro.sim.cache_sim.CacheSimulator`.

    All slots hold side-"S" database tuples; a reference is a hit when a
    slot carries its value (referential integrity guarantees at most one
    does), otherwise the tuple is fetched, given the next per-trial uid,
    and offered as an eviction candidate — exactly the scalar flow.

    An enabled ``recorder`` receives counters aggregated over the whole
    batch (``sim.steps``, ``arrivals.*``, ``cache.hits``,
    ``cache.misses``, ``evict.<policy_name>``) that equal the sum a
    scalar recorder would collect over the same trials.
    """

    def __init__(
        self,
        cache_size: int,
        policy: BatchPolicy,
        warmup: int = 0,
        recorder: Recorder = NULL_RECORDER,
        policy_name: str = "policy",
    ):
        """Validate and bind the caching parameters shared by every trial."""
        check_run_params(cache_size, warmup)
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._recorder = recorder
        self._policy_name = policy_name

    def run(self, references: np.ndarray) -> BatchCacheRunResult:
        """Simulate every trial in lock-step over ``(B, n)`` references."""
        references = np.asarray(references, dtype=np.int64)
        if references.ndim != 2:
            raise ValueError("references must be a (B, n) array")
        n_trials, n = references.shape
        k = self._cache_size
        names, partner_names = binary_topology("cache")
        state = BatchState.empty(n_trials, k + 1, len(names))
        self._policy.bind(names, partner_names)
        self._policy.reset(n_trials, k + 1)
        aux = self._policy.aux_arrays()

        hits = np.zeros(n_trials, dtype=np.int64)
        misses = np.zeros(n_trials, dtype=np.int64)
        hits_w = np.zeros(n_trials, dtype=np.int64)
        misses_w = np.zeros(n_trials, dtype=np.int64)

        rec = self._recorder
        rec_on = rec.enabled
        evicted_total = 0
        # Per-step hit/occupancy logs, kept only to replay scalar series.
        if rec_on:
            hit_log = np.zeros((n_trials, n), dtype=np.int64)
            occ_log = np.zeros((n_trials, n), dtype=np.int64)
        else:
            hit_log = occ_log = None
        cutoff_log = _cutoff_log_for(self._policy, rec_on, n_trials)
        # The cached S side never arrives as a stream.
        no_s = np.full(n_trials, NONE_VALUE, dtype=np.int64)

        for t in range(n):
            vals = references[:, t]
            has = vals != NONE_VALUE
            np.copyto(state.last[R_CODE], vals, where=has)
            self._policy.begin_step(state, t, (vals, no_s))
            if not has.any():
                if occ_log is not None:
                    occ_log[:, t] = state.count
                continue

            safe = np.where(has, vals, 0)
            hit_mask = state.alive & has[:, None] & (state.val == safe[:, None])
            hit_rows = hit_mask.any(axis=1)
            hits += hit_rows
            miss_rows = has & ~hit_rows
            misses += miss_rows
            if hit_log is not None:
                hit_log[:, t] = hit_rows
            if t >= self._warmup:
                hits_w += hit_rows
                misses_w += miss_rows
            if hit_rows.any():
                self._policy.on_reference(state, hit_mask, t)

            rows = np.flatnonzero(miss_rows)
            if rows.size:
                slots = state.append(rows, S_CODE, vals[rows], t)
                self._policy.on_admit(state, rows, slots, S_CODE, vals[rows], t)
                evicted_total += _evict(
                    self._policy, state, k, t, cutoff_log, aux
                )
            if occ_log is not None:
                occ_log[:, t] = state.count

        observed = (references != NONE_VALUE).sum(axis=1)
        if rec_on:
            n_steps = int(references.size)
            n_observed = int(observed.sum())
            for name, count in (
                ("sim.steps", n_steps),
                ("arrivals.R", n_observed),
                ("arrivals.null", n_steps - n_observed),
                ("cache.hits", int(hits.sum())),
                ("cache.misses", int(misses.sum())),
                (f"evict.{self._policy_name}", evicted_total),
            ):
                if count:
                    rec.count(name, count)
            self._emit_series(references, occ_log, hit_log)
            _emit_policy_series(rec, self._policy, cutoff_log)
        return BatchCacheRunResult(
            hits=hits,
            misses=misses,
            hits_after_warmup=hits_w,
            misses_after_warmup=misses_w,
            steps=observed,
            warmup=self._warmup,
            cache_size=k,
            skipped=n - observed,
        )

    def _emit_series(
        self,
        references: np.ndarray,
        occ_log: np.ndarray | None,
        hit_log: np.ndarray | None,
    ) -> None:
        """Replay the scalar per-step series from the batch arrays.

        Trial-major like :meth:`BatchMultiJoinSimulator._emit_series`; points
        exist only at observed (non-``None``) reference steps, matching
        the scalar simulator, and the cumulative hit rate is computed
        with the same integer division operands.
        """
        assert occ_log is not None and hit_log is not None
        rec = self._recorder
        observed_rows = (references != NONE_VALUE).tolist()
        occ_rows = occ_log.tolist()
        hit_cum = np.cumsum(hit_log, axis=1)
        miss_cum = np.cumsum(
            (references != NONE_VALUE) & (hit_log == 0), axis=1
        )
        hit_rows_cum = hit_cum.tolist()
        miss_rows_cum = miss_cum.tolist()
        for obs_row, occ_row, h_row, m_row in zip(
            observed_rows, occ_rows, hit_rows_cum, miss_rows_cum
        ):
            for t, seen in enumerate(obs_row):
                if not seen:
                    continue
                h = h_row[t]
                rec.series("cache.occupancy", t, occ_row[t])
                rec.series("cache.hits.cum", t, h)
                rec.series("cache.hit_rate", t, h / (h + m_row[t]))




class BatchMultiJoinSimulator:
    """Vectorized counterpart of :func:`repro.sim.step.multi_join_step`.

    Runs any topology of binary equijoin queries — the binary join is
    the 2-stream topology ``[("R", "S")]`` — over per-stream ``(B, n)``
    value arrays, with the scalar step's phases (window expiry, probing
    within ``band``, arrival minting in stream order, eviction) as
    whole-array operations.  ``side`` is the stream's index in arrival
    order, so the binary join's R/S are the adapters' ``R_CODE`` /
    ``S_CODE``; an ``R⋈S`` run records the binary series set, as
    :class:`~repro.sim.step.MultiJoinStepState` does.

    An enabled ``recorder`` receives the counters and per-step series a
    scalar recorder collects over the same trials, aggregated over the
    batch and replayed trial-major.  Per-step trace events are not
    emitted — trace with the scalar engine for per-tuple visibility.
    """

    def __init__(
        self,
        cache_size: int,
        policy: BatchPolicy,
        queries: Sequence[tuple[str, str]],
        warmup: int = 0,
        window: int | None = None,
        band: int = 0,
        recorder: Recorder = NULL_RECORDER,
        policy_name: str = "policy",
    ):
        """Validate the query set and bind the shared-cache parameters."""
        check_run_params(cache_size, warmup, window, band)
        self._partner_names = multi_partner_names(queries)
        self._queries = [tuple(q) for q in queries]
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._window = window
        self._band = band
        self._recorder = recorder
        self._policy_name = policy_name

    def run(self, streams: Mapping[str, np.ndarray]) -> list[JoinRunResult]:
        """Simulate every trial in lock-step over per-stream value arrays.

        Returns one scalar-compatible result per trial, in trial order.
        """
        names = list(streams)
        multi_partner_names(self._queries, names)
        arrs = [np.asarray(streams[name], dtype=np.int64) for name in names]
        if any(a.ndim != 2 or a.shape != arrs[0].shape for a in arrs):
            raise ValueError("all streams must be matching (B, n) arrays")
        n_trials, n = arrs[0].shape
        k = self._cache_size
        window = self._window
        band = self._band
        policy = self._policy
        code_of = {name: i for i, name in enumerate(names)}
        # Streams outside every query are observed but never cached.
        query_codes = [
            code_of[name] for name in names if name in self._partner_names
        ]
        # Probe edges in scalar order: arrival stream in names order, its
        # partners in query order; each edge knows its query column.
        query_col = {frozenset(q): i for i, q in enumerate(self._queries)}
        edges = [
            (code_of[name], code_of[p], query_col[frozenset((name, p))])
            for name in names
            if name in self._partner_names
            for p in self._partner_names[name]
        ]
        # Step-major copies, so each step reads contiguous (B,) rows.
        cols = [np.ascontiguousarray(a.T) for a in arrs]
        has_cols = [c != NONE_VALUE for c in cols]
        # A band probe needs "−" masked out of its arithmetic; an
        # equijoin probe does not: no alive slot ever holds NONE_VALUE.
        safe_cols = [np.where(h, c, 0) for c, h in zip(cols, has_cols)]

        # ≤ k survivors plus one arrival per cacheable stream.
        n_slots = k + len(query_codes)
        state = BatchState.empty(n_trials, n_slots, len(names))
        policy.bind(names, self._partner_names)
        policy.reset(n_trials, n_slots)
        aux = policy.aux_arrays()

        total = np.zeros(n_trials, dtype=np.int64)
        after_warmup = np.zeros(n_trials, dtype=np.int64)
        per_query = np.zeros((n_trials, len(self._queries)), dtype=np.int64)
        # Step-major occupancy: the total, and every query stream but the
        # last (whose count is the total minus the others').
        occ_total = np.zeros((n, n_trials), dtype=np.int64)
        occ = {code: np.zeros_like(occ_total) for code in query_codes[:-1]}

        rec = self._recorder
        rec_on = rec.enabled
        # Probe outcomes feed the n-way cache.hit_rate series only.
        probes_on = rec_on and not is_rs_join(names, self._queries)
        expired_total = 0
        evicted_total = 0
        # Per-step results and cumulative probe hits, kept only to
        # replay the scalar series exactly.
        logs = np.zeros((2, n, n_trials), dtype=np.int64) if rec_on else None
        probe_hits = np.zeros(n_trials, dtype=np.int64)
        cutoff_log = _cutoff_log_for(policy, rec_on, n_trials)
        last = state.last

        for t in range(n):
            vals = [c[t] for c in cols]
            for code, v in enumerate(vals):
                np.copyto(last[code], v, where=has_cols[code][t])
            policy.begin_step(state, t, vals)

            # Sliding-window expiry: free removal of dead tuples.
            if window is not None:
                expired = state.alive & (state.arr < t - window)
                if expired.any():
                    if rec_on:
                        expired_total += int(expired.sum())
                    state.compact(state.alive & ~expired, aux)

            # New arrivals join cached partner tuples (same-step arrivals
            # never join each other — they are appended only afterwards).
            on_side = {
                code: state.alive & (state.side == code) for code in query_codes
            }
            step_results = referenced = None
            matched = dict.fromkeys(query_codes, False)
            for a_code, p_code, q_col in edges:
                if band == 0:
                    near = state.val == vals[a_code][:, None]
                else:
                    near = has_cols[a_code][t][:, None] & (
                        np.abs(state.val - safe_cols[a_code][t][:, None]) <= band
                    )
                m = on_side[p_code] & near
                cnt = m.sum(axis=1)
                per_query[:, q_col] += cnt
                if step_results is None:
                    step_results, referenced = cnt, m
                else:
                    step_results = step_results + cnt
                    referenced = referenced | m
                if probes_on:
                    matched[a_code] = matched[a_code] | (cnt > 0)
            total += step_results
            if t >= self._warmup:
                after_warmup += step_results
            if logs is not None:
                # A stream's arrival is a probe hit when any edge matched.
                probe_hits += sum(matched.values())
                logs[:, t] = step_results, probe_hits
            if referenced.any():
                policy.on_reference(state, referenced, t)

            # Append arrivals in candidate order: stream arrival order.
            for code in query_codes:
                rows = np.flatnonzero(has_cols[code][t])
                if rows.size:
                    v = vals[code][rows]
                    slots = state.append(rows, code, v, t)
                    policy.on_admit(state, rows, slots, code, v, t)
            evicted_total += _evict(policy, state, k, t, cutoff_log, aux)

            occ_total[t] = state.count
            for code, log in occ.items():
                log[t] = (state.alive & (state.side == code)).sum(axis=1)

        occ[query_codes[-1]] = occ_total - sum(occ.values())
        occupancy = {name: np.zeros((n_trials, n), dtype=np.int64) for name in names}
        for code, log in occ.items():
            occupancy[names[code]] = log.T
        if rec_on:
            self._record_counters(
                names, arrs, total, expired_total, evicted_total
            )
            # Every query-stream arrival is one probe.
            probes = sum(has_cols[code] for code in query_codes)
            self._emit_series(
                occ_total, logs, np.cumsum(probes, axis=0) * probes_on
            )
            _emit_policy_series(rec, policy, cutoff_log)
        return [
            JoinRunResult(
                total_results=int(total[b]),
                results_after_warmup=int(after_warmup[b]),
                steps=n,
                warmup=self._warmup,
                cache_size=k,
                per_query={
                    frozenset(q): int(per_query[b, i])
                    for i, q in enumerate(self._queries)
                },
                occupancy_by_stream={
                    name: occ[b].copy() for name, occ in occupancy.items()
                },
            )
            for b in range(n_trials)
        ]

    def _record_counters(
        self,
        names: Sequence[str],
        arrs: Sequence[np.ndarray],
        total: np.ndarray,
        expired_total: int,
        evicted_total: int,
    ) -> None:
        """Flush batch-aggregated counters, mirroring the scalar keys.

        Counters with a zero total are skipped so the resulting
        dictionary has exactly the keys a scalar recorder would have
        created over the same trials.
        """
        n_steps = int(arrs[0].size)
        seen = [int((arr != NONE_VALUE).sum()) for arr in arrs]
        for name, count in (
            ("sim.steps", n_steps),
            *((f"arrivals.{name}", c) for name, c in zip(names, seen)),
            ("arrivals.null", n_steps * len(names) - sum(seen)),
            ("evict.window_expired", expired_total),
            (f"evict.{self._policy_name}", evicted_total),
            ("join.results", int(total.sum())),
        ):
            if count:
                self._recorder.count(name, count)

    def _emit_series(
        self, occ_log: np.ndarray, logs: np.ndarray, probes: np.ndarray
    ) -> None:
        """Replay the scalar per-step series from the step-major logs.

        ``logs`` stacks per-step results and cumulative probe hits;
        ``probes`` counts cumulative probes.  Points are fed trial-major
        (all of trial 0's steps, then trial 1's, …) — the exact order
        the scalar engine produces over the same trials — so the
        recorder's series aggregates, including the order-dependent
        downsampling buffers and histogram sums, come out bit-identical
        to a scalar run.  ``cache.hit_rate`` points exist only once a
        trial has probed (never on an ``R⋈S`` run, which counts no
        probes), with the same integer operands.
        """
        rec = self._recorder
        rows = zip(
            occ_log.T.tolist(),
            np.cumsum(logs[0], axis=0).T.tolist(),
            logs[1].T.tolist(),
            probes.T.tolist(),
        )
        for occ_row, cum_row, hit_row, probe_row in rows:
            for t, (occ, cum) in enumerate(zip(occ_row, cum_row)):
                rec.series("cache.occupancy", t, occ)
                rec.series("join.results.cum", t, cum)
                if probe_row[t]:
                    rec.series("cache.hit_rate", t, hit_row[t] / probe_row[t])
