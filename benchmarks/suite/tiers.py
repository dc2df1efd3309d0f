"""End-to-end pass: every tier's throughput and the open-loop latency.

Round ``r`` runs each tier once on input segment ``r % SEGMENTS``, in a
fixed order, so the rounds interleave the tiers and a run covers many
distinct ticks.  Every time is normalized to nominal host speed with the
reference loop timed around each call (``SpeedMeter``); the open loop
does the same chunk by chunk and paces its schedule by that speed, so
the server sees the same utilization whether or not its vCPU is
contended.

Tiers that must agree share their inputs within a round:

* single-shard family — ``sim``, ``sim_counted`` and ``serve`` replay
  the first ``single_ticks`` ticks and must produce the same totals;
* sharded family — ``serve_sharded``, ``serve_counted`` and the open
  loop replay the first ``sharded_ticks`` ticks on 4 shards;
* trial family — ``batch`` runs ``batch_trials`` trials, ``parallel``
  the first ``parallel_trials`` of them, trial for trial equal.

Counters of the counted tiers must agree with the inputs, a segment
replayed again must repeat its totals, and seeds pinned in
``workloads.json`` must reproduce the pinned family totals of segment 0.
"""

from __future__ import annotations

import resource

import numpy as np

from repro.obs import CounterRecorder

from workloads import (
    SHARDS,
    expected_events,
    medians,
    non_null_arrivals,
    parallel_engine,
    repeat_rounds,
    run_engine,
    run_open_loop,
    run_serve,
    run_sim,
    total_of,
)


def end_to_end_round(w, checks, meter) -> dict:
    """Run every tier once on ``w``'s segment; return metric values,
    totals and latencies."""
    kind = w.kind
    sizes = w.sizes
    n1, n4 = sizes["single_ticks"], sizes["sharded_ticks"]
    n_batch, n_par = sizes["batch_trials"], sizes["parallel_trials"]
    trial_ticks = sizes["trial_ticks"]
    sharded_events = expected_events(w, n4, SHARDS)
    values: dict = {}
    totals: dict = {}

    def timed(label, ticks, fn, *args, around=meter.around, **kwargs):
        """``(outcome, speed)`` of one tier call, ``None`` if it raised."""
        return checks.attempt(label, ticks, around, fn, *args, **kwargs)

    out = timed("sim", n1, run_sim, w, n1)
    if out:
        (seconds, result), speed = out
        values["sim_ticks_per_s"] = n1 / (seconds * speed)
        totals["sim"] = total_of(kind, result)

    recorder = CounterRecorder()
    out = timed("sim_counted", n1, run_sim, w, n1, recorder)
    if out:
        (seconds, result), speed = out
        values["sim_counted_ticks_per_s"] = n1 / (seconds * speed)
        totals["sim_counted"] = total_of(kind, result)
        counters = recorder.counters
        checks.expect("sim_counted sim.steps", counters.get("sim.steps", 0), n1)
        if kind == "join":
            counted = counters.get("join.results", 0)
        else:
            counted = [counters.get("cache.hits", 0),
                       counters.get("cache.misses", 0)]
        checks.expect("sim_counted result counters", counted,
                      totals["sim_counted"])

    for label, engine, n_trials, around in (
        ("batch", "batch", n_batch, meter.around),
        ("parallel", parallel_engine(), n_par, meter.around_all_cpus),
    ):
        ticks = n_trials * trial_ticks
        out = timed(label, ticks, run_engine, w, engine, n_trials,
                    around=around)
        if out:
            (seconds, result), speed = out
            values[f"{label}_ticks_per_s"] = ticks / (seconds * speed)
            totals[label] = [total_of(kind, r) for r in result.per_run]
            checks.expect(f"{label} engine_used", result.engine_used, label)

    for label, n, shards, recorder in (
        ("serve", n1, 1, None),
        ("serve_sharded", n4, SHARDS, None),
        ("serve_counted", n4, SHARDS, CounterRecorder()),
    ):
        kwargs = {} if recorder is None else {"recorder": recorder}
        out = timed(label, n, run_serve, w, n, shards, **kwargs)
        if not out:
            continue
        (summary, _), speed = out
        values[f"{label}_ticks_per_s"] = n / (summary.seconds * speed)
        totals[label] = total_of(kind, summary)
        checks.expect(f"{label} ingested arrivals", summary.ingested_arrivals,
                      non_null_arrivals(w, n))
        if recorder is not None:
            for counter in ("serve.ingested", "sim.steps"):
                checks.expect(f"{label} {counter}",
                              recorder.counters.get(counter, 0),
                              sharded_events)

    samples = 0
    out = timed("open_loop", n4, run_open_loop, w, n4, sizes["rate_per_s"],
                meter)
    if out:
        result = out[0]  # normalized chunk by chunk inside the run
        checks.failed_ticks += result.unstamped
        samples = len(result.latency_ms)
        values["serve_p50_ms"], values["serve_p99_ms"] = (
            float(x) for x in np.percentile(result.latency_ms, [50, 99]))
        totals["open_loop"] = result.total

    checks.expect("sim_counted == sim", totals.get("sim_counted"),
                  totals.get("sim"))
    checks.expect("serve (1 shard) == sim", totals.get("serve"),
                  totals.get("sim"))
    checks.expect("parallel == batch per trial", totals.get("parallel"),
                  totals["batch"][:n_par] if "batch" in totals else None)
    checks.expect("serve_counted == serve_sharded", totals.get("serve_counted"),
                  totals.get("serve_sharded"))
    checks.expect("open_loop == serve_sharded", totals.get("open_loop"),
                  totals.get("serve_sharded"))
    return {"values": values, "totals": totals, "latency_samples": samples}


def family_totals(kind: str, totals: dict) -> dict:
    """The pinned quantities: one total per tier family (batch summed
    over its trials)."""
    batch = totals.get("batch")
    if batch is not None:
        batch = sum(batch) if kind == "join" else [
            sum(h for h, _ in batch), sum(m for _, m in batch)
        ]
    return {
        "single": totals.get("sim"),
        "sharded": totals.get("serve_sharded"),
        "batch": batch,
    }


def measure(w, checks, meter, seconds: float, min_rounds: int, pins) -> tuple:
    """Run the rounds and the checks; return (metric values, report)."""
    rounds = repeat_rounds(
        lambda r: end_to_end_round(w.segment(r), checks, meter), seconds,
        min_rounds,
    )
    n_segments = len(w.segments)
    for r in range(n_segments, len(rounds)):
        checks.expect(f"segment {r % n_segments} totals repeat",
                      rounds[r]["totals"], rounds[r % n_segments]["totals"])
    totals = family_totals(w.kind, rounds[0]["totals"])
    for family, pinned in (pins or {}).items():
        checks.expect(f"pinned {family} total", totals[family], pinned)

    # Latency percentiles too are per round, then the median over rounds:
    # pooling the samples let one disturbed round set the whole p99.
    values = medians([r["values"] for r in rounds])
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report = {
        "rounds": len(rounds),
        "totals": totals,
        "latency_samples": [r["latency_samples"] for r in rounds],
    }
    return values, report
