#!/usr/bin/env python
"""Benchmark history: append perf-harness runs, gate on regressions.

``benchmarks/perf_harness.py`` overwrites ``BENCH_batch.json`` on every
run, so the repo only ever remembers the *latest* numbers — a slow
creep (or a one-commit cliff) in engine throughput or FlowExpect
per-step latency is invisible until someone re-reads old commits.  This
tool gives the harness a memory:

* **append** — the harness calls :func:`entry_from_report` /
  :func:`append_entry` after writing its report, adding one JSONL line
  to ``BENCH_history.jsonl`` with a timestamp, the current git SHA, an
  environment + workload fingerprint, and the headline metrics
  (aggregate engine speedups and throughputs, FlowExpect ms/step and
  fast-path speedup).
* **check** — ``python tools/bench_history.py --check`` compares the
  most recent run against the *rolling median* of prior runs with the
  **same fingerprint** (identical environment and workload — numbers
  from a different machine, worker count, or trial count are never
  compared).  A higher-is-better metric fails when it drops below
  ``(1 - tolerance) x median``; a lower-is-better metric (``*_ms_per_step``,
  ``*_seconds``) fails when it rises above ``(1 + tolerance) x median``.
  With fewer than ``--min-runs`` comparable runs the check passes with
  a note — a fresh environment has no baseline to regress from.

The history file is read tolerantly: a truncated final line (killed
run, full disk) is reported and skipped, mirroring the trace reader's
``strict=False`` contract.  Stdlib-only, so CI can run it before any
project dependency is importable.

Usage::

    python tools/bench_history.py                  # summarize history
    python tools/bench_history.py --check          # gate (exit 1 = regression)
        [--history BENCH_history.jsonl] [--tolerance 0.2] [--min-runs 2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "entry_from_report",
    "append_entry",
    "load_history",
    "fingerprint_key",
    "check",
    "main",
]

DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
DEFAULT_TOLERANCE = 0.2
DEFAULT_MIN_RUNS = 2

#: Metrics where a *smaller* value is better.  Anything not matching is
#: treated as higher-is-better (speedups, trials/sec, hit rates).
_LOWER_BETTER_SUFFIXES = (
    "_ms_per_step",
    "_seconds",
    "_overhead_pct",
    # Rising enqueue-time queue depth means the serving tier's consumer
    # fell behind its producers — a latent step-function slowdown even
    # when raw throughput still looks fine.
    "_queue_depth",
    # Sketch front-ends: a growing tracemalloc peak means the bounded-
    # memory contract is eroding, and a growing hit-rate delta means the
    # approximation is costing more accuracy vs exact counts.
    "_mem_mb",
    "_hit_rate_delta",
    # Wall-clock latency metrics (the *_ms naming convention): the serve
    # decide-span p99 gates here.
    "_ms",
)

#: Environment keys that participate in the fingerprint.  Worker count
#: is included deliberately: parallel throughput on 1 worker and on 8
#: are different experiments.
_ENV_KEYS = ("python", "numpy", "machine", "cpu_count", "parallel_workers")


def git_sha(repo: Optional[Path] = None) -> str:
    """Short git SHA of ``repo`` (default: this file's repo), or ``unknown``."""
    cwd = repo if repo is not None else Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def entry_from_report(
    report: Mapping[str, Any],
    ts: Optional[float] = None,
    sha: Optional[str] = None,
) -> dict:
    """Flatten one ``BENCH_batch.json``-style report into a history entry.

    Pulls the headline metrics out of ``aggregate`` (engine throughputs
    and speedups), ``flowexpect`` (per-step latency, fast-path speedup,
    memo hit rate, ``fe_`` prefix), ``batch_coverage`` (per-family
    adapter speedups, ``batchcov_`` prefix), ``serve`` (serving-tier
    ingestion throughput and queue-depth telemetry, ``serve_`` prefix),
    ``multi_join`` (multi-join batch speedup and serve throughput,
    ``multi_`` prefix), and ``sketch`` (bounded-memory peak and
    exact-vs-sketch hit-rate delta, ``sketch_`` prefix) so the sections
    cannot collide.  Sections absent
    from the report are simply absent from the metrics — a
    FlowExpect-only run still produces a checkable entry.
    """
    metrics: dict[str, float] = {}
    aggregate = report.get("aggregate") or {}
    for key in (
        "scalar_trials_per_sec",
        "batch_trials_per_sec",
        "parallel_trials_per_sec",
        "batch_speedup",
        "parallel_speedup",
    ):
        value = aggregate.get(key)
        if isinstance(value, (int, float)):
            metrics[key] = float(value)
    flowexpect = report.get("flowexpect") or {}
    for key in (
        "fast_ms_per_step",
        "reference_ms_per_step",
        "fast_speedup",
        "prob_table_hit_rate",
    ):
        value = flowexpect.get(key)
        if isinstance(value, (int, float)):
            metrics[f"fe_{key}"] = float(value)

    batchcov = report.get("batch_coverage") or {}
    for family, entry in (batchcov.get("families") or {}).items():
        value = (entry or {}).get("batch_speedup")
        if isinstance(value, (int, float)):
            metrics[f"batchcov_{family}_speedup"] = float(value)

    serve = report.get("serve") or {}
    for key in (
        "tuples_per_sec",
        "p90_queue_depth",
        "p99_queue_depth",
        "max_queue_depth",
        "p99_ms",
    ):
        value = serve.get(key)
        if isinstance(value, (int, float)):
            metrics[f"serve_{key}"] = float(value)

    multi = report.get("multi_join") or {}
    for key in (
        "batch_speedup",
        "scalar_trials_per_sec",
        "batch_trials_per_sec",
        "serve_tuples_per_sec",
    ):
        value = multi.get(key)
        if isinstance(value, (int, float)):
            metrics[f"multi_{key}"] = float(value)

    sketch = report.get("sketch") or {}
    for key in (
        "mem_mb",
        "hit_rate_delta",
        "exact_hit_rate",
        "sketch_hit_rate",
        "steps_per_sec",
    ):
        value = sketch.get(key)
        if isinstance(value, (int, float)):
            if key == "hit_rate_delta":
                # Gate math is multiplicative around the median, which
                # assumes non-negative magnitudes; a negative delta
                # (sketch *beat* exact) gates as zero — the raw value
                # stays in the report for inspection.
                value = max(0.0, float(value))
            metrics[f"sketch_{key}"] = float(value)

    workload = dict(report.get("workload") or {})
    # FlowExpect bench parameters are part of the workload identity too:
    # fe_ms_per_step at lookahead 8 is not comparable to lookahead 4.
    for key in ("length", "lookahead", "cache_size"):
        if key in flowexpect:
            workload[f"fe_{key}"] = flowexpect[key]
    # Batch-coverage bench shape: per-family speedups are
    # only comparable at the same trial counts and stream lengths (the
    # memo-sharing adapters scale with the trial count by design).
    for key in ("length", "trials", "fe_length", "fe_trials"):
        if key in batchcov:
            workload[f"batchcov_{key}"] = batchcov[key]
    # Likewise the serve bench: throughput at 4 shards on a 2000-step
    # stream is not comparable to other shapes.
    for key in ("length", "n_shards", "queue_maxsize"):
        if key in serve:
            workload[f"serve_{key}"] = serve[key]
    # And the multi-join bench: the topology and trial count define the
    # experiment just as much as the machine does.
    for key in ("config", "length", "trials", "serve_length", "serve_n_shards"):
        if key in multi:
            workload[f"multi_{key}"] = multi[key]
    # Sketch bench shape: memory peaks and hit-rate deltas are only
    # comparable at the same cache size / stream length / value mix.
    for key in (
        "cache_size",
        "length",
        "head_values",
        "tail_fraction",
        "sketch_width",
    ):
        if key in sketch:
            workload[f"sketch_{key}"] = sketch[key]

    env_in = report.get("environment") or {}
    env = {k: env_in.get(k) for k in _ENV_KEYS if k in env_in}

    return {
        "ts": round(ts if ts is not None else time.time(), 3),
        "git_sha": sha if sha is not None else git_sha(),
        "env": env,
        "workload": workload,
        "metrics": metrics,
    }


def append_entry(path: Path, entry: Mapping[str, Any]) -> None:
    """Append one history entry as a JSON line (creating the file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_history(
    path: Path, bad_lines: Optional[list[str]] = None
) -> list[dict]:
    """Read history entries, skipping corrupt/truncated lines.

    ``bad_lines`` (when given) receives ``"lineno: reason"`` strings for
    every skipped line, so callers can surface them as warnings.
    """
    entries: list[dict] = []
    path = Path(path)
    if not path.exists():
        return entries
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if bad_lines is not None:
                    bad_lines.append(f"{lineno}: {exc}")
                continue
            if isinstance(entry, dict) and isinstance(
                entry.get("metrics"), dict
            ):
                entries.append(entry)
            elif bad_lines is not None:
                bad_lines.append(f"{lineno}: not a history entry")
    return entries


def fingerprint_key(entry: Mapping[str, Any]) -> str:
    """Canonical environment+workload identity of one entry.

    Two entries are comparable iff their keys match exactly; the git
    SHA and timestamp are deliberately excluded — those are what we
    compare *across*.
    """
    return json.dumps(
        {
            "env": entry.get("env", {}),
            "workload": entry.get("workload", {}),
        },
        sort_keys=True,
    )


def _lower_is_better(metric: str) -> bool:
    return metric.endswith(_LOWER_BETTER_SUFFIXES)


def check(
    entries: Sequence[Mapping[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    min_runs: int = DEFAULT_MIN_RUNS,
) -> tuple[bool, list[str]]:
    """Gate the latest entry against the median of comparable priors.

    Returns ``(ok, messages)``.  ``ok`` is ``True`` when no metric of
    the latest run regressed beyond ``tolerance`` relative to the
    rolling median of earlier same-fingerprint runs — or when there are
    fewer than ``min_runs`` comparable runs in total (nothing to gate
    against yet; the messages say so).
    """
    messages: list[str] = []
    if not entries:
        return True, ["history is empty — nothing to check"]
    latest = entries[-1]
    key = fingerprint_key(latest)
    priors = [e for e in entries[:-1] if fingerprint_key(e) == key]
    comparable = len(priors) + 1
    messages.append(
        f"latest run {latest.get('git_sha', '?')} @ {latest.get('ts', '?')}: "
        f"{comparable} comparable run(s) with this environment+workload "
        f"fingerprint ({len(entries)} total)"
    )
    if comparable < min_runs:
        messages.append(
            f"PASS (baseline building): fewer than {min_runs} comparable "
            f"runs — no median to gate against yet"
        )
        return True, messages

    ok = True
    for metric, value in sorted(latest.get("metrics", {}).items()):
        prior_values = [
            float(e["metrics"][metric])
            for e in priors
            if isinstance(e.get("metrics", {}).get(metric), (int, float))
        ]
        if not prior_values:
            messages.append(f"  {metric}: {value:g} (no prior values, skipped)")
            continue
        base = median(prior_values)
        lower = _lower_is_better(metric)
        if lower:
            limit = base * (1.0 + tolerance)
            failed = value > limit
            direction = "<="
        else:
            limit = base * (1.0 - tolerance)
            failed = value < limit
            direction = ">="
        verdict = "REGRESSION" if failed else "ok"
        messages.append(
            f"  {metric}: {value:g} vs median {base:g} of "
            f"{len(prior_values)} prior run(s) "
            f"(require {direction} {limit:g}) — {verdict}"
        )
        if failed:
            ok = False
    messages.append(
        "PASS: within tolerance of the rolling median"
        if ok
        else f"FAIL: regression beyond {tolerance:.0%} tolerance"
    )
    return ok, messages


def _summarize(entries: Sequence[Mapping[str, Any]]) -> list[str]:
    """One line per recorded run, oldest first."""
    if not entries:
        return ["history is empty"]
    lines = [f"{len(entries)} recorded run(s):"]
    for e in entries:
        metrics = e.get("metrics", {})
        headline = ", ".join(
            f"{k}={metrics[k]:g}"
            for k in ("batch_speedup", "fe_fast_ms_per_step")
            if k in metrics
        )
        lines.append(
            f"  {e.get('git_sha', '?'):>9s}  ts={e.get('ts', '?')}  "
            f"{headline or '(no headline metrics)'}"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: summarize the history, or gate with ``--check``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        type=Path,
        default=DEFAULT_HISTORY,
        help="history file (default: repo-root BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative regression vs the rolling median "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--min-runs",
        type=int,
        default=DEFAULT_MIN_RUNS,
        help="minimum comparable runs before the gate is live "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the latest run; exit 1 on regression",
    )
    args = parser.parse_args(argv)

    bad: list[str] = []
    entries = load_history(args.history, bad_lines=bad)
    for entry in bad:
        print(
            f"warning: {args.history}:{entry} (line skipped)",
            file=sys.stderr,
        )

    if not args.check:
        print("\n".join(_summarize(entries)))
        return 0

    ok, messages = check(
        entries, tolerance=args.tolerance, min_runs=args.min_runs
    )
    print("\n".join(messages))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
