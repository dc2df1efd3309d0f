"""Summarize traces and counter snapshots into human-readable tables.

Two consumers share this module: the experiment CLI (``--metrics``
prints :func:`format_metrics`; ``--trace`` names a file this module can
summarize afterwards) and the standalone reader::

    python -m repro.obs.report run.jsonl            # summary table
    python -m repro.obs.report run.jsonl --steps 40 42   # zoom a window

The summary is computed from the event stream alone — no simulator
state — so it works on any schema-1 trace regardless of which run
produced it, and unknown event kinds are counted but otherwise ignored
(the forward-compatibility rule of :mod:`repro.obs.trace`).

``--series`` renders the trace's per-step gauges (``series`` events) as
ASCII sparkline tables; ``--png`` additionally plots them, when
matplotlib is installed (it is an optional dependency — without it the
flag fails with a clear message, nothing else degrades).

Both CLIs read traces tolerantly (``read_trace(strict=False)``): a
final line truncated by a crash mid-write is reported on stderr and
skipped instead of aborting the report.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .hist import LogHistogram
from .spans import SERVE_SPAN_PREFIX
from .timeseries import sparkline
from .trace import read_trace

__all__ = [
    "TraceSummary",
    "summarize_trace",
    "summarize_trace_file",
    "format_trace_summary",
    "format_metrics",
    "collect_series",
    "format_series_table",
    "serve_latency_histograms",
    "format_serve_section",
    "save_series_png",
    "main",
]


@dataclass
class TraceSummary:
    """Aggregate view of one event stream."""

    #: Events seen per kind (including kinds this version doesn't know).
    event_counts: Counter = field(default_factory=Counter)
    #: Evictions per policy name (sliding-window expiries excluded).
    evictions_by_policy: Counter = field(default_factory=Counter)
    #: Sliding-window expiries (no policy involved).
    expired: int = 0
    #: Arrivals per stream side ("R"/"S"), "−" arrivals excluded.
    arrivals: Counter = field(default_factory=Counter)
    #: "−" (missing-value) arrivals.
    null_arrivals: int = 0
    #: Cache-run reference outcomes.
    hits: int = 0
    misses: int = 0
    #: Join results summed over ``step`` events.
    join_results: int = 0
    #: FlowExpect solver iterations summed over ``flow`` events.
    flow_units: int = 0
    #: Closed [first, last] step range seen, or None for an empty trace.
    step_range: Optional[tuple[int, int]] = None
    #: Occupancy min/mean/max over ``occupancy`` events.
    occupancy_min: Optional[int] = None
    occupancy_max: Optional[int] = None
    occupancy_mean: Optional[float] = None
    #: Most frequently evicted (side, value) pairs.
    top_victims: list[tuple[str, int]] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        """Total number of events in the stream."""
        return sum(self.event_counts.values())


def summarize_trace(events: Iterable[Mapping]) -> TraceSummary:
    """Fold an event stream into a :class:`TraceSummary`."""
    summary = TraceSummary()
    occ_total = 0
    occ_n = 0
    lo = hi = None
    victims: Counter = Counter()
    for ev in events:
        kind = ev.get("kind", "?")
        summary.event_counts[kind] += 1
        t = ev.get("t")
        if isinstance(t, int):
            lo = t if lo is None else min(lo, t)
            hi = t if hi is None else max(hi, t)
        if kind == "arrival":
            if ev.get("value") is None:
                summary.null_arrivals += 1
            else:
                summary.arrivals[ev.get("side", "?")] += 1
            if "hit" in ev:
                if ev["hit"]:
                    summary.hits += 1
                else:
                    summary.misses += 1
        elif kind == "evict":
            n = len(ev.get("victims", ()))
            if ev.get("expired"):
                summary.expired += n
            else:
                summary.evictions_by_policy[ev.get("policy", "?")] += n
            for victim in ev.get("victims", ()):
                victims[f"{victim.get('side', '?')}={victim.get('value')}"] += 1
        elif kind == "step":
            summary.join_results += ev.get("results", 0) or 0
        elif kind == "flow":
            summary.flow_units += ev.get("units", 0) or 0
        elif kind == "occupancy":
            total = ev.get("total")
            if isinstance(total, int):
                occ_total += total
                occ_n += 1
                if summary.occupancy_min is None:
                    summary.occupancy_min = summary.occupancy_max = total
                else:
                    summary.occupancy_min = min(summary.occupancy_min, total)
                    summary.occupancy_max = max(
                        summary.occupancy_max or total, total
                    )
    if lo is not None and hi is not None:
        summary.step_range = (lo, hi)
    if occ_n:
        summary.occupancy_mean = occ_total / occ_n
    summary.top_victims = victims.most_common(5)
    return summary


def summarize_trace_file(path: Union[str, Path]) -> TraceSummary:
    """Read a JSONL trace file and summarize it."""
    return summarize_trace(read_trace(path))


def _rows(summary: TraceSummary) -> list[tuple[str, str]]:
    """(label, value) rows of the summary table."""
    rows: list[tuple[str, str]] = [
        ("events", str(summary.total_events)),
    ]
    if summary.step_range is not None:
        rows.append(
            ("steps", f"{summary.step_range[0]}..{summary.step_range[1]}")
        )
    for kind in sorted(summary.event_counts):
        rows.append((f"events[{kind}]", str(summary.event_counts[kind])))
    for side in sorted(summary.arrivals):
        rows.append((f"arrivals[{side}]", str(summary.arrivals[side])))
    if summary.null_arrivals:
        rows.append(("arrivals[−]", str(summary.null_arrivals)))
    for policy in sorted(summary.evictions_by_policy):
        rows.append(
            (f"evictions[{policy}]", str(summary.evictions_by_policy[policy]))
        )
    if summary.expired:
        rows.append(("evictions[window-expired]", str(summary.expired)))
    if summary.hits or summary.misses:
        total = summary.hits + summary.misses
        rate = summary.hits / total if total else 0.0
        rows.append(("cache hits", str(summary.hits)))
        rows.append(("cache misses", str(summary.misses)))
        rows.append(("hit rate", f"{rate:.3f}"))
    if summary.join_results:
        rows.append(("join results", str(summary.join_results)))
    if summary.flow_units:
        rows.append(("flow solver iterations", str(summary.flow_units)))
    if summary.occupancy_mean is not None:
        rows.append(
            (
                "occupancy min/mean/max",
                f"{summary.occupancy_min}/"
                f"{summary.occupancy_mean:.2f}/{summary.occupancy_max}",
            )
        )
    for label, n in summary.top_victims:
        rows.append((f"most evicted {label}", f"{n}×"))
    return rows


def format_trace_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as an aligned two-column table."""
    rows = _rows(summary)
    width = max((len(label) for label, _ in rows), default=0)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def format_metrics(snapshot: Mapping) -> str:
    """Render a recorder snapshot (counters/timers/series) as a table.

    Accepts the dict produced by
    :meth:`repro.obs.recorder.CounterRecorder.snapshot`; unknown keys
    are ignored so the format survives schema growth.
    """
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    series = snapshot.get("series", {})
    rows = [(name, str(counters[name])) for name in sorted(counters)]
    for name in sorted(timers):
        entry = timers[name]
        rows.append(
            (
                f"{name} (timer)",
                f"{entry['seconds']:.4f}s / {entry['calls']} calls",
            )
        )
    for name in sorted(series):
        entry = series[name]
        count = entry.get("count", 0)
        mean = entry.get("sum", 0.0) / count if count else 0.0
        rows.append(
            (
                f"{name} (series)",
                f"n={count} min={_fmt(entry.get('min'))} "
                f"mean={_fmt(mean)} max={_fmt(entry.get('max'))}",
            )
        )
    if not rows:
        return "(no metrics recorded)"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def _fmt(value: Optional[float]) -> str:
    """Compact numeric rendering: integral floats drop the fraction."""
    if value is None:
        return "-"
    if float(value) == int(value):
        return str(int(value))
    return f"{value:.4g}"


def collect_series(events: Iterable[Mapping]) -> dict[str, list[tuple[int, float]]]:
    """Group a trace's ``series`` events into per-name point lists.

    Points keep trace order (which is time order within one run);
    malformed series events — missing name or non-numeric value — are
    skipped per the forward-compatibility rule.
    """
    out: dict[str, list[tuple[int, float]]] = {}
    for ev in events:
        if ev.get("kind") != "series":
            continue
        name = ev.get("name")
        value = ev.get("value")
        t = ev.get("t")
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            continue
        out.setdefault(name, []).append(
            (t if isinstance(t, int) else 0, float(value))
        )
    return out


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted, non-empty value list."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def format_series_table(
    series_map: Mapping[str, Sequence[tuple[int, float]]],
    width: int = 48,
) -> str:
    """Render collected series as aligned rows with sparklines.

    One row per series: point count, min/mean/p50/max (exact — computed
    from the trace's raw points, unlike recorder snapshots, whose
    quantiles are histogram estimates within one factor-2 bucket), the
    final value, and a ``width``-cell
    :func:`~repro.obs.timeseries.sparkline` of the values in time order.
    """
    if not series_map:
        return "(no series events in trace)"
    rows = []
    for name in sorted(series_map):
        points = series_map[name]
        values = [v for _, v in points]
        if not values:
            continue
        mean = sum(values) / len(values)
        rows.append(
            (
                name,
                f"n={len(values)}",
                f"min={_fmt(min(values))}",
                f"mean={_fmt(mean)}",
                f"p50={_fmt(_percentile(values, 0.5))}",
                f"max={_fmt(max(values))}",
                f"last={_fmt(values[-1])}",
                sparkline(values, width=width),
            )
        )
    if not rows:
        return "(no series events in trace)"
    widths = [max(len(row[i]) for row in rows) for i in range(7)]
    return "\n".join(
        "  ".join(
            [*(cell.ljust(widths[i]) for i, cell in enumerate(row[:7])), row[7]]
        )
        for row in rows
    )


def serve_latency_histograms(
    series_map: Mapping[str, Sequence[tuple[int, float]]],
) -> dict[str, LogHistogram]:
    """Rebuild span-latency histograms from a trace's series points.

    Every ``serve.span.*_ms`` point is folded into a
    :class:`~repro.obs.hist.LogHistogram` — the fixed layout the live
    server fills — so a traced single-shard replay
    and a live ``/metrics`` scrape of the same run summarize latency
    with identical bucket boundaries.
    """
    hists: dict[str, LogHistogram] = {}
    for name in sorted(series_map):
        if not name.startswith(SERVE_SPAN_PREFIX):
            continue
        hist = LogHistogram(name)
        for _, value in series_map[name]:
            hist.observe(value)
        if hist.count:
            hists[name] = hist
    return hists


def format_serve_section(
    series_map: Mapping[str, Sequence[tuple[int, float]]],
) -> str:
    """Render the ``--serve`` report section from collected series.

    Summarizes the backpressure duty cycle (total blocked producer time
    over the run's uptime, both recorded as series by the server) and
    one percentile row per request-path span histogram.
    """
    rows: list[tuple[str, str]] = []
    wait_points = series_map.get("serve.backpressure.wait_ms", ())
    uptime_points = series_map.get("serve.uptime_ms", ())
    waited_ms = sum(v for _, v in wait_points)
    uptime_ms = uptime_points[-1][1] if uptime_points else None
    if uptime_ms:
        duty = min(1.0, waited_ms / uptime_ms)
        rows.append(
            (
                "backpressure duty cycle",
                f"{duty:.2%} (waited {waited_ms:.1f}ms "
                f"of {uptime_ms:.1f}ms uptime)",
            )
        )
    elif wait_points:
        rows.append(
            ("backpressure wait", f"{waited_ms:.1f}ms (no uptime series)")
        )
    for name, hist in serve_latency_histograms(series_map).items():
        pct = hist.percentiles()
        rows.append(
            (
                name,
                f"n={pct['count']} p50={_fmt(pct['p50'])} "
                f"p90={_fmt(hist.quantile(0.9))} "
                f"p99={_fmt(pct['p99'])} max={_fmt(pct['max'])}",
            )
        )
    if not rows:
        return "(no serve series in trace)"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def save_series_png(
    series_map: Mapping[str, Sequence[tuple[int, float]]],
    path: Union[str, Path],
) -> None:
    """Plot collected series to ``path`` as stacked PNG panels.

    matplotlib is an *optional* dependency of this one function; when it
    is not installed a :class:`RuntimeError` with installation guidance
    is raised and nothing is written.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise RuntimeError(
            "PNG export requires matplotlib, which is not installed; "
            "install it (pip install matplotlib) or use the ASCII "
            "--series table instead"
        ) from exc
    names = [n for n in sorted(series_map) if series_map[n]]
    if not names:
        raise RuntimeError("no series events to plot")
    fig, axes = plt.subplots(
        len(names), 1, figsize=(8, 2.2 * len(names)), squeeze=False
    )
    for ax, name in zip(axes[:, 0], names):
        points = series_map[name]
        ax.plot([t for t, _ in points], [v for _, v in points], linewidth=0.9)
        ax.set_title(name, fontsize=9)
        ax.grid(True, alpha=0.3)
    axes[-1, 0].set_xlabel("step")
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)


def _format_event(ev: Mapping) -> str:
    """One-line rendering of a raw event for ``--steps`` zooming."""
    kind = ev.get("kind", "?")
    t = ev.get("t", "?")
    rest = {k: v for k, v in ev.items() if k not in ("kind", "t")}
    return f"t={t:<6} {kind:<10} {rest}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: summarize a trace file, optionally zooming a step window."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a repro.obs JSONL trace file.",
    )
    parser.add_argument("trace", type=Path, help="trace file (JSONL)")
    parser.add_argument(
        "--steps",
        type=int,
        nargs=2,
        metavar=("FIRST", "LAST"),
        default=None,
        help="also print the raw events of steps FIRST..LAST inclusive",
    )
    parser.add_argument(
        "--series",
        action="store_true",
        help="render the trace's per-step series as sparkline tables",
    )
    parser.add_argument(
        "--png",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --series: also plot the series to a PNG "
        "(requires matplotlib)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="summarize serve-tier telemetry: backpressure duty cycle "
        "and request-path span latency histograms",
    )
    args = parser.parse_args(argv)

    bad_lines: list[str] = []
    events = read_trace(args.trace, strict=False, bad_lines=bad_lines)
    for bad in bad_lines:
        print(f"warning: {args.trace}:{bad} (line skipped)", file=sys.stderr)
    print(f"trace: {args.trace} ({len(events)} events)")
    print(format_trace_summary(summarize_trace(events)))
    if args.series or args.png is not None:
        series_map = collect_series(events)
        print(f"\nseries:\n{format_series_table(series_map)}")
        if args.png is not None:
            try:
                save_series_png(series_map, args.png)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {args.png}")
    if args.serve:
        print(f"\nserve:\n{format_serve_section(collect_series(events))}")
    if args.steps is not None:
        first, last = args.steps
        print(f"\nevents for steps {first}..{last}:")
        for ev in events:
            t = ev.get("t")
            if isinstance(t, int) and first <= t <= last:
                print(_format_event(ev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
