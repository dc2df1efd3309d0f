"""Repo benchmark: every execution tier on the same seeded paper workloads.

Run from the repository root::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

One run builds one workload's inputs from ``--seed`` (``workloads.py``)
and measures them in rounds until ``--seconds`` is used up:

* ``--trace 0`` (``tiers.py``) times every tier — the scalar simulator
  with and without a ``CounterRecorder``, the batch and parallel
  engines, the closed-loop server on 1 shard, 4 shards and 4 counted
  shards, and an open-loop server run for latency — and checks that
  their outputs agree, with each other and with the totals pinned in
  ``workloads.json``;
* ``--trace 1`` (``layers.py``) runs the traced layer ladder instead.

Every time is normalized to the host's uncontended speed (``speed.py``).
Metric names and units come from ``BENCHMARK.json`` at the repository
root (``end_to_end`` or ``per_layer``).  The run prints one line per
metric and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out`` also writes that
object, with the totals and round counts, to a file.

Without ``--workload`` every workload runs in its own subprocess and the
last line merges their results under ``<workload>/<metric>``.
``--smoke`` divides every tick count by ten, runs one round and one
set-up, and skips the pins.  The exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]

MIN_ROUNDS = 3
#: ``setup_s`` is the median of this many set-ups.
SETUPS = 3
SMOKE_DIVISOR = 10
#: Per-workload subprocess limit when running every workload.
CHILD_TIMEOUT_S = 900


def smoke_sizes(sizes: dict) -> dict:
    scaled = dict(sizes)
    for key in ("single_ticks", "sharded_ticks", "trial_ticks"):
        scaled[key] = max(1, sizes[key] // SMOKE_DIVISOR)
    for key in ("batch_trials", "parallel_trials"):
        scaled[key] = max(2, sizes[key] // SMOKE_DIVISOR)
    return scaled


def measure(args, spec: dict) -> dict:
    """Set up one workload, run one pass, check it; return the report."""
    from speed import SpeedMeter
    from workloads import Checks, build_workload, load_sizes

    sizes = load_sizes()[args.workload]
    if args.smoke:
        sizes = smoke_sizes(sizes)
    meter = SpeedMeter()
    # Normalized (streams, policy) seconds per set-up; the run uses the
    # last set-up's workload.
    setups = []
    for _ in range(1 if args.smoke else SETUPS):
        w, speed = meter.around(build_workload, args.workload, args.seed,
                                sizes)
        setups.append((w.streams_s * speed, w.policy_s * speed))
    streams_s, policy_s = (statistics.median(x) for x in zip(*setups))
    # Imports and inputs live for the whole run: keep them out of the
    # collection each measured call starts with (see SpeedMeter).
    gc.freeze()

    checks = Checks()
    if args.trace:
        import layers

        values, report = layers.measure(w, checks, meter, args.seconds)
        values["setup.streams_s"] = streams_s
        values["setup.policy_s"] = policy_s
        names = spec["per_layer"]
    else:
        import tiers

        pins = None if args.smoke else sizes["pins"].get(str(args.seed))
        values, report = tiers.measure(
            w, checks, meter, args.seconds,
            1 if args.smoke else MIN_ROUNDS, pins,
        )
        values["setup_s"] = statistics.median(sum(s) for s in setups)
        names = spec["end_to_end"]

    metrics = {}
    for entry in names:
        if entry["name"] in values:
            metrics[entry["name"]] = {
                "value": values[entry["name"]], "unit": entry["unit"]
            }
        else:
            checks.mismatches.append(f"metric {entry['name']} not measured")
    report.update(
        workload=args.workload,
        seed=args.seed,
        host_speed=statistics.median(meter.speeds),
        mismatches=checks.mismatches,
        result={
            "correct": checks.correct,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        },
    )
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['rounds']} rounds, {result['attempted']} ticks attempted, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / result['attempted']:g}), median host speed "
          f"{report['host_speed']:.3f} of nominal")
    if "totals" in report:
        print("totals " + " ".join(
            f"{family}={total}" for family, total in report["totals"].items()))
        print("open-loop latency samples per round: "
              + " ".join(str(n) for n in report["latency_samples"]))
    for message in report["mismatches"]:
        print(f"CHECK FAILED {message}")
    for name, metric in result["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)


def run_all(args, spec: dict) -> int:
    """Run every workload in a fresh subprocess; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args, spec)
    report = measure(args, spec)
    print_report(report)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
