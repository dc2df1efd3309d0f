"""Smoke tests of the repo benchmark's command-line contract.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Every test drives ``run.py`` in a subprocess at ``--smoke`` scale with
``--seconds 0`` (one round), so the suite finishes in well under a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "suite" / "run.py"),
         "--seconds", "0", *args],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """``smoke(workload, seed=0, trace=0)``: (process, --out report) of
    one smoke run, run once per argument set for the whole session."""
    runs: dict = {}

    def run(workload: str, seed: int = 0, trace: int = 0):
        key = (workload, seed, trace)
        if key not in runs:
            out = tmp_path_factory.mktemp("out") / "report.json"
            proc = run_benchmark(ROOT, "--smoke", "--workload", workload,
                                 "--seed", str(seed), "--trace", str(trace),
                                 "--out", str(out))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            runs[key] = (proc, json.loads(out.read_text()))
        return runs[key]

    return run


def assert_prints_metrics(proc, kind: str) -> None:
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(
            line.split()[0] == name and line.split()[-1] == unit
            for line in lines if line.strip()
        ), f"no printed line for {name} [{unit}]"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_unit(smoke, workload):
    proc, _ = smoke(workload)
    assert_prints_metrics(proc, "end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_prints_every_per_layer_metric(smoke, workload):
    proc, _ = smoke(workload, trace=1)
    assert_prints_metrics(proc, "per_layer")


def test_seed_changes_totals_not_metric_names(smoke):
    proc0, report0 = smoke("join-lru", seed=0)
    proc1, report1 = smoke("join-lru", seed=1)
    assert report0["totals"] != report1["totals"]
    assert set(last_json(proc0)["metrics"]) == set(last_json(proc1)["metrics"])


def copy_suite(root: Path) -> None:
    """BENCHMARK.json and the suite directory, nothing else."""
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    shutil.copytree(SUITE, root / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_pin_fails_the_run(tmp_path):
    copy_suite(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    sizes_path = tmp_path / "benchmarks" / "suite" / "workloads.json"
    sizes = json.loads(sizes_path.read_text())
    # A full-scale run (pins are checked) on tiny inputs, with one pin off.
    sizes["join-lru"].update(single_ticks=200, sharded_ticks=100,
                             trial_ticks=50, batch_trials=2,
                             parallel_trials=2)
    sizes["join-lru"]["pins"] = {"0": {"single": -1}}
    sizes_path.write_text(json.dumps(sizes))
    proc = run_benchmark(tmp_path, "--workload", "join-lru", "--seed", "0")
    result = last_json(proc)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "CHECK FAILED pinned single total" in proc.stdout


def test_fails_without_package_source(tmp_path):
    copy_suite(tmp_path)
    proc = run_benchmark(tmp_path, "--workload", "join-lru")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
