"""Smoke test of the benchmark itself at a tiny run length.

    python3 -m pytest -q perfbench/tests

Every workload runs once untraced and once traced at ``--seconds 1``. The
tests check that every metric of BENCHMARK.json is printed with its unit and
that no request fails. Takes a few minutes on 2 cores.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result, report): the last two lines of standard output."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_request_fails(workload, trace):
    result, report = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert report["failed_frac"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_repeats_outputs_exactly():
    first, first_report = run("pack-plain", 0)
    proc = _run("pack-plain", 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    again, again_report = json.loads(lines[-1]), json.loads(lines[-2])
    assert again["metrics"]["energy_mean"] == first["metrics"]["energy_mean"]
    assert again_report["solution_digest"] == first_report["solution_digest"]


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("pack-plain", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
