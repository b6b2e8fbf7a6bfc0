"""The experiment scripts run end to end on a tiny budget, so a renamed or
removed library name they import does not go unnoticed."""

import json
import subprocess
import sys

import pytest

from helpers import REPO, subprocess_env


@pytest.mark.parametrize("script,args", [
    ("run_archetypes.py", ["--iterations", "2", "--out-dir", "out"]),
    ("time_sweep.py", ["--unit", "2", "--runs", "1", "--out", "sweep.csv"]),
    ("model_digest.py", ["--instances", "2", "--iterations", "10"]),
])
def test_script_exits_0(tmp_path, script, args):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    if script == "run_archetypes.py":  # an iteration budget is not a wall-clock one
        solution = json.loads((tmp_path / "out" / "archetype_01_solution.json").read_text())
        assert solution["iterations"] == 2
        assert "time_limit" not in solution
