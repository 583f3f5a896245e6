"""The benchmark's smoke run of each workload, from the repository root, as
``BENCHMARK.json`` runs it: its checks, made outside the program (each
envelope's associated data and MAC re-derived among them), must all hold.

    python3 perfbench/run.py --workload chat|group|churn --smoke
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["chat", "group", "churn"])
def test_smoke_run_is_correct(workload):
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
