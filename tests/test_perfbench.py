"""Smoke run of every benchmark workload: one seed-0 campaign each.

Runs ``perfbench/run.py`` as a subprocess, as the benchmark itself is run,
so a change that breaks its imports or moves a seed-0 output digest fails
here and not only in a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["envariance-sweep", "parity-sweep", "compile-large"])
def test_workload_campaign_is_correct(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
