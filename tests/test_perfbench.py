"""Smoke run of every benchmark workload: seed-0 campaigns, untraced and traced.

Runs ``perfbench/run.py`` as a subprocess, as the benchmark itself is run,
so a change that breaks its imports, its tracer's hooks or a seed-0 output
digest fails here and not only in a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


WORKLOADS = ["envariance-sweep", "parity-sweep", "compile-large"]


# The traced runs wrap the package's functions and call hooks with their
# parameters, so they also fail when a traced signature changes.
@pytest.mark.parametrize("workload,trace", [
    pytest.param(workload, trace, id=workload if trace == "0" else f"{workload}-traced")
    for trace in ("0", "1") for workload in WORKLOADS
])
def test_workload_campaign_is_correct(workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", trace]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
