"""The package's import graph: what ``import qghz`` exports and what start-up loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qghz

# Every name the package exports, each the same object as in its own module.
EXPORTS = {
    "analysis": ("FidelityReport", "LearningOutcome", "bhattacharyya", "perr_curve", "two_peak_distribution"),
    "circuits": ("Circuit", "Gate", "IllegalCouplingError", "OraclePattern", "build_envariance", "build_ghz",
                 "build_parity", "cnot_legal", "effective_a", "emit_qasm", "measured_circuit", "verify_legality"),
    "coupling": ("CouplingMap", "MapFormatError", "bundled_map", "line_map", "load_map", "load_map_file",
                 "most_connected", "rank_all", "resolve_map"),
    "paths": ("ConnectionPath", "UnreachableQubitsError", "create_path", "path_for"),
    "simulator": ("NoisySampleConfig", "exact_distribution", "sample", "sample_noisy_oracle"),
}

COMPILE = "from qghz import cli; assert cli.main(['compile', '--map', 'qx5', '--out', out, {}]) == 0"
START_UP = {
    "resolve": "import qghz; qghz.resolve_map('qx5')",
    "compile-ghz": COMPILE.format("'--experiment', 'ghz', '-n', '16', '--dump-path', '--dump-circuit'"),
    "compile-parity": COMPILE.format("'--experiment', 'parity', '-n', '4', '--pattern', '11'"),
}


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the same qghz as this process, installed or not."""
    src = str(Path(qghz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("case", START_UP.values(), ids=START_UP)
def test_start_up_leaves_numpy_unloaded(case, tmp_path):
    # Resolving a map and compiling do no array arithmetic and draw nothing.
    code = f"import sys; out = sys.argv[1]; {case}; sys.exit('numpy loaded' if 'numpy' in sys.modules else 0)"
    result = run_fresh(code, str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr


def test_every_export_resolves_from_a_fresh_import():
    code = (
        "import importlib, json, sys, qghz\n"
        "assert 'qghz.simulator' not in sys.modules\n"
        "assert qghz.simulator is sys.modules['qghz.simulator'] and qghz.kernels is sys.modules['qghz.kernels']\n"
        "assert qghz.analysis is sys.modules['qghz.analysis']\n"
        "for module, names in json.loads(sys.argv[1]).items():\n"
        "    for name in names:\n"
        "        assert getattr(qghz, name) is getattr(importlib.import_module('qghz.' + module), name), name\n"
    )
    result = run_fresh(code, json.dumps(EXPORTS))
    assert result.returncode == 0, result.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qghz.no_such_name
    assert not hasattr(qghz, "no_such_name")
