"""Golden outputs: fixed CLI runs whose files must not change by a single byte.

Each case reruns one command and compares every file it writes with the copy
committed under ``tests/golden/<case>/``. The cases are the three
criterion-11 commands, the full-width envariance run on qx5, a parity run
with the circuit cross-check, and two compiles that dump their path and gate
list: a one-qubit GHZ (no path pairs) and an envariance circuit on qx4 with
inverse-CNOT sandwiches. Each case is also replayed from its own
manifest.json, with no argv but what the manifest and results.json record.
``COMPILE_STDOUT`` is what each compile case prints; ``tests/test_cli.py``
and ``tests/check_numpy_free_compile.py`` compare it line for line.
Regenerate the copies only when outputs are meant to change, and record
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from qghz.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "compile-parity-qx5-n15": [
        "compile", "--map", "qx5", "--experiment", "parity", "-n", "15",
        "--pattern", "10", "--dump-path", "--dump-circuit",
    ],
    "envariance-qx4-n5": [
        "envariance", "--map", "qx4", "-n", "5", "--shots", "1024", "--reps", "5", "--seed", "17",
    ],
    "parity-qx5-n4-eta0.25": [
        "parity", "--map", "qx5", "-n", "4", "--pattern", "11", "--eta", "0.25",
        "--queries", "1:32", "--reps", "100", "--seed", "23",
    ],
    "envariance-qx5-n16": [
        "envariance", "--map", "qx5", "-n", "16", "--shots", "8192", "--reps", "100", "--seed", "0",
    ],
    "parity-qx5-n4-cross-check": [
        "parity", "--map", "qx5", "-n", "4", "--pattern", "10", "--eta", "0.1",
        "--queries", "1:64", "--reps", "50", "--seed", "3", "--cross-check",
    ],
    "compile-ghz-qx5-n1": [
        "compile", "--map", "qx5", "--experiment", "ghz", "-n", "1", "--dump-path", "--dump-circuit",
    ],
    "compile-envariance-qx4-n5": [
        "compile", "--map", "qx4", "--experiment", "envariance", "-n", "5", "--dump-path", "--dump-circuit",
    ],
}

# The stdout lines of each compile case; "{qasm}" stands for the circuit.qasm path under --out.
COMPILE_STDOUT = {
    "compile-parity-qx5-n15": [
        "effective a: 111111110000000",
        "wrote {qasm} (16 qubits, 59 gates: {'h': 35, 'cnot': 8, 'measure': 16})",
    ],
    "compile-ghz-qx5-n1": ["wrote {qasm} (16 qubits, 2 gates: {'h': 1, 'measure': 1})"],
    "compile-envariance-qx4-n5": ["wrote {qasm} (5 qubits, 27 gates: {'h': 13, 'cnot': 4, 'x': 5, 'measure': 5})"],
}


def assert_golden_bytes(case: str, out: Path) -> None:
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), f"{case}/{name} differs"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path):
    out = tmp_path / case
    assert main(CASES[case] + ["--out", str(out)]) == 0
    assert_golden_bytes(case, out)


# The CLI flag of each manifest parameter; effective_a follows from the map and the pattern.
FLAGS = {"experiment": "--experiment", "n": "-n", "pattern": "--pattern", "eta": "--eta", "queries": "--queries",
         "repetitions": "--reps", "seed": "--seed", "shots": "--shots"}
DUMPS = {"path.json": "--dump-path", "circuit.json": "--dump-circuit"}


def replay_argv(case_dir: Path) -> list[str]:
    """The run's argv, rebuilt from its manifest.json, plus --cross-check when results.json holds its distance."""
    manifest = json.loads((case_dir / "manifest.json").read_text())
    argv = [manifest["command"], "--map", manifest["map_name"]]
    for name, value in manifest["parameters"].items():
        if name != "effective_a":
            argv += [FLAGS[name], ",".join(map(str, value)) if name == "queries" else str(value)]
    argv += [DUMPS[name] for name in manifest["output_paths"] if name in DUMPS]
    results = case_dir / "results.json"
    if results.exists() and "cross_check_tv" in json.loads(results.read_text()):
        argv.append("--cross-check")
    return argv


@pytest.mark.parametrize("case", sorted(p.name for p in GOLDEN.iterdir()))
def test_manifest_replays_the_run(case, tmp_path):
    """A run on a bundled map is reproduced byte for byte from its manifest (and results.json for --cross-check)."""
    out = tmp_path / case
    assert main(replay_argv(GOLDEN / case) + ["--out", str(out)]) == 0
    assert_golden_bytes(case, out)


def regenerate() -> None:
    """Rewrite every golden directory from the current code."""
    for case, argv in CASES.items():
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        if main(argv + ["--out", str(GOLDEN / case)]) != 0:
            raise SystemExit(f"{case}: command failed")


if __name__ == "__main__":
    regenerate()
