"""A standing table of seeded mutants, and a runner that checks each one is killed.

Each row is one small fault: an exact text in one file, replaced by another,
and the tests that must catch it. The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory (copying ``src/`` alone is not
enough: pytest's ``pythonpath = ["src"]`` would import the checkout's
unmutated package), applies one mutant at a time and runs only that row's
tests. It fails unless those tests fail, if a row's old text does not
occur exactly once in its file (so the table cannot rot silently), or if
the killing tests do not all pass on the unmutated copy.

Run from anywhere, with the test extras installed::

    python tests/mutants.py

See DeMillo, Lipton & Sayward 1978, "Hints on Test Data Selection" (IEEE
Computer), and Jia & Harman 2011, "An Analysis and Survey of the
Development of Mutation Testing" (IEEE TSE).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple[str, ...]  # pytest node ids; at least one must fail


CIRCUITS, COUPLING, SIMULATOR = "src/qghz/circuits.py", "src/qghz/coupling.py", "src/qghz/simulator.py"
ANALYSIS, CLI = "src/qghz/analysis.py", "src/qghz/cli.py"
VALIDATION = "tests/test_circuits.py::TestGateAndCircuitValidation::"
GATE_RULES = "tests/test_circuits.py::test_circuit_accepts_exactly_the_gate_rules"
BLOCK_EDGES = "tests/test_simulator.py::test_oracle_block_edges_match_the_generator"

MUTANTS = (
    Mutant("last sandwich Hadamard dropped", CIRCUITS,
           "return [h_control, h_target, cnot(target, control), h_target, h_control]",
           "return [h_control, h_target, cnot(target, control), h_target]",
           ("tests/test_acceptance.py::test_criterion_02_ghz_exactness",)),
    Mutant("parity CNOT reversed", CIRCUITS,
           "gates.extend(cnot_legal(cmap, new, anchor))",
           "gates.extend(cnot_legal(cmap, anchor, new))",
           ("tests/test_acceptance.py::test_criterion_09_circuit_oracle_crosscheck",)),
    Mutant("HALF pattern // 2 + 1", CIRCUITS,
           "return path.pairs[: len(path.involved()) // 2]",
           "return path.pairs[: len(path.involved()) // 2 + 1]",
           ("tests/test_circuits.py::TestBuildParity::test_half_places_first_floor_half_pairs",)),
    Mutant("most_connected ties to highest", COUPLING,
           "return max(range(len(rank)), key=rank.__getitem__)",
           "return max(reversed(range(len(rank))), key=rank.__getitem__)",
           ("tests/test_coupling.py::TestMostConnected::test_tie_breaks_to_lowest_index",)),
    Mutant("bits |= reach[owner] dropped", COUPLING,
           "bits |= reach[owner]",
           "bits |= 0",
           ("tests/test_acceptance.py::test_criterion_01_rank_oracle_equivalence",)),
    Mutant("block offset rep - rep[0]", ANALYSIS,
           "np.column_stack((count, rep))",
           "np.column_stack((count, rep - rep[0]))",
           ("tests/test_acceptance.py::test_criterion_07_parity_noiseless_law",)),
    Mutant("n_children_spawned offset dropped", SIMULATOR,
           "keys[:, :1] += seed.n_children_spawned",
           "keys[:, :1] += 0",
           ("tests/test_analysis.py::test_perr_curve_equals_one_count_curves",)),
    Mutant("vote rule <= -> <", ANALYSIS,
           "carries_a.sum(axis=1) <= noisy.sum(axis=1)",
           "carries_a.sum(axis=1) < noisy.sum(axis=1)",
           ("tests/test_acceptance.py::test_criterion_07_parity_noiseless_law",)),
    Mutant("CNOT sign rule negated", SIMULATOR,
           "signs ^= xs[c] & zs[t] & ~(xs[t] ^ zs[c])",
           "signs ^= xs[c] & zs[t] & (xs[t] ^ zs[c])",
           ("tests/test_simulator.py::TestTableauMatchesStatevector::test_random_circuits",)),
    Mutant("cx operands swapped in QASM", CIRCUITS,
           "lines += [_QASM[kind] % operands for kind, operands in circuit.gates]",
           "lines += [_QASM[kind] % (operands[::-1] if kind == CNOT else operands) for kind, operands in circuit.gates]",
           ("tests/test_circuits.py::TestEmitQasm::test_bell_text",)),
    Mutant("noise test < -> <=", SIMULATOR,
           "return noise_words < math.ceil",
           "return noise_words <= math.ceil",
           ("tests/test_simulator.py::test_raw_oracle_draws_match_the_generator",)),
    Mutant("carry halves read high first", SIMULATOR,
           '.astype("<u8", copy=False).view("<u4")',
           '.astype(">u8", copy=False).view(">u4")',
           ("tests/test_analysis.py::TestParityLearn::test_equals_literal_postselect_and_vote_learner",)),
    Mutant("I95 with ddof=0", ANALYSIS,
           "np.std(b_values, ddof=1)",
           "np.std(b_values, ddof=0)",
           ("tests/test_golden.py::test_outputs_match_golden_bytes[envariance-qx4-n5]",)),
    Mutant("cross-check reads counts[1, 0]", ANALYSIS,
           '"1" + a_string: int(counts[1, 1])',
           '"1" + a_string: int(counts[1, 0])',
           ("tests/test_acceptance.py::test_criterion_09_circuit_oracle_crosscheck",)),
    Mutant("support cap one late", SIMULATOR,
           "if below > most_below:",
           "if below > most_below + 1:",
           ("tests/test_simulator.py::TestSamplingMatchesFullWidthReference::test_involved_width_is_capped",)),
    Mutant("--reps limit + 1", CLI,
           "if not 1 <= value <= limit:",
           "if not 1 <= value <= limit + 1:",
           ("tests/test_cli.py::TestRunBounds::test_reps_out_of_range_is_one_error_line",)),
    Mutant("geometric sweep drops its end", CLI,
           "    return values + [end]",
           "    return values",
           ("tests/test_cli.py::TestParity::test_curve_files",)),
    Mutant("envariance --seed check dropped", CLI,
           '    if args.seed < 0:\n        raise UsageError(f"--seed must be non-negative, got {args.seed}")\n'
           '    _check_count("--shots"',
           '    _check_count("--shots"',
           ("tests/test_cli.py::TestRunBounds::test_negative_seed_is_one_error_line",)),
    Mutant("carry test halves >= 1 << 31 -> >", SIMULATOR,
           "halves >= 1 << 31",
           "halves > 1 << 31",
           ("tests/test_simulator.py::test_carry_boundary_is_the_top_bit_of_the_half",)),
    Mutant("noise threshold math.ceil -> math.floor", SIMULATOR,
           "math.ceil(eta * 2**53)",
           "math.floor(eta * 2**53)",
           ("tests/test_simulator.py::test_noise_boundary_is_the_generator_threshold[0.1]",)),
    Mutant("oracle carry cursor not advanced", SIMULATOR,
           "carry.advance(queries)",
           "carry.advance(0)",
           (BLOCK_EDGES,)),
    Mutant("oracle drops its last partial block", SIMULATOR,
           "for start in range(0, queries, BLOCK_OUTPUTS):",
           "for start in range(0, queries - queries % BLOCK_OUTPUTS, BLOCK_OUTPUTS):",
           (BLOCK_EDGES,)),
    Mutant("oracle eta = 0 shortcut taken at every eta", SIMULATOR,
           "noise = np.random.PCG64(seed) if config.eta > 0 else None",
           "noise = None",
           (BLOCK_EDGES,)),
    Mutant("oracle noise cursor read at eta = 0", SIMULATOR,
           "noise = np.random.PCG64(seed) if config.eta > 0 else None",
           "noise = np.random.PCG64(seed)",
           ("tests/test_simulator.py::test_oracle_draws_only_the_words_it_decodes",)),
    Mutant("coinciding cnot qubits accepted", CIRCUITS,
           "target.__class__ is int and control != target",
           "target.__class__ is int",
           (VALIDATION + "test_cnot_needs_distinct_operands",)),
    Mutant("measure rule dropped", CIRCUITS,
           "enumerate(gates[:end] if in_record else gates)",
           "enumerate(gate for gate in gates if gate[0] != MEASURE)",
           (VALIDATION + "test_measure_classical_bit_must_be_declared",
            VALIDATION + "test_measures_must_be_the_measurement_record")),
    Mutant("operand int test dropped", CIRCUITS,
           "len(operands) == 1 and operands[0].__class__ is int",
           "len(operands) == 1",
           (GATE_RULES,)),
    Mutant("operand tuple test dropped", CIRCUITS,
           "if operands.__class__ is tuple:",
           "if True:",
           (GATE_RULES,)),
    Mutant("measure record operand classes unchecked", CIRCUITS,
           "all(q.__class__ is int and j.__class__ is int",
           "all(True",
           (GATE_RULES,)),
    Mutant("h/x range test < -> <=", CIRCUITS,
           "and 0 <= operands[0] < width):",
           "and 0 <= operands[0] <= width):",
           (VALIDATION + "test_circuit_rejects_out_of_range_qubits",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.file).read_text().count(mutant.old)


def run_pytest(work: Path, tests) -> int:
    """pytest's exit code for ``tests`` run in ``work`` on its own copy of the package: 0 all passed, 1 some failed."""
    # No bytecode: a restored source of the mutant's size and second could reuse its cached code.
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests],
        cwd=work, env=env, capture_output=True, text=True, timeout=900,
    ).returncode


def run_killers(mutant: Mutant, work: Path) -> int:
    """run_pytest for the row's tests with the mutant applied in ``work``; the file is restored after."""
    path = work / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        return run_pytest(work, mutant.killers)
    finally:
        path.write_text(original)


def main() -> int:
    stale = [f"{m.name}: old text occurs {n} times in {m.file}" for m in MUTANTS if (n := occurrences(m)) != 1]
    if stale:
        print("\n".join(stale))
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        # A killing test that fails on the unmutated code would kill every mutant.
        if run_pytest(work, sorted({test for mutant in MUTANTS for test in mutant.killers})) != 0:
            print("the killing tests do not all pass on the unmutated code")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            code = run_killers(mutant, work)
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{status:<22} {mutant.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
            if code != 1:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
