"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Expected values come from the independent oracles in oracles.py, never from
the code paths under test.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import random_connected_map, random_digraph
from helpers import line_map
from oracles import binomial_4sigma, closure_ranks, exact_perr, run_exact
from qghz.analysis import circuit_oracle_crosscheck, perr_curve
from qghz.circuits import (
    CNOT,
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    effective_a,
    verify_legality,
)
from qghz.cli import main as cli_main
from qghz.coupling import CouplingMap, bundled_map, most_connected, rank_all
from qghz.paths import create_path, path_for
from qghz.simulator import NoisySampleConfig

INV_SQRT2 = 2 ** -0.5

TESTED_NS = {"qx4": range(2, 6), "qx5": range(2, 17)}
PROTOCOL_NS = {"qx4": (2, 3, 5), "qx5": (2, 3, 5, 7, 9, 12, 14, 16)}


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


def _rooted_path(cmap: CouplingMap, n: int):
    return create_path(cmap, most_connected(rank_all(cmap)), n)


def test_criterion_01_rank_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(1))
    start = time.perf_counter()
    for _ in range(500):
        cmap = random_digraph(rng, max_qubits=10)
        expected = closure_ranks(cmap.num_qubits, cmap.edges)
        if rank_all(cmap).tolist() != expected:
            _report(1, "rank oracle equivalence", False, f"mismatch on {sorted(cmap.edges)}")
    elapsed = time.perf_counter() - start
    _report(1, "rank oracle equivalence", elapsed < 5.0, f"500 digraphs in {elapsed:.2f}s")


def test_criterion_02_ghz_exactness():
    checked = 0
    for map_name, ns in TESTED_NS.items():
        cmap = bundled_map(map_name)
        for n in ns:
            path = _rooted_path(cmap, n)
            amps = run_exact(build_ghz(cmap, path)).amplitudes
            ones_index = sum(1 << q for q in path.involved())
            peaks = np.zeros(len(amps), dtype=bool)
            peaks[[0, ones_index]] = True
            ok = (
                abs(amps[0] - INV_SQRT2) < 1e-12
                and abs(amps[ones_index] - INV_SQRT2) < 1e-12
                and np.all(np.abs(amps[~peaks]) < 1e-12)
            )
            if not ok:
                _report(2, "GHZ exactness", False, f"{map_name} n={n}")
            checked += 1
    _report(2, "GHZ exactness", True, f"{checked} (map, n) combinations, two-peak within 1e-12")


def test_criterion_03_envariance_identity():
    checked = 0
    for map_name, ns in TESTED_NS.items():
        cmap = bundled_map(map_name)
        for n in ns:
            path = _rooted_path(cmap, n)
            ghz = run_exact(build_ghz(cmap, path)).amplitudes
            env = run_exact(build_envariance(cmap, path)).amplitudes
            if not np.all(np.abs(ghz - env) < 1e-12):
                _report(3, "envariance identity", False, f"{map_name} n={n}")
            checked += 1
    _report(3, "envariance identity", True, f"{checked} states equal within 1e-12 per amplitude")


def test_criterion_04_simulated_fidelity(tmp_path):
    import json

    worst = 1.0
    for map_name, ns in PROTOCOL_NS.items():
        for n in ns:
            out = tmp_path / f"{map_name}-{n}"
            code = cli_main([
                "envariance", "--map", map_name, "-n", str(n),
                "--shots", "8192", "--reps", "10", "--seed", "0", "--out", str(out),
            ])
            assert code == 0
            results = json.loads((out / "results.json").read_text())
            assert "i95" in results and results["i95"] >= 0.0
            worst = min(worst, results["b_mean"])
            if results["b_mean"] < 0.995:
                _report(4, "simulated fidelity", False, f"{map_name} n={n} b_mean={results['b_mean']:.4f}")
    _report(4, "simulated fidelity", True, f"8192 shots x 10 reps, worst b_mean={worst:.6f} >= 0.995")


def test_criterion_05_legality_everywhere():
    rng = np.random.Generator(np.random.PCG64(5))
    circuits = 0
    failures = 0

    def check_all(cmap, n):
        nonlocal circuits, failures
        path = _rooted_path(cmap, n)
        built = [build_ghz(cmap, path), build_envariance(cmap, path)]
        built += [build_parity(cmap, path, pattern) for pattern in OraclePattern]
        for circuit in built:
            circuits += 1
            failures += len(verify_legality(cmap, circuit))

    for map_name, ns in TESTED_NS.items():
        for n in ns:
            check_all(bundled_map(map_name), n)
    for _ in range(200):
        cmap = random_connected_map(rng, max_qubits=16)
        check_all(cmap, int(rng.integers(2, cmap.num_qubits + 1)))
    _report(5, "legality", failures == 0, f"{circuits} circuits, {failures} violations")


def test_criterion_06_gate_count_audit():
    for map_name, ns in TESTED_NS.items():
        cmap = bundled_map(map_name)
        for n in ns:
            path = _rooted_path(cmap, n)
            circuit = build_ghz(cmap, path)
            reversed_pairs = sum(
                1 for new, anchor in path.pairs if not cmap.has_edge(anchor, new)
            )
            counts = circuit.counts()
            ok = (
                counts.get(CNOT, 0) == n - 1
                and counts.get("h", 0) == 1 + 4 * reversed_pairs
                and counts.get("measure", 0) == n
                and len(circuit.gates) == 1 + (n - 1) + 4 * reversed_pairs
            )
            if not ok:
                _report(6, "gate-count audit", False, f"{map_name} n={n}: {counts}")
    _report(6, "gate-count audit", True, "1 + (n-1) logical gates, +4 H per reversed pair, n measurements")


def test_criterion_07_parity_noiseless_law():
    reps = 10_000
    start = time.perf_counter()
    worst_pull = 0.0
    for queries in range(1, 9):
        config = NoisySampleConfig(eta=0.0, a_string="111")
        p_err = perr_curve(config, [queries], reps, seed=700 + queries)[0]
        expected = 2.0**-queries
        band = binomial_4sigma(expected, reps)
        worst_pull = max(worst_pull, abs(p_err - expected) / band)
        if abs(p_err - expected) >= band:
            _report(7, "parity noiseless law", False,
                    f"N={queries}: p_err={p_err:.5f} vs 2^-N={expected:.5f}")
    elapsed = time.perf_counter() - start
    _report(7, "parity noiseless law", elapsed < 30.0,
            f"N=1..8, M={reps}, worst pull {worst_pull:.2f} of 4-sigma band, {elapsed:.1f}s")


def test_criterion_08_parity_noisy_oracle_equivalence():
    reps = 4000
    combos = 0
    for eta in (0.1, 0.25):
        for queries in range(1, 9):
            for n in (1, 2, 3):
                config = NoisySampleConfig(eta=eta, a_string="1" * n)
                p_err = perr_curve(config, [queries], reps, seed=8000 + combos)[0]
                expected = exact_perr(eta, queries)
                band = binomial_4sigma(expected, reps)
                combos += 1
                if abs(p_err - expected) >= band:
                    _report(8, "parity noisy oracle equivalence", False,
                            f"eta={eta} N={queries} n={n}: {p_err:.4f} vs {expected:.4f}")
    _report(8, "parity noisy oracle equivalence", True,
            f"{combos} (eta, N, n) combinations within 4 sigma of enumeration oracle")


def test_criterion_09_circuit_oracle_crosscheck():
    worst = 0.0
    cmap = bundled_map("qx4")
    for n in (1, 2, 3, 4):
        path = path_for(cmap, n + 1)
        for pattern in (OraclePattern.ALL_ONES, OraclePattern.HALF):
            circuit = build_parity(cmap, path, pattern)
            tv = circuit_oracle_crosscheck(circuit, effective_a(path, pattern), shots=100_000, seed=90 + n)
            worst = max(worst, tv)
            if tv >= 0.02:
                _report(9, "circuit/oracle cross-check", False, f"n={n} {pattern.value}: TV={tv:.4f}")
    _report(9, "circuit/oracle cross-check", True, f"n<=4, 1e5 shots, worst TV={worst:.4f} < 0.02")


def test_criterion_10_quadratic_scaling():
    sizes = [16, 32, 64, 128, 256]
    times = []
    for n in sizes:
        cmap = line_map(n)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            ranks = rank_all(cmap)
            create_path(cmap, most_connected(ranks), n)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    detail = f"log-log slope {slope:.2f} over n={sizes}"
    _report(10, "quadratic scaling", slope <= 2.3, detail)


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        ["compile", "--map", "qx5", "--experiment", "parity", "-n", "15",
         "--pattern", "10", "--dump-path", "--dump-circuit"],
        ["envariance", "--map", "qx4", "-n", "5", "--shots", "1024", "--reps", "5", "--seed", "17"],
        ["parity", "--map", "qx5", "-n", "4", "--pattern", "11", "--eta", "0.25",
         "--queries", "1:32", "--reps", "100", "--seed", "23"],
    ]
    compared = 0
    for i, command in enumerate(commands):
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli_main(command + ["--out", str(out_a)]) == 0
        assert cli_main(command + ["--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            compared += 1
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                _report(11, "CLI determinism", False, f"{command[0]}: {name} differs")
    _report(11, "CLI determinism", True, f"{compared} files byte-identical across reruns")
