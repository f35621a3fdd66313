"""Correctness gate: every operation's outputs checked against independent oracles.

Runs outside the timed region. Expected values come from ``tests/oracles.py``
(closure ranks, union-find tree check, QASM reparse, exact learner error) and
from the map documents the benchmark generated itself, never from the package
code under test. Every check here holds at any workload seed; the sha256
digests are compared separately, against the first campaign of the run and
against the digests recorded for a few seeds in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from oracles import check_spanning_tree, closure_ranks, exact_perr, reparse_qasm

DIGESTED_FILES = ("circuit.qasm", "results.json", "results.csv")
CROSSCHECK_TV_BOUND = 0.02
# Two-sided binomial tail below which a sampled p_err is called wrong. At
# about 100 checked points per seed this misfires once in ~10^7 seeds.
BINOMIAL_ALPHA = 1e-9
# Error-law points recomputed from the rational oracle in every run, to tie
# the committed table to tests/oracles.py; larger N cost seconds each.
LIVE_PERR_MAX_QUERIES = 64


class CheckFailure(AssertionError):
    """An operation's output disagrees with its oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each digested result file the operation wrote."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in DIGESTED_FILES
        if (out_dir / name).is_file()
    }


def binomial_consistent(p: float, trials: int, hits: int) -> bool:
    """True unless ``hits`` sits in a binomial(trials, p) tail of mass < BINOMIAL_ALPHA."""
    pmf = [math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k) for k in range(trials + 1)]
    return min(sum(pmf[hits:]), sum(pmf[: hits + 1])) >= BINOMIAL_ALPHA


def perr_key(eta: float, queries: int) -> str:
    return f"{eta!r}/{queries}"


class Checker:
    """Checks one campaign's operations; oracle values are computed once per run."""

    def __init__(self, maps: dict[str, dict], perr_table: dict[str, float]):
        self.maps = maps
        self.perr_table = perr_table
        self._edges = {spec: {tuple(e) for e in doc["edges"]} for spec, doc in maps.items()}
        self._ranks: dict[str, list[int]] = {}
        for key, value in perr_table.items():
            eta, queries = key.split("/")
            if int(queries) <= LIVE_PERR_MAX_QUERIES:
                live = exact_perr(Fraction(eta), int(queries))
                _require(live == value, f"reference p_err {key} = {value} but the oracle gives {live}")

    def ranks(self, spec: str) -> list[int]:
        if spec not in self._ranks:
            doc = self.maps[spec]
            self._ranks[spec] = closure_ranks(doc["num_qubits"], [tuple(e) for e in doc["edges"]])
        return self._ranks[spec]

    def root(self, spec: str) -> int:
        ranks = self.ranks(spec)
        return ranks.index(max(ranks))

    def check(self, op, out_dir: Path, stdout: str) -> int:
        """Raise CheckFailure on any wrong output; return the gates emitted."""
        if op.kind == "rank":
            self._check_rank(op, stdout)
            return 0
        ops = self._check_qasm(op, out_dir)
        if op.kind == "envariance":
            self._check_envariance(op, out_dir, ops)
        elif op.kind == "parity":
            self._check_parity(op, out_dir, ops)
        else:
            self._check_compile(op, out_dir, ops)
        return len(ops)

    def _check_rank(self, op, stdout: str) -> None:
        report = json.loads(stdout)
        ranks = self.ranks(op.params["map"])
        _require(report["ranks"] == ranks, "ranks differ from the transitive-closure oracle")
        _require(report["root"] == self.root(op.params["map"]), "root is not the lowest-index top rank")

    def _check_qasm(self, op, out_dir: Path) -> list[tuple]:
        spec = op.params["map"]
        width, creg, ops = reparse_qasm((out_dir / "circuit.qasm").read_text())
        _require(width == self.maps[spec]["num_qubits"], f"qreg width {width} is not the map size")
        edges = self._edges[spec]
        illegal = [o for o in ops if o[0] == "cx" and (o[1], o[2]) not in edges]
        _require(not illegal, f"cx not on a directed map edge: {illegal[:3]}")
        measured = [o for o in ops if o[0] == "measure"]
        _require(len({o[1] for o in measured}) == len(measured) == creg, "measured qubits are not distinct")
        _require(sorted(o[2] for o in measured) == list(range(creg)), "classical bits are not 0..creg-1")
        return ops

    @staticmethod
    def _kinds(ops) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in ops:
            counts[o[0]] = counts.get(o[0], 0) + 1
        return counts

    def _check_envariance(self, op, out_dir: Path, ops) -> None:
        n, shots, reps = op.params["n"], op.params["shots"], op.params["reps"]
        kinds = self._kinds(ops)
        _require(kinds.get("measure") == n and kinds.get("x") == n and kinds.get("cx") == n - 1,
                 f"envariance gate counts {kinds} for n={n}")
        first = next(o for o in ops if o[0] == "measure" and o[2] == 0)
        _require(first[1] == self.root(op.params["map"]), "bit 0 does not measure the top-ranked root")
        results = json.loads((out_dir / "results.json").read_text())
        histograms = results["histograms"]
        _require(len(histograms) == reps == len(results["b_values"]), "wrong repetition count")
        peaks = {"0" * n, "1" * n}
        for hist, b in zip(histograms, results["b_values"]):
            _require(set(hist) <= peaks, f"outcomes outside the two GHZ peaks: {sorted(set(hist) - peaks)[:3]}")
            _require(sum(hist.values()) == shots, "histogram counts do not sum to shots")
            expected_b = sum(math.sqrt(c / shots * 0.5) for c in hist.values())
            _require(abs(b - expected_b) <= 1e-12, f"B={b} but the histogram gives {expected_b}")
        rows = (out_dir / "results.csv").read_text().splitlines()
        _require(len(rows) == reps + 1, "results.csv has the wrong number of rows")

    def _check_parity(self, op, out_dir: Path, ops) -> None:
        n, pattern, eta, reps = op.params["n"], op.params["pattern"], op.params["eta"], op.params["reps"]
        _require(self._kinds(ops).get("measure") == n + 1, "parity circuit must measure n + 1 qubits")
        results = json.loads((out_dir / "results.json").read_text())
        a = results["effective_a"]
        _require(len(a) == n and set(a) <= {"0", "1"}, f"bad effective a {a!r}")
        _require(pattern != "11" or a == "1" * n, "pattern 11 must encode all ones")
        _require(pattern != "00" or a == "0" * n, "pattern 00 must encode all zeros")
        points = results["p_err"]
        _require([p["queries"] for p in points] == op.params["queries"], "wrong query counts")
        for point in points:
            failures = round(point["p_err"] * reps)
            _require(failures / reps == point["p_err"], f"p_err {point['p_err']} is not a count over {reps}")
            if "1" not in a:
                # With a = 0^n every kept sample is 0^n, so the vote never misses.
                _require(failures == 0, f"a = 0^n but p_err = {point['p_err']}")
                continue
            expected = self.perr_table[perr_key(eta, point["queries"])]
            _require(binomial_consistent(expected, reps, failures),
                     f"N={point['queries']}: p_err {point['p_err']} vs exact {expected:.3g} over {reps} reps")
        if op.params["cross_check"]:
            tv = results["cross_check_tv"]
            _require(0.0 <= tv < CROSSCHECK_TV_BOUND, f"cross_check_tv {tv} >= {CROSSCHECK_TV_BOUND}")
        rows = (out_dir / "results.csv").read_text().splitlines()
        _require(len(rows) == len(points) + 1, "results.csv has the wrong number of rows")

    def _check_compile(self, op, out_dir: Path, ops) -> None:
        spec, experiment, n = op.params["map"], op.params["experiment"], op.params["n"]
        involved = n + 1 if experiment == "parity" else n
        path = json.loads((out_dir / "path.json").read_text())
        pairs = [tuple(p) for p in path["pairs"]]
        _require(path["root"] == self.root(spec), "path root is not the top-ranked qubit")
        check_spanning_tree(path["root"], pairs, involved)
        edges = self._edges[spec]
        _require(all((a, b) in edges or (b, a) in edges for a, b in pairs), "path pair is not a coupling")
        kinds = self._kinds(ops)
        cx = [(o[1], o[2]) for o in ops if o[0] == "cx"]
        if experiment == "parity":
            # Logical CNOTs run new -> anchor; the pattern picks all, the first
            # floor(involved / 2), or none of the pairs.
            placed = {"11": len(pairs), "10": involved // 2, "00": 0}[op.params["pattern"]]
            logical = pairs[:placed]
            closing_h = 2 * n + 1
            measures = involved
        else:
            logical = [(anchor, new) for new, anchor in pairs]
            closing_h = 1
            measures = n if experiment == "ghz" else involved
            _require(kinds.get("x", 0) == (n if experiment == "envariance" else 0), f"x count {kinds}")
        reversed_pairs = sum(1 for c, t in logical if (c, t) not in edges)
        _require(sorted(tuple(sorted(p)) for p in cx) == sorted(tuple(sorted(p)) for p in logical),
                 "cx gates do not follow the path pairs")
        _require(kinds.get("h", 0) == closing_h + 4 * reversed_pairs,
                 f"h count {kinds.get('h', 0)} != {closing_h} + 4 x {reversed_pairs} reversed")
        _require(kinds.get("measure", 0) == measures, f"measure count {kinds.get('measure', 0)} != {measures}")
