"""Independent reference computations used to pin expected test values.

Everything here is deliberately written against the underlying math, not
against the package code paths it checks: reachability ranks come from a
boolean-matrix closure, tree checks from union-find, QASM checks from a
line-oriented reparse, and the learner error rate from exact enumeration
with rational arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

import numpy as np


def closure_ranks(num_qubits: int, edges) -> list[int]:
    """Rank of each node = column sums of the transitive closure (no diagonal).

    Floyd-Warshall style boolean closure; O(n^3), fine for test sizes.
    """
    reach = np.zeros((num_qubits, num_qubits), dtype=bool)
    for c, t in edges:
        reach[c, t] = True
    for k in range(num_qubits):
        reach |= np.outer(reach[:, k], reach[k, :])
    np.fill_diagonal(reach, False)
    return [int(x) for x in reach.sum(axis=0)]


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def check_spanning_tree(root: int, pairs, requested: int) -> None:
    """Assert the (new, anchor) pair list forms a tree spanning `requested` nodes."""
    assert len(pairs) == requested - 1
    nodes = {root}
    uf_ids = {root: 0}
    for new, _anchor in pairs:
        assert new not in uf_ids, f"node {new} attached twice"
        uf_ids[new] = len(uf_ids)
        nodes.add(new)
    uf = UnionFind(len(uf_ids))
    for new, anchor in pairs:
        assert anchor in uf_ids, f"anchor {anchor} not connected before use"
        assert uf.union(uf_ids[new], uf_ids[anchor]), "cycle in path pairs"
    assert len(nodes) == requested


def exact_perr(eta: float | Fraction, queries: int) -> float:
    """Exact learner error probability by enumeration, for a != 0^n.

    Postselected count K ~ Binomial(queries, 1/2); among K kept samples the
    number carrying the encoded string is c ~ Binomial(K, 1 - eta); the
    bitwise vote recovers the string iff c > K/2 (ties resolve to zeros and
    therefore fail). Rational arithmetic end to end.
    """
    eta = Fraction(eta).limit_denominator(10**9)
    fail = Fraction(0)
    half = Fraction(1, 2) ** queries
    for k in range(queries + 1):
        p_k = comb(queries, k) * half
        for c in range(k + 1):
            if 2 * c <= k:  # vote fails on ties
                p_c = comb(k, c) * (1 - eta) ** c * eta ** (k - c)
                fail += p_k * p_c
    return float(fail)


def binomial_4sigma(p: float, trials: int) -> float:
    """Half-width of a 4-standard-error band around a binomial proportion."""
    return 4.0 * np.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)


_QASM_LINE = re.compile(
    r"^(?:OPENQASM 2\.0;"
    r"|include \"qelib1\.inc\";"
    r"|qreg q\[(\d+)\];"
    r"|creg c\[(\d+)\];"
    r"|h q\[(\d+)\];"
    r"|x q\[(\d+)\];"
    r"|cx q\[(\d+)\],q\[(\d+)\];"
    r"|measure q\[(\d+)\] -> c\[(\d+)\];)$"
)


def reparse_qasm(text: str):
    """Parse emitted OpenQASM 2.0 back into (width, creg_size, ops).

    Ops are tuples: ('h', q), ('x', q), ('cx', c, t), ('measure', q, c).
    Raises AssertionError on any line that is not part of the grammar above,
    on missing/misordered headers, or on out-of-range indices.
    """
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    m = re.fullmatch(r"qreg q\[(\d+)\];", lines[2])
    assert m, f"bad qreg line: {lines[2]!r}"
    width = int(m.group(1))
    body_start = 3
    creg_size = 0
    m = re.fullmatch(r"creg c\[(\d+)\];", lines[3]) if len(lines) > 3 else None
    if m:
        creg_size = int(m.group(1))
        body_start = 4
    ops = []
    for line in lines[body_start:]:
        assert _QASM_LINE.fullmatch(line), f"unparseable line: {line!r}"
        name, rest = line.split(" ", 1)
        idxs = [int(i) for i in re.findall(r"\[(\d+)\]", rest)]
        for q in idxs[:1] if name == "measure" else idxs:
            assert 0 <= q < width
        if name == "measure":
            assert 0 <= idxs[1] < creg_size
        ops.append((name, *idxs))
    return width, creg_size, ops


def _reference_marginal(circuit) -> np.ndarray:
    """Normalised marginal over all 2^k outcomes of a full-width simulation."""
    from qghz import kernels
    from qghz.simulator import run_exact

    state = run_exact(circuit)
    probs = kernels.marginal_probs(state.amplitudes, circuit.measured_qubits)
    return probs / probs.sum()


def reference_distribution(circuit) -> dict[str, float]:
    """Outcome probabilities from a full-width run, zeros dropped."""
    k = len(circuit.measured_qubits)
    return {format(i, f"0{k}b"): float(p) for i, p in enumerate(_reference_marginal(circuit)) if p > 0.0}


def reference_sample(circuit, shots: int, seed) -> dict[str, int]:
    """Histogram by the plain algorithm: simulate every qubit of the circuit's
    width, marginalise, and draw one multinomial over all 2^k outcomes.

    Unlike the rest of this module it reuses the package's gate kernels, so
    that the sampler that simulates only the involved qubits and draws over
    the nonzero support can be held to bit-for-bit equality with it.
    """
    counts = np.random.Generator(np.random.PCG64(seed)).multinomial(shots, _reference_marginal(circuit))
    k = len(circuit.measured_qubits)
    return {format(i, f"0{k}b"): int(c) for i, c in enumerate(counts) if c > 0}


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# Directed edge lists of the two bundled device topologies, kept here as an
# independent transcription for cross-checking the packaged data files.
QX4_EDGES = [(1, 0), (2, 0), (2, 1), (2, 4), (3, 2), (3, 4)]
QX5_EDGES = [
    (1, 0), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4), (6, 5), (6, 7),
    (6, 11), (7, 10), (8, 7), (9, 8), (9, 10), (11, 10), (12, 5),
    (12, 11), (12, 13), (13, 4), (13, 14), (15, 0), (15, 2), (15, 14),
]
