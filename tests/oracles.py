"""Independent reference computations used to pin expected test values.

Everything here is deliberately written against the underlying math, not
against the package code paths it checks: reachability ranks come from a
boolean-matrix closure, tree checks from union-find, QASM checks from a
line-oriented reparse, the learner error rate from exact enumeration
with rational arithmetic, gate action from dense Kronecker-product
unitaries, and outcome distributions from a statevector simulator. The
element-wise loop kernels restate the numpy kernels' arithmetic one
amplitude at a time, so the kernels can be held to them bit for bit. The
parity oracle is drawn through a numpy Generator (``random`` for the noise,
``integers`` for the carries) where the package decodes raw PCG64 outputs,
and its learner (with a literal bitwise majority vote) and the circuit
cross-check are restated one Python sample at a time, so the package's
count table and block learner can be held to them exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from qghz import kernels
from qghz.circuits import CNOT, H, MEASURE, X


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


_INV_SQRT2 = 0.5 ** 0.5


def h_loop(amps, qubit):
    qbit = 1 << qubit
    for i in range(amps.shape[0]):
        if (i & qbit) == 0:
            j = i | qbit
            a0 = amps[i]
            a1 = amps[j]
            amps[i] = (a0 + a1) * _INV_SQRT2
            amps[j] = (a0 - a1) * _INV_SQRT2


def x_loop(amps, qubit):
    qbit = 1 << qubit
    for i in range(amps.shape[0]):
        if (i & qbit) == 0:
            j = i | qbit
            amps[i], amps[j] = amps[j], amps[i]


def cnot_loop(amps, control, target):
    cbit = 1 << control
    tbit = 1 << target
    for i in range(amps.shape[0]):
        if (i & cbit) != 0 and (i & tbit) == 0:
            j = i | tbit
            amps[i], amps[j] = amps[j], amps[i]


def marginal_loop(amps, qubits) -> np.ndarray:
    """Outcome probabilities, first measured qubit as the most significant key bit."""
    out = np.zeros(1 << len(qubits), dtype=np.float64)
    for i in range(amps.shape[0]):
        p = amps[i].real * amps[i].real + amps[i].imag * amps[i].imag
        key = 0
        for q in qubits:
            key = (key << 1) | ((i >> q) & 1)
        out[key] += p
    return out


def loop_run_exact(circuit) -> np.ndarray:
    """Amplitudes after the circuit's unitary gates, from |0...0>, by the loop kernels."""
    amps = np.zeros(1 << circuit.width, dtype=np.complex128)
    amps[0] = 1.0
    loops = {"h": h_loop, "x": x_loop, "cnot": cnot_loop}
    for gate in circuit.gates:
        if gate.kind in loops:
            loops[gate.kind](amps, *gate.operands)
    return amps


_GATE_MATRICES = {
    "h": np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2,
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "p0": np.diag([1.0, 0.0]),
    "p1": np.diag([0.0, 1.0]),
}


def _kron_ops(num_qubits: int, ops: dict) -> np.ndarray:
    """Tensor product with ``ops[q]`` on qubit q and identity elsewhere.

    Qubit 0 is the rightmost factor, so it is the low bit of the index.
    """
    out = np.ones((1, 1))
    for q in reversed(range(num_qubits)):
        out = np.kron(out, _GATE_MATRICES[ops[q]] if q in ops else np.eye(2))
    return out


def dense_unitary(num_qubits: int, kind: str, *qubits) -> np.ndarray:
    """Full 2^n x 2^n matrix of an h, x or cnot gate."""
    if kind == "cnot":
        control, target = qubits
        return _kron_ops(num_qubits, {control: "p0"}) + _kron_ops(num_qubits, {control: "p1", target: "x"})
    (qubit,) = qubits
    return _kron_ops(num_qubits, {qubit: kind})


def marginal_bruteforce(amps, qubits) -> np.ndarray:
    """Outcome probabilities by reading each index's measured bits as a bitstring."""
    out = np.zeros(1 << len(qubits))
    for i, amp in enumerate(amps):
        bits = format(i, f"0{len(amps).bit_length()}b")[::-1]  # bits[q] is qubit q
        out[int("".join(bits[q] for q in qubits), 2)] += abs(amp) ** 2
    return out


# The statevector simulator: 2^n amplitudes evolved by the numpy kernels.
# The package computes outcome distributions with a stabilizer tableau; this
# is the independent algorithm the tests hold it to.
MAX_STATEVECTOR_QUBITS = 20


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def norm_squared(self) -> float:
        return float(np.sum(self.amplitudes.real**2 + self.amplitudes.imag**2))


def zero_state(num_qubits: int) -> StateVector:
    """|0...0>: amplitude 1 at index 0."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _apply_inplace(amps: np.ndarray, gate) -> None:
    if gate.kind == H:
        kernels.apply_h(amps, gate.operands[0])
    elif gate.kind == X:
        kernels.apply_x(amps, gate.operands[0])
    elif gate.kind == CNOT:
        kernels.apply_cnot(amps, gate.operands[0], gate.operands[1])
    else:
        raise ValueError(f"{gate.kind} is not a unitary gate")


def apply_gate(state: StateVector, gate) -> StateVector:
    """Return the state after one unitary gate; the input is untouched."""
    qubits = gate.operands if gate.kind != MEASURE else gate.operands[:1]
    for q in qubits:
        if not (0 <= q < state.num_qubits):
            raise IndexError(f"qubit {q} out of range [0, {state.num_qubits})")
    amps = state.amplitudes.copy()
    _apply_inplace(amps, gate)
    return StateVector(state.num_qubits, amps)


def run_exact(circuit) -> StateVector:
    """State after all non-measure gates, starting from |0...0>, over the circuit's full width."""
    if circuit.width > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"simulating {circuit.width} qubits exceeds the statevector maximum of "
                         f"{MAX_STATEVECTOR_QUBITS}")
    state = zero_state(circuit.width)
    for gate in circuit.gates:
        if gate.kind != MEASURE:
            _apply_inplace(state.amplitudes, gate)
    return state


def _reference_marginal(circuit, loops: bool) -> np.ndarray:
    """Normalised marginal over all 2^k outcomes of a full-width simulation."""
    if loops:
        probs = marginal_loop(loop_run_exact(circuit), circuit.measured_qubits)
    else:
        probs = kernels.marginal_probs(run_exact(circuit).amplitudes, circuit.measured_qubits)
    return probs / probs.sum()


def reference_distribution(circuit, loops: bool = False) -> dict[str, float]:
    """Outcome probabilities from a full-width run, zeros dropped."""
    k = len(circuit.measured_qubits)
    return {format(i, f"0{k}b"): float(p) for i, p in enumerate(_reference_marginal(circuit, loops)) if p > 0.0}


def reference_sample(circuit, shots: int, seed, loops: bool = False) -> dict[str, int]:
    """Histogram by the plain algorithm: simulate every qubit of the circuit's
    width, marginalise, and draw one multinomial over all 2^k outcomes.

    By default it runs the statevector simulator above, which is fast
    enough for 16-qubit maps, so that the package's sampler, which runs a
    tableau on the involved qubits and draws over the nonzero support, can
    be held to bit-for-bit equality with it. ``loops=True`` simulates with
    the loop kernels above instead, for small circuits.
    """
    counts = np.random.Generator(np.random.PCG64(seed)).multinomial(shots, _reference_marginal(circuit, loops))
    k = len(circuit.measured_qubits)
    return {format(i, f"0{k}b"): int(c) for i, c in enumerate(counts) if c > 0}


def validate_distribution(dist: dict[str, float], tol: float = 1e-9) -> None:
    """Check uniform key lengths and unit total probability."""
    if not dist:
        raise ValueError("distribution is empty")
    lengths = {len(k) for k in dist}
    if len(lengths) != 1:
        raise ValueError(f"distribution keys have mixed lengths: {sorted(lengths)}")
    total = sum(dist.values())
    if abs(total - 1.0) > tol:
        raise ValueError(f"distribution sums to {total}, not 1")


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _generator_oracle_draws(eta: float, queries: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(noisy, carries_a) drawn through a numpy Generator, as the package sampler once did:
    noise flags from ``random``, then which queries carry a from ``integers``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = rng.random(queries) < eta
    carries_a = rng.integers(0, 2, size=queries, dtype=np.int64)
    return noisy, carries_a


def reference_oracle_counts(eta: float, queries: int, seed) -> np.ndarray:
    """The noisy parity oracle's 2x2 count table [carries a, result] from the Generator draws."""
    noisy, carries_a = _generator_oracle_draws(eta, queries, seed)
    return np.bincount(2 * carries_a + (carries_a ^ noisy), minlength=4).reshape(2, 2)


def reference_oracle_samples(eta: float, a_string: str, queries: int, seed) -> list[tuple[str, int]]:
    """The noisy parity oracle's draws as one (query, result) tuple each.

    Spells every Generator draw out: query a or 0^n, result = carries_a XOR
    noise flag.
    """
    noisy, carries_a = _generator_oracle_draws(eta, queries, seed)
    zeros = "0" * len(a_string)
    return [(a_string if bit else zeros, int(bit) ^ int(flip)) for flip, bit in zip(noisy, carries_a)]


def majority_vote(samples, n: int) -> str:
    """Bitwise majority over equal-length bit strings.

    Bit j of the result is 1 iff strictly more than half the samples have
    bit j set; ties and an empty sample list give 0.
    """
    votes = [0] * n
    count = 0
    for s in samples:
        if len(s) != n:
            raise ValueError(f"sample {s!r} has length {len(s)}, expected {n}")
        count += 1
        for j, ch in enumerate(s):
            if ch == "1":
                votes[j] += 1
    return "".join("1" if 2 * v > count else "0" for v in votes)


def reference_parity_perr(eta: float, a_string: str, queries: int, repetitions: int, seed) -> float:
    """Failure fraction of the literal learner, one sample list per repetition.

    Each repetition redraws the oracle's samples through a Generator seeded
    with its own child of ``seed`` (spawned from ``seed`` itself when it is
    a SeedSequence), keeps the queries with result 1, takes their bitwise
    majority vote (ties and no kept queries give 0 bits) and fails when the
    vote is not a.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    failures = 0
    for child in root.spawn(repetitions):
        kept = [q for q, r in reference_oracle_samples(eta, a_string, queries, child) if r == 1]
        failures += majority_vote(kept, len(a_string)) != a_string
    return failures / repetitions


def reference_crosscheck_tv(circuit, a_string: str, shots: int, seed) -> float:
    """Total-variation distance between a parity circuit's samples and the
    eta = 0 oracle's samples, both keyed 'query:result' one sample at a time.

    Seeds split as in the package: the first spawned child of ``seed``
    (spawned from ``seed`` itself when it is a SeedSequence) samples the
    circuit, the second the oracle. The circuit's first measured qubit is
    the result qubit.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    circuit_seed, oracle_seed = root.spawn(2)
    histogram = reference_sample(circuit, shots, circuit_seed)
    circuit_dist = {f"{key[1:]}:{key[0]}": count / shots for key, count in histogram.items()}
    oracle_counts: dict[str, int] = {}
    for query, result in reference_oracle_samples(0.0, a_string, shots, oracle_seed):
        key = f"{query}:{result}"
        oracle_counts[key] = oracle_counts.get(key, 0) + 1
    return total_variation(circuit_dist, {key: count / shots for key, count in oracle_counts.items()})


# Directed edge lists of the two bundled device topologies, kept here as an
# independent transcription for cross-checking the packaged data files.
QX4_EDGES = [(1, 0), (2, 0), (2, 1), (2, 4), (3, 2), (3, 4)]
QX5_EDGES = [
    (1, 0), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4), (6, 5), (6, 7),
    (6, 11), (7, 10), (8, 7), (9, 8), (9, 10), (11, 10), (12, 5),
    (12, 11), (12, 13), (13, 4), (13, 14), (15, 0), (15, 2), (15, 14),
]
