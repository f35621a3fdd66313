"""Exact outcome distributions by stabilizer tableau, shot sampling, and the noisy parity oracle.

Every circuit here is h/x/cnot applied to |0...0>, then measured once at
circuit end. Such a circuit's measured outcomes are uniform over an affine
subspace of GF(2)^k: each of its 2^r outcomes has probability exactly 2^-r
(Dehaene and De Moor 2003; Aaronson and Gottesman 2004, "CHP").
``outcome_distribution`` finds them with an Aaronson-Gottesman tableau in
time polynomial in the qubit count, not by evolving 2^k amplitudes, and
``sample`` draws shots from them. The tableau runs on a copy relabelled
onto the circuit's involved qubits (those any gate touches, plus the
measured ones), so map size costs nothing. The cap is on the support
dimension r: at most ``MAX_SUPPORT_DIMENSION`` = 20, so at most 2^20
outcomes are listed. Repetitions draw from that one distribution: a
multinomial over its support, which gives the same counts as one over all
2^k outcomes, since numpy's binomial draws consume no random numbers for
p = 0. A statevector simulator is kept in ``tests/oracles.py`` as the
independent reference the tests hold this engine to.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence,
so every histogram is reproducible bit-for-bit across platforms for a given
integer seed. Derived per-repetition seeds use SeedSequence.spawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CNOT, H, MEASURE, X, Circuit, Gate

# Largest support dimension r listed: 2^r outcomes, checked as each random
# measurement is found, before any outcome is listed.
MAX_SUPPORT_DIMENSION = 20

Histogram = dict[str, int]


def _relabel_onto_involved(circuit: Circuit) -> Circuit:
    """Copy of the circuit over its involved qubits, relabelled 0..m-1 in ascending order."""
    involved = set(circuit.measured_qubits)
    for gate in circuit.gates:
        involved.update(gate.operands[:1] if gate.kind == MEASURE else gate.operands)
    index = {q: i for i, q in enumerate(sorted(involved))}
    gates = tuple(
        Gate(MEASURE, (index[g.operands[0]], g.operands[1])) if g.kind == MEASURE
        else Gate(g.kind, tuple(index[q] for q in g.operands))
        for g in circuit.gates
    )
    return Circuit(len(index), gates, tuple(index[q] for q in circuit.measured_qubits))


def _product(x1: int, z1: int, r1: int, x2: int, z2: int, r2: int) -> tuple[int, int, int]:
    """Row of the Pauli product P1 * P2 of two commuting tableau rows.

    The phase picks up a sign when the per-qubit factors of i multiply to
    -1: each qubit adds +1 for YZ, XY and ZX, and -1 for YX, XZ and ZY.
    """
    y1, xo1, zo1 = x1 & z1, x1 & ~z1, z1 & ~x1
    y2, xo2, zo2 = x2 & z2, x2 & ~z2, z2 & ~x2
    plus = (y1 & zo2 | xo1 & y2 | zo1 & xo2).bit_count()
    minus = (y1 & xo2 | xo1 & zo2 | zo1 & y2).bit_count()
    return x1 ^ x2, z1 ^ z2, r1 ^ r2 ^ ((plus - minus) >> 1 & 1)


def _outcome_forms(circuit: Circuit) -> tuple[list[int], int]:
    """Each measured qubit's outcome as an affine form over the random outcomes, and their number r.

    An Aaronson-Gottesman tableau over ``circuit.width`` qubits: rows
    0..m-1 are destabilizers, rows m..2m-1 stabilizers, and row i holds an
    x and a z bit row (bit q is qubit q) and a phase. A phase is a GF(2)
    affine form rather than a bit: bit 0 is its constant and bit j the
    coefficient of the j-th random outcome. Measuring the qubits in
    classical-bit order then covers every branch of the measurement tree
    in one pass: the j-th random measurement reads form ``1 << j`` and
    every later outcome is an affine function of the earlier ones.
    """
    m = circuit.width
    xs = [1 << q for q in range(m)] + [0] * m
    zs = [0] * m + [1 << q for q in range(m)]
    rs = [0] * (2 * m)
    rows = range(2 * m)
    for gate in circuit.gates:
        if gate.kind == H:
            bit = 1 << gate.operands[0]
            for i in rows:
                x, z = xs[i], zs[i]
                if x & z & bit:
                    rs[i] ^= 1
                elif (x | z) & bit:
                    xs[i], zs[i] = x ^ bit, z ^ bit
        elif gate.kind == X:
            bit = 1 << gate.operands[0]
            for i in rows:
                if zs[i] & bit:
                    rs[i] ^= 1
        elif gate.kind == CNOT:
            control, target = gate.operands
            cbit, tbit = 1 << control, 1 << target
            for i in rows:
                x, z = xs[i], zs[i]
                if x & cbit:
                    if z & tbit and not (x >> target ^ z >> control) & 1:
                        rs[i] ^= 1
                    xs[i] = x ^ tbit
                if z & tbit:
                    zs[i] = z ^ cbit
    forms: list[int] = []
    r = 0
    for qubit in circuit.measured_qubits:
        bit = 1 << qubit
        p = next((i for i in range(m, 2 * m) if xs[i] & bit), None)
        if p is None:  # deterministic: Z_qubit is the product of the stabilizers its destabilizers flag
            row = (0, 0, 0)
            for i in range(m):
                if xs[i] & bit:
                    row = _product(xs[i + m], zs[i + m], rs[i + m], *row)
            forms.append(row[2])
            continue
        if r == MAX_SUPPORT_DIMENSION:
            raise ValueError(f"measured outcomes span more than 2^{r} values: support dimension "
                             f"exceeds MAX_SUPPORT_DIMENSION = {MAX_SUPPORT_DIMENSION}")
        for i in rows:
            if i != p and xs[i] & bit:
                xs[i], zs[i], rs[i] = _product(xs[p], zs[p], rs[p], xs[i], zs[i], rs[i])
        r += 1
        xs[p - m], zs[p - m], rs[p - m] = xs[p], zs[p], rs[p]
        xs[p], zs[p], rs[p] = 0, bit, 1 << r
        forms.append(1 << r)
    return forms, r


def outcome_distribution(circuit: Circuit) -> tuple[list[str], np.ndarray]:
    """(keys, probabilities) of the measured outcomes with nonzero probability.

    Keys are bitstrings in classical-bit order (first measured qubit
    leftmost), ascending; each of the 2^r keys has probability exactly
    0.5 ** r. Raises ValueError when r exceeds ``MAX_SUPPORT_DIMENSION``.
    """
    if not circuit.measured_qubits:
        raise ValueError("circuit declares no measured qubits")
    forms, r = _outcome_forms(_relabel_onto_involved(circuit))
    k = len(forms)
    # columns[0] is the key with every random outcome 0; columns[j] the key bits random outcome j flips.
    columns = [0] * (r + 1)
    for position, form in enumerate(forms):
        weight = 1 << (k - 1 - position)
        for j in range(r + 1):
            if form >> j & 1:
                columns[j] |= weight
    # The j-th random outcome first shows at a key bit above every bit that
    # later outcomes flip, so branching 0 before 1 lists keys ascending.
    keys = [columns[0]]
    for column in columns[1:]:
        keys = [key ^ flip for key in keys for flip in (0, column)]
    return [format(key, f"0{k}b") for key in keys], np.full(len(keys), 0.5 ** r)


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact outcome probabilities over the measured qubits (zeros dropped)."""
    keys, probs = outcome_distribution(circuit)
    return {key: float(p) for key, p in zip(keys, probs)}


def draw_histogram(keys: list[str], probs: np.ndarray, shots: int, seed) -> Histogram:
    """Histogram of ``shots`` draws from an outcome distribution; only observed keys appear."""
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    counts = np.random.Generator(np.random.PCG64(seed)).multinomial(shots, probs)
    return {key: int(c) for key, c in zip(keys, counts) if c > 0}


def sample(circuit: Circuit, shots: int, seed) -> Histogram:
    """Histogram of ``shots`` independent measurements of the circuit.

    Keys are bitstrings in classical-bit order (first measured qubit
    leftmost); only observed outcomes appear. Deterministic given the seed.
    """
    keys, probs = outcome_distribution(circuit)
    return draw_histogram(keys, probs, shots, seed)


@dataclass(frozen=True)
class NoisySampleConfig:
    """Noise rate and encoded string of the classical parity-oracle sampler."""

    eta: float
    a_string: str

    def __post_init__(self):
        if not (0.0 <= self.eta < 0.5):
            raise ValueError(f"eta must lie in [0, 0.5), got {self.eta}")
        if not self.a_string or set(self.a_string) - {"0", "1"}:
            raise ValueError(f"a_string must be a nonempty string of 0/1, got {self.a_string!r}")


def sample_noisy_oracle(config: NoisySampleConfig, queries: int, seed) -> np.ndarray:
    """Counts of ``queries`` draws from the noisy oracle mixture, as a 2x2 int table.

    ``counts[c, r]`` is how many draws had query a (c = 1) or 0^n (c = 0)
    and result bit r. Each query independently yields, with probability
    1 - eta, one of (0^n, 0) or (a, 1) with equal odds; with probability
    eta one of (0^n, 1) or (a, 0) with equal odds. So the result bit is
    uniform regardless of eta, and among result-1 draws the query equals a
    with probability 1 - eta.
    """
    if queries <= 0:
        raise ValueError(f"queries must be positive, got {queries}")
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = rng.random(queries) < config.eta
    carries_a = rng.integers(0, 2, size=queries, dtype=np.int64)
    return np.bincount(2 * carries_a + (carries_a ^ noisy), minlength=4).reshape(2, 2)


def spawn_seeds(seed, count: int) -> list[np.random.SeedSequence]:
    """Independent child seeds for repetition loops, derived deterministically."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(count)
