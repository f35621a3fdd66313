"""Exact state-vector simulation, shot sampling, and the noisy parity oracle.

States start at |0...0> and evolve under h/x/cnot through the numpy
kernels of the kernels module. Measurement happens once at circuit end:
``sample`` draws from the exact joint distribution of the measured qubits,
marginalized over the rest.

A circuit's distribution is computed once, on a copy relabelled onto its
involved qubits (those any gate touches, plus the measured ones), so the
20-qubit cap counts the qubits a circuit uses, not the size of its
coupling map. The relabel keeps ascending physical order, which keeps every
amplitude and every marginal sum bit-identical to a full-width run.
Repetitions draw from that one distribution: a multinomial over its nonzero
support, which gives the same counts as one over all 2^k outcomes, since
numpy's binomial draws consume no random numbers for p = 0.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence,
so every histogram is reproducible bit-for-bit across platforms for a given
integer seed. Derived per-repetition seeds use SeedSequence.spawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .circuits import CNOT, H, MEASURE, X, Circuit, Gate

MAX_SIMULATED_QUBITS = 20

Histogram = dict[str, int]


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


def _apply_inplace(amps: np.ndarray, gate: Gate) -> None:
    if gate.kind == H:
        kernels.apply_h(amps, gate.operands[0])
    elif gate.kind == X:
        kernels.apply_x(amps, gate.operands[0])
    elif gate.kind == CNOT:
        kernels.apply_cnot(amps, gate.operands[0], gate.operands[1])
    else:
        raise ValueError(f"{gate.kind} is not a unitary gate")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state after one unitary gate; the input is untouched."""
    qubits = gate.operands if gate.kind != MEASURE else gate.operands[:1]
    for q in qubits:
        if not (0 <= q < state.num_qubits):
            raise IndexError(f"qubit {q} out of range [0, {state.num_qubits})")
    amps = state.amplitudes.copy()
    _apply_inplace(amps, gate)
    return StateVector(state.num_qubits, amps)


def run_exact(circuit: Circuit) -> StateVector:
    """State after all non-measure gates, starting from |0...0>.

    Simulates every qubit of the circuit's width; the sampling functions call
    it on a copy relabelled onto the involved qubits.
    """
    if circuit.width > MAX_SIMULATED_QUBITS:
        raise ValueError(f"simulating {circuit.width} qubits exceeds the simulator maximum of {MAX_SIMULATED_QUBITS}")
    state = zero_state(circuit.width)
    for gate in circuit.gates:
        if gate.kind != MEASURE:
            _apply_inplace(state.amplitudes, gate)
    return state


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


def outcome_distribution(circuit: Circuit) -> tuple[list[str], np.ndarray]:
    """(keys, probabilities) of the measured outcomes with nonzero probability.

    Keys are bitstrings in classical-bit order (first measured qubit
    leftmost), ascending; probabilities are normalised over all 2^k outcomes
    before the zero ones are dropped.
    """
    if not circuit.measured_qubits:
        raise ValueError("circuit declares no measured qubits")
    compact = _relabel_onto_involved(circuit)
    state = run_exact(compact)
    probs = kernels.marginal_probs(state.amplitudes, compact.measured_qubits)
    probs = probs / probs.sum()
    support = np.flatnonzero(probs)
    k = len(compact.measured_qubits)
    return [format(int(i), f"0{k}b") for i in support], probs[support]


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
