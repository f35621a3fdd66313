"""Measured quantities: histogram fidelity and the parity learner.

Fidelity side: the Bhattacharyya coefficient between a sampled histogram
and the theoretical two-peak GHZ distribution, averaged over repetitions
with a 95% confidence half-width of 1.96 * s / sqrt(m).

Learner side: repeated runs that query the noisy oracle, postselect on
result bit 1, take a bitwise majority vote of the kept query strings, and
count the run as a failure when the vote misses the encoded string. The
error probability is the failure fraction. Votes that tie (or votes over
an empty postselection) resolve to 0 bits, which makes the noiseless law
exact: with a != 0^n the only failure mode at eta = 0 is drawing zero
result-1 samples, probability 2^-N.

Every kept query is either 0^n or a, so two counts decide the vote: each
bit where a is 1 gets the votes of the kept a queries, each bit where a is
0 gets none. The vote equals a iff a = 0^n or the kept a queries are a
strict majority of the kept queries; the learner reads both counts from
the oracle's count table and never builds the strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, build_envariance
from .coupling import CouplingMap, most_connected, rank_all
from .paths import ConnectionPath, create_path
from .simulator import (
    Histogram,
    NoisySampleConfig,
    draw_histogram,
    outcome_distribution,
    sample,
    sample_noisy_oracle,
    spawn_seeds,
)

Distribution = dict[str, float]


def validate_distribution(dist: Distribution, tol: float = 1e-9) -> None:
    """Check uniform key lengths and unit total probability."""
    if not dist:
        raise ValueError("distribution is empty")
    lengths = {len(k) for k in dist}
    if len(lengths) != 1:
        raise ValueError(f"distribution keys have mixed lengths: {sorted(lengths)}")
    total = sum(dist.values())
    if abs(total - 1.0) > tol:
        raise ValueError(f"distribution sums to {total}, not 1")


def two_peak_distribution(n: int) -> Distribution:
    """Ideal GHZ measurement outcome: all-zeros and all-ones, half each."""
    return {"0" * n: 0.5, "1" * n: 0.5}


def frequencies(histogram: Histogram) -> Distribution:
    shots = sum(histogram.values())
    return {key: count / shots for key, count in histogram.items()}


def bhattacharyya(p: Distribution, q: Distribution) -> float:
    """Classical fidelity sum(sqrt(p(x) q(x))); missing keys read as 0."""
    p_len = {len(k) for k in p}
    q_len = {len(k) for k in q}
    if len(p_len | q_len) != 1:
        raise ValueError(f"mismatched key lengths: {sorted(p_len)} vs {sorted(q_len)}")
    return sum(math.sqrt(p[key] * q[key]) for key in p.keys() & q.keys())


@dataclass(frozen=True)
class FidelityReport:
    b_mean: float
    i95: float
    repetitions: int


def path_for(cmap: CouplingMap, n: int) -> ConnectionPath:
    """Connection path over n qubits rooted at the map's most connected qubit."""
    return create_path(cmap, most_connected(rank_all(cmap)), n)


def envariance_histograms(circuit: Circuit, shots: int, repetitions: int, seed) -> list[Histogram]:
    """One sampled histogram per repetition of an envariance circuit.

    The circuit is simulated once; each repetition draws from its outcome
    distribution with its own derived seed.
    """
    n = len(circuit.measured_qubits)
    if n < 2:
        raise ValueError(f"envariance experiments need n >= 2, got {n}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    keys, probs = outcome_distribution(circuit)
    return [draw_histogram(keys, probs, shots, s) for s in spawn_seeds(seed, repetitions)]


def b_per_repetition(histograms: list[Histogram], n: int) -> list[float]:
    """Bhattacharyya fidelity of each histogram against the two-peak ideal."""
    ideal = two_peak_distribution(n)
    return [bhattacharyya(frequencies(h), ideal) for h in histograms]


def fidelity_report(b_values: list[float]) -> FidelityReport:
    """Average the per-repetition fidelities; I95 = 1.96 s / sqrt(m), 0 for m = 1."""
    values = np.array(b_values)
    m = len(values)
    i95 = 0.0 if m == 1 else 1.96 * float(np.std(values, ddof=1)) / math.sqrt(m)
    return FidelityReport(b_mean=float(values.mean()), i95=i95, repetitions=m)


def fidelity_experiment(cmap: CouplingMap, n: int, shots: int, repetitions: int, seed) -> FidelityReport:
    """Sample the envariance circuit ``repetitions`` times and report B and I95."""
    circuit = build_envariance(cmap, path_for(cmap, n))
    return fidelity_report(b_per_repetition(envariance_histograms(circuit, shots, repetitions, seed), n))


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


@dataclass(frozen=True)
class LearningOutcome:
    p_err: float
    queries: int
    repetitions: int
    effective_a: str


def parity_learn(config: NoisySampleConfig, queries: int, repetitions: int, seed) -> LearningOutcome:
    """Failure fraction of the postselect-and-vote learner over ``repetitions`` runs."""
    if queries < 1 or repetitions < 1:
        raise ValueError("queries and repetitions must be positive")
    learnable = "1" in config.a_string  # a = 0^n: the all-zero vote never misses
    failures = 0
    for child in spawn_seeds(seed, repetitions):
        counts = sample_noisy_oracle(config, queries, child)
        if learnable and 2 * counts[1, 1] <= counts[0, 1] + counts[1, 1]:
            failures += 1
    return LearningOutcome(
        p_err=failures / repetitions,
        queries=queries,
        repetitions=repetitions,
        effective_a=config.a_string,
    )


def perr_curve(config: NoisySampleConfig, queries_list, repetitions: int, seed) -> list[LearningOutcome]:
    """One learning outcome per query count, with independent derived seeds."""
    queries_list = list(queries_list)
    if not queries_list:
        raise ValueError("queries_list is empty")
    seeds = spawn_seeds(seed, len(queries_list))
    return [parity_learn(config, q, repetitions, s) for q, s in zip(queries_list, seeds)]


def circuit_oracle_crosscheck(circuit: Circuit, a_string: str, shots: int, seed) -> float:
    """Total-variation distance between circuit sampling and the classical oracle.

    Samples a compiled parity circuit (noiseless) and the eta = 0 classical
    sampler with the circuit's effective encoded string ``a_string``, both
    for ``shots`` draws, and compares the empirical (query, result)
    distributions. The circuit's first measured qubit is the result qubit.
    """
    circuit_seed, oracle_seed = spawn_seeds(seed, 2)
    histogram = sample(circuit, shots, circuit_seed)
    circuit_dist = {f"{key[1:]}:{key[0]}": count / shots for key, count in histogram.items()}

    counts = sample_noisy_oracle(NoisySampleConfig(eta=0.0, a_string=a_string), shots, oracle_seed)
    zeros = "0" * len(a_string)
    oracle_counts: dict[str, int] = {}
    for (carries_a, result), count in np.ndenumerate(counts):
        key = f"{a_string if carries_a else zeros}:{result}"  # a = 0^n: both rows share one key
        oracle_counts[key] = oracle_counts.get(key, 0) + int(count)
    oracle_dist = {key: count / shots for key, count in oracle_counts.items() if count}

    keys = circuit_dist.keys() | oracle_dist.keys()
    return 0.5 * sum(abs(circuit_dist.get(k, 0.0) - oracle_dist.get(k, 0.0)) for k in keys)
