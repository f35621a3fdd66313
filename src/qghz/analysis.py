"""Measured quantities: the envariance fidelity and the parity learning curve.

``fidelity_report`` averages per-repetition Bhattacharyya coefficients
against the two-peak GHZ distribution, with a 95% half-width of
1.96 * s / sqrt(m). ``perr_curve`` is the one learner: a repetition
postselects the oracle's draws on result bit 1 and votes bitwise, ties and
empty postselections resolving to 0 bits, so at eta = 0 and a != 0^n it
fails only on zero result-1 draws, probability 2^-N. It fails iff
a != 0^n and at most as many of its queries carry a as are noisy (README
"Library" derives this), so the learner counts those two flags and builds
no query strings.

Seeds are an int or a SeedSequence, read and not consumed. Envariance
repetition i draws with child i, the cross-check's circuit and oracle with
children 0 and 1, and the curve's count j, repetition i with grandchild
(j, i), all through ``simulator.child_seed_words``.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit
from .simulator import (
    Histogram,
    NoisySampleConfig,
    SeedWords,
    child_seed_words,
    decode_oracle_draws,
    draw_histogram,
    oracle_draw_length,
    outcome_keys,
    sample,
    sample_noisy_oracle,
)

Distribution = dict[str, float]
# The learner holds at most this many rows of seed words (32 B each) and
# this many raw outputs (8 B each) at once; a single repetition may exceed
# the second.
BLOCK_SEEDS = 1024
BLOCK_OUTPUTS = 1 << 16


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


def envariance_histograms(circuit: Circuit, shots: int, repetitions: int, seed) -> list[Histogram]:
    """One sampled histogram per repetition of an envariance circuit.

    The circuit is simulated once; repetition i draws from its outcome
    distribution with the seed of child i of ``seed`` (``child_seed_words``).
    """
    n = len(circuit.measured_qubits)
    if n < 2:
        raise ValueError(f"envariance experiments need n >= 2, got {n}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    k, keys = outcome_keys(circuit)
    return [draw_histogram(k, keys, shots, SeedWords(words))
            for words in child_seed_words(seed, np.arange(repetitions))]


def fidelity_report(b_values: list[float]) -> tuple[float, float]:
    """(b_mean, i95) of the per-repetition fidelities; I95 = 1.96 s / sqrt(m), 0 for m = 1."""
    values = np.array(b_values)
    m = len(values)
    i95 = 0.0 if m == 1 else 1.96 * float(np.std(values, ddof=1)) / math.sqrt(m)
    return float(values.mean()), i95


def perr_curve(config: NoisySampleConfig, queries_list, repetitions: int, seed) -> list[float]:
    """p_err of each query count, in order; count j's repetition i draws with grandchild (j, i) of ``seed``.

    The (count, repetition) rows are walked in order, ``BLOCK_SEEDS`` at a
    time: one ``child_seed_words`` pass per block, whose rows may belong to
    several counts, then each count's rows are drawn and scored at most
    ``BLOCK_OUTPUTS`` raw outputs at a time. The counts are checked before
    anything is drawn. For a = 0^n p_err is 0 and nothing is drawn.
    """
    queries_list = list(queries_list)
    if not queries_list:
        raise ValueError("queries_list is empty")
    if min(queries_list) < 1 or repetitions < 1:
        raise ValueError("queries and repetitions must be positive")
    # Built even for a = 0^n, so a bad seed raises whatever a is.
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    failures = [0] * len(queries_list)
    # a = 0^n: the all-zero vote never misses, so nothing is derived or drawn.
    if "1" in config.a_string:
        total = len(queries_list) * repetitions
        for block in range(0, total, BLOCK_SEEDS):
            count, rep = divmod(np.arange(block, min(block + BLOCK_SEEDS, total)), repetitions)
            words = child_seed_words(root, np.column_stack((count, rep)))
            # count is sorted, so each count's rows are one run of the block.
            for j, rows in enumerate(np.split(words, np.flatnonzero(np.diff(count)) + 1), int(count[0])):
                queries = queries_list[j]
                length = oracle_draw_length(queries)
                step = max(1, BLOCK_OUTPUTS // length)
                for first in range(0, len(rows), step):
                    chunk = rows[first:first + step]
                    raw = np.empty((len(chunk), length), dtype=np.uint64)
                    for out, row_words in zip(raw, chunk):
                        out[:] = np.random.PCG64(SeedWords(row_words)).random_raw(length)
                    noisy, carries_a = decode_oracle_draws(raw, queries, config.eta)
                    # kept a queries - kept 0^n queries = carrying queries - noisy queries
                    failures[j] += int(np.count_nonzero(carries_a.sum(axis=1) <= noisy.sum(axis=1)))
    return [f / repetitions for f in failures]


def circuit_oracle_crosscheck(circuit: Circuit, a_string: str, shots: int, seed) -> float:
    """Total-variation distance between circuit sampling and the classical oracle.

    Samples a compiled parity circuit (noiseless) and the eta = 0 classical
    sampler with the circuit's effective encoded string ``a_string``, both
    for ``shots`` draws, and compares the empirical distributions in the
    circuit's key form: the first measured qubit is the result qubit, so an
    oracle draw (0^n, 0) reads "0" + 0^n and a draw (a, 1) reads "1" + a.
    At eta = 0 those are the only draws: the diagonal of the oracle's table.
    """
    circuit_seed, oracle_seed = map(SeedWords, child_seed_words(seed, [0, 1]))
    histogram = sample(circuit, shots, circuit_seed)
    counts = sample_noisy_oracle(NoisySampleConfig(eta=0.0, a_string=a_string), shots, oracle_seed)
    oracle = {"0" * (len(a_string) + 1): int(counts[0, 0]), "1" + a_string: int(counts[1, 1])}
    keys = histogram.keys() | oracle.keys()
    return 0.5 * sum(abs(histogram.get(k, 0) / shots - oracle.get(k, 0) / shots) for k in keys)
