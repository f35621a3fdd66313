"""Exact outcome distributions by stabilizer tableau, shot sampling, and the noisy parity oracle.

Every circuit here is h/x/cnot applied to |0...0>, measured once at
circuit end. Its measured outcomes are uniform over an affine subspace of
GF(2)^k: each of its 2^r outcomes has probability exactly 2^-r (Dehaene
and De Moor 2003; Aaronson and Gottesman 2004, "CHP"). ``outcome_keys``
lists them from a stabilizer tableau stored by column as in Stim (Gidney
2021), over the circuit's involved qubits only; README's "Simulation
engine" section gives the elimination and measured times. Two limits hold,
each checked before the work it bounds: at most ``MAX_INVOLVED_QUBITS``
involved qubits, and a support dimension r of at most
``MAX_SUPPORT_DIMENSION``. Repetitions draw a multinomial over the
support, which gives the same counts as one over all 2^k outcomes, since
numpy's binomial draws consume no random numbers for p = 0.

Randomness is numpy's PCG64 seeded through SeedSequence, so a histogram is
reproducible bit for bit across platforms for a given integer seed. Every
per-repetition seed comes from ``child_seed_words``, which restates
SeedSequence's hash (O'Neill's seed_seq mixing) and spawns nothing. The
noisy oracle and ``analysis.perr_curve`` decode raw PCG64 outputs exactly
as ``Generator.random`` and ``Generator.integers(0, 2)`` draw (O'Neill
2014, "PCG"; Lemire 2019), through one noise test (``noisy_flags``) and
one carry test (``carry_flags``); README's "Library" section states the
decode. The oracle reads its noise words and its carry words side by side
through two generators on the one stream, the second moved ``queries``
outputs ahead by ``PCG64.advance`` (an O(log n) jump of the LCG; Brown
1994), a block at a time, so it runs in constant memory; at eta = 0 it
draws no noise words at all. All of this rests on numpy keeping PCG64,
its ``advance``, SeedSequence and those two methods stream-compatible
(NEP 19); tests in ``tests/test_simulator.py`` fail by name if an upgrade
breaks any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .circuits import CNOT, H, MEASURE, X, Circuit

# Largest support dimension r listed: 2^r outcomes, checked before any
# outcome is listed.
MAX_SUPPORT_DIMENSION = 20
# Most qubits one circuit may involve (gate operands plus measured qubits),
# checked before the tableau is built.
MAX_INVOLVED_QUBITS = 2048

# The noisy oracle holds at most this many raw outputs (8 B each) at once,
# as does ``analysis.perr_curve`` unless one repetition needs more. It is
# even, so an oracle block of this many queries reads whole carry words.
BLOCK_OUTPUTS = 1 << 16

Histogram = dict[str, int]


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


def outcome_keys(circuit: Circuit) -> tuple[int, list[int]]:
    """(k, keys): the k measured qubits and every outcome with nonzero probability, as int keys, ascending.

    Key bit k-1-p holds the p-th measured qubit, so ``format(key, f"0{k}b")``
    is the bitstring with the first measured qubit leftmost. Each of the 2^r
    keys has probability exactly 0.5 ** r. The tableau runs over the
    involved qubits (gate operands plus measured qubits), indexed 0..m-1 in
    ascending physical order. Its m stabilizer rows are kept by column:
    ``xs[i]`` and ``zs[i]`` hold involved qubit i's x and z bits (bit j =
    row j) and ``signs`` bit j is row j's sign. Raises ValueError when the
    circuit measures nothing, involves more than ``MAX_INVOLVED_QUBITS``
    qubits, or r exceeds ``MAX_SUPPORT_DIMENSION``; the first two are
    checked before the tableau is built.
    """
    if not circuit.measured_qubits:
        raise ValueError("circuit declares no measured qubits")
    involved = set(circuit.measured_qubits)
    # A Circuit's measure gates are its measurement record, whose qubits are already in.
    involved.update(*(operands for kind, operands in circuit.gates if kind != MEASURE))
    if len(involved) > MAX_INVOLVED_QUBITS:
        raise ValueError(f"circuit involves {len(involved)} qubits; the simulator takes at most "
                         f"MAX_INVOLVED_QUBITS = {MAX_INVOLVED_QUBITS}")
    index = {q: i for i, q in enumerate(sorted(involved))}
    measured = [index[q] for q in circuit.measured_qubits]
    m, k = len(index), len(measured)
    xs, zs, signs = [0] * m, [1 << i for i in range(m)], 0
    for kind, operands in circuit.gates:
        if kind == H:
            q = index[operands[0]]
            signs ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif kind == X:
            signs ^= zs[index[operands[0]]]
        elif kind == CNOT:
            c, t = index[operands[0]], index[operands[1]]
            signs ^= xs[c] & zs[t] & ~(xs[t] ^ zs[c])
            xs[t] ^= xs[c]
            zs[c] ^= zs[t]
    # Transpose to rows once, with the unmeasured qubits at bits 0..u-1 and
    # key bit j at bit u + j.
    u = m - k
    order = sorted(set(range(m)) - set(measured)) + list(reversed(measured))
    rows = [[0, 0, signs >> i & 1] for i in range(m)]
    for bit, q in enumerate(order):
        for part, column in ((0, xs[q]), (1, zs[q])):
            while column:
                low = column & -column
                rows[low.bit_length() - 1][part] |= 1 << bit
                column ^= low
    # Eliminate on z << m | x, pivoting on the lowest bit; the rows are
    # independent, so none reduces to zero. The key bits sit above every x
    # and unmeasured z bit, so a row reduced to key bits alone is a Z string
    # on measured qubits: a parity check z.o = sign on the outcome. The
    # checks come out in echelon form on their lowest key bit. The m pivots
    # split into checks and pivots below the key bits, so the support
    # dimension is r = k - m + (pivots below); that count only grows, and
    # the elimination stops as soon as it makes r too large.
    pivots: dict[int, tuple[int, int, int]] = {}
    below, most_below = 0, MAX_SUPPORT_DIMENSION + m - k
    for x, z, sign in rows:
        vec = z << m | x
        while (bit := (vec & -vec).bit_length() - 1) in pivots:
            x, z, sign = _product(*pivots[bit], x, z, sign)
            vec = z << m | x
        pivots[bit] = (x, z, sign)
        if bit < m + u:
            below += 1
            if below > most_below:
                raise ValueError(f"measured outcomes span more than 2^{MAX_SUPPORT_DIMENSION} values: support "
                                 f"dimension exceeds MAX_SUPPORT_DIMENSION = {MAX_SUPPORT_DIMENSION}")
    checks = {bit - m - u: (z >> u, sign) for bit, (x, z, sign) in pivots.items() if bit >= m + u}
    free = [j for j in reversed(range(k)) if j not in checks]
    # Back-substitute from the top pivot down: a check fixes its pivot bit
    # from the bits above it, so each pivot bit is its value in the base key
    # (every free bit 0) plus the free bits that flip it.
    base, flips = 0, [1 << j for j in free]
    for j in sorted(checks, reverse=True):
        check, sign = checks[j]
        rest = check ^ 1 << j
        base |= ((rest & base).bit_count() ^ sign) % 2 << j
        flips = [flip | (rest & flip).bit_count() % 2 << j for flip in flips]
    # A free bit's flip sets no higher bit, so branching 0 before 1 from
    # the top free bit down lists keys ascending.
    keys = [base]
    for flip in flips:
        keys = [key ^ f for key in keys for f in (0, flip)]
    return k, keys


def draw_histogram(k: int, keys: list[int], shots: int, seed) -> Histogram:
    """Histogram of ``shots`` draws from the uniform distribution over ``outcome_keys``'s (k, keys).

    Only drawn keys appear, and only they are formatted as k-bit strings.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    counts = np.random.Generator(np.random.PCG64(seed)).multinomial(shots, np.full(len(keys), 1 / len(keys)))
    spec = f"0{k}b"
    return {format(keys[i], spec): int(counts[i]) for i in counts.nonzero()[0].tolist()}


def sample(circuit: Circuit, shots: int, seed) -> Histogram:
    """Histogram of ``shots`` independent measurements of the circuit.

    Keys are bitstrings in classical-bit order (first measured qubit
    leftmost); only observed outcomes appear. Deterministic given the seed.
    """
    k, keys = outcome_keys(circuit)
    return draw_histogram(k, keys, shots, seed)


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


def oracle_draw_length(queries: int) -> int:
    """Raw PCG64 outputs one oracle draw of ``queries`` queries reads: a noise word per query, a carry word per two."""
    return queries + (queries + 1) // 2


def noisy_flags(noise_words: np.ndarray, eta: float) -> np.ndarray:
    """Bool flags of the queries that are noisy: noise word i is below ceil(eta * 2^53) << 11.

    That is exactly ``Generator.random() < eta``, which keeps an output's top
    53 bits. At eta = 0 the threshold is 0, so no query is noisy.
    """
    return noise_words < math.ceil(eta * 2**53) << 11


def carry_flags(carry_words: np.ndarray, queries: int) -> np.ndarray:
    """Bool flags of the ``queries`` queries that carry a: the top bit of 32-bit half i of the words, low half first.

    That is exactly ``Generator.integers(0, 2, dtype=np.int64)``, one half
    per draw. ``carry_words`` holds at least ``(queries + 1) // 2`` uint64
    outputs along its last axis.
    """
    # Little-endian words viewed as little-endian halves put the low half first on any host.
    halves = carry_words.astype("<u8", copy=False).view("<u4")[..., :queries]
    return halves >= 1 << 31


def decode_oracle_draws(raw: np.ndarray, queries: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(noisy, carries_a): bool flags of each query, decoded from ``oracle_draw_length(queries)`` raw outputs.

    ``raw`` holds uint64 PCG64 outputs along its last axis; any leading axes
    (one row per repetition) carry through. The first ``queries`` outputs
    are the noise words (``noisy_flags``), the rest the carry words
    (``carry_flags``).
    """
    return noisy_flags(raw[..., :queries], eta), carry_flags(raw[..., queries:], queries)


def sample_noisy_oracle(config: NoisySampleConfig, queries: int, seed) -> np.ndarray:
    """Counts of ``queries`` draws from the noisy oracle mixture, as a 2x2 int table.

    ``counts[c, r]`` is how many draws had query a (c = 1) or 0^n (c = 0)
    and result bit r. Each query independently yields, with probability
    1 - eta, one of (0^n, 0) or (a, 1) with equal odds; with probability
    eta one of (0^n, 1) or (a, 0) with equal odds. So the result bit is
    uniform regardless of eta, and among result-1 draws the query equals a
    with probability 1 - eta. The draws are ``decode_oracle_draws`` of the
    seed's first ``oracle_draw_length(queries)`` raw PCG64 outputs.

    Two generators read that one stream: the noise cursor from output 0,
    the carry cursor from output ``queries`` (``PCG64.advance``), each
    ``BLOCK_OUTPUTS`` queries at a time, so memory does not grow with
    ``queries``. The block size is even, so every block but the last
    starts on a carry word's low half. At eta = 0 no query is noisy, and
    the noise cursor is neither built nor read.
    """
    if queries <= 0:
        raise ValueError(f"queries must be positive, got {queries}")
    carry = np.random.PCG64(seed)
    carry.advance(queries)
    noise = np.random.PCG64(seed) if config.eta > 0 else None
    carrying = noisy = both = 0
    for start in range(0, queries, BLOCK_OUTPUTS):
        size = min(BLOCK_OUTPUTS, queries - start)
        carries_a = carry_flags(carry.random_raw((size + 1) // 2), size)
        carrying += np.count_nonzero(carries_a)
        if noise is not None:
            flags = noisy_flags(noise.random_raw(size), config.eta)
            noisy += np.count_nonzero(flags)
            both += np.count_nonzero(flags & carries_a)
    # A query's result is its carry flag xor its noise flag.
    return np.array([[queries - carrying - noisy + both, noisy - both], [both, carrying - both]], dtype=np.int64)


class SeedWords(ISeedSequence):
    """One row of ``child_seed_words``, handed to ``np.random.PCG64`` as its seed state."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64.__init__ passes np.uint64 itself, once per row, so no dtype is built for it.
        if (dtype is not np.uint64 and np.dtype(dtype) != np.uint64) or n_words != 4:
            raise ValueError(f"holds only the 4 uint64 words PCG64 asks for, not {n_words} of {np.dtype(dtype)}")
        return self.words


# numpy's SeedSequence hash constants, named as in numpy/random/bit_generator.pyx.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
# generate_state's running hash constant before and after each of its 8 words.
_STATE_CONSTS = np.array([INIT_B * pow(MULT_B, i, 1 << 32) % (1 << 32) for i in range(9)], dtype=np.uint32)


def _entropy_words(value) -> int:
    """32-bit words SeedSequence assembles ``value`` into: at least one per integer."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.size
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(_entropy_words(v) for v in value)


def child_seed_words(seed, keys) -> np.ndarray:
    """(rows, 4) uint64: ``generate_state(4, np.uint64)`` of the descendant of ``seed`` each row of ``keys`` names.

    A row is a path of child indices down from ``seed`` (one entry when
    ``keys`` is 1-D): its first entry counts from ``seed.n_children_spawned``,
    the next child ``spawn`` would make, and later entries from 0, a fresh
    child's first. So row i of ``range(count)`` is ``seed.spawn(count)[i]``,
    and row (j, i) is child i of ``seed.spawn(...)[j]``. ``seed`` is an int
    or a SeedSequence and is only read: nothing is spawned. Every child
    index stays below 2^32 - 1, where numpy's uint32 child counter wraps
    (its ``spawn`` then loops forever); ValueError otherwise.

    A descendant's assembled entropy is the seed's (zero-padded to the pool
    size) followed by its spawn-key entries, one word each, so its pool is
    the seed's pool with each entry in turn mixed into every pool word, the
    hash constant continuing from where the seed's stopped. The constant
    depends only on the word's position, so all rows and pool words are
    hashed in one uint32 (rows, pool size) pass per key column, and the 8
    state words in one more; uint32 arithmetic on arrays wraps silently (on
    numpy scalars it would warn).
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    keys = np.array(keys, dtype=np.int64)
    if keys.ndim == 1:
        keys = keys[:, None]
    keys[:, :1] += seed.n_children_spawned
    if keys.size and (keys.min() < 0 or keys.max() >= (1 << 32) - 1):
        raise ValueError("SeedSequence counts its children in a uint32; child indices must lie in [0, 2^32 - 1)")
    pool_size = seed.pool_size
    run_words, key_words = _entropy_words(seed.entropy), _entropy_words(seed.spawn_key)
    if key_words:
        run_words = max(run_words, pool_size)
    # The seed hashed each pool word once, each ordered pair of pool words
    # once, and each entropy word past the pool once per pool word.
    hash_const = INIT_A * pow(MULT_A, pool_size * max(pool_size, run_words + key_words), 1 << 32) % (1 << 32)
    # hashmix xors a word with the running constant, steps the constant, then
    # multiplies by it: the w-th word hashed, in (level, pool word) order,
    # meets constants w and w + 1.
    consts = [hash_const]
    for _ in range(keys.shape[1] * pool_size):
        consts.append(consts[-1] * MULT_A % (1 << 32))
    consts = np.array(consts, dtype=np.uint32)
    mixer = np.tile(seed.pool, (len(keys), 1))
    for level, column in enumerate(keys.astype(np.uint32).T):
        level_consts = consts[level * pool_size:(level + 1) * pool_size + 1]
        value = column[:, None] ^ level_consts[:-1]
        value *= level_consts[1:]
        value ^= value >> XSHIFT
        mixed = np.uint32(MIX_MULT_L) * mixer - np.uint32(MIX_MULT_R) * value
        mixer = mixed ^ mixed >> XSHIFT
    # generate_state(4, uint64) hashes 8 uint32 words read cyclically from
    # the pool and pairs them low word first.
    value = mixer[:, np.arange(8) % pool_size] ^ _STATE_CONSTS[:-1]
    value *= _STATE_CONSTS[1:]
    state = value ^ value >> XSHIFT
    # The pool-word gather leaves state column-major; pairing words needs rows contiguous.
    return state.astype("<u4", order="C", copy=False).view("<u8").astype(np.uint64)
