from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    binomial_4sigma,
    exact_perr,
    majority_vote,
    reference_crosscheck_tv,
    reference_parity_perr,
    reference_sample,
    validate_distribution,
)
from qghz.analysis import (
    BLOCK_SEEDS,
    bhattacharyya,
    circuit_oracle_crosscheck,
    envariance_histograms,
    fidelity_report,
    frequencies,
    perr_curve,
    two_peak_distribution,
)
from qghz.circuits import OraclePattern, build_envariance, build_parity, effective_a
from qghz.coupling import bundled_map
from qghz.paths import path_for
from qghz.simulator import NoisySampleConfig, SeedWords


class TestBhattacharyya:
    def test_identical_single_bit_distributions(self):
        p = {"0": 0.5, "1": 0.5}
        assert bhattacharyya(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_vs_two_peak(self):
        p = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
        assert bhattacharyya(p, two_peak_distribution(2)) == pytest.approx(2 * math.sqrt(0.125), abs=1e-12)

    def test_point_mass_on_one_peak(self):
        assert bhattacharyya({"00": 1.0}, two_peak_distribution(2)) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_mismatched_key_lengths(self):
        with pytest.raises(ValueError, match="mismatched"):
            bhattacharyya({"0": 1.0}, {"00": 1.0})

    def test_disjoint_supports_give_zero(self):
        assert bhattacharyya({"01": 1.0}, two_peak_distribution(2)) == 0.0


@st.composite
def distributions(draw, n_bits=3):
    size = draw(st.integers(min_value=1, max_value=2**n_bits))
    keys = draw(st.lists(st.integers(0, 2**n_bits - 1), min_size=size, max_size=size, unique=True))
    weights = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=size, max_size=size)
    )
    total = sum(weights)
    return {format(k, f"0{n_bits}b"): w / total for k, w in zip(keys, weights)}


@given(distributions())
@settings(max_examples=100, deadline=None)
def test_self_fidelity_is_one(p):
    validate_distribution(p)
    assert abs(bhattacharyya(p, p) - 1.0) < 1e-12


@given(distributions(), distributions())
@settings(max_examples=100, deadline=None)
def test_fidelity_bounded_by_cauchy_schwarz(p, q):
    b = bhattacharyya(p, q)
    assert 0.0 <= b <= 1.0 + 1e-12


class TestMajorityVote:
    def test_column_counting(self):
        assert majority_vote(["11", "11", "01"], 2) == "11"

    def test_empty_samples_give_zeros(self):
        assert majority_vote([], 3) == "000"

    def test_ties_resolve_to_zero(self):
        assert majority_vote(["10", "01"], 2) == "00"

    def test_strict_majority_required(self):
        assert majority_vote(["10", "10", "01", "01"], 2) == "00"
        assert majority_vote(["10", "10", "10", "01"], 2) == "10"

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            majority_vote(["10", "011"], 2)

    @given(st.lists(st.integers(0, 7), max_size=30), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, values, rnd):
        samples = [format(v, "03b") for v in values]
        shuffled = samples.copy()
        rnd.shuffle(shuffled)
        assert majority_vote(samples, 3) == majority_vote(shuffled, 3)


class TestParityLearn:
    """The learner at one query count: ``perr_curve(config, [queries], repetitions, seed)[0]``."""

    def test_noiseless_all_ones_matches_closed_form(self):
        # only failure mode at eta = 0: zero postselected samples (prob 2^-N)
        config = NoisySampleConfig(eta=0.0, a_string="1" * 3)
        reps = 10_000
        p_err = perr_curve(config, [10], reps, seed=17)[0]
        expected = 2.0**-10
        assert abs(p_err - expected) < binomial_4sigma(expected, reps)

    def test_noiseless_all_zeros_never_fails(self):
        config = NoisySampleConfig(eta=0.0, a_string="00")
        assert perr_curve(config, [1], 500, seed=3) == [0.0]

    def test_noisy_matches_enumeration_oracle(self):
        # frozen oracle value: exact_perr(1/4, 5) = 0.29998779296875
        expected = exact_perr(0.25, 5)
        assert expected == pytest.approx(0.29998779296875, abs=1e-15)
        config = NoisySampleConfig(eta=0.25, a_string="11")
        reps = 10_000
        p_err = perr_curve(config, [5], reps, seed=29)[0]
        assert abs(p_err - expected) < binomial_4sigma(expected, reps)

    def test_returns_one_float_p_err(self):
        config = NoisySampleConfig(eta=0.1, a_string="101")
        (p_err,) = perr_curve(config, [4], 50, seed=1)
        assert type(p_err) is float
        assert 0.0 <= p_err <= 1.0
        assert (p_err * 50).is_integer()

    def test_determinism(self):
        config = NoisySampleConfig(eta=0.2, a_string="11")
        assert perr_curve(config, [5], 200, seed=8) == perr_curve(config, [5], 200, seed=8)

    @pytest.mark.parametrize("a_string", ["1", "0", "000", "01", "1010", "0110", "1111111"])
    def test_equals_literal_postselect_and_vote_learner(self, a_string):
        # counts decide the vote exactly: same failures as voting over the spelled-out samples;
        # the one count's repetitions are the children of the seed's child 0
        for eta in (0.0, 0.1, 0.25, 0.4, 0.49):
            config = NoisySampleConfig(eta=eta, a_string=a_string)
            for queries in (1, 2, 3, 5, 17, 200):
                for seed in (0, 1, 12):
                    p_err = perr_curve(config, [queries], repetitions=20, seed=seed)[0]
                    child = np.random.SeedSequence(seed).spawn(1)[0]
                    assert p_err == reference_parity_perr(eta, a_string, queries, 20, child)

    @pytest.mark.parametrize("a_string", ["11", "00"])
    def test_memory_does_not_grow_with_repetitions(self, a_string):
        # Seed words and raw outputs are held a bounded block at a time;
        # spawning all 10000 SeedSequence children at once would peak at
        # 3.6 MB (about 376 B each).
        config = NoisySampleConfig(eta=0.1, a_string=a_string)
        perr_curve(config, [1], 300, seed=3)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            perr_curve(config, [1], 10_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    @pytest.mark.parametrize("a_string", ["0", "000"])
    def test_zero_a_draws_nothing_and_leaves_the_seed_as_passed(self, a_string, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a = 0^n derived seed words or drew from PCG64")

        monkeypatch.setattr(np.random, "PCG64", no_draws)
        monkeypatch.setattr("qghz.analysis.child_seed_words", no_draws)
        seed = np.random.SeedSequence(41, n_children_spawned=2)
        reps = 2 * BLOCK_SEEDS + 3
        assert perr_curve(NoisySampleConfig(eta=0.3, a_string=a_string), [7], reps, seed) == [0.0]
        assert seed.n_children_spawned == 2

    def test_seed_words_shim_refuses_other_requests(self):
        child = np.random.SeedSequence(9).spawn(1)[0]
        words = child.generate_state(4, np.uint64)
        assert np.array_equal(np.random.PCG64(SeedWords(words)).random_raw(3), np.random.PCG64(child).random_raw(3))
        assert np.array_equal(SeedWords(words).generate_state(4, np.dtype("<u8")), words)
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ValueError, match="4 uint64 words"):
                SeedWords(words).generate_state(n_words, dtype)

    def test_rejects_bad_counts(self):
        config = NoisySampleConfig(eta=0.0, a_string="1")
        with pytest.raises(ValueError):
            perr_curve(config, [0], 10, seed=0)
        with pytest.raises(ValueError):
            perr_curve(config, [1], 0, seed=0)


class TestPerrCurve:
    def test_noiseless_curve_decreases_geometrically(self):
        config = NoisySampleConfig(eta=0.0, a_string="11")
        p_errs = perr_curve(config, range(1, 11), repetitions=4000, seed=5)
        for queries, p_err in zip(range(1, 11), p_errs, strict=True):
            expected = 2.0**-queries
            assert abs(p_err - expected) < binomial_4sigma(expected, 4000)
        assert p_errs[0] > p_errs[4] > p_errs[9]

    def test_single_element_list(self):
        config = NoisySampleConfig(eta=0.0, a_string="1")
        p_errs = perr_curve(config, [3], repetitions=100, seed=2)
        assert len(p_errs) == 1

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            perr_curve(NoisySampleConfig(eta=0.0, a_string="1"), [], 10, seed=0)

    @pytest.mark.parametrize("a_string", ["11", "00"])
    def test_memory_does_not_grow_with_repetitions(self, a_string):
        # As at one count: a seed-word block of BLOCK_SEEDS rows and its raw
        # outputs are held at a time, whatever the curve's row count.
        config = NoisySampleConfig(eta=0.1, a_string=a_string)
        perr_curve(config, [1, 3], 300, seed=3)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            perr_curve(config, [1, 3], 10_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_bad_counts_raise_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a bad count derived seed words or drew from PCG64")

        monkeypatch.setattr(np.random, "PCG64", no_draws)
        monkeypatch.setattr("qghz.analysis.child_seed_words", no_draws)
        config = NoisySampleConfig(eta=0.1, a_string="11")
        with pytest.raises(ValueError, match="positive"):
            perr_curve(config, [3, 5, 0], 10, seed=0)
        with pytest.raises(ValueError, match="positive"):
            perr_curve(config, [3, 5], 0, seed=0)

    def test_zero_a_equals_literal_learner(self):
        queries, reps = [1, 2, 9, 40], 30
        p_errs = perr_curve(NoisySampleConfig(eta=0.3, a_string="000"), queries, reps, seed=6)
        children = np.random.SeedSequence(6).spawn(4)
        expected = [reference_parity_perr(0.3, "000", q, reps, s) for q, s in zip(queries, children)]
        assert p_errs == expected


# Repetition counts below and above one seed block, and between a fifth
# and a half of one, where a block edge falls inside a count's repetitions.
curve_repetitions = st.one_of(st.integers(1, 4), st.integers(BLOCK_SEEDS // 5, BLOCK_SEEDS // 2),
                              st.integers(BLOCK_SEEDS - 1, BLOCK_SEEDS + 1))


@settings(max_examples=40, deadline=None)
@given(queries=st.lists(st.integers(1, 2100), min_size=1, max_size=6), repetitions=curve_repetitions,
       seed=st.integers(0, 2**64), eta=st.one_of(st.just(0.0), st.floats(0, 0.5, exclude_max=True)),
       a_string=st.one_of(st.just("000"),
                          st.builds("{}1{}".format, st.text("01", max_size=3), st.text("01", max_size=3))))
# The first block ends 224 repetitions into the third count's 400; the
# second count needs several output blocks.
@example(queries=[5, 2100, 1], repetitions=400, seed=0, eta=0.25, a_string="101")
@example(queries=[1, 3], repetitions=BLOCK_SEEDS + 1, seed=1, eta=0.0, a_string="1")
@example(queries=[7, 9], repetitions=300, seed=2, eta=0.1, a_string="000")
def test_perr_curve_equals_one_count_curves(queries, repetitions, seed, eta, a_string):
    """Count j of a curve equals a one-count curve seeded with the root after j more children.

    That seed's child 0 is the root's child j, so its one-count curve draws
    repetition i with the root's grandchild (j, i), as the curve's blocks,
    which span counts, must.
    """
    config = NoisySampleConfig(eta=eta, a_string=a_string)
    root = np.random.SeedSequence(seed)
    expected = [perr_curve(config, [q], repetitions,
                           np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key, pool_size=root.pool_size,
                                                  n_children_spawned=root.n_children_spawned + j))[0]
                for j, q in enumerate(queries)]
    assert perr_curve(config, queries, repetitions, root) == expected


def envariance_fidelity(map_name: str, n: int, shots: int, repetitions: int, seed) -> tuple[float, float]:
    """B and I95 of the envariance circuit on ``map_name``, by the steps ``qghz envariance`` takes."""
    cmap = bundled_map(map_name)
    histograms = envariance_histograms(build_envariance(cmap, path_for(cmap, n)), shots, repetitions, seed)
    ideal = two_peak_distribution(n)
    return fidelity_report([bhattacharyya(frequencies(h), ideal) for h in histograms])


class TestFidelityExperiment:
    def test_noiseless_qx4_close_to_one(self):
        b_mean, i95 = envariance_fidelity("qx4", n=5, shots=8192, repetitions=10, seed=0)
        assert b_mean >= 0.999
        assert i95 >= 0.0

    def test_single_repetition_has_zero_interval(self):
        b_mean, i95 = envariance_fidelity("qx4", n=2, shots=1024, repetitions=1, seed=0)
        assert i95 == 0.0
        assert type(b_mean) is float and type(i95) is float

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            envariance_fidelity("qx4", n=1, shots=10, repetitions=2, seed=0)

    def test_no_fidelities_is_an_error(self):
        # Not a (nan, nan) report with numpy warnings, which the test settings make errors.
        with pytest.raises(ValueError, match="at least one fidelity"):
            fidelity_report([])

    def test_deterministic_given_seed(self):
        a = envariance_fidelity("qx4", n=3, shots=2048, repetitions=4, seed=9)
        b = envariance_fidelity("qx4", n=3, shots=2048, repetitions=4, seed=9)
        assert a == b


class TestValidateDistribution:
    def test_accepts_frequencies_of_histogram(self):
        validate_distribution(frequencies({"00": 3, "11": 5}))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="mixed"):
            validate_distribution({"0": 0.5, "11": 0.5})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sums"):
            validate_distribution({"0": 0.4, "1": 0.4})


def test_circuit_and_classical_oracle_agree():
    cmap = bundled_map("qx4")
    path = path_for(cmap, 4)
    for pattern in (OraclePattern.ALL_ONES, OraclePattern.HALF):
        circuit = build_parity(cmap, path, pattern)
        tv = circuit_oracle_crosscheck(circuit, effective_a(path, pattern), shots=50_000, seed=21)
        assert tv < 0.02


@pytest.mark.parametrize("map_name", ["qx4", "qx5"])
@pytest.mark.parametrize("pattern", ["00", "10", "11"])
def test_crosscheck_equals_per_sample_reference(map_name, pattern):
    # pattern 00 encodes a = 0^n, where both rows of the count table share one key
    cmap = bundled_map(map_name)
    path = path_for(cmap, 5)
    oracle = OraclePattern(pattern)
    circuit, a_string = build_parity(cmap, path, oracle), effective_a(path, oracle)
    tv = circuit_oracle_crosscheck(circuit, a_string, shots=20_000, seed=3)
    assert tv == reference_crosscheck_tv(circuit, a_string, 20_000, seed=3)


def test_a_seed_sequence_is_read_not_consumed():
    """Every derived seed is a descendant ``spawn`` would make, and the seed passed is left as it was."""
    def fresh():
        return np.random.SeedSequence(2**130 + 17, spawn_key=(3, 2**40), n_children_spawned=2)

    cmap = bundled_map("qx4")
    path = path_for(cmap, 5)
    envariance = build_envariance(cmap, path)
    parity, a_string = build_parity(cmap, path, OraclePattern.HALF), effective_a(path, OraclePattern.HALF)
    queries = [1, 4, 9]
    seed = fresh()

    expected = [reference_sample(envariance, 2048, child) for child in fresh().spawn(5)]
    assert envariance_histograms(envariance, 2048, 5, seed) == expected
    expected = reference_crosscheck_tv(parity, a_string, 4096, fresh())
    assert circuit_oracle_crosscheck(parity, a_string, 4096, seed) == expected
    expected = [reference_parity_perr(0.2, "101", q, 30, child) for q, child in zip(queries, fresh().spawn(3))]
    assert perr_curve(NoisySampleConfig(eta=0.2, a_string="101"), queries, 30, seed) == expected
    assert seed.n_children_spawned == 2


def test_path_for_uses_highest_ranked_root():
    assert path_for(bundled_map("qx5"), 16).root == 4
    assert path_for(bundled_map("qx4"), 5).root == 0
