from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binomial_4sigma, exact_perr, reference_crosscheck_tv, reference_parity_perr
from qghz.analysis import (
    FidelityReport,
    bhattacharyya,
    circuit_oracle_crosscheck,
    fidelity_experiment,
    frequencies,
    majority_vote,
    parity_learn,
    path_for,
    perr_curve,
    two_peak_distribution,
    validate_distribution,
)
from qghz.circuits import OraclePattern, build_parity, effective_a
from qghz.coupling import bundled_map
from qghz.simulator import NoisySampleConfig


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
    def test_noiseless_all_ones_matches_closed_form(self):
        # only failure mode at eta = 0: zero postselected samples (prob 2^-N)
        config = NoisySampleConfig(eta=0.0, a_string="1" * 3)
        reps = 10_000
        outcome = parity_learn(config, queries=10, repetitions=reps, seed=17)
        expected = 2.0**-10
        assert abs(outcome.p_err - expected) < binomial_4sigma(expected, reps)

    def test_noiseless_all_zeros_never_fails(self):
        config = NoisySampleConfig(eta=0.0, a_string="00")
        outcome = parity_learn(config, queries=1, repetitions=500, seed=3)
        assert outcome.p_err == 0.0

    def test_noisy_matches_enumeration_oracle(self):
        # frozen oracle value: exact_perr(1/4, 5) = 0.29998779296875
        expected = exact_perr(0.25, 5)
        assert expected == pytest.approx(0.29998779296875, abs=1e-15)
        config = NoisySampleConfig(eta=0.25, a_string="11")
        reps = 10_000
        outcome = parity_learn(config, queries=5, repetitions=reps, seed=29)
        assert abs(outcome.p_err - expected) < binomial_4sigma(expected, reps)

    def test_outcome_fields(self):
        config = NoisySampleConfig(eta=0.1, a_string="101")
        outcome = parity_learn(config, queries=4, repetitions=50, seed=1)
        assert outcome.queries == 4
        assert outcome.repetitions == 50
        assert outcome.effective_a == "101"
        assert 0.0 <= outcome.p_err <= 1.0

    def test_determinism(self):
        config = NoisySampleConfig(eta=0.2, a_string="11")
        assert parity_learn(config, 5, 200, seed=8) == parity_learn(config, 5, 200, seed=8)

    @pytest.mark.parametrize("a_string", ["1", "0", "000", "01", "1010", "0110", "1111111"])
    def test_equals_literal_postselect_and_vote_learner(self, a_string):
        # counts decide the vote exactly: same failures as voting over the spelled-out samples
        for eta in (0.0, 0.1, 0.25, 0.4, 0.49):
            config = NoisySampleConfig(eta=eta, a_string=a_string)
            for queries in (1, 2, 3, 5, 17, 200):
                for seed in (0, 1, 12):
                    outcome = parity_learn(config, queries, repetitions=20, seed=seed)
                    assert outcome.p_err == reference_parity_perr(eta, a_string, queries, 20, seed)

    def test_rejects_bad_counts(self):
        config = NoisySampleConfig(eta=0.0, a_string="1")
        with pytest.raises(ValueError):
            parity_learn(config, 0, 10, seed=0)
        with pytest.raises(ValueError):
            parity_learn(config, 1, 0, seed=0)


class TestPerrCurve:
    def test_noiseless_curve_decreases_geometrically(self):
        config = NoisySampleConfig(eta=0.0, a_string="11")
        outcomes = perr_curve(config, range(1, 11), repetitions=4000, seed=5)
        for outcome in outcomes:
            expected = 2.0**-outcome.queries
            assert abs(outcome.p_err - expected) < binomial_4sigma(expected, 4000)
        p_errs = [o.p_err for o in outcomes]
        assert p_errs[0] > p_errs[4] > p_errs[9]

    def test_single_element_list(self):
        config = NoisySampleConfig(eta=0.0, a_string="1")
        outcomes = perr_curve(config, [3], repetitions=100, seed=2)
        assert len(outcomes) == 1 and outcomes[0].queries == 3

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            perr_curve(NoisySampleConfig(eta=0.0, a_string="1"), [], 10, seed=0)


class TestFidelityExperiment:
    def test_noiseless_qx4_close_to_one(self):
        report = fidelity_experiment(bundled_map("qx4"), n=5, shots=8192, repetitions=10, seed=0)
        assert report.b_mean >= 0.999
        assert report.i95 >= 0.0
        assert report.repetitions == 10

    def test_single_repetition_has_zero_interval(self):
        report = fidelity_experiment(bundled_map("qx4"), n=2, shots=1024, repetitions=1, seed=0)
        assert report.i95 == 0.0
        assert isinstance(report, FidelityReport)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            fidelity_experiment(bundled_map("qx4"), n=1, shots=10, repetitions=2, seed=0)

    def test_deterministic_given_seed(self):
        a = fidelity_experiment(bundled_map("qx4"), n=3, shots=2048, repetitions=4, seed=9)
        b = fidelity_experiment(bundled_map("qx4"), n=3, shots=2048, repetitions=4, seed=9)
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


def test_path_for_uses_highest_ranked_root():
    assert path_for(bundled_map("qx5"), 16).root == 4
    assert path_for(bundled_map("qx4"), 5).root == 0
