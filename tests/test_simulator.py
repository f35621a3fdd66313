from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_gate,
    binomial_4sigma,
    loop_run_exact,
    reference_distribution,
    reference_oracle_samples,
    reference_sample,
    run_exact,
    zero_state,
)
from qghz import simulator
from qghz.analysis import envariance_histograms, path_for
from qghz.circuits import (
    MEASURE,
    Circuit,
    Gate,
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    cnot,
    h,
    measure,
    with_measurements,
    x,
)
from qghz.coupling import CouplingMap, bundled_map, line_map
from qghz.paths import create_path
from qghz.simulator import (
    MAX_SUPPORT_DIMENSION,
    NoisySampleConfig,
    exact_distribution,
    outcome_distribution,
    sample,
    sample_noisy_oracle,
    spawn_seeds,
)

INV_SQRT2 = 2 ** -0.5


class TestGateAction:
    def test_h_on_zero(self):
        state = apply_gate(zero_state(1), h(0))
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_x_is_an_involution(self, rng):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = zero_state(3)
        state.amplitudes[:] = amps
        once = apply_gate(state, x(1))
        twice = apply_gate(once, x(1))
        np.testing.assert_allclose(twice.amplitudes, amps, atol=1e-15)

    def test_cnot_builds_bell_pair(self):
        plus = apply_gate(zero_state(2), h(0))  # (|00> + |10>)/sqrt(2), qubit 0 = low bit
        bell = apply_gate(plus, cnot(0, 1))
        np.testing.assert_allclose(bell.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)

    def test_apply_gate_leaves_input_untouched(self):
        state = zero_state(2)
        before = state.amplitudes.copy()
        apply_gate(state, h(0))
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_apply_gate_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            apply_gate(zero_state(2), h(5))

    def test_apply_gate_rejects_measurement(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_gate(zero_state(2), measure(0, 0))


class TestRunExact:
    def test_empty_circuit(self):
        state = run_exact(Circuit(width=3, gates=()))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(state.amplitudes, expected)

    def test_ghz_closed_form(self):
        cmap = bundled_map("qx4")
        path = create_path(cmap, 0, 5)
        state = run_exact(build_ghz(cmap, path))
        expected = np.zeros(32, dtype=complex)
        expected[0] = INV_SQRT2
        expected[31] = INV_SQRT2
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_envariance_state_equals_ghz_state(self):
        cmap = bundled_map("qx4")
        path = create_path(cmap, 0, 5)
        ghz = run_exact(build_ghz(cmap, path))
        env = run_exact(build_envariance(cmap, path))
        np.testing.assert_allclose(env.amplitudes, ghz.amplitudes, atol=1e-12)

    def test_width_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            run_exact(Circuit(width=21, gates=()))

    def test_norm_preserved_across_random_gates(self, rng):
        state = zero_state(6)
        state.amplitudes[:] = rng.normal(size=64) + 1j * rng.normal(size=64)
        state.amplitudes /= np.linalg.norm(state.amplitudes)
        gates = []
        for _ in range(10_000):
            kind = rng.integers(0, 3)
            if kind == 2:
                control, target = rng.choice(6, size=2, replace=False)
                gates.append(cnot(int(control), int(target)))
            else:
                gates.append([h, x][kind](int(rng.integers(0, 6))))
        for gate in gates:
            state = apply_gate(state, gate)
            assert abs(state.norm_squared() - 1.0) < 1e-9

    def test_gate_inverse_pairs_restore_state(self, rng):
        state = zero_state(4)
        state.amplitudes[:] = rng.normal(size=16) + 1j * rng.normal(size=16)
        state.amplitudes /= np.linalg.norm(state.amplitudes)
        for gate in (h(2), x(0), cnot(3, 1)):
            back = apply_gate(apply_gate(state, gate), gate)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_matches_loop_oracle_bit_for_bit(self):
        cmap = bundled_map("qx5")
        circuit = build_ghz(cmap, create_path(cmap, 4, 16))
        np.testing.assert_array_equal(run_exact(circuit).amplitudes, loop_run_exact(circuit))


class TestSample:
    def bell_circuit(self):
        cmap = CouplingMap(2, [(0, 1)])
        path = create_path(cmap, 0, 2)
        return build_envariance(cmap, path)

    def test_ghz_two_peaks_only(self):
        histogram = sample(self.bell_circuit(), shots=8192, seed=11)
        assert set(histogram) <= {"00", "11"}
        assert sum(histogram.values()) == 8192

    def test_single_shot(self):
        histogram = sample(self.bell_circuit(), shots=1, seed=3)
        assert sum(histogram.values()) == 1 and len(histogram) == 1

    def test_seed_determinism(self):
        a = sample(self.bell_circuit(), shots=500, seed=42)
        b = sample(self.bell_circuit(), shots=500, seed=42)
        assert a == b

    def test_requires_measurements(self):
        cmap = CouplingMap(2, [(0, 1)])
        circuit = build_ghz(cmap, create_path(cmap, 0, 2))
        with pytest.raises(ValueError, match="measured"):
            sample(circuit, 10, seed=0)

    def test_rejects_non_positive_shots(self):
        with pytest.raises(ValueError):
            sample(self.bell_circuit(), 0, seed=0)

    def test_draws_loop_oracle_histogram(self):
        circuit = self.bell_circuit()
        assert sample(circuit, 4096, seed=5) == reference_sample(circuit, 4096, 5, loops=True)

    def test_frequencies_match_exact_probabilities_within_4_sigma(self):
        # parity circuit on 4 qubits has a nontrivial marginal over 4 bits
        cmap = bundled_map("qx4")
        circuit = build_parity(cmap, create_path(cmap, 0, 4), OraclePattern.HALF)
        exact = exact_distribution(circuit)
        shots = 100_000
        histogram = sample(circuit, shots, seed=99)
        for key, p in exact.items():
            observed = histogram.get(key, 0) / shots
            assert abs(observed - p) < binomial_4sigma(p, shots)
        assert sum(histogram.values()) == shots

    def test_unmeasured_qubits_are_marginalized(self):
        # measure only the root of a Bell pair: uniform single bit
        cmap = CouplingMap(2, [(0, 1)])
        ghz = build_ghz(cmap, create_path(cmap, 0, 2))
        circuit = Circuit(width=2, gates=ghz.gates + (measure(0, 0),), measured_qubits=(0,))
        dist = exact_distribution(circuit)
        assert dist == pytest.approx({"0": 0.5, "1": 0.5})


def random_circuit(rng, width: int, num_gates: int = 12) -> Circuit:
    """Random h/x/cx circuit on a few qubits of a wide register.

    Measures an ordered subset of the touched qubits, sometimes plus one
    qubit no gate touches.
    """
    touched = [int(q) for q in rng.choice(width, size=int(rng.integers(2, min(width, 6) + 1)), replace=False)]
    gates = []
    for _ in range(num_gates):
        kind = int(rng.integers(0, 3))
        if kind == 2:
            control, target = rng.choice(touched, size=2, replace=False)
            gates.append(cnot(int(control), int(target)))
        else:
            gates.append([h, x][kind](int(rng.choice(touched))))
    measured = [int(q) for q in rng.permutation(touched)[: int(rng.integers(1, len(touched) + 1))]]
    idle = sorted(set(range(width)) - set(touched))
    if idle and rng.random() < 0.5:
        measured.insert(int(rng.integers(0, len(measured) + 1)), int(rng.choice(idle)))
    return with_measurements(Circuit(width, tuple(gates)), measured)


def builder_circuits():
    for name, sizes in (("qx4", (2, 3, 5)), ("qx5", (2, 7, 16))):
        cmap = bundled_map(name)
        for n in sizes:
            path = create_path(cmap, 4 if name == "qx5" else 0, n)
            yield build_envariance(cmap, path)
            yield with_measurements(build_ghz(cmap, path), path.involved())
            if n > 2:
                yield build_parity(cmap, path, OraclePattern.HALF)


class TestSamplingMatchesFullWidthReference:
    """Simulating only the involved qubits and drawing over the nonzero
    support gives exactly the histograms of the full-width algorithm."""

    @pytest.mark.parametrize("map_name", ["qx4", "qx5"])
    def test_random_circuits(self, map_name, rng):
        width = bundled_map(map_name).num_qubits
        largest_support = 0
        for _ in range(25):
            circuit = random_circuit(rng, width)
            distribution = exact_distribution(circuit)
            assert distribution == reference_distribution(circuit)
            largest_support = max(largest_support, len(distribution))
            for seed in (0, 7, 11):
                for shots in (1, 1000, 100_000):
                    assert sample(circuit, shots, seed) == reference_sample(circuit, shots, seed)
        assert largest_support > 2

    def test_builder_circuits(self):
        for circuit in builder_circuits():
            assert exact_distribution(circuit) == reference_distribution(circuit)
            for seed in (0, 3, 17):
                assert sample(circuit, 8192, seed) == reference_sample(circuit, 8192, seed)

    @pytest.mark.parametrize("map_name,n", [("qx4", 5), ("qx5", 2), ("qx5", 16)])
    def test_envariance_histograms(self, map_name, n):
        cmap = bundled_map(map_name)
        circuit = build_envariance(cmap, create_path(cmap, 0 if map_name == "qx4" else 4, n))
        for seed in (0, 7, 11):
            expected = [reference_sample(circuit, 8192, s) for s in spawn_seeds(seed, 10)]
            assert envariance_histograms(circuit, 8192, 10, seed) == expected

    def test_loop_kernels_agree(self, rng):
        for _ in range(5):
            circuit = random_circuit(rng, 5)
            assert exact_distribution(circuit) == reference_distribution(circuit, loops=True)
            assert sample(circuit, 4096, 5) == reference_sample(circuit, 4096, 5, loops=True)

    def test_simulates_involved_qubits_only(self, monkeypatch):
        simulated = []
        outcome_forms = simulator._outcome_forms

        def recording(circuit):
            simulated.append(circuit)
            return outcome_forms(circuit)

        monkeypatch.setattr(simulator, "_outcome_forms", recording)
        cmap = line_map(25)
        circuit = build_envariance(cmap, create_path(cmap, 24, 3))
        assert set(sample(circuit, 1000, seed=1)) <= {"000", "111"}
        [compact] = simulated
        # Qubits 22, 23, 24 become 0, 1, 2 in the same order; gates and
        # classical bits are otherwise unchanged.
        assert compact.width == 3
        assert compact.measured_qubits == (2, 1, 0)
        physical = (22, 23, 24)
        restored = tuple(
            Gate(g.kind, (physical[g.operands[0]], g.operands[1]) if g.kind == MEASURE
                 else tuple(physical[q] for q in g.operands))
            for g in compact.gates
        )
        assert restored == circuit.gates

    def test_involved_width_is_capped(self):
        # Each H qubit adds one random outcome: 21 of them would list 2^21 keys.
        width = MAX_SUPPORT_DIMENSION + 1
        circuit = with_measurements(Circuit(width, tuple(h(q) for q in range(width))), range(width))
        with pytest.raises(ValueError, match="MAX_SUPPORT_DIMENSION"):
            sample(circuit, 10, seed=0)


@st.composite
def clifford_circuits(draw) -> Circuit:
    """h/x/cx circuit on up to 8 qubits measuring a random ordered subset."""
    width = draw(st.integers(1, 8))
    qubit = st.integers(0, width - 1)
    gate = st.builds(lambda kind, q: kind(q), st.sampled_from([h, x]), qubit)
    if width > 1:
        gate = gate | st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda pair: cnot(*pair))
    # A drawn length: hypothesis's own list sizes average about 5 gates, too
    # few to build the Y terms whose signs the tableau must track.
    length = draw(st.integers(0, 60))
    gates = draw(st.lists(gate, min_size=length, max_size=length))
    measured = draw(st.permutations(range(width)))[: draw(st.integers(1, width))]
    return with_measurements(Circuit(width, tuple(gates)), measured)


class TestTableauMatchesStatevector:
    """The tableau's outcome distribution against the statevector oracle."""

    @given(clifford_circuits())
    @settings(max_examples=300, deadline=None)
    def test_random_circuits(self, circuit):
        keys, probs = outcome_distribution(circuit)
        reference = reference_distribution(circuit)
        assert keys == list(reference)
        r = len(keys).bit_length() - 1
        assert len(keys) == 1 << r
        assert np.all(probs == 0.5**r)
        np.testing.assert_allclose(list(reference.values()), probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("map_name", ["qx4", "qx5"])
    def test_every_protocol_circuit(self, map_name):
        cmap = bundled_map(map_name)
        circuits = [build_envariance(cmap, path_for(cmap, n)) for n in range(2, cmap.num_qubits + 1)]
        circuits += [build_parity(cmap, path_for(cmap, n + 1), pattern)
                     for n in range(1, cmap.num_qubits) for pattern in OraclePattern]
        for circuit in circuits:
            keys, probs = outcome_distribution(circuit)
            reference = reference_distribution(circuit)
            assert keys == list(reference)
            assert probs.tolist() == list(reference.values())


class TestNoisyOracle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NoisySampleConfig(eta=0.5, a_string="11")
        with pytest.raises(ValueError):
            NoisySampleConfig(eta=-0.1, a_string="11")
        with pytest.raises(ValueError):
            NoisySampleConfig(eta=0.1, a_string="12")
        with pytest.raises(ValueError):
            NoisySampleConfig(eta=0.1, a_string="")

    def test_noiseless_result_one_reveals_a(self):
        # counts[c, r]: c = 1 when the query is a, r the result bit
        config = NoisySampleConfig(eta=0.0, a_string="101")
        counts = sample_noisy_oracle(config, 2000, seed=1)
        assert counts.sum() == 2000
        assert counts[0, 1] == 0 and counts[1, 0] == 0

    def test_all_zero_string_pins_query(self):
        config = NoisySampleConfig(eta=0.0, a_string="000")
        counts = sample_noisy_oracle(config, 500, seed=2)
        assert counts.sum() == 500
        queries = {config.a_string if c else "000" for c in (0, 1) if counts[c].any()}
        assert queries == {"000"}
        assert counts[:, 0].sum() > 0 and counts[:, 1].sum() > 0

    def test_result_marginal_is_half_regardless_of_eta(self):
        for eta in (0.0, 0.1, 0.25, 0.49):
            config = NoisySampleConfig(eta=eta, a_string="11")
            counts = sample_noisy_oracle(config, 40_000, seed=7)
            assert counts.sum() == 40_000
            ones = counts[:, 1].sum()
            assert abs(ones / 40_000 - 0.5) < binomial_4sigma(0.5, 40_000)

    def test_conditional_a_rate_is_one_minus_eta(self):
        eta = 0.25
        config = NoisySampleConfig(eta=eta, a_string="11")
        counts = sample_noisy_oracle(config, 80_000, seed=13)
        assert counts.sum() == 80_000
        kept = counts[:, 1].sum()
        rate = counts[1, 1] / kept
        assert abs(rate - (1 - eta)) < binomial_4sigma(1 - eta, kept)

    def test_determinism(self):
        config = NoisySampleConfig(eta=0.3, a_string="10")
        first = sample_noisy_oracle(config, 100, seed=5)
        assert first.sum() == 100
        assert np.array_equal(first, sample_noisy_oracle(config, 100, seed=5))

    @pytest.mark.parametrize("a_string", ["1", "011", "1010"])
    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_table_counts_reference_samples(self, a_string, eta):
        counts = sample_noisy_oracle(NoisySampleConfig(eta=eta, a_string=a_string), 3000, seed=4)
        assert counts.shape == (2, 2) and counts.sum() == 3000
        expected = np.zeros((2, 2), dtype=np.int64)
        for query, result in reference_oracle_samples(eta, a_string, 3000, seed=4):
            expected[int(query == a_string), result] += 1
        assert np.array_equal(counts, expected)

    def test_rejects_non_positive_queries(self):
        with pytest.raises(ValueError):
            sample_noisy_oracle(NoisySampleConfig(eta=0.0, a_string="1"), 0, seed=0)


def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(123, 5)
    b = spawn_seeds(123, 5)
    states = [tuple(s.generate_state(2)) for s in a]
    assert states == [tuple(s.generate_state(2)) for s in b]
    assert len(set(states)) == 5
