from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exact_distribution, line_map
from oracles import (
    apply_gate,
    binomial_4sigma,
    loop_run_exact,
    reference_distribution,
    reference_oracle_counts,
    reference_oracle_samples,
    reference_parity_perr,
    reference_sample,
    run_exact,
    zero_state,
)
from test_coupling import cycle_grid_edges
from qghz import simulator
from qghz.analysis import BLOCK_OUTPUTS, BLOCK_SEEDS, envariance_histograms, perr_curve
from qghz.circuits import (
    Circuit,
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    cnot,
    effective_a,
    ghz_gates,
    h,
    measure,
    measured_circuit,
    x,
)
from qghz.coupling import CouplingMap, bundled_map
from qghz.paths import create_path, path_for
from qghz.simulator import (
    MAX_SUPPORT_DIMENSION,
    NoisySampleConfig,
    SeedWords,
    child_seed_words,
    decode_oracle_draws,
    oracle_draw_length,
    sample,
    sample_noisy_oracle,
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
        circuit = Circuit(2, tuple(ghz_gates(cmap, create_path(cmap, 0, 2))))
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
        ghz = ghz_gates(cmap, create_path(cmap, 0, 2))
        circuit = Circuit(width=2, gates=(*ghz, measure(0, 0)), measured_qubits=(0,))
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
    return measured_circuit(width, gates, measured)


def builder_circuits():
    for name, sizes in (("qx4", (2, 3, 5)), ("qx5", (2, 7, 16))):
        cmap = bundled_map(name)
        for n in sizes:
            path = create_path(cmap, 4 if name == "qx5" else 0, n)
            yield build_envariance(cmap, path)
            yield build_ghz(cmap, path)
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
            expected = [reference_sample(circuit, 8192, s) for s in np.random.SeedSequence(seed).spawn(10)]
            assert envariance_histograms(circuit, 8192, 10, seed) == expected

    def test_loop_kernels_agree(self, rng):
        for _ in range(5):
            circuit = random_circuit(rng, 5)
            assert exact_distribution(circuit) == reference_distribution(circuit, loops=True)
            assert sample(circuit, 4096, 5) == reference_sample(circuit, 4096, 5, loops=True)

    def test_simulates_involved_qubits_only(self, monkeypatch):
        # Envariance over qubits 22, 23, 24 of a 25-qubit line involves 3
        # qubits, whatever the map's width.
        cmap = line_map(25)
        circuit = build_envariance(cmap, create_path(cmap, 24, 3))
        monkeypatch.setattr(simulator, "MAX_INVOLVED_QUBITS", 3)
        assert set(sample(circuit, 1000, seed=1)) == {"000", "111"}
        monkeypatch.setattr(simulator, "MAX_INVOLVED_QUBITS", 2)
        with pytest.raises(ValueError, match="circuit involves 3 qubits"):
            sample(circuit, 1000, seed=1)

    def test_involved_width_is_capped(self):
        # Each H qubit adds one random outcome: 21 of them would list 2^21 keys.
        width = MAX_SUPPORT_DIMENSION + 1
        circuit = measured_circuit(width, [h(q) for q in range(width)], range(width))
        with pytest.raises(ValueError, match="MAX_SUPPORT_DIMENSION"):
            sample(circuit, 10, seed=0)

    def test_support_cap_stops_the_elimination_early(self, monkeypatch):
        # A dense 200-qubit tableau: H everywhere, then random CNOTs with
        # random H between. Measured on all qubits its support is far over
        # 2^20; measured on 12, the support limit cannot be reached, so the
        # elimination of the same rows runs to the end.
        calls = []
        product = simulator._product

        def counting(*row_pair):
            calls.append(1)
            return product(*row_pair)

        monkeypatch.setattr(simulator, "_product", counting)
        width, rng = 200, np.random.default_rng(7)
        gates = [h(q) for q in range(width)]
        for _ in range(12 * width):
            control, target = rng.choice(width, size=2, replace=False)
            gates.append(cnot(int(control), int(target)))
            if rng.random() < 0.5:
                gates.append(h(int(rng.integers(width))))
        with pytest.raises(ValueError, match="MAX_SUPPORT_DIMENSION = 20"):
            exact_distribution(measured_circuit(width, list(gates), range(width)))
        stopped = len(calls)
        calls.clear()
        assert len(exact_distribution(measured_circuit(width, list(gates), range(12)))) == 1 << 12
        assert 0 < stopped < len(calls) // 20

    def test_involved_qubits_are_capped_before_the_tableau(self):
        # One zs column per involved qubit, column i holding bit i: at
        # 100000 qubits the columns alone would take about 600 MB.
        width = 100_000
        circuit = Circuit(width, (), measured_qubits=tuple(range(width)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"involves {width} qubits.*MAX_INVOLVED_QUBITS"):
                exact_distribution(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20


CLOSED_FORM_PATHS = ["qx5", "line300", "line1108", "grid784"]


def placed_path(name: str):
    """(map, path) for the closed-form checks: 6 qubits of qx5, or every qubit of a wide map.

    A line is rooted at its end, so every GHZ CNOT runs against its edge
    and compiles to an inverse-CNOT sandwich; qx5 and the cyclic grid are
    rooted at their most connected qubit.
    """
    if name == "qx5":
        cmap = bundled_map(name)
        return cmap, path_for(cmap, 6)
    if name == "grid784":
        cmap = CouplingMap(28 * 28, cycle_grid_edges(28, np.random.default_rng(5)))
        return cmap, path_for(cmap, cmap.num_qubits)
    cmap = line_map(int(name.removeprefix("line")))
    return cmap, create_path(cmap, cmap.num_qubits - 1, cmap.num_qubits)


class TestClosedFormsAtWidth:
    """Outcomes against their closed forms, at widths the statevector oracle cannot reach too."""

    @pytest.mark.parametrize("name", CLOSED_FORM_PATHS)
    def test_ghz_and_envariance_give_all_zeros_and_all_ones(self, name):
        cmap, path = placed_path(name)
        n = len(path.involved())
        for circuit in (build_ghz(cmap, path), build_envariance(cmap, path)):
            assert list(exact_distribution(circuit).items()) == [("0" * n, 0.5), ("1" * n, 0.5)]

    @pytest.mark.parametrize("name", CLOSED_FORM_PATHS)
    def test_parity_gives_zeros_or_result_one_with_a(self, name):
        # The result bit is leftmost: on qx5, pattern 10 gives ["000000", "111100"].
        cmap, path = placed_path(name)
        for pattern in OraclePattern:
            distribution = exact_distribution(build_parity(cmap, path, pattern))
            assert list(distribution.items()) == [("0" * len(path.involved()), 0.5),
                                                  ("1" + effective_a(path, pattern), 0.5)]


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
    return measured_circuit(width, gates, measured)


class TestTableauMatchesStatevector:
    """The tableau's outcome distribution against the statevector oracle."""

    @given(clifford_circuits())
    # After cx(0, 1) h(0) one stabilizer is X0 Z1, which the second cx turns
    # into -Y0 Y1: only the CNOT's sign term gives outcomes 00 and 11.
    @example(measured_circuit(2, [cnot(0, 1), h(0), cnot(0, 1)], (0, 1)))
    @settings(max_examples=300, deadline=None)
    def test_random_circuits(self, circuit):
        distribution = exact_distribution(circuit)
        reference = reference_distribution(circuit)
        assert list(distribution) == list(reference)
        r = len(distribution).bit_length() - 1
        assert len(distribution) == 1 << r
        assert all(p == 0.5**r for p in distribution.values())
        np.testing.assert_allclose(list(reference.values()), list(distribution.values()), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("map_name", ["qx4", "qx5"])
    def test_every_protocol_circuit(self, map_name):
        cmap = bundled_map(map_name)
        circuits = [build_envariance(cmap, path_for(cmap, n)) for n in range(2, cmap.num_qubits + 1)]
        circuits += [build_parity(cmap, path_for(cmap, n + 1), pattern)
                     for n in range(1, cmap.num_qubits) for pattern in OraclePattern]
        for circuit in circuits:
            assert list(exact_distribution(circuit).items()) == list(reference_distribution(circuit).items())


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


# Seeds as the package receives them: an int, or a SeedSequence at spawn
# depth 0-2 that may already have spawned children. Entropy reaches past
# 2^128 and spawn-key entries past 2^32, so both assemble into more words
# than the pool holds. Spawning changes a SeedSequence, so the property draws
# a spec and hands each side a fresh copy.
oracle_seed_specs = st.one_of(
    st.integers(0, 2**200),
    st.tuples(st.integers(0, 2**200), st.lists(st.integers(0, 2**64), max_size=2).map(tuple),
              st.integers(0, 5)),
)


def fresh_seed(spec):
    if isinstance(spec, int):
        return spec
    entropy, spawn_key, spawned = spec
    return np.random.SeedSequence(entropy, spawn_key=spawn_key, n_children_spawned=spawned)


@settings(max_examples=80, deadline=None)
@given(seed=oracle_seed_specs, queries=st.integers(1, 3000), blocks=st.integers(0, 2), offset=st.integers(-2, 2),
       eta=st.one_of(st.sampled_from([0.0, 2.0**-60, float(np.nextafter(0.5, 0))]),
                     st.floats(0, 0.5, exclude_max=True)),
       eta_on_draw=st.booleans(), a_string=st.text("01", min_size=1, max_size=6))
# Seed 5097's first raw output has its low 11 bits clear, so with eta on that
# draw the output equals the noise threshold exactly.
@example(seed=5097, queries=1, blocks=0, offset=1, eta=0.0, eta_on_draw=True, a_string="1")
def test_raw_oracle_draws_match_the_generator(seed, queries, blocks, offset, eta, eta_on_draw, a_string):
    """The raw-output decode equals numpy's Generator draws, table and learner alike.

    If a numpy upgrade changes PCG64, SeedSequence, ``Generator.random`` or
    ``Generator.integers``, this fails. ``eta_on_draw`` puts eta exactly on
    the table's first noise draw, where ``random() < eta`` is false. The
    repetitions land within two of 0, 1 or 2 whole learner blocks.
    """
    first = int(np.random.PCG64(fresh_seed(seed)).random_raw(1)[0])
    if eta_on_draw and first < 1 << 63:
        eta = (first >> 11) * 2.0**-53
    config = NoisySampleConfig(eta=eta, a_string=a_string)
    assert np.array_equal(sample_noisy_oracle(config, queries, fresh_seed(seed)),
                          reference_oracle_counts(eta, queries, fresh_seed(seed)))
    block = max(1, min(BLOCK_SEEDS, BLOCK_OUTPUTS // oracle_draw_length(queries)))
    repetitions = max(1, blocks * block + offset)
    root = fresh_seed(seed)
    p_err = perr_curve(config, [queries], repetitions, root)[0]
    # The one count's repetitions are the children of the root's child 0.
    child = (np.random.SeedSequence(seed) if isinstance(seed, int) else fresh_seed(seed)).spawn(1)[0]
    assert p_err == reference_parity_perr(eta, a_string, queries, repetitions, child)
    if not isinstance(seed, int):
        assert root.n_children_spawned == seed[2]


def generator_noisy(raw: int, eta: float) -> bool:
    """``Generator.random() < eta`` for the draw that reads ``raw``: random keeps its top 53 bits."""
    return (raw >> 11) * 2.0**-53 < eta


def generator_carries(half: int) -> bool:
    """``Generator.integers(0, 2, dtype=int64)`` for the draw that reads the 32-bit ``half``: its top bit."""
    return bool(half >> 31)


def test_carry_boundary_is_the_top_bit_of_the_half():
    # Four queries read two carry words; each word's low half comes first.
    halves = [1 << 31, (1 << 31) - 1, (1 << 31) - 1, 1 << 31]
    words = [halves[0] | halves[1] << 32, halves[2] | halves[3] << 32]
    raw = np.array([0] * 4 + words, dtype=np.uint64)
    _, carries_a = decode_oracle_draws(raw, 4, 0.0)
    assert carries_a.tolist() == [generator_carries(half) for half in halves] == [True, False, False, True]


@pytest.mark.parametrize("eta", [0.1, 0.25, 2.0**-60, float(np.nextafter(0.5, 0))])
def test_noise_boundary_is_the_generator_threshold(eta):
    # eta * 2^53 is not an integer at eta = 0.1, so the draw just below the
    # threshold lies inside the 2^11-wide step that ceil and floor split.
    threshold = math.ceil(eta * 2**53) << 11
    outputs = [threshold - 1, threshold]
    raw = np.array(outputs + [0], dtype=np.uint64)
    noisy, _ = decode_oracle_draws(raw, 2, eta)
    assert noisy.tolist() == [generator_noisy(out, eta) for out in outputs] == [True, False]


# Seeds of the three kinds the sampler receives: an int, a SeedSequence below
# the root, and the learner's and cross-check's SeedWords.
ORACLE_SEEDS = {
    "int": lambda: 8,
    "seed-sequence": lambda: np.random.SeedSequence(31, spawn_key=(2, 2**40), n_children_spawned=3),
    "seed-words": lambda: SeedWords(child_seed_words(5, [1])[0]),
}


@pytest.mark.parametrize("seed", sorted(ORACLE_SEEDS))
@pytest.mark.parametrize("eta", [0.0, 0.1])
@pytest.mark.parametrize("queries", [BLOCK_OUTPUTS - 1, BLOCK_OUTPUTS, BLOCK_OUTPUTS + 1, 2 * BLOCK_OUTPUTS + 1])
def test_oracle_block_edges_match_the_generator(queries, eta, seed):
    """Across block edges the two cursors read the same stream as the Generator draws.

    The carry cursor starts ``queries`` outputs in through ``PCG64.advance``,
    so this also fails if a numpy upgrade makes ``advance(n)`` differ from n
    discarded draws.
    """
    counts = sample_noisy_oracle(NoisySampleConfig(eta=eta, a_string="1"), queries, ORACLE_SEEDS[seed]())
    assert np.array_equal(counts, reference_oracle_counts(eta, queries, ORACLE_SEEDS[seed]()))


@pytest.mark.parametrize("eta", [0.0, 0.1])
def test_oracle_memory_does_not_grow_with_queries(eta):
    # Drawing all 1.5 million raw outputs at once would peak near 23 MB.
    tracemalloc.start()
    try:
        counts = sample_noisy_oracle(NoisySampleConfig(eta=eta, a_string="1"), 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**6
    assert peak < 2**20


@pytest.mark.parametrize("queries", [1, 6, BLOCK_OUTPUTS + 1])
@pytest.mark.parametrize("eta", [0.0, 0.1])
def test_oracle_draws_only_the_words_it_decodes(queries, eta, monkeypatch):
    """At eta = 0 only the carry words are drawn; at eta > 0 the noise words too."""
    drawn = []

    class RecordingPCG64(np.random.PCG64):
        def random_raw(self, size=None, output=True):
            drawn.append(1 if size is None else size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "PCG64", RecordingPCG64)
    counts = sample_noisy_oracle(NoisySampleConfig(eta=eta, a_string="1"), queries, 9)
    monkeypatch.undo()  # the reference draws through PCG64 too
    assert np.array_equal(counts, reference_oracle_counts(eta, queries, 9))
    assert sum(drawn) == (queries + 1) // 2 + (queries if eta else 0)


# SeedSequence roots of every shape it assembles: int entropy past 2^128,
# list entropy with entries past 2^32, uint32-array entropy (empty and
# shorter than the pool included), spawn keys with entries past 2^32, pool
# sizes 4, 5 and 8 (generate_state reads the pool cyclically), and children
# already spawned.
root_specs = st.tuples(
    st.one_of(st.integers(0, 2**300), st.lists(st.integers(0, 2**70), min_size=1, max_size=9),
              st.lists(st.integers(0, 2**32 - 1), max_size=9).map(lambda w: np.array(w, dtype=np.uint32))),
    st.lists(st.integers(0, 2**70), max_size=3).map(tuple),
    st.sampled_from([4, 5, 8]),
    st.integers(0, 4),
)


@settings(max_examples=200, deadline=None)
@given(spec=root_specs, count=st.integers(0, 40), start=st.integers(0, 3),
       grandchildren=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40)), max_size=8))
# The last children SeedSequence can count in its uint32.
@example(spec=(7, (2**32,), 4, 2**32 - 6), count=2, start=3, grandchildren=[(4, 0), (0, 5), (2, 1)])
def test_child_seed_words_match_spawn(spec, count, start, grandchildren):
    """Seed words equal the spawned descendants' PCG64 seed state, and the root is left as passed.

    One root is drawn from ``spec``. Depth-1 keys start..start+count-1 name
    its children, checked against one ``spawn``; depth-2 keys (j, i) name
    child i of its child j, checked against ``spawn`` of ``spawn``. If a
    numpy upgrade changes SeedSequence's hash, entropy assembly or
    ``generate_state``, this fails.
    """
    entropy, spawn_key, pool_size, spawned = spec

    def fresh_root():
        return np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size,
                                      n_children_spawned=spawned)

    def expect(states):
        return np.array(states, dtype=np.uint64).reshape(len(states), 4)

    root = fresh_root()
    words = child_seed_words(root, np.arange(start, start + count))
    assert words.dtype == np.uint64 and words.shape == (count, 4)
    children = fresh_root().spawn(start + count)[start:]
    assert np.array_equal(words, expect([child.generate_state(4, np.uint64) for child in children]))

    words = child_seed_words(root, np.array(grandchildren, dtype=np.int64).reshape(-1, 2))
    grandchild_states = [fresh_root().spawn(j + 1)[j].spawn(i + 1)[i].generate_state(4, np.uint64)
                         for j, i in grandchildren]
    assert np.array_equal(words, expect(grandchild_states))
    assert root.n_children_spawned == spawned


def test_child_seed_words_stop_where_the_child_count_would_wrap():
    # numpy's own spawn loops forever past child 2^32 - 2.
    root = np.random.SeedSequence(3, n_children_spawned=2**32 - 3)
    assert child_seed_words(root, [0, 1]).shape == (2, 4)
    assert child_seed_words(root, [[1, 2**32 - 2]]).shape == (1, 4)
    for keys in ([0, 1, 2], [[0, 2**32 - 1]]):
        with pytest.raises(ValueError, match="2\\^32"):
            child_seed_words(root, keys)
    assert root.n_children_spawned == 2**32 - 3
