from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from oracles import cnot_loop, dense_unitary, h_loop, marginal_bruteforce, marginal_loop, x_loop
from qghz import kernels


def random_state(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return (amps / np.linalg.norm(amps)).astype(np.complex128)


class TestKernelAgreement:
    """The numpy kernels match the element-wise loop oracle bit for bit."""

    @pytest.mark.parametrize("qubit", [0, 2, 4])
    def test_h_agreement(self, qubit):
        a = random_state(5, 3)
        b = a.copy()
        h_loop(a, qubit)
        kernels.apply_h(b, qubit)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("qubit", [0, 3])
    def test_x_agreement(self, qubit):
        a = random_state(4, 5)
        b = a.copy()
        x_loop(a, qubit)
        kernels.apply_x(b, qubit)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("control,target", [(0, 1), (3, 0), (2, 4)])
    def test_cnot_agreement(self, control, target):
        a = random_state(5, 7)
        b = a.copy()
        cnot_loop(a, control, target)
        kernels.apply_cnot(b, control, target)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("qubits", [(0,), (2, 0), (1, 3, 2)])
    def test_marginal_agreement(self, qubits):
        amps = random_state(4, 11)
        a = marginal_loop(amps, qubits)
        b = kernels.marginal_probs(amps, qubits)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginal_key_order_puts_first_qubit_leftmost(self):
        # |q1=1, q0=0> = index 2; measuring (q1, q0) must put q1 first -> key '10'
        amps = np.zeros(4, dtype=np.complex128)
        amps[2] = 1.0
        probs = kernels.marginal_probs(amps, (1, 0))
        assert probs.tolist() == [0.0, 0.0, 1.0, 0.0]
        probs = kernels.marginal_probs(amps, (0, 1))
        assert probs.tolist() == [0.0, 1.0, 0.0, 0.0]


class TestDenseUnitaryOracle:
    """Every qubit and ordered pair at n <= 5 against Kronecker-product matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_single_qubit_gates(self, n):
        for qubit in range(n):
            for kind, kernel in (("h", kernels.apply_h), ("x", kernels.apply_x)):
                amps = random_state(n, 100 * n + qubit)
                expected = dense_unitary(n, kind, qubit) @ amps
                kernel(amps, qubit)
                np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cnot(self, n):
        for control, target in permutations(range(n), 2):
            amps = random_state(n, 100 * n + 10 * control + target)
            expected = dense_unitary(n, "cnot", control, target) @ amps
            kernels.apply_cnot(amps, control, target)
            np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_marginal_against_per_index_sum(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        amps = random_state(n, n)
        for k in range(1, n + 1):
            qubits = tuple(int(q) for q in rng.permutation(n)[:k])
            np.testing.assert_allclose(
                kernels.marginal_probs(amps, qubits), marginal_bruteforce(amps, qubits), rtol=0, atol=1e-12,
            )
