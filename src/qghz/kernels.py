"""State-vector kernels, in numpy on reshape views of the amplitude array.

The package's simulator runs a stabilizer tableau and does not call these
kernels. They drive the statevector oracle in ``tests/oracles.py`` that the
tableau is tested against, and the benchmark imports this module. Each gate
kernel works in place on a contiguous complex128 array: reshaping it so that the gate's qubits get
their own length-2 axes turns a gate into slice arithmetic (``h``) or a
slice swap (``x``, ``cnot``), with no index arrays. The arithmetic and its
order are those of the element-wise loops in ``tests/oracles.py``, which the
tests hold these kernels to bit for bit.

Amplitude indexing is little-endian: qubit i is bit i of the array index.
"""

from __future__ import annotations

import numpy as np

_INV_SQRT2 = 0.5 ** 0.5


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    """Exchange the contents of two equal-shape, non-overlapping views."""
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def apply_h(amps: np.ndarray, qubit: int) -> None:
    view = amps.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = (lo + hi) * _INV_SQRT2
    view[:, 1, :] = (lo - hi) * _INV_SQRT2


def apply_x(amps: np.ndarray, qubit: int) -> None:
    view = amps.reshape(-1, 2, 1 << qubit)
    _swap(view[:, 0, :], view[:, 1, :])


def apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    """Swap the target-bit halves of the control-bit-1 half; pure data movement."""
    lo, hi = sorted((control, target))
    # axis 1 is bit hi, axis 3 is bit lo
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        _swap(view[:, 1, :, 0, :], view[:, 1, :, 1, :])
    else:
        _swap(view[:, 0, :, 1, :], view[:, 1, :, 1, :])


def marginal_probs(amps: np.ndarray, qubits) -> np.ndarray:
    """Probabilities of each measured-qubit outcome, marginalized over the rest.

    ``qubits[0]`` becomes the most significant bit of the outcome index, so
    outcome ``k`` rendered as a zero-padded binary string puts the first
    measured qubit leftmost.
    """
    probs = amps.real * amps.real + amps.imag * amps.imag
    idx = np.arange(amps.shape[0])
    key = np.zeros_like(idx)
    for q in qubits:
        key = (key << 1) | ((idx >> q) & 1)
    return np.bincount(key, weights=probs, minlength=1 << len(qubits))
