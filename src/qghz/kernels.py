"""Hot state-vector kernels: element-wise loops and a pure-numpy set.

Gate application and measurement marginalization touch every amplitude of a
2^m array and dominate simulation runtime. Both backends implement the
same element-wise arithmetic in the same order, so results are bit-identical;
``python -m qghz.bench`` compares their speed.

The ``"numba"`` backend is the loop kernel set. It is numba-compiled when
numba is importable (``pip install '.[fast]'``) and interpreted otherwise.
Interpreted, it gives the same bits but is far slower: it is meant for
checking the numpy set, not for campaigns.

Backend selection, in order:

* ``set_backend("numba"|"numpy")`` at runtime;
* the ``QGHZ_KERNELS`` environment variable (same two values), read on
  first use, so an unknown value raises ``ValueError`` there and not at
  import;
* default: numba when importable, numpy otherwise.

Amplitude indexing is little-endian: qubit i is bit i of the array index.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - environment without numba
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


_INV_SQRT2 = 0.5 ** 0.5


# ---------------------------------------------------------------------------
# loop kernels (in-place on a complex128 array; numba-compiled if available)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _h_numba(amps, qubit):
    qbit = 1 << qubit
    for i in range(amps.shape[0]):
        if (i & qbit) == 0:
            j = i | qbit
            a0 = amps[i]
            a1 = amps[j]
            amps[i] = (a0 + a1) * _INV_SQRT2
            amps[j] = (a0 - a1) * _INV_SQRT2


@njit(cache=True)
def _x_numba(amps, qubit):
    qbit = 1 << qubit
    for i in range(amps.shape[0]):
        if (i & qbit) == 0:
            j = i | qbit
            tmp = amps[i]
            amps[i] = amps[j]
            amps[j] = tmp


@njit(cache=True)
def _cnot_numba(amps, control, target):
    cbit = 1 << control
    tbit = 1 << target
    for i in range(amps.shape[0]):
        if (i & cbit) != 0 and (i & tbit) == 0:
            j = i | tbit
            tmp = amps[i]
            amps[i] = amps[j]
            amps[j] = tmp


@njit(cache=True)
def _marginal_probs_numba(amps, qubits):
    k = qubits.shape[0]
    out = np.zeros(1 << k, dtype=np.float64)
    for i in range(amps.shape[0]):
        p = amps[i].real * amps[i].real + amps[i].imag * amps[i].imag
        key = 0
        for j in range(k):
            key = (key << 1) | ((i >> qubits[j]) & 1)
        out[key] += p
    return out


# ---------------------------------------------------------------------------
# numpy fallback (same arithmetic, strided views / bincount)
# ---------------------------------------------------------------------------

def _h_numpy(amps, qubit):
    view = amps.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = (lo + hi) * _INV_SQRT2
    view[:, 1, :] = (lo - hi) * _INV_SQRT2


def _x_numpy(amps, qubit):
    view = amps.reshape(-1, 2, 1 << qubit)
    lo = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = lo


def _cnot_numpy(amps, control, target):
    idx = np.arange(amps.shape[0])
    src = idx[((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)]
    dst = src | (1 << target)
    swapped = amps[dst].copy()
    amps[dst] = amps[src]
    amps[src] = swapped


def _marginal_probs_numpy(amps, qubits):
    probs = amps.real * amps.real + amps.imag * amps.imag
    idx = np.arange(amps.shape[0])
    key = np.zeros_like(idx)
    for q in qubits:
        key = (key << 1) | ((idx >> q) & 1)
    return np.bincount(key, weights=probs, minlength=1 << len(qubits))


_BACKENDS = {
    "numba": {"h": _h_numba, "x": _x_numba, "cnot": _cnot_numba, "marginal": _marginal_probs_numba},
    "numpy": {"h": _h_numpy, "x": _x_numpy, "cnot": _cnot_numpy, "marginal": _marginal_probs_numpy},
}


def _check_backend(name: str, source: str) -> str:
    if name not in _BACKENDS:
        raise ValueError(f"{source} must be 'numba' or 'numpy', got {name!r}")
    return name


def _default_backend() -> str:
    requested = os.environ.get("QGHZ_KERNELS", "").strip().lower()
    if requested:
        return _check_backend(requested, "QGHZ_KERNELS")
    return "numba" if NUMBA_AVAILABLE else "numpy"


_active: str | None = None  # resolved on first use


def active_backend() -> str:
    global _active
    if _active is None:
        _active = _default_backend()
    return _active


def _kernel(name: str):
    return _BACKENDS[_active or active_backend()][name]


def set_backend(name: str) -> None:
    """Switch kernel implementations; mainly for tests and benchmarks.

    ``"numba"`` selects the loop kernels whether or not numba is importable;
    without numba they run interpreted (same bits, far slower).
    """
    global _active
    _active = _check_backend(name, "backend")


def apply_h(amps: np.ndarray, qubit: int) -> None:
    _kernel("h")(amps, qubit)


def apply_x(amps: np.ndarray, qubit: int) -> None:
    _kernel("x")(amps, qubit)


def apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    _kernel("cnot")(amps, control, target)


def marginal_probs(amps: np.ndarray, qubits) -> np.ndarray:
    """Probabilities of each measured-qubit outcome, marginalized over the rest.

    ``qubits[0]`` becomes the most significant bit of the outcome index, so
    outcome ``k`` rendered as a zero-padded binary string puts the first
    measured qubit leftmost.
    """
    qubits = np.asarray(qubits, dtype=np.int64)
    return _kernel("marginal")(amps, qubits)
