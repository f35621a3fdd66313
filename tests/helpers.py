"""Test conveniences built on the package's own code paths.

Unlike ``oracles.py``, nothing here is an independent reference: these
helpers only shape package results for assertions and build test maps.
"""

from __future__ import annotations

from qghz.coupling import CouplingMap
from qghz.simulator import outcome_keys


def exact_distribution(circuit) -> dict[str, float]:
    """Exact outcome probabilities over the measured qubits (zeros dropped), keyed by bitstring, ascending."""
    k, keys = outcome_keys(circuit)
    p = 1 / len(keys)
    return {format(key, f"0{k}b"): p for key in keys}


def line_map(num_qubits: int) -> CouplingMap:
    """Directed line 0 -> 1 -> ... -> n-1."""
    return CouplingMap(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)], name=f"line{num_qubits}")
