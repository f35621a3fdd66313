"""Every labelled 3-qubit coupling map, compiled at every width it reaches.

Sampled maps rarely hit bidirectional pairs, rank ties broken by index, or
a component that just reaches the requested width. The 64 labelled maps on
3 qubits (each pair: no edge, one edge either way, or both) cover them all,
after the small-scope hypothesis (Jackson, "Software Abstractions", 2006).
Maps are not reduced to isomorphism classes, because the root choice and
the path order depend on the labels.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

from oracles import UnionFind, closure_ranks, reparse_qasm
from qghz import simulator
from qghz.circuits import (
    OraclePattern,
    build_envariance,
    build_parity,
    effective_a,
    emit_qasm,
    ghz_gates,
    measured_circuit,
    verify_legality,
)
from qghz.coupling import CouplingMap, _ranks
from qghz.paths import UnreachableQubitsError, path_for
from qghz.simulator import exact_distribution

PAIRS = ((0, 1), (0, 2), (1, 2))
KINDS = {"h": "h", "x": "x", "cnot": "cx", "measure": "measure"}


def pair_edges(a: int, b: int, choice: int) -> list[tuple[int, int]]:
    """Edges between a and b: none, a -> b, b -> a, or both."""
    return [[], [(a, b)], [(b, a)], [(a, b), (b, a)]][choice]


THREE_QUBIT_EDGES = [sorted(e for pair, choice in zip(PAIRS, choices) for e in pair_edges(*pair, choice))
                     for choices in itertools.product(range(4), repeat=len(PAIRS))]


def component_size(num_qubits: int, edges, qubit: int) -> int:
    """Qubits joined to ``qubit`` when edge directions are ignored."""
    uf = UnionFind(num_qubits)
    for c, t in edges:
        uf.union(c, t)
    return sum(uf.find(q) == uf.find(qubit) for q in range(num_qubits))


def check_compiled(cmap: CouplingMap, circuit, expected: list[str]) -> None:
    """Legal, reparses to its own gate list, and measures ``expected`` with probability 1/2 each."""
    assert verify_legality(cmap, circuit) == []
    width, creg, ops = reparse_qasm(emit_qasm(circuit))
    assert (width, creg) == (cmap.num_qubits, len(circuit.measured_qubits))
    assert ops == [(KINDS[kind], *operands) for kind, operands in circuit.gates]
    # Every correct compile has support dimension 1.
    with mock.patch.object(simulator, "MAX_SUPPORT_DIMENSION", 1):
        distribution = exact_distribution(circuit)
    assert list(distribution.items()) == [(key, 0.5) for key in expected]


def test_the_space_is_every_labelled_map():
    assert len({tuple(edges) for edges in THREE_QUBIT_EDGES}) == 4 ** len(PAIRS)


@pytest.mark.parametrize("edges", THREE_QUBIT_EDGES, ids=lambda e: ",".join(f"{c}>{t}" for c, t in e) or "none")
def test_three_qubit_map_compiles_at_every_width_it_reaches(edges):
    cmap = CouplingMap(3, edges)
    ranks = closure_ranks(3, edges)
    assert _ranks(cmap) == ranks
    root = ranks.index(max(ranks))  # the lowest index among the top-ranked qubits
    reach = component_size(3, edges, root)
    for n in range(1, reach + 1):
        path = path_for(cmap, n)
        assert path.root == root
        involved = path.involved()
        ghz = measured_circuit(cmap.num_qubits, ghz_gates(cmap, path), involved)
        for circuit in (ghz, build_envariance(cmap, path)):
            check_compiled(cmap, circuit, ["0" * n, "1" * n])
        if n >= 2:  # parity needs a result qubit and at least one query qubit
            for pattern in OraclePattern:
                check_compiled(cmap, build_parity(cmap, path, pattern), ["0" * n, "1" + effective_a(path, pattern)])
    if reach < cmap.num_qubits:
        with pytest.raises(UnreachableQubitsError):
            path_for(cmap, reach + 1)
