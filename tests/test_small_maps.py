"""Every labelled 3- and 4-qubit coupling map, compiled.

Sampled maps rarely hit bidirectional pairs, rank ties broken by index, or
a component that just reaches the requested width. The labelled maps on 3
and 4 qubits (each pair: no edge, one edge either way, or both; 64 and
4096 maps) cover them all, after the small-scope hypothesis (Jackson,
"Software Abstractions", 2006). The 3-qubit maps compile at every width
they reach, the 4-qubit maps at their full reachable width. Maps are not
reduced to isomorphism classes, because the root choice and the path order
depend on the labels.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

from helpers import exact_distribution
from oracles import UnionFind, closure_ranks, reparse_qasm
from test_circuits import qasm_ops
from qghz import simulator
from qghz.circuits import (
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    effective_a,
    emit_qasm,
    verify_legality,
)
from qghz.coupling import CouplingMap, _ranks
from qghz.paths import UnreachableQubitsError, path_for



def pair_edges(a: int, b: int, choice: int) -> list[tuple[int, int]]:
    """Edges between a and b: none, a -> b, b -> a, or both."""
    return [[], [(a, b)], [(b, a)], [(a, b), (b, a)]][choice]


def labelled_maps(num_qubits: int) -> list[list[tuple[int, int]]]:
    """Sorted edge list of every labelled map on ``num_qubits`` qubits, 4^(pairs) of them."""
    pairs = list(itertools.combinations(range(num_qubits), 2))
    return [sorted(e for pair, choice in zip(pairs, choices) for e in pair_edges(*pair, choice))
            for choices in itertools.product(range(4), repeat=len(pairs))]


def map_id(edges) -> str:
    return ",".join(f"{c}>{t}" for c, t in edges) or "none"


THREE_QUBIT_EDGES = labelled_maps(3)
FOUR_QUBIT_EDGES = labelled_maps(4)
# 16 runs of 256 maps, one per choice on the pairs (0, 1) and (0, 2).
FOUR_QUBIT_RUNS = [FOUR_QUBIT_EDGES[i:i + 256] for i in range(0, len(FOUR_QUBIT_EDGES), 256)]


def component_size(num_qubits: int, edges, qubit: int) -> int:
    """Qubits joined to ``qubit`` when edge directions are ignored."""
    uf = UnionFind(num_qubits)
    for c, t in edges:
        uf.union(c, t)
    return sum(uf.find(q) == uf.find(qubit) for q in range(num_qubits))


def check_compiled(cmap: CouplingMap, circuit, expected: list[str]) -> None:
    """Legal, reparses to its own gate list, and measures ``expected`` with probability 1/2 each.

    Callers patch ``simulator.MAX_SUPPORT_DIMENSION`` to 1: every correct
    compile has support dimension 1.
    """
    assert verify_legality(cmap, circuit) == [], sorted(cmap.edges)
    width, creg, ops = reparse_qasm(emit_qasm(circuit))
    assert (width, creg) == (cmap.num_qubits, len(circuit.measured_qubits)), sorted(cmap.edges)
    assert ops == qasm_ops(circuit), sorted(cmap.edges)
    assert list(exact_distribution(circuit).items()) == [(key, 0.5) for key in expected], sorted(cmap.edges)


def compile_map(edges, num_qubits: int, every_width: bool) -> None:
    """Check the ranks and the root, then compile ghz, envariance and parity.

    The circuits span the root's whole component, and with ``every_width``
    also each smaller width; one qubit past the component must raise
    UnreachableQubitsError.
    """
    cmap = CouplingMap(num_qubits, edges)
    ranks = closure_ranks(num_qubits, edges)
    assert _ranks(cmap) == ranks, edges
    root = ranks.index(max(ranks))  # the lowest index among the top-ranked qubits
    reach = component_size(num_qubits, edges, root)
    with mock.patch.object(simulator, "MAX_SUPPORT_DIMENSION", 1):
        for n in range(1, reach + 1) if every_width else (reach,):
            path = path_for(cmap, n)
            assert path.root == root, edges
            for circuit in (build_ghz(cmap, path), build_envariance(cmap, path)):
                check_compiled(cmap, circuit, ["0" * n, "1" * n])
            if n >= 2:  # parity needs a result qubit and at least one query qubit
                for pattern in OraclePattern:
                    check_compiled(cmap, build_parity(cmap, path, pattern),
                                   ["0" * n, "1" + effective_a(path, pattern)])
    if reach < num_qubits:
        with pytest.raises(UnreachableQubitsError):
            path_for(cmap, reach + 1)


def test_the_space_is_every_labelled_map():
    assert len({tuple(edges) for edges in THREE_QUBIT_EDGES}) == 4 ** 3
    assert len({tuple(edges) for edges in FOUR_QUBIT_EDGES}) == 4 ** 6


@pytest.mark.parametrize("edges", THREE_QUBIT_EDGES, ids=map_id)
def test_three_qubit_map_compiles_at_every_width_it_reaches(edges):
    compile_map(edges, 3, every_width=True)


@pytest.mark.parametrize("run", FOUR_QUBIT_RUNS, ids=lambda run: f"01-02:{map_id(run[0])}")
def test_four_qubit_maps_compile_at_their_full_reachable_width(run):
    for edges in run:
        compile_map(edges, 4, every_width=False)
