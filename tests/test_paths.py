from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_connected_map
from oracles import check_spanning_tree
from qghz.coupling import CouplingMap, bundled_map, most_connected, rank_all
from qghz.paths import ConnectionPath, UnreachableQubitsError, create_path, path_for

CHAIN = CouplingMap(3, [(0, 1), (1, 2)])


def test_chain_from_tail_hand_trace():
    path = create_path(CHAIN, root=2, requested=3)
    assert path.pairs == ((1, 2), (0, 1))


def test_single_qubit_path_is_empty():
    path = create_path(CHAIN, root=1, requested=1)
    assert path.pairs == ()
    assert path.involved() == (1,)


def test_involved_order_is_root_then_new_nodes():
    path = create_path(CHAIN, root=2, requested=3)
    assert path.involved() == (2, 1, 0)


def test_budget_exactness():
    cmap = bundled_map("qx5")
    for requested in range(1, 17):
        path = create_path(cmap, 4, requested)
        assert len(path.pairs) == requested - 1


def test_qx5_full_path_breadth_first_trace():
    # frozen hand-trace: FIFO over the connected set, neighbors ascending
    path = create_path(bundled_map("qx5"), root=4, requested=16)
    assert path.pairs == (
        (3, 4), (5, 4), (13, 4), (2, 3), (14, 3), (6, 5), (12, 5), (1, 2),
        (15, 2), (7, 6), (11, 6), (0, 1), (8, 7), (10, 7), (9, 8),
    )
    check_spanning_tree(path.root, path.pairs, 16)


def test_qx4_full_path():
    path = create_path(bundled_map("qx4"), root=0, requested=5)
    assert path.pairs == ((1, 0), (2, 0), (3, 2), (4, 2))
    check_spanning_tree(0, path.pairs, 5)


def test_pairs_are_undirected_edges_of_the_map():
    cmap = bundled_map("qx5")
    path = create_path(cmap, 4, 16)
    for new, anchor in path.pairs:
        assert cmap.has_edge(new, anchor) or cmap.has_edge(anchor, new)


def test_unreachable_qubits_reports_shortfall():
    cmap = CouplingMap(4, [(0, 1)])  # component {0, 1}; 2 and 3 isolated
    with pytest.raises(UnreachableQubitsError) as exc_info:
        create_path(cmap, 0, 4)
    assert exc_info.value.shortfall == 2
    assert "2 short" in str(exc_info.value)


def test_direction_does_not_matter_for_connectivity():
    # edges point away from 2; the path still spans via undirected neighbors
    cmap = CouplingMap(3, [(2, 0), (2, 1)])
    path = create_path(cmap, 0, 3)
    check_spanning_tree(0, path.pairs, 3)


def test_determinism():
    cmap = bundled_map("qx5")
    assert create_path(cmap, 4, 12) == create_path(cmap, 4, 12)


def test_root_out_of_range():
    with pytest.raises(IndexError):
        create_path(CHAIN, 3, 2)


@pytest.mark.parametrize("requested", [0, 4])
def test_requested_out_of_range(requested):
    with pytest.raises(ValueError):
        create_path(CHAIN, 0, requested)


def test_spanning_property_on_random_maps(rng):
    for _ in range(60):
        cmap = random_connected_map(rng, max_qubits=16)
        requested = int(rng.integers(1, cmap.num_qubits + 1))
        root = int(rng.integers(0, cmap.num_qubits))
        path = create_path(cmap, root, requested)
        check_spanning_tree(root, path.pairs, requested)
        for new, anchor in path.pairs:
            assert cmap.has_edge(new, anchor) or cmap.has_edge(anchor, new)


@st.composite
def connected_maps(draw, max_qubits=200):
    """Weakly connected map: a random tree with random edge directions, extra edges, labels shuffled."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    label = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        pair = (label[i], label[draw(st.integers(0, i - 1))])
        edges.add(pair if draw(st.booleans()) else pair[::-1])
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(c, t) for c, t in extra if c != t}
    return CouplingMap(n, sorted(edges))


@given(connected_maps(), st.data())
def test_path_for_roots_at_the_public_rank_table_choice(cmap, data):
    n = data.draw(st.integers(1, cmap.num_qubits))
    assert path_for(cmap, n).root == most_connected(rank_all(cmap))


def test_path_dataclass_is_frozen():
    path = ConnectionPath(root=0, pairs=((1, 0),), requested=2)
    with pytest.raises(AttributeError):
        path.root = 1
