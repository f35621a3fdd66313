from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import line_map
from oracles import QX4_EDGES, QX5_EDGES, closure_ranks
from qghz.coupling import (
    MAX_MAP_QUBITS,
    CouplingMap,
    MapFormatError,
    bundled_map,
    load_map,
    load_map_file,
    most_connected,
    rank_all,
    resolve_map,
)

CHAIN = CouplingMap(3, [(0, 1), (1, 2)])


class TestLoadMap:
    def test_minimal_legal_map(self):
        cmap = load_map({"num_qubits": 2, "edges": [[0, 1]]})
        assert cmap.num_qubits == 2
        assert cmap.edges == {(0, 1)}

    def test_parses_json_text(self):
        cmap = load_map('{"name": "tiny", "num_qubits": 2, "edges": [[0, 1]]}')
        assert cmap.name == "tiny"

    def test_self_loop_rejected_with_location(self):
        with pytest.raises(MapFormatError, match=r"edges\[0\].*self-loop"):
            load_map({"num_qubits": 2, "edges": [[0, 0]]})

    def test_index_out_of_range_rejected(self):
        with pytest.raises(MapFormatError, match=r"edges\[1\].*out of range"):
            load_map({"num_qubits": 2, "edges": [[0, 1], [1, 2]]})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(MapFormatError, match=r"edges\[2\].*duplicate"):
            load_map({"num_qubits": 3, "edges": [[0, 1], [1, 2], [0, 1]]})

    def test_missing_field_rejected(self):
        with pytest.raises(MapFormatError, match="edges"):
            load_map({"num_qubits": 2})

    def test_bad_json_rejected(self):
        with pytest.raises(MapFormatError, match="not valid JSON"):
            load_map("{num_qubits:")

    def test_non_integer_index_rejected(self):
        with pytest.raises(MapFormatError, match=r"edges\[0\]"):
            load_map({"num_qubits": 2, "edges": [[0.5, 1]]})

    def test_non_positive_size_rejected(self):
        with pytest.raises(MapFormatError, match="num_qubits"):
            load_map({"num_qubits": 0, "edges": []})

    def test_bool_size_rejected(self):
        with pytest.raises(MapFormatError, match="num_qubits"):
            load_map('{"num_qubits": true, "edges": []}')

    def test_size_above_limit_rejected(self):
        with pytest.raises(MapFormatError, match="exceeds the limit"):
            load_map({"num_qubits": MAX_MAP_QUBITS + 1, "edges": []})

    def test_integral_float_index_rejected(self):
        with pytest.raises(MapFormatError, match=r"edges\[0\].*integers"):
            load_map('{"num_qubits": 3, "edges": [[1.0, 2]]}')

    def test_bool_edge_index_rejected(self):
        with pytest.raises(MapFormatError, match=r"edges\[0\].*integers"):
            load_map('{"num_qubits": 3, "edges": [[true, 2]]}')

    @pytest.mark.parametrize("edges", ["null", "5", '""', '{"01": 1}'])
    def test_edges_must_be_an_array(self, edges):
        with pytest.raises(MapFormatError, match="edges must be a JSON array"):
            load_map(f'{{"num_qubits": 2, "edges": {edges}}}')

    @pytest.mark.parametrize("name", ["null", '["a"]', "3", "{}"])
    def test_name_must_be_a_string(self, name):
        # Not written to manifest.json as "None" or "['a']".
        with pytest.raises(MapFormatError, match="name must be a JSON string"):
            load_map(f'{{"name": {name}, "num_qubits": 2, "edges": []}}')

    @pytest.mark.parametrize("document", [b"\x80abc", b'{"name": "\xff", "num_qubits": 2, "edges": []}'])
    def test_undecodable_bytes_rejected(self, document, tmp_path):
        with pytest.raises(MapFormatError, match="not valid JSON"):
            load_map(document)
        path = tmp_path / "map.json"
        path.write_bytes(document)
        with pytest.raises(MapFormatError, match="not valid JSON"):
            load_map_file(path)

    @pytest.mark.parametrize("document", ["[" * 100_000, '{"num_qubits": 2, "edges": ' + "[" * 100_000])
    def test_deep_nesting_rejected(self, document):
        with pytest.raises(MapFormatError, match="nests too deeply"):
            load_map(document)


class TestBundledMaps:
    def test_qx4_matches_transcription(self):
        cmap = bundled_map("qx4")
        assert cmap.num_qubits == 5
        assert cmap.edges == set(QX4_EDGES)

    def test_qx5_matches_transcription(self):
        cmap = bundled_map("qx5")
        assert cmap.num_qubits == 16
        assert cmap.edges == set(QX5_EDGES)

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            bundled_map("qx99")

    def test_resolve_prefers_bundled_names(self):
        assert resolve_map("qx4").name == "qx4"

    def test_adjacency_views_sorted(self):
        cmap = bundled_map("qx5")
        assert cmap.successors(6) == (5, 7, 11)
        assert cmap.predecessors(4) == (3, 5, 13)
        assert cmap.neighbors(4) == (3, 5, 13)
        assert cmap.neighbors(2) == (1, 3, 15)


class TestRankAll:
    def test_chain(self):
        assert rank_all(CHAIN).tolist() == [0, 1, 2]

    def test_edgeless(self):
        assert rank_all(CouplingMap(3, [])).tolist() == [0, 0, 0]

    def test_two_cycle_never_counts_itself(self):
        assert rank_all(CouplingMap(2, [(0, 1), (1, 0)])).tolist() == [1, 1]

    def test_diamond_counts_each_source_once(self):
        # two paths from 0 to 3, still one count for 0 in rank[3]
        cmap = CouplingMap(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert rank_all(cmap).tolist() == [0, 1, 1, 3]

    def test_complete_bidirectional(self):
        cmap = CouplingMap(3, [(a, b) for a in range(3) for b in range(3) if a != b])
        assert rank_all(cmap).tolist() == [2, 2, 2]

    def test_qx4_ranks_and_hub(self):
        cmap = bundled_map("qx4")
        ranks = rank_all(cmap)
        assert ranks.tolist() == closure_ranks(5, QX4_EDGES) == [3, 2, 1, 0, 2]
        assert most_connected(ranks) == 0

    def test_qx5_ranks_and_hub(self):
        cmap = bundled_map("qx5")
        ranks = rank_all(cmap)
        assert ranks.tolist() == closure_ranks(16, QX5_EDGES)
        assert ranks.tolist() == [2, 0, 2, 3, 8, 2, 0, 3, 1, 0, 6, 2, 0, 1, 6, 0]
        assert most_connected(ranks) == 4

    def test_rank_bounded_by_n_minus_1(self):
        for n in (1, 4, 9):
            cmap = line_map(n)
            assert (rank_all(cmap) <= n - 1).all()


class TestMostConnected:
    def test_unique_maximum(self):
        assert most_connected(np.array([0, 1, 2])) == 2

    def test_tie_breaks_to_lowest_index(self):
        assert most_connected(np.array([3, 3, 1])) == 0

    def test_empty_table(self):
        with pytest.raises(ValueError):
            most_connected(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="rank table is empty"):
            most_connected([])

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30))
    def test_list_and_array_pick_the_same_qubit(self, ranks):
        # Small values make ties common; the lowest index among the maxima wins either way.
        assert most_connected(ranks) == most_connected(np.array(ranks, dtype=np.int64)) == ranks.index(max(ranks))


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    all_pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    return n, edges


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_rank_all_matches_transitive_closure(graph):
    n, edges = graph
    assert rank_all(CouplingMap(n, edges)).tolist() == closure_ranks(n, edges)


ADVERSARIAL_QUBITS = 300


def adversarial_edges(kind: str) -> list[tuple[int, int]]:
    """Edges whose labels run against a FIFO pass over 0..n-1, forcing re-queues."""
    n = ADVERSARIAL_QUBITS
    rng = np.random.default_rng(20261018)
    label = rng.permutation(n).tolist()
    if kind == "reversed-line":
        return [(i + 1, i) for i in range(n - 1)]
    if kind == "shuffled-line":
        return [(label[i], label[i + 1]) for i in range(n - 1)]
    if kind == "shuffled-cycle":
        return [(label[i], label[(i + 1) % n]) for i in range(n)]
    return sorted({(int(c), int(t)) for c, t in rng.integers(0, n, size=(2 * n, 2)) if c != t})


@pytest.mark.parametrize("kind", ["reversed-line", "shuffled-line", "shuffled-cycle", "random-digraph"])
def test_rank_all_matches_closure_when_qubits_requeue(kind):
    edges = adversarial_edges(kind)
    ranks = rank_all(CouplingMap(ADVERSARIAL_QUBITS, edges))
    assert ranks.dtype == np.int64
    assert ranks.tolist() == closure_ranks(ADVERSARIAL_QUBITS, edges)


def test_rank_all_reversed_line_in_one_sweep():
    # Labels run against every edge; a label-order worklist needs n rounds here.
    n = 20_000
    ranks = rank_all(CouplingMap(n, [(i + 1, i) for i in range(n - 1)]))
    assert ranks.tolist() == [n - 1 - i for i in range(n)]


def cycle_grid_edges(side: int, rng) -> list[tuple[int, int]]:
    """side x side grid (side even) whose couplings follow one directed Hamiltonian cycle.

    The cycle runs along row 0, snakes over columns 1.. of the other rows
    and returns up column 0. Couplings off the cycle point either way at
    random.
    """
    cycle = [(0, c) for c in range(side)]
    for r in range(1, side):
        cycle += [(r, c) for c in (range(side - 1, 0, -1) if r % 2 else range(1, side))]
    cycle += [(r, 0) for r in range(side - 1, 0, -1)]
    labels = [r * side + c for r, c in cycle]
    directed = {frozenset(pair): pair for pair in zip(labels, labels[1:] + labels[:1])}
    edges = []
    for q in range(side * side):
        for other in ((q + 1) if (q + 1) % side else None, (q + side) if q + side < side * side else None):
            if other is not None:
                pair = directed.get(frozenset((q, other)))
                edges.append(pair or ((q, other) if rng.random() < 0.5 else (other, q)))
    return edges


def test_rank_all_cyclic_grid_is_one_component():
    # Every qubit reaches every other, so every rank is n - 1.
    side = 100
    edges = cycle_grid_edges(side, np.random.default_rng(11))
    assert len(edges) == 2 * side * (side - 1)
    ranks = rank_all(CouplingMap(side * side, edges))
    assert ranks.tolist() == [side * side - 1] * (side * side)


@pytest.mark.parametrize("cycles", [1, 2, 7, 40])
def test_rank_all_chained_three_cycles(cycles):
    # Cycle i reaches cycle i + 1 by one edge, so its members are reached by
    # the 3 * (i + 1) members of cycles 0..i, themselves excluded.
    label = np.random.default_rng(cycles).permutation(3 * cycles).tolist()
    edges = []
    for i in range(cycles):
        a, b, c = label[3 * i:3 * i + 3]
        edges += [(a, b), (b, c), (c, a)]
        if i + 1 < cycles:
            edges.append((c, label[3 * i + 3]))
    ranks = rank_all(CouplingMap(3 * cycles, edges))
    for position, qubit in enumerate(label):
        assert ranks[qubit] == 3 * (position // 3 + 1) - 1


def test_rank_all_large_random_digraph_matches_closure():
    n = 2000
    rng = np.random.default_rng(20261018)
    edges = sorted({(int(c), int(t)) for c, t in rng.integers(0, n, size=(2 * n, 2)) if c != t})
    assert rank_all(CouplingMap(n, edges)).tolist() == closure_ranks(n, edges)
