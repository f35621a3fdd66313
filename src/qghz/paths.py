"""Connection paths: spanning trees of qubit pairs grown outward from a root.

The compiler involves exactly ``requested`` qubits in a circuit. Starting
from the root, a breadth-first sweep over undirected couplings emits
(new_node, anchor_node) pairs until requested - 1 pairs exist; every anchor
is already connected, so the pairs always form a tree rooted at the root.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coupling import CouplingMap, _ranks, most_connected


class UnreachableQubitsError(ValueError):
    """The root's weakly-connected component is smaller than the request."""

    def __init__(self, requested: int, connected: int):
        self.requested = requested
        self.connected = connected
        self.shortfall = requested - connected
        super().__init__(
            f"requested {requested} qubits but only {connected} are reachable "
            f"from the root ({self.shortfall} short)"
        )


@dataclass(frozen=True)
class ConnectionPath:
    """Tree of couplings spanning the involved qubits.

    ``pairs`` lists (new_node, anchor_node) in emission order; each pair
    corresponds to a coupling-map edge in one direction or the other, and
    each anchor is the root or an earlier new_node.
    """

    root: int
    pairs: tuple[tuple[int, int], ...]
    requested: int

    def involved(self) -> tuple[int, ...]:
        """Qubits touched by the path: root first, then new nodes in pair order."""
        return (self.root,) + tuple(new for new, _ in self.pairs)


def create_path(cmap: CouplingMap, root: int, requested: int) -> ConnectionPath:
    """Grow a spanning tree of ``requested`` qubits outward from ``root``.

    Connected qubits are processed in insertion order (FIFO, so the
    expansion is breadth-first and the tree stays shallow); each one scans
    its undirected neighbors in ascending index order and claims those not
    yet connected. Raises UnreachableQubitsError when the component is
    exhausted before the budget.
    """
    if not (0 <= root < cmap.num_qubits):
        raise IndexError(f"root {root} out of range [0, {cmap.num_qubits})")
    if not (1 <= requested <= cmap.num_qubits):
        raise ValueError(f"requested must be in [1, {cmap.num_qubits}], got {requested}")

    budget = requested - 1
    pairs: list[tuple[int, int]] = []
    connected = [root]
    in_tree = {root}
    cursor = 0
    while budget > 0 and cursor < len(connected):
        anchor = connected[cursor]
        cursor += 1
        for neighbor in cmap.neighbors(anchor):
            if budget == 0:
                break
            if neighbor not in in_tree:
                pairs.append((neighbor, anchor))
                in_tree.add(neighbor)
                connected.append(neighbor)
                budget -= 1
    if budget > 0:
        raise UnreachableQubitsError(requested, len(connected))
    return ConnectionPath(root=root, pairs=tuple(pairs), requested=requested)


def path_for(cmap: CouplingMap, n: int) -> ConnectionPath:
    """Connection path over n qubits rooted at the map's most connected qubit."""
    return create_path(cmap, most_connected(_ranks(cmap)), n)
