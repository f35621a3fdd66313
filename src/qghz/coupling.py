"""Device topologies as directed graphs and reachability-based qubit ranking.

A coupling map is a directed graph over physical qubits: an edge (c, t)
means a native CNOT with control c and target t is available. Two real
device maps ship as data files, ``qx4`` (5 qubits) and ``qx5`` (16 qubits);
``load_map`` reads the same JSON schema from arbitrary files.

Each qubit x gets a rank: the number of other qubits that can reach x along
directed edges. The top-ranked qubit is the natural root for spreading
entanglement, since every CNOT chain must flow into it.

``rank_all`` computes every rank in one pass. Each qubit holds a Python-int
bitset of the qubits known to reach it, seeded with its own bit. A FIFO
worklist, seeded with every qubit, ORs each popped qubit's set into its
successors' sets and re-queues a successor only when its set grew. At the
fixed point each set is the qubit's ancestors plus itself, so the rank is
its popcount minus one: a qubit on a cycle never counts itself, and a qubit
reached along several paths counts once. Memory is one bitset per qubit, at
most num_qubits**2 / 8 bytes in all.
"""

from __future__ import annotations

import json
from collections import deque
from importlib import resources
from pathlib import Path

import numpy as np

BUNDLED_MAPS = ("qx4", "qx5")

# Largest num_qubits a map may declare; checked before any per-qubit allocation.
MAX_MAP_QUBITS = 100_000


class MapFormatError(ValueError):
    """A map document failed validation; the message names the offending field."""


def _is_index(value) -> bool:
    """A plain int; JSON true/false parse as bools, which are ints in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


class CouplingMap:
    """Directed CNOT-connectivity graph over ``num_qubits`` physical qubits."""

    def __init__(self, num_qubits: int, edges, name: str = ""):
        if not _is_index(num_qubits) or num_qubits <= 0:
            raise MapFormatError(f"num_qubits must be a positive integer, got {num_qubits!r}")
        if num_qubits > MAX_MAP_QUBITS:
            raise MapFormatError(f"num_qubits {num_qubits} exceeds the limit of {MAX_MAP_QUBITS}")
        seen: set[tuple[int, int]] = set()
        for i, edge in enumerate(edges):
            try:
                control, target = edge
            except (TypeError, ValueError):
                raise MapFormatError(f"edges[{i}]: expected a [control, target] pair, got {edge!r}") from None
            if not _is_index(control) or not _is_index(target):
                raise MapFormatError(f"edges[{i}]: qubit indices must be integers, got {edge!r}")
            if not (0 <= control < num_qubits) or not (0 <= target < num_qubits):
                raise MapFormatError(f"edges[{i}]: index out of range [0, {num_qubits}) in ({control}, {target})")
            if control == target:
                raise MapFormatError(f"edges[{i}]: self-loop ({control}, {control})")
            if (control, target) in seen:
                raise MapFormatError(f"edges[{i}]: duplicate edge ({control}, {target})")
            seen.add((control, target))

        self.name = name
        self.num_qubits = num_qubits
        self.edges = frozenset(seen)
        succ: list[list[int]] = [[] for _ in range(num_qubits)]
        pred: list[list[int]] = [[] for _ in range(num_qubits)]
        for control, target in seen:
            succ[control].append(target)
            pred[target].append(control)
        self._successors = tuple(tuple(sorted(s)) for s in succ)
        self._predecessors = tuple(tuple(sorted(p)) for p in pred)
        self._neighbors = tuple(
            tuple(sorted(set(s) | set(p))) for s, p in zip(self._successors, self._predecessors)
        )

    def successors(self, qubit: int) -> tuple[int, ...]:
        """Qubits reachable from ``qubit`` by one directed edge, ascending."""
        return self._successors[qubit]

    def predecessors(self, qubit: int) -> tuple[int, ...]:
        """Qubits with a directed edge into ``qubit``, ascending."""
        return self._predecessors[qubit]

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        """Union of predecessors and successors, ascending."""
        return self._neighbors[qubit]

    def has_edge(self, control: int, target: int) -> bool:
        return (control, target) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return f"CouplingMap({label}{self.num_qubits} qubits, {len(self.edges)} edges)"


def load_map(document) -> CouplingMap:
    """Build a validated CouplingMap from JSON text or an already-parsed dict.

    The document needs ``num_qubits`` and ``edges`` (a list of two-element
    [control, target] arrays); ``name`` is optional.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"map document is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise MapFormatError(f"map document must be a JSON object, got {type(document).__name__}")
    for field in ("num_qubits", "edges"):
        if field not in document:
            raise MapFormatError(f"map document is missing required field {field!r}")
    return CouplingMap(
        document["num_qubits"],
        document["edges"],
        name=str(document.get("name", "")),
    )


def load_map_file(path: str | Path) -> CouplingMap:
    return load_map(Path(path).read_text())


def bundled_map(name: str) -> CouplingMap:
    """Load one of the packaged device maps by name (``qx4`` or ``qx5``)."""
    if name not in BUNDLED_MAPS:
        raise KeyError(f"no bundled map named {name!r}; available: {', '.join(BUNDLED_MAPS)}")
    text = resources.files("qghz.maps").joinpath(f"{name}.json").read_text()
    return load_map(text)


def resolve_map(spec: str) -> CouplingMap:
    """Interpret ``spec`` as a bundled map name first, then as a file path."""
    if spec in BUNDLED_MAPS:
        return bundled_map(spec)
    return load_map_file(spec)


def line_map(num_qubits: int) -> CouplingMap:
    """Directed line 0 -> 1 -> ... -> n-1, used for scaling checks and benchmarks."""
    return CouplingMap(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)], name=f"line{num_qubits}")


def rank_all(cmap: CouplingMap) -> np.ndarray:
    """Rank table for the whole map in one worklist pass (see the module docstring)."""
    n = cmap.num_qubits
    reach = [1 << x for x in range(n)]
    queue = deque(range(n))
    queued = [True] * n
    while queue:
        node = queue.popleft()
        queued[node] = False
        for nxt in cmap.successors(node):
            grown = reach[nxt] | reach[node]
            if grown != reach[nxt]:
                reach[nxt] = grown
                if not queued[nxt]:
                    queued[nxt] = True
                    queue.append(nxt)
    return np.array([r.bit_count() - 1 for r in reach], dtype=np.int64)


def most_connected(rank: np.ndarray) -> int:
    """Index of the highest-ranked qubit; ties break toward the lowest index."""
    if len(rank) == 0:
        raise ValueError("rank table is empty")
    return int(np.argmax(rank))
