"""Device topologies as directed graphs and reachability-based qubit ranking.

A coupling map is a directed graph over physical qubits: an edge (c, t)
means a native CNOT with control c and target t is available. Two real
device maps ship as data files, ``qx4`` (5 qubits) and ``qx5`` (16 qubits);
``load_map`` reads the same JSON schema from arbitrary files.

Each qubit x gets a rank: the number of other qubits that can reach x along
directed edges. The top-ranked qubit is the natural root for spreading
entanglement, since every CNOT chain must flow into it.

``_ranks`` computes every rank in one sweep over the strongly connected
components (Kosaraju; Purdom 1970 and Sharir 1981 condense components the
same way before propagating reachability). Qubits on one directed cycle
reach exactly the same qubits, so they share one Python-int bitset. The
first pass is an iterative DFS over successors that lists the qubits in
reverse postorder. The second walks the qubits in that order; each qubit
not yet in a component starts a stack walk over predecessors that labels
its component, and the components come out in topological order. A
component's set is its members' bits ORed with the final set of every
earlier component with an edge into it: one OR per edge, nothing
revisited. A qubit's rank is its component's popcount minus one, so a
qubit on a cycle never counts itself and a qubit reached along several
paths counts once. Memory is one bitset per component, at most
num_qubits**2 / 8 bytes in all. README's "Map files" section gives
measured times.

The sweep returns a list of ints, and the compiler (``paths.path_for``)
reads it as such, so this module does not import numpy and neither does a
compile. The public ``rank_all`` wraps the same list in an int64 ndarray
and imports numpy only when it is called; ``most_connected`` takes either.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BUNDLED_MAPS = ("qx4", "qx5")

# Largest num_qubits a map may declare; checked before any per-qubit allocation.
MAX_MAP_QUBITS = 100_000


class MapFormatError(ValueError):
    """A map document failed validation; the message names the offending field."""


class CouplingMap:
    """Directed CNOT-connectivity graph over ``num_qubits`` physical qubits."""

    def __init__(self, num_qubits: int, edges, name: str = ""):
        # type() rather than isinstance(): JSON true/false parse as bools, which are ints in Python.
        if type(num_qubits) is not int or num_qubits <= 0:
            raise MapFormatError(f"num_qubits must be a positive integer, got {num_qubits!r}")
        if num_qubits > MAX_MAP_QUBITS:
            raise MapFormatError(f"num_qubits {num_qubits} exceeds the limit of {MAX_MAP_QUBITS}")
        seen: set[tuple[int, int]] = set()
        succ: list[list[int]] = [[] for _ in range(num_qubits)]
        pred: list[list[int]] = [[] for _ in range(num_qubits)]
        for i, edge in enumerate(edges):
            try:
                control, target = edge
            except (TypeError, ValueError):
                raise MapFormatError(f"edges[{i}]: expected a [control, target] pair, got {edge!r}") from None
            if type(control) is not int or type(target) is not int:
                raise MapFormatError(f"edges[{i}]: qubit indices must be integers, got {edge!r}")
            if not (0 <= control < num_qubits) or not (0 <= target < num_qubits):
                raise MapFormatError(f"edges[{i}]: index out of range [0, {num_qubits}) in ({control}, {target})")
            if control == target:
                raise MapFormatError(f"edges[{i}]: self-loop ({control}, {control})")
            pair = (control, target)
            if pair in seen:
                raise MapFormatError(f"edges[{i}]: duplicate edge ({control}, {target})")
            seen.add(pair)
            succ[control].append(target)
            pred[target].append(control)

        self.name = name
        self.num_qubits = num_qubits
        self.edges = frozenset(seen)
        self._successors = tuple(tuple(sorted(s)) for s in succ)
        self._predecessors = tuple(tuple(sorted(p)) for p in pred)
        self._neighbors = tuple(tuple(sorted({*s, *p})) for s, p in zip(succ, pred))

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

    The document needs ``num_qubits`` and ``edges`` (an array of two-element
    [control, target] arrays); ``name`` is optional.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"map document is not valid JSON: {exc}") from exc
        except RecursionError:
            raise MapFormatError("map document nests too deeply to parse") from None
    if not isinstance(document, dict):
        raise MapFormatError(f"map document must be a JSON object, got {type(document).__name__}")
    for field in ("num_qubits", "edges"):
        if field not in document:
            raise MapFormatError(f"map document is missing required field {field!r}")
    if not isinstance(document["edges"], list):
        raise MapFormatError(f"edges must be a JSON array, got {type(document['edges']).__name__}")
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


def _reverse_postorder(cmap: CouplingMap) -> list[int]:
    """Every qubit in reverse DFS postorder over successors: a topological order when the map is acyclic."""
    n = cmap.num_qubits
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(cmap.successors(root)))]
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(cmap.successors(nxt))))
                    break
            else:
                stack.pop()
                order.append(node)
    order.reverse()
    return order


def _ranks(cmap: CouplingMap) -> list[int]:
    """Every qubit's rank, by qubit index, from one component sweep (see the module docstring)."""
    component = [-1] * cmap.num_qubits
    reach: list[int] = []  # per component, in topological order
    for root in _reverse_postorder(cmap):
        if component[root] >= 0:
            continue
        label = len(reach)
        component[root] = label
        bits = 0
        stack = [root]
        while stack:
            node = stack.pop()
            bits |= 1 << node
            for prev in cmap.predecessors(node):
                owner = component[prev]
                if owner < 0:
                    component[prev] = label
                    stack.append(prev)
                elif owner != label:
                    bits |= reach[owner]
        reach.append(bits)
    ranks = [r.bit_count() - 1 for r in reach]
    return [ranks[c] for c in component]


def rank_all(cmap: CouplingMap) -> np.ndarray:
    """Rank table for the whole map as an int64 ndarray, by qubit index."""
    import numpy as np

    return np.array(_ranks(cmap), dtype=np.int64)


def most_connected(rank: list[int] | np.ndarray) -> int:
    """Index of the highest-ranked qubit in a list or array of ranks; ties break toward the lowest index."""
    if len(rank) == 0:
        raise ValueError("rank table is empty")
    return max(range(len(rank)), key=rank.__getitem__)
