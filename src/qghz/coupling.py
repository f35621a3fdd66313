"""Device topologies as directed graphs and reachability-based qubit ranking.

An edge (c, t) of a coupling map means a native CNOT with control c and
target t is available. ``qx4`` (5 qubits) and ``qx5`` (16 qubits) ship as
data files; ``load_map`` reads the same JSON schema from any file. A
qubit's rank is the number of other qubits that reach it along directed
edges, so the top-ranked qubit is the natural root for spreading
entanglement.

``_ranks`` computes every rank in one sweep over the strongly connected
components (Kosaraju; Purdom 1970 and Sharir 1981 condense components the
same way before propagating reachability), one OR per edge and one
Python-int bitset per component: at most num_qubits**2 / 8 bytes. README's
"Map files" section gives the sweep and measured times. It returns a list
of ints, which the compiler (``paths.path_for``) reads, so neither this
module nor a compile imports numpy; the public ``rank_all`` wraps the list
in an int64 ndarray and imports numpy only when called.
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

    def __repr__(self) -> str:
        label = f"{self.name!r}, " if self.name else ""
        return f"CouplingMap({label}{self.num_qubits} qubits, {len(self.edges)} edges)"


def load_map(document) -> CouplingMap:
    """Build a validated CouplingMap from JSON text or an already-parsed dict.

    The document needs ``num_qubits`` and ``edges`` (an array of two-element
    [control, target] arrays); ``name`` is optional and must be a string.
    Bytes are decoded as UTF-8, -16 or -32, as ``json.loads`` detects.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    name = document.get("name", "")
    if not isinstance(name, str):
        raise MapFormatError(f"name must be a JSON string, got {type(name).__name__}")
    return CouplingMap(document["num_qubits"], document["edges"], name=name)


def load_map_file(path: str | Path) -> CouplingMap:
    return load_map(Path(path).read_bytes())


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
