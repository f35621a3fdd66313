"""Hardware-legal circuit construction and OpenQASM 2.0 emission.

Each experiment has one builder, ``build_ghz``, ``build_envariance`` or
``build_parity``, which takes a CouplingMap plus a ConnectionPath and
returns the measured circuit. Every CNOT it emits runs along an available
directed edge: a logical CNOT against the edge direction becomes the
available CNOT between Hadamards on both qubits. No peephole cancellation
follows, so emitted circuits stay structurally auditable. The envariance
circuit's pre-measurement state equals the GHZ state, and measuring the
parity circuit yields (0^n, 0) or (a, 1) with equal probability, where a
is ``effective_a``. A gate is a plain ``(kind, operands)`` record, as in
Stim's flat (gate, targets) records: ``Gate`` is a ``NamedTuple`` that
checks nothing, and the factories ``h``, ``x`` and ``cnot`` build it
directly. ``Circuit`` holds every gate rule and checks each gate once: a
known kind, a tuple of int operands of its count, qubits in range, and
distinct cnot qubits. A circuit's gates are h/x/cnot only; its one
measurement is ``measured_qubits``, measured after every gate, the j-th
qubit into classical bit j. ``emit_qasm``, ``circuit_to_json_dict`` and
``Circuit.counts`` render those terminal measures from the field, so each
measure writes a declared classical bit (OpenQASM 2.0, Cross et al. 2017).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .coupling import CouplingMap
from .paths import ConnectionPath

H = "h"
X = "x"
CNOT = "cnot"
MEASURE = "measure"  # the rendering key of the terminal measures, not a gate kind

_QASM = {H: "h q[%d];", X: "x q[%d];", CNOT: "cx q[%d],q[%d];"}


class IllegalCouplingError(ValueError):
    """Neither direction of a requested CNOT is a coupling-map edge."""


_tuple_new = tuple.__new__


class Gate(NamedTuple):
    """One gate; plain ``(kind, operands)`` tuples equal it and hash the same.

    Operands are (qubit,) for h/x and (control, target) for cnot.
    ``Circuit`` checks them.
    """

    kind: str
    operands: tuple[int, ...]


def h(qubit: int) -> Gate:
    return _tuple_new(Gate, (H, (qubit,)))


def x(qubit: int) -> Gate:
    return _tuple_new(Gate, (X, (qubit,)))


def cnot(control: int, target: int) -> Gate:
    return _tuple_new(Gate, (CNOT, (control, target)))


@dataclass(frozen=True)
class Circuit:
    """Ordered h/x/cnot gates over ``width`` physical qubits, then one measurement of ``measured_qubits``.

    Every measured qubit is measured after the last gate, the i-th listed
    qubit into classical bit i, and bit 0 renders leftmost in bitstrings.
    Construction raises ValueError for a width that is not a positive int
    (a bool is not an int), gates or measured qubits not held in a tuple,
    measured qubits that are not distinct ints in range, and, naming the
    gate index and the rule, for an unknown kind (``measure`` included),
    operands that are not a tuple of ints (a bool or an integral float is
    not an int), a wrong operand count, a qubit outside [0, width), or
    coinciding cnot qubits.
    """

    width: int
    gates: tuple[Gate, ...]
    measured_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        width, gates, measured = self.width, self.gates, self.measured_qubits
        if width.__class__ is not int or width < 1:
            raise ValueError(f"width {width!r} is not a positive int")
        if gates.__class__ is not tuple or measured.__class__ is not tuple:
            raise ValueError(f"gates and measured qubits must each be a tuple, so the circuit hashes; got a "
                             f"{gates.__class__.__name__} and a {measured.__class__.__name__}")
        if len(set(measured)) != len(measured) or not all(q.__class__ is int and 0 <= q < width for q in measured):
            raise ValueError(f"measured qubit list {measured} holds a duplicate, a non-int or a qubit out of range "
                             f"[0, {width})")
        for i, (kind, operands) in enumerate(gates):
            if operands.__class__ is tuple:
                if kind == CNOT and len(operands) == 2:
                    control, target = operands
                    if (control.__class__ is int and target.__class__ is int and control != target
                            and 0 <= control < width and 0 <= target < width):
                        continue
                elif ((kind == H or kind == X) and len(operands) == 1 and operands[0].__class__ is int
                      and 0 <= operands[0] < width):
                    continue
            raise ValueError(f"gate {i} ({kind!r}, {operands!r}): {self._broken_rule(kind, operands)}")

    def _broken_rule(self, kind, operands) -> str:
        """The rule a rejected gate breaks; only rejection calls this."""
        if kind not in (H, X, CNOT):
            return "unknown gate kind"
        if operands.__class__ is not tuple:
            return f"operands are a {operands.__class__.__name__}, not a tuple"
        arity = 1 if kind in (H, X) else 2
        if len(operands) != arity:
            return f"{kind} takes {arity} operands, got {len(operands)}"
        if any(q.__class__ is not int for q in operands):
            return "operand is not an int"
        if kind == CNOT and operands[0] == operands[1]:
            return "cnot control and target coincide"
        return f"qubit out of range [0, {self.width})"

    def counts(self) -> dict[str, int]:
        """Number of gates of each kind, in order of first appearance, then the measures if any."""
        counts = dict(Counter(map(itemgetter(0), self.gates)))
        if self.measured_qubits:
            counts[MEASURE] = len(self.measured_qubits)
        return counts


class OraclePattern(Enum):
    """Which path pairs carry a CNOT in the parity oracle."""

    ALL_ZEROS = "00"
    HALF = "10"
    ALL_ONES = "11"


def cnot_legal(cmap: CouplingMap, control: int, target: int) -> list[Gate]:
    """Expand a logical CNOT into gates legal on the map.

    Direct edge: a single CNOT. Only the reverse edge available: the
    inverse-CNOT of the reversed pair, H on both qubits around the
    available CNOT (4 extra gates). No edge either way is an error.
    """
    if cmap.has_edge(control, target):
        return [cnot(control, target)]
    if cmap.has_edge(target, control):
        # Gates are frozen values, so each Hadamard object appears twice.
        h_control, h_target = h(control), h(target)
        return [h_control, h_target, cnot(target, control), h_target, h_control]
    raise IllegalCouplingError(f"no coupling between qubits {control} and {target} in either direction")


def ghz_gates(cmap: CouplingMap, path: ConnectionPath) -> list[Gate]:
    """H on the root, then anchor-controlled CNOTs walking the path."""
    gates = [h(path.root)]
    for new, anchor in path.pairs:
        gates.extend(cnot_legal(cmap, anchor, new))
    return gates


def build_ghz(cmap: CouplingMap, path: ConnectionPath) -> Circuit:
    """GHZ preparation over the involved qubits, then measure them in involved order."""
    return Circuit(cmap.num_qubits, tuple(ghz_gates(cmap, path)), path.involved())


def build_envariance(cmap: CouplingMap, path: ConnectionPath) -> Circuit:
    """GHZ prefix, one X layer over the involved qubits in involved order, then measurements.

    The layer is the system's flip (the first ceil(n/2) involved qubits)
    followed by the environment's (the rest).
    """
    involved = path.involved()
    gates = ghz_gates(cmap, path)
    gates.extend(x(q) for q in involved)
    return Circuit(cmap.num_qubits, tuple(gates), involved)


def _selected_pairs(path: ConnectionPath, pattern: OraclePattern) -> tuple[tuple[int, int], ...]:
    if pattern is OraclePattern.ALL_ONES:
        return path.pairs
    if pattern is OraclePattern.ALL_ZEROS:
        return ()
    return path.pairs[: len(path.involved()) // 2]


def effective_a(path: ConnectionPath, pattern: OraclePattern) -> str:
    """Encoded parity string produced by the placed CNOTs.

    Bit j (in involved order of the query qubits) is 1 iff that qubit's
    CNOT chain connects to the result qubit through placed pairs only.
    Computed from the pair structure directly so it stays valid even if the
    selection rule changes.
    """
    placed = _selected_pairs(path, pattern)
    reaches_root = {path.root}
    for new, anchor in placed:  # anchors precede their new nodes in pair order
        if anchor in reaches_root:
            reaches_root.add(new)
    return "".join("1" if q in reaches_root else "0" for q in path.involved()[1:])


def build_parity(cmap: CouplingMap, path: ConnectionPath, pattern: OraclePattern) -> Circuit:
    """Parity-learning oracle circuit with the path root as result qubit.

    The query register is every involved qubit except the root. Layers: H
    on each query qubit, the pattern-selected CNOTs oriented from new node
    toward anchor (query side toward result), a closing H on all involved
    qubits, then measurements. ALL_ONES places every pair's CNOT, HALF the
    first floor(N/2) pairs in path order (N = involved qubits), ALL_ZEROS
    none.
    """
    involved = path.involved()
    queries = involved[1:]
    gates = [h(q) for q in queries]
    for new, anchor in _selected_pairs(path, pattern):
        gates.extend(cnot_legal(cmap, new, anchor))
    gates.extend(h(q) for q in involved)
    return Circuit(cmap.num_qubits, tuple(gates), involved)


def verify_legality(cmap: CouplingMap, circuit: Circuit) -> list[str]:
    """Report every CNOT whose (control, target) is not a directed map edge."""
    violations = []
    for i, (kind, operands) in enumerate(circuit.gates):
        if kind == CNOT and operands not in cmap.edges:
            control, target = operands
            violations.append(f"gate {i}: cnot({control},{target}) is not a directed edge of the map")
    return violations


def emit_qasm(circuit: Circuit) -> str:
    """Render the circuit as OpenQASM 2.0 text.

    One quantum register ``q`` of the circuit width; a classical register
    ``c`` sized to the measured qubits, omitted when nothing is measured.
    The gates come first, then one measure per measured qubit, in bit order.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.width}];"]
    if circuit.measured_qubits:
        lines.append(f"creg c[{len(circuit.measured_qubits)}];")
    lines += [_QASM[kind] % operands for kind, operands in circuit.gates]
    lines += [f"measure q[{q}] -> c[{j}];" for j, q in enumerate(circuit.measured_qubits)]
    return "\n".join(lines) + "\n"


def circuit_to_json_dict(circuit: Circuit) -> dict:
    """Debug representation: plain dict of width, gates and measured qubits.

    The gate list ends with the terminal measures, each ``{"kind": "measure", "operands": [qubit, bit]}``.
    """
    return {
        "width": circuit.width,
        "gates": [{"kind": kind, "operands": list(operands)} for kind, operands in circuit.gates]
        + [{"kind": MEASURE, "operands": [q, j]} for j, q in enumerate(circuit.measured_qubits)],
        "measured_qubits": list(circuit.measured_qubits),
    }
