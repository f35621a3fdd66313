"""Hardware-legal circuit construction and OpenQASM 2.0 emission.

Each experiment has one builder: ``build_ghz``, ``build_envariance`` or
``build_parity`` takes a CouplingMap plus a ConnectionPath and returns the
measured circuit, whose CNOTs all run along available directed edges. A
logical CNOT against the edge direction becomes an inverse-CNOT: the
available CNOT sandwiched between Hadamards on both qubits. No peephole
cancellation is performed afterwards, so emitted circuits stay
structurally auditable.

Three circuit families:

* GHZ: H on the root, then one logical CNOT per path pair with the
  already-entangled anchor as control, spreading (|0..0> + |1..1>)/sqrt(2)
  over the involved qubits, and measurements.
* Envariance demonstration: the GHZ prefix, an X layer on the first half of
  the involved qubits (the "system"), an X layer on the rest (the
  "environment"), and measurements. The two X layers compose to a global
  flip, so the pre-measurement state equals the GHZ state.
* Parity oracle: H on every query qubit, CNOTs directed from query side
  toward the root (the result qubit) on the pairs selected by the oracle
  pattern, then H on all involved qubits and measurements. Measuring yields
  (0^n, 0) or (a, 1) with equal probability, where the encoded string a
  marks the query qubits whose CNOT chain connects to the root.

A gate is an immutable ``(kind, operands)`` tuple, the form the QASM
writer and the simulator read it in (``for kind, operands in gates``), as
in Stim's flat (gate, targets) records. ``Gate(kind, operands)`` checks
the kind, the arity and that a cnot's qubits differ; the factories ``h``,
``x``, ``cnot`` and ``measure`` build the tuple directly, since their
signatures fix kind and arity (``cnot`` still checks its two qubits). Each
builder constructs its Circuit once, and ``Circuit`` range-checks every
operand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .coupling import CouplingMap
from .paths import ConnectionPath

H = "h"
X = "x"
CNOT = "cnot"
MEASURE = "measure"

_ARITY = {H: 1, X: 1, CNOT: 2, MEASURE: 2}
_QASM = {H: "h q[%d];", X: "x q[%d];", CNOT: "cx q[%d],q[%d];", MEASURE: "measure q[%d] -> c[%d];"}


class IllegalCouplingError(ValueError):
    """Neither direction of a requested CNOT is a coupling-map edge."""


_tuple_new = tuple.__new__


class Gate(tuple):
    """One gate: an immutable (kind, operands) tuple, equal to and hashed as the plain tuple.

    Operands are (qubit,) for h/x, (control, target) for cnot and
    (qubit, classical_bit) for measure. The constructor validates; the
    factories below do not need to.
    """

    __slots__ = ()

    def __new__(cls, kind: str, operands: tuple[int, ...]):
        if kind not in _ARITY:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(operands) != _ARITY[kind]:
            raise ValueError(f"{kind} takes {_ARITY[kind]} operands, got {operands!r}")
        if kind == CNOT and operands[0] == operands[1]:
            raise ValueError(f"cnot control and target coincide: {operands}")
        return _tuple_new(cls, (kind, operands))

    def __getnewargs__(self):  # copy and pickle call __new__(cls, kind, operands)
        return tuple(self)

    def __repr__(self) -> str:
        return f"Gate(kind={self[0]!r}, operands={self[1]!r})"

    kind = property(itemgetter(0), doc="h, x, cnot or measure")
    operands = property(itemgetter(1), doc="qubit indices, plus the classical bit of a measure")


def h(qubit: int) -> Gate:
    return _tuple_new(Gate, (H, (qubit,)))


def x(qubit: int) -> Gate:
    return _tuple_new(Gate, (X, (qubit,)))


def cnot(control: int, target: int) -> Gate:
    if control == target:
        raise ValueError(f"cnot control and target coincide: {(control, target)}")
    return _tuple_new(Gate, (CNOT, (control, target)))


def measure(qubit: int, clbit: int) -> Gate:
    return _tuple_new(Gate, (MEASURE, (qubit, clbit)))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``width`` physical qubits.

    ``measured_qubits`` fixes the classical bit order: the i-th listed
    qubit writes classical bit i, and bit 0 renders leftmost in bitstrings.
    """

    width: int
    gates: tuple[Gate, ...]
    measured_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        width = self.width
        for i, (kind, operands) in enumerate(self.gates):
            for q in operands[:1] if kind == MEASURE else operands:
                if not 0 <= q < width:
                    raise ValueError(f"gate {i} ({kind}): qubit {q} out of range [0, {width})")
        for q in self.measured_qubits:
            if not (0 <= q < self.width):
                raise ValueError(f"measured qubit {q} out of range [0, {self.width})")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise ValueError(f"duplicate measured qubits: {self.measured_qubits}")

    def counts(self) -> dict[str, int]:
        """Number of gates of each kind, in order of first appearance."""
        return dict(Counter(map(itemgetter(0), self.gates)))


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


def measured_circuit(width: int, gates: list[Gate], qubits) -> Circuit:
    """Circuit of ``gates`` plus terminal measurements mapping the i-th listed qubit to bit i.

    Extends ``gates`` in place and constructs the one Circuit.
    """
    qubits = tuple(qubits)
    gates.extend(measure(q, i) for i, q in enumerate(qubits))
    return Circuit(width=width, gates=tuple(gates), measured_qubits=qubits)


def build_ghz(cmap: CouplingMap, path: ConnectionPath) -> Circuit:
    """GHZ preparation over the involved qubits, then measure them in involved order."""
    return measured_circuit(cmap.num_qubits, ghz_gates(cmap, path), path.involved())


def build_envariance(cmap: CouplingMap, path: ConnectionPath) -> Circuit:
    """GHZ prefix, X on the first ceil(n/2) involved qubits, X on the rest, measure.

    "First" follows the involved-qubit order (root, then new nodes in pair
    order), which keeps circuits reproducible; any fixed split works
    because the two X layers compose to a flip of every involved qubit.
    """
    involved = path.involved()
    n = len(involved)
    split = (n + 1) // 2
    gates = ghz_gates(cmap, path)
    gates.extend(x(q) for q in involved[:split])
    gates.extend(x(q) for q in involved[split:])
    return measured_circuit(cmap.num_qubits, gates, involved)


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
    return measured_circuit(cmap.num_qubits, gates, involved)


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
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.width}];"]
    if circuit.measured_qubits:
        lines.append(f"creg c[{len(circuit.measured_qubits)}];")
    lines += [_QASM[kind] % operands for kind, operands in circuit.gates]
    return "\n".join(lines) + "\n"


def circuit_to_json_dict(circuit: Circuit) -> dict:
    """Debug representation: plain dict of width, gates and measured qubits."""
    return {
        "width": circuit.width,
        "gates": [{"kind": kind, "operands": list(operands)} for kind, operands in circuit.gates],
        "measured_qubits": list(circuit.measured_qubits),
    }
