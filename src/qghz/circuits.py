"""Hardware-legal circuit construction and OpenQASM 2.0 emission.

Builders take a CouplingMap plus a ConnectionPath and return gate lists
that only ever use CNOTs along available directed edges. A logical CNOT
against the edge direction becomes an inverse-CNOT: the available CNOT
sandwiched between Hadamards on both qubits. No peephole cancellation is
performed afterwards, so emitted circuits stay structurally auditable.

Three circuit families:

* GHZ: H on the root, then one logical CNOT per path pair with the
  already-entangled anchor as control, spreading (|0..0> + |1..1>)/sqrt(2)
  over the involved qubits.
* Envariance demonstration: the GHZ prefix, an X layer on the first half of
  the involved qubits (the "system"), an X layer on the rest (the
  "environment"), and measurements. The two X layers compose to a global
  flip, so the pre-measurement state equals the GHZ state.
* Parity oracle: H on every query qubit, CNOTs directed from query side
  toward the root (the result qubit) on the pairs selected by the oracle
  pattern, then H on all involved qubits and measurements. Measuring yields
  (0^n, 0) or (a, 1) with equal probability, where the encoded string a
  marks the query qubits whose CNOT chain connects to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class Gate:
    """One gate: kind plus operand indices.

    Operands are (qubit,) for h/x, (control, target) for cnot and
    (qubit, classical_bit) for measure.
    """

    kind: str
    operands: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.operands) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} operands, got {self.operands!r}")
        if self.kind == CNOT and self.operands[0] == self.operands[1]:
            raise ValueError(f"cnot control and target coincide: {self.operands}")


def h(qubit: int) -> Gate:
    return Gate(H, (qubit,))


def x(qubit: int) -> Gate:
    return Gate(X, (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def measure(qubit: int, clbit: int) -> Gate:
    return Gate(MEASURE, (qubit, clbit))


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
        for i, gate in enumerate(self.gates):
            qubits = gate.operands[:1] if gate.kind == MEASURE else gate.operands
            for q in qubits:
                if not (0 <= q < self.width):
                    raise ValueError(f"gate {i} ({gate.kind}): qubit {q} out of range [0, {self.width})")
        for q in self.measured_qubits:
            if not (0 <= q < self.width):
                raise ValueError(f"measured qubit {q} out of range [0, {self.width})")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise ValueError(f"duplicate measured qubits: {self.measured_qubits}")

    def counts(self) -> dict[str, int]:
        """Number of gates of each kind."""
        out: dict[str, int] = {}
        for gate in self.gates:
            out[gate.kind] = out.get(gate.kind, 0) + 1
        return out


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
    """GHZ preparation circuit; measurement gates are left to callers."""
    return Circuit(width=cmap.num_qubits, gates=tuple(ghz_gates(cmap, path)))


def _measured(width: int, gates: list[Gate], qubits) -> Circuit:
    """Circuit of ``gates`` plus terminal measurements mapping the i-th listed qubit to bit i."""
    qubits = tuple(qubits)
    gates.extend(measure(q, i) for i, q in enumerate(qubits))
    return Circuit(width=width, gates=tuple(gates), measured_qubits=qubits)


def with_measurements(circuit: Circuit, qubits) -> Circuit:
    """Append terminal measurements mapping the i-th listed qubit to bit i."""
    return _measured(circuit.width, list(circuit.gates), qubits)


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
    return _measured(cmap.num_qubits, gates, involved)


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
    return _measured(cmap.num_qubits, gates, involved)


def verify_legality(cmap: CouplingMap, circuit: Circuit) -> list[str]:
    """Report every CNOT whose (control, target) is not a directed map edge."""
    violations = []
    for i, gate in enumerate(circuit.gates):
        if gate.kind == CNOT and gate.operands not in cmap.edges:
            control, target = gate.operands
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
    lines += [_QASM[gate.kind] % gate.operands for gate in circuit.gates]
    return "\n".join(lines) + "\n"


def circuit_to_json_dict(circuit: Circuit) -> dict:
    """Debug representation: plain dict of width, gates and measured qubits."""
    return {
        "width": circuit.width,
        "gates": [{"kind": g.kind, "operands": list(g.operands)} for g in circuit.gates],
        "measured_qubits": list(circuit.measured_qubits),
    }
