from __future__ import annotations

import copy
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_map
from helpers import exact_distribution, line_map
from oracles import reference_distribution, reparse_qasm
from qghz import circuits, simulator
from qghz.circuits import (
    CNOT,
    Circuit,
    Gate,
    IllegalCouplingError,
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    circuit_to_json_dict,
    cnot,
    cnot_legal,
    effective_a,
    emit_qasm,
    ghz_gates,
    h,
    verify_legality,
    x,
)
from qghz.coupling import CouplingMap, bundled_map, most_connected, rank_all
from qghz.paths import ConnectionPath, create_path, path_for

BELL_MAP = CouplingMap(2, [(0, 1)])
BELL_PATH = ConnectionPath(root=0, pairs=((1, 0),))
CHAIN = CouplingMap(3, [(0, 1), (1, 2)])


KINDS = {"h": "h", "x": "x", "cnot": "cx"}


def path_on(cmap, n):
    return create_path(cmap, most_connected(rank_all(cmap)), n)


def qasm_ops(circuit) -> list[tuple]:
    """The ops ``reparse_qasm`` reads back: every gate, then the j-th measured qubit into bit j."""
    return ([(KINDS[kind], *operands) for kind, operands in circuit.gates]
            + [("measure", q, j) for j, q in enumerate(circuit.measured_qubits)])


class TestCnotLegal:
    def test_direct_edge(self):
        assert cnot_legal(BELL_MAP, 0, 1) == [cnot(0, 1)]

    def test_reversed_edge_expands_to_inverse_cnot(self):
        assert cnot_legal(BELL_MAP, 1, 0) == [h(1), h(0), cnot(0, 1), h(0), h(1)]

    def test_no_edge_either_way(self):
        with pytest.raises(IllegalCouplingError):
            cnot_legal(CHAIN, 0, 2)


class TestGateAndCircuitValidation:
    def test_unknown_kind(self):
        # measure is not a kind either: measured_qubits is the one measurement record, so a measure
        # among the gates, even the one it would render, is rejected wherever it stands.
        assert not hasattr(circuits, "measure") and not hasattr(circuits, "measured_circuit")
        measure = ("measure", (0, 0))
        for gates, i in (((("t", (0,)),), 0), ((measure,), 0), ((h(0), measure), 1), ((measure, h(0)), 0)):
            with pytest.raises(ValueError, match=f"gate {i} .*unknown gate kind"):
                Circuit(1, gates, (0,))

    def test_cnot_needs_distinct_operands(self):
        for gate in (cnot(1, 1), Gate("cnot", (1, 1)), ("cnot", (1, 1))):
            with pytest.raises(ValueError, match="gate 1 .*coincide"):
                Circuit(2, (h(0), gate))

    def test_constructor_checks_arity(self):
        for kind, operands in (("h", (0, 1)), ("x", ()), ("cnot", (0,)), ("cnot", (0, 1, 2))):
            with pytest.raises(ValueError, match="operands"):
                Circuit(3, ((kind, operands),))

    def test_gate_is_immutable(self):
        gate = h(3)
        with pytest.raises(AttributeError):
            gate.kind = "x"
        assert gate.kind == "h" and gate.operands == (3,)
        assert copy.deepcopy(gate) == gate and type(copy.deepcopy(gate)) is Gate

    def test_factories_equal_the_record_constructor(self):
        assert h(3) == Gate("h", (3,)) == ("h", (3,)) and hash(h(3)) == hash(("h", (3,)))
        assert (x(2), cnot(0, 1)) == (Gate("x", (2,)), Gate("cnot", (0, 1)))
        assert repr(cnot(0, 1)) == "Gate(kind='cnot', operands=(0, 1))"
        # A line rooted at its end: every CNOT is an inverse-CNOT sandwich.
        cmap = line_map(1108)
        path = create_path(cmap, 1107, 1108)
        rebuilt = [Gate("h", (1107,))]
        for new, anchor in path.pairs:
            rebuilt += [Gate("h", (anchor,)), Gate("h", (new,)), Gate("cnot", (new, anchor)),
                        Gate("h", (new,)), Gate("h", (anchor,))]
        assert build_ghz(cmap, path) == Circuit(1108, tuple(rebuilt), path.involved())

    def test_circuit_rejects_out_of_range_qubits(self):
        for gate in (h(1), x(-1), cnot(0, 1), cnot(-1, 0)):
            with pytest.raises(ValueError, match="out of range"):
                Circuit(width=1, gates=(gate,))

    @pytest.mark.parametrize("gate, rule", [
        (("h", (0.5,)), "not an int"),  # used to emit h q[0] and simulate 0.5 as a qubit of its own
        (("x", (1.0,)), "not an int"),
        (("cnot", (True, 0)), "not an int"),
        (("h", [0]), "operands are a list, not a tuple"),  # used to pass, then fail in emit_qasm
        (("cnot", (0, 1.0)), "not an int"),
    ])
    def test_operands_are_a_tuple_of_ints(self, gate, rule):
        with pytest.raises(ValueError, match=f"gate 1 .*{rule}"):
            Circuit(2, (cnot(0, 1), gate), (0,))

    def test_width_is_a_positive_int(self):
        # Each would otherwise be emitted as qreg q[2.5], q[2.0], q[True], q[0] or q[-1].
        for width in (2.5, 2.0, True, 0, -1):
            with pytest.raises(ValueError, match="width .* not a positive int"):
                Circuit(width, ())

    def test_gates_are_a_tuple(self):
        # A list would leave the frozen circuit unhashable.
        with pytest.raises(ValueError, match="must each be a tuple, so the circuit hashes; got a list"):
            Circuit(2, [h(0)], (0,))
        assert hash(Circuit(2, (h(0),), (0,))) == hash(Circuit(2, (h(0),), (0,)))

    def test_measured_qubits_are_a_tuple(self):
        with pytest.raises(ValueError, match="must each be a tuple, so the circuit hashes; got a tuple and a list"):
            Circuit(2, (h(0),), [0])

    def test_measured_qubits_are_ints(self):
        for measured in ((0.0,), (True,), (0, 1.5)):
            with pytest.raises(ValueError, match="measured qubit .* non-int"):
                Circuit(width=2, gates=(), measured_qubits=measured)

    def test_circuit_rejects_out_of_range_measured_qubits(self):
        for measured in ((5,), (0, 2), (-1,)):
            with pytest.raises(ValueError, match="measured qubit .* out of range"):
                Circuit(width=2, gates=(), measured_qubits=measured)

    def test_circuit_rejects_duplicate_measured_qubits(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit(width=2, gates=(), measured_qubits=(0, 0))

    def test_measure_classical_bit_must_be_declared(self):
        # OpenQASM 2.0 measures into a declared creg; with no measured qubits there is none. A measure
        # gate into an undeclared bit cannot be built, and the rendered measures stay inside c.
        with pytest.raises(ValueError, match="gate 0 .*unknown gate kind"):
            Circuit(width=1, gates=(("measure", (0, 5)),))
        text = emit_qasm(Circuit(width=1, gates=(h(0),)))
        assert "creg" not in text and "measure" not in text
        text = emit_qasm(Circuit(width=3, gates=(h(0),), measured_qubits=(2, 0)))
        assert "creg c[2];" in text
        assert [line for line in text.splitlines() if line.startswith("measure")] == [
            "measure q[2] -> c[0];", "measure q[0] -> c[1];"]

    def test_measured_qubits_without_measure_gates(self):
        # Declared means measured: every measured qubit gets its measure, in bit order, after the gates.
        circuit = Circuit(2, (h(0),), (1, 0))
        assert emit_qasm(circuit).endswith("creg c[2];\nh q[0];\nmeasure q[1] -> c[0];\nmeasure q[0] -> c[1];\n")


class TestBuildGhz:
    def test_bell_pair(self):
        circuit = build_ghz(BELL_MAP, BELL_PATH)
        assert circuit.gates == (h(0), cnot(0, 1))
        assert circuit.measured_qubits == (0, 1)

    def test_measures_the_involved_qubits_last(self):
        cmap = bundled_map("qx5")
        path = path_on(cmap, 16)
        circuit = build_ghz(cmap, path)
        involved = path.involved()
        assert circuit.gates == tuple(ghz_gates(cmap, path))
        assert circuit.measured_qubits == involved
        measures = [f"measure q[{q}] -> c[{i}];" for i, q in enumerate(involved)]
        assert emit_qasm(circuit).splitlines()[-16:] == measures

    def test_logical_gate_count(self):
        # 1 root H + (n-1) logical CNOTs; inverse expansion adds 4 H each
        for n in range(2, 17):
            cmap = bundled_map("qx5")
            path = path_on(cmap, n)
            circuit = build_ghz(cmap, path)
            reversed_pairs = sum(1 for new, anchor in path.pairs if not cmap.has_edge(anchor, new))
            counts = circuit.counts()
            assert counts[CNOT] == n - 1
            assert counts["h"] == 1 + 4 * reversed_pairs
            assert counts["measure"] == n
            assert len(circuit.gates) == 1 + (n - 1) + 4 * reversed_pairs
            assert sum(counts.values()) == len(circuit.gates) + n

    def test_chain_rooted_at_tail_uses_inverse_cnots(self):
        path = create_path(CHAIN, 2, 3)
        circuit = build_ghz(CHAIN, path)
        assert circuit.gates == (
            h(2),
            h(2), h(1), cnot(1, 2), h(1), h(2),
            h(1), h(0), cnot(0, 1), h(0), h(1),
        )
        assert circuit.measured_qubits == (2, 1, 0)


class TestBuildEnvariance:
    def test_bell_structure(self):
        circuit = build_envariance(BELL_MAP, BELL_PATH)
        assert circuit.gates == (h(0), cnot(0, 1), x(0), x(1))
        assert circuit.measured_qubits == (0, 1)

    def test_qx4_n5_layer_structure(self):
        # GHZ prefix, X on the first ceil(5/2)=3 involved qubits, X on the
        # remaining 2, then 5 measured qubits
        cmap = bundled_map("qx4")
        path = path_on(cmap, 5)
        circuit = build_envariance(cmap, path)
        ghz_len = len(ghz_gates(cmap, path))
        tail = circuit.gates[ghz_len:]
        involved = path.involved()
        assert tail == tuple([x(q) for q in involved[:3]] + [x(q) for q in involved[3:]])
        assert circuit.measured_qubits == involved

    def test_x_layer_split_sizes(self):
        cmap = bundled_map("qx5")
        for n in (2, 3, 7, 16):
            circuit = build_envariance(cmap, path_on(cmap, n))
            assert circuit.counts()["x"] == n
            assert circuit.counts()["measure"] == n


class TestBuildParity:
    def test_all_zeros_has_no_cnots(self):
        cmap = bundled_map("qx4")
        circuit = build_parity(cmap, path_on(cmap, 5), OraclePattern.ALL_ZEROS)
        assert CNOT not in circuit.counts()

    def test_all_ones_places_every_pair(self):
        # n = 15 query qubits + result qubit: all 15 couplings carry a CNOT
        cmap = bundled_map("qx5")
        circuit = build_parity(cmap, path_on(cmap, 16), OraclePattern.ALL_ONES)
        assert circuit.counts()[CNOT] == 15

    def test_half_places_first_floor_half_pairs(self):
        # 4 pairs, N = 5 involved qubits -> floor(5/2) = 2 CNOTs on the
        # first two pairs, which on qx4 are both direct edges
        cmap = bundled_map("qx4")
        path = path_on(cmap, 5)
        assert path.pairs[:2] == ((1, 0), (2, 0))
        circuit = build_parity(cmap, path, OraclePattern.HALF)
        assert circuit.counts()[CNOT] == 2
        placed = [g.operands for g in circuit.gates if g.kind == CNOT]
        assert placed == [(1, 0), (2, 0)]

    def test_h_layers_and_measurements(self):
        # initial H on each query qubit + final H on all involved, measured
        # in involved order with the result qubit first
        cmap = bundled_map("qx4")
        path = path_on(cmap, 4)
        circuit = build_parity(cmap, path, OraclePattern.ALL_ZEROS)
        involved = path.involved()
        assert circuit.gates == tuple([h(q) for q in involved[1:]] + [h(q) for q in involved])
        assert circuit.measured_qubits == involved

    def test_effective_a_per_pattern(self):
        cmap = bundled_map("qx4")
        path = path_on(cmap, 5)
        assert effective_a(path, OraclePattern.ALL_ONES) == "1111"
        assert effective_a(path, OraclePattern.ALL_ZEROS) == "0000"
        assert effective_a(path, OraclePattern.HALF) == "1100"


class TestVerifyLegality:
    def test_legal_qx4_ghz(self):
        cmap = bundled_map("qx4")
        assert verify_legality(cmap, build_ghz(cmap, path_on(cmap, 5))) == []

    def test_violation_names_the_gate(self):
        cmap = CouplingMap(2, [(1, 0)])
        circuit = Circuit(width=2, gates=(cnot(0, 1),))
        violations = verify_legality(cmap, circuit)
        assert len(violations) == 1
        assert "gate 0" in violations[0] and "cnot(0,1)" in violations[0]

    def test_every_builder_output_is_legal_on_random_maps(self, rng):
        for _ in range(40):
            cmap = random_connected_map(rng, max_qubits=16)
            n = int(rng.integers(2, cmap.num_qubits + 1))
            path = path_on(cmap, n)
            for circuit in (
                build_ghz(cmap, path),
                build_envariance(cmap, path),
                build_parity(cmap, path, OraclePattern.HALF),
            ):
                assert verify_legality(cmap, circuit) == []


class TestEmitQasm:
    def test_bell_text(self):
        text = emit_qasm(Circuit(2, tuple(ghz_gates(BELL_MAP, BELL_PATH))))
        assert text == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[2];\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
        )

    def test_measured_circuit_declares_creg(self):
        circuit = build_ghz(BELL_MAP, BELL_PATH)
        text = emit_qasm(circuit)
        assert "creg c[2];" in text
        assert "measure q[0] -> c[0];" in text
        assert "measure q[1] -> c[1];" in text

    def test_roundtrip_through_reparse_oracle(self):
        cmap = bundled_map("qx5")
        path = path_on(cmap, 12)
        for circuit in (
            build_ghz(cmap, path),
            build_envariance(cmap, path),
            build_parity(cmap, path, OraclePattern.ALL_ONES),
        ):
            width, creg, ops = reparse_qasm(emit_qasm(circuit))
            assert width == 16
            assert creg == len(circuit.measured_qubits)
            assert ops == qasm_ops(circuit)

    def test_roundtrip_at_1108_qubits(self):
        # Rooted at the line's end, every GHZ and envariance CNOT runs against
        # its edge and compiles to an inverse-CNOT sandwich.
        cmap = line_map(1108)
        path = path_on(cmap, 1108)
        assert path.root == 1107
        for circuit in (
            build_ghz(cmap, path),
            build_envariance(cmap, path),
            build_parity(cmap, path, OraclePattern.ALL_ONES),
        ):
            assert verify_legality(cmap, circuit) == []
            width, creg, ops = reparse_qasm(emit_qasm(circuit))
            assert (width, creg) == (1108, len(circuit.measured_qubits))
            assert ops == qasm_ops(circuit)
        assert build_ghz(cmap, path).counts() == {"h": 1 + 4 * 1107, "cnot": 1107, "measure": 1108}

    def test_qx5_full_ghz_gate_audit(self):
        cmap = bundled_map("qx5")
        path = path_on(cmap, 16)
        text = emit_qasm(build_ghz(cmap, path))
        lines = text.splitlines()
        assert "qreg q[16];" in lines
        cx_lines = [l for l in lines if l.startswith("cx ")]
        h_lines = [l for l in lines if l.startswith("h ")]
        reversed_pairs = sum(1 for new, anchor in path.pairs if not cmap.has_edge(anchor, new))
        assert len(cx_lines) == 15
        assert len(h_lines) == 1 + 4 * reversed_pairs


def test_measured_circuit_appends_in_listed_order():
    # QASM, the JSON dump and counts() render the measures after the gates, the i-th listed qubit into bit i.
    circuit = Circuit(3, tuple(ghz_gates(CHAIN, create_path(CHAIN, 2, 3))), (1, 0, 2))
    assert emit_qasm(circuit).endswith("measure q[1] -> c[0];\nmeasure q[0] -> c[1];\nmeasure q[2] -> c[2];\n")
    assert circuit_to_json_dict(circuit)["gates"][len(circuit.gates):] == [
        {"kind": "measure", "operands": [1, 0]}, {"kind": "measure", "operands": [0, 1]},
        {"kind": "measure", "operands": [2, 2]}]
    assert circuit.counts() == {"h": 9, "cnot": 2, "measure": 3}
    assert Circuit(3, circuit.gates).counts() == {"h": 9, "cnot": 2}


@st.composite
def connected_maps(draw) -> CouplingMap:
    """Weakly connected map of 2-200 qubits with random edge directions and some directed cycles.

    A random tree (each qubit joins an earlier one in a drawn order, along
    a drawn direction), plus up to three directed cycles through drawn
    qubits; a cycle edge whose reverse is already a tree edge stays, so
    the cycle is always directed.
    """
    n = draw(st.integers(2, 200))
    order = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[draw(st.integers(0, i - 1))]
        edges.add((a, b) if draw(st.booleans()) else (b, a))
    if n >= 3:
        for cycle in draw(st.lists(st.lists(st.sampled_from(order), min_size=3, max_size=8, unique=True),
                                   max_size=3)):
            edges.update(zip(cycle, cycle[1:] + cycle[:1]))
    return CouplingMap(n, sorted(edges))


@st.composite
def compiled_experiments(draw):
    """(map, experiment, circuit, expected outcome keys) for ghz, envariance or parity at a drawn n."""
    cmap = draw(connected_maps())
    experiment = draw(st.sampled_from(["ghz", "envariance", *OraclePattern]))
    if experiment in ("ghz", "envariance"):
        path = path_for(cmap, draw(st.integers(2, cmap.num_qubits)))
        involved = path.involved()
        circuit = (build_ghz if experiment == "ghz" else build_envariance)(cmap, path)
        return cmap, experiment, circuit, ["0" * len(involved), "1" * len(involved)]
    path = path_for(cmap, draw(st.integers(1, cmap.num_qubits - 1)) + 1)
    expected = ["0" * len(path.involved()), "1" + effective_a(path, experiment)]
    return cmap, experiment, build_parity(cmap, path, experiment), expected


@given(compiled_experiments())
@settings(max_examples=60, deadline=None)
def test_compiled_circuits_are_legal_and_compute_their_closed_forms(compiled):
    cmap, experiment, circuit, expected = compiled
    assert verify_legality(cmap, circuit) == []
    width, creg, ops = reparse_qasm(emit_qasm(circuit))
    assert (width, creg) == (cmap.num_qubits, len(circuit.measured_qubits))
    assert ops == qasm_ops(circuit)
    # Every correct compile has support dimension 1, so a cap of 1 makes a
    # wrong one raise at once instead of listing up to 2^20 long keys.
    with mock.patch.object(simulator, "MAX_SUPPORT_DIMENSION", 1):
        distribution = exact_distribution(circuit)
    assert list(distribution.items()) == [(key, 0.5) for key in expected]


ARITY = {"h": 1, "x": 1, "cnot": 2}


def follows_gate_rules(width, gates, measured) -> bool:
    """The gate rules, stated apart from ``Circuit``: a positive int width (a bool is not an int),
    gates and measured qubits each held in a tuple, measured qubits distinct ints in range, and
    every gate a known kind (h, x or cnot; measure is not one) with a tuple of int operands of its
    count (a bool or a float is not an int), its qubits in range and distinct for a cnot."""
    if type(width) is not int or width < 1 or type(gates) is not tuple or type(measured) is not tuple:
        return False
    if any(type(q) is not int for q in measured) or any(
            type(operands) is not tuple or any(type(q) is not int for q in operands) for _, operands in gates):
        return False
    if len(set(measured)) != len(measured) or not all(0 <= q < width for q in measured):
        return False
    if any(kind not in ARITY or len(operands) != ARITY[kind] for kind, operands in gates):
        return False
    return all(all(0 <= q < width for q in operands) and len(set(operands)) == len(operands)
               for _, operands in gates)


def not_int(q):
    """A value equal or close to the int qubit ``q`` that is not an int: an integral or a half float, or a bool."""
    return st.sampled_from([float(q), q + 0.5] + ([bool(q)] if q in (0, 1) else []))


@st.composite
def raw_circuits(draw):
    """(width, gates, measured qubits) from raw (kind, operands) tuples: legal h/x/cnot gates, and
    at times one more gate anywhere: any kind (measure included) with 0-3 qubits, or a known kind
    with its operand count, every operand in [-1, width]. At times one operand or measured qubit is
    then made a float or a bool, one gate's operands a list, the gates or the measured qubits a
    list, or the width a float, a bool or below 1."""
    width = draw(st.integers(1, 6))
    qubit, legal = st.integers(-1, width), st.integers(0, width - 1)
    unitary = st.tuples(st.sampled_from(["h", "x"]), st.tuples(legal))
    if width > 1:
        unitary |= st.tuples(st.just("cnot"), st.lists(legal, min_size=2, max_size=2, unique=True).map(tuple))
    gates = draw(st.lists(unitary, max_size=8))
    measured = tuple(draw(st.permutations(range(width)))[:draw(st.integers(0, width))])
    if draw(st.integers(0, 7)) == 0:  # maybe out of range or a duplicate
        measured += (draw(qubit),)
    if draw(st.booleans()):
        stray = st.one_of(
            st.tuples(st.sampled_from(["h", "x", "cnot", "measure", "t"]), st.lists(qubit, max_size=3).map(tuple)),
            st.tuples(st.sampled_from(["h", "x"]), st.tuples(qubit)),
            st.tuples(st.sampled_from(["cnot", "measure"]), st.tuples(qubit, qubit)),
        )
        gates.insert(draw(st.integers(0, len(gates))), draw(stray))
    change = draw(st.sampled_from(["none"] * 4 + ["operand", "measured", "list", "containers", "width"]))
    if change == "measured" and measured:
        at = draw(st.integers(0, len(measured) - 1))
        measured = measured[:at] + (draw(not_int(measured[at])),) + measured[at + 1:]
    elif change == "containers":
        gates_list, measured_list = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
        return width, gates if gates_list else tuple(gates), list(measured) if measured_list else measured
    elif change == "width":
        width = draw(st.sampled_from([0, -1, float(width), width + 0.5] + ([True] if width == 1 else [])))
    elif change in ("operand", "list") and any(operands for _, operands in gates):
        at = draw(st.sampled_from([i for i, (_, operands) in enumerate(gates) if operands]))
        kind, operands = gates[at]
        if change == "list":
            operands = list(operands)
        else:
            j = draw(st.integers(0, len(operands) - 1))
            operands = operands[:j] + (draw(not_int(operands[j])),) + operands[j + 1:]
        gates[at] = (kind, operands)
    return width, tuple(gates), measured


@given(raw_circuits())
@settings(max_examples=400, deadline=None)
def test_circuit_accepts_exactly_the_gate_rules(raw):
    width, gates, measured = raw
    if not follows_gate_rules(width, gates, measured):
        with pytest.raises(ValueError):
            Circuit(width, gates, measured)
        return
    circuit = Circuit(width, gates, measured)
    hash(circuit)
    # reparse_qasm asserts each measure writes a bit below the declared creg.
    assert reparse_qasm(emit_qasm(circuit)) == (width, len(measured), qasm_ops(circuit))
    if measured:
        k, keys = simulator.outcome_keys(circuit)
        # The statevector oracle reads .kind and .operands, so it gets the same gates as records.
        records = Circuit(width, tuple(Gate(*gate) for gate in gates), measured)
        assert records == circuit
        assert [format(key, f"0{k}b") for key in keys] == list(reference_distribution(records))
