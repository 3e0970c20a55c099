"""Circuit IR: compose/inverse, lowering, scheduling, metrics, text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordt.arith import (build_adder, build_ctrl_add, build_multiplier,
                             build_subtractor, build_taylor)
from cliffordt.circuit import (Circuit, Register, RegisterLayout,
                               compose, default_layout, inverse_circuit,
                               is_permutation_circuit, lower_to_clifford_t,
                               parse, permutation_mismatches,
                               permutation_output, resources,
                               schedule_layers, serialize, simulate)
from cliffordt.errors import DomainError, ParseError, ResourceError
from cliffordt.gates import (CLIFFORD_T_KINDS, GATE_ARITY, PERMUTATION_KINDS,
                             Gate, ccx, cnot, compose_matrices, cswap, h,
                             swap, t, tdg, x)
from cliffordt.state import states_equal_up_to_phase

SQ2 = 1 / np.sqrt(2)


def bell_circuit():
    return Circuit(2, (h(0), cnot(0, 1)))


def corpus():
    """Generated circuits used by the round-trip and metric invariants."""
    instances = [build_adder(n) for n in (1, 2, 3, 4)]
    instances += [build_subtractor(n) for n in (1, 2, 3, 4)]
    instances += [build_ctrl_add(n) for n in (1, 2, 3, 4)]
    instances += [build_multiplier(n) for n in (1, 2, 3)]
    instances += [build_taylor(2, 1, 2, 3, 0), build_taylor(1, 1, 1, 1, 1)]
    circuits = [i.circuit for i in instances]
    circuits += [bell_circuit(), Circuit(1, (h(0),)),
                 Circuit(3, (ccx(0, 1, 2), swap(0, 2), cswap(2, 1, 0)))]
    return circuits


# ---------------------------------------------------------------------------
# composition and inversion
# ---------------------------------------------------------------------------

def test_compose_with_empty_is_identity():
    c = bell_circuit()
    assert compose(c, Circuit(2)).ops == c.ops


def test_compose_double_x_is_identity():
    c = Circuit(1, (x(0),))
    cc = compose(c, c)
    for j in range(2):
        assert permutation_output(cc, j) == j


def test_compose_adder_with_inverse_is_identity():
    c = build_adder(4).circuit
    cc = compose(c, inverse_circuit(c))
    for j in range(1 << c.n_qubits):
        assert permutation_output(cc, j) == j


def test_compose_qubit_map_embedding():
    small = Circuit(2, (cnot(0, 1),))
    big = Circuit(4, (x(3),))
    merged = compose(big, small, qubit_map={0: 2, 1: 3})
    assert merged.ops == (x(3), cnot(2, 3))
    with pytest.raises(DomainError):
        compose(big, small, qubit_map={0: 2, 1: 2})
    with pytest.raises(DomainError):
        compose(big, small, qubit_map={0: 2})
    with pytest.raises(DomainError):
        compose(big, small, qubit_map={0: 2, 1: 7})


def test_compose_width_mismatch():
    with pytest.raises(DomainError):
        compose(Circuit(2), Circuit(3))


def test_inverse_circuit_reverses_and_inverts():
    c = Circuit(1, (h(0), t(0)))
    assert inverse_circuit(c).ops == (tdg(0), h(0))
    assert inverse_circuit(Circuit(1)).ops == ()


def test_inverse_circuit_cancels_multiplier():
    c = build_multiplier(2).circuit
    cc = compose(c, inverse_circuit(c))
    for j in range(1 << c.n_qubits):
        assert permutation_output(cc, j) == j


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def test_lowering_single_toffoli():
    low = lower_to_clifford_t(Circuit(3, (ccx(0, 1, 2),)))
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.ops)
    assert resources(low).t_count == 7


def test_lowering_is_fixpoint_on_clifford_t():
    c = Circuit(2, (h(0), t(1), cnot(0, 1), tdg(0)))
    assert lower_to_clifford_t(c).ops == c.ops


def test_lowering_single_fredkin():
    low = lower_to_clifford_t(Circuit(3, (cswap(0, 1, 2),)))
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.ops)
    assert resources(low).t_count == 7


@pytest.mark.parametrize("make", [
    lambda: build_adder(2).circuit,
    lambda: build_subtractor(2).circuit,
    lambda: build_ctrl_add(2).circuit,
    lambda: build_multiplier(2).circuit,
    lambda: build_taylor(1, 1, 1, 1, 1).circuit,
    lambda: Circuit(3, (h(0), ccx(0, 1, 2), swap(1, 2), t(2), cswap(2, 0, 1))),
])
def test_lowering_preserves_semantics_exhaustively(make):
    c = make()
    assert c.n_qubits <= 12
    low = lower_to_clifford_t(c)
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.ops)
    for j in range(1 << c.n_qubits):
        assert states_equal_up_to_phase(simulate(c, j), simulate(low, j), 1e-10)


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def _layer_index_oracle(ops):
    """Longest-path depth per gate, computed independently of the scheduler."""
    last = {}
    out = []
    for g in ops:
        at = max((last.get(q, -1) for q in g.qubits), default=-1) + 1
        out.append(at)
        for q in g.qubits:
            last[q] = at
    return out


def test_schedule_examples():
    assert len(schedule_layers(Circuit(2, (h(0), h(1))))) == 1
    assert len(schedule_layers(Circuit(1, (h(0), t(0))))) == 2
    c = Circuit(2, (t(0), t(1), cnot(0, 1), t(0)))
    layers = schedule_layers(c)
    assert len(layers) == 3
    t_depth = sum(1 for layer in layers
                  if any(g.kind in ("t", "tdg") for g in layer))
    assert t_depth == 2


def test_schedule_validity_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 5
        ops = []
        for _ in range(40):
            r = rng.integers(3)
            qs = rng.choice(n, size=r + 1, replace=False)
            if r == 0:
                ops.append(t(int(qs[0])))
            elif r == 1:
                ops.append(cnot(int(qs[0]), int(qs[1])))
            else:
                ops.append(ccx(int(qs[0]), int(qs[1]), int(qs[2])))
        c = Circuit(n, tuple(ops))
        layers = schedule_layers(c)
        # within-layer disjointness
        for layer in layers:
            seen = set()
            for g in layer:
                assert not (seen & set(g.qubits))
                seen |= set(g.qubits)
        # flattening the layers preserves each qubit's gate order
        flat = [g for layer in layers for g in layer]
        for q in range(n):
            original = [g for g in ops if q in g.qubits]
            flattened = [g for g in flat if q in g.qubits]
            assert original == flattened
        # depth matches the independent longest-path computation, and the
        # schedule is ASAP: anything past layer 0 is blocked by a qubit
        # conflict in the layer right before it
        expected = _layer_index_oracle(ops)
        assert len(layers) == max(expected) + 1
        for i in range(1, len(layers)):
            prev_qubits = {q for g in layers[i - 1] for q in g.qubits}
            for g in layers[i]:
                assert set(g.qubits) & prev_qubits


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_resources_single_toffoli():
    rep = resources(Circuit(3, (ccx(0, 1, 2),)))
    assert rep.t_count == 7
    assert rep.qubit_cost == 3
    assert rep.gate_histogram["t"] + rep.gate_histogram["tdg"] == 7


def test_resources_all_clifford():
    rep = resources(Circuit(2, (h(0), cnot(0, 1))))
    assert rep.t_count == 0
    assert rep.t_depth == 0
    assert rep.depth == 2


def test_resources_adder_t_count_is_seven_per_toffoli():
    inst = build_adder(4)
    toffolis = sum(1 for g in inst.circuit.ops if g.kind == "ccx")
    rep = resources(inst.circuit)
    assert rep.t_count == 7 * toffolis == 49
    assert rep.ancilla_count == 1
    assert rep.garbage_count == 0


@pytest.mark.parametrize("c", corpus())
def test_resource_invariants(c):
    rep = resources(c)
    assert rep.t_depth <= rep.t_count
    assert rep.depth >= rep.t_depth
    assert rep.qubit_cost == c.n_qubits
    assert rep.t_count == rep.gate_histogram.get("t", 0) + \
        rep.gate_histogram.get("tdg", 0)


@pytest.mark.parametrize("c", corpus())
def test_resources_invariant_under_round_trip(c):
    assert resources(parse(serialize(c))) == resources(c)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_serialize_single_h():
    text = serialize(Circuit(1, (h(0),)))
    assert text == "qubits 1\nregister q 0..0 input\nh 0\n"


@pytest.mark.parametrize("c", corpus())
def test_round_trip_structural_identity(c):
    assert parse(serialize(c)) == c


def test_parse_accepts_comments_and_blanks():
    c = parse("# adder fragment\nqubits 2\n\ncnot 0 1  # mix\n")
    assert c.ops == (cnot(0, 1),)
    assert c.layout == default_layout(2)


def test_parse_duplicate_qubit():
    with pytest.raises(ParseError, match="duplicate qubit"):
        parse("qubits 2\ncnot 0 0\n")


def test_parse_unknown_mnemonic():
    with pytest.raises(ParseError, match="unknown gate"):
        parse("qubits 1\nfoo 0\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("qubits 2\nh 0\ncnot 0 2\n")
    assert err.value.lineno == 3


def test_parse_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse("h 0\n")
    with pytest.raises(ParseError, match="header"):
        parse("")


def test_parse_duplicate_header():
    with pytest.raises(ParseError, match="duplicate"):
        parse("qubits 1\nqubits 1\n")


def test_parse_register_errors():
    with pytest.raises(ParseError, match="role"):
        parse("qubits 2\nregister a 0..1 junk\n")
    with pytest.raises(ParseError, match="out of bounds"):
        parse("qubits 2\nregister a 0..2 input\n")
    with pytest.raises(ParseError, match="cover|partition"):
        parse("qubits 3\nregister a 0..1 input\n")
    with pytest.raises(ParseError, match="arity|indices"):
        parse("qubits 2\ncnot 0\n")


def test_layout_validation():
    with pytest.raises(DomainError):
        Circuit(2, (), RegisterLayout((Register("a", 0, 1, "input"),)))
    with pytest.raises(DomainError):
        RegisterLayout((Register("a", 0, 1, "bogus"),))
    with pytest.raises(DomainError):
        Circuit(2, (), RegisterLayout((Register("a", 0, 1, "input"),
                                       Register("a", 1, 1, "input"))))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_bell_prep():
    st = simulate(bell_circuit(), 0)
    assert np.allclose(st.amps, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_simulate_empty_circuit_passes_basis_through():
    st = simulate(Circuit(3), 5)
    assert np.argmax(np.abs(st.amps)) == 5


def test_simulate_adder_example():
    inst = build_adder(4)
    st = simulate(inst.circuit, inst.encode({"a": 3, "b": 5}))
    out = inst.decode(int(np.argmax(np.abs(st.amps))))
    assert out == {"b": 8, "a": 3, "z": 0}


def test_simulate_rejects_wide_circuits():
    with pytest.raises(ResourceError):
        simulate(Circuit(25), 0)


def test_simulate_validates_input_index():
    with pytest.raises(DomainError):
        simulate(Circuit(2), 4)


# ---------------------------------------------------------------------------
# classical permutation path
# ---------------------------------------------------------------------------

def test_permutation_path_agrees_with_statevector():
    c = build_multiplier(2).circuit
    for j in range(0, 1 << c.n_qubits, 7):
        st = simulate(c, j)
        assert abs(st.amps[permutation_output(c, j)] - 1) < 1e-9


def test_permutation_path_handles_swap_and_fredkin():
    c = Circuit(3, (x(0), swap(0, 2), cswap(2, 0, 1)))
    for j in range(8):
        st = simulate(c, j)
        assert abs(st.amps[permutation_output(c, j)] - 1) < 1e-12


def test_permutation_path_scales_past_statevector_ceiling():
    n = 40
    c = Circuit(n, tuple(cnot(i, i + 1) for i in range(n - 1)))
    assert is_permutation_circuit(c)
    assert permutation_output(c, 1) == (1 << n) - 1


def test_permutation_path_rejects_superposition_gates():
    c = Circuit(1, (h(0),))
    assert not is_permutation_circuit(c)
    with pytest.raises(DomainError):
        permutation_output(c, 0)


def test_permutation_path_validates_input_index():
    c = Circuit(3, (x(0),))
    for bad in (-1, 8):
        with pytest.raises(DomainError):
            permutation_output(c, bad)
        with pytest.raises(DomainError):
            permutation_mismatches(c, [0, bad], [1, 1])
    with pytest.raises(DomainError):
        permutation_mismatches(c, [0, 1], [1])


def gates_on(n, kinds):
    """Gates of the given kinds that fit on n qubits, on random wires."""
    kinds = sorted(k for k in kinds if GATE_ARITY[k] <= n)
    return st.sampled_from(kinds).flatmap(
        lambda k: st.permutations(range(n)).map(
            lambda order: Gate(k, tuple(order[:GATE_ARITY[k]]))))


@st.composite
def permutation_circuits(draw):
    """A random circuit over every permutation gate kind, n <= 10, plus a
    batch of basis inputs."""
    n = draw(st.integers(1, 10))
    ops = draw(st.lists(gates_on(n, PERMUTATION_KINDS), max_size=30))
    inputs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    return Circuit(n, tuple(ops)), inputs


@settings(max_examples=60, deadline=None)
@given(permutation_circuits(), st.data())
def test_bitsliced_evaluator_agrees_with_statevector(case, data):
    c, inputs = case
    dense = []
    for j in inputs:
        amps = simulate(c, j).amps
        out = int(np.argmax(np.abs(amps)))
        assert amps[out] == 1.0
        dense.append(out)
    assert [permutation_output(c, j) for j in inputs] == dense
    assert permutation_mismatches(c, inputs, dense) == []
    # corrupt the expected index of some rows: exactly those rows come back,
    # in row order, each observed index rebuilt from the bit columns
    wrong = data.draw(st.sets(st.integers(0, len(inputs) - 1)))
    expected = [d ^ 1 if r in wrong else d for r, d in enumerate(dense)]
    assert permutation_mismatches(c, inputs, expected) == [
        (inputs[r], expected[r], dense[r]) for r in sorted(wrong)]


@st.composite
def random_circuits(draw):
    """A random circuit over all ten gate kinds, n <= 6."""
    n = draw(st.integers(1, 6))
    return Circuit(n, tuple(draw(st.lists(gates_on(n, GATE_ARITY), max_size=20))))


@settings(max_examples=50, deadline=None)
@given(random_circuits())
def test_simulate_matches_matrix_columns(c):
    u = compose_matrices(c.ops, c.n_qubits)
    for j in range(1 << c.n_qubits):
        assert np.max(np.abs(simulate(c, j).amps - u[:, j])) < 1e-12


@settings(max_examples=50, deadline=None)
@given(random_circuits(), st.data())
def test_lowering_preserves_random_circuits_up_to_phase(c, data):
    lowered = lower_to_clifford_t(c)
    inputs = data.draw(st.lists(st.integers(0, (1 << c.n_qubits) - 1),
                                min_size=1, max_size=4))
    for j in inputs:
        assert states_equal_up_to_phase(simulate(lowered, j), simulate(c, j))
