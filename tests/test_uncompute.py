"""Compute, copy, uncompute: garbage removal on classical-reversible circuits."""

import numpy as np
import pytest

from cliffordt.arith import build_adder, build_multiplier
from cliffordt.circuit import Circuit, Register, RegisterLayout, \
    permutation_output, resources
from cliffordt.errors import DomainError
from cliffordt.gates import ccx, cnot, h
from cliffordt.uncompute import BennettSpec, bennett_wrap


def _bit(index, q):
    return (index >> q) & 1


def test_wrap_xor_into_ancilla():
    # wires 0,1 inputs; wire 2 ancilla accumulating A xor B
    inner = Circuit(3, (cnot(0, 2), cnot(1, 2)))
    wrapped = bennett_wrap(BennettSpec(inner, (2,)))
    assert wrapped.n_qubits == 4
    for a in range(2):
        for b in range(2):
            j = a | (b << 1)
            out = permutation_output(wrapped, j)
            assert out & 0b111 == j          # inner qubits restored
            assert _bit(out, 3) == a ^ b     # copy holds the function value


def test_wrap_toffoli_all_eight_inputs():
    inner = Circuit(3, (ccx(0, 1, 2),))
    wrapped = bennett_wrap(BennettSpec(inner, (2,)))
    for j in range(8):
        out = permutation_output(wrapped, j)
        assert out & 0b111 == j
        expected = (_bit(j, 0) & _bit(j, 1)) ^ _bit(j, 2)
        assert _bit(out, 3) == expected


def test_wrap_empty_circuit_copies_basis_bit():
    # copying a classical basis bit with a CNOT is not cloning
    wrapped = bennett_wrap(BennettSpec(Circuit(2), (0,)))
    for j in range(4):
        out = permutation_output(wrapped, j)
        assert out & 0b11 == j
        assert _bit(out, 2) == _bit(j, 0)


def test_gate_count_law():
    inner = build_adder(2).circuit
    wires = tuple(inner.layout.register("b").qubits())
    wrapped = bennett_wrap(BennettSpec(inner, wires))
    assert len(wrapped.ops) == 2 * len(inner.ops) + len(wires)


def test_t_count_doubles():
    inner = build_adder(2).circuit
    wrapped = bennett_wrap(BennettSpec(inner, (0, 1)))
    assert resources(wrapped).t_count == 2 * resources(inner).t_count


def test_wrap_restores_adder_exhaustively():
    inner = build_adder(3).circuit
    wires = tuple(inner.layout.register("b").qubits())
    wrapped = bennett_wrap(BennettSpec(inner, wires))
    mask = (1 << inner.n_qubits) - 1
    for j in range(1 << inner.n_qubits):
        out = permutation_output(wrapped, j)
        assert out & mask == j


def test_wrap_restores_multiplier_exhaustively():
    inst = build_multiplier(2)
    wires = tuple(inst.circuit.layout.register("p").qubits())[:4]
    wrapped = bennett_wrap(BennettSpec(inst.circuit, wires))
    mask = (1 << inst.circuit.n_qubits) - 1
    for a in range(4):
        for b in range(4):
            j = inst.encode({"a": a, "b": b})
            out = permutation_output(wrapped, j)
            assert out & mask == j
            copied = (out >> inst.circuit.n_qubits) & 0b1111
            assert copied == a * b


def test_layout_roles_after_wrap():
    inner = Circuit(2, (cnot(0, 1),), RegisterLayout((
        Register("in", 0, 1, "input"),
        Register("junk", 1, 1, "garbage"),
    )))
    wrapped = bennett_wrap(BennettSpec(inner, (1,)))
    roles = {r.name: r.role for r in wrapped.layout.registers}
    assert roles["junk"] == "restored-input"
    assert roles["copy"] == "output"


def test_copy_register_takes_a_fresh_name():
    inner = Circuit(2, (cnot(0, 1),), RegisterLayout((
        Register("copy", 0, 1, "input"),
        Register("copy_", 1, 1, "garbage"),
    )))
    wrapped = bennett_wrap(BennettSpec(inner, (1,)))
    assert wrapped.layout.registers[-1] == Register("copy__", 2, 1, "output")


def test_spec_validation():
    inner = Circuit(2, (cnot(0, 1),))
    with pytest.raises(DomainError):
        BennettSpec(inner, (0, 0))
    with pytest.raises(DomainError):
        BennettSpec(inner, (5,))
    with pytest.raises(DomainError):
        BennettSpec(inner, ())


def test_wrap_tolerates_superposition_inner_for_resources_only():
    inner = Circuit(2, (h(0), cnot(0, 1)))
    wrapped = bennett_wrap(BennettSpec(inner, (1,)))
    assert len(wrapped.ops) == 2 * len(inner.ops) + 1


@pytest.mark.parametrize("wire", [None, "1", 1.5])
def test_spec_refuses_a_wire_that_is_no_integer(wire):
    with pytest.raises(DomainError, match="output wire"):
        BennettSpec(Circuit(2, (cnot(0, 1),)), (wire,))


def test_spec_stores_python_int_wires():
    spec = BennettSpec(Circuit(3, (cnot(0, 1),)), (np.int64(2), True))
    assert spec.output_wires == (2, 1)
    assert all(type(w) is int for w in spec.output_wires)
