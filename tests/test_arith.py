"""Arithmetic generators checked against plain integer arithmetic."""

import time

import numpy as np
import pytest

from cliffordt.arith import (TAYLOR_REGISTERS, build_adder, build_ctrl_add,
                             build_multiplier, build_subtractor, build_taylor)
from cliffordt.circuit import (is_permutation_circuit, permutation_output,
                               simulate)
from cliffordt.errors import DomainError


def run(inst, **values):
    """Decode the registers after running the circuit on encoded inputs."""
    return inst.decode(permutation_output(inst.circuit, inst.encode(values)))


# ---------------------------------------------------------------------------
# adder
# ---------------------------------------------------------------------------

def test_adder_examples():
    inst = build_adder(4)
    assert run(inst, a=3, b=5) == {"b": 8, "a": 3, "z": 0}
    assert run(inst, a=15, b=1) == {"b": 0, "a": 15, "z": 1}
    assert run(inst, a=0, b=0) == {"b": 0, "a": 0, "z": 0}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adder_exhaustive(n):
    inst = build_adder(n)
    for a in range(1 << n):
        for b in range(1 << n):
            total = a + b
            assert run(inst, a=a, b=b) == {
                "b": total % (1 << n), "a": a, "z": total >> n}


def test_adder_sizing_and_roles():
    inst = build_adder(4)
    assert inst.circuit.n_qubits == 9
    layout = inst.circuit.layout
    assert layout.register("z").role == "ancilla"
    assert len(layout.qubits_with_role("ancilla")) == 1
    assert len(layout.qubits_with_role("garbage")) == 0


def test_adder_restores_a_on_every_basis_input():
    # restoration of the addend register holds even for z entering as 1
    inst = build_adder(3)
    for j in range(1 << 7):
        out = inst.decode(permutation_output(inst.circuit, j))
        assert out["a"] == inst.decode(j)["a"]


# ---------------------------------------------------------------------------
# subtractor
# ---------------------------------------------------------------------------

def test_subtractor_examples():
    inst = build_subtractor(4)
    assert run(inst, b=5, a=3)["b"] == 2
    assert run(inst, b=3, a=5)["b"] == 14
    for v in range(16):
        assert run(inst, b=v, a=0)["b"] == v


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subtractor_exhaustive(n):
    inst = build_subtractor(n)
    assert inst.circuit.n_qubits == 2 * n
    for a in range(1 << n):
        for b in range(1 << n):
            assert run(inst, b=b, a=a) == {"b": (b - a) % (1 << n), "a": a}


# ---------------------------------------------------------------------------
# controlled adder
# ---------------------------------------------------------------------------

def test_ctrl_add_examples():
    inst = build_ctrl_add(4)
    assert run(inst, ctrl=1, a=3, b=5)["b"] == 8
    off = run(inst, ctrl=0, a=3, b=5)
    assert off == {"ctrl": 0, "b": 5, "a": 3, "z": 0, "g": 0}
    assert run(inst, ctrl=1, a=0, b=7)["b"] == 7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ctrl_add_exhaustive(n):
    inst = build_ctrl_add(n)
    assert inst.circuit.n_qubits == 2 * n + 3
    for ctrl in (0, 1):
        for a in range(1 << n):
            for b in range(1 << n):
                out = run(inst, ctrl=ctrl, a=a, b=b)
                total = a + b
                expected = {
                    "ctrl": ctrl,
                    "b": total % (1 << n) if ctrl else b,
                    "a": a,
                    "z": total >> n if ctrl else 0,
                    "g": 0,
                }
                assert out == expected


def test_ctrl_add_carry_scratch_always_restored():
    inst = build_ctrl_add(2)
    for j in range(1 << inst.circuit.n_qubits):
        j_in = j & ~(1 << inst.circuit.layout.register("g").start)
        out = inst.decode(permutation_output(inst.circuit, j_in))
        assert out["g"] == 0


# ---------------------------------------------------------------------------
# multiplier
# ---------------------------------------------------------------------------

def test_multiplier_examples():
    assert run(build_multiplier(4), a=3, b=5)["p"] == 15
    assert run(build_multiplier(3), a=7, b=7)["p"] == 49


def test_multiplier_exhaustive_two_bits():
    inst = build_multiplier(2)
    assert inst.circuit.n_qubits == 9
    for a in range(4):
        for b in range(4):
            assert run(inst, a=a, b=b) == {"b": b, "a": a, "p": a * b}


def test_multiplier_top_product_qubit_stays_zero():
    inst = build_multiplier(3)
    top = inst.circuit.layout.register("p").stop - 1
    for a in range(8):
        for b in range(8):
            out_index = permutation_output(inst.circuit, inst.encode({"a": a, "b": b}))
            assert (out_index >> top) & 1 == 0


def test_multiplier_statevector_cross_check():
    # the permutation path and the dense simulator must agree on a circuit
    # that actually exercises the controlled-adder internals
    inst = build_multiplier(2)
    for a, b in ((3, 3), (2, 3), (1, 2), (0, 3)):
        j = inst.encode({"a": a, "b": b})
        st = simulate(inst.circuit, j)
        assert abs(st.amps[permutation_output(inst.circuit, j)] - 1) < 1e-9


# ---------------------------------------------------------------------------
# polynomial evaluator
# ---------------------------------------------------------------------------

def test_taylor_examples():
    inst = build_taylor(4, 5, 3, 1, 2)
    out = run(inst, x=3)
    assert out["y4"] == 9
    assert out["xc"] == out["y1"] == out["y2"] == 0
    assert run(inst, x=2)["y4"] == 5
    inst = build_taylor(4, 0, 0, 2, 1)
    assert run(inst, x=3)["y4"] == 8


@pytest.mark.parametrize("n,consts", [
    (1, (1, 1, 1, 0)),
    (2, (1, 2, 3, 1)),
    (2, (3, 0, 2, 2)),
    (3, (5, 3, 7, 4)),
])
def test_taylor_exhaustive_over_x(n, consts):
    f_c, fp_c, fpp, c = consts
    inst = build_taylor(n, f_c, fp_c, fpp, c)
    assert inst.circuit.n_qubits == 9 * n
    mod = 1 << n
    for xv in range(mod):
        out = run(inst, x=xv)
        expected_y4 = (f_c + fp_c * (xv - c) + fpp * (xv - c) ** 2) % mod
        assert out["y4"] == expected_y4
        assert out["x"] == xv and out["c"] == c
        assert out["fc"] == f_c and out["fp"] == fp_c and out["fpp"] == fpp
        assert out["xc"] == 0 and out["y1"] == 0 and out["y2"] == 0


def test_taylor_statevector_cross_check():
    # 18 qubits, within the dense ceiling: the wide-register permutation
    # path must match full statevector evolution
    inst = build_taylor(2, 1, 2, 3, 1)
    for xv in range(4):
        j = inst.encode({"x": xv})
        st = simulate(inst.circuit, j)
        assert abs(st.amps[permutation_output(inst.circuit, j)] - 1) < 1e-9


def test_taylor_constants_validated():
    with pytest.raises(DomainError):
        build_taylor(2, 4, 0, 0, 0)
    with pytest.raises(DomainError):
        build_taylor(2, 0, 0, 0, -1)


def test_taylor_register_order():
    inst = build_taylor(2, 0, 0, 0, 0)
    assert tuple(r.name for r in inst.circuit.layout.registers) == TAYLOR_REGISTERS


# ---------------------------------------------------------------------------
# shared structural properties
# ---------------------------------------------------------------------------

ALL_BUILDERS = [
    lambda n: build_adder(n),
    lambda n: build_subtractor(n),
    lambda n: build_ctrl_add(n),
    lambda n: build_multiplier(n),
    lambda n: build_taylor(n, 1 % (1 << n), 1 % (1 << n), 1 % (1 << n), 0),
]


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_generators_emit_permutation_circuits(build):
    inst = build(2)
    assert is_permutation_circuit(inst.circuit)
    kinds = {g.kind for g in inst.circuit.ops}
    assert kinds <= {"x", "cnot", "ccx"}


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_generators_reject_zero_width(build):
    with pytest.raises(DomainError):
        build(0)


@pytest.mark.parametrize("inst", [
    build_adder(2), build_subtractor(2), build_ctrl_add(2),
    build_multiplier(2), build_taylor(1, 1, 1, 1, 0),
], ids=["adder", "sub", "ctrladd", "mul", "taylor"])
def test_full_unitary_is_permutation_matrix(inst):
    # reversibility of classical logic: every column of the dense unitary
    # is one-hot and the basis map is a bijection
    dim = 1 << inst.circuit.n_qubits
    hits = set()
    for j in range(dim):
        st = simulate(inst.circuit, j)
        probs = np.abs(st.amps) ** 2
        k = int(np.argmax(probs))
        assert abs(st.amps[k] - 1) < 1e-10
        assert probs.sum() - probs[k] < 1e-10
        hits.add(k)
    assert len(hits) == dim


@pytest.mark.parametrize("inst", [
    build_adder(2), build_subtractor(2), build_ctrl_add(2),
    build_multiplier(2), build_taylor(1, 1, 1, 1, 0),
], ids=["adder", "sub", "ctrladd", "mul", "taylor"])
def test_restored_inputs_hold_on_every_basis_input(inst):
    # restoration is a wire property, so it holds even when ancillae enter
    # dirty; outputs for such inputs are unspecified, restoration is not
    restored = [r for r in inst.circuit.layout.registers
                if r.role == "restored-input"]
    for j in range(1 << inst.circuit.n_qubits):
        out = inst.decode(permutation_output(inst.circuit, j))
        before = inst.decode(j)
        for r in restored:
            assert out[r.name] == before[r.name]


def test_encode_rejects_oversize_values():
    inst = build_adder(3)
    with pytest.raises(DomainError):
        inst.encode({"a": 8, "b": 0})


def test_input_space_enumeration_counts():
    assert sum(1 for _ in build_adder(4).input_space()) == 256
    assert sum(1 for _ in build_ctrl_add(4).input_space()) == 512
    assert sum(1 for _ in build_multiplier(3).input_space()) == 64
    assert sum(1 for _ in build_taylor(4, 1, 1, 1, 1).input_space()) == 16


def test_input_space_order_is_odometer():
    # the last input register varies fastest; exhaustive_check reports
    # mismatches in this order
    space = list(build_ctrl_add(2).input_space())
    assert list(space[0].items()) == [("ctrl", 0), ("b", 0), ("a", 0)]
    assert list(space[1].items()) == [("ctrl", 0), ("b", 0), ("a", 1)]
    assert list(space[4].items()) == [("ctrl", 0), ("b", 1), ("a", 0)]
    assert list(space[-1].items()) == [("ctrl", 1), ("b", 3), ("a", 3)]


def test_input_space_is_lazy():
    # 80 free bits: a materialized enumeration could never yield
    start = time.perf_counter()
    first = next(iter(build_multiplier(40).input_space()))
    assert first == {"b": 0, "a": 0}
    assert time.perf_counter() - start < 1.0


def test_self_inversion_consistency():
    from cliffordt.circuit import compose, inverse_circuit
    for n in (1, 2, 3, 4):
        c = build_adder(n).circuit
        cc = compose(c, inverse_circuit(c))
        for j in range(1 << c.n_qubits):
            assert permutation_output(cc, j) == j
