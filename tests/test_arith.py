"""Arithmetic generators checked against plain integer arithmetic."""

import copy
import hashlib
import pickle
import time

import numpy as np
import pytest

from cliffordt.arith import (BUILDERS, TAYLOR_REGISTERS, ArithInstance,
                             _ladder, _mod_mul_ops, _sub_core, build_adder,
                             build_ctrl_add, build_multiplier,
                             build_subtractor, build_taylor)
from cliffordt.circuit import (Circuit, inverse_circuit, is_permutation_circuit,
                               permutation_output, serialize, simulate)
from cliffordt.errors import DomainError, ResourceError
from cliffordt.gates import cnot
from helpers import run_child


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
    for role, size in (("ancilla", 1), ("garbage", 0)):
        assert sum(r.size for r in layout.registers if r.role == role) == size


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


@pytest.mark.parametrize("inst", [build_adder(3), build_ctrl_add(2)],
                         ids=["adder3", "ctrladd2"])
def test_layout_decode_matches_instance_decode(inst):
    layout = inst.circuit.layout
    for j in range(1 << inst.circuit.n_qubits):
        bits = {r.name: sum(((j >> q) & 1) << i
                            for i, q in enumerate(r.qubits()))
                for r in layout.registers}
        assert layout.decode(j) == inst.decode(j) == bits
        assert list(layout.decode(j)) == [r.name for r in layout.registers]


def test_encode_rejects_oversize_values():
    inst = build_adder(3)
    with pytest.raises(DomainError):
        inst.encode({"a": 8, "b": 0})


def test_encode_takes_numpy_integers_at_any_width():
    # numpy shifts a 70-bit register's value out to 0
    inst = build_adder(70)
    assert inst.encode({"a": np.int64(3), "b": 1}) == 3 << 70 | 1
    with pytest.raises(DomainError):
        build_adder(3).encode({"a": np.int64(8)})


def test_encode_rejects_a_non_integer_value():
    with pytest.raises(DomainError, match="not an integer"):
        build_adder(3).encode({"a": 1.5})


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


def test_counter_puts_the_last_input_lowest():
    assert build_ctrl_add(2).counter() == [("ctrl", 4, 1), ("b", 2, 3),
                                           ("a", 0, 3)]
    assert build_taylor(3, 1, 1, 1, 1).counter() == [("x", 0, 7)]
    # no free input: one empty assignment
    none = ArithInstance(1, Circuit(1), ())
    assert none.counter() == []
    assert list(none.input_space()) == [{}]


def test_input_space_is_lazy():
    # 80 free bits: a materialized enumeration could never yield
    start = time.perf_counter()
    first = next(iter(build_multiplier(40).input_space()))
    assert first == {"b": 0, "a": 0}
    assert time.perf_counter() - start < 1.0


def test_counter_refuses_a_huge_input_without_allocating():
    # a free register of 10^11 qubits: its mask alone would be 12.5 GB.
    # The child runs under a 1 GiB address-space limit, so building it
    # would fail with MemoryError instead of eating the machine's memory
    code = ("from cliffordt.arith import ArithInstance\n"
            "from cliffordt.circuit import Circuit\n"
            "from cliffordt.errors import ResourceError\n"
            "inst = ArithInstance(1, Circuit(10**11), ('q',))\n"
            "for call in (inst.counter, inst.input_space):\n"
            "    try:\n"
            "        call()\n"
            "    except ResourceError as exc:\n"
            "        print(exc)\n")
    proc = run_child(code=code, limit=1 << 30)
    assert proc.stderr == ""
    assert proc.stdout == ("100000000000 free input bits exceed the counter "
                           "limit of 16777216\n") * 2


def test_self_inversion_consistency():
    for n in (1, 2, 3, 4):
        c = build_adder(n).circuit
        cc = Circuit(c.n_qubits, c.ops + inverse_circuit(c).ops)
        for j in range(1 << c.n_qubits):
            assert permutation_output(cc, j) == j


# ---------------------------------------------------------------------------
# golden serialize() digests
# ---------------------------------------------------------------------------

# sha256 of serialize(circuit), pinned so that a refactor of the generators
# is shown to emit byte-identical circuits.
GOLDEN_DIGESTS = {
    ("adder", 1): "f4460213cc5db92702d95108169e934277188794d9e477c1fe158e34371c2e8d",
    ("adder", 2): "deaca43282ba7e6e9a667d0b6d129b7713e482dded1af8cad326e1f74ed7baa0",
    ("adder", 3): "1610405321ebfc49f67ecd2d00ddbd6d0d6c81b47b53356b57cb5491cfc2028f",
    ("adder", 4): "21f0b3ff0b50502278a23a06fe7f4f8548ef8af1dc25cae302969f65a02573c8",
    ("adder", 5): "f1ca9eb3dec3c8f57085aa9bbe5714b7c9a79e264d225fe999817acfb8abb690",
    ("adder", 6): "f87a77988b4504e8f3d8037910ad83617ef31a443d8d0b5ed4740539cc8a2755",
    ("adder", 7): "4ff01e94656f3952739f524ecc769d29fdab32844c4f97070c0a497e1cd06d72",
    ("adder", 8): "013c0809f80978cb61af0bd8b8b4e9d2b3388fd88d833caf32f1d8627c667c13",
    ("sub", 1): "2610227a84d8fc2f74ab5b80abeb2d09bd5bda97beb1bb51c520bc06df10a8ea",
    ("sub", 2): "8ad26599f5db9bc38d04c621ba9ef612f712e5d5dc2e443c1e00bb98c928d182",
    ("sub", 3): "20a54cf21fe0f165fa08306a2da295acbf0a2cf53f66b34e393fc9fd6001e2c7",
    ("sub", 4): "cc0d15c0a3594c178072879b2d2a48721c879913546e352465124f9ebc9f5f2c",
    ("sub", 5): "598588f9c59959bff0cbcdb819f2953a33332ea77c3d904b547116bd70b9081e",
    ("sub", 6): "0977a3f74383e59bd7c92b44a290809c5505a60e62e60577d82d31c3eee69b5f",
    ("sub", 7): "2a38668231d0c839e19f933997e8b7b96407e7bd5a876e7f1b913e865e6bdd74",
    ("sub", 8): "d602ebc980284158a2d4d54d30b982ba8326e80c3c9a90091bda4548f74d883c",
    ("ctrladd", 1): "ac0c6cedfa660c8e230b54f3d22c278b8a6be039057a13dc2649ba71ce8792e7",
    ("ctrladd", 2): "2f00eb05e2ef0caf2fbd528cd4dbd7fde57a163f78b156beb8b70a9bcdf02c92",
    ("ctrladd", 3): "c18bb3e61d161ce5b34a53d6b9271d87cef91594bc841acccf063e0c759a8a47",
    ("ctrladd", 4): "f03d715d8fc09eaafa4180baa9d24701f5c097ee78891909e549c31ef0fbb375",
    ("ctrladd", 5): "e569ca73bfc02c8e187ac1c531b6eea2ad0815dd64cbf2d13a78311f30001d59",
    ("ctrladd", 6): "286d2e4113548e331f61f60f1826a00a82dbbd96593afa525d282057fd6c1e85",
    ("ctrladd", 7): "fed464b4547b029f4b6ad842ff92b648d57d8e2fff2216d1cfdff11079c1cf86",
    ("ctrladd", 8): "feeb78d8f82fe7de399ebd3827503bfeafbaafac701910331cf44b44ff7df607",
    ("mul", 1): "1b4fdbb804e67c223ddb74b8e7fcd78594e8addfe966762936430c0247d9fdfd",
    ("mul", 2): "f5685f8ef6633d29dfecada281289937bcc95ddd755249356d41ced21ded8a57",
    ("mul", 3): "7d178fb8fcfa2cca1d53f69a7db791e1925af46033b71779fa3aea0aa00b4f48",
    ("mul", 4): "84eabea6f8042bbaffce8d86fc2ab2bf1b823675a1ad7926c076faf227f2fe39",
    ("mul", 5): "e4a5eb0c1e6a4cb3d6de045af860ae97fc4d53d743dee0fbb67fe8b89da4d773",
    ("mul", 6): "fc81b146ca299616db2a0e26ff51de18d89cadb0045a83f32fcc887364748fb8",
    ("mul", 7): "ba8eda1d24a2b0bc071b0188a1910b932844ac2f29c3663be963bb68d6760003",
    ("mul", 8): "7379e3048bdf5efefec2db8aac8fcbc564e3fd94e2cbe6e8d87f8fa094fafb4f",
}

# Taylor constants are pinned register contents, not gates, so both
# constant sets of one width share a digest.
GOLDEN_TAYLOR_DIGESTS = {
    1: "2698828c02b57bc0e08e2e64d2519c1a4c98e2646ea5ed44b02254420eb91e95",
    2: "fde1a2ff7b22093e210633df83be5ee90e44d48a78ac21b9d5e50e8bdaa50a0e",
    3: "d8107c77c7912425a58fabe976ae7036e41ad06f58379a1d56b1ae38ed1b249a",
    4: "f81df7dc3988950c4588f71d37cfde2f1f1bcc22b772c7205301febea118cf05",
    5: "049b0ae72ce10d96ede6a621d8a3f751548414233ea716dc6d43626898aeb3bd",
    6: "c75d6bbf3a4db85e2439cd5949e33442793fe9c6adfdd148c879cc882cd91310",
    7: "99c5158567cf23d9623588fd6941e99ee28565ecadf7db9f787057d4feaf009c",
    8: "3be28054067167a2bacd2837310009c4c8972810e3f87f3040f36b2be9afa59c",
}


def _digest(inst):
    return hashlib.sha256(serialize(inst.circuit).encode()).hexdigest()


@pytest.mark.parametrize("kind,n", sorted(GOLDEN_DIGESTS))
def test_golden_serialize_digest(kind, n):
    assert _digest(BUILDERS[kind](n)) == GOLDEN_DIGESTS[kind, n]


@pytest.mark.parametrize("n", sorted(GOLDEN_TAYLOR_DIGESTS))
@pytest.mark.parametrize("consts", ["ones", "top"])
def test_golden_serialize_digest_taylor(n, consts):
    m = 1 << n
    f_c, fp_c, fpp_half_c, c = ((1 % m, 1 % m, 1 % m, 0) if consts == "ones"
                                else (m - 1, (m - 1) // 2, 1 % m, m - 1))
    inst = BUILDERS["taylor"](n, f_c, fp_c, fpp_half_c, c)
    assert _digest(inst) == GOLDEN_TAYLOR_DIGESTS[n]


def test_taylor_unwind_reuses_the_forward_gates():
    n = 4
    inst = build_taylor(n, 1, 2, 3, 4)
    ops = inst.circuit.ops
    r = {reg.name: list(reg.qubits()) for reg in inst.circuit.layout.registers}
    sub = len(_sub_core(r["x"], r["c"]))
    mul = len(_mod_mul_ops(r["x"], r["fp"], r["y1"]))
    unsub = len(_sub_core(r["y1"], r["fc"]))
    readd = len(_ladder(r["x"], r["c"]))
    copy = ops[sub:sub + n]
    mul_fp = ops[sub + n:sub + n + mul]
    mul_x2 = ops[sub + n + mul:sub + n + 2 * mul]
    end = len(ops) - readd
    uncopy = ops[end - n:end]
    unmul_fp = ops[end - n - mul:end - n]
    unmul_x2 = ops[end - n - 2 * mul - unsub:end - n - mul - unsub]
    for forward, unwind in ((copy, uncopy), (mul_fp[::-1], unmul_fp),
                            (mul_x2[::-1], unmul_x2)):
        assert len(forward) == len(unwind) > 0
        assert all(f is u for f, u in zip(forward, unwind))
    assert copy == tuple(cnot(a, b) for a, b in zip(r["x"], r["xc"]))


def test_taylor_sums_and_differences_share_their_ladders():
    # x <- x-c is re-added by the ladder inside the forward difference,
    # and y1 <- y1+fc is the ladder inside the unwind's difference
    n = 4
    inst = build_taylor(n, 1, 2, 3, 4)
    ops = inst.circuit.ops
    r = {reg.name: list(reg.qubits()) for reg in inst.circuit.layout.registers}
    sub = len(_sub_core(r["x"], r["c"]))
    readd = ops[len(ops) - (sub - 2 * n):]
    assert len(readd) > 0
    assert all(f is u for f, u in zip(ops[n:sub - n], readd, strict=True))
    add = len(_ladder(r["y1"], r["fc"]))
    ladders = [ops[i:i + add] for i in range(len(ops) - add + 1)
               if ops[i:i + add] == tuple(_ladder(r["y1"], r["fc"]))]
    assert len(ladders) == 2
    assert all(f is u for f, u in zip(*ladders))


@pytest.mark.parametrize("ctrl, carry, scratch", [
    (None, None, None), (None, 10, None), (11, 10, 12)],
    ids=["modular", "carry", "controlled"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_ladder_uncomputes_with_its_compute_gates(n, ctrl, carry, scratch):
    b, a = list(range(n)), list(range(n, 2 * n))
    ops = _ladder(b, a, ctrl, carry, scratch)
    carries = [g for g in ops if g.kind == "ccx" and g.qubits[2] in a]
    compute, uncompute = carries[:n - 1], carries[n - 1:]
    assert len(uncompute) == n - 1
    assert all(u is c for u, c in zip(uncompute, reversed(compute)))
    # every gate value the ladder repeats is one object
    first = {}
    assert all(first.setdefault(g, g) is g for g in ops)


def test_taylor_builds_each_distinct_gate_about_once():
    ops = build_taylor(24, 5, 7, 9, 11).circuit.ops
    assert len(ops) == 9814
    assert len({id(g) for g in ops}) <= 3643


@pytest.mark.parametrize("value", ["3", 3.0, 1.5, None],
                         ids=["str", "float", "fraction", "none"])
@pytest.mark.parametrize("build", [
    build_adder, build_subtractor, build_ctrl_add, build_multiplier,
    lambda n: build_taylor(n, 0, 0, 0, 0)],
    ids=["adder", "sub", "ctrladd", "mul", "taylor"])
def test_generators_refuse_a_non_integer_width(build, value):
    with pytest.raises(DomainError, match="not an integer"):
        build(value)


@pytest.mark.parametrize("kind", ["adder", "sub", "ctrladd", "mul"])
def test_generators_take_a_numpy_integer_width(kind):
    inst = BUILDERS[kind](np.int64(3))
    assert type(inst.n_bits) is int
    assert serialize(inst.circuit) == serialize(BUILDERS[kind](3).circuit)


@pytest.mark.parametrize("value", ["1", 1.5, 1.0, None, -1, 8])
@pytest.mark.parametrize("at", range(4))
def test_taylor_refuses_a_constant_that_is_no_residue(at, value):
    consts = [0, 0, 0, 0]
    consts[at] = value
    with pytest.raises(DomainError, match="not an integer|outside|does not fit"):
        build_taylor(3, *consts)


def test_taylor_stores_constants_as_python_ints():
    inst = build_taylor(np.uint8(3), np.int64(5), np.int32(1), True, 0)
    assert inst.constants == {"fc": 5, "fp": 1, "fpp": 1, "c": 0}
    assert all(type(v) is int for v in inst.constants.values())
    assert serialize(inst.circuit) == serialize(
        build_taylor(3, 5, 1, 1, 0).circuit)


@pytest.mark.parametrize("index", [-1, 1.5, "1", None])
def test_decode_refuses_a_negative_or_non_integer_index(index):
    with pytest.raises(DomainError, match="basis index"):
        build_adder(2).decode(index)


@pytest.mark.parametrize("index", [1 << 5, 1 << 40])
def test_decode_refuses_an_index_past_the_circuit_width(index):
    with pytest.raises(DomainError,
                       match=f"basis index {index} out of range for 5 qubits"):
        build_adder(2).decode(index)


def test_encode_refuses_a_register_the_circuit_lacks():
    with pytest.raises(DomainError, match="no register named 'A'"):
        build_adder(2).encode({"A": 3})
    with pytest.raises(DomainError, match="no register named 'q'"):
        build_taylor(2, 1, 1, 1, 1).encode({"x": 1, "q": 0})


def test_taylor_refuses_a_bad_constant_before_building():
    # at 10^6 bits the circuit would hold about 10^12 gates, so the check
    # must come first.  The child runs under a 1 GiB address-space limit
    # and a timeout, so a regression fails instead of eating the memory
    code = ("import time\n"
            "from cliffordt.arith import build_taylor\n"
            "from cliffordt.errors import DomainError\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    build_taylor(10**6, -1, 0, 0, 0)\n"
            "except DomainError as exc:\n"
            "    print(exc, time.perf_counter() - start < 1)\n")
    proc = run_child(code=code, limit=1 << 30, timeout=30)
    assert proc.stderr == ""
    assert proc.stdout == ("value -1 does not fit register fc "
                           "(1000000 bits) True\n")


def test_instance_stores_a_python_int_width():
    inst = ArithInstance(np.int64(2), build_adder(2).circuit, ("b", "a"))
    assert type(inst.n_bits) is int and inst.n_bits == 2
    with pytest.raises(DomainError, match="n_bits"):
        ArithInstance(1.5, build_adder(2).circuit, ("b", "a"))


def test_instance_stores_its_inputs_as_a_tuple_of_distinct_registers():
    circ = build_adder(1).circuit
    inst = ArithInstance(1, circ, ["b", "a"])
    assert inst.input_names == ("b", "a") and inst == build_adder(1)
    assert ArithInstance(1, circ, iter(["a"])).input_names == ("a",)
    for names, message in [(("b", "a", "a"), "lists a register twice"),
                           ("ba", "'ba' is a string"),
                           (("b", "q"), "no register named 'q'")]:
        with pytest.raises(DomainError, match=message):
            ArithInstance(1, circ, names)


def test_instance_checks_each_constant_against_its_register():
    circ = build_taylor(2, 1, 2, 3, 1).circuit
    inst = ArithInstance(2, circ, ("x",), {"c": np.int64(3)})
    assert inst.constants == {"c": 3} and type(inst.constants["c"]) is int
    for constants, message in [({"x": 1}, "constant x is an input register"),
                               ({"q": 1}, "no register named 'q'"),
                               ({"c": 4}, r"value 4 does not fit register c"),
                               ({"c": -1}, "value -1 does not fit register c"),
                               ({"c": 1.5}, "register c value 1.5 is not an integer")]:
        with pytest.raises(DomainError, match=message):
            ArithInstance(2, circ, ("x",), constants)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_width_no_list_can_index_is_a_resource_error(kind):
    n = 10**30
    args = (n, 0, 0, 0, 0) if kind == "taylor" else (n,)
    with pytest.raises(ResourceError, match="exceeds what a list can index"):
        BUILDERS[kind](*args)


def test_instance_constants_are_read_only():
    inst = build_taylor(2, 1, 1, 1, 1)
    with pytest.raises(TypeError):
        inst.constants["c"] = 2**70
    assert inst.constants == {"fc": 1, "fp": 1, "fpp": 1, "c": 1}
    assert {**inst.constants} == dict(inst.constants)
    assert inst.constants.get("x", 0) == 0
    assert inst == build_taylor(2, 1, 1, 1, 1)
    assert pickle.loads(pickle.dumps(inst)) == inst == copy.deepcopy(inst)
