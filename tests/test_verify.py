"""Verification suite: oracle equivalence, tomography, RB, decay fitting."""

import decimal
import hashlib
import json
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffordt import verify
from cliffordt.arith import (BUILDERS, ArithInstance, build_adder,
                             build_ctrl_add, build_multiplier,
                             build_subtractor, build_taylor)
from cliffordt.circuit import (Circuit, Register, RegisterLayout,
                               lower_to_clifford_t, simulate)
from cliffordt.errors import DomainError, FitError, ResourceError
from cliffordt.gates import cnot, compose_matrices, h, s, t, tdg, x
from cliffordt.state import make_rng
from cliffordt.verify import (ORACLES, EquivalenceReport, NoiseModel,
                              exhaustive_check, fit_exponential_decay,
                              oracle_adder, oracle_multiplier,
                              oracle_subtractor, oracle_taylor, run_rb,
                              tomography_1q)
from helpers import phase_aligned_distance, run_child

SQ2 = 1 / np.sqrt(2)


def depolarizing_bloch_contraction(d):
    """Numerically derived per-step Bloch shrink factor of the noise model.

    Builds the channel rho -> (1-d) rho + (d/3) sum_P P rho P directly on
    density matrices and measures what it does to a Z-polarized state.
    """
    paulis = [np.array([[0, 1], [1, 0]], complex),
              np.array([[0, -1j], [1j, 0]], complex),
              np.array([[1, 0], [0, -1]], complex)]
    z = paulis[2]
    rho = (np.eye(2) + z) / 2
    out = (1 - d) * rho + (d / 3) * sum(p @ rho @ p.conj().T for p in paulis)
    return float(np.real(np.trace(z @ out)))


# ---------------------------------------------------------------------------
# exhaustive oracle equivalence
# ---------------------------------------------------------------------------

def test_exhaustive_check_adder_passes():
    report = exhaustive_check(build_adder(4), oracle_adder(4))
    assert report.passed
    assert report.total_inputs == 256
    assert report.mismatches == ()


def test_exhaustive_check_catches_corruption():
    inst = build_adder(4)
    dropped = inst.circuit.ops[:10] + inst.circuit.ops[11:]
    broken = type(inst)(inst.n_bits,
                        Circuit(inst.circuit.n_qubits, dropped,
                                inst.circuit.layout),
                        inst.input_names, inst.constants)
    report = exhaustive_check(broken, oracle_adder(4))
    assert not report.passed
    assert len(report.mismatches) >= 1


def test_exhaustive_check_multiplier():
    report = exhaustive_check(build_multiplier(2), oracle_multiplier(2))
    assert report.passed
    assert report.total_inputs == 16


def test_exhaustive_check_taylor_beyond_statevector_ceiling():
    # 36 qubits: only reachable through the classical permutation path
    inst = build_taylor(4, 5, 3, 1, 2)
    report = exhaustive_check(inst, oracle_taylor(4))
    assert report.passed
    assert report.total_inputs == 16
    assert report.method == "bitsliced"


def test_exhaustive_check_rejects_wide_nonpermutation():
    layout = None
    wide = Circuit(30, tuple(h(q) for q in range(30)), layout)
    from cliffordt.arith import ArithInstance
    inst = ArithInstance(30, wide, ("q",))
    with pytest.raises(ResourceError):
        exhaustive_check(inst, lambda v: {"q": 0})


def test_exhaustive_check_refuses_huge_input_space():
    # 2^80 inputs: refused before the oracle sees a single one
    def untouchable(values):
        pytest.fail("an input was drawn")
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=r"2\^80 inputs"):
        exhaustive_check(build_multiplier(40), untouchable)
    assert time.perf_counter() - start < 5.0


def test_input_ceiling_admits_a_space_of_exactly_the_limit(monkeypatch):
    monkeypatch.setattr(verify, "MAX_CHECK_INPUTS", 64)
    assert exhaustive_check(build_adder(3), oracle_adder(3)).total_inputs == 64
    with pytest.raises(ResourceError, match=r"2\^8 inputs"):
        exhaustive_check(build_adder(4), oracle_adder(4))


def test_input_ceiling_refuses_without_allocating():
    # a free register of 10^11 qubits: the ceiling compares exponents, so
    # 2^bits is never built.  The child runs under a 1 GiB address-space
    # limit, so building it (12.5 GB) would fail with MemoryError instead
    # of eating the machine's memory
    code = ("from cliffordt.arith import ArithInstance\n"
            "from cliffordt.circuit import Circuit\n"
            "from cliffordt.errors import ResourceError\n"
            "from cliffordt.verify import exhaustive_check\n"
            "try:\n"
            "    exhaustive_check(ArithInstance(1, Circuit(10**11), ('q',)), dict)\n"
            "except ResourceError as exc:\n"
            "    print(exc)\n")
    proc = run_child(code=code, limit=1 << 30)
    assert proc.stderr == ""
    assert proc.stdout == ("2^100000000000 inputs exceeds the exhaustive-check "
                           "limit of 268435456\n")


def test_equivalence_report_serialization():
    report = EquivalenceReport(4, ((1, 2, 3),), False)
    assert "passed: false" in report.to_text()
    assert report.to_dict()["mismatches"] == [[1, 2, 3]]
    assert report.method == "bitsliced"
    dense = EquivalenceReport(4, (), True, "statevector")
    assert dense.to_dict()["method"] == "statevector"
    assert dense.to_text() == ("passed: true\nmethod: statevector\n"
                               "total_inputs: 4\nmismatch_count: 0\n")


def test_exhaustive_check_rejects_oversized_oracle_value():
    def oversized(values):
        return {**oracle_adder(3)(values), "b": 8}
    with pytest.raises(DomainError, match="does not fit register b"):
        exhaustive_check(build_adder(3), oversized)


@pytest.mark.parametrize("batch", [verify.CHECK_BATCH, 7, 1])
def test_restored_register_copy_gives_the_same_report(monkeypatch, batch):
    # an oracle that also names a restored register, as the input array
    # or as a copy of it, has it packed: the report is the same
    monkeypatch.setattr(verify, "CHECK_BATCH", batch)

    def copying(oracle):
        return lambda v: {**oracle(v), "a": v["a"].copy()}
    for inst in [build_adder(3), *mutants(build_adder(3))]:
        report = exhaustive_check(inst, oracle_adder(3))
        assert exhaustive_check(inst, copying(oracle_adder(3))) == report


@pytest.mark.parametrize("batch", [verify.CHECK_BATCH, 7, 1])
def test_oracle_that_updates_its_input_dict(monkeypatch, batch):
    # rebinding names in the mapping it was handed and returning it must
    # not turn the computed registers into restored ones
    monkeypatch.setattr(verify, "CHECK_BATCH", batch)

    def updating(v):
        total = v["a"] + v["b"]
        v["b"], v["z"] = total % 8, total >> 3
        return v
    adder = build_adder(3)
    for inst in [adder, *mutants(adder)]:
        assert (exhaustive_check(inst, updating)
                == exhaustive_check(inst, oracle_adder(3)))
    empty = ArithInstance(3, Circuit(adder.circuit.n_qubits, (),
                                     adder.circuit.layout), adder.input_names)
    report = exhaustive_check(empty, updating)
    assert not report.passed
    assert report == exhaustive_check(empty, oracle_adder(3))


@pytest.mark.parametrize("kind", sorted(ORACLES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_builtin_oracles_name_only_the_registers_the_circuit_changes(kind, n):
    inst = build_taylor(n, 1, 1, 0, 1) if kind == "taylor" else BUILDERS[kind](n)
    oracle = ORACLES[kind](n)
    named = oracle({**inst.constants, **dict.fromkeys(inst.input_names, 0)})
    restored = {r.name for r in inst.circuit.layout.registers
                if r.role == "restored-input"}
    assert named and set(named).isdisjoint(restored | set(inst.constants))
    assert exhaustive_check(inst, oracle).passed


def test_a_register_the_oracle_leaves_out_must_end_as_it_began():
    # a flip of input a, of constant c or of ancilla y1 fails every input
    adder, taylor = build_adder(2), build_taylor(2, 1, 2, 3, 1)
    for inst, oracle, register in [(adder, oracle_adder(2), "a"),
                                   (taylor, oracle_taylor(2), "c"),
                                   (taylor, oracle_taylor(2), "y1")]:
        circ = inst.circuit
        flip = x(circ.layout.register(register).start)
        flipped = Circuit(circ.n_qubits, circ.ops + (flip,), circ.layout)
        report = exhaustive_check(
            ArithInstance(inst.n_bits, flipped, inst.input_names,
                          inst.constants), oracle)
        assert len(report.mismatches) == report.total_inputs


@pytest.mark.parametrize("result", [None, [("b", 0)], (("b", 0),), 0])
def test_an_oracle_result_that_is_not_a_mapping_is_refused(result):
    with pytest.raises(DomainError, match="not a mapping of register names"):
        exhaustive_check(build_adder(2), lambda v: result)


@pytest.mark.parametrize("name", ["q", "B", 0])
def test_an_oracle_that_names_an_unknown_register_is_refused(name):
    def oracle(v):
        return {**oracle_adder(2)(v), name: 0}
    with pytest.raises(DomainError, match=f"no register named {name!r}"):
        exhaustive_check(build_adder(2), oracle)


def dense_reference(inst, oracle):
    """The statevector check, input by input: the reference the bit-sliced
    evaluator must reproduce, mismatch order included."""
    mismatches = []
    for values in inst.input_space():
        index_in = inst.encode(values)
        index_exp = inst.encode({**values, **oracle({**values, **inst.constants})})
        amps = simulate(inst.circuit, index_in).amps
        if abs(amps[index_exp] - 1.0) > 1e-9:
            mismatches.append((index_in, index_exp, int(np.argmax(np.abs(amps)))))
    return tuple(mismatches)


def mutants(inst):
    """Every single-gate-deletion mutant of an instance."""
    ops = inst.circuit.ops
    for drop in range(len(ops)):
        circ = Circuit(inst.circuit.n_qubits, ops[:drop] + ops[drop + 1:],
                       inst.circuit.layout)
        yield ArithInstance(inst.n_bits, circ, inst.input_names, inst.constants)


@pytest.mark.parametrize("build,oracle", [(build_adder, oracle_adder),
                                          (build_subtractor, oracle_subtractor)])
def test_mutant_reports_match_dense_reference(build, oracle):
    for mutant in mutants(build(3)):
        report = exhaustive_check(mutant, oracle(3))
        assert report.method == "bitsliced"
        assert report.mismatches == dense_reference(mutant, oracle(3))
        assert report.passed == (not report.mismatches)


def test_batched_check_matches_one_pass(monkeypatch):
    # 256 inputs in batches of 7: the last batch is partial
    broken = next(m for m in mutants(build_adder(4))
                  if len(dense_reference(m, oracle_adder(4))) > 100)
    whole = exhaustive_check(broken, oracle_adder(4))
    assert whole.total_inputs < verify.CHECK_BATCH
    monkeypatch.setattr(verify, "CHECK_BATCH", 7)
    assert exhaustive_check(broken, oracle_adder(4)) == whole
    monkeypatch.setattr(verify, "CHECK_BATCH", 1)
    assert exhaustive_check(broken, oracle_adder(4)) == whole


def test_batches_shrink_to_the_bit_slice_limit(monkeypatch):
    broken = next(m for m in mutants(build_adder(4))
                  if len(dense_reference(m, oracle_adder(4))) > 100)
    whole = exhaustive_check(broken, oracle_adder(4))
    n = broken.circuit.n_qubits
    for limit in (7 * n, n):  # batches of 7 rows, then of 1
        monkeypatch.setattr(verify, "MAX_SLICED_BITS", limit)
        assert exhaustive_check(broken, oracle_adder(4)) == whole
    monkeypatch.setattr(verify, "MAX_SLICED_BITS", n - 1)
    with pytest.raises(ResourceError, match="bit-sliced evaluator"):
        exhaustive_check(broken, oracle_adder(4))


def _taylor(n):
    return build_taylor(n, *(v % (1 << n) for v in (5, 3, 1, 2)))


CHECK_BUILDERS = {"adder": build_adder, "sub": build_subtractor,
                  "ctrladd": build_ctrl_add, "mul": build_multiplier,
                  "taylor": _taylor}


def check_instances(kind, n, variant):
    inst = CHECK_BUILDERS[kind](n)
    if variant == "mutants":
        return list(mutants(inst))
    if variant == "lowered":
        return [ArithInstance(n, lower_to_clifford_t(inst.circuit),
                              inst.input_names, inst.constants)]
    return [inst]


# sha256 of the sorted-key JSON list of exhaustive_check(...).to_dict() over
# a case's instances: the builder itself ("plain", bit-sliced), its lowering
# ("lowered", lifted, but bit-sliced for sub n=1, whose lowering has no
# Toffoli) or every gate-deletion mutant of it ("mutants").  Recorded with
# the per-input encoder that the column packer replaced, so reports,
# mismatch order included, are pinned across that rewrite; the "lowered"
# ones were re-recorded when lifting changed their method from "sparse" to
# "lifted", and LOWERED_SANS_METHOD_GOLDEN pins the rest of each report.
CHECK_GOLDEN = {
    ("adder", 1, "plain"): "80961093e77c1cb8c4e315d24cbd8b83daba0072045944d0083ee6e4a5b844b0",
    ("adder", 2, "plain"): "8f00db1e72ccdca5cd4478d3e524feed4d37d8ba65e4d778c7db0f017b551cad",
    ("adder", 3, "plain"): "456772a9c7ba7cf48bbc2c160a6c487013b3d4f6bcf302334571f10817c3ed36",
    ("adder", 4, "plain"): "93daf268239e9d30921356540768b3af40558ea472648c6ea39a5d8f0c9cb6f2",
    ("sub", 1, "plain"): "80961093e77c1cb8c4e315d24cbd8b83daba0072045944d0083ee6e4a5b844b0",
    ("sub", 2, "plain"): "8f00db1e72ccdca5cd4478d3e524feed4d37d8ba65e4d778c7db0f017b551cad",
    ("sub", 3, "plain"): "456772a9c7ba7cf48bbc2c160a6c487013b3d4f6bcf302334571f10817c3ed36",
    ("sub", 4, "plain"): "93daf268239e9d30921356540768b3af40558ea472648c6ea39a5d8f0c9cb6f2",
    ("ctrladd", 1, "plain"): "f85c3102a3cdc9372e526aa8af5c69fd4647ec3490dfb8b2e08f60201ceed5b5",
    ("ctrladd", 2, "plain"): "0d85ed51ae413c925979c406f682cc5fc049ff6b3d6f9740a05f9f85bbd6372c",
    ("ctrladd", 3, "plain"): "77ed92bd79fa6210b28e9c254076ce64433127fbbde50640095b5471bdec7dd4",
    ("mul", 1, "plain"): "80961093e77c1cb8c4e315d24cbd8b83daba0072045944d0083ee6e4a5b844b0",
    ("mul", 2, "plain"): "8f00db1e72ccdca5cd4478d3e524feed4d37d8ba65e4d778c7db0f017b551cad",
    ("mul", 3, "plain"): "456772a9c7ba7cf48bbc2c160a6c487013b3d4f6bcf302334571f10817c3ed36",
    ("taylor", 1, "plain"): "2d59893c80de5d59bdd908460a9e28e5dc5ba16d818a6a09fe42e53536d58c0f",
    ("taylor", 2, "plain"): "80961093e77c1cb8c4e315d24cbd8b83daba0072045944d0083ee6e4a5b844b0",
    ("taylor", 3, "plain"): "f85c3102a3cdc9372e526aa8af5c69fd4647ec3490dfb8b2e08f60201ceed5b5",
    ("taylor", 4, "plain"): "8f00db1e72ccdca5cd4478d3e524feed4d37d8ba65e4d778c7db0f017b551cad",
    ("adder", 1, "lowered"): "5bfd168b464bd2985b9491178b8baadf4e03d71586d801afc3ba2cdb7a3532c4",
    ("adder", 2, "lowered"): "14a619d1c1c49fe9b600e18152e91e7119f4b76411552f104c81ff6d75e54b1e",
    ("sub", 1, "lowered"): "80961093e77c1cb8c4e315d24cbd8b83daba0072045944d0083ee6e4a5b844b0",
    ("sub", 2, "lowered"): "14a619d1c1c49fe9b600e18152e91e7119f4b76411552f104c81ff6d75e54b1e",
    ("ctrladd", 1, "lowered"): "f957f2892bff2834c0d9a59492b31dd31cc57d2cd84051c341506dbd74286ebb",
    ("mul", 1, "lowered"): "5bfd168b464bd2985b9491178b8baadf4e03d71586d801afc3ba2cdb7a3532c4",
    ("mul", 2, "lowered"): "14a619d1c1c49fe9b600e18152e91e7119f4b76411552f104c81ff6d75e54b1e",
    ("taylor", 1, "lowered"): "76b5fd72fcd7c7adbcacab09a3d3d039cdb8413d43c90ed65ff5b2b14d934da6",
    ("taylor", 2, "lowered"): "5bfd168b464bd2985b9491178b8baadf4e03d71586d801afc3ba2cdb7a3532c4",
    ("adder", 4, "mutants"): "b4c91f7f4d7f74482e1f2c2c0bbe46cca9da836ae234dfcfaca64ec29e30ce2b",
    ("sub", 4, "mutants"): "42069201f30a7d3ea8c35e647b742b324d2e76339d1d4d65f078ff66ed29c4ef",
    ("ctrladd", 3, "mutants"): "f12526b5c348a29c9bf46bfccfa8b1d4d3d694769ee6d9ff0b4c2ac973452efb",
    ("mul", 3, "mutants"): "8d5599ab79d7da91018c7201076908dd3a0b85e5a8d2b5804d6ffb882e2c6336",
    ("taylor", 4, "mutants"): "9e77b6557c1fd92317df45b100e06633fb1d1e72d71ba3b1c42969914591805f",
}


@pytest.mark.parametrize("batch", [verify.CHECK_BATCH, 7, 1])
@pytest.mark.parametrize("kind, n, variant", list(CHECK_GOLDEN))
def test_check_reports_golden_digest(monkeypatch, kind, n, variant, batch):
    monkeypatch.setattr(verify, "CHECK_BATCH", batch)
    reports = [exhaustive_check(inst, ORACLES[kind](n)).to_dict()
               for inst in check_instances(kind, n, variant)]
    payload = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == CHECK_GOLDEN[kind, n, variant]


# sha256 of the same JSON for each "lowered" case of CHECK_GOLDEN with
# "method" taken out of every report, recorded when every lowering ran on
# the sparse route: a lowering's report may name another route, and must
# say the same about every input.
LOWERED_SANS_METHOD_GOLDEN = {
    ("adder", 1): "4bf412afd8e470ce4ef72063f9c76a4fe0d763ddb5a93c61588d04eeea40061a",
    ("adder", 2): "00d544cf3fb35cd433541f26341d57b773f23d2a4c25d2dbe7c414b16f180fee",
    ("sub", 1): "4bf412afd8e470ce4ef72063f9c76a4fe0d763ddb5a93c61588d04eeea40061a",
    ("sub", 2): "00d544cf3fb35cd433541f26341d57b773f23d2a4c25d2dbe7c414b16f180fee",
    ("ctrladd", 1): "01a52e955e9f47df1f08fefd3e5910e458240a6f681f182bbe54cedde920ec34",
    ("mul", 1): "4bf412afd8e470ce4ef72063f9c76a4fe0d763ddb5a93c61588d04eeea40061a",
    ("mul", 2): "00d544cf3fb35cd433541f26341d57b773f23d2a4c25d2dbe7c414b16f180fee",
    ("taylor", 1): "6ef2bab4c52e0fd4d01209e20e4f64ac2a9881ed2d6e9ee8ea981a2bad0db9cf",
    ("taylor", 2): "4bf412afd8e470ce4ef72063f9c76a4fe0d763ddb5a93c61588d04eeea40061a",
}


@pytest.mark.parametrize("kind, n", list(LOWERED_SANS_METHOD_GOLDEN))
def test_lowered_reports_sans_method_golden_digest(kind, n):
    reports = [exhaustive_check(inst, ORACLES[kind](n)).to_dict()
               for inst in check_instances(kind, n, "lowered")]
    for report in reports:
        del report["method"]
    payload = json.dumps(reports, sort_keys=True).encode()
    assert (hashlib.sha256(payload).hexdigest()
            == LOWERED_SANS_METHOD_GOLDEN[kind, n])


def test_exhaustive_check_refuses_registers_wider_than_64_bits():
    def layout(width):
        return RegisterLayout((Register("a", 0, 2, "input"),
                               Register("w", 2, width, "ancilla")))
    flip_w = tuple(x(q) for q in range(2, 66))
    ones = ArithInstance(2, Circuit(66, flip_w, layout(64)), ("a",))
    report = exhaustive_check(ones, lambda v: {
        "a": v["a"], "w": np.full_like(v["a"], (1 << 64) - 1)})
    assert report.passed and report.total_inputs == 4
    # -1 as int64 has the bits of 2^64 - 1 but is still refused
    with pytest.raises(DomainError, match="value -1 does not fit register w"):
        exhaustive_check(ones, lambda v: {
            "a": v["a"], "w": np.full(v["a"].shape, -1, dtype=np.int64)})

    # an integer packs at any width; only an array is held as uint64
    wide = ArithInstance(2, Circuit(67, flip_w, layout(65)), ("a",))
    report = exhaustive_check(wide, lambda v: {"w": (1 << 64) - 1})
    assert report.passed and report.total_inputs == 4
    with pytest.raises(ResourceError, match=r"register w \(65 bits\)"):
        exhaustive_check(wide, lambda v: {
            "w": np.full_like(v["a"], (1 << 64) - 1)})


@pytest.mark.parametrize("change, message", [
    (lambda v: {"a": -1}, "value -1 does not fit register a"),
    (lambda v: {"b": v["b"].astype(np.int64) - 8}, "value -8 does not fit register b"),
    (lambda v: {"b": v["b"] + 8}, "value 8 does not fit register b"),
    (lambda v: {"b": v["b"] / 2}, "register b needs an integer"),
    (lambda v: {"b": v["b"][:1]}, "register b needs an integer"),
    (lambda v: {"b": 1.5}, "register b value 1.5 is not an integer"),
    (lambda v: {"b": "1"}, "register b value '1' is not an integer"),
    (lambda v: {"b": None}, "register b value None is not an integer"),
])
def test_exhaustive_check_rejects_oracle_values_outside_their_register(
        change, message):
    def oracle(values):
        return {**oracle_adder(3)(values), **change(values)}
    with pytest.raises(DomainError, match=message):
        exhaustive_check(build_adder(3), oracle)


def seventy_qubit_instance(num):
    """A 70-qubit instance whose numbers are all made by ``num``: input
    a (2 bits), ancillae w (64 bits) and z (4 bits); z takes a, and w
    its top bit."""
    layout = RegisterLayout((Register("a", num(0), num(2), "input"),
                             Register("w", num(2), num(64), "ancilla"),
                             Register("z", num(66), num(4), "ancilla")))
    ops = (cnot(num(0), num(66)), cnot(num(1), num(67)), cnot(1, 2))
    return ArithInstance(num(2), Circuit(num(70), ops, layout), ("a",))


@pytest.mark.parametrize("oracle", [
    lambda v: {"a": v["a"], "z": v["a"], "w": v["a"] >> 1},
    lambda v: {"a": v["a"], "z": v["a"] ^ 1, "w": 0}])
def test_numpy_int_widths_give_the_same_report_as_python_ints(oracle):
    want = exhaustive_check(seventy_qubit_instance(int), oracle)
    got = exhaustive_check(seventy_qubit_instance(np.int64), oracle)
    assert got == want and want.total_inputs == 4
    assert all(type(v) is int for m in got.mismatches for v in m)
    layout = RegisterLayout((Register("q", np.int64(0), np.int64(70),
                                      "input"),))
    assert layout.decode((1 << 69) | 5) == {"q": (1 << 69) | 5}


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30))
@example(3, -2).via("3 > 2 sqrt(2)")
@example(-3, 2).via("-3 < -2 sqrt(2)")
@example(-1, 1).via("sqrt(2) > 1")
@example(1, -1).via("1 < sqrt(2)")
@example(99, -70).via("a convergent of sqrt(2) from above")
@example(-140, 99).via("a convergent of sqrt(2) from below")
@example(0, 0).via("zero")
def test_positive_is_the_sign_of_p_plus_q_sqrt2(p, q):
    # a sparse mismatch reports the basis index _positive picks
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        value = Decimal(p) + Decimal(q) * Decimal(2).sqrt()
    assert verify._positive(p, q) == (value > 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_columns_match_encoded_indices(data):
    # registers up to 64 bits, each given as a uint64 array or as one int
    sizes = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=4))
    rows = data.draw(st.integers(1, 20))
    registers, start = [], 0
    for i, size in enumerate(sizes):
        registers.append(Register(f"r{i}", start, size, "input"))
        start += size
    inst = ArithInstance(1, Circuit(start, (), RegisterLayout(tuple(registers))), ())
    values = {}
    for r in registers:
        word = st.integers(0, (1 << r.size) - 1)
        values[r.name] = (data.draw(word) if data.draw(st.booleans()) else
                          np.array(data.draw(st.lists(word, min_size=rows,
                                                      max_size=rows)),
                                   dtype=np.uint64))
    indices = [inst.encode({name: int(np.broadcast_to(v, rows)[row])
                            for name, v in values.items()})
               for row in range(rows)]
    # transpose by hand: bit r of column q is bit q of row r's index
    columns = [sum((j >> q & 1) << r for r, j in enumerate(indices))
               for q in range(start)]
    packed = [col for r in registers
              for col in verify._pack(r.name, r.size, values[r.name], rows)]
    assert packed == columns


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_counter_columns_match_packed_counter(data):
    # every bit of a 64-bit counter over rows [base, base + rows)
    rows = data.draw(st.sampled_from((1, 7, 64, 100, verify.CHECK_BATCH))
                     | st.integers(1, 600))
    top = (1 << 64) - rows
    base = data.draw(st.sampled_from((0, top)) | st.integers(0, top)
                     | st.integers(0, 1 << 12).map(lambda k: k * rows))
    count = np.uint64(base) + np.arange(rows, dtype=np.uint64)
    packed = verify._pack("c", 64, count, rows)
    assert [verify._count_column(bit, base, rows) for bit in range(64)] == packed


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unpack_reads_rows_bit_by_bit(data):
    # a mask names any set of rows, none and all included; they come
    # back in ascending order
    n_qubits = data.draw(st.integers(1, 130))
    n_rows = data.draw(st.integers(1, 80))
    cols = data.draw(st.lists(st.integers(0, (1 << n_rows) - 1),
                              min_size=n_qubits, max_size=n_qubits))
    mask = data.draw(st.sampled_from((0, (1 << n_rows) - 1))
                     | st.integers(0, (1 << n_rows) - 1))
    rows = [r for r in range(n_rows) if mask >> r & 1]
    want = [sum((col >> r & 1) << q for q, col in enumerate(cols)) for r in rows]
    assert verify._unpack(cols, n_rows, mask) == want


ORACLE_INPUTS = {"adder": ("a", "b"), "sub": ("a", "b"),
                 "ctrladd": ("ctrl", "a", "b"), "mul": ("a", "b"),
                 "taylor": ("x",)}


@st.composite
def oracle_batches(draw, kind):
    """A width n <= 28, the kind's constants and a batch of input rows,
    register by register, with n = 28, 0 and 2^n - 1 drawn often."""
    n = draw(st.just(28) | st.integers(1, 28))
    top = (1 << n) - 1
    word = st.sampled_from((0, top)) | st.integers(0, top)
    rows = draw(st.integers(1, 8))
    values = {name: draw(st.lists(st.integers(0, 1) if name == "ctrl" else word,
                                  min_size=rows, max_size=rows))
              for name in ORACLE_INPUTS[kind]}
    constants = ({name: draw(st.integers(0, top)) for name in ("c", "fc", "fp", "fpp")}
                 if kind == "taylor" else {})
    return n, constants, values, rows


@pytest.mark.parametrize("kind", sorted(ORACLES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_array_oracles_match_scalar_oracles(kind, data):
    n, constants, values, rows = data.draw(oracle_batches(kind))
    oracle = ORACLES[kind](n)
    arrays = oracle({**constants, **{name: np.array(v, dtype=np.uint64)
                                     for name, v in values.items()}})
    for out in arrays.values():
        assert type(out) is int or out.dtype == np.uint64
    for r in range(rows):
        want = oracle({**constants, **{name: v[r] for name, v in values.items()}})
        assert all(type(out) is int for out in want.values())
        assert {name: int(np.broadcast_to(out, rows)[r])
                for name, out in arrays.items()} == want


def test_nonpermutation_circuit_takes_sparse_path():
    # a lowering lifts back to a permutation circuit; a T and its inverse
    # match no template and stay, so the same map with them added runs sparse
    inst = build_adder(2)
    lowered = lower_to_clifford_t(inst.circuit)
    report = exhaustive_check(
        ArithInstance(2, lowered, inst.input_names), oracle_adder(2))
    assert report.method == "lifted"
    assert report.passed and report.total_inputs == 16
    padded = Circuit(lowered.n_qubits, lowered.ops + (t(0), tdg(0)),
                     lowered.layout)
    sparse = exhaustive_check(ArithInstance(2, padded, inst.input_names),
                              oracle_adder(2))
    assert sparse == EquivalenceReport(16, (), True, "sparse")


@pytest.mark.parametrize("n", [3, 4])
def test_sparse_check_proves_lowered_taylor_past_statevector_ceiling(n):
    # 27 and 36 qubits: no statevector could hold them; the lowering lifts
    # back to its permutation circuit and runs bit-sliced
    inst = build_taylor(n, 5, 3, 1, 2)
    lowered = ArithInstance(n, lower_to_clifford_t(inst.circuit),
                            inst.input_names, inst.constants)
    assert lowered.circuit.n_qubits == 9 * n
    report = exhaustive_check(lowered, oracle_taylor(n))
    assert report.method == "lifted"
    assert report.passed and report.total_inputs == 1 << n


def test_lowered_taylor_10_proves_within_time_budget():
    # 90 qubits, 12,520 gates, 1,024 inputs: on the sparse route, one
    # input at a time, this took 8.5 to 9.2 s
    inst = build_taylor(10, 5, 3, 1, 2)
    lowered = ArithInstance(10, lower_to_clifford_t(inst.circuit),
                            inst.input_names, inst.constants)
    start = time.perf_counter()
    report = exhaustive_check(lowered, oracle_taylor(10))
    elapsed = time.perf_counter() - start
    assert report == EquivalenceReport(1024, (), True, "lifted")
    assert elapsed < 0.1, f"{elapsed:.3f}s exceeds 0.1s"


def matrix_reference(inst, oracle):
    """The sparse check, rebuilt from the circuit's full unitary: a row
    passes when its column is the expected basis state with amplitude 1,
    and observed is the lowest index of largest magnitude."""
    u = compose_matrices(inst.circuit.ops, inst.circuit.n_qubits)
    mismatches = []
    for values in inst.input_space():
        index_in = inst.encode(values)
        index_exp = inst.encode({**values, **oracle({**values, **inst.constants})})
        mags = np.abs(u[:, index_in])
        if abs(u[index_exp, index_in] - 1.0) > 1e-9:
            observed = int(np.argmax(mags >= mags.max() - 1e-9))
            mismatches.append((index_in, index_exp, observed))
    return tuple(mismatches)


_LOWERED_ADDER2 = lower_to_clifford_t(build_adder(2).circuit)


# deleting a t leaves phase errors and uneven superpositions; deleting an
# h leaves amplitudes of equal magnitude, where the lowest index wins
@pytest.mark.parametrize("drop", [i for i, g in enumerate(_LOWERED_ADDER2.ops)
                                  if g.kind in ("t", "h")])
def test_sparse_mutant_reports_match_matrix_reference(drop):
    ops = _LOWERED_ADDER2.ops
    mutant = ArithInstance(2, Circuit(_LOWERED_ADDER2.n_qubits,
                                      ops[:drop] + ops[drop + 1:],
                                      _LOWERED_ADDER2.layout), ("b", "a"))
    report = exhaustive_check(mutant, oracle_adder(2))
    assert report.method == "sparse"
    assert report.mismatches == matrix_reference(mutant, oracle_adder(2))
    assert not report.passed


def test_lowered_adder_without_its_first_t_keeps_its_sparse_report():
    # one Toffoli template of lowered adder n=2 loses a T, so the circuit is
    # no permutation circuit and runs on the sparse route; the whole report,
    # each observed index included, is pinned as the sparse route gave it
    ops = _LOWERED_ADDER2.ops
    drop = next(i for i, g in enumerate(ops) if g.kind == "t")
    mutant = ArithInstance(2, Circuit(_LOWERED_ADDER2.n_qubits,
                                      ops[:drop] + ops[drop + 1:],
                                      _LOWERED_ADDER2.layout), ("b", "a"))
    assert exhaustive_check(mutant, oracle_adder(2)).to_dict() == {
        "method": "sparse", "passed": False, "total_inputs": 16,
        "mismatches": [[1, 1, 1], [5, 6, 6], [9, 11, 11], [13, 28, 28],
                       [3, 3, 3], [7, 20, 20], [11, 25, 25], [15, 30, 30]]}



@pytest.mark.parametrize("build,oracle,n,inputs,limit_seconds", [
    (build_adder, oracle_adder, 8, 65536, 10.0),
    (build_multiplier, oracle_multiplier, 4, 256, 5.0),
])
def test_exhaustive_check_within_time_budget(build, oracle, n, inputs, limit_seconds):
    inst = build(n)
    start = time.perf_counter()
    report = exhaustive_check(inst, oracle(n))
    elapsed = time.perf_counter() - start
    assert report.passed and report.total_inputs == inputs
    assert elapsed < limit_seconds, f"{elapsed:.2f}s exceeds {limit_seconds}s"


def test_oracle_registry_covers_all_kinds():
    assert set(ORACLES) == {"adder", "sub", "ctrladd", "mul", "taylor"}


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_tomography_pole_states():
    bx, by, bz = tomography_1q(Circuit(1), 10000, seed=2)
    assert abs(bz - 1) < 0.05 and abs(bx) < 0.05 and abs(by) < 0.05
    bx, by, bz = tomography_1q(Circuit(1, (x(0),)), 10000, seed=3)
    assert abs(bz + 1) < 0.05


def test_tomography_equator_state():
    bx, by, bz = tomography_1q(Circuit(1, (h(0),)), 10000, seed=4)
    assert abs(bx - 1) < 0.05 and abs(by) < 0.05 and abs(bz) < 0.05


def test_tomography_converges_to_analytic_vector():
    for gates, exact in (((h(0),), (1, 0, 0)),
                         ((h(0), s(0)), (0, 1, 0)),
                         ((h(0), t(0)), (SQ2, SQ2, 0))):
        prep = Circuit(1, gates)
        est = np.array(tomography_1q(prep, 100000, seed=8))
        assert np.max(np.abs(est - exact)) < 0.02


def test_tomography_estimate_stays_near_unit_ball():
    est = np.array(tomography_1q(Circuit(1, (h(0),)), 10000, seed=5))
    sigma = 1 / np.sqrt(10000)
    assert np.linalg.norm(est) <= 1 + 3 * sigma



# sha256 of the JSON of tomography_1q(Circuit(1, gates), 10000, seed): the
# benchmark's three preparations and two off-axis states
TOMOGRAPHY_PREPS = {"zero": (), "one": (x(0),), "plus": (h(0),),
                    "t-state": (h(0), t(0)), "plus-i": (h(0), s(0))}
TOMOGRAPHY_GOLDEN = {
    ("zero", 1): "2f4c6bde053f4e31f9cb7151c0365dfd50461fa4d080edad2516be930edda63c",
    ("zero", 2): "0853197b366c6e9f23e835892dc9ea00f208880d39c8e81d1b1aa84648d4e525",
    ("one", 1): "601a17d97bee0da92cf5697e2416004056da3208859ea9c58f1423ae73363ccb",
    ("one", 2): "09e20d24482ccae5765a34e2bae75580566322c4c9b02257c6fbd6e33cacdffb",
    ("plus", 1): "0d3f97775167a85c9312ccbd217fd7ec50c352be2445b2c01eb6b1623758c494",
    ("plus", 2): "7dcb557ec9c14ce2717d033f390b689aebbdd885d8c1ff78e5fa711b87f0fc09",
    ("t-state", 1): "ad9d4170e15519da2d1e9fde99f3b5eaf5943e53727ca52910b14973605112a1",
    ("t-state", 2): "64d914d3fc8982e351a45c37bd18d0ff1070c718773e576ca1f4cd5faf52a38e",
    ("plus-i", 1): "f28f5215eb369a17e4655b5d0310db708df5759dceabad5e6b505141dee27254",
    ("plus-i", 2): "9b189965159d906eb9491665d7e75695aa3d333b3a9046ddcfd8b58b7dc2b1b0",
}


@pytest.mark.parametrize("name, seed", sorted(TOMOGRAPHY_GOLDEN))
def test_tomography_golden_digest(name, seed):
    est = tomography_1q(Circuit(1, TOMOGRAPHY_PREPS[name]), 10000, seed)
    payload = json.dumps(est).encode()
    assert hashlib.sha256(payload).hexdigest() == TOMOGRAPHY_GOLDEN[name, seed]

def test_tomography_validation():
    with pytest.raises(DomainError):
        tomography_1q(Circuit(2), 100, seed=1)
    with pytest.raises(DomainError):
        tomography_1q(Circuit(1), 0, seed=1)


def test_tomography_refuses_counts_past_int64():
    with pytest.raises(DomainError, match=r"shots_per_axis must be at most"):
        tomography_1q(Circuit(1), 1 << 63, 1)


# ---------------------------------------------------------------------------
# randomized benchmarking
# ---------------------------------------------------------------------------

def test_rb_noiseless_is_exact():
    result = run_rb(NoiseModel(0.0), [1, 4, 8], n_sequences=20, shots=50, seed=6)
    assert all(f == 1.0 for f in result.mean_fidelity)
    assert result.fit_p == 1.0
    assert result.error_per_gate == 0.0


def test_rb_decay_matches_depolarizing_prediction():
    d = 0.02
    result = run_rb(NoiseModel(d), [1, 5, 10, 20, 40, 70, 100],
                    n_sequences=150, shots=100, seed=7)
    analytic = depolarizing_bloch_contraction(d)
    assert abs(result.fit_p - analytic) / analytic < 0.10


def test_rb_fully_depolarizing_floors_at_half():
    # per-sequence survival has std ~0.29 here, so 400 sequences put one
    # standard error near 0.015; 0.07 is beyond three sigma
    result = run_rb(NoiseModel(1.0), [4, 8, 12], n_sequences=400, shots=100,
                    seed=9)
    for f in result.mean_fidelity:
        assert abs(f - 0.5) < 0.07


def test_rb_noisy_p_below_one():
    result = run_rb(NoiseModel(0.05), [1, 5, 10, 20], n_sequences=60,
                    shots=100, seed=10)
    assert result.fit_p < 1.0
    assert 0.0 <= result.fit_p <= 1.0


def test_rb_seed_reproducible():
    a = run_rb(NoiseModel(0.03), [1, 5, 10], 20, 50, seed=11)
    b = run_rb(NoiseModel(0.03), [1, 5, 10], 20, 50, seed=11)
    assert a == b


def test_rb_validation():
    with pytest.raises(DomainError):
        run_rb(NoiseModel(0.1), [], 10, 10, seed=0)
    with pytest.raises(DomainError):
        run_rb(NoiseModel(0.1), [5, 2], 10, 10, seed=0)
    with pytest.raises(DomainError):
        NoiseModel(1.5)


@pytest.mark.parametrize("d", ["0.1", b"0.1", None, 0.1j],
                         ids=["str", "bytes", "none", "complex"])
def test_noise_model_refuses_a_probability_that_is_no_real(d):
    with pytest.raises(DomainError, match="is not a real number"):
        NoiseModel(d)


@pytest.mark.parametrize("d", [float("nan"), -0.1, 1.5, float("inf"),
                               10**400, Decimal("NaN"), Decimal("sNaN"),
                               Decimal("1.5")])
def test_noise_model_refuses_a_probability_outside_the_unit_interval(d):
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        NoiseModel(d)


def test_noise_model_stores_a_python_float():
    for d in (np.float64(0.03), np.float32(0.25), 0, True,
              Decimal("0.1"), Fraction(1, 4)):
        noise = NoiseModel(d)
        assert type(noise.depolarizing_prob) is float
        assert noise.depolarizing_prob == float(d)
    assert (run_rb(NoiseModel(np.float64(0.03)), [1, 5, 10], 20, 50, seed=11)
            == run_rb(NoiseModel(0.03), [1, 5, 10], 20, 50, seed=11))


def test_rb_and_tomography_refuse_a_float_seed():
    with pytest.raises(DomainError, match="seed 1.5 is not an integer"):
        run_rb(NoiseModel(0.0), [1, 2, 3], 4, 10, seed=1.5)
    with pytest.raises(DomainError, match="seed must be non-negative"):
        tomography_1q(Circuit(1, (h(0),)), 10, seed=-1)


@pytest.mark.parametrize("lengths, n_sequences, shots, message", [
    ([1, 2, 3], 4, 1.5, "shots 1.5 is not an integer"),
    ([1.5, 2, 3], 4, 10, "sequence length 1.5 is not an integer"),
    ([1, 2, 3], 2.5, 10, "n_sequences 2.5 is not an integer"),
    ([1, 3, 3], 4, 10, "strictly increasing"),
    ([3, 2, 1], 4, 10, "strictly increasing"),
    ([0, 1, 2], 4, 10, "positive"),
    ([1, 2, 3], 0, 10, "n_sequences must be at least 1"),
], ids=["float-shots", "float-length", "float-sequences", "repeated-length",
        "decreasing-lengths", "zero-length", "no-sequences"])
def test_rb_rejects_bad_lengths_and_counts(lengths, n_sequences, shots,
                                           message):
    with pytest.raises(DomainError, match=message):
        run_rb(NoiseModel(0.0), lengths, n_sequences, shots, seed=0)


def test_rb_takes_numpy_integers_as_ints():
    got = run_rb(NoiseModel(0.03), np.array([1, 5, 10]), np.int64(20),
                 np.int32(50), seed=11)
    assert got == run_rb(NoiseModel(0.03), [1, 5, 10], 20, 50, seed=11)
    assert all(type(m) is int for m in got.lengths)


def test_tomography_takes_whole_shot_counts_only():
    with pytest.raises(DomainError, match="shots_per_axis 2.5 is not an "
                                          "integer"):
        tomography_1q(Circuit(1, (h(0),)), 2.5, seed=1)


def test_rb_refuses_counts_past_int64():
    with pytest.raises(DomainError, match=r"shots must be at most 2\^63 - 1"):
        run_rb(NoiseModel(0.1), [1, 2, 3], 10, 1 << 63, seed=0)
    result = run_rb(NoiseModel(0.1), [1, 2, 3], 10, (1 << 63) - 1, seed=0)
    assert all(0.0 <= f <= 1.0 for f in result.mean_fidelity)


def test_rb_rejects_too_few_lengths_before_simulating(monkeypatch):
    def no_simulation(seed):
        raise AssertionError("sequences were simulated")
    monkeypatch.setattr(verify, "make_rng", no_simulation)
    with pytest.raises(DomainError, match="at least 3 sequence lengths"):
        run_rb(NoiseModel(0.1), [1, 5], 10, 10, seed=0)


def test_rb_result_serialization():
    result = run_rb(NoiseModel(0.0), [1, 2, 4], 5, 20, seed=12)
    assert "fit_p: 1.000000" in result.to_text()
    payload = result.to_dict()
    assert payload["lengths"] == [1, 2, 4]


def test_rb_memory_is_bounded_at_any_length():
    # 1,024 sequences of 2^17 steps: their error draws alone, as float64,
    # are 1 GiB in one piece.  The child runs under a 1 GiB address-space
    # limit, so drawing a length at once would end in MemoryError
    code = ("from cliffordt.verify import NoiseModel, run_rb\n"
            "result = run_rb(NoiseModel(0.01), (1, 2, 1 << 17), 1024, 1, 0)\n"
            "print(result.lengths)\n")
    proc = run_child(code=code, limit=1 << 30)
    assert proc.stderr == ""
    assert proc.stdout == "(1, 2, 131072)\n"


# ---------------------------------------------------------------------------
# Clifford group tables
# ---------------------------------------------------------------------------

PAULIS = (np.array([[0, 1], [1, 0]], complex),
          np.array([[0, -1j], [1j, 0]], complex),
          np.array([[1, 0], [0, -1]], complex))
TABLES = verify._clifford_tables()
CLIFFORDS = [compose_matrices([{"h": h, "s": s}[g](0) for g in word], 1)
             for word in TABLES.words]


def test_product_table_matches_matrix_products():
    for a in range(24):
        for b in range(24):
            product = CLIFFORDS[a] @ CLIFFORDS[b]
            assert phase_aligned_distance(CLIFFORDS[TABLES.mul[a, b]], product) < 1e-12


def test_inverse_table():
    assert phase_aligned_distance(CLIFFORDS[0], np.eye(2)) < 1e-12
    for a in range(24):
        inv = TABLES.inv[a]
        assert TABLES.mul[a, inv] == TABLES.mul[inv, a] == 0
        assert phase_aligned_distance(CLIFFORDS[inv], CLIFFORDS[a].conj().T) < 1e-12


def test_paulis_are_group_elements():
    for index, pauli in zip(TABLES.pauli, PAULIS):
        assert phase_aligned_distance(CLIFFORDS[index], pauli) < 1e-12


def test_survival_table_is_exact():
    for a, m in enumerate(CLIFFORDS):
        assert TABLES.p0[a] in (0.0, 0.5, 1.0)
        assert abs(TABLES.p0[a] - abs(m[0, 0]) ** 2) < 1e-12


# sha256 of the sorted-key JSON of run_rb(NoiseModel(d), RB_GOLDEN_LENGTHS,
# 50, 100, seed).to_dict(), and of the bytes of the four group tables; any
# change to the tables, the draw order or the fit shows here
RB_GOLDEN_LENGTHS = (1, 5, 10, 20, 40, 70, 100)
RB_GOLDEN = {
    (0, 1): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0, 2): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0, 3): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0, 4): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0.02, 1): "0285c143c890e5a296e783ea54346d57f3f21e0f41bfc3550507773535b8960b",
    (0.02, 2): "b96c310583f171c5a63da47d920bf4deda808032f7667e7b517af7de0a38ff62",
    (0.02, 3): "6f35eee65bb29af78939e3825083d963b3e39541ec91e7e808560950e4d27edc",
    (0.02, 4): "e904c5077948006ee495570688506ada4de757028e4b549eb2798b791d913bd5",
    (0.3, 1): "121156797e87515d7d59c21f82b2e90c3f65fbf3ef548c24db4a8746a4107ec6",
    (0.3, 2): "f2f71537db4604b76e5a568de7a3cc24a3db3bb9ba69ead7d4c064e2903a6d24",
    (0.3, 3): "6bf29f5c9d2afc5c6ac5639b37a77a8cd2b3f5aa05d6908cdee2a9309623269d",
    (0.3, 4): "2a5e9c7bca97bc5d042bf743327030a485fbedf47b7a51dfe77d2143710a1f62",
    (1, 1): "1df0ded369fe5b1507fc2c342c7b574cf261b7fd3b5929c9a57b1b77b98d09e6",
    (1, 2): "f41ee3c06d6f6ed6209fb609060755371e319d2c7d3c9da21ab54119e564ff1e",
    (1, 3): "ff3c8fa41dc4b335f6d70af17f72bde02fdaae5d90009b10f41278f3d4eb418e",
    (1, 4): "2f261ac71514ec9dabae0573c06e5a5393328b345b8dd7bd044df20eafb3c59e",
}
TABLES_GOLDEN = "0f1e010d5fc2babc3bd6a7e2ab8b193eb58cf0bfcdcb65f1f801a7036b200436"


@pytest.mark.parametrize("d, seed", sorted(RB_GOLDEN))
def test_rb_golden_digest(d, seed):
    result = run_rb(NoiseModel(d), RB_GOLDEN_LENGTHS, 50, 100, seed)
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == RB_GOLDEN[d, seed]


def test_clifford_tables_golden_digest():
    tables = (TABLES.mul, TABLES.inv, TABLES.pauli, TABLES.p0)
    assert [t.dtype for t in tables] == [np.intp, np.intp, np.intp, np.float64]
    digest = hashlib.sha256(b"".join(t.tobytes() for t in tables))
    assert digest.hexdigest() == TABLES_GOLDEN


def test_table_trajectories_match_matrix_products():
    rng = np.random.default_rng(3)
    m, n = 6, 64
    picks = rng.integers(0, 24, size=(m, n))
    hits = rng.random((m + 1, n)) < 0.3
    which = rng.integers(0, 3, size=(m + 1, n))
    errors = np.where(hits, TABLES.pauli[which], 0).astype(np.uint16)
    start = np.zeros(n, dtype=np.uint16)
    noisy, ideal = verify._rb_block(start, start, picks.astype(np.uint16),
                                    errors[:m])
    close = TABLES.inv[ideal].astype(np.uint16)[None]
    noisy, _ = verify._rb_block(noisy, ideal, close, errors[m:])
    # reference: each sequence as amplitudes and 2x2 matrix products
    for i in range(n):
        psi = np.array([1.0, 0.0], complex)
        total = np.eye(2, dtype=complex)
        for step in range(m + 1):
            c = CLIFFORDS[picks[step, i]] if step < m else total.conj().T
            psi = c @ psi
            total = c @ total
            if hits[step, i]:
                psi = PAULIS[which[step, i]] @ psi
        assert abs(TABLES.p0[noisy[i]] - abs(psi[0]) ** 2) < 1e-12


def stepwise_products(picks, errors):
    """Reference: each sequence's noisy and ideal products, one step at a
    time through ``TABLES.mul`` in Python ints."""
    mul = TABLES.mul.tolist()
    noisy, ideal = [], []
    for i in range(picks.shape[1]):
        a = b = 0
        for step, pick in enumerate(picks[:, i].tolist()):
            a, b = mul[pick][a], mul[pick][b]
            if errors is not None:
                a = mul[int(errors[step, i])][a]
        noisy.append(a)
        ideal.append(b)
    return noisy, ideal


@pytest.mark.parametrize("with_errors", [True, False], ids=["noisy", "clean"])
@pytest.mark.parametrize("m", [1, 7, 40])
def test_rb_blocks_match_a_stepwise_product(m, with_errors):
    # blocks of 16 steps, as run_rb cuts them: 40 steps take three blocks
    rng = np.random.default_rng(m)
    n, per_block = 33, 16
    picks = rng.integers(0, 24, size=(m, n)).astype(np.uint16)
    errors = None
    if with_errors:
        hit = rng.random((m, n)) < 0.3
        errors = np.where(hit, TABLES.pauli[rng.integers(0, 3, size=(m, n))],
                          0).astype(np.uint16)
    noisy = ideal = np.zeros(n, dtype=np.uint16)
    for at in range(0, m, per_block):
        part = slice(at, at + per_block)
        noisy, ideal = verify._rb_block(
            noisy, ideal, picks[part], None if errors is None else errors[part])
    assert noisy.dtype == ideal.dtype == np.uint16
    assert (noisy.tolist(), ideal.tolist()) == stepwise_products(picks, errors)


@pytest.mark.parametrize("block, sizes", [
    (7, [1, 1, 2, 2, 1, 2, 2, 1, 1]),  # two steps of 3 sequences per block
    (2, [1] * 13),  # fewer slots than sequences: one step per block
])
def test_rb_cuts_each_length_into_blocks_then_closes(monkeypatch, block,
                                                     sizes):
    # lengths 1, 4 and 5, each cut into blocks and closed by its inverse
    calls = []
    real = verify._rb_block

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(verify, "RB_BLOCK", block)
    monkeypatch.setattr(verify, "_rb_block", spy)
    run_rb(NoiseModel(0.3), [1, 4, 5], 3, 10, seed=2)
    assert [len(args[2]) for args, _ in calls] == sizes
    it = iter(calls)
    for m in (1, 4, 5):
        blocks, steps = [], 0
        while steps < m:
            blocks.append(next(it))
            steps += len(blocks[-1][0][2])
        assert steps == m
        assert not blocks[0][0][0].any() and not blocks[0][0][1].any()
        picks = np.concatenate([args[2] for args, _ in blocks])
        errors = np.concatenate([args[3] for args, _ in blocks])
        noisy, ideal = stepwise_products(picks, errors)
        assert [a.tolist() for a in blocks[-1][1]] == [noisy, ideal]
        (_, _, close, _), _ = next(it)
        assert close.tolist() == [TABLES.inv[ideal].tolist()]


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_model():
    ms = np.arange(1, 30, 3)
    fs = 0.5 * 0.98 ** ms + 0.5
    fit = fit_exponential_decay(list(zip(ms, fs)))
    assert abs(fit.A - 0.5) < 1e-6
    assert abs(fit.B - 0.5) < 1e-6
    assert abs(fit.p - 0.98) < 1e-6
    assert fit.residual < 1e-9


def test_fit_constant_data_takes_p_one_branch():
    fit = fit_exponential_decay([(1, 1.0), (5, 1.0), (9, 1.0)])
    assert fit.p == 1.0
    assert fit.A + fit.B == pytest.approx(1.0)


def test_fit_with_noise_recovers_decay():
    rng = make_rng(13)
    ms = np.linspace(1, 80, 10)
    truth = 0.5 * 0.97 ** ms + 0.5
    fs = truth + rng.normal(0, 0.01, size=ms.size)
    fit = fit_exponential_decay(list(zip(ms, fs)))
    assert abs(fit.p - 0.97) < 0.02


@pytest.mark.parametrize("point, message", [
    ((1, None), "survival None is not a real number"),
    ((1, "1"), "survival '1' is not a real number"),
    (("1", 0.9), "sequence length '1' is not a real number"),
    ((1, float("nan")), r"point \(1.0, nan\) is not finite"),
    ((float("inf"), 0.9), r"point \(inf, 0.9\) is not finite"),
    ((10 ** 400, 0.9), r"point \(nan, 0.9\) is not finite"),
])
def test_fit_refuses_a_point_that_is_not_two_finite_reals(point, message):
    with pytest.raises(DomainError, match=message):
        fit_exponential_decay([point, (2, 1.0), (3, 1.0)])


def test_fit_reads_its_points_once():
    points = [(m, 0.5 * 0.9 ** m + 0.5) for m in (1, 4, 9, 16)]
    fit = fit_exponential_decay(iter(points))
    assert fit == fit_exponential_decay(points)
    assert fit.p == pytest.approx(0.9)
    exact = fit_exponential_decay([(Fraction(1), Decimal("0.9")),
                                   (np.int64(2), np.float32(0.8)), (3, 0.7)])
    assert exact == fit_exponential_decay([(1, 0.9), (2, float(np.float32(0.8))),
                                           (3, 0.7)])


@pytest.mark.parametrize("points", [
    # p^m barely varies over these m, and its squared deviations underflow
    # to 0, so no p in [1e-9, 1] separates A from B
    [(0, 0.9), (1e-300, 0.8), (2e-300, 0.7)],
    [(1, 1e300), (2, 0.8), (3, 0.7)],  # f overflows when squared
])
def test_fit_raises_fit_error_on_a_fit_it_cannot_make(points):
    with pytest.raises(FitError):
        fit_exponential_decay(points)


@pytest.mark.parametrize("points", [
    # p^m barely varies over the first two sets of m and underflows to 0 at
    # every m of the last, so no p in [1e-9, 1] separates A from B there
    [(0, 0.9), (1e-300, 0.8), (2e-300, 0.7)],
    [(1e-200, 0.9), (2e-200, 0.8), (3e-200, 0.7)],
    [(0, 0.9), (0, 0.8), (5, 0.4)],  # two lengths: every p fits as well
    [(1, 0.9), (1, 0.8), (5, 0.4), (6, 0.3)],
    [(1e200, 0.9), (2e200, 0.8), (3e200, 0.7)],
])
def test_fit_writes_nothing_to_stderr(points, capfd):
    # capfd reads fds 1 and 2, past Python, where a native library would
    # print its own lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = fit_exponential_decay(points)
        except FitError:
            pass
        else:
            assert all(map(np.isfinite, fit))
    assert capfd.readouterr() == ("", "")


def test_fit_validation():
    with pytest.raises(FitError):
        fit_exponential_decay([(1, 0.9), (2, 0.8)])
    with pytest.raises(FitError):
        fit_exponential_decay([(3, 0.9), (3, 0.8), (3, 0.7)])


# survivals of run_rb(NoiseModel(0.1), RB_GOLDEN_LENGTHS, 50, 100, 27),
# on which damped Gauss-Newton stopped at p = 0.99997 with residual 0.2878;
# the depolarizing prediction is p = 1 - 4d/3 = 0.867
SEED_27_POINTS = [(1, 0.76), (5, 0.74), (10, 0.5), (20, 0.5), (40, 0.64),
                  (70, 0.64), (100, 0.34)]

#: Brute-force p for the decay fit: [1e-9, 1], log-spaced from 1e-9 to 0.1
#: and from 0.9 to 1 - 1e-16, even between.
FIT_GRID = np.concatenate((np.logspace(-9, -1, 4001),
                           np.linspace(0.1, 0.9, 40001),
                           1 - np.logspace(-1, -16, 6001)))


def grid_optimum(points):
    """The least residual of A*p^m + B over ``FIT_GRID``, with A and B in
    closed form at each p.  The model is fitted to p^(m - m0) - 1 (m0 the
    least m), which keeps its digits near p = 1 and does not underflow; a
    p where A = slope / p^m0 is not finite is skipped."""
    ms, fs = (np.array(v, dtype=float) for v in zip(*points))
    log_p = np.log(FIT_GRID)[:, None]
    with np.errstate(all="ignore"):
        w = np.expm1((ms - ms.min()) * log_p)
        wc = w - w.mean(axis=1, keepdims=True)
        dev = fs - fs.mean()
        slope = (wc * dev).sum(axis=1) / (wc * wc).sum(axis=1)
        kept = np.isfinite(slope / np.exp(ms.min() * log_p[:, 0]))
        sse = ((dev - slope[:, None] * wc) ** 2).sum(axis=1)
    return float(np.sqrt(sse[kept].min()))


def test_fit_reaches_the_least_squares_optimum():
    best = grid_optimum(SEED_27_POINTS)
    assert best == pytest.approx(0.27564509790836983, rel=1e-9)
    fit = fit_exponential_decay(SEED_27_POINTS)
    assert fit.residual <= best * (1 + 1e-9)
    assert fit.p == pytest.approx(0.8431148, abs=1e-6)
    assert abs(fit.p - (1 - 4 * 0.1 / 3)) / (1 - 4 * 0.1 / 3) < 0.10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.floats(0, 1)),
                min_size=3, max_size=10)
       .filter(lambda points: len({m for m, _ in points}) >= 2))
def test_fit_reaches_the_grid_optimum_on_any_points(points):
    # the floor allows for rounding where the model fits exactly
    fit = fit_exponential_decay(points)
    assert 1e-9 <= fit.p <= 1.0
    assert fit.residual <= grid_optimum(points) * (1 + 1e-9) + 1e-14


def test_rb_refuses_more_sequences_than_numpy_can_size():
    with pytest.raises(DomainError, match=r"n_sequences must be at most 2\^63 - 1"):
        run_rb(NoiseModel(0.0), [1, 2, 3], 2**64, 1, 0)


def test_rb_refuses_sequences_whose_draw_numpy_cannot_size():
    # a float64 draw of 2^62 values is 2^65 bytes, past sys.maxsize, where
    # numpy raises its own bare ValueError
    with pytest.raises(ResourceError, match="n_sequences 4611686018427387904 "
                                            "exceeds 1152921504606846975"):
        run_rb(NoiseModel(0.0), [1, 2, 3], 2**62, 1, 0)
    with pytest.raises(ResourceError):
        run_rb(NoiseModel(0.5), [1, 2, 3], sys.maxsize // 8 + 1, 1, 0)


def test_rb_refuses_more_clifford_slots_than_its_limit(monkeypatch):
    # slots are n_sequences x the sum of m + 1: 10^12 would run for hours,
    # and at 10^21 the block starts alone would not fit in memory.  No
    # draw may come first, so a missing check fails here at once
    def no_draw(seed):
        raise AssertionError("sequences were drawn")
    with monkeypatch.context() as patch:
        patch.setattr(verify, "make_rng", no_draw)
        for lengths, n, slots in (((1, 2, 10**12), 1, 10**12 + 6),
                                  ((1, 2, 10**21), 1, 10**21 + 6),
                                  ((1, 2, 3), 2**30, 9 * 2**30)):
            with pytest.raises(ResourceError, match=f"^{slots} Clifford slots "
                               "exceed the RB limit of 4294967296$"):
                run_rb(NoiseModel(0.1), lengths, n, 1, 0)
    monkeypatch.setattr(verify, "MAX_RB_CLIFFORDS", 18)
    assert run_rb(NoiseModel(0.1), (1, 2, 3), 2, 1, 0).lengths == (1, 2, 3)
    with pytest.raises(ResourceError, match="^27 Clifford slots exceed the RB "
                                            "limit of 18$"):
        run_rb(NoiseModel(0.1), (1, 2, 3), 3, 1, 0)
