"""Verification suite: oracle equivalence, tomography, RB, decay fitting."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordt import verify
from cliffordt.arith import (ArithInstance, build_adder, build_ctrl_add,
                             build_multiplier, build_subtractor, build_taylor)
from cliffordt.circuit import (Circuit, Register, RegisterLayout,
                               lower_to_clifford_t, simulate)
from cliffordt.errors import DomainError, FitError, ResourceError
from cliffordt.gates import (compose_matrices, h, matrix,
                             phase_aligned_distance, s, t, x)
from cliffordt.state import make_rng
from cliffordt.verify import (ORACLES, EquivalenceReport, NoiseModel,
                              RBResult, bloch_vector, exhaustive_check,
                              fit_exponential_decay, oracle_adder,
                              oracle_multiplier, oracle_subtractor,
                              oracle_taylor, run_rb, tomography_1q,
                              unitarity_check)


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
# unitarity
# ---------------------------------------------------------------------------

def test_unitarity_of_gate_matrices():
    assert unitarity_check(matrix(h(0))) < 1e-15
    assert unitarity_check(matrix(t(0))) < 1e-15


def test_unitarity_detects_perturbation():
    m = matrix(h(0))
    m[0, 0] += 1e-3
    assert unitarity_check(m) >= 1e-4


def test_unitarity_requires_square():
    with pytest.raises(DomainError):
        unitarity_check(np.zeros((2, 3)))


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
    limit = 1 << 30
    code = ("import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from cliffordt.arith import ArithInstance\n"
            "from cliffordt.circuit import Circuit\n"
            "from cliffordt.errors import ResourceError\n"
            "from cliffordt.verify import exhaustive_check\n"
            "try:\n"
            "    exhaustive_check(ArithInstance(1, Circuit(10**11), ('q',)), dict)\n"
            "except ResourceError as exc:\n"
            "    print(exc)\n")
    src = str(Path(verify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
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


def dense_reference(inst, oracle):
    """The statevector check, input by input: the reference the bit-sliced
    evaluator must reproduce, mismatch order included."""
    mismatches = []
    for values in inst.input_space():
        index_in = inst.encode(values)
        index_exp = inst.encode(oracle({**values, **inst.constants}))
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
# ("lowered", sparse) or every gate-deletion mutant of it ("mutants").
# Recorded with the per-input encoder that the column packer replaced, so
# reports, mismatch order included, are pinned across that rewrite.
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
    ("adder", 1, "lowered"): "b64eb9c1b892509c0c094a1f6606f1b38ee5512709de9795f522a856a68145a5",
    ("adder", 2, "lowered"): "d7bdd0f87ec8d945001d50cca5082763c5cb57cc259adf6a8e364054e004e9e0",
    ("sub", 1, "lowered"): "80961093e77c1cb8c4e315d24cbd8b83daba0072045944d0083ee6e4a5b844b0",
    ("sub", 2, "lowered"): "d7bdd0f87ec8d945001d50cca5082763c5cb57cc259adf6a8e364054e004e9e0",
    ("ctrladd", 1, "lowered"): "8a2abcea9fb4261e4022dc22a5ebf5c0184a8ea6ae031bf505f00348ee73d659",
    ("mul", 1, "lowered"): "b64eb9c1b892509c0c094a1f6606f1b38ee5512709de9795f522a856a68145a5",
    ("mul", 2, "lowered"): "d7bdd0f87ec8d945001d50cca5082763c5cb57cc259adf6a8e364054e004e9e0",
    ("taylor", 1, "lowered"): "708ab208ab74f76d4ea3ce022ddea2f4718c1d56871bd83b86de893bbbd52547",
    ("taylor", 2, "lowered"): "b64eb9c1b892509c0c094a1f6606f1b38ee5512709de9795f522a856a68145a5",
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

    def untouchable(values):
        pytest.fail("the oracle was called")
    wide = ArithInstance(2, Circuit(67, flip_w, layout(65)), ("a",))
    with pytest.raises(ResourceError, match=r"register w \(65 bits\)"):
        exhaustive_check(wide, untouchable)


@pytest.mark.parametrize("change, message", [
    (lambda v: {"a": -1}, "value -1 does not fit register a"),
    (lambda v: {"b": v["b"].astype(np.int64) - 8}, "value -8 does not fit register b"),
    (lambda v: {"b": v["b"] + 8}, "value 8 does not fit register b"),
    (lambda v: {"b": v["b"] / 2}, "register b needs an integer"),
    (lambda v: {"b": v["b"][:1]}, "register b needs an integer"),
])
def test_exhaustive_check_rejects_oracle_values_outside_their_register(
        change, message):
    def oracle(values):
        return {**oracle_adder(3)(values), **change(values)}
    with pytest.raises(DomainError, match=message):
        exhaustive_check(build_adder(3), oracle)


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
    packed = verify._pack([(r.name, r.size, 0) for r in registers], values, rows)
    assert packed == columns


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
    inst = build_adder(2)
    lowered = ArithInstance(2, lower_to_clifford_t(inst.circuit), inst.input_names)
    report = exhaustive_check(lowered, oracle_adder(2))
    assert report.method == "sparse"
    assert report.passed and report.total_inputs == 16


@pytest.mark.parametrize("n", [3, 4])
def test_sparse_check_proves_lowered_taylor_past_statevector_ceiling(n):
    # 27 and 36 qubits: no statevector could hold them
    inst = build_taylor(n, 5, 3, 1, 2)
    lowered = ArithInstance(n, lower_to_clifford_t(inst.circuit),
                            inst.input_names, inst.constants)
    assert lowered.circuit.n_qubits == 9 * n
    report = exhaustive_check(lowered, oracle_taylor(n))
    assert report.method == "sparse"
    assert report.passed and report.total_inputs == 1 << n


def matrix_reference(inst, oracle):
    """The sparse check, rebuilt from the circuit's full unitary: a row
    passes when its column is the expected basis state with amplitude 1,
    and observed is the lowest index of largest magnitude."""
    u = compose_matrices(inst.circuit.ops, inst.circuit.n_qubits)
    mismatches = []
    for values in inst.input_space():
        index_in = inst.encode(values)
        index_exp = inst.encode(oracle({**values, **inst.constants}))
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
    for prep in (Circuit(1, (h(0),)),
                 Circuit(1, (h(0), s(0))),
                 Circuit(1, (h(0), t(0)))):
        exact = np.array(bloch_vector(simulate(prep, 0)))
        est = np.array(tomography_1q(prep, 100000, seed=8))
        assert np.max(np.abs(est - exact)) < 0.02


def test_tomography_estimate_stays_near_unit_ball():
    est = np.array(tomography_1q(Circuit(1, (h(0),)), 10000, seed=5))
    sigma = 1 / np.sqrt(10000)
    assert np.linalg.norm(est) <= 1 + 3 * sigma


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


# ---------------------------------------------------------------------------
# Clifford group tables
# ---------------------------------------------------------------------------

PAULIS = (np.array([[0, 1], [1, 0]], complex),
          np.array([[0, -1j], [1j, 0]], complex),
          np.array([[1, 0], [0, -1]], complex))
CLIFFORDS = [compose_matrices([{"h": h, "s": s}[g](0) for g in word], 1)
             for word in verify._CLIFFORDS]


def test_product_table_matches_matrix_products():
    for a in range(24):
        for b in range(24):
            product = CLIFFORDS[a] @ CLIFFORDS[b]
            assert phase_aligned_distance(CLIFFORDS[verify._MUL[a, b]], product) < 1e-12


def test_inverse_table():
    assert phase_aligned_distance(CLIFFORDS[0], np.eye(2)) < 1e-12
    for a in range(24):
        inv = verify._INV[a]
        assert verify._MUL[a, inv] == verify._MUL[inv, a] == 0
        assert phase_aligned_distance(CLIFFORDS[inv], CLIFFORDS[a].conj().T) < 1e-12


def test_paulis_are_group_elements():
    for index, pauli in zip(verify._PAULI, PAULIS):
        assert phase_aligned_distance(CLIFFORDS[index], pauli) < 1e-12


def test_survival_table_is_exact():
    for a, m in enumerate(CLIFFORDS):
        assert verify._P0[a] in (0.0, 0.5, 1.0)
        assert abs(verify._P0[a] - abs(m[0, 0]) ** 2) < 1e-12


# sha256 of the sorted-key JSON of run_rb(NoiseModel(d), RB_GOLDEN_LENGTHS,
# 50, 100, seed).to_dict(), and of the bytes of the four group tables; any
# change to the tables, the draw order or the fit shows here
RB_GOLDEN_LENGTHS = (1, 5, 10, 20, 40, 70, 100)
RB_GOLDEN = {
    (0, 1): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0, 2): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0, 3): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0, 4): "fff3ed2c91cc94cbee88e261548afcfd5364010d1f9baf62116c6c90b4ff042f",
    (0.02, 1): "b53fd4369f48089075795d402695655ddf0e98217ab85a4521453dc71e500b73",
    (0.02, 2): "2454ca31e9678d84916b9a702d3c0e13ffa62df82486a209e29dd24379a365ea",
    (0.02, 3): "e704a2c84798d8cb2bb27e9530f824076e53c03a70deddbe020bb9631b9ef81a",
    (0.02, 4): "9e84dfd5bcb02ddf3b255b48f74be27afdd55f00998c17526a7caa34ffb46964",
    (0.3, 1): "3861213cb8e60ea53ebeaa6ab04c442e7e17d37b9d36dfbdf3372b326abcc6bb",
    (0.3, 2): "d541611ddac0922360063517306de7a6e4e8bfa2758ad8a9901c1c1df3448d83",
    (0.3, 3): "b6e9b0d6789fc85aa99c272b6a4964c3b05c03fb20e0ea51c23bb3499e114fde",
    (0.3, 4): "04a1b998914cc4d272657d5f96fae17be90177808e86e596f52f678e5f76131d",
    (1, 1): "8d78a163ca8f0be6de78d93705cdc9c3ad04db6c477a5428635bdb349f9f8f12",
    (1, 2): "03f60b91e84293514c0ff94e5202f6159817ea4fbaebe622330027947c4dfce1",
    (1, 3): "db871aa31855e00684d5d490917ddaa13d8ceb48a26fdb1284dbd9ed89750ae8",
    (1, 4): "f00c363d22b399d1950200d29830b5e43128f730512add45ce9b8d11b123a376",
}
TABLES_GOLDEN = "0f1e010d5fc2babc3bd6a7e2ab8b193eb58cf0bfcdcb65f1f801a7036b200436"


@pytest.mark.parametrize("d, seed", sorted(RB_GOLDEN))
def test_rb_golden_digest(d, seed):
    result = run_rb(NoiseModel(d), RB_GOLDEN_LENGTHS, 50, 100, seed)
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == RB_GOLDEN[d, seed]


def test_clifford_tables_golden_digest():
    tables = (verify._MUL, verify._INV, verify._PAULI, verify._P0)
    assert [t.dtype for t in tables] == [np.intp, np.intp, np.intp, np.float64]
    digest = hashlib.sha256(b"".join(t.tobytes() for t in tables))
    assert digest.hexdigest() == TABLES_GOLDEN


def test_table_trajectories_match_matrix_products():
    rng = np.random.default_rng(3)
    m, n = 6, 64
    picks = rng.integers(0, 24, size=(m, n))
    hits = rng.random((m + 1, n)) < 0.3
    which = rng.integers(0, 3, size=(m + 1, n))
    errors = np.where(hits, verify._PAULI[which], 0)
    noisy = ideal = np.zeros(n, dtype=np.intp)
    for step in range(m):
        noisy, ideal = verify._rb_step(noisy, ideal, picks[step], errors[step])
    noisy, _ = verify._rb_step(noisy, ideal, verify._INV[ideal], errors[m])
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
        assert abs(verify._P0[noisy[i]] - abs(psi[0]) ** 2) < 1e-12


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


def test_fit_validation():
    with pytest.raises(FitError):
        fit_exponential_decay([(1, 0.9), (2, 0.8)])
    with pytest.raises(FitError):
        fit_exponential_decay([(3, 0.9), (3, 0.8), (3, 0.7)])
