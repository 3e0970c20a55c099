"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np

from cliffordt.arith import (ArithInstance, build_adder, build_ctrl_add,
                             build_multiplier, build_subtractor, build_taylor)
from cliffordt.circuit import (Circuit, lower_to_clifford_t, parse,
                               permutation_output, resources, serialize,
                               simulate)
from cliffordt.gates import (ccx, cnot, compose_matrices, cswap,
                             decompose_fredkin, decompose_toffoli,
                             expand_matrix, h, x)
from cliffordt.state import sample
from cliffordt.uncompute import BennettSpec, bennett_wrap
from cliffordt.verify import (NoiseModel, exhaustive_check, oracle_adder,
                              oracle_ctrl_add, oracle_multiplier,
                              oracle_subtractor, oracle_taylor, run_rb,
                              tomography_1q)
from helpers import phase_aligned_distance


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} {name}: {status} "
              f"({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded time limit"


def test_criterion_01_toffoli_lowering():
    with criterion(1, "toffoli-lowering", 1.0):
        seq = decompose_toffoli(2, 1, 0)
        t_count = sum(1 for g in seq if g.kind in ("t", "tdg"))
        assert t_count == 7
        dist = phase_aligned_distance(compose_matrices(seq, 3),
                                      expand_matrix(ccx(2, 1, 0), 3))
        assert dist < 1e-10


def test_criterion_02_fredkin_lowering():
    with criterion(2, "fredkin-lowering", 1.0):
        seq = decompose_fredkin(2, 1, 0)
        t_count = sum(1 for g in seq if g.kind in ("t", "tdg"))
        assert t_count == 7
        dist = phase_aligned_distance(compose_matrices(seq, 3),
                                      expand_matrix(cswap(2, 1, 0), 3))
        assert dist < 1e-10


def test_criterion_03_adder_exhaustive():
    with criterion(3, "adder-exhaustive", 10.0):
        report = exhaustive_check(build_adder(4), oracle_adder(4))
        assert report.total_inputs == 256
        assert report.passed, report.mismatches[:4]


def test_criterion_04_subtractor_exhaustive():
    with criterion(4, "subtractor-exhaustive", 10.0):
        report = exhaustive_check(build_subtractor(4), oracle_subtractor(4))
        assert report.total_inputs == 256
        assert report.passed, report.mismatches[:4]


def test_criterion_05_ctrl_add_exhaustive():
    with criterion(5, "ctrl-add-exhaustive", 20.0):
        report = exhaustive_check(build_ctrl_add(4), oracle_ctrl_add(4))
        assert report.total_inputs == 512
        assert report.passed, report.mismatches[:4]


def test_criterion_06_multiplier_exhaustive():
    with criterion(6, "multiplier-exhaustive", 60.0):
        inst = build_multiplier(3)
        assert inst.circuit.n_qubits == 13
        report = exhaustive_check(inst, oracle_multiplier(3))
        assert report.total_inputs == 64
        assert report.passed, report.mismatches[:4]


def test_criterion_07_taylor_circuit():
    with criterion(7, "taylor-evaluator", 60.0):
        inst = build_taylor(4, 5, 3, 1, 2)
        report = exhaustive_check(inst, oracle_taylor(4))
        assert report.total_inputs == 16
        assert report.passed, report.mismatches[:4]
        # scratch restoration, spelled out on top of the oracle comparison
        for xv in range(16):
            out = inst.decode(
                permutation_output(inst.circuit, inst.encode({"x": xv})))
            assert out["xc"] == out["y1"] == out["y2"] == 0
            assert out["y4"] == (5 + 3 * (xv - 2) + (xv - 2) ** 2) % 16


def test_criterion_08_bennett_wrap():
    with criterion(8, "bennett-wrap", 30.0):
        inner = build_adder(3).circuit
        wires = tuple(inner.layout.register("b").qubits())
        wrapped = bennett_wrap(BennettSpec(inner, wires))
        assert len(wrapped.ops) == 2 * len(inner.ops) + len(wires)
        mask = (1 << inner.n_qubits) - 1
        for j in range(1 << inner.n_qubits):
            out = permutation_output(wrapped, j)
            assert out & mask == j
            a = (j >> 3) & 0b111
            b = j & 0b111
            assert (out >> inner.n_qubits) & 0b111 == (a + b) % 8


def test_criterion_09_bell_statistics():
    with criterion(9, "bell-statistics", 1.0):
        bell = simulate(Circuit(2, (h(0), cnot(0, 1))), 0)
        counts = sample(bell, 10000, seed=123).counts
        assert set(counts) <= {0, 3}
        assert counts[0] + counts[3] == 10000
        assert abs(counts[0] - 5000) <= 150
        assert abs(counts[3] - 5000) <= 150


def test_criterion_10_rb_decay():
    with criterion(10, "rb-decay", 120.0):
        d = 0.02
        result = run_rb(NoiseModel(d), [1, 5, 10, 20, 40, 70, 100],
                        n_sequences=200, shots=100, seed=7)
        # analytic shrink per step of the uniform-Pauli depolarizing branch
        paulis = [np.array([[0, 1], [1, 0]], complex),
                  np.array([[0, -1j], [1j, 0]], complex),
                  np.array([[1, 0], [0, -1]], complex)]
        rho = (np.eye(2) + paulis[2]) / 2
        out = (1 - d) * rho + (d / 3) * sum(p @ rho @ p for p in paulis)
        analytic = float(np.real(np.trace(paulis[2] @ out)))
        assert abs(result.fit_p - analytic) / analytic < 0.10
        noiseless = run_rb(NoiseModel(0.0), [1, 5, 10], n_sequences=30,
                           shots=100, seed=7)
        assert noiseless.fit_p == 1.0


def test_criterion_11_tomography():
    with criterion(11, "tomography", 5.0):
        expectations = [
            (Circuit(1), (0.0, 0.0, 1.0), 31),
            (Circuit(1, (x(0),)), (0.0, 0.0, -1.0), 32),
            (Circuit(1, (h(0),)), (1.0, 0.0, 0.0), 33),
        ]
        for prep, exact, seed in expectations:
            est = tomography_1q(prep, 10000, seed=seed)
            for got, want in zip(est, exact):
                assert abs(got - want) < 0.05


def test_criterion_12_mutation_sensitivity():
    with criterion(12, "mutation-sensitivity", 120.0):
        inst = build_adder(3)
        oracle = oracle_adder(3)
        ops = inst.circuit.ops
        assert len(ops) == 15
        for drop in range(len(ops)):
            mutant_circ = Circuit(inst.circuit.n_qubits,
                                  ops[:drop] + ops[drop + 1:],
                                  inst.circuit.layout)
            mutant = ArithInstance(3, mutant_circ, inst.input_names)
            report = exhaustive_check(mutant, oracle)
            assert not report.passed, f"deleting gate {drop} went undetected"


def test_criterion_13_format_round_trip():
    with criterion(13, "format-round-trip", 5.0):
        instances = [build_adder(n) for n in (1, 2, 3, 4)]
        instances += [build_subtractor(n) for n in (1, 2, 3, 4)]
        instances += [build_ctrl_add(n) for n in (1, 2, 3, 4)]
        instances += [build_multiplier(n) for n in (1, 2, 3)]
        instances += [build_taylor(2, 1, 2, 3, 0), build_taylor(4, 5, 3, 1, 2)]
        circuits = [i.circuit for i in instances]
        circuits += [Circuit(2, (h(0), cnot(0, 1))),
                     lower_to_clifford_t(build_adder(2).circuit)]
        for c in circuits:
            again = parse(serialize(c))
            assert again == c
            assert resources(again) == resources(c)
