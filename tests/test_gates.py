"""Gate matrices, inverses, and Clifford+T decompositions."""

import hashlib
import itertools

import numpy as np
import pytest

from cliffordt import gates
from cliffordt.circuit import (Circuit, lower_to_clifford_t, parse,
                               permutation_output, serialize)
from cliffordt.errors import DomainError
from cliffordt.gates import (GATE_ARITY, Gate, ccx, cnot, compose_matrices,
                             cswap, decompose_fredkin, decompose_swap,
                             decompose_toffoli, expand_matrix, h, inverse,
                             matrix, s, sdg, swap, t, tdg, x)
from helpers import phase_aligned_distance

SQ2 = 1 / np.sqrt(2)

ALL_GATES = [h(0), t(0), tdg(0), s(0), sdg(0), x(0),
             cnot(0, 1), swap(0, 1), ccx(0, 1, 2), cswap(0, 1, 2)]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_golden_matrix_digest():
    # sha256 of every gate matrix (kind, dtype, shape and bytes): these are
    # the dense reference the evaluators are tested against, so any change
    # to an entry or dtype must be deliberate
    digest = hashlib.sha256()
    matrices = gates._matrices()
    for kind in sorted(matrices):
        m = matrices[kind]
        for part in (kind, str(m.dtype), str(m.shape)):
            digest.update(part.encode())
        digest.update(m.tobytes())
    assert len(matrices) == len(GATE_ARITY)
    assert digest.hexdigest() == (
        "569fd81ea041470b92f11e0c9ce1c9e0bfd84cffb7e7cb8b67a16606aae79f3d")


def test_kernel_scalars_are_the_matrix_entries():
    # the dense kernel multiplies by PHASES and H_SCALE; repr tells signed
    # zeros apart (-1j has real part -0.0, the conjugate of 1j +0.0)
    assert sorted(gates.PHASES) == ["s", "sdg", "t", "tdg"]
    for kind, phase in gates.PHASES.items():
        assert type(phase) is complex
        assert repr(phase) == repr(complex(matrix(Gate(kind, (0,)))[1, 1]))
    assert type(gates.H_SCALE) is float
    assert repr(complex(gates.H_SCALE)) == repr(complex(matrix(h(0))[0, 0]))
    assert repr(gates.T_PHASE) == repr(gates.PHASES["t"])


def test_single_qubit_matrices():
    assert np.allclose(matrix(h(0)), np.array([[SQ2, SQ2], [SQ2, -SQ2]]))
    assert np.allclose(matrix(t(0)), np.diag([1, np.exp(1j * np.pi / 4)]))
    assert np.allclose(matrix(tdg(0)), np.diag([1, np.exp(-1j * np.pi / 4)]))
    assert np.allclose(matrix(s(0)), np.diag([1, 1j]))
    assert np.allclose(matrix(sdg(0)), np.diag([1, -1j]))
    assert np.allclose(matrix(x(0)), np.array([[0, 1], [1, 0]]))


def test_cnot_matrix_control_high():
    expected = np.eye(4)[:, [0, 1, 3, 2]]
    assert np.array_equal(matrix(cnot(0, 1)), expected)


def test_swap_matrix():
    expected = np.eye(4)[:, [0, 2, 1, 3]]
    assert np.array_equal(matrix(swap(0, 1)), expected)


def test_toffoli_matrix_swaps_110_111():
    m = matrix(ccx(0, 1, 2))
    expected = np.eye(8)
    expected[:, [6, 7]] = expected[:, [7, 6]]
    assert np.array_equal(m, expected)


def test_fredkin_matrix_swaps_101_110():
    m = matrix(cswap(0, 1, 2))
    expected = np.eye(8)
    expected[:, [5, 6]] = expected[:, [6, 5]]
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: g.kind)
def test_unitarity(gate):
    m = matrix(gate)
    assert np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) < 1e-12


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def test_inverse_pairs():
    assert inverse(t(3)) == tdg(3)
    assert inverse(tdg(3)) == t(3)
    assert inverse(s(1)) == sdg(1)
    assert inverse(sdg(1)) == s(1)
    assert inverse(cnot(0, 1)) == cnot(0, 1)
    assert inverse(ccx(0, 1, 2)) == ccx(0, 1, 2)
    assert inverse(cswap(2, 0, 1)) == cswap(2, 0, 1)


@pytest.mark.parametrize("gate", [h(2), x(0), cnot(1, 0), swap(0, 3),
                                  ccx(2, 0, 1), cswap(1, 2, 0)],
                         ids=lambda g: g.kind)
def test_inverse_returns_a_self_inverse_gate_itself(gate):
    assert inverse(gate) is gate


@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: g.kind)
def test_inverse_is_involution(gate):
    assert inverse(inverse(gate)) == gate


@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: g.kind)
def test_inverse_matrix_is_exact_dagger(gate):
    # entrywise identical, not just numerically close
    assert np.array_equal(matrix(inverse(gate)), matrix(gate).conj().T)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def _t_type_count(gates):
    return sum(1 for g in gates if g.kind in ("t", "tdg"))


def test_toffoli_decomposition_matrix_and_t_count():
    seq = decompose_toffoli(2, 1, 0)
    assert all(g.kind in ("h", "t", "tdg", "cnot") for g in seq)
    assert _t_type_count(seq) == 7
    u = compose_matrices(seq, 3)
    ref = expand_matrix(ccx(2, 1, 0), 3)
    assert phase_aligned_distance(u, ref) < 1e-10


def test_toffoli_decomposition_basis_action():
    seq = decompose_toffoli(2, 1, 0)
    u = compose_matrices(seq, 3)
    # |110> (controls set) flips the target, |010> is untouched
    assert abs(abs(u[7, 6]) - 1) < 1e-10
    assert abs(abs(u[2, 2]) - 1) < 1e-10


def test_fredkin_decomposition_matrix_and_t_count():
    seq = decompose_fredkin(2, 1, 0)
    assert all(g.kind in ("h", "t", "tdg", "cnot") for g in seq)
    assert _t_type_count(seq) == 7
    u = compose_matrices(seq, 3)
    ref = expand_matrix(cswap(2, 1, 0), 3)
    assert phase_aligned_distance(u, ref) < 1e-10


def test_fredkin_decomposition_basis_action():
    u = compose_matrices(decompose_fredkin(2, 1, 0), 3)
    # control high: |110> -> |101>; control low: |011> fixed
    assert abs(abs(u[5, 6]) - 1) < 1e-10
    assert abs(abs(u[3, 3]) - 1) < 1e-10


def test_swap_decomposition_exact():
    seq = decompose_swap(0, 1)
    assert seq == [cnot(0, 1), cnot(1, 0), cnot(0, 1)]
    u = compose_matrices(seq, 2)
    assert np.max(np.abs(u - matrix(swap(0, 1)))) < 1e-14


@pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 0, 1), (4, 2, 3)])
def test_decompositions_on_arbitrary_wires(qubits):
    n = max(qubits) + 1
    for decomp, primitive in ((decompose_toffoli, ccx),
                              (decompose_fredkin, cswap)):
        u = compose_matrices(decomp(*qubits), n)
        ref = expand_matrix(primitive(*qubits), n)
        assert phase_aligned_distance(u, ref) < 1e-10


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_gate_rejects_duplicate_qubits():
    with pytest.raises(DomainError):
        cnot(0, 0)
    with pytest.raises(DomainError):
        ccx(1, 1, 2)
    with pytest.raises(DomainError):
        decompose_swap(3, 3)
    # every operand pair of a template meets in a cnot
    for qubits in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        with pytest.raises(DomainError):
            decompose_toffoli(*qubits)
        with pytest.raises(DomainError):
            decompose_fredkin(*qubits)


def test_gate_rejects_bad_kind_and_arity():
    with pytest.raises(DomainError):
        Gate("rx", (0,))
    with pytest.raises(DomainError):
        Gate("cnot", (0, 1, 2))
    with pytest.raises(DomainError):
        Gate("h", (-1,))


def test_arity_table_matches_constructors():
    for g in ALL_GATES:
        assert GATE_ARITY[g.kind] == len(g.qubits)


def _numpy_operand():
    # a numpy integer operand used to overflow the evaluator's shift
    c = Circuit(71, (Gate("x", (np.int64(70),)),))
    assert permutation_output(c, 0) == 1 << 70


def _bool_operands():
    # bools are integers: they become 0 and 1, so the text round-trips
    c = Circuit(2, (Gate("cnot", (False, True)),))
    assert c.ops[0].qubits == (0, 1)
    assert serialize(c).splitlines()[-1] == "cnot 0 1"
    assert parse(serialize(c)) == c


def _float_operand():
    with pytest.raises(DomainError, match="must be integers"):
        Gate("x", (1.0,))


def _list_operands():
    g = Gate("ccx", [0, 1, 2])
    assert g.qubits == (0, 1, 2) and g == ccx(0, 1, 2)
    lowered = lower_to_clifford_t(Circuit(3, (g,)))
    assert list(lowered.ops) == decompose_toffoli(0, 1, 2)


@pytest.mark.parametrize("case", [_numpy_operand, _bool_operands,
                                  _float_operand, _list_operands],
                         ids=["numpy-int", "bool", "float", "list"])
def test_gate_stores_operands_as_a_tuple_of_ints(case):
    case()


@pytest.mark.parametrize("n", [1.5, "1", None, 0])
def test_dense_matrices_refuse_a_bad_qubit_count(n):
    with pytest.raises(DomainError, match="qubit count"):
        expand_matrix(h(0), n)
    with pytest.raises(DomainError, match="qubit count"):
        compose_matrices([h(0)], n)


def loop_expand_matrix(gate, n):
    """``expand_matrix`` entry by entry: each nonzero entry of the gate's
    matrix, placed for every setting of the other qubits."""
    small, k = matrix(gate), len(gate.qubits)
    rest = [q for q in range(n) if q not in gate.qubits]
    u = np.zeros((1 << n, 1 << n), dtype=complex)
    for local_in in range(1 << k):
        for local_out in range(1 << k):
            if small[local_out, local_in] == 0:
                continue
            for other in range(1 << len(rest)):
                src = dst = sum((other >> i & 1) << q for i, q in enumerate(rest))
                for i, q in enumerate(gate.qubits):
                    src |= (local_in >> (k - 1 - i) & 1) << q
                    dst |= (local_out >> (k - 1 - i) & 1) << q
                u[dst, src] = small[local_out, local_in]
    return u


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expand_matrix_matches_the_entry_by_entry_reference(n):
    for kind, arity in GATE_ARITY.items():
        for qubits in itertools.permutations(range(n), arity):
            gate = Gate(kind, qubits)
            got, want = expand_matrix(gate, n), loop_expand_matrix(gate, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), gate
