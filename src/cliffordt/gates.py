"""Gate set definitions: matrices, inverses, and Clifford+T decompositions.

The primitive vocabulary is the Clifford+T set {H, T, T†, S, S†, X, CNOT}
plus three composite reversible gates (SWAP, Toffoli, Fredkin) that lower
onto it.  Matrices follow the convention that the first listed qubit of a
gate is the most significant bit of the local basis index, so e.g. the
CNOT matrix permutes |10> and |11> (control high).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Mnemonic -> number of qubit operands.  Mnemonics double as the tokens of
# the circuit text format.
GATE_ARITY = {
    "h": 1,
    "t": 1,
    "tdg": 1,
    "s": 1,
    "sdg": 1,
    "x": 1,
    "cnot": 2,
    "swap": 2,
    "ccx": 3,
    "cswap": 3,
}

# Gates already in the fault-tolerant target set (left untouched by lowering).
CLIFFORD_T_KINDS = frozenset({"h", "t", "tdg", "s", "sdg", "x", "cnot"})

# Gates whose matrices are 0/1 permutations of the computational basis.
PERMUTATION_KINDS = frozenset({"x", "cnot", "swap", "ccx", "cswap"})

_INVERSE_KIND = {"t": "tdg", "tdg": "t", "s": "sdg", "sdg": "s"}


@dataclass(frozen=True)
class Gate:
    """A named gate applied to an ordered tuple of qubit indices."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise DomainError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} qubit indices, "
                f"got {len(self.qubits)}"
            )
        if min(self.qubits) < 0:
            raise DomainError(f"negative qubit index in {self.kind}")
        if len(set(self.qubits)) != len(self.qubits):
            raise DomainError(f"duplicate qubit in {self.kind} {self.qubits}")


def h(q: int) -> Gate:
    return Gate("h", (q,))


def t(q: int) -> Gate:
    return Gate("t", (q,))


def tdg(q: int) -> Gate:
    return Gate("tdg", (q,))


def s(q: int) -> Gate:
    return Gate("s", (q,))


def sdg(q: int) -> Gate:
    return Gate("sdg", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b))


def ccx(c1: int, c2: int, target: int) -> Gate:
    return Gate("ccx", (c1, c2, target))


def cswap(control: int, t1: int, t2: int) -> Gate:
    return Gate("cswap", (control, t1, t2))


_T_PHASE = np.exp(1j * np.pi / 4)

_MATRICES = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "t": np.array([[1, 0], [0, _T_PHASE]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    # basis permutations: row i is the basis state that lands on |i>
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "ccx": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
    "cswap": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]],
}
# Daggered phases are built by conjugation, not re-evaluation, so that
# matrix(inverse(g)) is the entrywise-exact conjugate transpose.
_MATRICES["tdg"] = _MATRICES["t"].conj()
_MATRICES["sdg"] = _MATRICES["s"].conj()


def matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of ``gate`` (first listed qubit = most significant bit)."""
    return _MATRICES[gate.kind].copy()


def inverse(gate: Gate) -> Gate:
    """Inverse gate: T and S swap with their daggers, the rest are involutions."""
    return Gate(_INVERSE_KIND.get(gate.kind, gate.kind), gate.qubits)


def decompose_toffoli(c1: int, c2: int, target: int) -> list[Gate]:
    """Clifford+T realization of the Toffoli gate (T-count 7, 16 gates).

    Layout: an initial and final Hadamard on the target wrap a T/CNOT core
    arranged in three T layers.
    """
    a, b, c = c1, c2, target
    if len({a, b, c}) != 3:
        raise DomainError("toffoli qubits must be distinct")
    return [
        h(c),
        t(a), t(b), t(c),
        cnot(b, a), cnot(c, b), cnot(a, c),
        tdg(b),
        cnot(a, b),
        tdg(a), tdg(b), t(c),
        cnot(c, b), cnot(a, c), cnot(b, a),
        h(c),
    ]


def decompose_fredkin(control: int, t1: int, t2: int) -> list[Gate]:
    """Clifford+T realization of the Fredkin gate (T-count 7).

    A Toffoli core targeting ``t2`` is conjugated by CNOT(t2, t1), turning
    the conditional bit flip into a conditional exchange.
    """
    if len({control, t1, t2}) != 3:
        raise DomainError("fredkin qubits must be distinct")
    return [cnot(t2, t1)] + decompose_toffoli(control, t1, t2) + [cnot(t2, t1)]


def decompose_swap(a: int, b: int) -> list[Gate]:
    """SWAP as the standard three-CNOT identity."""
    if a == b:
        raise DomainError("swap qubits must be distinct")
    return [cnot(a, b), cnot(b, a), cnot(a, b)]


def compose_matrices(gates, n_qubits: int) -> np.ndarray:
    """Multiply out a gate sequence into one 2^n x 2^n unitary.

    Intended for small n (decomposition checks); simulation of states goes
    through the state module instead.
    """
    dim = 1 << n_qubits
    u = np.eye(dim, dtype=complex)
    for g in gates:
        u = expand_matrix(g, n_qubits) @ u
    return u


def expand_matrix(gate: Gate, n_qubits: int) -> np.ndarray:
    """Tensor-extend a gate matrix with identity onto an n-qubit space.

    Qubit k is bit k of the global basis index.
    """
    if any(q >= n_qubits for q in gate.qubits):
        raise DomainError(f"gate {gate} does not fit in {n_qubits} qubits")
    dim = 1 << n_qubits
    k = len(gate.qubits)
    small = _MATRICES[gate.kind]
    u = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n_qubits) if q not in gate.qubits]
    for local_in in range(1 << k):
        for local_out in range(1 << k):
            amp = small[local_out, local_in]
            if amp == 0:
                continue
            for other in range(1 << len(rest)):
                base = 0
                for i, q in enumerate(rest):
                    base |= ((other >> i) & 1) << q
                src = base
                dst = base
                for i, q in enumerate(gate.qubits):
                    # first listed qubit is the most significant local bit
                    src |= ((local_in >> (k - 1 - i)) & 1) << q
                    dst |= ((local_out >> (k - 1 - i)) & 1) << q
                u[dst, src] = amp
    return u


def phase_aligned_distance(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max entrywise deviation after removing one global phase.

    The phase is extracted from the largest-magnitude entry of the
    reference, which keeps the alignment robust against near-zero entries.
    """
    if actual.shape != reference.shape:
        raise DomainError("matrix shapes differ")
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    ref_entry = reference[idx]
    act_entry = actual[idx]
    if abs(act_entry) < 1e-14:
        return float(np.max(np.abs(actual - reference)))
    phase = act_entry / abs(act_entry) * abs(ref_entry) / ref_entry
    return float(np.max(np.abs(actual / phase - reference)))
