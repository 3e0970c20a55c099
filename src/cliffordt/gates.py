"""Gate set definitions: matrices, inverses, and Clifford+T decompositions.

The primitive vocabulary is the Clifford+T set {H, T, T†, S, S†, X, CNOT}
plus three composite reversible gates (SWAP, Toffoli, Fredkin) that lower
onto it.  Matrices follow the convention that the first listed qubit of a
gate is the most significant bit of the local basis index, so e.g. the
CNOT matrix permutes |10> and |11> (control high).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from operator import index
from typing import TYPE_CHECKING, Iterable

from .errors import DomainError, check_matrix_width, show

if TYPE_CHECKING:
    import numpy as np

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

# Gates whose matrices are 0/1 permutations of the computational basis.
PERMUTATION_KINDS = frozenset({"x", "cnot", "swap", "ccx", "cswap"})

_INVERSE_KIND = {"t": "tdg", "tdg": "t", "s": "sdg", "sdg": "s"}


_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """A named gate applied to an ordered tuple of qubit indices.

    The indices are stored as a tuple of Python ints: any operand that
    ``operator.index`` accepts (a numpy integer, a bool) is converted, and
    any other (a float, a string) raises ``DomainError``.  The checks run
    before the two fields are set, in one hand-written ``__init__``, since
    ``build``, ``lower_to_clifford_t`` and ``parse`` construct gates by
    the thousand.
    """

    kind: str
    qubits: tuple[int, ...]

    def __init__(self, kind: str, qubits: Iterable[int]):
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise DomainError(f"unknown gate kind {kind!r}")
        try:
            qubits = tuple(map(index, qubits))
        except TypeError:
            raise DomainError(f"{kind} qubit indices must be integers, "
                              f"got {show(qubits)}") from None
        if len(qubits) != arity:
            raise DomainError(
                f"{kind} takes {arity} qubit indices, got {len(qubits)}")
        if min(qubits) < 0:
            raise DomainError(f"negative qubit index in {kind}")
        if len(set(qubits)) != arity:
            raise DomainError(f"duplicate qubit in {kind} {show(qubits)}")
        _set(self, "kind", kind)
        _set(self, "qubits", qubits)


def _derived_gate(kind: str, qubits: tuple[int, ...]) -> Gate:
    """A ``Gate`` made without ``Gate.__init__``'s checks, for operands
    taken from a gate that already passed them: ``kind`` is a known kind
    and ``qubits`` a tuple of its arity of distinct non-negative ints.
    Only ``inverse``, the lowering and ``parse`` (for operands its token
    memo checked) call it."""
    gate = object.__new__(Gate)
    _set(gate, "kind", kind)
    _set(gate, "qubits", qubits)
    return gate


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


# The exact scalars of the gate set, as plain Python numbers, so that
# importing this module loads no numpy: T's phase e^{i pi/4}, the
# Hadamard's 1/sqrt(2), and the q=1 phase of each diagonal gate.  A
# daggered phase is the conjugate, so S-dagger's is 0-1j with a real part
# of +0.0 (the literal -1j has -0.0), as in its conjugated matrix.
T_PHASE = cmath.exp(1j * math.pi / 4)
H_SCALE = 1 / math.sqrt(2.0)
PHASES = {"t": T_PHASE, "tdg": T_PHASE.conjugate(),
          "s": 1j, "sdg": (1j).conjugate()}


@cache
def _matrices() -> dict[str, np.ndarray]:
    """Every gate's matrix by kind, built on first use."""
    import numpy as np

    matrices = {
        "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
        "t": np.array([[1, 0], [0, T_PHASE]], dtype=complex),
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
    matrices["tdg"] = matrices["t"].conj()
    matrices["sdg"] = matrices["s"].conj()
    return matrices


def matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of ``gate`` (first listed qubit = most significant bit)."""
    return _matrices()[gate.kind].copy()


def inverse(gate: Gate) -> Gate:
    """Inverse gate: T and S swap with their daggers on the same qubits,
    and every other kind is an involution, returned as the very same
    object (gates are immutable, so sharing them is safe)."""
    kind = _INVERSE_KIND.get(gate.kind)
    return gate if kind is None else _derived_gate(kind, gate.qubits)


def decompose_toffoli(c1: int, c2: int, target: int) -> list[Gate]:
    """Clifford+T realization of the Toffoli gate (T-count 7, 16 gates).

    Layout: an initial and final Hadamard on the target wrap a T/CNOT core
    arranged in three T layers.  Every operand pair meets in a CNOT, so
    ``Gate`` rejects repeated operands here and in the other templates.
    """
    a, b, c = c1, c2, target
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
    return [cnot(t2, t1)] + decompose_toffoli(control, t1, t2) + [cnot(t2, t1)]


def decompose_swap(a: int, b: int) -> list[Gate]:
    """SWAP as the standard three-CNOT identity."""
    return [cnot(a, b), cnot(b, a), cnot(a, b)]


def compose_matrices(gates, n_qubits: int) -> np.ndarray:
    """Multiply out a gate sequence into one 2^n x 2^n unitary.

    Intended for small n (decomposition checks): n is capped by
    ``errors.check_matrix_width``.  Simulation of states goes through the
    state module instead.
    """
    import numpy as np

    n_qubits = check_matrix_width(n_qubits)
    dim = 1 << n_qubits
    u = np.eye(dim, dtype=complex)
    for g in gates:
        u = expand_matrix(g, n_qubits) @ u
    return u


def expand_matrix(gate: Gate, n_qubits: int) -> np.ndarray:
    """Tensor-extend a gate matrix with identity onto an n-qubit space.

    Qubit k is bit k of the global basis index.  n is capped by
    ``errors.check_matrix_width``.
    """
    import numpy as np

    n_qubits = check_matrix_width(n_qubits)
    if any(q >= n_qubits for q in gate.qubits):
        raise DomainError(
            f"gate {show(gate)} does not fit in {show(n_qubits)} qubits")
    index = np.arange(1 << n_qubits)
    k = len(gate.qubits)
    # entry (dst, src) is the gate's nonzero entry at their local indices
    # (first listed qubit most significant) where their other bits agree;
    # every other entry is +0, though the daggers' zeros are -0j
    local = sum((index >> q & 1) << (k - 1 - i)
                for i, q in enumerate(gate.qubits))
    rest = index & ~sum(1 << q for q in gate.qubits)
    amp = _matrices()[gate.kind][local[:, None], local]
    return np.where((rest[:, None] == rest) & (amp != 0), amp, 0)
