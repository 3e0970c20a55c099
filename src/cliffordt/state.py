"""Dense statevector simulation kernel.

A state on n qubits is a length-2^n vector of complex amplitudes c_j over
the computational basis, with measurement probabilities p_j = |c_j|^2.
Qubit k is bit k of the basis index j, so qubit 0 is the least significant
bit and an integer register laid out on consecutive qubits reads back by a
plain bit-field extraction.

States are immutable: every operation returns a fresh value and the
amplitude buffers are marked read-only.  Gates act in place on a private
mutable buffer viewed as a (2,)*n tensor: ``simulate`` in the circuit
module finishes a run on one buffer, once its exact sparse evaluator
holds too many basis states, and wraps it in a ``StateVector`` at the
end, and ``apply_gate`` runs the same kernel on a copy, so no state a
caller holds is ever written.  ``check_width`` caps statevectors at 24
qubits (a ~270 MB vector) and ``check_index`` checks basis indices; wider
circuits go through the exact evaluators of the circuit module.

Randomness is never ambient.  Every sampling operation takes an explicit
integer seed and draws from a Philox 64-bit counter-based generator, so
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import DomainError, ResourceError
from .gates import Gate, matrix

#: Hard ceiling on statevector width; 2^24 amplitudes is the desk-scale limit.
MAX_SIM_QUBITS = 24

#: Amplitudes below this are treated as zero when fixing a canonical phase.
PHASE_EPS = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox (counter-based) generator; the only randomness source."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def check_width(n: int) -> None:
    """Raise ``DomainError`` below one qubit and ``ResourceError`` past
    ``MAX_SIM_QUBITS``."""
    if n < 1:
        raise DomainError("need at least one qubit")
    if n > MAX_SIM_QUBITS:
        raise ResourceError(
            f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit statevector ceiling")


def check_index(n: int, basis: int) -> None:
    """Raise ``DomainError`` unless 0 <= basis < 2^n, by bit length."""
    basis = index(basis)
    if basis < 0 or basis.bit_length() > n:
        raise DomainError(f"basis index {basis} out of range for {n} qubits")


def check_shots(shots: int, name: str = "shots") -> None:
    """Raise ``DomainError`` unless 1 <= shots <= 2^63 - 1: numpy's
    binomial and multinomial draws take their count as a 64-bit int."""
    if shots < 1:
        raise DomainError(f"{name} must be at least 1")
    if shots > (1 << 63) - 1:
        raise DomainError(f"{name} must be at most 2^63 - 1")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the 2^n computational basis states.

    The amplitudes must be finite; physical states are additionally
    normalized (sum |c_j|^2 = 1 within 1e-10), which ``new_basis_state``
    guarantees and unitary gate application preserves.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        check_width(self.n_qubits)
        arr = np.asarray(self.amps, dtype=complex)
        if arr.shape != (1 << self.n_qubits,):
            raise DomainError(
                f"amplitude vector must have length {1 << self.n_qubits}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise DomainError("amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class MeasurementCounts:
    """Histogram of sampled basis outcomes; counts sum to ``shots``."""

    shots: int
    counts: dict[int, int]


def new_basis_state(n_qubits: int, basis_index: int) -> StateVector:
    """The computational basis state |basis_index> on ``n_qubits`` qubits."""
    check_width(n_qubits)
    check_index(n_qubits, basis_index)
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[basis_index] = 1.0
    return StateVector(n_qubits, amps)


# Fixing one tensor axis to a bit by a length-1 slice keeps every axis,
# so the views below stay views (never scalars) at any width.
_BIT = (slice(0, 1), slice(1, 2))

# The diagonal gates' q=1 phases and the Hadamard's 1/sqrt(2), read off
# the gate matrices so the kernel and the matrices cannot disagree.
_PHASES = {k: complex(matrix(Gate(k, (0,)))[1, 1]) for k in ("t", "tdg", "s", "sdg")}
_H_SCALE = float(matrix(Gate("h", (0,)))[0, 0].real)


def _view(psi: np.ndarray, bits) -> np.ndarray:
    """The view of the (2,)*n tensor ``psi`` where each (qubit, bit) pair
    of ``bits`` is fixed; axis n-1-q carries qubit q."""
    n = psi.ndim
    index = [slice(None)] * n
    for q, bit in bits:
        index[n - 1 - q] = _BIT[bit]
    return psi[tuple(index)]


def _exchange(psi: np.ndarray, controls, lo, hi) -> None:
    """Swap the amplitudes at ``lo`` and ``hi`` where every control is 1."""
    fixed = [(c, 1) for c in controls]
    a = _view(psi, fixed + lo)
    b = _view(psi, fixed + hi)
    saved = a.copy()
    a[...] = b
    b[...] = saved


def apply_gate_inplace(psi: np.ndarray, gate: Gate) -> None:
    """Apply ``gate`` to the writable (2,)*n amplitude tensor ``psi``.

    X, CNOT and Toffoli exchange the target's two halves inside the
    control subspace, SWAP and Fredkin exchange |01> and |10> of their
    pair there; T, S and their daggers multiply the q=1 half by a phase,
    and H is a butterfly.  Permutation gates only move amplitudes, so
    they are exact.  Qubit indices are not checked here.
    """
    kind, qubits = gate.kind, gate.qubits
    if kind in _PHASES:
        one = _view(psi, [(qubits[0], 1)])
        one *= _PHASES[kind]
    elif kind == "h":
        q = qubits[0]
        a = _view(psi, [(q, 0)])
        b = _view(psi, [(q, 1)])
        # scale first, so each output is r*a +- r*b, rounded as the
        # matrix product rounds it
        psi *= _H_SCALE
        diff = a - b
        a += b
        b[...] = diff
    elif kind in ("swap", "cswap"):
        *controls, p, q = qubits
        _exchange(psi, controls, [(p, 0), (q, 1)], [(p, 1), (q, 0)])
    else:  # x, cnot, ccx: a bit flip of the last qubit
        *controls, target = qubits
        _exchange(psi, controls, [(target, 0)], [(target, 1)])


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a gate's unitary, tensor-extended with identity, to the state.

    Runs ``apply_gate_inplace`` on a copy, so ``state`` is unchanged.
    Norm is preserved to floating-point accuracy.  Gate qubit indices must
    be in range (pairwise distinctness is enforced by the Gate type).
    """
    n = state.n_qubits
    if any(q >= n for q in gate.qubits):
        raise DomainError(f"gate {gate.kind} {gate.qubits} exceeds {n} qubits")
    amps = state.amps.copy()
    apply_gate_inplace(amps.reshape((2,) * n), gate)
    return StateVector(n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Outcome probabilities p_j = |c_j|^2 as a float vector."""
    return np.abs(state.amps) ** 2


def sample(state: StateVector, shots: int, seed: int) -> MeasurementCounts:
    """Draw ``shots`` independent basis-state measurements.

    All shots come from one multinomial draw over the outcome
    probabilities, so the cost grows with the number of basis states, not
    with ``shots``.  Outcomes drawn at least once are listed in ascending
    order.  Deterministic for a fixed seed; see ``make_rng`` for the
    generator.
    """
    check_shots(shots)
    rng = make_rng(seed)
    p = probabilities(state)
    counts = rng.multinomial(shots, p / p.sum())
    hit = np.flatnonzero(counts)
    return MeasurementCounts(shots, dict(zip(hit.tolist(), counts[hit].tolist())))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n_qubits != b.n_qubits:
        raise DomainError("states have different qubit counts")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """Overlap squared |<a|b>|^2, in [0, 1] for normalized states."""
    return abs(inner_product(a, b)) ** 2


def canonical_phase(state: StateVector) -> StateVector:
    """Remove the global phase: first significant amplitude made real positive.

    States that differ only by a unit-modulus scalar map to the same
    canonical form, which is how equivalence up to global phase is decided.
    """
    amps = state.amps
    for a in amps:
        if abs(a) > PHASE_EPS:
            return StateVector(state.n_qubits, amps * (abs(a) / a))
    return state


def states_equal_up_to_phase(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """Whether two states coincide after dropping global phase."""
    if a.n_qubits != b.n_qubits:
        return False
    ca = canonical_phase(a).amps
    cb = canonical_phase(b).amps
    return bool(np.max(np.abs(ca - cb)) <= tol)


def bloch_coords(state: StateVector) -> tuple[float, float]:
    """Spherical angles (theta, phi) of a single-qubit state.

    Uses the full-angle parameterization c_0 = cos(theta),
    c_1 = e^{i phi} sin(theta) with theta in [0, pi/2], phi in [0, 2 pi),
    not the conventional half-angle form.  The angles are read off after
    removing global phase; phi is defined as 0 when sin(theta) vanishes.
    """
    if state.n_qubits != 1:
        raise DomainError("bloch_coords requires a single-qubit state")
    c0, c1 = canonical_phase(state).amps
    theta = float(np.arctan2(abs(c1), abs(c0)))
    if abs(c1) < PHASE_EPS:
        return theta, 0.0
    phi = float(np.angle(c1) % (2 * np.pi))
    return theta, phi
