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
caller holds is ever written.  ``check_width``, the one argument rule
not in ``errors``, caps statevectors at 24 qubits (a ~270 MB vector);
wider circuits go through the exact evaluators of the circuit module.
The kernel multiplies by the ``gates`` module's ``PHASES`` and
``H_SCALE``, the very scalars the gate matrices are built from, so the
two cannot disagree.  numpy is imported inside the functions that make
or read arrays, so importing this module loads none.

Randomness is never ambient.  Every sampling operation takes an explicit
integer seed and draws from a Philox 64-bit counter-based generator, so
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

from .errors import (MAX_SIM_QUBITS, DomainError, ResourceError, check_count,
                     check_index, check_int, check_shots, show)
from .gates import H_SCALE, PHASES, Gate

if TYPE_CHECKING:
    import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox (counter-based) generator; the only randomness source.

    ``seed`` is taken as a Python int (see ``check_int``), so a float is
    refused, not truncated; a negative seed raises ``DomainError``."""
    import numpy as np

    seed = check_int(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {show(seed)}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def check_width(n: int) -> int:
    """``n`` as an ``errors.check_count`` qubit count; raise
    ``ResourceError`` past ``MAX_SIM_QUBITS``."""
    n = check_count(n, "qubit count")
    if n > MAX_SIM_QUBITS:
        raise ResourceError(
            f"{show(n)} qubits exceeds the {MAX_SIM_QUBITS}-qubit statevector ceiling")
    return n


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
        import numpy as np

        n = check_width(self.n_qubits)
        arr = np.asarray(self.amps, dtype=complex)
        if arr.shape != (1 << n,):
            raise DomainError(f"amplitude vector must have length {1 << n}")
        if not np.all(np.isfinite(arr.view(float))):
            raise DomainError("amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amps", arr)


@dataclass(frozen=True)
class MeasurementCounts:
    """Histogram of sampled basis outcomes; counts sum to ``shots``."""

    shots: int
    counts: dict[int, int]


def new_basis_state(n_qubits: int, basis_index: int) -> StateVector:
    """The computational basis state |basis_index> on ``n_qubits`` qubits."""
    import numpy as np

    n_qubits = check_width(n_qubits)
    basis_index = check_index(n_qubits, basis_index)
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[basis_index] = 1.0
    return StateVector(n_qubits, amps)


# Fixing one tensor axis to a bit by a length-1 slice keeps every axis,
# so the views below stay views (never scalars) at any width.
_BIT = (slice(0, 1), slice(1, 2))


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
    if kind in PHASES:
        one = _view(psi, [(qubits[0], 1)])
        one *= PHASES[kind]
    elif kind == "h":
        q = qubits[0]
        a = _view(psi, [(q, 0)])
        b = _view(psi, [(q, 1)])
        # scale first, so each output is r*a +- r*b, rounded as the
        # matrix product rounds it
        psi *= H_SCALE
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
        raise DomainError(f"gate {gate.kind} {show(gate.qubits)} exceeds {n} qubits")
    amps = state.amps.copy()
    apply_gate_inplace(amps.reshape((2,) * n), gate)
    return StateVector(n, amps)


def probabilities(state: StateVector) -> np.ndarray:
    """Outcome probabilities p_j = |c_j|^2 as a float vector."""
    return abs(state.amps) ** 2


def sample(state: StateVector, shots: int, seed: int) -> MeasurementCounts:
    """Draw ``shots`` independent basis-state measurements.

    All shots come from one multinomial draw over the outcome
    probabilities, so the cost grows with the number of basis states, not
    with ``shots``.  Outcomes drawn at least once are listed in ascending
    order.  Deterministic for a fixed seed; see ``make_rng`` for the
    generator.  A state whose squared norm is zero, or too large for a
    float, gives no distribution to draw from and raises ``DomainError``
    before any draw.
    """
    shots = check_shots(shots)
    rng = make_rng(seed)
    p = probabilities(state)
    total = p.sum()
    if not 0.0 < total < inf:
        raise DomainError(f"cannot sample a state of squared norm {total}")
    counts = rng.multinomial(shots, p / total)
    hit = counts.nonzero()[0]
    return MeasurementCounts(shots, dict(zip(hit.tolist(), counts[hit].tolist())))
