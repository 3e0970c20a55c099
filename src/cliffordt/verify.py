"""Verification and simulated device benchmarking.

Three layers of checking live here:

* exhaustive oracle equivalence for the arithmetic generators, which runs
  every admissible basis input through the circuit and compares the
  decoded registers against a pure integer-arithmetic oracle;
* single-qubit state tomography by rotate-then-measure sampling along
  three orthogonal axes;
* randomized benchmarking of the 24-element single-qubit Clifford group
  under a depolarizing fault model, with an exponential decay fit.

The noise model is trajectory sampling on pure states: after each Clifford
application, with probability d the state is hit by a Pauli error drawn
uniformly from {X, Y, Z}.  Averaged over trajectories this reproduces
depolarizing statistics, shrinking the Bloch vector by (1 - 4d/3) per
step, without ever forming a density matrix.  The Paulis are themselves
Cliffords, so a trajectory stays in the 24-element group and is followed
exactly as a group index through a precomputed product table.  The tables
are built from each element's exact action on the Pauli axes: up to
phase, a one-qubit Clifford is the signed permutation it makes of X, Y
and Z under conjugation, its stabilizer tableau (Aaronson and Gottesman,
quant-ph/0406196), so no matrix, rounding or tolerance enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import index
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .arith import ArithInstance
from .circuit import (Circuit, is_permutation_circuit, run_columns, simulate,
                      sparse_evaluate)
from .errors import DomainError, FitError, ResourceError
from .gates import Gate, h, sdg
from .state import (apply_gate, bloch_coords, check_shots, make_rng,
                    probabilities)

#: An oracle maps register values to the registers' expected outputs.
#: Each value is an integer or a ``uint64`` array with one entry per
#: basis input, and the outputs come back in the same kind; an integer
#: output stands for every input.  Registers an oracle leaves out are
#: expected to keep their constant, else to read 0.
Oracle = Callable[[Mapping[str, "int | np.ndarray"]], "dict[str, int | np.ndarray]"]

#: Basis inputs per bit-sliced batch of ``exhaustive_check``.  A batch's
#: register arrays and its qubit columns (Python ints of this many bits)
#: are all that is held at once, so peak memory stays bounded on input
#: spaces of any size.  Circuits wider than 1,024 qubits run in smaller
#: batches, so that a batch fits ``MAX_SLICED_BITS``.  The sparse
#: evaluator takes the same batches and runs them row by row.
CHECK_BATCH = 1 << 14

#: Most bits (qubits x rows) of one batch of bit columns.  A circuit of
#: more qubits raises ``ResourceError`` before anything is allocated;
#: 2^24 bits are a 1,024-qubit circuit over a full batch.
MAX_SLICED_BITS = 1 << 24

#: Largest input space ``exhaustive_check`` accepts: 2^28 inputs, about
#: 15 s for adder n=14 and, extrapolated, 2 minutes for taylor n=28 on the
#: bit-sliced path (one core of a 2.0 GHz Xeon).  Larger spaces raise
#: ``ResourceError`` before any input is drawn.
MAX_CHECK_INPUTS = 1 << 28


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing fault: error probability d in [0, 1]."""

    depolarizing_prob: float

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_prob <= 1.0:
            raise DomainError("depolarizing probability must lie in [0, 1]")


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an exhaustive circuit-versus-oracle comparison.

    Mismatches are (input, expected, observed) basis-index triples;
    ``passed`` holds exactly when there are none.  ``method`` names the
    evaluator that produced the outputs: ``bitsliced`` for permutation
    circuits, ``sparse`` for the exact sparse evaluator, which runs every
    other circuit.  A sparse mismatch's observed index is the lowest basis
    index among the amplitudes of largest magnitude, compared exactly.
    """

    total_inputs: int
    mismatches: tuple[tuple[int, int, int], ...]
    passed: bool
    method: str = "bitsliced"

    def to_dict(self) -> dict:
        return {
            "total_inputs": self.total_inputs,
            "mismatches": [list(m) for m in self.mismatches],
            "passed": self.passed,
            "method": self.method,
        }

    def to_text(self) -> str:
        lines = [
            f"passed: {str(self.passed).lower()}",
            f"method: {self.method}",
            f"total_inputs: {self.total_inputs}",
            f"mismatch_count: {len(self.mismatches)}",
        ]
        for inp, exp, got in self.mismatches[:32]:
            lines.append(f"mismatch: input={inp} expected={exp} observed={got}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RBResult:
    """Randomized-benchmarking data and its fitted decay A*p^m + B."""

    lengths: tuple[int, ...]
    mean_fidelity: tuple[float, ...]
    fit_A: float
    fit_B: float
    fit_p: float
    error_per_gate: float

    def to_dict(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "mean_fidelity": list(self.mean_fidelity),
            "fit_A": self.fit_A,
            "fit_B": self.fit_B,
            "fit_p": self.fit_p,
            "error_per_gate": self.error_per_gate,
        }

    def to_text(self) -> str:
        lines = ["lengths: " + " ".join(str(m) for m in self.lengths),
                 "mean_fidelity: " + " ".join(f"{f:.6f}" for f in self.mean_fidelity),
                 f"fit_A: {self.fit_A:.6f}",
                 f"fit_B: {self.fit_B:.6f}",
                 f"fit_p: {self.fit_p:.6f}",
                 f"error_per_gate: {self.error_per_gate:.6f}"]
        return "\n".join(lines) + "\n"


class FitResult(NamedTuple):
    A: float
    B: float
    p: float
    residual: float


def unitarity_check(m: np.ndarray) -> float:
    """Max entrywise deviation of U*U-dagger from the identity."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("unitarity check needs a square matrix")
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


def exhaustive_check(instance: ArithInstance, oracle: Oracle) -> EquivalenceReport:
    """Compare a circuit against a classical oracle on every basis input.

    Inputs range over the instance's free registers in odometer order (the
    last input register varies fastest), with ancillae held at 0 and
    constants pinned.  Each run must land exactly on the oracle's
    predicted basis state, with amplitude exactly 1.  Inputs go
    ``CHECK_BATCH`` at a time: each free register of a batch is one slice
    of a ``uint64`` counter (``ArithInstance.counter``), the oracle is
    called once per batch on those arrays (see ``Oracle``), and ``_pack``,
    the one bit-column encoder, turns inputs and expected outputs into one
    bit column per qubit.  Permutation circuits (X, CNOT, SWAP, Toffoli,
    Fredkin) then run bit-sliced on the whole batch
    (``circuit.run_columns``), and only rows that differ are read back;
    every other circuit runs on the exact sparse evaluator
    (``circuit.sparse_evaluate``), one row at a time.  Both work at any
    width.  Input spaces larger than ``MAX_CHECK_INPUTS``, registers wider
    than 64 bits, circuits of more than ``MAX_SLICED_BITS`` qubits, and
    sparse runs that hold more than ``circuit.MAX_SPARSE_SUPPORT`` basis
    states at once raise ``ResourceError``; an oracle value that does not
    fit its register raises ``DomainError``.
    """
    circ = instance.circuit
    sliced = is_permutation_circuit(circ)
    layout = circ.layout
    bits = sum(layout.register(name).size for name in instance.input_names)
    # compare exponents: 1 << bits would allocate a bits-bit integer
    if bits > MAX_CHECK_INPUTS.bit_length() - 1:
        raise ResourceError(
            f"2^{bits} inputs exceeds the exhaustive-check limit of "
            f"{MAX_CHECK_INPUTS}")
    for r in layout.registers:  # a batch holds each register as uint64
        if r.size > 64:
            raise ResourceError(f"register {r.name} ({r.size} bits) is wider "
                                "than the 64 bits an exhaustive check packs")
    n = circ.n_qubits
    if n > MAX_SLICED_BITS:
        raise ResourceError(f"{n} qubits exceeds the {MAX_SLICED_BITS}-bit "
                            "limit of the bit-sliced evaluator")
    constants = instance.constants
    defaults = [(r.name, r.size, constants.get(r.name, 0))
                for r in sorted(layout.registers, key=lambda r: r.start)]
    counter = instance.counter()
    total = 1 << bits
    batch = min(CHECK_BATCH, MAX_SLICED_BITS // n)
    mismatches: list[tuple[int, int, int]] = []
    for base in range(0, total, batch):
        rows = min(batch, total - base)
        count = np.arange(base, base + rows, dtype=np.uint64)
        values = {name: (count >> at) & mask for name, at, mask in counter}
        cols = _pack(defaults, values, rows)
        expected = _pack(defaults, oracle({**constants, **values}), rows)
        if sliced:
            out = list(cols)
            run_columns(circ, out, rows)
            diff = 0
            for got, want in zip(out, expected):
                diff |= got ^ want
            if diff:
                flags = format(diff, f"0{rows}b")[::-1]
                bad = [r for r, bit in enumerate(flags) if bit == "1"]
                mismatches += zip(*(_unpack(x, rows, bad)
                                    for x in (cols, expected, out)))
            continue
        every = range(rows)
        for j, want in zip(_unpack(cols, rows, every),
                           _unpack(expected, rows, every)):
            amps, k = sparse_evaluate(circ, j)
            if k or amps != {want: (1, 0, 0, 0)}:
                mismatches.append((j, want, _peak(amps)))
    return EquivalenceReport(total, tuple(mismatches), not mismatches,
                             "bitsliced" if sliced else "sparse")


def _pack(registers: Sequence[tuple[str, int, int]],
          values: Mapping[str, "int | np.ndarray"], rows: int) -> list[int]:
    """Bit columns of a batch: bit r of column q is qubit q of row r.

    ``registers`` lists (name, size, default) in qubit order; a register
    missing from ``values`` takes its default, and an integer value
    stands for every row.  A value that is negative or does not fit its
    register raises ``DomainError``.
    """
    ones = (1 << rows) - 1
    cols: list[int] = []
    for name, size, default in registers:
        v = values.get(name, default)
        if np.ndim(v) == 0:
            v = index(v)
            if v < 0 or v >> size:
                raise DomainError(
                    f"value {v} does not fit register {name} ({size} bits)")
            cols += [ones if v >> i & 1 else 0 for i in range(size)]
            continue
        v = np.asarray(v)
        if v.shape != (rows,) or v.dtype.kind not in "iu":
            raise DomainError(f"register {name} needs an integer or {rows} "
                              f"integers, got a {v.dtype} array of shape "
                              f"{v.shape}")
        word = v.astype("<u8", copy=False)
        if v.dtype.kind == "i" and v.min() < 0 or int(word.max()) >> size:
            bad = next(x for x in v.tolist() if x < 0 or x >> size)
            raise DomainError(
                f"value {bad} does not fit register {name} ({size} bits)")
        # byte k of every row, then bit j of those bytes packed per qubit
        octets = np.ascontiguousarray(
            word.view(np.uint8).reshape(rows, 8)[:, :(size + 7) >> 3].T)
        cols += [int.from_bytes(np.packbits(octets[i >> 3] & 1 << (i & 7),
                                            bitorder="little").tobytes(),
                                "little")
                 for i in range(size)]
    return cols


def _unpack(cols: list[int], n_rows: int, rows: Sequence[int]) -> list[int]:
    """The basis indices of the given rows, read back out of bit columns:
    the inverse of ``_pack``."""
    text = "".join(map(format, reversed(cols), repeat(f"0{n_rows}b")))
    return [int(text[n_rows - 1 - r::n_rows], 2) for r in rows]


def _positive(p: int, q: int) -> bool:
    """Whether p + q*sqrt(2) > 0, decided in integers."""
    if p >= 0 and q >= 0:
        return p > 0 or q > 0
    if p <= 0 and q <= 0:
        return False
    return p * p > 2 * q * q if p > 0 else 2 * q * q > p * p


def _peak(amps: dict[int, tuple]) -> int:
    """The lowest basis index among the amplitudes of largest magnitude,
    compared exactly: |a + b w + c w^2 + d w^3|^2 = p + q sqrt(2) with
    p = a^2+b^2+c^2+d^2 and q = ab+bc+cd-da."""
    best, best_p, best_q = None, 0, 0
    for j in sorted(amps):
        a, b, c, d = amps[j]
        p, q = a * a + b * b + c * c + d * d, a * b + b * c + c * d - d * a
        if best is None or _positive(p - best_p, q - best_q):
            best, best_p, best_q = j, p, q
    return best


# Measurement bases for tomography: rotate the axis onto Z, then sample.
_AXIS_PREFIXES: tuple[tuple[str, tuple[Gate, ...]], ...] = (
    ("x", (h(0),)),
    ("y", (sdg(0), h(0))),
    ("z", ()),
)


def tomography_1q(state_prep: Circuit, shots_per_axis: int,
                  seed: int) -> tuple[float, float, float]:
    """Estimate the Bloch vector of a one-qubit preparation circuit.

    For each of the three axes the prepared state is rotated so the axis
    lies along Z and sampled ``shots_per_axis`` times; the expectation is
    the mean of +/-1 outcomes.  Finite sampling can push the estimated
    vector slightly outside the unit ball.
    """
    if state_prep.n_qubits != 1:
        raise DomainError("tomography_1q needs a one-qubit circuit")
    check_shots(shots_per_axis, "shots_per_axis")
    rng = make_rng(seed)
    prepared = simulate(state_prep, 0)
    estimates = {}
    for axis, prefix in _AXIS_PREFIXES:
        state = prepared
        for g in prefix:
            state = apply_gate(state, g)
        p0 = float(np.clip(probabilities(state)[0], 0.0, 1.0))
        zeros = int(rng.binomial(shots_per_axis, p0))
        estimates[axis] = 2.0 * zeros / shots_per_axis - 1.0
    return estimates["x"], estimates["y"], estimates["z"]


def bloch_vector(state) -> tuple[float, float, float]:
    """Exact Bloch vector (x, y, z) of a one-qubit state via its angles."""
    theta, phi = bloch_coords(state)
    return (float(np.sin(2 * theta) * np.cos(phi)),
            float(np.sin(2 * theta) * np.sin(phi)),
            float(np.cos(2 * theta)))


# A one-qubit Clifford up to phase: the (axis, sign) images of X, Y, Z.
_GENERATORS = {"h": ((2, 1), (1, -1), (0, 1)), "s": ((1, 1), (0, -1), (2, 1))}


def _after(a: tuple, b: tuple) -> tuple:
    """The Pauli images of C_a C_b: C_b first, then C_a."""
    return tuple((a[axis][0], sign * a[axis][1]) for axis, sign in b)


def _clifford_tables():
    """Exact tables of the 24 single-qubit Cliffords, found breadth first.

    Word (g_1, ..., g_k) is the matrix g_k ... g_1; elements are ordered by
    (length, word).  ``MUL[a, b]`` indexes C_a C_b, ``INV[a]`` C_a^-1,
    ``PAULI`` X, Y, Z, and ``P0[a]`` is |<0|C_a|0>|^2 = (1 + z)/2, where z
    is the sign of Z's image if that image lies on Z, else 0.
    """
    elements = [((0, 1), (1, 1), (2, 1))]
    words = {elements[0]: ()}
    for old in elements:
        for name, gen in _GENERATORS.items():
            if (new := _after(gen, old)) not in words:
                words[new] = words[old] + (name,)
                elements.append(new)
    elements.sort(key=lambda e: (len(words[e]), words[e]))
    index = {e: i for i, e in enumerate(elements)}
    mul = np.array([[index[_after(a, b)] for b in elements] for a in elements])
    pauli = [index[tuple((axis, 1 if axis == p else -1) for axis in range(3))]
             for p in range(3)]
    p0 = [(1 + sign) / 2 if axis == 2 else 0.5 for _, _, (axis, sign) in elements]
    return ([words[e] for e in elements], mul, np.argmax(mul == 0, axis=1),
            np.array(pauli), np.array(p0))


_CLIFFORDS, _MUL, _INV, _PAULI, _P0 = _clifford_tables()


def _rb_step(noisy: np.ndarray, ideal: np.ndarray, picks: np.ndarray,
             errors: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Apply one Clifford per sequence, then its Pauli error, by lookup.

    ``noisy`` and ``ideal`` are the group indices of each sequence's
    product with and without errors; ``errors`` holds the group index of
    each sequence's error, the identity 0 where none struck (None: no
    errors at all).
    """
    noisy = _MUL[picks, noisy]
    if errors is not None:
        noisy = _MUL[errors, noisy]
    return noisy, _MUL[picks, ideal]


def _draw_errors(rng: np.random.Generator, d: float, n: int) -> np.ndarray | None:
    """Each sequence's error for one step: X, Y or Z uniformly with
    probability d, else the identity."""
    if d == 0.0:
        return None
    hit = rng.random(n) < d
    errors = np.zeros(n, dtype=np.intp)
    errors[hit] = _PAULI[rng.integers(3, size=int(hit.sum()))]
    return errors


def run_rb(noise: NoiseModel, lengths: Sequence[int], n_sequences: int,
           shots: int, seed: int) -> RBResult:
    """Single-qubit randomized benchmarking under depolarizing noise.

    For each length m, ``n_sequences`` random Clifford sequences are drawn,
    closed with the exact group inverse of their product, and executed with
    the trajectory noise described in the module docstring (the inverting
    element is noisy too).  Survival of |0> is estimated from ``shots``
    samples per sequence, averaged, and fitted to A*p^m + B.  The reported
    error per gate is (1-p)/2, the one-qubit conversion of the decay
    constant; the fit does not claim p itself is a fidelity.

    All sequences of one length run in lockstep as arrays of group
    indices, so each trajectory is followed exactly, with no amplitudes,
    in memory proportional to ``n_sequences``.
    """
    lengths = tuple(int(m) for m in lengths)
    if len(lengths) < 3:
        raise DomainError("need at least 3 sequence lengths to fit the decay")
    if any(m < 1 for m in lengths) or any(
            b <= a for a, b in zip(lengths, lengths[1:])):
        raise DomainError("lengths must be positive and strictly increasing")
    if n_sequences < 1:
        raise DomainError("n_sequences must be at least 1")
    check_shots(shots)
    d = noise.depolarizing_prob
    rng = make_rng(seed)
    mean_fidelity = []
    for m in lengths:
        noisy = ideal = np.zeros(n_sequences, dtype=np.intp)
        for _ in range(m):
            picks = rng.integers(0, 24, size=n_sequences)
            noisy, ideal = _rb_step(noisy, ideal, picks,
                                    _draw_errors(rng, d, n_sequences))
        noisy, _ = _rb_step(noisy, ideal, _INV[ideal],
                            _draw_errors(rng, d, n_sequences))
        zeros = rng.binomial(shots, _P0[noisy])
        mean_fidelity.append(float(zeros.mean() / shots))
    fit = fit_exponential_decay(list(zip(lengths, mean_fidelity)))
    p = min(max(fit.p, 0.0), 1.0)
    return RBResult(lengths, tuple(mean_fidelity), fit.A, fit.B, p,
                    error_per_gate=(1.0 - p) / 2.0)


def fit_exponential_decay(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fit of f = A*p^m + B.

    Initialization is a log-domain linear fit of f - 0.5 (the one-qubit
    uniform-outcome floor), refined by damped Gauss-Newton.  Constant data
    takes the p=1 branch with B equal to the constant, so noiseless runs
    report p exactly 1.  Fewer than three points or fewer than two
    distinct m values cannot determine the model and raise FitError.
    """
    ms = np.array([float(m) for m, _ in points])
    fs = np.array([float(f) for _, f in points])
    if len(points) < 3:
        raise FitError("need at least 3 points")
    if len(np.unique(ms)) < 2:
        raise FitError("need at least 2 distinct sequence lengths")
    if np.allclose(fs, fs[0], atol=1e-12):
        return FitResult(A=0.0, B=float(fs[0]), p=1.0, residual=0.0)

    b0 = 0.5
    y = fs - b0
    mask = y > 1e-9
    if mask.sum() >= 2:
        coeffs = np.polyfit(ms[mask], np.log(y[mask]), 1)
        p0 = float(np.exp(coeffs[0]))
        a0 = float(np.exp(coeffs[1]))
    else:
        p0, a0 = 0.9, max(float(fs.max() - b0), 0.1)
    p0 = min(max(p0, 1e-6), 1.0)

    params = np.array([a0, b0, p0])
    lam = 1e-3
    for _ in range(200):
        a, b, p = params
        r = a * p ** ms + b - fs
        jac = np.column_stack([p ** ms,
                               np.ones_like(ms),
                               a * ms * p ** np.maximum(ms - 1, 0.0)])
        grad = jac.T @ r
        hess = jac.T @ jac + lam * np.eye(3)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular system: {exc}") from None
        trial = params - step
        trial[2] = min(max(trial[2], 1e-9), 1.0)
        trial_r = trial[0] * trial[2] ** ms + trial[1] - fs
        if np.linalg.norm(trial_r) < np.linalg.norm(r):
            params = trial
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 10.0
        if np.linalg.norm(step) < 1e-12:
            break
    a, b, p = params
    residual = float(np.linalg.norm(a * p ** ms + b - fs))
    return FitResult(float(a), float(b), float(p), residual)


def oracle_adder(n: int) -> Oracle:
    """(a, b) -> b reads (a+b) mod 2^n, z reads the carry, a restored."""
    def f(v):
        total = v["a"] + v["b"]
        return {"b": total % (1 << n), "a": v["a"], "z": total >> n}
    return f


def oracle_subtractor(n: int) -> Oracle:
    """(a, b) -> b reads (b-a) mod 2^n, a restored.  On ``uint64`` arrays
    the difference wraps mod 2^64, which 2^n divides."""
    def f(v):
        return {"b": (v["b"] - v["a"]) % (1 << n), "a": v["a"]}
    return f


def oracle_ctrl_add(n: int) -> Oracle:
    """(ctrl, a, b) -> b reads (b + ctrl*a) mod 2^n and z the carry;
    ctrl and a restored, g back to 0."""
    def f(v):
        total = v["b"] + v["ctrl"] * v["a"]
        return {"ctrl": v["ctrl"], "b": total % (1 << n), "a": v["a"],
                "z": total >> n, "g": 0}
    return f


def oracle_multiplier(n: int) -> Oracle:
    """(a, b) -> p reads a*b, a and b restored."""
    def f(v):
        return {"b": v["b"], "a": v["a"], "p": v["a"] * v["b"]}
    return f


def oracle_taylor(n: int) -> Oracle:
    """Restores everything except y4 = (fc + fp*(x-c) + fpp*(x-c)^2) mod 2^n.
    On ``uint64`` arrays every step wraps mod 2^64, which 2^n divides."""
    def f(v):
        delta = v["x"] - v["c"]
        y4 = (v["fc"] + v["fp"] * delta + v["fpp"] * delta * delta) % (1 << n)
        return {"c": v["c"], "x": v["x"], "xc": 0, "fc": v["fc"],
                "fp": v["fp"], "fpp": v["fpp"], "y1": 0, "y2": 0, "y4": y4}
    return f


ORACLES: dict[str, Callable[[int], Oracle]] = {
    "adder": oracle_adder,
    "sub": oracle_subtractor,
    "ctrladd": oracle_ctrl_add,
    "mul": oracle_multiplier,
    "taylor": oracle_taylor,
}
