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
quant-ph/0406196), so no matrix, rounding or tolerance enters.  The steps
of the sequences are drawn a block at a time, and each block's product
is folded as a pairwise tree through the product table, one lookup per
level, so the numpy calls of m steps grow with log m, not m.  The decay
A*p^m + B is fitted by variable projection.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import isfinite, log, sqrt
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .arith import ArithInstance
from .circuit import (Circuit, is_permutation_circuit, lift, run_columns,
                      simulate, sparse_evaluate)
from .errors import (DomainError, FitError, ResourceError, check_int,
                     check_real, check_register_value, check_shots, show)
from .gates import Gate, h, sdg
from .state import apply_gate, make_rng, probabilities

if TYPE_CHECKING:
    import numpy as np

#: An oracle maps register values to the expected outputs of the
#: registers the circuit changes, and names no other.  Each value it is
#: given is an integer (a constant) or a ``uint64`` array with one entry
#: per basis input, and it returns the same kinds; an integer output
#: stands for every input and packs at any width, an array only into a
#: register of at most 64 bits.  Every register it does not name, whether
#: an input, a constant or an ancilla, is expected to end as it began.
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

#: Most (step x sequence) slots ``run_rb`` draws and folds at once.  A
#: block's arrays are ``uint16`` group indices and the float draws that
#: place its errors, at most 1.1 MiB at once for 2^16 slots, and every
#: length up to 163 steps of 400 sequences fits in one block.  A block
#: holds at least one step, so more than 2^16 sequences take one step per
#: block.
RB_BLOCK = 1 << 16

#: Most Clifford slots one ``run_rb`` may follow: ``n_sequences`` times
#: the sum of m + 1 over the lengths (each sequence closes with its
#: inverse).  2^32 slots are about a minute at the 10-25 ns each a slot
#: takes (one core of a 2-vCPU Xeon).  More raise ``ResourceError``
#: before any draw.
MAX_RB_CLIFFORDS = 1 << 32


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing fault: error probability d in [0, 1], stored
    as a Python float.  Any real number (see ``check_real``) is taken; any
    other value, or one outside [0, 1] (NaN included), raises
    ``DomainError``."""

    depolarizing_prob: float

    def __post_init__(self):
        d = check_real(self.depolarizing_prob, "depolarizing probability")
        if not 0.0 <= d <= 1.0:
            raise DomainError("depolarizing probability must lie in [0, 1]")
        object.__setattr__(self, "depolarizing_prob", d)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an exhaustive circuit-versus-oracle comparison.

    Mismatches are (input, expected, observed) basis-index triples;
    ``passed`` holds exactly when there are none.  ``method`` names the
    evaluator that produced the outputs: ``bitsliced`` for permutation
    circuits, ``lifted`` for circuits whose ``circuit.lift`` is one (run
    bit-sliced too), ``sparse`` for the exact sparse evaluator, which runs
    every other circuit.  A sparse mismatch's observed index is the lowest
    basis index among the amplitudes of largest magnitude, compared
    exactly.
    """

    total_inputs: int
    mismatches: tuple[tuple[int, int, int], ...]
    passed: bool
    method: str = "bitsliced"

    def to_dict(self) -> dict:
        return {**vars(self), "mismatches": [list(m) for m in self.mismatches]}

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
        return {**vars(self), "lengths": list(self.lengths),
                "mean_fidelity": list(self.mean_fidelity)}

    def to_text(self) -> str:
        lines = []
        for name, value in vars(self).items():
            fmt = str if name == "lengths" else "{:.6f}".format
            items = value if isinstance(value, tuple) else (value,)
            lines.append(f"{name}: {' '.join(map(fmt, items))}\n")
        return "".join(lines)


class FitResult(NamedTuple):
    A: float
    B: float
    p: float
    residual: float


def exhaustive_check(instance: ArithInstance, oracle: Oracle) -> EquivalenceReport:
    """Compare a circuit against a classical oracle on every basis input.

    Inputs range over the instance's free registers in odometer order (the
    last input register varies fastest), with ancillae held at 0 and
    constants pinned.  Each run must land exactly on the oracle's
    predicted basis state, with amplitude exactly 1.  Inputs go
    ``CHECK_BATCH`` at a time, one bit column per qubit, each register's
    at its own qubits: a free input's are bits of the row counter
    (``_count_column``), any other's ``_pack`` of its constant, 0 for an
    ancilla.  The oracle is called once per batch on the constants and
    each free register's slice of a ``uint64`` counter
    (``ArithInstance.counter``).  The expected columns are the input
    columns with each register the oracle names packed by ``_pack``, so a register it leaves out must end as it began (see
    ``Oracle``).  Permutation circuits (X, CNOT, SWAP, Toffoli, Fredkin)
    run bit-sliced on the whole batch (``circuit.run_columns``), and only
    rows that differ are read back, by their mask, in one ``_unpack``
    call.  Any other circuit is lifted once, after the input-space and
    width checks (``circuit.lift`` folds each lowered SWAP, Toffoli and
    Fredkin window back into its gate, with the same exact map): if that
    leaves a permutation circuit, it runs bit-sliced, and else the lifted
    gates run row by row on the exact sparse evaluator
    (``circuit.sparse_evaluate``).  All work at any width.  Input
    spaces larger than ``MAX_CHECK_INPUTS``, circuits of more than
    ``MAX_SLICED_BITS`` qubits, an array result for a register wider than
    64 bits, and sparse runs that hold more than ``MAX_SPARSE_SUPPORT``
    basis states at once raise ``ResourceError`` (its gate index counts
    the lifted gates).  An oracle result that is
    not a mapping, names a register the circuit lacks, or holds a value
    that does not fit its register raises ``DomainError``.
    """
    import numpy as np

    circ = instance.circuit
    layout = circ.layout
    bits = sum(layout.register(name).size for name in instance.input_names)
    # compare exponents: 1 << bits would allocate a bits-bit integer
    if bits > MAX_CHECK_INPUTS.bit_length() - 1:
        raise ResourceError(
            f"2^{show(bits)} inputs exceeds the exhaustive-check limit of "
            f"{MAX_CHECK_INPUTS}")
    n = circ.n_qubits
    if n > MAX_SLICED_BITS:
        raise ResourceError(f"{show(n)} qubits exceeds the {MAX_SLICED_BITS}"
                            "-bit limit of the bit-sliced evaluator")
    method = "bitsliced"
    if not is_permutation_circuit(circ):
        circ = Circuit(n, lift(circ.ops), layout)
        method = "lifted" if is_permutation_circuit(circ) else "sparse"
    constants = instance.constants
    counter = instance.counter()
    shifts = {name: at for name, at, _ in counter}
    total = 1 << bits
    batch = min(CHECK_BATCH, MAX_SLICED_BITS // n)
    low = (1 << n) - 1
    mismatches: list[tuple[int, int, int]] = []
    for base in range(0, total, batch):
        rows = min(batch, total - base)
        count = np.arange(base, base + rows, dtype=np.uint64)
        cols = [0] * n
        for r in layout.registers:
            at = shifts.get(r.name)
            cols[r.start:r.stop] = (
                _pack(r.name, r.size, constants.get(r.name, 0), rows)
                if at is None else
                [_count_column(at + i, base, rows) for i in range(r.size)])
        got = oracle({**constants, **{name: (count >> at) & mask
                                      for name, at, mask in counter}})
        if not isinstance(got, Mapping):
            raise DomainError(f"the oracle returned {type(got).__name__}, "
                              "not a mapping of register names")
        expected = list(cols)
        for name, value in got.items():
            r = layout.register(name)
            expected[r.start:r.stop] = _pack(name, r.size, value, rows)
        if method != "sparse":
            out = list(cols)
            run_columns(circ, out, rows)
            diff = 0
            for have, want in zip(out, expected):
                diff |= have ^ want
            if diff:
                mismatches += [(v & low, v >> n & low, v >> 2 * n) for v in
                               _unpack(cols + expected + out, rows, diff)]
            continue
        for v in _unpack(cols + expected, rows, (1 << rows) - 1):
            j, want = v & low, v >> n
            amps, k = sparse_evaluate(circ, j)
            if k or amps != {want: (1, 0, 0, 0)}:
                mismatches.append((j, want, _peak(amps)))
    return EquivalenceReport(total, tuple(mismatches), not mismatches, method)


def _count_column(bit: int, base: int, rows: int) -> int:
    """Bit column of counter bit ``bit`` over rows [base, base + rows):
    bit r is bit ``bit`` of base + r.  The bit has period 2^(bit+1), so
    the column is one period rotated to the phase of ``base``, doubled by
    shifts until it covers the rows; a bit of half-period 2^bit >= rows
    flips at most once.  Equal to ``_pack`` of the counter's ``uint64``
    array, with no numpy and no division."""
    ones = (1 << rows) - 1
    half = 1 << bit
    if half >= rows:  # constant up to the row where the bit next flips
        head = (1 << min(half - (base & (half - 1)), rows)) - 1
        return head if base >> bit & 1 else ones ^ head
    period = half << 1
    phase = base & (period - 1)
    word = ((1 << half) - 1) << half  # one period from phase 0
    col = (word >> phase | word << (period - phase)) & ((1 << period) - 1)
    while period < rows:
        col |= col << period
        period <<= 1
    return col & ones


def _pack(name: str, size: int, value: "int | np.ndarray",
          rows: int) -> list[int]:
    """The ``size`` bit columns of register ``name`` over a batch of
    ``rows`` rows: bit r of column i is bit i of row r's value.  An
    integer value stands for every row, at any width; an array, packed as
    ``uint64``, raises ``ResourceError`` for a register wider than 64
    bits.  A value that is negative or does not fit raises ``DomainError``.
    """
    import numpy as np

    if np.ndim(value) == 0:
        value = check_register_value(value, name, size)
        ones = (1 << rows) - 1
        return [ones if value >> i & 1 else 0 for i in range(size)]
    if size > 64:
        raise ResourceError(f"register {name} ({show(size)} bits) is wider "
                            "than the 64 bits an exhaustive check packs")
    v = np.asarray(value)
    if v.shape != (rows,) or v.dtype.kind not in "iu":
        raise DomainError(f"register {name} needs an integer or {rows} "
                          f"integers, got a {v.dtype} array of shape "
                          f"{v.shape}")
    word = v.astype("<u8", copy=False)
    if v.dtype.kind == "i" and v.min() < 0 or int(word.max()) >> size:
        for x in v.tolist():  # the first row that does not fit raises
            check_register_value(x, name, size)
    # byte k of every row, then bit j of those bytes packed per qubit
    octets = np.ascontiguousarray(
        word.view(np.uint8).reshape(rows, 8)[:, :(size + 7) >> 3].T)
    return [int.from_bytes(np.packbits(octets[i >> 3] & 1 << (i & 7),
                                       bitorder="little").tobytes(), "little")
            for i in range(size)]


def _unpack(cols: list[int], n_rows: int, rows: int) -> list[int]:
    """The basis indices of the rows whose bits are set in the mask
    ``rows``, in ascending order, read back out of bit columns: the
    inverse of ``_pack``.  One transposition serves every row asked for:
    the columns and the mask as bytes, the byte of each row in the mask,
    its bit, and those bits packed back along the qubit axis into one
    little-endian byte string per row.  The ``S`` type drops a string's
    trailing NULs, the high zero bytes of its index, so no value changes."""
    import numpy as np

    width = (n_rows + 7) >> 3
    octets = np.frombuffer(
        b"".join(map(int.to_bytes, cols, repeat(width), repeat("little"))),
        np.uint8).reshape(len(cols), width)
    flags = np.frombuffer(rows.to_bytes(width, "little"), np.uint8)
    at = np.flatnonzero(np.unpackbits(flags, bitorder="little"))
    bits = octets[:, at >> 3] >> (at & 7).astype(np.uint8) & 1
    packed = np.packbits(bits, axis=0, bitorder="little")
    indices = np.frombuffer(packed.T.tobytes(), f"S{len(packed)}").tolist()
    return list(map(int.from_bytes, indices, repeat("little")))


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

    The Bloch vector of a state is (<X>, <Y>, <Z>): for amplitudes
    c_0 = cos(theta/2), c_1 = e^{i phi} sin(theta/2) it is
    (sin theta cos phi, sin theta sin phi, cos theta).  For each of the
    three axes the prepared state is rotated so the axis lies along Z and
    sampled ``shots_per_axis`` times; the expectation is the mean of +/-1
    outcomes.  Finite sampling can push the estimated vector slightly
    outside the unit ball.
    """
    if state_prep.n_qubits != 1:
        raise DomainError("tomography_1q needs a one-qubit circuit")
    shots_per_axis = check_shots(shots_per_axis, "shots_per_axis")
    rng = make_rng(seed)
    prepared = simulate(state_prep, 0)
    estimates = {}
    for axis, prefix in _AXIS_PREFIXES:
        state = prepared
        for g in prefix:
            state = apply_gate(state, g)
        p0 = min(max(float(probabilities(state)[0]), 0.0), 1.0)
        zeros = int(rng.binomial(shots_per_axis, p0))
        estimates[axis] = 2.0 * zeros / shots_per_axis - 1.0
    return estimates["x"], estimates["y"], estimates["z"]


# A one-qubit Clifford up to phase: the (axis, sign) images of X, Y, Z.
_GENERATORS = {"h": ((2, 1), (1, -1), (0, 1)), "s": ((1, 1), (0, -1), (2, 1))}


def _after(a: tuple, b: tuple) -> tuple:
    """The Pauli images of C_a C_b: C_b first, then C_a."""
    return tuple((a[axis][0], sign * a[axis][1]) for axis, sign in b)


class _Tables(NamedTuple):
    """The Clifford group tables; see ``_clifford_tables``."""

    words: list
    mul: np.ndarray
    inv: np.ndarray
    pauli: np.ndarray
    p0: np.ndarray
    flat: np.ndarray


@cache
def _clifford_tables() -> _Tables:
    """Exact tables of the 24 single-qubit Cliffords, found breadth first
    on the first call, which the first RB block makes.

    Word (g_1, ..., g_k) is the matrix g_k ... g_1; elements are ordered by
    (length, word).  ``mul[a, b]`` indexes C_a C_b, ``inv[a]`` C_a^-1,
    ``pauli`` X, Y, Z, and ``p0[a]`` is |<0|C_a|0>|^2 = (1 + z)/2, where z
    is the sign of Z's image if that image lies on Z, else 0.  ``flat`` is
    ``mul`` as one ``uint16`` row, ``flat[24 * a + b] = mul[a, b]``, the
    table ``_times`` looks products up in.
    """
    import numpy as np

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
    return _Tables([words[e] for e in elements], mul,
                   np.argmax(mul == 0, axis=1), np.array(pauli), np.array(p0),
                   mul.astype(np.uint16).ravel())


def _times(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """C_later C_earlier for each pair of ``uint16`` group indices, in one
    ``take`` from the flat table; 24 * 23 + 23 fits ``uint16``, so no
    index wraps."""
    return _clifford_tables().flat.take(later * 24 + earlier)


def _fold(rows: np.ndarray) -> np.ndarray:
    """The product of each column of a stack of ``uint16`` group indices,
    row 0 applied first, as a pairwise tree: each level replaces rows 2i
    and 2i+1 by their product (``_times``), and an odd last row passes up
    unpaired, so k rows take ceil(log2 k) levels."""
    import numpy as np

    while len(rows) > 1:
        even = len(rows) & ~1
        pairs = _times(rows[1:even:2], rows[:even:2])
        rows = np.concatenate((pairs, rows[even:])) if len(rows) & 1 else pairs
    return rows[0]


def _rb_block(noisy: np.ndarray, ideal: np.ndarray, picks: np.ndarray,
              errors: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's products after a block of steps, by lookup.

    ``noisy`` and ``ideal`` are the group indices of each sequence's
    product so far with and without errors.  ``picks`` holds one row of
    Cliffords per step, first step first, and ``errors`` the Pauli error
    that follows each pick, the identity 0 where none struck (None: no
    errors at all).  Both products are folded by ``_fold``; the noisy
    one's first level pairs each pick with its error.  All arrays are
    ``uint16``.
    """
    import numpy as np

    steps = picks if errors is None else _times(errors, picks)
    return (_fold(np.concatenate((noisy[None], steps))),
            _fold(np.concatenate((ideal[None], picks))))


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

    All sequences of one length run together as arrays of group indices,
    so each trajectory is followed exactly, with no amplitudes.  Their
    steps come in blocks of at most ``RB_BLOCK`` (step x sequence) slots
    (one step when ``n_sequences`` is larger): one draw of a block's
    picks, one of where its errors strike and one of which Pauli each is
    (none at d = 0), then ``_rb_block``.  The closing inverse is a block of
    one step.  Memory is proportional to the larger of ``RB_BLOCK`` and
    ``n_sequences``, whatever the lengths.  An ``n_sequences`` whose
    float64 draw of one step numpy cannot size (8 bytes each past
    ``sys.maxsize``) raises ``ResourceError`` before any draw, and so do
    more than ``MAX_RB_CLIFFORDS`` slots in all.
    """
    import numpy as np

    lengths = tuple(check_int(m, "sequence length") for m in lengths)
    if len(lengths) < 3:
        raise DomainError("need at least 3 sequence lengths to fit the decay")
    if any(m < 1 for m in lengths) or any(
            b <= a for a, b in zip(lengths, lengths[1:])):
        raise DomainError("lengths must be positive and strictly increasing")
    n = check_shots(n_sequences, "n_sequences")
    if n * 8 > sys.maxsize:  # numpy could not size one step's float64 draw
        raise ResourceError(f"n_sequences {show(n)} exceeds {sys.maxsize // 8}, "
                            "the most whose float64 draw numpy can size")
    cliffords = n * sum(m + 1 for m in lengths)
    if cliffords > MAX_RB_CLIFFORDS:
        raise ResourceError(f"{show(cliffords)} Clifford slots exceed the RB "
                            f"limit of {MAX_RB_CLIFFORDS}")
    shots = check_shots(shots)
    d = noise.depolarizing_prob
    rng = make_rng(seed)
    tables = _clifford_tables()
    per_block = max(RB_BLOCK // n, 1)
    mean_fidelity = []
    for m in lengths:
        noisy = ideal = np.zeros(n, np.uint16)
        for done in [*range(0, m, per_block), m]:  # at m: the closing inverse
            picks = (rng.integers(0, 24, (min(per_block, m - done), n), np.uint16)
                     if done < m else tables.inv[ideal].astype(np.uint16)[None])
            errors = None
            if d:
                hit = rng.random(picks.shape) < d
                errors = np.zeros(picks.shape, np.uint16)
                errors[hit] = tables.pauli[rng.integers(3, size=int(hit.sum()))]
            noisy, ideal = _rb_block(noisy, ideal, picks, errors)
        zeros = rng.binomial(shots, tables.p0[noisy])
        mean_fidelity.append(float(zeros.mean() / shots))
    fit = fit_exponential_decay(list(zip(lengths, mean_fidelity)))
    return RBResult(lengths, tuple(mean_fidelity), fit.A, fit.B, fit.p,
                    error_per_gate=(1.0 - fit.p) / 2.0)


def fit_exponential_decay(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares fit of f = A*p^m + B by variable projection (Golub and
    Pereyra, SIAM J. Numer. Anal. 10, 1973): A and B in closed form for each p,
    and p alone searched over [1e-9, 1] on 401 points evenly spaced in
    ln(-ln p), then eight times on 65 across the two cells around the best, by
    squared residuals summed directly.  The fit is to p^(m - m0) - 1 (m0 the
    least m, or 0), exact near p = 1 by ``expm1`` and in [-1, 0] however small
    p^m is; a p whose A is not finite is skipped.  Constant data takes the p=1
    branch with B equal to the constant, so noiseless runs report p exactly 1.
    ``points`` is read once, so an iterator will do.  An m or f that is not a
    finite real number (see ``check_real``) raises ``DomainError``.  FitError
    is raised for fewer than three points or two distinct m values, or when no
    p separates A from B with a finite residual.
    """
    import numpy as np

    pairs = [(check_real(m, "sequence length"), check_real(f, "survival"))
             for m, f in points]
    for pair in pairs:
        if not all(map(isfinite, pair)):
            raise DomainError(f"point {pair} is not finite")
    ms = np.array([m for m, _ in pairs])
    fs = np.array([f for _, f in pairs])
    if len(pairs) < 3:
        raise FitError("need at least 3 points")
    if len(np.unique(ms)) < 2:
        raise FitError("need at least 2 distinct sequence lengths")
    if np.allclose(fs, fs[0], atol=1e-12):
        return FitResult(A=0.0, B=float(fs[0]), p=1.0, residual=0.0)
    n = len(pairs)
    m0, mean = max(ms.min(), 0.0), fs.sum() / n
    dev, steps = (fs - mean)[:, None], (ms - m0)[:, None]  # a row per m
    lo, hi = -37.0, log(-log(1e-9))  # p from 1 - 2^-53 (below 1) to 1e-9
    with np.errstate(all="ignore"):  # an overflow shows in the residual
        for size in (401,) + (65,) * 8:
            t = np.linspace(lo, hi, size)
            p = np.exp(-np.exp(t))
            w = np.expm1(steps * np.log(p))  # a column per p
            wc = w - w.sum(axis=0) / n
            slope = (wc * dev).sum(axis=0) / (wc * wc).sum(axis=0)
            a = slope / p ** m0
            sse = ((dev - slope * wc) ** 2).sum(axis=0)
            i = int(np.lexsort((sse, ~np.isfinite(a)))[0])  # finite A first
            lo, hi = t[max(i - 1, 0)], t[min(i + 1, size - 1)]
    residual = sqrt(sse[i])
    if not (isfinite(a[i]) and isfinite(residual)):
        raise FitError("no p in [1e-9, 1] separates A from B with a finite "
                       "residual")
    b = mean - slope[i] * (1.0 + w[:, i].sum() / n)
    return FitResult(float(a[i]), float(b), float(p[i]), residual)


def oracle_adder(n: int) -> Oracle:
    """(a, b) -> b reads (a+b) mod 2^n and z the carry."""
    def f(v):
        total = v["a"] + v["b"]
        return {"b": total % (1 << n), "z": total >> n}
    return f


def oracle_subtractor(n: int) -> Oracle:
    """(a, b) -> b reads (b-a) mod 2^n.  On ``uint64`` arrays the
    difference wraps mod 2^64, which 2^n divides."""
    def f(v):
        return {"b": (v["b"] - v["a"]) % (1 << n)}
    return f


def oracle_ctrl_add(n: int) -> Oracle:
    """(ctrl, a, b) -> b reads (b + ctrl*a) mod 2^n and z the carry."""
    def f(v):
        total = v["b"] + v["ctrl"] * v["a"]
        return {"b": total % (1 << n), "z": total >> n}
    return f


def oracle_multiplier(n: int) -> Oracle:
    """(a, b) -> p reads a*b."""
    def f(v):
        return {"p": v["a"] * v["b"]}
    return f


def oracle_taylor(n: int) -> Oracle:
    """x -> y4 reads (fc + fp*(x-c) + fpp*(x-c)^2) mod 2^n.  On ``uint64``
    arrays every step wraps mod 2^64, which 2^n divides."""
    def f(v):
        delta = v["x"] - v["c"]
        y4 = (v["fc"] + v["fp"] * delta + v["fpp"] * delta * delta) % (1 << n)
        return {"y4": y4}
    return f


ORACLES: dict[str, Callable[[int], Oracle]] = {
    "adder": oracle_adder,
    "sub": oracle_subtractor,
    "ctrladd": oracle_ctrl_add,
    "mul": oracle_multiplier,
    "taylor": oracle_taylor,
}
