"""Circuit IR: composition, lowering, scheduling, metrics, text format and
the evaluators.

Circuit text format (bit exact, UTF-8, newline terminated):

    qubits N
    register <name> <lo>..<hi> <role>     # zero or more, roles below
    <mnemonic> <q> [<q> ...]              # one gate per line

Gate lines use the mnemonics h, t, tdg, s, sdg, x, cnot, swap, ccx, cswap.
Every number (qubit count, register bounds, qubit operands) is ASCII
decimal digits only, ``[0-9]+``.  ``#`` starts a comment that runs to end
of line; blank lines are ignored.  Register roles are input, ancilla, output,
garbage and restored-input; ancilla registers must enter the circuit
holding the constant 0.  Unknown mnemonics or roles are hard errors.  A
register name is one token with no ``#``, so every layout the format
carries parses back as written.

Evaluators: ``sparse_evaluate`` runs any circuit exactly on one basis
input at any width (``permutation_output`` reads its one output);
``run_columns`` runs a permutation circuit on a batch of bit columns;
``simulate`` builds a statevector of at most 24 qubits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from . import gates as G
from .errors import DomainError, ParseError, ResourceError
from .gates import Gate
from .state import (_H_SCALE, StateVector, apply_gate_inplace, check_index,
                    check_width)

ROLES = ("input", "ancilla", "output", "garbage", "restored-input")

#: Most basis states the exact sparse evaluator holds in superposition.
#: A lowered permutation circuit on a basis input holds at most 2, at any
#: width; a run that grows past this raises ``ResourceError``.
MAX_SPARSE_SUPPORT = 1 << 16


@dataclass(frozen=True)
class Register:
    """A named, contiguous run of qubits with a declared role.

    Bit i of the register value lives on qubit ``start + i`` (little
    endian).  Registers with role ``ancilla`` require initial value 0.  The
    name must be one text-format token: not empty, no whitespace, no ``#``.
    """

    name: str
    start: int
    size: int
    role: str

    def __post_init__(self):
        if self.name.split() != [self.name] or "#" in self.name:
            raise DomainError(f"register name {self.name!r} is not one token "
                              "without '#'")
        if self.size < 1 or self.start < 0:
            raise DomainError(f"bad register extent {self.name}")
        if self.role not in ROLES:
            raise DomainError(f"unknown register role {self.role!r}")

    @property
    def stop(self) -> int:
        return self.start + self.size

    def qubits(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered register list; must partition [0, n_qubits) exactly."""

    registers: tuple[Register, ...]

    def validate(self, n_qubits: int) -> None:
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise DomainError("duplicate register name")
        covered = sorted(self.registers, key=lambda r: r.start)
        cursor = 0
        for r in covered:
            if r.start != cursor:
                raise DomainError(
                    f"registers do not partition the qubit range at {r.start}"
                )
            cursor = r.stop
        if cursor != n_qubits:
            raise DomainError("registers do not cover every qubit")

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise DomainError(f"no register named {name!r}")

    def qubits_with_role(self, role: str) -> list[int]:
        return [q for r in self.registers if r.role == role for q in r.qubits()]

    def decode(self, index: int) -> dict[str, int]:
        """Each register's value in a basis index, in register order.  The
        bits above a register are shifted out rather than masked, so the
        cost follows the index, not the register width."""
        return {r.name: (index >> r.start) ^ (index >> r.stop << r.size)
                for r in self.registers}


def default_layout(n_qubits: int) -> RegisterLayout:
    return RegisterLayout((Register("q", 0, n_qubits, "input"),))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a register-structured qubit space."""

    n_qubits: int
    ops: tuple[Gate, ...] = ()
    layout: RegisterLayout = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise DomainError("circuit needs at least one qubit")
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.layout is None:
            object.__setattr__(self, "layout", default_layout(self.n_qubits))
        self.layout.validate(self.n_qubits)
        n = self.n_qubits
        qubits = chain.from_iterable(map(attrgetter("qubits"), self.ops))
        if self.ops and max(qubits) >= n:
            g = next(g for g in self.ops if max(g.qubits) >= n)
            raise DomainError(f"gate {g.kind} {g.qubits} exceeds {n} qubits")


@dataclass(frozen=True)
class ResourceReport:
    """Fault-tolerance cost metrics of a circuit after Clifford+T lowering."""

    t_count: int
    t_depth: int
    depth: int
    qubit_cost: int
    ancilla_count: int
    garbage_count: int
    gate_histogram: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "t_count": self.t_count,
            "t_depth": self.t_depth,
            "depth": self.depth,
            "qubit_cost": self.qubit_cost,
            "ancilla_count": self.ancilla_count,
            "garbage_count": self.garbage_count,
            "gate_histogram": dict(sorted(self.gate_histogram.items())),
        }

    def to_text(self) -> str:
        lines = [
            f"t_count: {self.t_count}",
            f"t_depth: {self.t_depth}",
            f"depth: {self.depth}",
            f"qubit_cost: {self.qubit_cost}",
            f"ancilla_count: {self.ancilla_count}",
            f"garbage_count: {self.garbage_count}",
        ]
        for kind in sorted(self.gate_histogram):
            lines.append(f"gate.{kind}: {self.gate_histogram[kind]}")
        return "\n".join(lines) + "\n"


def compose(a: Circuit, b: Circuit, qubit_map: dict[int, int] | None = None,
            layout: RegisterLayout | None = None) -> Circuit:
    """Concatenate two circuits, optionally embedding ``b`` via a qubit map.

    Without a map the circuits must have equal width.  The merged layout is
    the caller's to supply (generators know their register roles); it
    defaults to the layout of ``a``.
    """
    if qubit_map is None:
        if a.n_qubits != b.n_qubits:
            raise DomainError("qubit counts differ and no qubit map given")
        mapped = b.ops
    else:
        if len(set(qubit_map.values())) != len(qubit_map):
            raise DomainError("qubit map collides")
        if set(qubit_map) != set(range(b.n_qubits)):
            raise DomainError("qubit map must cover every qubit of b")
        if any(v >= a.n_qubits or v < 0 for v in qubit_map.values()):
            raise DomainError("qubit map leaves the target circuit")
        mapped = tuple(
            Gate(g.kind, tuple(qubit_map[q] for q in g.qubits)) for g in b.ops
        )
    return Circuit(a.n_qubits, a.ops + tuple(mapped), layout or a.layout)


def inverse_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate."""
    return Circuit(c.n_qubits, tuple(G.inverse(g) for g in reversed(c.ops)), c.layout)


def lower_to_clifford_t(c: Circuit) -> Circuit:
    """Expand SWAP, Toffoli and Fredkin into Clifford+T primitives.

    Output gates all lie in {h, t, tdg, s, sdg, x, cnot}; the circuit is
    functionally unchanged up to one global phase.  Each distinct composite
    gate is decomposed once per call and its expansion reused wherever the
    gate recurs (gates are immutable, so sharing them is safe).
    """
    out: list[Gate] = []
    expansions: dict[tuple[str, tuple[int, ...]], list[Gate]] = {}
    for g in c.ops:
        if g.kind in G.CLIFFORD_T_KINDS:
            out.append(g)
            continue
        key = (g.kind, g.qubits)
        steps = expansions.get(key)
        if steps is None:
            if g.kind == "ccx":
                steps = G.decompose_toffoli(*g.qubits)
            elif g.kind == "cswap":
                steps = G.decompose_fredkin(*g.qubits)
            else:
                steps = G.decompose_swap(*g.qubits)
            expansions[key] = steps
        out.extend(steps)
    return Circuit(c.n_qubits, tuple(out), c.layout)


# Every kind as the Clifford+T steps it lowers to, each step a
# (kind, operand positions) pair: swap is three ("cnot", ...) steps on
# positions (0, 1), (1, 0), (0, 1) of the swapped qubits.  Read off the
# lowering of one gate on wires 0, 1, 2, so they cannot drift from it.
TEMPLATES = {
    kind: tuple((step.kind, step.qubits) for step in lower_to_clifford_t(
        Circuit(arity, (Gate(kind, tuple(range(arity))),))).ops)
    for kind, arity in G.GATE_ARITY.items()
}


def _place(frontier: dict[int, int], qubits: Sequence[int]) -> int:
    """ASAP placement of one gate: the layer after the latest layer that
    holds any of its qubits.  Records the gate there in ``frontier`` (qubit
    -> layer of its last gate) and returns the layer."""
    at = max([frontier.get(q, -1) for q in qubits]) + 1
    for q in qubits:
        frontier[q] = at
    return at


def schedule_layers(c: Circuit) -> list[list[Gate]]:
    """Greedy ASAP schedule: each gate lands in the earliest layer after
    every earlier gate that touches one of its qubits.

    Gates within a layer act on pairwise disjoint qubits, and reading the
    layers in order preserves the per-qubit gate order of the input.  No
    commutation analysis is attempted; parallelism is qubit disjointness
    only.
    """
    layers: list[list[Gate]] = []
    frontier: dict[int, int] = {}
    for g in c.ops:
        at = _place(frontier, g.qubits)
        if at == len(layers):
            layers.append([])
        layers[at].append(g)
    return layers


def resources(c: Circuit) -> ResourceReport:
    """Resource metrics of the Clifford+T lowering of ``c``.

    T-count totals t and tdg gates; T-depth counts schedule layers holding
    at least one of them; depth is the total layer count.  Ancilla and
    garbage counts are read from the register layout.  The lowering is
    never built: each gate is costed from its kind's template
    (``TEMPLATES``), whose steps are scheduled in place as the lowered
    gates would be.
    """
    hist: Counter[str] = Counter()
    for kind, count in Counter(g.kind for g in c.ops).items():
        for step, _ in TEMPLATES[kind]:
            hist[step] += count
    frontier: dict[int, int] = {}
    t_layers = set()
    for g in c.ops:
        q = g.qubits
        for kind, where in TEMPLATES[g.kind]:
            at = _place(frontier, [q[i] for i in where])
            if kind == "t" or kind == "tdg":
                t_layers.add(at)
    return ResourceReport(
        t_count=hist["t"] + hist["tdg"],
        t_depth=len(t_layers),
        depth=max(frontier.values(), default=-1) + 1,
        qubit_cost=c.n_qubits,
        ancilla_count=len(c.layout.qubits_with_role("ancilla")),
        garbage_count=len(c.layout.qubits_with_role("garbage")),
        gate_histogram=dict(hist),
    )


def serialize(c: Circuit) -> str:
    """Render a circuit in the text format (see module docstring).

    Each distinct gate is formatted once per call.
    """
    lines = [f"qubits {c.n_qubits}"]
    for r in c.layout.registers:
        lines.append(f"register {r.name} {r.start}..{r.stop - 1} {r.role}")
    formatted: dict[tuple[str, tuple[int, ...]], str] = {}
    for g in c.ops:
        key = (g.kind, g.qubits)
        line = formatted.get(key)
        if line is None:
            line = formatted[key] = " ".join([g.kind] + [str(q) for q in g.qubits])
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    """An operand in ASCII decimal digits; ``int`` alone would also take
    signs, ``_`` separators and non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(lineno, f"{what} is not an integer: {token!r}")
    return int(token)


def parse(text: str) -> Circuit:
    """Parse the text format back into a circuit.

    ``parse(serialize(c))`` is structurally identical to ``c``.  Errors
    report the offending line number and reason; ``Gate`` and ``Register``
    check their own fields.  Each distinct gate line is checked once per
    call; a line that recurs reuses its ``Gate``.
    """
    n_qubits = None
    registers: list[Register] = []
    first_register_line = 0
    ops: list[Gate] = []
    gates: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = gates.get(raw)
        if gate is not None:
            ops.append(gate)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError(lineno, "expected 'qubits N' header")
            n_qubits = _parse_int(tokens[1], lineno, "qubit count")
            if n_qubits < 1:
                raise ParseError(lineno, "qubit count must be positive")
            continue
        if tokens[0] == "qubits":
            raise ParseError(lineno, "duplicate 'qubits' header")
        try:
            if tokens[0] == "register":
                if len(tokens) != 4:
                    raise ParseError(lineno,
                                     "expected 'register name lo..hi role'")
                _, name, span, role = tokens
                lo_hi = span.split("..")
                if len(lo_hi) != 2:
                    raise ParseError(lineno,
                                     f"malformed register range {span!r}")
                lo = _parse_int(lo_hi[0], lineno, "register low index")
                hi = _parse_int(lo_hi[1], lineno, "register high index")
                if not 0 <= lo <= hi < n_qubits:
                    raise ParseError(lineno,
                                     f"register range {span} out of bounds")
                if not registers:
                    first_register_line = lineno
                registers.append(Register(name, lo, hi - lo + 1, role))
                continue
            qubits = tuple(_parse_int(tok, lineno, "qubit index")
                           for tok in tokens[1:])
            gate = Gate(tokens[0], qubits)
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
        if max(qubits) >= n_qubits:
            raise ParseError(lineno, f"qubit index out of range in {line!r}")
        gates[raw] = gate
        ops.append(gate)
    if n_qubits is None:
        raise ParseError(0, "missing 'qubits' header")
    layout = RegisterLayout(tuple(registers)) if registers else None
    try:
        return Circuit(n_qubits, tuple(ops), layout)
    except DomainError as exc:
        raise ParseError(first_register_line, str(exc)) from None


# Exact amplitudes for basis-input runs.  A coefficient is a 4-tuple of
# integers (a, b, c, d) standing for a + b*w + c*w^2 + d*w^3 with
# w = e^{i pi/4}: an element of Z[w], the ring of Giles and Selinger
# (arXiv:1212.0822).  A sparse state maps basis index -> coefficient and
# shares one exponent k, so the amplitude at j is amps[j] / sqrt(2)^k.
# T, S and their daggers multiply by a power of w, which only rotates the
# tuple; every permutation gate only moves indices; H adds and subtracts
# coefficients and raises k by one.
_ONE = (1, 0, 0, 0)
_ROTATE = {
    "t": lambda v: (-v[3], v[0], v[1], v[2]),     # * w
    "s": lambda v: (-v[2], -v[3], v[0], v[1]),    # * w^2 = i
    "sdg": lambda v: (v[2], v[3], -v[0], -v[1]),  # * w^6 = -i
    "tdg": lambda v: (v[1], v[2], v[3], -v[0]),   # * w^7
}


def _hadamard(amps: dict[int, tuple], k: int, m: int) -> tuple[dict, int]:
    """H on the qubit of mask ``m``: |0> -> |0>+|1>, |1> -> |0>-|1>, with
    the 1/sqrt(2) in the exponent.  Entries that cancel exactly are
    dropped, then every coefficient is divided by sqrt(2) for as long as
    all of them allow it (a + b w + c w^2 + d w^3 is a multiple of
    sqrt(2) = w - w^3 exactly when a = c and b = d mod 2), so k is the
    least exponent that holds the state and each state has one form."""
    out: dict[int, tuple] = {}
    for j, v in amps.items():
        for dst, sign in ((j & ~m, 1), (j | m, -1 if j & m else 1)):
            old = out.get(dst, (0, 0, 0, 0))
            out[dst] = (old[0] + sign * v[0], old[1] + sign * v[1],
                        old[2] + sign * v[2], old[3] + sign * v[3])
    out = {j: v for j, v in out.items() if any(v)}
    k += 1
    while k and not any((a ^ c | b ^ d) & 1 for a, b, c, d in out.values()):
        out = {j: ((b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1)
               for j, (a, b, c, d) in out.items()}
        k -= 1
    return out, k


def _run_sparse(ops: Sequence[Gate], input_basis: int,
                limit: int) -> tuple[dict[int, tuple], int, int]:
    """Apply ``ops`` to the basis state ``input_basis`` until done or until
    an H leaves more than ``limit`` entries.  Returns the state, its
    exponent and the number of gates applied.  Only H can grow the
    support, and no amplitude is ever rounded."""
    amps, k = {input_basis: _ONE}, 0
    for i, g in enumerate(ops):
        kind = g.kind
        q = g.qubits
        if kind == "cnot":
            c, t = 1 << q[0], 1 << q[1]
            amps = {j ^ t if j & c else j: v for j, v in amps.items()}
        elif kind in _ROTATE:
            m, rot = 1 << q[0], _ROTATE[kind]
            amps = {j: rot(v) if j & m else v for j, v in amps.items()}
        elif kind == "h":
            amps, k = _hadamard(amps, k, 1 << q[0])
            if len(amps) > limit:
                return amps, k, i + 1
        elif kind == "x":
            t = 1 << q[0]
            amps = {j ^ t: v for j, v in amps.items()}
        elif kind == "ccx":
            c, t = 1 << q[0] | 1 << q[1], 1 << q[2]
            amps = {j ^ t if j & c == c else j: v for j, v in amps.items()}
        else:  # swap, cswap: exchange the last two bits where they differ
            *controls, p, r = q
            c, pr = sum(1 << x for x in controls), 1 << p | 1 << r
            amps = {j ^ pr if j & c == c and (j >> p ^ j >> r) & 1 else j: v
                    for j, v in amps.items()}
    return amps, k, len(ops)


def _to_complex(v: tuple, k: int) -> complex:
    """The amplitude (a + b w + c w^2 + d w^3) / sqrt(2)^k as a complex.

    w = (1+i)/sqrt(2), so the real part is a + (b-d)/sqrt(2) and the
    imaginary part c + (b+d)/sqrt(2).  Integers are divided by the power
    of two exactly (int / int rounds once), so no coefficient overflows a
    float however many H gates the run held.  1/sqrt(2) is the dense
    kernel's own ``_H_SCALE``, so converted and dense amplitudes round
    alike."""
    a, b, c, d = v
    half = 1 << (k >> 1)
    if k & 1:
        return complex(a / half * _H_SCALE + (b - d) / (2 * half),
                       c / half * _H_SCALE + (b + d) / (2 * half))
    return complex(a / half + (b - d) / half * _H_SCALE,
                   c / half + (b + d) / half * _H_SCALE)


def sparse_evaluate(c: Circuit, input_basis: int) -> tuple[dict[int, tuple], int]:
    """Exact state of ``c`` run on one basis input, at any width.

    Returns ``(amps, k)``: the amplitude at basis index j is
    ``amps[j] / sqrt(2)^k``, with ``amps[j] = (a, b, c, d)`` standing for
    a + b w + c w^2 + d w^3 in Z[w], w = e^{i pi/4}.  Indices missing from
    ``amps`` have amplitude exactly 0, and k is the least exponent that
    holds the state, so equal states give equal results.  A run whose
    support grows past ``MAX_SPARSE_SUPPORT`` basis states raises
    ``ResourceError``.  A lowered permutation circuit never holds more
    than 2: each Toffoli template's two H gates enclose only that
    template.
    """
    check_index(c.n_qubits, input_basis)
    amps, k, applied = _run_sparse(c.ops, input_basis, MAX_SPARSE_SUPPORT)
    if applied < len(c.ops):
        raise ResourceError(
            f"more than {MAX_SPARSE_SUPPORT} basis states in superposition "
            f"after gate {applied - 1} exceeds the sparse evaluator's limit")
    return amps, k


def _spill_support(n_qubits: int) -> int:
    """Support past which ``simulate`` switches to the dense kernel.

    A sparse gate costs about 0.2 us per basis state held, a dense one
    about 1.6 ns per amplitude plus 5 us of numpy calls; on lowered
    adders in superposition the two met near 1/128 of 2^n basis states
    from 13 to 17 qubits.  Below 2^8 amplitudes the first H spills.
    """
    return (1 << n_qubits) >> 7


def simulate(c: Circuit, input_basis: int) -> StateVector:
    """Full statevector of the circuit run on one basis input.

    The run starts on the exact sparse evaluator (see ``sparse_evaluate``)
    and converts its map to a ``StateVector`` once, at the end.  When an H
    gate leaves more basis states in superposition than
    ``_spill_support`` allows for the width, the map is scattered into one
    (2,)*n buffer and the remaining gates are applied to it in place by
    the dense kernel.  Capped at 24 qubits, checked after the input index.
    Pure and reentrant, so distinct basis inputs may be evaluated
    concurrently.
    """
    n = c.n_qubits
    check_index(n, input_basis)
    check_width(n)
    amps, k, applied = _run_sparse(c.ops, input_basis, _spill_support(n))
    vec = np.zeros(1 << n, dtype=complex)
    for j, v in amps.items():
        vec[j] = _to_complex(v, k)
    if applied < len(c.ops):
        psi = vec.reshape((2,) * n)
        for g in c.ops[applied:]:
            apply_gate_inplace(psi, g)
    return StateVector(n, vec)


def is_permutation_circuit(c: Circuit) -> bool:
    """True when every gate is a classical basis permutation (X, CNOT,
    SWAP, Toffoli, Fredkin), so basis states map to basis states with
    amplitude exactly 1."""
    return {g.kind for g in c.ops} <= G.PERMUTATION_KINDS


def run_columns(c: Circuit, cols: list[int], n_rows: int) -> None:
    """Apply a permutation circuit to ``n_rows`` bit columns in place.

    Bit r of column q is qubit q of row r (Biham, FSE 1997), so each gate
    acts on all rows at once: X complements its column, CNOT and Toffoli
    XOR the AND of their controls into the target, and SWAP and Fredkin
    exchange the two columns where (controlled) they differ.  Any other
    gate raises ``DomainError``.
    """
    ones = (1 << n_rows) - 1
    for g in c.ops:
        k = g.kind
        q = g.qubits
        if k == "ccx":
            cols[q[2]] ^= cols[q[0]] & cols[q[1]]
        elif k == "cnot":
            cols[q[1]] ^= cols[q[0]]
        elif k == "x":
            cols[q[0]] ^= ones
        elif k == "swap":
            cols[q[0]], cols[q[1]] = cols[q[1]], cols[q[0]]
        elif k == "cswap":
            d = cols[q[0]] & (cols[q[1]] ^ cols[q[2]])
            cols[q[1]] ^= d
            cols[q[2]] ^= d
        else:
            raise DomainError(f"{k} is not a basis permutation gate")


def permutation_output(c: Circuit, input_basis: int) -> int:
    """Exact basis output of a permutation circuit, at any width.

    The one basis state that ``sparse_evaluate`` leaves: a permutation
    circuit moves a basis input to a basis output with amplitude exactly
    1.  Any other circuit raises ``DomainError``.
    """
    if not is_permutation_circuit(c):
        raise DomainError("permutation_output needs a circuit of X, CNOT, "
                          "SWAP, Toffoli and Fredkin gates only")
    (out,) = sparse_evaluate(c, input_basis)[0]
    return out
