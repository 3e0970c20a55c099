"""Circuit IR: inversion, lowering, scheduling, metrics, text format and
the evaluators.

Circuit text format (bit exact, UTF-8, newline terminated):

    qubits N
    register <name> <lo>..<hi> <role>     # zero or more, roles below
    <mnemonic> <q> [<q> ...]              # one gate per line

Gate lines use the mnemonics h, t, tdg, s, sdg, x, cnot, swap, ccx, cswap.
Every number (qubit count, register bounds, qubit operands) is at most
``MAX_DIGITS`` ASCII decimal digits, ``[0-9]+``.  ``#`` starts a comment
that runs to end of line; blank lines are ignored.  Register roles are
input, ancilla, output, garbage and restored-input; ancilla registers
must enter the circuit holding the constant 0.  Unknown mnemonics or
roles are hard errors.  A register name is one token with no ``#``, so
every layout the format carries parses back as written.

Evaluators: ``sparse_evaluate`` runs any circuit exactly on one basis
input at any width (``permutation_output`` reads its one output);
``run_columns`` runs a permutation circuit on a batch of bit columns;
``simulate`` builds a statevector of at most 24 qubits.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Sequence

from . import gates as G
from .errors import (MAX_DIGITS, DomainError, ParseError, ResourceError,
                     check_count, check_index, check_int, parse_int, show)
from .gates import H_SCALE, Gate
from .state import StateVector, apply_gate_inplace, check_width

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
    ``start`` and ``size`` are stored as Python ints (see
    ``errors.check_int``).
    """

    name: str
    start: int
    size: int
    role: str

    def __post_init__(self):
        if (not isinstance(self.name, str) or self.name.split() != [self.name]
                or "#" in self.name):
            raise DomainError(f"register name {self.name!r} is not one token "
                              "without '#'")
        for what in ("start", "size"):
            object.__setattr__(self, what, check_int(
                getattr(self, what), f"register {self.name} {what}"))
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
                    f"registers do not partition the qubit range at {show(r.start)}"
                )
            cursor = r.stop
        if cursor != n_qubits:
            raise DomainError("registers do not cover every qubit")

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise DomainError(f"no register named {name!r}")

    def decode(self, index: int) -> dict[str, int]:
        """Each register's value in a basis index, in register order.  The
        index is checked by ``errors.check_index`` over the layout's width,
        its largest register stop.  The bits above a register are shifted
        out rather than masked, so the cost follows the index."""
        width = max((r.stop for r in self.registers), default=0)
        index = check_index(width, index)
        return {r.name: (index >> r.start) ^ (index >> r.stop << r.size)
                for r in self.registers}


def default_layout(n_qubits: int) -> RegisterLayout:
    return RegisterLayout((Register("q", 0, n_qubits, "input"),))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a register-structured qubit space.

    ``n_qubits`` is stored as a Python int (see ``errors.check_count``)."""

    n_qubits: int
    ops: tuple[Gate, ...] = ()
    layout: RegisterLayout = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits",
                           check_count(self.n_qubits, "qubit count"))
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.layout is None:
            object.__setattr__(self, "layout", default_layout(self.n_qubits))
        self.layout.validate(self.n_qubits)
        n = self.n_qubits
        qubits = chain.from_iterable(map(attrgetter("qubits"), self.ops))
        if self.ops and max(qubits) >= n:
            g = next(g for g in self.ops if max(g.qubits) >= n)
            raise DomainError(
                f"gate {g.kind} {show(g.qubits)} exceeds {show(n)} qubits")


def _derived_circuit(n_qubits: int, ops: tuple[Gate, ...],
                     layout: RegisterLayout) -> Circuit:
    """A ``Circuit`` made without ``__post_init__``'s checks, for a
    caller that already holds them: ``n_qubits`` is positive, ``layout``
    partitions it, and every op fits it.  Only ``inverse_circuit``,
    ``lower_to_clifford_t`` (whose ops use the input circuit's qubits)
    and ``parse`` (which range-checks every distinct gate line) call it."""
    c = object.__new__(Circuit)
    object.__setattr__(c, "n_qubits", n_qubits)
    object.__setattr__(c, "ops", ops)
    object.__setattr__(c, "layout", layout)
    return c


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
        return {**vars(self),
                "gate_histogram": dict(sorted(self.gate_histogram.items()))}

    def to_text(self) -> str:
        """``to_dict`` as lines, each histogram entry as ``gate.<kind>``."""
        fields = self.to_dict()
        fields.update((f"gate.{kind}", count) for kind, count
                      in fields.pop("gate_histogram").items())
        return "".join(f"{name}: {value}\n" for name, value in fields.items())


def inverse_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate.  The result acts on
    the qubits and layout of ``c``, so it is not checked again."""
    return _derived_circuit(c.n_qubits, tuple(map(G.inverse, reversed(c.ops))),
                            c.layout)


# Every kind as the Clifford+T steps it lowers to, each step a
# (kind, operand positions) pair: swap is three ("cnot", ...) steps on
# positions (0, 1), (1, 0), (0, 1) of the swapped qubits.  Read off the
# ``decompose_*`` functions on wires 0, 1, 2, so the lowering has one
# source; a Clifford+T kind is its own one step.
_DECOMPOSE = {"swap": G.decompose_swap, "ccx": G.decompose_toffoli,
              "cswap": G.decompose_fredkin}
TEMPLATES = {
    kind: tuple((step.kind, step.qubits)
                for step in _DECOMPOSE[kind](*range(arity)))
    if kind in _DECOMPOSE else ((kind, tuple(range(arity))),)
    for kind, arity in G.GATE_ARITY.items()
}

# Each step's operand positions as a getter that picks its qubits out of
# a gate's qubit tuple (a one-element slice keeps one operand a tuple).
_STEP_OPERANDS = {
    kind: tuple((step, itemgetter(*where) if len(where) > 1
                 else itemgetter(slice(where[0], where[0] + 1)))
                for step, where in template)
    for kind, template in TEMPLATES.items()
}


def lower_to_clifford_t(c: Circuit) -> Circuit:
    """Expand SWAP, Toffoli and Fredkin into Clifford+T primitives.

    Output gates all lie in {h, t, tdg, s, sdg, x, cnot}.  The lowering is
    exact: every template has the unitary of its gate, with no global
    phase, so ``sparse_evaluate`` gives the same map on the circuit and
    its lowering for every basis input.  Each distinct gate is
    expanded once per call by mapping its kind's ``TEMPLATES`` steps onto
    its qubits, and each distinct lowered gate is built once per call and
    shared wherever it recurs (gates are immutable, so sharing them is
    safe).  The lowered gates take their operands from an input gate at
    the distinct positions of a template step (``decompose_*`` builds each
    step as a checked ``Gate`` at import), and the output keeps the
    input's qubits and layout, so neither is checked again.
    """
    out: list[Gate] = []
    built: dict[tuple[str, tuple[int, ...]], Gate] = {}
    expansions: dict[tuple[str, tuple[int, ...]], list[Gate]] = {}
    for g in c.ops:
        key = (g.kind, g.qubits)
        steps = expansions.get(key)
        if steps is None:
            steps = expansions[key] = []
            for kind, operands in _STEP_OPERANDS[g.kind]:
                step_key = (kind, operands(g.qubits))
                step = built.get(step_key)
                if step is None:
                    step = built[step_key] = G._derived_gate(*step_key)
                steps.append(step)
        out.extend(steps)
    return _derived_circuit(c.n_qubits, tuple(out), c.layout)


def _place(frontier: dict[int, int], qubits: Sequence[int]) -> int:
    """ASAP placement of one gate: the layer after the latest layer that
    holds any of its qubits.  Records the gate there in ``frontier`` (qubit
    -> layer of its last gate) and returns the layer."""
    at = max([frontier.get(q, -1) for q in qubits]) + 1
    for q in qubits:
        frontier[q] = at
    return at


def _offsets(template, arity: int
             ) -> tuple[tuple[tuple[int, int], ...], int] | None:
    """One template's costing table ``(rows, shift)``, derived with ``_place``.

    Placed ASAP after entry layers ``entry`` (the last gate on each
    operand, -1 for none) whose latest is ``top``, each T or T-dagger step
    lands on ``(entry + [top])[i] + d`` for a row ``(i, d)``: i is the one
    operand the step follows, or ``arity`` when it follows every operand
    by d.  Every operand exits at ``top + shift``.  Placing the steps from
    operand i at 0 and every other operand further back than the template
    is long reads off each step's distance from operand i (negative where
    it does not follow i).  A template of any other shape has no table
    and gives None.
    """
    behind = -len(template) - 1
    columns, exits = [], set()
    for i in range(arity):
        frontier = {j: 0 if j == i else behind for j in range(arity)}
        columns.append([_place(frontier, where) for _, where in template])
        exits.update(frontier.values())
    rows = []
    for (kind, _), row in zip(template, zip(*columns)):
        if kind not in ("t", "tdg"):
            continue
        depends = [(i, d) for i, d in enumerate(row) if d >= 0]
        if len(set(row)) == 1:
            rows.append((arity, row[0]))
        elif len(depends) == 1:
            rows.append(depends[0])
        else:
            return None
    if len(exits) != 1:
        return None
    return tuple(dict.fromkeys(rows)), exits.pop()


#: kind -> its costing table ``(rows, shift)``, for each kind whose
#: template ``_offsets`` can tabulate (every kind but Fredkin).
OFFSETS = {kind: table for kind, arity in G.GATE_ARITY.items()
           if (table := _offsets(TEMPLATES[kind], arity)) is not None}


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
    garbage counts sum the sizes of the registers of those roles.  The
    lowering is never built.  A gate of a kind with an ``OFFSETS`` table
    reads the frontier of its qubits once, takes ``top``, the latest of
    those entry layers, adds the layer of each of its kind's distinct T
    rows to the T layers, and moves every qubit to ``top`` plus one shift
    (see ``_offsets``).  A gate of any other kind (only Fredkin) places
    its ``TEMPLATES`` steps one by one with ``_place``.  Either way the
    result equals scheduling the built lowering with ``schedule_layers``.
    """
    kinds = Counter(g.kind for g in c.ops)
    hist: Counter[str] = Counter()
    for kind, count in kinds.items():
        for step, _ in TEMPLATES[kind]:
            hist[step] += count
    frontier: dict[int, int] = {}
    get = frontier.get
    t_layers = set()
    add_t = t_layers.add
    for g in c.ops:
        q = g.qubits
        table = OFFSETS.get(g.kind)
        if table is None:
            for step, operands in _STEP_OPERANDS[g.kind]:
                at = _place(frontier, operands(q))
                if step in ("t", "tdg"):
                    add_t(at)
            continue
        entry = [get(x, -1) for x in q]
        top = max(entry)
        entry.append(top)
        rows, shift = table
        for i, d in rows:
            add_t(entry[i] + d)
        top += shift
        for x in q:
            frontier[x] = top
    registers = c.layout.registers
    return ResourceReport(
        t_count=hist["t"] + hist["tdg"],
        t_depth=len(t_layers),
        depth=max(frontier.values(), default=-1) + 1,
        qubit_cost=c.n_qubits,
        ancilla_count=sum(r.size for r in registers if r.role == "ancilla"),
        garbage_count=sum(r.size for r in registers if r.role == "garbage"),
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


def parse(text: str) -> Circuit:
    """Parse the text format back into a circuit.

    ``parse(serialize(c))`` is structurally identical to ``c``.  Errors
    report the offending line number and reason; ``Gate`` and ``Register``
    check their own fields.  Each distinct line is read once per call (a
    recurring gate line reuses its ``Gate``), and each operand token once:
    the memo starts with the first 1,024 qubits as ``serialize`` spells
    them and reads any other token by ``parse_int``.  A line of a wrong
    arity or with a repeated operand goes to ``Gate`` for its message,
    then the width is checked, so only the layout is validated at the end.
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
        kind = tokens[0]
        if n_qubits is None:
            if kind != "qubits" or len(tokens) != 2:
                raise ParseError(lineno, "expected 'qubits N' header")
            n_qubits = parse_int(tokens[1], lineno, "qubit count")
            if n_qubits < 1:
                raise ParseError(lineno, "qubit count must be positive")
            # the first qubits as serialize spells them
            memo = {str(q): q for q in range(min(n_qubits, 1024))}
            continue
        if kind == "qubits":
            raise ParseError(lineno, "duplicate 'qubits' header")
        try:
            if kind == "register":
                if len(tokens) != 4:
                    raise ParseError(lineno,
                                     "expected 'register name lo..hi role'")
                _, name, span, role = tokens
                lo_hi = span.split("..")
                if len(lo_hi) != 2:
                    raise ParseError(lineno,
                                     f"malformed register range {span!r}")
                lo = parse_int(lo_hi[0], lineno, "register low index")
                hi = parse_int(lo_hi[1], lineno, "register high index")
                if not 0 <= lo <= hi < n_qubits:
                    raise ParseError(lineno,
                                     f"register range {span} out of bounds")
                if not registers:
                    first_register_line = lineno
                registers.append(Register(name, lo, hi - lo + 1, role))
                continue
            operands = tokens[1:]
            # a memo token is below the width, or was read on a line that
            # fit (any other ends the parse): only new tokens are checked
            try:
                qubits = tuple(map(memo.__getitem__, operands))
                wide = False
            except KeyError:  # a token not read yet
                for token in operands:
                    if token not in memo:
                        memo[token] = parse_int(token, lineno, "qubit index")
                qubits = tuple(map(memo.__getitem__, operands))
                wide = max(qubits) >= n_qubits
            if (G.GATE_ARITY.get(kind) != len(qubits)
                    or len(set(qubits)) != len(qubits)):
                Gate(kind, qubits)
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
        if wide:
            raise ParseError(lineno, f"qubit index out of range in {line!r}")
        gate = gates[raw] = G._derived_gate(kind, qubits)
        ops.append(gate)
    if n_qubits is None:
        raise ParseError(0, "missing 'qubits' header")
    layout = (RegisterLayout(tuple(registers)) if registers
              else default_layout(n_qubits))
    try:
        layout.validate(n_qubits)
    except DomainError as exc:
        raise ParseError(first_register_line, str(exc)) from None
    return _derived_circuit(n_qubits, tuple(ops), layout)


# Exact amplitudes for basis-input runs.  A coefficient is a 4-tuple of
# integers (a, b, c, d) standing for a + b*w + c*w^2 + d*w^3 with
# w = e^{i pi/4}: an element of Z[w], the ring of Giles and Selinger
# (arXiv:1212.0822).  A sparse state is two parallel lists, basis indices
# and their coefficients, sharing one exponent k, so the amplitude at
# idx[e] is coef[e] / sqrt(2)^k.  T, S and their daggers multiply by a
# power of w, which only rotates a tuple; every permutation gate only moves
# indices, distinct to distinct.  Neither can merge or cancel entries, so
# both update the lists where they sit.  H adds and subtracts coefficients
# and raises k by one, and is the one gate that builds a new state.
_ONE = (1, 0, 0, 0)
_ROTATE = {
    "t": lambda v: (-v[3], v[0], v[1], v[2]),     # * w
    "s": lambda v: (-v[2], -v[3], v[0], v[1]),    # * w^2 = i
    "sdg": lambda v: (v[2], v[3], -v[0], -v[1]),  # * w^6 = -i
    "tdg": lambda v: (v[1], v[2], v[3], -v[0]),   # * w^7
}


def _hadamard(idx: list[int], coef: list[tuple], k: int,
              m: int) -> tuple[list[int], list[tuple], int]:
    """H on the qubit of mask ``m``: |0> -> |0>+|1>, |1> -> |0>-|1>, with
    the 1/sqrt(2) in the exponent.  Each pair j, j ^ m is combined where
    its first entry stands, its |0> output before its |1> output.  Entries
    that cancel exactly are dropped, then every coefficient is divided by
    sqrt(2) for as long as all of them allow it (a + b w + c w^2 + d w^3 is
    a multiple of sqrt(2) = w - w^3 exactly when a = c and b = d mod 2), so
    k is the least exponent that holds the state and each state has one
    form."""
    where = dict(zip(idx, range(len(idx))))
    out_idx: list[int] = []
    out_coef: list[tuple] = []
    for e, j in enumerate(idx):
        p = where.get(j ^ m, -1)
        if p < 0:  # the partner holds 0, so nothing cancels
            v = coef[e]
            out_idx.append(j & ~m)
            out_coef.append(v)
            out_idx.append(j | m)
            out_coef.append((-v[0], -v[1], -v[2], -v[3]) if j & m else v)
            continue
        if p < e:  # combined at the partner's place
            continue
        v, w = (coef[p], coef[e]) if j & m else (coef[e], coef[p])
        lo = (v[0] + w[0], v[1] + w[1], v[2] + w[2], v[3] + w[3])
        hi = (v[0] - w[0], v[1] - w[1], v[2] - w[2], v[3] - w[3])
        if any(lo):
            out_idx.append(j & ~m)
            out_coef.append(lo)
        if any(hi):
            out_idx.append(j | m)
            out_coef.append(hi)
    k += 1
    while k:
        for a, b, c, d in out_coef:
            if (a ^ c | b ^ d) & 1:
                return out_idx, out_coef, k
        out_coef = [((b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1)
                    for a, b, c, d in out_coef]
        k -= 1
    return out_idx, out_coef, k


def _run_sparse(ops: Sequence[Gate], input_basis: int,
                limit: int) -> tuple[dict[int, tuple], int, int]:
    """Apply ``ops`` to the basis state ``input_basis`` until done or until
    an H leaves more than ``limit`` entries.  Returns the state as a map
    from basis index to coefficient, its exponent and the number of gates
    applied.  Only H can grow the support, and no amplitude is ever
    rounded."""
    idx, coef, k = [input_basis], [_ONE], 0
    for i, g in enumerate(ops):
        kind = g.kind
        q = g.qubits
        if kind == "cnot":
            c, t = 1 << q[0], 1 << q[1]
            for e, j in enumerate(idx):
                if j & c:
                    idx[e] = j ^ t
        elif kind in _ROTATE:
            m, rot = 1 << q[0], _ROTATE[kind]
            for e, j in enumerate(idx):
                if j & m:
                    coef[e] = rot(coef[e])
        elif kind == "h":
            idx, coef, k = _hadamard(idx, coef, k, 1 << q[0])
            if len(idx) > limit:
                return dict(zip(idx, coef)), k, i + 1
        elif kind == "x":
            t = 1 << q[0]
            for e, j in enumerate(idx):
                idx[e] = j ^ t
        elif kind == "ccx":
            c, t = 1 << q[0] | 1 << q[1], 1 << q[2]
            for e, j in enumerate(idx):
                if j & c == c:
                    idx[e] = j ^ t
        else:  # swap, cswap: exchange the last two bits where they differ
            *controls, p, r = q
            c, pr = 1 << controls[0] if controls else 0, 1 << p | 1 << r
            for e, j in enumerate(idx):
                if j & c == c and (j >> p ^ j >> r) & 1:
                    idx[e] = j ^ pr
    return dict(zip(idx, coef)), k, len(ops)


def _to_complex(v: tuple, k: int) -> complex:
    """The amplitude (a + b w + c w^2 + d w^3) / sqrt(2)^k as a complex.

    w = (1+i)/sqrt(2), so the real part is a + (b-d)/sqrt(2) and the
    imaginary part c + (b+d)/sqrt(2).  Integers are divided by the power
    of two exactly (int / int rounds once), so no coefficient overflows a
    float however many H gates the run held.  1/sqrt(2) is the dense
    kernel's own ``H_SCALE``, so converted and dense amplitudes round
    alike."""
    a, b, c, d = v
    half = 1 << (k >> 1)
    if k & 1:
        return complex(a / half * H_SCALE + (b - d) / (2 * half),
                       c / half * H_SCALE + (b + d) / (2 * half))
    return complex(a / half + (b - d) / half * H_SCALE,
                   c / half + (b + d) / half * H_SCALE)


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
    input_basis = check_index(c.n_qubits, input_basis)
    amps, k, applied = _run_sparse(c.ops, input_basis, MAX_SPARSE_SUPPORT)
    if len(amps) > MAX_SPARSE_SUPPORT:  # the last gate may have grown it
        raise ResourceError(
            f"more than {MAX_SPARSE_SUPPORT} basis states in superposition "
            f"after gate {applied - 1} exceeds the sparse evaluator's limit")
    return amps, k


def _spill_support(n_qubits: int) -> int:
    """Support past which ``simulate`` switches to the dense kernel.

    On one core of a 2.1 GHz Xeon (Python 3.11), a sparse gate costs
    about 0.1 to 0.2 us per basis state held, a dense one about 1.3 to
    1.8 ns per amplitude plus 5 us of numpy calls.  On lowered adder n=6
    (13 qubits) with 2^6 = 2^13 / 128 basis states in superposition, the
    rest of the run takes 1.5 ms sparse and 2.9 ms dense, so at this
    point the sparse side is the faster one.
    The point stays where the two met before permutation and phase gates
    updated entries in place: moving it changes which kernel rounds the
    amplitudes, so ``sim`` output could change.  Below 2^8 amplitudes the
    first H spills.
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
    import numpy as np

    n = c.n_qubits
    input_basis = check_index(n, input_basis)
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
    return G.PERMUTATION_KINDS.issuperset(map(attrgetter("kind"), c.ops))


def run_columns(c: Circuit, cols: list[int], n_rows: int) -> None:
    """Apply a permutation circuit to ``n_rows`` bit columns in place.

    Bit r of column q is qubit q of row r (Biham, FSE 1997), so each gate
    acts on all rows at once: X complements its column, CNOT and Toffoli
    XOR the AND of their controls into the target, and SWAP and Fredkin
    exchange the two columns where (controlled) they differ.  Any other
    gate, a row count below 1, fewer columns than qubits, or a column that
    is not an integer (see ``errors.check_int``) in [0, 2^n_rows) raises
    ``DomainError``, the columns checked once, before any gate runs.  A
    row count past ``sys.maxsize`` raises ``ResourceError``.
    """
    n_rows = check_count(n_rows, "row count")
    if n_rows > sys.maxsize:
        raise ResourceError(f"{show(n_rows)} rows exceeds what a column holds")
    if len(cols) < c.n_qubits:
        raise DomainError(f"{len(cols)} columns for {show(c.n_qubits)} qubits")
    for i, col in enumerate(cols):
        cols[i] = col = check_int(col, f"column {i}")
        if col < 0 or col >> n_rows:
            raise DomainError(f"column {i} is outside [0, 2^{show(n_rows)})")
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
