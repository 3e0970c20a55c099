"""Generators for reversible integer arithmetic over {X, CNOT, Toffoli}.

All circuits are garbage-free ripple-carry designs: carries are computed
into the addend register, consumed, and uncomputed in place, so the only
overhead qubits are declared ancillae that enter as 0.  Arithmetic is
modular in the register width.  Registers are contiguous and little
endian (bit i of a register sits on qubit base+i); any wire interleaving
seen in circuit diagrams is purely a drawing order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .circuit import Circuit, Register, RegisterLayout
from .errors import (DomainError, ResourceError, check_count,
                     check_register_value, show)
from .gates import Gate, ccx, cnot, x


#: Most bits the free inputs of an ``ArithInstance`` may hold for
#: ``counter`` and ``input_space``.  Each mask is a Python int as wide as
#: its register, so this keeps them within 2 MiB in all, where a register
#: of 10^11 qubits would need 12.5 GB; a space of 2^(2^24) inputs could
#: never be walked past its first few anyway.
MAX_COUNTER_BITS = 1 << 24


@dataclass(frozen=True)
class ArithInstance:
    """A generated arithmetic circuit plus its integer encoding.

    ``input_names`` lists the registers the caller chooses freely, in
    enumeration order; ``constants`` pins registers to fixed values; every
    other register is an ancilla that must enter as 0.  ``encode`` packs
    named integer values into a basis index and ``decode`` unpacks one.
    ``n_bits`` is stored as a Python int (see ``errors.check_count``),
    ``input_names`` as a tuple of distinct register names, and
    ``constants`` as a read-only mapping of each to a Python int that fits
    its non-input register; anything else raises ``DomainError``.
    """

    n_bits: int
    circuit: Circuit
    input_names: tuple[str, ...]
    constants: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "n_bits", check_count(self.n_bits, "n_bits"))
        layout, names = self.circuit.layout, self.input_names
        if isinstance(names, str):
            raise DomainError(f"input_names {names!r} is a string, not a "
                              "sequence of register names")
        names = tuple(layout.register(name).name for name in names)
        if len(set(names)) < len(names):
            raise DomainError(f"input_names {names} lists a register twice")
        constants = {name: check_register_value(
            value, name, layout.register(name).size)
            for name, value in self.constants.items()}
        if pinned := constants.keys() & set(names):
            raise DomainError(f"constant {min(pinned)} is an input register")
        object.__setattr__(self, "input_names", names)
        object.__setattr__(self, "constants", MappingProxyType(constants))

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return type(self), (self.n_bits, self.circuit, self.input_names,
                            dict(self.constants))

    def encode(self, values: Mapping[str, int]) -> int:
        """Registers missing from ``values`` take their constant, else 0.
        Each name (constants too) goes through ``RegisterLayout.register``
        and each value through ``errors.check_register_value``."""
        basis = 0
        for name, v in {**self.constants, **values}.items():
            r = self.circuit.layout.register(name)
            basis |= check_register_value(v, name, r.size) << r.start
        return basis

    def decode(self, basis_index: int) -> dict[str, int]:
        return self.circuit.layout.decode(basis_index)

    def counter(self) -> list[tuple[str, int, int]]:
        """The odometer over the free inputs: ``(name, shift, mask)`` of
        each input register, in ``input_names`` order, so that counter
        value k assigns ``(k >> shift) & mask`` to each.  The last
        register sits in the low bits and so varies fastest.  Free inputs
        of more than ``MAX_COUNTER_BITS`` bits in all raise
        ``ResourceError`` before any mask is built."""
        sizes = [self.circuit.layout.register(name).size
                 for name in self.input_names]
        if (bits := sum(sizes)) > MAX_COUNTER_BITS:
            raise ResourceError(f"{show(bits)} free input bits exceed the "
                                f"counter limit of {MAX_COUNTER_BITS}")
        fields, shift = [], 0
        for name, size in zip(reversed(self.input_names), reversed(sizes)):
            fields.append((name, shift, (1 << size) - 1))
            shift += size
        return fields[::-1]

    def input_space(self) -> Iterator[dict[str, int]]:
        """Every assignment of the free inputs (ancillae 0, constants
        pinned), lazily, in ``counter`` order.  ``counter``'s limit is
        checked at the call, before anything is yielded."""
        fields = self.counter()
        bits = sum(mask.bit_length() for _, _, mask in fields)
        return ({name: (k >> at) & mask for name, at, mask in fields}
                for k in range(1 << bits))


def _ladder(b: list[int], a: list[int], ctrl: int | None = None,
            carry: int | None = None, scratch: int | None = None) -> list[Gate]:
    """Ripple-carry sum of register a into register b, in place.

    Leaves b holding (a+b) mod 2^n and a restored.  With ``ctrl`` the sum
    lands only when ctrl is 1 and every wire is restored when it is 0:
    carry generation runs unconditionally and is undone in place, and only
    the writes that land the sum in b and the carry-out in ``carry`` go
    through ``write``, which adds the control (the CNOTs that premix b
    with a and unmix it cancel on their own).  With ``carry`` None the
    addition is modular and the carry circuitry is dropped entirely;
    otherwise ``carry`` receives the carry-out, directly when uncontrolled
    and staged through ``scratch`` (which always returns to 0) when
    controlled, because a triply-controlled write is outside the gate set.

    Carries c_i are built transiently on the a wires via the identity
    (a^b)(a^c) = a ^ MAJ(a,b,c), then consumed and uncomputed on the way
    back down.  The n=1 carry needs no preload CNOT because b_0 is never
    premixed with a_0; the general preload would double-count a_0 there.

    The uncompute half is the compute half run backwards, so it emits the
    very ``Gate`` objects of that half: the carry Toffolis and the preload
    CNOTs in reverse, the premix CNOTs as they stand, and, with no
    control, each sum write ``cnot(a[i], b[i])`` as the premix CNOT it
    equals.  Only object identity differs from building each gate afresh.
    """
    def write(src: int, dst: int) -> Gate:
        return cnot(src, dst) if ctrl is None else ccx(ctrl, src, dst)

    n = len(b)
    premix = [cnot(a[i], b[i]) for i in range(1, n)]
    preload = [cnot(a[i], a[i + 1]) for i in range(n - 2, 0, -1)]
    carries = [ccx(b[i], a[i], a[i + 1]) for i in range(n - 1)]
    sums = premix if ctrl is None else [write(a[i], b[i]) for i in range(1, n)]
    ops = list(premix)
    if carry is not None and n >= 2:
        ops.append(write(a[n - 1], carry))
    ops += preload
    ops += carries
    if carry is not None:
        if ctrl is None:
            ops.append(ccx(b[n - 1], a[n - 1], carry))
        else:
            stage = ccx(b[n - 1], a[n - 1], scratch)
            ops += [stage, write(scratch, carry), stage]
    for pair in zip(reversed(sums), reversed(carries)):
        ops += pair
    ops.append(write(a[0], b[0]))
    ops += reversed(preload)
    ops += premix
    return ops


def _sub_core(b: list[int], a: list[int]) -> list[Gate]:
    """b <- (b - a) mod 2^n via the complement identity b-a = ~(~b + a):
    the ladder ``_ladder(b, a)`` between X flips of b, so slicing off the
    n flips at each end gives that ladder."""
    flips = [x(q) for q in b]
    return flips + _ladder(b, a) + flips


def _mod_mul_ops(b: list[int], a: list[int], p: list[int]) -> list[Gate]:
    """p <- (a*b) mod 2^n by shift-and-add, b and a restored.

    Stage 0 is a Toffoli array writing the first partial product; stage k
    conditionally adds the low n-k bits of a into p[k:], the shift being
    realized purely by wiring.
    """
    n = len(b)
    ops = [ccx(b[0], a[i], p[i]) for i in range(n)]
    for k in range(1, n):
        ops += _ladder(p[k:], a[: n - k], ctrl=b[k])
    return ops


def _registers(*specs: tuple[str, int, str]
               ) -> tuple[RegisterLayout, dict[str, list[int]]]:
    """Lay (name, size, role) registers out contiguously in the given
    order; returns the layout and each register's qubits by name."""
    registers: list[Register] = []
    for name, size, role in specs:
        start = registers[-1].stop if registers else 0
        registers.append(Register(name, start, size, role))
    if (n := registers[-1].stop) > sys.maxsize:
        raise ResourceError(f"{show(n)} qubits exceeds what a list can index")
    return (RegisterLayout(tuple(registers)),
            {r.name: list(r.qubits()) for r in registers})


def build_adder(n: int) -> ArithInstance:
    """Ripple-carry adder with no input carry: 2n+1 qubits.

    Register b (n, sum output), register a (n, restored), register z
    (one ancilla) reading the carry-out s_n.  Exactly one ancilla and no
    garbage outputs.
    """
    n = check_count(n, "adder width")
    layout, q = _registers(("b", n, "output"), ("a", n, "restored-input"),
                           ("z", 1, "ancilla"))
    ops = _ladder(q["b"], q["a"], carry=q["z"][0])
    return ArithInstance(n, Circuit(2 * n + 1, tuple(ops), layout), ("b", "a"))


def build_subtractor(n: int) -> ArithInstance:
    """Subtractor on 2n qubits: b reads (b-a) mod 2^n, a restored.

    The adder core is conjugated by X gates on b; the carry-out wire and
    its circuitry are dropped since the complemented sum never needs s_n.
    """
    n = check_count(n, "subtractor width")
    layout, q = _registers(("b", n, "output"), ("a", n, "restored-input"))
    ops = _sub_core(q["b"], q["a"])
    return ArithInstance(n, Circuit(2 * n, tuple(ops), layout), ("b", "a"))


def build_ctrl_add(n: int) -> ArithInstance:
    """Conditional adder on 2n+3 qubits.

    ctrl=1: b reads (a+b) mod 2^n with the carry in z.  ctrl=0: every
    register is restored.  ctrl and a are restored either way.  The g
    ancilla stages the carry and always returns to 0 (inside the
    multiplier this wire is borrowed from the product register, which is
    why the product register carries one extra qubit).
    """
    n = check_count(n, "controlled adder width")
    layout, q = _registers(("ctrl", 1, "restored-input"), ("b", n, "output"),
                           ("a", n, "restored-input"), ("z", 1, "ancilla"),
                           ("g", 1, "ancilla"))
    ops = _ladder(q["b"], q["a"], q["ctrl"][0], q["z"][0], q["g"][0])
    circ = Circuit(2 * n + 3, tuple(ops), layout)
    return ArithInstance(n, circ, ("ctrl", "b", "a"))


def build_multiplier(n: int) -> ArithInstance:
    """Shift-and-add multiplier on 4n+1 qubits.

    Registers b (n) and a (n) are restored; the product register p has
    2n+1 ancilla qubits, of which p[0..2n-1] read a*b and p[2n] returns
    to 0.  One Toffoli array forms the first partial product; each later
    stage is a conditional adder placed one bit higher, so every shift is
    free.  Stage k borrows p[k+n+1] as its carry scratch, which is still 0
    because the running sum cannot have reached that bit yet.
    """
    n = check_count(n, "multiplier width")
    layout, q = _registers(("b", n, "restored-input"),
                           ("a", n, "restored-input"),
                           ("p", 2 * n + 1, "ancilla"))
    b, a, p = q["b"], q["a"], q["p"]
    ops = [ccx(b[0], a[i], p[i]) for i in range(n)]
    for k in range(1, n):
        ops += _ladder(p[k:k + n], a, b[k], p[k + n], p[k + n + 1])
    return ArithInstance(n, Circuit(4 * n + 1, tuple(ops), layout), ("b", "a"))


#: Taylor register names in qubit order; each holds n bits.
TAYLOR_REGISTERS = ("c", "x", "xc", "fc", "fp", "fpp", "y1", "y2", "y4")


def build_taylor(n: int, f_c: int, fp_c: int, fpp_half_c: int, c: int) -> ArithInstance:
    """Second-order polynomial evaluator on 9n qubits.

    Computes y4 = (f_c + fp_c*(x-c) + fpp_half_c*(x-c)^2) mod 2^n for the
    free input x, with the constants supplied as pinned register contents.
    Intermediates are all n bits wide, so the products use the modular
    multiplier rather than the full-width one.

    Forward pass: x <- x-c; copy x-c into xc (the multiplier needs two
    independent factor registers); y1 <- fp*(x-c); y2 <- (x-c)^2;
    y4 <- fpp*y2; y1 <- y1+fc; y4 <- y4+y1.  The scratch then unwinds in
    reverse (unmultiply y2, strip fc from y1, unmultiply y1, uncopy xc,
    re-add c to x), leaving only y4 changed.  The unwind emits the very
    ``Gate`` objects of the forward pass: each product's gates backwards,
    the copy as it stands, and the ladders of x-c and y1+fc, since each
    sum and its difference share the ladder inside the difference.

    Each constant is an unsigned residue mod 2^n, checked before any gate
    is built by ``check_register_value``, the rule ``ArithInstance``
    applies; any fixed-point scaling is the caller's convention.
    """
    n = check_count(n, "width")
    consts = {name: check_register_value(v, name, n) for name, v in
              (("fc", f_c), ("fp", fp_c), ("fpp", fpp_half_c), ("c", c))}
    layout, r = _registers(*(
        (name, n, "restored-input" if name in consts or name == "x" else "ancilla")
        for name in TAYLOR_REGISTERS))
    sub_c = _sub_core(r["x"], r["c"])
    copy = [cnot(r["x"][i], r["xc"][i]) for i in range(n)]
    mul_fp = _mod_mul_ops(r["x"], r["fp"], r["y1"])
    mul_x2 = _mod_mul_ops(r["x"], r["xc"], r["y2"])
    sub_fc = _sub_core(r["y1"], r["fc"])
    ops: list[Gate] = []
    ops += sub_c
    ops += copy
    ops += mul_fp
    ops += mul_x2
    ops += _mod_mul_ops(r["y2"], r["fpp"], r["y4"])
    ops += sub_fc[n:-n]
    ops += _ladder(r["y4"], r["y1"])
    # garbage removal: every scratch register retraces its construction,
    # with the very gates of the forward block; X/CNOT/Toffoli are
    # self-inverse, so reversal alone inverts a block, and the copy's
    # CNOTs act on disjoint pairs, so it is its own inverse as it stands;
    # a sum and its difference share the ladder inside the difference
    ops += mul_x2[::-1]
    ops += sub_fc
    ops += mul_fp[::-1]
    ops += copy
    ops += sub_c[n:-n]
    circ = Circuit(9 * n, tuple(ops), layout)
    return ArithInstance(n, circ, ("x",), constants=consts)


BUILDERS: dict[str, Callable[..., ArithInstance]] = {
    "adder": build_adder,
    "sub": build_subtractor,
    "ctrladd": build_ctrl_add,
    "mul": build_multiplier,
    "taylor": build_taylor,
}
