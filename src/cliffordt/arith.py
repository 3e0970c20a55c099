"""Generators for reversible integer arithmetic over {X, CNOT, Toffoli}.

All circuits are garbage-free ripple-carry designs: carries are computed
into the addend register, consumed, and uncomputed in place, so the only
overhead qubits are declared ancillae that enter as 0.  Arithmetic is
modular in the register width.  Registers are contiguous and little
endian (bit i of a register sits on qubit base+i); any wire interleaving
seen in circuit diagrams is purely a drawing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .circuit import Circuit, Register, RegisterLayout
from .errors import DomainError
from .gates import Gate, ccx, cnot, x


@dataclass(frozen=True)
class ArithInstance:
    """A generated arithmetic circuit plus its integer encoding.

    ``input_names`` lists the registers the caller chooses freely, in
    enumeration order; ``constants`` pins registers to fixed values; every
    other register is an ancilla that must enter as 0.  ``encode`` packs
    named integer values into a basis index and ``decode`` unpacks one.
    """

    n_bits: int
    circuit: Circuit
    input_names: tuple[str, ...]
    constants: dict[str, int] = field(default_factory=dict)

    def encode(self, values: Mapping[str, int]) -> int:
        """Registers missing from ``values`` take their constant, else 0; a
        value that does not fit its register raises ``DomainError``."""
        index = 0
        for r in self.circuit.layout.registers:
            v = values.get(r.name, self.constants.get(r.name, 0))
            if v < 0 or v >> r.size:
                raise DomainError(
                    f"value {v} does not fit register {r.name} ({r.size} bits)")
            index |= v << r.start
        return index

    def decode(self, basis_index: int) -> dict[str, int]:
        return self.circuit.layout.decode(basis_index)

    def input_space(self) -> Iterator[dict[str, int]]:
        """Every assignment of the free inputs (ancillae 0, constants pinned).

        Assignments come in odometer order: the last input register varies
        fastest.  They are generated lazily, the leading registers read off
        one counter, so the first one comes at once at any width.
        """
        if not self.input_names:
            yield {}
            return
        *leading, last = self.input_names
        register = self.circuit.layout.register
        fields = []
        shift = 0
        for name in reversed(leading):
            size = register(name).size
            fields.append((name, shift, (1 << size) - 1))
            shift += size
        fields.reverse()
        inner = range(1 << register(last).size)
        for k in range(1 << shift):
            head = {name: (k >> at) & mask for name, at, mask in fields}
            for v in inner:
                yield {**head, last: v}


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
    """
    def write(src: int, dst: int) -> Gate:
        return cnot(src, dst) if ctrl is None else ccx(ctrl, src, dst)

    n = len(b)
    ops = [cnot(a[i], b[i]) for i in range(1, n)]
    if carry is not None and n >= 2:
        ops.append(write(a[n - 1], carry))
    ops += [cnot(a[i], a[i + 1]) for i in range(n - 2, 0, -1)]
    ops += [ccx(b[i], a[i], a[i + 1]) for i in range(n - 1)]
    if carry is not None:
        if ctrl is None:
            ops.append(ccx(b[n - 1], a[n - 1], carry))
        else:
            stage = ccx(b[n - 1], a[n - 1], scratch)
            ops += [stage, write(scratch, carry), stage]
    for i in range(n - 1, 0, -1):
        ops += [write(a[i], b[i]), ccx(b[i - 1], a[i - 1], a[i])]
    ops.append(write(a[0], b[0]))
    ops += [cnot(a[i], a[i + 1]) for i in range(1, n - 1)]
    ops += [cnot(a[i], b[i]) for i in range(1, n)]
    return ops


def _sub_core(b: list[int], a: list[int]) -> list[Gate]:
    """b <- (b - a) mod 2^n via the complement identity b-a = ~(~b + a)."""
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
    return (RegisterLayout(tuple(registers)),
            {r.name: list(r.qubits()) for r in registers})


def build_adder(n: int) -> ArithInstance:
    """Ripple-carry adder with no input carry: 2n+1 qubits.

    Register b (n, sum output), register a (n, restored), register z
    (one ancilla) reading the carry-out s_n.  Exactly one ancilla and no
    garbage outputs.
    """
    if n < 1:
        raise DomainError("adder width must be at least 1")
    layout, q = _registers(("b", n, "output"), ("a", n, "restored-input"),
                           ("z", 1, "ancilla"))
    ops = _ladder(q["b"], q["a"], carry=q["z"][0])
    return ArithInstance(n, Circuit(2 * n + 1, tuple(ops), layout), ("b", "a"))


def build_subtractor(n: int) -> ArithInstance:
    """Subtractor on 2n qubits: b reads (b-a) mod 2^n, a restored.

    The adder core is conjugated by X gates on b; the carry-out wire and
    its circuitry are dropped since the complemented sum never needs s_n.
    """
    if n < 1:
        raise DomainError("subtractor width must be at least 1")
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
    if n < 1:
        raise DomainError("controlled adder width must be at least 1")
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
    if n < 1:
        raise DomainError("multiplier width must be at least 1")
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
    re-add c to x), leaving only y4 changed.  All constants are unsigned
    residues mod 2^n; any fixed-point scaling is the caller's convention.
    """
    if n < 1:
        raise DomainError("width must be at least 1")
    consts = {"fc": f_c, "fp": fp_c, "fpp": fpp_half_c, "c": c}
    for name, v in consts.items():
        if not 0 <= v < (1 << n):
            raise DomainError(f"constant {name}={v} outside [0, 2^{n})")
    layout, r = _registers(*(
        (name, n, "restored-input" if name in consts or name == "x" else "ancilla")
        for name in TAYLOR_REGISTERS))
    ops: list[Gate] = []
    ops += _sub_core(r["x"], r["c"])
    ops += [cnot(r["x"][i], r["xc"][i]) for i in range(n)]
    ops += _mod_mul_ops(r["x"], r["fp"], r["y1"])
    ops += _mod_mul_ops(r["x"], r["xc"], r["y2"])
    ops += _mod_mul_ops(r["y2"], r["fpp"], r["y4"])
    ops += _ladder(r["y1"], r["fc"])
    ops += _ladder(r["y4"], r["y1"])
    # garbage removal: every scratch register retraces its construction;
    # X/CNOT/Toffoli are self-inverse, so reversal alone inverts a block
    ops += _mod_mul_ops(r["x"], r["xc"], r["y2"])[::-1]
    ops += _sub_core(r["y1"], r["fc"])
    ops += _mod_mul_ops(r["x"], r["fp"], r["y1"])[::-1]
    ops += [cnot(r["x"][i], r["xc"][i]) for i in range(n)]
    ops += _ladder(r["x"], r["c"])
    circ = Circuit(9 * n, tuple(ops), layout)
    return ArithInstance(n, circ, ("x",), constants=consts)


BUILDERS: dict[str, Callable[..., ArithInstance]] = {
    "adder": build_adder,
    "sub": build_subtractor,
    "ctrladd": build_ctrl_add,
    "mul": build_multiplier,
    "taylor": build_taylor,
}
