"""Garbage removal by the compute, copy, uncompute scheme.

Given a circuit U whose declared ancillae enter as 0, the wrapped circuit
runs U, fans the declared output wires out with CNOTs onto fresh copy
qubits appended above U's own, then runs U inverse.  On every basis input
the copy register holds the computed function value while all of U's own
qubits return to their initial values, so former garbage wires become
restored inputs.

The restoration guarantee is stated for basis inputs, which covers every
classical-reversible circuit here; wrapping a superposition-creating U is
allowed but only the gate-count and resource laws still apply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Register, RegisterLayout, inverse_circuit
from .errors import DomainError, check_int
from .gates import cnot


@dataclass(frozen=True)
class BennettSpec:
    """Wrap request: the inner circuit and its output wires, each copied
    onto one fresh qubit above the inner circuit.  The wires are stored
    as Python ints (see ``errors.check_int``)."""

    inner: Circuit
    output_wires: tuple[int, ...]

    def __post_init__(self):
        wires = tuple(check_int(w, "output wire") for w in self.output_wires)
        if not wires:
            raise DomainError("at least one output wire is required")
        if len(set(wires)) != len(wires):
            raise DomainError("duplicate output wire")
        if any(w < 0 or w >= self.inner.n_qubits for w in wires):
            raise DomainError("output wire outside the inner circuit")
        object.__setattr__(self, "output_wires", wires)


def bennett_wrap(spec: BennettSpec) -> Circuit:
    """Build U, then CNOT fan-out of the outputs, then U inverse.

    The result has exactly 2*|U| + |output_wires| gates, and its T-count
    is twice that of U (the copies are CNOTs).  Layout: inner registers
    keep their names, garbage roles become restored-input, and the copy
    register is appended with role output.
    """
    inner = spec.inner
    start, k = inner.n_qubits, len(spec.output_wires)
    copies = [cnot(w, start + i) for i, w in enumerate(spec.output_wires)]
    ops = inner.ops + tuple(copies) + inverse_circuit(inner).ops
    regs = [
        Register(r.name, r.start, r.size,
                 "restored-input" if r.role == "garbage" else r.role)
        for r in inner.layout.registers
    ]
    taken = {r.name for r in regs}
    name = "copy"
    while name in taken:
        name += "_"
    regs.append(Register(name, start, k, "output"))
    return Circuit(start + k, ops, RegisterLayout(tuple(regs)))
