"""One scalar contract for every public callable of ``cliffordt``.

Each numeric scalar argument of each exported callable is replaced, one
at a time, by each hostile value below.  The call must either raise a
``CliffordTError`` or give the result of the same call with the Python
int the value stands for (``True`` is 1, ``np.int64(1)`` is 1, ``-1`` is
itself).  A value that stands for no int (``1.5``, ``"1"``, None, NaN)
must raise.  Every pair is tried, so no sampling is needed.

String arguments (names, roles, kinds, circuit text) and arguments that
take a ``Circuit``, a ``Gate`` or an array are outside the contract: a
wrong type there fails as duck typing does.

A second table (``LARGE``) hands integers past Python's 4,300-digit
string limit to the calls whose messages name an integer argument.  The
``run_rb`` lengths stay out of it: they are loop counts, so a huge one
is real work, not a bad argument.
"""

from __future__ import annotations

import inspect
from fractions import Fraction

import numpy as np
import pytest

import cliffordt
from cliffordt import (ArithInstance, BennettSpec, Circuit, CliffordTError,
                       Gate, NoiseModel, Register, StateVector, apply_gate,
                       build_adder, build_ctrl_add, build_multiplier,
                       build_subtractor, build_taylor, ccx, cnot, cswap,
                       decompose_fredkin, decompose_swap, decompose_toffoli,
                       default_layout, exhaustive_check, h, make_rng,
                       new_basis_state, permutation_output, run_columns,
                       run_rb, s, sample, sdg, simulate, sparse_evaluate,
                       swap, t, tdg, tomography_1q, x)
from cliffordt.errors import MAX_DIGITS, show
from cliffordt.gates import compose_matrices, expand_matrix

HOSTILE = (1.5, "1", None, -1, float("nan"), True, np.int64(1))

_FLIP = Circuit(2, (x(0),))
_PLUS = Circuit(1, (h(0),))
_LAYOUT = default_layout(2)
_ADDER = build_adder(1)


def _state(sv):
    return sv.n_qubits, sv.amps.tolist()


def _draws(rng):
    return rng.integers(1 << 62, size=4).tolist()


def _columns(n_rows, column):
    """``run_columns`` of X on qubit 0 over two columns, read back."""
    cols = [column, 0]
    run_columns(_FLIP, cols, n_rows)
    return cols


# (label, callable, arguments, paths of the numeric scalars, result key).
# A path is an argument index, or an index and a key into that argument.
CASES = [
    ("build_adder", build_adder, (1,), [0], None),
    ("build_subtractor", build_subtractor, (1,), [0], None),
    ("build_ctrl_add", build_ctrl_add, (1,), [0], None),
    ("build_multiplier", build_multiplier, (1,), [0], None),
    ("build_taylor", build_taylor, (1, 1, 1, 0, 1), [0, 1, 2, 3, 4], None),
    ("ArithInstance", ArithInstance, (1, _ADDER.circuit, ("b", "a")), [0],
     None),
    ("ArithInstance.encode", _ADDER.encode, ({"a": 1, "b": 0},),
     [(0, "a"), (0, "b")], None),
    ("ArithInstance.decode", _ADDER.decode, (1,), [0], None),
    ("Circuit", Circuit, (1,), [0], None),
    ("Register", Register, ("r", 0, 1, "input"), [1, 2], None),
    ("RegisterLayout.validate", _LAYOUT.validate, (2,), [0], None),
    ("RegisterLayout.decode", _LAYOUT.decode, (1,), [0], None),
    ("default_layout", default_layout, (1,), [0], None),
    ("permutation_output", permutation_output, (_FLIP, 1), [1], None),
    ("simulate", simulate, (_PLUS, 0), [1], _state),
    ("sparse_evaluate", sparse_evaluate, (_PLUS, 0), [1], None),
    ("run_columns", _columns, (1, 0), [0], None),
    ("Gate", Gate, ("cnot", (0, 1)), [(1, 0), (1, 1)], None),
    ("ccx", ccx, (0, 1, 2), [0, 1, 2], None),
    ("cnot", cnot, (0, 1), [0, 1], None),
    ("cswap", cswap, (0, 1, 2), [0, 1, 2], None),
    ("swap", swap, (0, 1), [0, 1], None),
    ("h", h, (0,), [0], None),
    ("s", s, (0,), [0], None),
    ("sdg", sdg, (0,), [0], None),
    ("t", t, (0,), [0], None),
    ("tdg", tdg, (0,), [0], None),
    ("x", x, (0,), [0], None),
    ("decompose_fredkin", decompose_fredkin, (0, 1, 2), [0, 1, 2], None),
    ("decompose_swap", decompose_swap, (0, 1), [0, 1], None),
    ("decompose_toffoli", decompose_toffoli, (0, 1, 2), [0, 1, 2], None),
    ("StateVector", StateVector, (1, [1, 0]), [0], _state),
    ("make_rng", make_rng, (1,), [0], _draws),
    ("new_basis_state", new_basis_state, (1, 0), [0, 1], _state),
    ("sample", sample, (simulate(_PLUS, 0), 4, 1), [1, 2], None),
    ("BennettSpec", BennettSpec, (_FLIP, (0,)), [(1, 0)], None),
    ("NoiseModel", NoiseModel, (0,), [0], None),
    ("run_rb", run_rb, (NoiseModel(0.0), (1, 2, 3), 2, 2, 1),
     [(1, 0), (1, 1), (1, 2), 2, 3, 4], None),
    ("tomography_1q", tomography_1q, (_PLUS, 4, 1), [1, 2], None),
]

# Exported callables with no numeric scalar argument, and why.
NO_SCALAR = {
    # a Circuit, a Gate, a spec, an instance and an oracle, or arrays
    "apply_gate", "bennett_wrap", "exhaustive_check", "inverse",
    "inverse_circuit", "is_permutation_circuit", "lower_to_clifford_t",
    "matrix", "probabilities", "resources", "schedule_layers",
    "serialize",
    # circuit text, a string
    "parse",
    # the layout's only argument is its tuple of registers
    "RegisterLayout",
    # result records the toolkit fills in, and the exception types
    "EquivalenceReport", "MeasurementCounts", "RBResult", "ResourceReport",
    "CliffordTError", "DomainError", "FitError", "ParseError",
    "ResourceError",
    # (m, f) pairs of measured floats, not integers
    "fit_exponential_decay",
}


def _replace(args, path, value):
    args = list(args)
    if isinstance(path, int):
        args[path] = value
        return tuple(args)
    at, key = path
    inner = args[at]
    if isinstance(inner, dict):
        inner = {**inner, key: value}
    else:
        inner = list(inner)
        inner[key] = value
        inner = type(args[at])(inner)
    args[at] = inner
    return tuple(args)


def _outcome(fn, args, key):
    try:
        result = fn(*args)
    except CliffordTError as exc:
        return type(exc)
    return ("result", result if key is None else key(result))


def _matching_int(value):
    if isinstance(value, (bool, int, np.integer)):
        return int(value)
    return None


def test_every_exported_callable_is_classified():
    exported = {name for name, obj in vars(cliffordt).items()
                if not name.startswith("_") and callable(obj)
                and not inspect.ismodule(obj)}
    covered = {label.split(".")[0] for label, *_ in CASES} | NO_SCALAR
    assert exported <= covered, exported - covered


@pytest.mark.parametrize("label, fn, args, paths, key", CASES,
                         ids=[case[0] for case in CASES])
def test_a_hostile_scalar_raises_or_acts_as_its_int(label, fn, args, paths,
                                                    key):
    assert _outcome(fn, args, key)[0] == "result"
    for path in paths:
        for value in HOSTILE:
            got = _outcome(fn, _replace(args, path, value), key)
            as_int = _matching_int(value)
            if as_int is None:
                assert not isinstance(got, tuple), (path, value, got)
            else:
                want = _outcome(fn, _replace(args, path, as_int), key)
                assert got == want, (path, value)


_HUGE = 10**5000  # past Python's 4,300-digit limit on int-string conversion


def _huge_constant(v):
    return ArithInstance(1, _ADDER.circuit, ("b",), {"a": v})


def _huge_oracle(v):
    return exhaustive_check(_ADDER, lambda values: {"b": v})


# (label, call of one integer, the signs whose call must raise).  Each
# call is refused with a short message: one that wrote the integer out
# would end in the bare ValueError of str(int) instead.
LARGE = [
    ("ArithInstance.encode", lambda v: _ADDER.encode({"a": v}), (1, -1)),
    ("ArithInstance constant", _huge_constant, (1, -1)),
    ("exhaustive_check oracle", _huge_oracle, (1, -1)),
    ("sparse_evaluate", lambda v: sparse_evaluate(Circuit(1), v), (1, -1)),
    ("simulate", lambda v: simulate(Circuit(1), v), (1, -1)),
    ("permutation_output", lambda v: permutation_output(Circuit(1), v),
     (1, -1)),
    ("new_basis_state", lambda v: new_basis_state(1, v), (1, -1)),
    ("RegisterLayout.decode", lambda v: default_layout(1).decode(v), (-1,)),
    ("make_rng", make_rng, (-1,)),
    ("build_taylor", lambda v: build_taylor(2, v, 0, 0, 0), (1, -1)),
    ("StateVector", lambda v: StateVector(v, [1]), (1, -1)),
    ("cnot", lambda v: cnot(v, v), (1, -1)),
    ("Circuit", lambda v: Circuit(1, (x(v),)), (1, -1)),
    ("expand_matrix", lambda v: expand_matrix(x(v), 2), (1, -1)),
    ("apply_gate", lambda v: apply_gate(new_basis_state(1, 0), x(v)),
     (1, -1)),
    ("make_rng of a Fraction", lambda v: make_rng(Fraction(v, 3)), (1, -1)),
]


@pytest.mark.parametrize("label, call, signs", LARGE,
                         ids=[case[0] for case in LARGE])
def test_a_huge_integer_ends_in_a_toolkit_error(label, call, signs):
    for sign in signs:
        with pytest.raises(CliffordTError) as info:
            call(sign * _HUGE)
        assert len(str(info.value)) < 200, (sign, str(info.value)[:200])


# (label, call) of a width no dense matrix or bit column can hold: past
# the statevector ceiling a matrix would not fit in memory, and past
# sys.maxsize a shift by the width raises Python's bare OverflowError.
WIDE = [
    ("expand_matrix 10^30", lambda: expand_matrix(x(0), 10**30)),
    ("compose_matrices 10^30", lambda: compose_matrices([], 10**30)),
    ("run_columns 10^30", lambda: run_columns(Circuit(1), [0], 10**30)),
    ("expand_matrix 40", lambda: expand_matrix(x(0), 40)),
    ("compose_matrices 40", lambda: compose_matrices([], 40)),
]


@pytest.mark.parametrize("label, call", WIDE, ids=[case[0] for case in WIDE])
def test_a_width_past_what_memory_holds_ends_in_a_toolkit_error(label, call):
    with pytest.raises(CliffordTError):
        call()


def test_show_names_an_integer_past_max_digits_by_its_bit_length():
    assert show(10**MAX_DIGITS - 1) == str(10**MAX_DIGITS - 1)
    assert show(10**MAX_DIGITS) == "<2127-bit integer>"
    assert show(-(10**MAX_DIGITS)) == "<negative 2127-bit integer>"
    assert show((3, _HUGE)) == "(3, <16610-bit integer>)"
    assert show((3,)) == "(3,)" and show(()) == "()"
    assert show(Fraction(_HUGE, 3)) == "<Fraction>"
    assert show("1") == "'1'" and show(1.5) == "1.5" and show(True) == "True"
