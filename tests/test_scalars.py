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
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import cliffordt
from cliffordt import (ArithInstance, BennettSpec, Circuit, CliffordTError,
                       Gate, NoiseModel, Register, StateVector,
                       build_adder, build_ctrl_add, build_multiplier,
                       build_subtractor, build_taylor, ccx, cnot, cswap,
                       decompose_fredkin, decompose_swap, decompose_toffoli,
                       default_layout, h, make_rng, new_basis_state,
                       permutation_output, run_columns, run_rb, s, sample,
                       sdg, simulate, sparse_evaluate, swap, t, tdg,
                       tomography_1q, x)

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
    "matrix", "phase_aligned_distance", "probabilities", "resources",
    "schedule_layers", "serialize",
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
