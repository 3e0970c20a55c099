"""Exception types shared across the toolkit, and the argument rules that
raise them, whose messages render each argument by ``show``."""

from decimal import Decimal
from numbers import Real
from operator import index

#: Most digits of a number in the text format and of an int ``show``
#: writes.  640 is the least limit ``sys.set_int_max_str_digits`` takes, so
#: ``int`` and ``str`` never refuse such a number, and no circuit needs more.
MAX_DIGITS = 640

#: Hard ceiling on statevector width; 2^24 amplitudes is the desk-scale limit.
MAX_SIM_QUBITS = 24


class CliffordTError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CliffordTError, ValueError):
    """An argument violates a precondition (bad index, bad range, overlap)."""


class ResourceError(CliffordTError, RuntimeError):
    """A request exceeds the simulation resource ceiling."""


class ParseError(CliffordTError, ValueError):
    """A circuit file is malformed.  Carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")


class FitError(CliffordTError, RuntimeError):
    """A curve fit could not be performed on the given data."""


def show(value) -> str:
    """``repr(value)`` that always renders: an int of more than
    ``MAX_DIGITS`` digits, alone or in a tuple, is named by its bit length,
    and any other value whose repr passes the digit limit by its type."""
    if isinstance(value, tuple):
        return f"({', '.join(map(show, value))}{',' * (len(value) == 1)})"
    if isinstance(value, int) and abs(value) >= 10 ** MAX_DIGITS:
        return f"<{'negative ' * (value < 0)}{value.bit_length()}-bit integer>"
    try:
        return repr(value)
    except ValueError:  # a Fraction of such ints
        return f"<{type(value).__name__}>"


def check_int(value: int, name: str) -> int:
    """``value`` as a Python int: anything ``operator.index`` accepts (a
    numpy integer, a bool) is converted, and any other value (a float, a
    string, None) raises ``DomainError``.  Callers keep the returned
    value, so a numpy integer never reaches a shift that would wrap at 64
    bits, and a float is never truncated."""
    try:
        return index(value)
    except TypeError:
        raise DomainError(f"{name} {show(value)} is not an integer") from None


def check_count(value: int, name: str) -> int:
    """``value`` as a Python int (see ``check_int``), at least 1; raises
    ``DomainError`` otherwise."""
    value = check_int(value, name)
    if value < 1:
        raise DomainError(f"{name} must be at least 1")
    return value


def check_matrix_width(n: int) -> int:
    """``n`` as a ``check_count`` whose 2^n x 2^n matrix holds no more
    entries than a statevector of ``MAX_SIM_QUBITS`` qubits; raises
    ``ResourceError`` past that."""
    n = check_count(n, "qubit count")
    if n > MAX_SIM_QUBITS // 2:
        raise ResourceError(f"a {show(n)}-qubit matrix exceeds the "
                            f"{MAX_SIM_QUBITS}-qubit statevector ceiling")
    return n


def check_register_value(value: int, register: str, size: int) -> int:
    """``value`` as a Python int (see ``check_int``) that fits the
    unsigned ``size``-bit ``register``; raises ``DomainError`` otherwise."""
    value = check_int(value, f"register {register} value")
    if value < 0 or value >> size:
        raise DomainError(f"value {show(value)} does not fit register "
                          f"{register} ({show(size)} bits)")
    return value


def check_index(n: int, basis: int) -> int:
    """``basis`` as a Python int (see ``check_int``) in [0, 2^n), checked
    by bit length; raises ``DomainError`` otherwise."""
    basis = check_int(basis, "basis index")
    if basis < 0 or basis.bit_length() > n:
        raise DomainError(f"basis index {show(basis)} out of range for "
                          f"{show(n)} qubits")
    return basis


def check_shots(shots: int, name: str = "shots") -> int:
    """``shots`` as a ``check_count`` at most 2^63 - 1, the most numpy takes
    as a draw count or an array length; raises ``DomainError`` otherwise."""
    shots = check_count(shots, name)
    if shots > (1 << 63) - 1:
        raise DomainError(f"{name} must be at most 2^63 - 1")
    return shots


def check_real(value: float, name: str) -> float:
    """``value`` as a Python float: any real number (a ``numbers.Real``
    such as a numpy float or a ``Fraction``, or a ``Decimal``) is taken,
    and one a float cannot hold reads NaN; any other value (a string,
    None, a complex) raises ``DomainError``."""
    if not isinstance(value, (Real, Decimal)):
        raise DomainError(f"{name} {show(value)} is not a real number")
    try:
        return float(value)
    except (OverflowError, ValueError):  # 10**400, Decimal("sNaN")
        return float("nan")


def parse_int(token: str, lineno: int, what: str) -> int:
    """A text-format operand: at most ``MAX_DIGITS`` ASCII decimal digits.
    ``int`` alone would also take signs, ``_`` separators and non-ASCII
    digits, and raise a bare ``ValueError`` past its own digit limit."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(lineno, f"{what} is not an integer: {token!r}")
    if len(token) > MAX_DIGITS:
        raise ParseError(lineno, f"{what} has more than {MAX_DIGITS} digits")
    return int(token)
