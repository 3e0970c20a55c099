"""Command-line front end.

Subcommands: gen, metrics, sim, uncompute, verify, rb.  All flags are
long-form.  ``--format json`` selects machine-readable output (a single
JSON document on stdout, never mixed with human text).  Identical
invocations with identical seeds print byte-identical output.  The only
environment variable honored is CLIFFORDT_SEED, a default for --seed.
Every integer, CLIFFORDT_SEED and list items included, is read by ``_int``,
and ``--d`` by ``_float``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .arith import ArithInstance, BUILDERS
from .circuit import (Circuit, is_permutation_circuit, parse,
                      permutation_output, resources, serialize, simulate)
from .errors import CliffordTError, ParseError, check_shots, parse_int
from .state import probabilities, sample
from .uncompute import BennettSpec, bennett_wrap
from .verify import ORACLES, NoiseModel, exhaustive_check, run_rb

_TAYLOR_FLAGS = ("f", "fp", "fpp", "c")


def _int(text: str) -> int:
    """A command-line integer: the circuit text format's digits
    (``errors.parse_int``) after an optional '-'.  Anything else raises
    ``ArgumentTypeError``, worded as argparse words a bad ``int``."""
    try:
        value = parse_int(text.removeprefix("-"), 0, "integer")
    except ParseError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    return -value if text.startswith("-") else value


def _float(text: str) -> float:
    """A command-line real number: an ASCII decimal literal (digits with
    an optional point and exponent, as in ``0.02``, ``.5`` or ``1e-3``)
    after an optional '-'.  Any other text raises ``ArgumentTypeError``,
    worded as argparse words a bad float, though ``float`` also takes '_'
    separators, non-ASCII digits, spaces, 'nan' and 'inf'."""
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?",
                        text):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _build(args) -> ArithInstance:
    """The instance to build.  Taylor takes all four of --f --fp --fpp --c,
    every other kind none; ``CliffordTError`` names the flags that break it."""
    taylor = args.kind == "taylor"
    flags = {f"--{name}": getattr(args, name) for name in _TAYLOR_FLAGS}
    wrong = [flag for flag, value in flags.items() if (value is None) == taylor]
    if wrong:
        verb = "requires" if taylor else "takes no"
        raise CliffordTError(f"{args.kind} {verb} {' '.join(wrong)}")
    return BUILDERS[args.kind](args.n, *(flags.values() if taylor else ()))


def _read(path: str) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _write(path: str, circ: Circuit) -> None:
    """Write the circuit's text to ``path``, serialized before the file is
    opened, so a serialization that fails leaves the file as it was."""
    text = serialize(circ)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    _write(args.out, _build(args).circuit)
    return 0


def _cmd_metrics(args) -> int:
    report = resources(_read(args.path))
    _emit(args, report.to_dict(), report.to_text())
    return 0


def _cmd_sim(args) -> int:
    circ = _read(args.path)
    if is_permutation_circuit(circ):
        out_index = permutation_output(circ, args.input)
        if args.shots is None:
            decoded = circ.layout.decode(out_index)
            text = "".join(f"{name}: {value}\n" for name, value in decoded.items())
            _emit(args, {"basis_index": out_index, "registers": decoded}, text)
            return 0
        # a basis permutation lands every shot on one outcome
        counts = {out_index: check_shots(args.shots)}
    else:
        state = simulate(circ, args.input)
        if args.shots is None:
            p = probabilities(state)
            probs = {int(i): float(p[i]) for i in (p > 1e-12).nonzero()[0]}
            text = "".join(f"{k}: {v:.10f}\n" for k, v in probs.items())
            _emit(args, {"probabilities": {str(k): v for k, v in probs.items()}}, text)
            return 0
        counts = sample(state, args.shots, args.seed).counts  # ascending
    text = "".join(f"{k}: {v}\n" for k, v in counts.items())
    _emit(args, {"shots": args.shots,
                 "counts": {str(k): v for k, v in counts.items()}}, text)
    return 0


def _cmd_uncompute(args) -> int:
    circ = _read(args.path)
    wires = [_int(w) for w in args.wires.split(",")]
    _write(args.out, bennett_wrap(BennettSpec(circ, wires)))
    return 0


def _cmd_verify(args) -> int:
    instance = _build(args)
    report = exhaustive_check(instance, ORACLES[args.kind](args.n))
    _emit(args, report.to_dict(), report.to_text())
    return 0 if report.passed else 1


def _cmd_rb(args) -> int:
    lengths = [_int(m) for m in args.lengths.split(",")]
    result = run_rb(NoiseModel(args.d), lengths, args.sequences,
                    args.shots, args.seed)
    _emit(args, result.to_dict(), result.to_text())
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffordt",
        description="Clifford+T reversible arithmetic: generate, measure, "
                    "simulate, uncompute, verify, benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = sorted(BUILDERS)

    def add_kind_n(p):
        p.add_argument("kind", choices=kinds)
        p.add_argument("n", type=_int, help="register width in bits")
        for name in _TAYLOR_FLAGS:
            p.add_argument(f"--{name}", type=_int, default=None,
                           help="taylor constant (taylor only, and required there)")

    p = sub.add_parser("gen", help="generate a circuit file")
    add_kind_n(p)
    p.add_argument("out", help="output circuit path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("metrics", help="print the resource report of a circuit")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("sim", help="simulate a circuit on a basis input")
    p.add_argument("path")
    p.add_argument("--input", type=_int, required=True, help="basis index")
    p.add_argument("--shots", type=_int, default=None)
    p.add_argument("--seed", type=_int, default=None,
                   help="RNG seed (default: $CLIFFORDT_SEED, else 0)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("uncompute", help="apply garbage removal to a circuit")
    p.add_argument("path")
    p.add_argument("--wires", required=True,
                   help="comma-separated output wire indices")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_uncompute)

    p = sub.add_parser("verify", help="exhaustively check a generator "
                                      "against its integer oracle")
    add_kind_n(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rb", help="run randomized benchmarking")
    p.add_argument("--d", type=_float, required=True,
                   help="depolarizing probability per gate")
    p.add_argument("--lengths", required=True,
                   help="comma-separated increasing sequence lengths")
    p.add_argument("--sequences", type=_int, default=50)
    p.add_argument("--shots", type=_int, default=100)
    p.add_argument("--seed", type=_int, default=None,
                   help="RNG seed (default: $CLIFFORDT_SEED, else 0)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_rb)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("CLIFFORDT_SEED", "0")
    try:
        default_seed = _int(env_seed)
    except argparse.ArgumentTypeError:
        default_seed = -1
    if default_seed < 0:
        parser.error("CLIFFORDT_SEED must be a non-negative integer, "
                     f"got {env_seed!r}")
    if hasattr(args, "seed"):
        if args.seed is None:
            args.seed = default_seed
        elif args.seed < 0:
            parser.error(f"--seed must be non-negative, got {args.seed}")
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, CliffordTError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
