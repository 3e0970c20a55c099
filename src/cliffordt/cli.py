"""Command-line front end.

Subcommands: gen, metrics, sim, uncompute, verify, rb.  All flags are
long-form.  ``--format json`` selects machine-readable output (a single
JSON document on stdout, never mixed with human text).  Identical
invocations with identical seeds print byte-identical output.  The only
environment variable honored is CLIFFORDT_SEED, a default for --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .arith import ArithInstance, BUILDERS
from .circuit import (is_permutation_circuit, parse, permutation_output,
                      resources, serialize, simulate)
from .errors import CliffordTError
from .state import check_shots, probabilities, sample
from .uncompute import BennettSpec, bennett_wrap
from .verify import ORACLES, NoiseModel, exhaustive_check, run_rb

_TAYLOR_FLAGS = ("f", "fp", "fpp", "c")


def _build(args) -> ArithInstance:
    if args.kind == "taylor":
        missing = [f"--{name}" for name in _TAYLOR_FLAGS
                   if getattr(args, name) is None]
        if missing:
            raise CliffordTError(f"taylor requires {' '.join(missing)}")
        return BUILDERS["taylor"](args.n, args.f, args.fp, args.fpp, args.c)
    return BUILDERS[args.kind](args.n)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    instance = _build(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize(instance.circuit))
    return 0


def _cmd_metrics(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        circ = parse(fh.read())
    report = resources(circ)
    _emit(args, report.to_dict(), report.to_text())
    return 0


def _cmd_sim(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        circ = parse(fh.read())
    permutation = is_permutation_circuit(circ)
    if args.shots is not None:
        if permutation:
            # a basis permutation lands every shot on one outcome
            out_index = permutation_output(circ, args.input)
            check_shots(args.shots)
            ordered = {out_index: args.shots}
        else:
            counts = sample(simulate(circ, args.input), args.shots, args.seed)
            ordered = dict(sorted(counts.counts.items()))
        text = "".join(f"{k}: {v}\n" for k, v in ordered.items())
        _emit(args, {"shots": args.shots,
                     "counts": {str(k): v for k, v in ordered.items()}}, text)
        return 0
    if permutation:
        out_index = permutation_output(circ, args.input)
        decoded = circ.layout.decode(out_index)
        text = "".join(f"{name}: {value}\n" for name, value in decoded.items())
        _emit(args, {"basis_index": out_index, "registers": decoded}, text)
        return 0
    probs = probabilities(simulate(circ, args.input))
    nonzero = {int(i): float(probs[i]) for i in np.nonzero(probs > 1e-12)[0]}
    text = "".join(f"{k}: {v:.10f}\n" for k, v in nonzero.items())
    _emit(args, {"probabilities": {str(k): v for k, v in nonzero.items()}}, text)
    return 0


def _cmd_uncompute(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        circ = parse(fh.read())
    wires = tuple(int(w) for w in args.wires.split(","))
    wrapped = bennett_wrap(BennettSpec(circ, wires))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize(wrapped))
    return 0


def _cmd_verify(args) -> int:
    instance = _build(args)
    report = exhaustive_check(instance, ORACLES[args.kind](args.n))
    _emit(args, report.to_dict(), report.to_text())
    return 0 if report.passed else 1


def _cmd_rb(args) -> int:
    lengths = [int(m) for m in args.lengths.split(",")]
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
        p.add_argument("n", type=int, help="register width in bits")
        for name in _TAYLOR_FLAGS:
            p.add_argument(f"--{name}", type=int, default=None,
                           help="taylor constant (required for kind=taylor)")

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
    p.add_argument("--input", type=int, required=True, help="basis index")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
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
    p.add_argument("--d", type=float, required=True,
                   help="depolarizing probability per gate")
    p.add_argument("--lengths", required=True,
                   help="comma-separated increasing sequence lengths")
    p.add_argument("--sequences", type=int, default=50)
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $CLIFFORDT_SEED, else 0)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_rb)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("CLIFFORDT_SEED", "0")
    try:
        default_seed = int(env_seed)
    except ValueError:
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
    except (CliffordTError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
