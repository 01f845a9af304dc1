"""Command-line front end: verification suites, state values, pairings,
Gram matrices, and operator application with JSON I/O.

All output is deterministic for fixed flags and seed: words are ordered
by (length, lexicographic), rationals serialize canonically, and decimal
numbers appear only as display annotations (never as data).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .coherent import gram_matrices, indicator_state, renormalized_pairing
from .errors import PadicCuntzError
from .representation import (apply_operator_word, gns_state,
                             parse_operator_word)
from .scalars import format_with_decimal, is_prime
from .stepfunctions import StepFunction, indicator, word_to_center
from .suites import SUITE_NAMES, run_suites
from .words import parse_word, word_str


WORD_HELP = "digits, or dot-separated letters for p > 10"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-cuntz",
        description="Exact verification of Cuntz-algebra identities on "
                    "p-adic step functions and free coherent states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, required=True, help="prime modulus")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--json", dest="pretty", action="store_false",
                           help="machine JSON output (default)")
        group.add_argument("--pretty", dest="pretty", action="store_true",
                           help="human-readable output")
        sp.set_defaults(pretty=False)

    sp = sub.add_parser("verify", help="run an identity suite")
    add_common(sp)
    sp.add_argument("--suite", choices=SUITE_NAMES, default="all")
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--trunc", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)

    for name, text in (("state", "state value of A†_I A_J"),
                       ("pair", "renormalized pairing of X_I and X_J")):
        sp = sub.add_parser(name, help=text)
        add_common(sp)
        for word in "IJ":
            sp.add_argument(f"--{word}", default="",
                            help=f"word {word} ({WORD_HELP})")

    sp = sub.add_parser("gram", help="Gram matrix of {X_I : |I| ≤ maxlen}")
    add_common(sp)
    sp.add_argument("--maxlen", type=int, default=2)

    sp = sub.add_parser("apply", help="apply an operator word to a function")
    add_common(sp)
    sp.add_argument("--ops", required=True,
                    help="e.g. 'a1* a0* a1' (leftmost outermost)")
    sp.add_argument("--input", default="one",
                    help="'one', a StepFunction JSON path, or '-' for stdin")
    sp.add_argument("--disk", default=None,
                    help=f"word ({WORD_HELP}): use the disk indicator "
                         "as input")
    sp.add_argument("--center-convention", choices=("lsd", "msd"),
                    default="lsd", dest="convention",
                    help="how --disk digits address the disk center")
    return parser


def _emit(data, pretty: bool, render) -> None:
    if pretty:
        print(render())
    else:
        print(json.dumps(data, ensure_ascii=False))


def _load_input(args) -> StepFunction:
    if args.disk is not None:
        word = parse_word(args.disk, args.p)
        return indicator(args.p,
                         word_to_center(args.p, word, args.convention))
    if args.input == "one":
        return StepFunction.constant(args.p, 1)
    try:
        if args.input == "-":
            return StepFunction.from_json(json.load(sys.stdin))
        with open(args.input, "r", encoding="utf-8") as fh:
            return StepFunction.from_json(json.load(fh))
    except (ValueError, KeyError, TypeError,  # JSON errors too
            ZeroDivisionError) as exc:
        raise PadicCuntzError(
            f"--input {args.input} is not a step function in JSON "
            f"({type(exc).__name__}: {exc})") from None


def cmd_verify(args) -> int:
    reports = run_suites(args.suite, args.p, depth=args.depth,
                         trunc=args.trunc, seed=args.seed)
    payload = [r.to_json() for r in reports]
    failed = sum(len(r.failures) for r in reports)

    def render():
        lines = []
        for r in reports:
            status = "ok" if r.ok() else f"{len(r.failures)} FAILED"
            lines.append(f"{r.suite:<10} p={r.p} cases={r.cases:<6} "
                         f"{r.wall_time:8.3f}s  {status}")
            for fail in r.failures:
                lines.append(f"    {fail['case']}: expected "
                             f"{fail['expected']}, got {fail['actual']}")
        return "\n".join(lines)

    _emit(payload, args.pretty, render)
    return 0 if failed == 0 else 1


def cmd_value(args, value_of) -> int:
    """``state`` and ``pair``: the value ``value_of(p, I, J)``."""
    I = parse_word(args.I, args.p)
    J = parse_word(args.J, args.p)
    value = value_of(args.p, I, J)
    data = {"p": args.p, "I": word_str(I, args.p), "J": word_str(J, args.p),
            "value": value.to_json(), "display": format_with_decimal(value)}
    _emit(data, args.pretty, lambda: format_with_decimal(value))
    return 0


def cmd_gram(args) -> int:
    basis, ren, l2, equal, max_stab = gram_matrices(args.p, args.maxlen)
    data = {"p": args.p, "basis": [word_str(w, args.p) for w in basis],
            "pairing_gram": [[v.to_json() for v in row] for row in ren],
            "l2_gram": [[v.to_json() for v in row] for row in l2],
            "equal": equal, "max_stabilized_at": max_stab}

    def render():
        lines = [f"basis: {[word_str(w, args.p) or 'Ω' for w in basis]}"]
        for row in ren:
            lines.append("  ".join(f"{v.pretty():>8}" for v in row))
        lines.append(f"equal to L² Gram: {equal} "
                     f"(stabilization index ≤ {max_stab})")
        return "\n".join(lines)

    _emit(data, args.pretty, render)
    return 0 if equal else 1


def cmd_apply(args) -> int:
    word = parse_operator_word(args.ops)
    f = _load_input(args)
    if f.p != args.p:
        raise PadicCuntzError(f"input has p={f.p}, flags say p={args.p}")
    result = apply_operator_word(word, f)
    data = result.to_json()

    def render():
        vals = ", ".join(v.pretty() for v in result.values)
        return f"p={result.p} depth={result.depth}\n[{vals}]"

    _emit(data, args.pretty, render)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    pairing = lambda p, I, J: renormalized_pairing(
        indicator_state(p, I), indicator_state(p, J))
    handlers = {"verify": cmd_verify, "gram": cmd_gram, "apply": cmd_apply,
                "state": partial(cmd_value, value_of=gns_state),
                "pair": partial(cmd_value, value_of=pairing)}
    try:
        if not is_prime(args.p):
            print("error: p must be prime", file=sys.stderr)
            return 2
        return handlers[args.command](args)
    except (PadicCuntzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
