"""Batch command line front end.

Every subcommand reads its operands from argv (an argument of the form
"@path" is replaced by that file's contents), computes one pure value,
and writes it to stdout; diagnostics go to stderr.  Exit codes:

    0  success
    1  the input text does not parse or denotes no valid value
    2  a precondition is violated (rank mismatch, non-unipotent log, ...),
       or an "@path" operand cannot be read as UTF-8 text
    3  a verification check failed
    4  a series query needed coefficients beyond the stored order

Group elements travel as JSON (see the dsl module for the schema); all
other values use the one-line text grammar.  Output is deterministic:
the same argv and --seed always produce the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .errors import DomainError, DslError, TriderivError, TruncationError
from .poly import DEFAULT_ORDER

# The choices of verify --suite: "all", or the tag of a group of checks.
SUITES = ("all", "bracket", "group", "decompose", "dsl")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triderive",
        description="Exact computations in the Lie algebra of triangular "
                    "derivations and its automorphism group.")
    parser.add_argument("--n", type=int, default=None,
                        help="rank of the algebra (inferred when omitted)")
    parser.add_argument("--order", type=int, default=None,
                        help=f"series order for decompositions and "
                             f"truncations (default {DEFAULT_ORDER}; decompose "
                             f"reads a JSON element through the smallest "
                             f"order its series store)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output style")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the verify suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_text: str, *operands: str) -> None:
        p = sub.add_parser(name, help=help_text)
        for operand in operands:
            nargs = "+" if operand.endswith("...") else None
            p.add_argument(operand.rstrip("."), nargs=nargs)

    cmd("bracket", "Lie bracket of two derivations", "left", "right")
    cmd("exp", "exponential automorphism of a derivation", "derivation")
    cmd("log", "logarithm of a unipotent triangular automorphism", "aut")
    cmd("conjugate", "conjugate a derivation by an automorphism",
        "aut", "derivation")
    cmd("reconstruct", "automorphism matching a commuting frame",
        "frame...")
    cmd("act", "apply a group element to a derivation",
        "element", "derivation")
    cmd("decompose", "canonical Form A coordinates of an automorphism",
        "element")
    cmd("mul", "product of two group elements", "left", "right")
    cmd("inv", "inverse of a group element", "element")
    cmd("ord", "ordinal degree of a derivation", "derivation")
    cmd("ideal", "membership of a derivation in an ordinal ideal",
        "derivation", "ordinal")
    cmd("center", "basis of the center (needs --n)")
    verify = sub.add_parser("verify", help="run the identity check suites")
    verify.add_argument("--suite", choices=SUITES, default="all")
    return parser


def _resolve(text: str) -> str:
    if text.startswith("@"):
        path = text[1:]
        with open(path, encoding="utf-8") as handle:
            try:
                return handle.read()
            except UnicodeDecodeError as exc:
                # An I/O problem like a missing file, so it exits 2 too.
                raise OSError(f"{path}: not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    return text


def _operand(text: str, n: int | None):
    """A group element operand as its action, with its coordinates when
    it is JSON; a triangular automorphism in bracket notation acts by
    conjugation and comes with None."""
    from .autgroup import AutoAction
    from .dsl import parse_gnelem, parse_triaut
    text = _resolve(text)
    if text.lstrip().startswith("{"):
        g = parse_gnelem(text)
        return AutoAction.from_gnelem(g), g
    return AutoAction.from_triaut(parse_triaut(text, n)), None


def _element(text: str, n: int | None, order: int | None):
    """A group element operand as coordinates.  A bracket-notation map
    enters as the element of its conjugation, built exactly, and given in
    Form A, as decompose gives it: truncated through the order only when
    Form A's f takes up a shift of x_{n-1}."""
    from .autgroup import _conjugation_element, convert_form
    from .dsl import parse_gnelem, parse_triaut
    text = _resolve(text)
    if text.lstrip().startswith("{"):
        return parse_gnelem(text)
    return convert_form(_conjugation_element(parse_triaut(text, n)), "A",
                        order)


def _emit(value: Any, kind: str, fmt: str) -> None:
    from .dsl import gnelem_to_json, print_value
    if fmt == "json":
        if kind == "gnelem":
            payload: Any = gnelem_to_json(value)
        elif isinstance(value, list):
            payload = [print_value(v) for v in value]
        elif isinstance(value, bool):
            payload = value
        else:
            payload = print_value(value)
        print(json.dumps({"kind": kind, "value": payload}, sort_keys=True))
    elif isinstance(value, bool):
        print("true" if value else "false")
    elif isinstance(value, list):
        for v in value:
            print(print_value(v))
    else:
        print(print_value(value))


def _run(args: argparse.Namespace) -> int:
    n = args.n
    if n is not None and n < 2:
        raise DomainError("rank must be at least 2")
    if args.order is not None and args.order < 1:
        raise DomainError("series order must be at least 1")
    command = args.command
    order = args.order if args.order is not None else DEFAULT_ORDER
    # Each command imports only the modules it runs.
    from .dsl import parse_lie, parse_ordinal, parse_triaut
    from .lie import bracket, center_solve, ideal_membership, ord_of_element

    if command == "bracket":
        left, right = _resolve(args.left), _resolve(args.right)
        rank = n or max(parse_lie(left).n, parse_lie(right).n)
        _emit(bracket(parse_lie(left, rank), parse_lie(right, rank)),
              "lie", args.format)
    elif command == "exp":
        from .triaut import exp_map
        _emit(exp_map(parse_lie(_resolve(args.derivation), n)),
              "triaut", args.format)
    elif command == "log":
        from .triaut import log_map
        _emit(log_map(parse_triaut(_resolve(args.aut), n)),
              "lie", args.format)
    elif command == "conjugate":
        from .triaut import conjugate_derivation
        sigma = parse_triaut(_resolve(args.aut), n)
        u = parse_lie(_resolve(args.derivation), sigma.n)
        _emit(conjugate_derivation(sigma, u), "lie", args.format)
    elif command == "reconstruct":
        from .triaut import reconstruct_from_frames
        rank = n if n is not None else max(len(args.frame), 2)
        frames = [parse_lie(_resolve(chunk), rank) for chunk in args.frame]
        _emit(reconstruct_from_frames(frames), "triaut", args.format)
    elif command == "act":
        action, _ = _operand(args.element, n)
        u = parse_lie(_resolve(args.derivation), action.n)
        _emit(action(u), "lie", args.format)
    elif command == "decompose":
        from .autgroup import decompose
        action, g = _operand(args.element, n)
        if g is not None and args.order is None:
            # Read through what the element stores, not beyond it.
            stored = [s.order for s in (g.f, *g.e) if s.order is not None]
            order = max(min(stored, default=DEFAULT_ORDER), 1)
        _emit(decompose(action, order=order), "gnelem", args.format)
    elif command == "mul":
        from .autgroup import convert_form, multiply_formula
        g = _element(args.left, n, args.order)
        h = _element(args.right, n, args.order)
        product = multiply_formula(convert_form(g, "B", args.order),
                                   convert_form(h, "B", args.order))
        if g.form == "A":
            product = convert_form(product, "A", args.order)
        _emit(product, "gnelem", args.format)
    elif command == "inv":
        from .autgroup import gn_inverse
        g = _element(args.element, n, args.order)
        _emit(gn_inverse(g, args.order), "gnelem", args.format)
    elif command == "ord":
        _emit(ord_of_element(parse_lie(_resolve(args.derivation), n)),
              "ordinal", args.format)
    elif command == "ideal":
        u = parse_lie(_resolve(args.derivation), n)
        lam = parse_ordinal(_resolve(args.ordinal))
        _emit(ideal_membership(u, lam), "bool", args.format)
    elif command == "center":
        if n is None:
            raise DomainError("center needs an explicit --n")
        _emit(center_solve(n, 3), "lie-list", args.format)
    elif command == "verify":
        from .verify import run_checks
        results = run_checks(args.suite, args.seed)
        if args.format == "json":
            payload = [{"name": name, "passed": ok, "detail": detail}
                       for name, ok, detail in results]
            print(json.dumps({"kind": "verify", "value": payload},
                             sort_keys=True))
        else:
            for name, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not all(ok for _, ok, _ in results):
            return 3
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TriderivError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
