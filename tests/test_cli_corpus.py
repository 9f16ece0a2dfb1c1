"""The golden CLI corpus: each entry of ``cli_corpus.json`` is an argv with
the exit code, stdout and stderr it gave when the corpus was written.
Every entry runs in-process through ``cli.main`` and must give the same
bytes, so a refactor that claims byte-identical outputs is checked by the
suite itself.

The corpus covers every subcommand in both ``--format``s, truncation
exits (4), degree-limit exits (2), parse errors (1), each refusal of
``reconstruct`` (2), ``center`` at rank 6, exp, log and inv at ranks
5 and 6 and at the degree limit, and seeded Form A and Form B
elements of ranks 2-4, some exact and some stored through orders 0-8,
among them ``decompose`` asked beyond the stored order.  To rewrite
it after an intended output change, run

    PYTHONPATH=src python tests/test_cli_corpus.py

and record which entries changed and why.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from triderive.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")


def _entries():
    if not CORPUS.exists():
        return []
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", _entries(),
                         ids=lambda e: " ".join(e["argv"])[:60])
def test_cli_prints_the_recorded_bytes(capsys, entry):
    code = main(entry["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["exit"], entry["stdout"], entry["stderr"])


def test_the_corpus_covers_every_subcommand_in_both_formats():
    from triderive.cli import _build_parser
    commands = set(_build_parser()._subparsers._group_actions[0].choices)
    entries = _entries()
    for json_format in (False, True):
        used = {arg for e in entries if ("json" in e["argv"]) == json_format
                for arg in e["argv"] if arg in commands}
        assert used == commands
    assert {e["exit"] for e in entries} >= {0, 1, 2, 4}


# -- writing the corpus ------------------------------------------------------------


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _element(rng: random.Random, n: int, form: str, order):
    """A seeded group element as JSON text: torus scales, a triangular part
    of degree <= 2, and series stored through ``order`` (None: exact)."""
    from triderive.autgroup import GnElem
    from triderive.dsl import gnelem_to_json
    from triderive.poly import Poly, iter_exponents
    from triderive.series import OpSeries
    from triderive.triaut import TriAut
    parts = [Poly.zero(n)]
    for i in range(2, n + 1):
        monos = [e for e in iter_exponents(i - 1, 2) if 0 < sum(e)]
        terms = {e + (0,) * (n - i + 1): _rat(rng)
                 for e in rng.sample(monos, min(2, len(monos)))}
        if form == "B" and i < n and rng.random() < 0.5:
            terms[(0,) * n] = _rat(rng)
        parts.append(Poly(n, terms))

    def series(kind, var, lowest):
        if order is not None and order < lowest:
            return OpSeries(kind, var, order)
        degrees = range(lowest, (order or 5) + 1)
        return OpSeries(kind, var, order, {rng.choice(degrees): _rat(rng)
                                           for _ in range(2)})

    f = series("F" if form == "A" else "FP", n - 1, 1 if form == "A" else 2)
    e = [series("E", k + 1, 1) for k in range(n - 2)]
    s = [_rat(rng) for _ in range(n - 2)] if form == "A" else None
    g = GnElem(n, form, [_rat(rng) for _ in range(n)], TriAut(parts), s, f, e)
    return json.dumps(gnelem_to_json(g))


def _derivation(rng: random.Random, n: int) -> str:
    from triderive.lie import LieElem
    from triderive.poly import iter_exponents
    u = LieElem.zero(n)
    for _ in range(2):
        i = rng.randint(1, n)
        alpha = rng.choice(list(iter_exponents(i - 1, 3)))
        u = u + LieElem.basis(n, alpha, i, _rat(rng))
    return str(u)


FOUND_ELEMENT = ('{"n": 2, "form": "A", "t": ["1", "1"], "tau": {"a": ["0", "0"], '
                 '"lambda": ["1", "1"]}, "s": [], "f": {"order": null, '
                 '"coeffs": {"1": "1"}}, "e": []}')


def corpus_argvs() -> list[list[str]]:
    fixed = [
        ["--n", "3", "bracket", "x1^2*d2", "x1*x2*d3"],
        ["bracket", "--", "-7/3*d1", "x1*d2"],
        ["--n", "2", "exp", "x1^2*d2"],
        ["--n", "3", "exp", "d1 + x1*d2 - 1/2*x2^2*d3"],
        ["log", "[0, x1^2]"],
        ["log", "[1/2, x1^2 - 3, x1*x2 + x1^3]"],
        ["conjugate", "[0, x1^2]", "d1"],
        ["conjugate", "[1, x1^2 + 1, x1*x2^2;2,-1,1/3]", "x1*d3 + d2"],
        ["reconstruct", "d1 - 2*x1*d2", "d2"],
        ["--n", "3", "ord", "d1"],
        ["--n", "4", "ord", "x1^3*x3*d4 + x2*d3"],
        ["--n", "2", "ideal", "x1*d2", "w*1 + 1"],
        ["--n", "2", "ideal", "d1", "w*1"],
        ["--n", "3", "center"],
        ["--n", "2", "decompose", "[0, x1^2]"],
        ["--n", "2", "decompose", "[1, x1]"],
        ["--n", "4", "decompose", "[0,x1^2,x1*x2^2,x3^2;2,1,3,1]"],
        ["act", "[0,x1^2,x1*x2^2,x3^2;2,1,3,1]", "d1"],
        ["--order", "4", "act", "[2, x1^2, x1*x2^2;3,-1,2]", "d1 + x1*d3"],
        ["mul", "[0, x1^2]", "[3, x1;2,1]"],
        ["inv", "[0, x1^2 + x1;1/2,3]"],
        ["verify", "--suite", "dsl"],
        ["inv", FOUND_ELEMENT],
        ["mul", FOUND_ELEMENT, FOUND_ELEMENT],
        ["--order", "16", "inv", FOUND_ELEMENT],
    ]
    errors = [
        # truncation (4)
        ["--order", "9", "decompose", '{"n": 2, "form": "B", "t": ["1", "2"], '
         '"tau": {"a": ["0", "x1^2"], "lambda": ["1", "1"]}, '
         '"f": {"order": 8, "coeffs": {"3": "1"}}, "e": []}'],
        ["act", '{"n": 2, "form": "A", "t": ["1", "1"], "tau": {"a": ["0", "0"], '
         '"lambda": ["1", "1"]}, "s": [], "f": {"order": 2, "coeffs": {"2": "1"}}, '
         '"e": []}', "x1^5*d2"],
        # high degrees, computed up to the key limit 65534
        ["log", "[0, x1^9, x2^9]"],
        ["--n", "2", "exp", "x1^65*d2"],
        ["conjugate", "[0, x1^9, x2^9]", "x2^8*d3"],
        # degree limit (2)
        ["log", "[0, x1^40000, x2^2]"],
        # parse and semantic errors (1)
        ["bracket", "x1^*d2", "d1"],
        ["log", "[0, x1"],
        ["--n", "2", "ord", "x3*d2"],
        ["inv", '{"n": 2, "form": "A"'],
        ["ideal", "d1", "w*"],
        # preconditions and usage (2)
        ["center"],
        ["--order", "0", "decompose", "[0, x1^2]"],
        ["log", "[0, x1;2,1]"],
        ["--n", "1", "bracket", "d1", "d1"],
        ["frobnicate"],
    ]
    rng = random.Random(16)
    seeded = []
    elements = []
    for k, (n, form) in enumerate((n, form) for n in (2, 3, 4)
                                  for form in ("A", "B")):
        for order in (None, 1 + (3 * k) % 8):
            elements.append((n, _element(rng, n, form, order)))
    for k, (n, g) in enumerate(elements):
        seeded.append(["act", "--", g, _derivation(rng, n)])
        if k % 3 == 0:
            seeded.append(["--order", "3", "decompose", g])
        else:
            seeded.append(["decompose", g] if k % 3 == 1 else ["inv", g])
    # Form A with Form B of the same rank, exact with stored through an order
    for (_, g), (_, h) in [*zip(elements[0::4], elements[3::4]),
                           *zip(elements[1::4], elements[2::4])]:
        seeded.append(["mul", g, h])
    # Both formats for the first use of each command; the seeded ones
    # alternate.
    out, seen = [], set()
    for argv in fixed + errors:
        out.append(argv)
        command = next(a for a in argv if a.isalpha())
        if command not in seen:
            seen.add(command)
            out.append(["--format", "json", *argv])
    out += [["--format", "json", *argv] if k % 2 else argv
            for k, argv in enumerate(seeded)]
    # decompose above the stored order exits 4 and names the first degree
    # it asks for.  The spot check asks first, up to degree 3, so all but
    # the last (stored through 2) would name a lower degree if the reads
    # asked first: these pin the order of the questions.
    rng = random.Random(17)
    for n, form, stored, order in ((2, "A", 1, 3), (2, "B", 1, 5),
                                   (3, "A", 0, 2), (3, "B", 0, 4),
                                   (3, "A", 1, 6), (3, "B", 1, 3),
                                   (4, "A", 0, 3), (4, "B", 0, 6),
                                   (4, "A", 2, 4)):
        out.append(["--order", str(order), "decompose",
                    _element(rng, n, form, stored)])
    # act on a map in bracket notation is its conjugation at any --order.
    out += [["act", "[0, x1]", "x1^20*d2"],
            ["--order", "4", "act", "[0, x1]", "x1^5*d2"]]
    # reconstruct refuses frames that are not those of a triangular map,
    # each with its own message (2); center at rank 6.
    out += [["--n", "3", "reconstruct", *frames] for frames in (
        ["d1", "d2 + x1*d3", "d3"], ["d1"], ["d1", "x1*d3", "d3"],
        ["d1", "d2 + x1*d2", "d3"], ["d1", "d2"])]
    out.append(["--n", "6", "center"])
    # exp, inv and log, whose series run on integer numerators: refusals
    # at the degree limit, a rank-6 logarithm, and the inverse of a rank-5
    # map with a torus part.
    out += [["--n", "3", "exp", "x1^40000*d2 + x2^2*d3"],
            ["inv", "[0, x1^40000, x2^2]"],
            ["log", "[0, x1^2 - 1, x1*x2 + 2/3, x3^2 - x1, x2*x4 - 1/5, "
                    "x5^2 + x1*x3]"],
            ["inv", "[1/2, x1^2 - 1, x1*x2 + 2/3, x3^2 - x1, x2*x4 - 1/5; "
                    "2, -1, 3, 1/2, -3]"]]
    return out


def write_corpus() -> None:
    import contextlib
    import io
    entries = []
    for argv in corpus_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        entries.append({"argv": argv, "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    write_corpus()
