"""Seeded workloads: inputs, the timed operations and their exact checks.

A workload is built round by round.  Round ``r`` of workload ``w`` at
seed ``s`` is drawn from its own ``random.Random(f"{w}:{s}:{r}")``, so the
same seed always gives the same inputs, and every round holds the same
mix of operation kinds: a run's mean cost then depends on how many rounds
it completes, not on which draws happened to be expensive.

An operation is ``Op(name, run, check)``.  ``run()`` is the timed call
into the program; ``check(result)`` is untimed and returns
``(text, status)``, where ``text`` is the canonical printed result that
goes into the run's digest and ``status`` is ``OK``, ``ERROR`` (the
program refused: a nonzero exit) or ``WRONG`` (an exact identity does not
hold).  A ``TriderivError`` raised by ``run()`` is an ``ERROR`` too.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import layers

from triderive import (AutoAction, GnElem, LieElem, Poly, TriAut, act,
                       bracket, center_solve, conjugate_derivation,
                       convert_form, decompose, exp_ad_apply, exp_map,
                       gnelem_to_json, ideal_membership, log_map,
                       multiply_formula, ord_of_element, parse,
                       print_value)
from triderive.lie import standard_generators
from triderive.series import OpSeries

OK, ERROR, WRONG = "ok", "error", "wrong"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(BENCH_DIR, "clishim.py")


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]


def _verdict(text: str, holds: bool) -> tuple[str, str]:
    return text, OK if holds else WRONG


# -- seeded material -------------------------------------------------------------

_DENOMS = (1, 1, 1, 2, 3)

# Ceiling on the weighted degree of generated maps and derivations (see
# weighted_degree).  It keeps every intermediate polynomial of exp, log,
# inversion and composition at total degree <= 8, far from the program's
# cap of 64, so no draw fails, and it keeps the cost of one draw within a
# small multiple of the median.  At 16, one rank-4 exp(log) draw in forty
# cost 10x the median, and at 64 100x: a run's mean then follows a few
# draws, not the program.
WEIGHT_CAP = 8


def rand_rat(rng: random.Random, span: int = 4) -> Fraction:
    """A nonzero rational with a small numerator and denominator."""
    num = 0
    while num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.choice(_DENOMS))


def rand_exponents(rng: random.Random, nvars: int, limit: int,
                   degree: int) -> tuple[int, ...]:
    """Exponents of total degree <= degree on the first ``limit`` variables."""
    exps = [0] * nvars
    if limit:
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(limit)] += 1
    return tuple(exps)


def rand_poly(rng: random.Random, n: int, limit: int, degree: int,
              terms: int) -> Poly:
    """A sparse polynomial in x1..x_limit inside the rank-n ring."""
    out = Poly.zero(n)
    for _ in range(terms):
        exps = rand_exponents(rng, n, limit, degree)
        out = out + Poly.monomial(n, exps, rand_rat(rng))
    return out


def weighted_degree(parts: list[Poly]) -> int:
    """Largest D_i where D_1 = 1 and D_i bounds the degree of parts[i-1]
    with x_j weighted by D_j.

    A triangular map x_i -> l_i x_i + parts[i-1], or a derivation with
    these d_i coefficients, preserves the span of polynomials of weighted
    degree <= D_i; so D bounds the total degree of every power, inverse,
    exp and log built from it.
    """
    weights: list[int] = []
    for p in parts:
        d = 1
        for exps in p.terms:
            d = max(d, sum(e * w for e, w in zip(exps, weights)))
        weights.append(d)
    return max(weights)


def rand_translations(rng: random.Random, n: int, degree: int,
                      terms: int) -> list[Poly]:
    """Triangular translation parts a_i in x1..x_{i-1}, of total degree
    <= degree, redrawn until their weighted degree is <= WEIGHT_CAP."""
    while True:
        parts = [rand_poly(rng, n, i - 1, degree, terms)
                 for i in range(1, n + 1)]
        if weighted_degree(parts) <= WEIGHT_CAP:
            return parts


def rand_lie(rng: random.Random, n: int, degree: int, terms: int) -> LieElem:
    """A nonzero derivation: ``terms`` basis elements x^a d_i, |a| <= degree."""
    while True:
        out = LieElem.zero(n)
        for _ in range(terms):
            i = rng.randint(1, n)
            alpha = rand_exponents(rng, i - 1, i - 1, degree)
            out = out + LieElem.basis(n, alpha, i, rand_rat(rng))
        if out:
            return out


def rand_ct(rng: random.Random, n: int, degree: int) -> TriAut:
    """Unipotent, fixes x1, translations without constant terms."""
    parts = [Poly.zero(n)]
    for i in range(2, n + 1):
        p = rand_poly(rng, n, i - 1, degree, 2)
        parts.append(p - Poly.const(n, p.constant_term()))
    return TriAut(parts)


def rand_torus(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rand_rat(rng, span=3) for _ in range(n))


def rand_series(rng: random.Random, kind: str, var: int, support: int,
                order: int) -> OpSeries:
    lowest = 2 if kind == "FP" else 1
    coeffs = {rng.randint(lowest, support): rand_rat(rng) for _ in range(3)}
    return OpSeries(kind, var, order, coeffs)


def rand_gn(rng: random.Random, n: int, form: str, order: int, support: int,
            tau_degree: int) -> GnElem:
    """A group element in Form A or B with series truncated at ``order``."""
    t = rand_torus(rng, n)
    tau = rand_ct(rng, n, tau_degree)
    f = rand_series(rng, "F" if form == "A" else "FP", n - 1,
                    max(support, 2), order)
    e = [rand_series(rng, "E", k + 1, support, order) for k in range(n - 2)]
    s = [rand_rat(rng) - rand_rat(rng) for _ in range(n - 2)] \
        if form == "A" else None
    return GnElem(n, form, t, tau, s, f, e)


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


# -- group-decompose ---------------------------------------------------------------

ORDER = 8
# (rank, degree of the triangular part).  At rank 4 a degree-2 part makes
# one decomposition cost anywhere from 0.1 s to 3 s by draw, so rank 4
# uses linear triangular parts.
FORM_A_SHAPES = ((2, 2), (3, 2), (4, 1))
FORM_B_SHAPES = ((3, 2), (4, 1))


def _round_trip(g: GnElem) -> Op:
    def run() -> GnElem:
        return decompose(AutoAction.from_gnelem(g), order=ORDER)

    def check(got: GnElem) -> tuple[str, str]:
        return _verdict(print_value(got), got == g)

    return Op(f"roundtrip-r{g.n}", run, check)


def _formula_product(g: GnElem, h: GnElem) -> Op:
    def run() -> tuple[GnElem, GnElem]:
        direct = multiply_formula(g, h)
        composed = decompose(AutoAction.composed(AutoAction.from_gnelem(g),
                                                 AutoAction.from_gnelem(h)),
                             order=ORDER)
        return direct, convert_form(composed, "B", order=ORDER)

    def check(result: tuple[GnElem, GnElem]) -> tuple[str, str]:
        direct, composed = result
        return _verdict(print_value(direct),
                        composed.agrees_with(direct, ORDER))

    return Op(f"product-r{g.n}", run, check)


def group_decompose_round(seed: int, r: int, cli: CliRunner) -> list[Op]:
    rng = _rng("group-decompose", seed, r)
    ops = [_round_trip(rand_gn(rng, n, "A", ORDER, 6, td))
           for n, td in FORM_A_SHAPES]
    for n, td in FORM_B_SHAPES:
        g = rand_gn(rng, n, "B", ORDER, 4, td)
        h = rand_gn(rng, n, "B", ORDER, 4, td)
        ops.append(_formula_product(g, h))
    return ops


# -- automorphism-exp-log ------------------------------------------------------------

def _same_as(expected: Any) -> Callable[[Any], tuple[str, str]]:
    def check(got: Any) -> tuple[str, str]:
        return _verdict(print_value(got), got == expected)
    return check


def _identity_check(composite: TriAut) -> tuple[str, str]:
    return _verdict(print_value(composite), composite.is_identity())


def _pair_check(pair: tuple[Poly, Poly]) -> tuple[str, str]:
    return _verdict(print_value(pair[0]), pair[0] == pair[1])


def _automorphism_ops(tag: str, sigma: TriAut, p: Poly, q: Poly) -> list[Op]:
    """Operations that reuse one map: inverse, homomorphism, round trip."""
    n = sigma.n
    return [
        Op(f"{tag}-inverse-r{n}", lambda: sigma.compose(sigma.invert()),
           _identity_check),
        Op(f"{tag}-homomorphism-r{n}",
           lambda: (sigma.apply(p * q), sigma.apply(p) * sigma.apply(q)),
           _pair_check),
        Op(f"{tag}-back-r{n}", lambda: sigma.invert().apply(sigma.apply(p)),
           _same_as(p)),
    ]


def automorphism_exp_log_round(seed: int, r: int, cli: CliRunner) -> list[Op]:
    rng = _rng("automorphism-exp-log", seed, r)
    ops = []
    for n in (2, 3, 4):
        while True:
            delta = rand_lie(rng, n, 4, 3)
            if weighted_degree(delta.coefficient_polys()) <= WEIGHT_CAP:
                break
        ops.append(Op(f"log-exp-r{n}", lambda d=delta: log_map(exp_map(d)),
                      _same_as(delta)))
        sigma = TriAut(rand_translations(rng, n, 4, 2))
        ops.append(Op(f"exp-log-r{n}", lambda s=sigma: exp_map(log_map(s)),
                      _same_as(sigma)))
        p = rand_poly(rng, n, n, 2, 2)
        q = rand_poly(rng, n, n, 2, 2)
        ops += _automorphism_ops("unipotent", sigma, p, q)
        scaled = TriAut(rand_translations(rng, n, 4, 2), rand_torus(rng, n))
        ops += _automorphism_ops("scaled", scaled, q, p)
    return ops


# -- lie-algebra -----------------------------------------------------------------------

LIE_DEGREE = 5
CENTER_DEGREE = 2
# exp_ad_apply gives up after 10 * (deg v + 2) terms, so after 20 at the
# least, even when the series is finite (see DESIGN.md, "Known defects").
# The exp-ad operation takes only pairs with (ad u)^20 v = 0.  Then
# (ad -u)^20 exp(ad u) v = 0 too, so neither of its calls meets the cap.
EXP_AD_TERMS = 20


def ad_vanishes(u: LieElem, v: LieElem, k: int) -> bool:
    """Whether (ad u)^k v is 0."""
    for _ in range(k):
        if not v:
            break
        v = bracket(u, v)
    return not v


def _jacobi(u: LieElem, v: LieElem, w: LieElem) -> Op:
    def run() -> tuple[LieElem, LieElem]:
        first = bracket(u, bracket(v, w))
        return first, (first + bracket(v, bracket(w, u))
                       + bracket(w, bracket(u, v)))

    def check(result: tuple[LieElem, LieElem]) -> tuple[str, str]:
        return _verdict(print_value(result[0]), result[1].is_zero())

    return Op(f"jacobi-r{u.n}", run, check)


def _exp_ad(u: LieElem, v: LieElem) -> Op:
    def run() -> tuple[LieElem, LieElem]:
        moved = exp_ad_apply(u, v)
        return moved, exp_ad_apply(-u, moved)

    def check(result: tuple[LieElem, LieElem]) -> tuple[str, str]:
        return _verdict(print_value(result[0]), result[1] == v)

    return Op(f"exp-ad-r{u.n}", run, check)


def _ordinal_drop(u: LieElem, v: LieElem) -> Op:
    """The bracket lands strictly below the larger ordinal degree."""
    def run() -> tuple[Any, ...]:
        b = bracket(u, v)
        top = max(ord_of_element(u), ord_of_element(v))
        return (b, ord_of_element(b), top, ideal_membership(b, top),
                ideal_membership(u, ord_of_element(u)))

    def check(result: tuple[Any, ...]) -> tuple[str, str]:
        b, low, top, inside, own = result
        holds = (b.is_zero() or low < top) and inside and own
        return _verdict(print_value(low), holds)

    return Op(f"ordinal-r{u.n}", run, check)


def _center(n: int) -> Op:
    return Op(f"center-r{n}", lambda: center_solve(n, CENTER_DEGREE),
              lambda got: _verdict(" ; ".join(map(print_value, got)),
                                   got == [LieElem.d(n, n)]))


def lie_algebra_round(seed: int, r: int, cli: CliRunner) -> list[Op]:
    rng = _rng("lie-algebra", seed, r)
    ops = []
    for n in (2, 3, 4):
        u, v, w = (rand_lie(rng, n, LIE_DEGREE, 3) for _ in range(3))
        a, b = u, v
        while not ad_vanishes(a, b, EXP_AD_TERMS):
            a, b = (rand_lie(rng, n, LIE_DEGREE, 3) for _ in range(2))
        ops += [_jacobi(u, v, w), _exp_ad(a, b), _ordinal_drop(u, w)]
    # center_solve at rank 4 alone would take half the round
    return ops + [_center(2), _center(3)]


# -- cli-cold ------------------------------------------------------------------------------

class CliRunner:
    """Runs one ``triderive`` command in a fresh process.

    With a recorder attached, the child wraps the layers itself and hands
    its spans back on stderr; they are merged into the recorder.
    """

    def __init__(self) -> None:
        self.recorder: Any = None
        self.import_s: list[float] = []
        self._verdicts: dict[tuple, tuple[str, str]] = {}

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        env = dict(os.environ, PERFBENCH_TRACE="1" if self.recorder else "0")
        done = subprocess.run([sys.executable, SHIM, *argv], env=env,
                              capture_output=True, text=True, timeout=150)
        err = done.stderr
        if self.recorder is not None:
            body, _, payload = err.rpartition(layers.TRACE_MARKER)
            if not payload:
                raise RuntimeError(f"traced child returned no spans: {err}")
            data = json.loads(payload)
            self.recorder.merge(data["spans"])
            self.import_s.append(data["import_s"])
            err = body
        return done.returncode, done.stdout, err

    def verdict(self, key: tuple, judge: Callable[[], tuple[str, str]]
                ) -> tuple[str, str]:
        """Judge each distinct (argv, exit, output) once per run."""
        if key not in self._verdicts:
            self._verdicts[key] = judge()
        return self._verdicts[key]


def _acts_like(g: GnElem, sigma: TriAut) -> bool:
    """g acts on low-degree generators as conjugation by sigma does."""
    return all(act(g, u) == conjugate_derivation(sigma, u)
               for u in standard_generators(sigma.n, 2))


def _cli_op(cli: CliRunner, name: str, argv: list[str],
            judge: Callable[[str], bool]) -> Op:
    def check(result: tuple[int, str, str]) -> tuple[str, str]:
        code, out, err = result
        if code != 0:
            lines = err.strip().splitlines()
            return f"exit {code}: {lines[-1] if lines else ''}", ERROR

        def verdict() -> tuple[str, str]:
            return _verdict(out.rstrip("\n"), judge(out))
        return cli.verdict((tuple(argv), code, out), verdict)

    return Op(name, lambda: cli(argv), check)


def _prints(expected: str) -> Callable[[str], bool]:
    return lambda out: out.strip() == expected


def _decomposes(sigma: TriAut) -> Callable[[str], bool]:
    return lambda out: _acts_like(parse("gnelem-json", out), sigma)


# The README examples, with their documented output.
README_COMMANDS = (
    ("readme-bracket", ["--n", "3", "bracket", "x1^2*d2", "x1*x2*d3"],
     "x1^3*d3"),
    ("readme-exp", ["--n", "2", "exp", "x1^2*d2"], "[0, x1^2]"),
    ("readme-log", ["log", "[0, x1^2]"], "x1^2*d2"),
    ("readme-conjugate", ["conjugate", "[0, x1^2]", "d1"], "d1 - 2*x1*d2"),
    ("readme-reconstruct", ["reconstruct", "d1 - 2*x1*d2", "d2"],
     "[0, x1^2]"),
    ("readme-ord", ["--n", "3", "ord", "d1"], "w^2*1 + w*1 + 1"),
    ("readme-center", ["--n", "3", "center"], "d3"),
    ("readme-ideal", ["--format", "json", "--n", "2", "ideal", "x1*d2",
                      "w*1 + 1"], '{"kind": "bool", "value": true}'),
)

# A rank-4 map with a torus part and a nonlinear top translation.  Its
# action stays under the degree cap; "[0,x1^2,x1*x2^2,x3^2;2,1,3,1]" does
# not (see DESIGN.md, "Known defects").
RANK4_MAP = "[0,x1^2,x1*x2,x3^2;2,1,3,1]"


def cli_cold_round(seed: int, r: int, cli: CliRunner) -> list[Op]:
    """The same commands every round, except that each round draws new
    elements for the seeded ones."""
    rng = _rng("cli-cold", seed, r)
    ops = [_cli_op(cli, name, argv, _prints(text))
           for name, argv, text in README_COMMANDS]
    readme_map = parse("triaut", "[0, x1^2]")
    ops.append(_cli_op(cli, "readme-decompose",
                       ["--n", "2", "decompose", "[0, x1^2]"],
                       _decomposes(readme_map)))

    sigma = TriAut(rand_translations(rng, 3, 2, 2), rand_torus(rng, 3))
    ops.append(_cli_op(cli, "decompose-r3", ["decompose", print_value(sigma)],
                       _decomposes(sigma)))
    g = rand_gn(rng, 3, "A", ORDER, 4, 2)
    h = rand_gn(rng, 3, "A", ORDER, 4, 2)
    g_text = json.dumps(gnelem_to_json(g))
    h_text = json.dumps(gnelem_to_json(h))

    def is_product(out: str) -> bool:
        gh = parse("gnelem-json", out)
        return all(act(gh, u) == act(g, act(h, u))
                   for u in standard_generators(3, 2))

    def is_inverse(out: str) -> bool:
        ginv = parse("gnelem-json", out)
        return all(act(ginv, act(g, u)) == u
                   for u in standard_generators(3, 2))

    ops.append(_cli_op(cli, "mul-r3", ["mul", g_text, h_text], is_product))
    ops.append(_cli_op(cli, "inv-r3", ["inv", g_text], is_inverse))

    rank4 = parse("triaut", RANK4_MAP)
    d1 = LieElem.d(4, 1)
    ops.append(_cli_op(cli, "act-r4", ["act", RANK4_MAP, "d1"],
                       lambda out: out.strip() == print_value(
                           conjugate_derivation(rank4, d1))))
    ops.append(_cli_op(cli, "decompose-r4",
                       ["--n", "4", "decompose", RANK4_MAP],
                       _decomposes(rank4)))
    return ops


class Workload(NamedTuple):
    build: Callable[[int, int, CliRunner], list[Op]]
    batch: int          # operations per latency sample and calibration slice
    cal_units: int      # calibration units per slice
    trace_rounds: int   # rounds in each pass of a traced run
    cold: bool = False  # calibrate in a fresh process, as the operations run


WORKLOADS = {
    "group-decompose": Workload(group_decompose_round, 1, 20, 6),
    "automorphism-exp-log": Workload(automorphism_exp_log_round, 24, 35, 40),
    "lie-algebra": Workload(lie_algebra_round, 11, 4, 200),
    "cli-cold": Workload(cli_cold_round, 1, 5, 1, cold=True),
}


def build_round(name: str, seed: int, r: int,
                cli: CliRunner | None = None) -> list[Op]:
    return WORKLOADS[name].build(seed, r, cli or CliRunner())


def run_op(op: Op) -> tuple[float, Any, BaseException | None]:
    """Time one operation; a raised error is returned, not propagated."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # judged by the caller: counted, never fatal
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None
