"""Seeded identity checks behind the command line `verify` subcommand.

Every check is exact: all arithmetic is rational, so there are no
tolerances anywhere.  A check draws its random material from its own
`random.Random(f"{seed}:{name}")`, which makes each one reproducible in
isolation and keeps the suites independent of one another.

Checks raise CheckFailure with enough detail to replay the offending
draw; run_checks turns that into (name, ok, detail) rows for the driver.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from fractions import Fraction
from typing import Callable, Sequence

from .autgroup import (AutoAction, GnElem, _conjugation_element, act,
                       decompose, convert_form, exp_ad_auto, gn_inverse,
                       multiply_formula)
from .cli import SUITES, main
from .dsl import parse, print_value
from .errors import TriderivError
from .lie import (LieElem, bracket, center_solve, exp_ad_apply,
                  basis_compare, ideal_membership, iter_basis_keys,
                  key_sort_key, ord_of_element, standard_generators)
from .ordinals import ord_of_basis
from .poly import Poly
from .series import OpSeries
from .triaut import (TriAut, conjugate_derivation, exp_map, log_map,
                     reconstruct_from_frames)


class CheckFailure(Exception):
    """One verified identity does not hold; the message pins the draw."""


def _ensure(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailure(detail)


# -- random material ---------------------------------------------------------------

_DENOMS = (1, 1, 1, 2, 3)


def _random_rat(rng: random.Random, nonzero: bool = False,
                span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    while nonzero and num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.choice(_DENOMS))


def _random_exponents(rng: random.Random, nvars: int, limit: int,
                      degree: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for _ in range(rng.randint(0, degree)):
        if limit == 0:
            break
        exps[rng.randrange(limit)] += 1
    return tuple(exps)


def _random_poly(rng: random.Random, n: int, limit: int, degree: int,
                 terms: int) -> Poly:
    """A sparse element of K[x_1..x_limit] inside the rank-n ring."""
    out = Poly.zero(n)
    for _ in range(terms):
        exps = _random_exponents(rng, n, limit, degree)
        out = out + Poly.monomial(n, exps, _random_rat(rng, nonzero=True))
    return out


def _random_lie(rng: random.Random, n: int, degree: int = 3, terms: int = 2,
                max_index: int | None = None,
                nonzero: bool = False) -> LieElem:
    top = n if max_index is None else max_index
    while True:
        out = LieElem.zero(n)
        for _ in range(terms):
            i = rng.randint(1, top)
            alpha = _random_exponents(rng, i - 1, i - 1, degree)
            out = out + LieElem.basis(n, alpha, i,
                                      _random_rat(rng, nonzero=True))
        if out or not nonzero:
            return out


def _random_unipotent(rng: random.Random, n: int, degree: int = 3,
                      terms: int = 2) -> TriAut:
    return TriAut([_random_poly(rng, n, i - 1, degree, terms)
                   for i in range(1, n + 1)])


def _random_ct(rng: random.Random, n: int, degree: int = 2,
               terms: int = 2) -> TriAut:
    parts = [Poly.zero(n)]
    for i in range(2, n + 1):
        p = _random_poly(rng, n, i - 1, degree, terms)
        parts.append(p - Poly.const(n, p.constant_term()))
    return TriAut(parts)


def _random_torus(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(_random_rat(rng, nonzero=True, span=3) for _ in range(n))


def _random_series(rng: random.Random, kind: str, var: int, support: int,
                   order: int | None, terms: int = 3) -> OpSeries:
    lowest = 2 if kind == "FP" else 1
    coeffs: dict[int, Fraction] = {}
    for _ in range(terms):
        coeffs[rng.randint(lowest, support)] = _random_rat(rng, nonzero=True)
    return OpSeries(kind, var, order, coeffs)


def _random_gn(rng: random.Random, n: int, form: str, order: int | None,
               support: int = 4, tau_degree: int = 2) -> GnElem:
    t = _random_torus(rng, n)
    tau = _random_ct(rng, n, degree=tau_degree)
    f_kind = "F" if form == "A" else "FP"
    f = _random_series(rng, f_kind, n - 1, max(support, 2), order)
    e = [_random_series(rng, "E", k + 1, support, order)
         for k in range(n - 2)]
    s = [_random_rat(rng) for _ in range(n - 2)] if form == "A" else None
    return GnElem(n, form, t, tau, s, f, e)


# -- action-level helpers ----------------------------------------------------------


def _apply_by_diff(series: OpSeries, p: Poly) -> Poly:
    """sum_k c_k (d/dx_var)^k on p by repeated Poly.diff, the stored
    order checked first: the oracle for OpSeries.apply.  It stops at the
    last nonzero coefficient, past which every step would add zero."""
    need = p.degree_in(series.var)
    series._require_order(need)
    out = Poly.zero(p.nvars) if series.kind == "E" else p
    for k in range(1, min(need, series.support()) + 1):
        p = p.diff(series.var)
        out = out + p.scale(series.coeffs.get(k, 0))
    return out


def _apply_feeds(e: Sequence[OpSeries], coeffs: list[Poly]) -> list[Poly]:
    """p_n  ->  p_n + sum_i e_i(p_i) on the coefficients p_1..p_n of a
    derivation, through repeated Poly.diff; the other coefficients stay.
    An oracle for the feeds step of ``act``."""
    extra = Poly.zero(len(coeffs))
    for k, series in enumerate(e):
        pi = coeffs[k + 1]
        if pi:
            extra = extra + _apply_by_diff(series, pi)
    if not extra:
        return coeffs
    return coeffs[:-1] + [coeffs[-1] + extra]


def _apply_unit_series(f: OpSeries, coeffs: list[Poly]) -> list[Poly]:
    """p_n  ->  f(p_n) on the coefficients p_1..p_n of a derivation,
    through repeated Poly.diff; the other coefficients stay.  An oracle
    for the unit series step of ``act``."""
    pn = coeffs[-1]
    if not pn:
        return coeffs
    return coeffs[:-1] + [_apply_by_diff(f, pn)]


def _f_action(n: int, f: OpSeries) -> AutoAction:
    return AutoAction(n, lambda u: LieElem.from_coefficients(
        _apply_unit_series(f, u.coefficient_polys())))


def _e_action(n: int, i: int, s: OpSeries) -> AutoAction:
    feeds = tuple(s if k + 2 == i else OpSeries.zero_e(k + 1)
                  for k in range(n - 2))
    return AutoAction(n, lambda u: LieElem.from_coefficients(
        _apply_feeds(feeds, u.coefficient_polys())))


def _torus_action(lams: Sequence[Fraction]) -> AutoAction:
    return AutoAction.from_triaut(TriAut.torus(lams))


def _chain(*actions: AutoAction) -> AutoAction:
    out = actions[0]
    for nxt in actions[1:]:
        out = AutoAction.composed(out, nxt)
    return out


def _actions_agree(lhs: AutoAction, rhs: AutoAction, n: int,
                   max_exponent: int, what: str) -> None:
    for g in standard_generators(n, max_exponent):
        if lhs(g) != rhs(g):
            raise CheckFailure(f"{what}: differ on {g}")


# -- suite: bracket ----------------------------------------------------------------

def _oracle_bracket(u: LieElem, v: LieElem) -> LieElem:
    """[u, v] computed as a commutator of operators, not from the
    structure constants: a derivation is pinned down by its values on
    the coordinates."""
    n = u.n
    images = []
    for j in range(1, n + 1):
        xj = Poly.var(n, j)
        images.append(u.apply_to(v.apply_to(xj)) - v.apply_to(u.apply_to(xj)))
    return LieElem.from_coefficients(images)


def check_bracket_oracle(rng: random.Random) -> str:
    pairs = 0
    for n in (2, 3, 4):
        keys = list(iter_basis_keys(n, 3))
        elems = [LieElem.basis(n, alpha, i) for alpha, i in keys]
        for u in elems:
            for v in elems:
                got = bracket(u, v)
                want = _oracle_bracket(u, v)
                _ensure(got == want,
                        f"bracket {u}, {v}: got {got}, oracle {want}")
                pairs += 1
    triples = 0
    for trial in range(1000):
        n = 2 + trial % 3
        u = _random_lie(rng, n)
        v = _random_lie(rng, n)
        w = _random_lie(rng, n)
        _ensure(bracket(u, v) == -bracket(v, u),
                f"antisymmetry fails on {u}, {v}")
        jac = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
               + bracket(w, bracket(u, v)))
        _ensure(jac.is_zero(), f"Jacobi fails on {u}, {v}, {w}")
        triples += 1
    return f"{pairs} basis pairs against the operator oracle, {triples} triples"


def check_derived_subalgebra(rng: random.Random) -> str:
    inward = 0
    spanned = 0
    for n in (2, 3, 4):
        keys = list(iter_basis_keys(n, 5))
        elems = [LieElem.basis(n, alpha, i) for alpha, i in keys]
        for u in elems:
            for v in elems:
                w = bracket(u, v)
                _ensure(w.is_zero() or w.min_index() >= 2,
                        f"bracket {u}, {v} leaks a d1 component")
                inward += 1
        # every basis element of index >= 2 is itself a bracket
        for alpha, i in iter_basis_keys(n, 4):
            if i == 1:
                continue
            lifted = (alpha[0] + 1,) + alpha[1:]
            witness = bracket(LieElem.d(n, 1),
                              LieElem.basis(n, lifted, i)).scale(
                                  Fraction(1, alpha[0] + 1))
            _ensure(witness == LieElem.basis(n, alpha, i),
                    f"no bracket witness for x^{alpha} d_{i}")
            spanned += 1
    return f"{inward} brackets inside the span, {spanned} spanning witnesses"


def check_center(rng: random.Random) -> str:
    for n in (2, 3, 4):
        got = center_solve(n, 3)
        _ensure(got == [LieElem.d(n, n)],
                f"rank {n}: center basis is {got}")
    return "center is spanned by the last coordinate derivation, n = 2, 3, 4"


def check_order_isomorphism(rng: random.Random) -> str:
    checked = 0
    for n in (2, 3, 4):
        keys = sorted(iter_basis_keys(n, 4), key=key_sort_key)
        ords = [ord_of_basis(alpha, i, n) for alpha, i in keys]
        for k in range(len(keys) - 1):
            _ensure(basis_compare(keys[k], keys[k + 1]) < 0,
                    f"basis order not strict at {keys[k]}")
            _ensure(ords[k] < ords[k + 1],
                    f"ordinal degree not strict at {keys[k]} -> {keys[k + 1]}")
            checked += 1
    drops = 0
    while drops < 500:
        n = 2 + drops % 3
        u = _random_lie(rng, n, degree=4, nonzero=True)
        v = _random_lie(rng, n, degree=4, nonzero=True)
        w = bracket(u, v)
        if w.is_zero():
            continue
        bound = min(ord_of_element(u), ord_of_element(v))
        _ensure(ord_of_element(w) < bound,
                f"ord does not drop on [{u}, {v}]")
        drops += 1
    return f"{checked} adjacent key pairs, {drops} strict ordinal drops"


# -- suite: group ------------------------------------------------------------------

def check_exp_log(rng: random.Random) -> str:
    trips = 0
    for trial in range(200):
        n = 2 + trial % 3
        delta = _random_lie(rng, n, degree=4, terms=3)
        _ensure(log_map(exp_map(delta)) == delta,
                f"log(exp) misses {delta}")
        sigma = _random_unipotent(rng, n, degree=4, terms=2)
        _ensure(exp_map(log_map(sigma)) == sigma,
                f"exp(log) misses {sigma}")
        trips += 1
    factored = 0
    for trial in range(50):
        n = 2 + trial % 3
        sigma = _random_unipotent(rng, n, degree=3, terms=2)
        acc = TriAut.identity(n)
        for k in range(1, n + 1):
            coeffs = [Poly.zero(n)] * n
            coeffs[k - 1] = sigma.a[k - 1]
            acc = exp_map(LieElem.from_coefficients(coeffs)).compose(acc)
        _ensure(acc == sigma, f"exponential factorization misses {sigma}")
        factored += 1
    return f"{trips} double round trips, {factored} factorizations"


def check_conjugation(rng: random.Random) -> str:
    shapes = 0
    for trial in range(200):
        n = 2 + trial % 3
        sigma = TriAut([_random_poly(rng, n, i - 1, 3, 2)
                        for i in range(1, n + 1)],
                       _random_torus(rng, n))
        for i in range(1, n + 1):
            w = conjugate_derivation(sigma, LieElem.d(n, i))
            _ensure(w.coefficient_poly(i) == Poly.const(n, 1 / sigma.lam[i - 1]),
                    f"conjugated d{i} has a wrong leading coefficient")
            _ensure(w.min_index() == i,
                    f"conjugated d{i} touches an earlier index")
        shapes += 1
    homs = 0
    for trial in range(100):
        n = 2 + trial % 3
        sigma = TriAut([_random_poly(rng, n, i - 1, 2, 2)
                        for i in range(1, n + 1)],
                       _random_torus(rng, n))
        u = _random_lie(rng, n)
        v = _random_lie(rng, n)
        lhs = conjugate_derivation(sigma, bracket(u, v))
        rhs = bracket(conjugate_derivation(sigma, u),
                      conjugate_derivation(sigma, v))
        _ensure(lhs == rhs, f"conjugation is not a homomorphism on {u}, {v}")
        homs += 1
    return f"{shapes} coordinate frames shaped, {homs} bracket images"


def check_reconstruction(rng: random.Random) -> str:
    recovered = 0
    for trial in range(100):
        n = 2 + trial % 3
        sigma = TriAut.torus(_random_torus(rng, n)).compose(
            _random_ct(rng, n, degree=2))
        frames = [conjugate_derivation(sigma, LieElem.d(n, i))
                  for i in range(1, n + 1)]
        _ensure(reconstruct_from_frames(frames) == sigma,
                f"reconstruction misses {sigma}")
        recovered += 1
    # the rank-2 frame (d1 - 2 x1 d2, d2) comes from x2 -> x2 + x1^2
    frames = [LieElem.d(2, 1) + LieElem.basis(2, (1,), 2, -2), LieElem.d(2, 2)]
    expect = TriAut([Poly.zero(2), Poly.monomial(2, (2, 0), 1)])
    _ensure(reconstruct_from_frames(frames) == expect,
            "the worked rank-2 frame reconstructs wrongly")
    return f"{recovered} random frames plus the worked rank-2 frame"


def check_commutation_lemmas(rng: random.Random) -> str:
    draws = 0

    def commutator_action(a: AutoAction, a_inv: AutoAction,
                          b: AutoAction, b_inv: AutoAction) -> AutoAction:
        return _chain(a, b, a_inv, b_inv)

    for trial in range(50):
        # torus conjugation rescales a feed series coefficientwise
        n = 3 + trial % 2
        i = rng.randint(2, n - 1)
        lams = _random_torus(rng, n)
        s = _random_series(rng, "E", i - 1, 4, None)
        lhs = _chain(_torus_action(lams), _e_action(n, i, s),
                     _torus_action([1 / c for c in lams]))
        expected = s.scale_powers(1 / lams[i - 2]).scale_coeffs(
            lams[i - 1] / lams[n - 1])
        _actions_agree(lhs, _e_action(n, i, expected), n, 6,
                       f"torus vs feed series (draw {trial})")

        # ... and a unit series powerwise, preserving a missing linear term
        n = 2 + trial % 3
        lams = _random_torus(rng, n)
        for kind in ("F", "FP"):
            f = _random_series(rng, kind, n - 1, 4, None)
            lhs = _chain(_torus_action(lams), _f_action(n, f),
                         _torus_action([1 / c for c in lams]))
            expected = f.scale_powers(1 / lams[n - 2])
            _ensure(expected.kind == kind and
                    (kind != "FP" or not expected.coefficient(1)),
                    "power rescaling left the series family")
            _actions_agree(lhs, _f_action(n, expected), n, 6,
                           f"torus vs unit series {kind} (draw {trial})")
        draws += 3

    for trial in range(50):
        # a feed series sees only the matching translation component
        n = 3 + trial % 2
        i = rng.randint(2, n - 1)
        s_idx = rng.randint(1, n)
        s = _random_series(rng, "E", i - 1, 4, None)
        a_s = _random_poly(rng, n, s_idx - 1, 3, 2)
        coeffs = [Poly.zero(n)] * n
        coeffs[s_idx - 1] = a_s
        tau = exp_map(LieElem.from_coefficients(coeffs))
        e_act = _e_action(n, i, s)
        e_inv = _e_action(n, i, s.negate_e())
        tau_act = AutoAction.from_triaut(tau)
        tau_inv = AutoAction.from_triaut(tau.invert())
        got = commutator_action(e_act, e_inv, tau_act, tau_inv)
        if s_idx == i:
            q = s.apply(a_s)
            rhs = AutoAction.from_triaut(exp_map(LieElem.from_coefficients(
                [Poly.zero(n)] * (n - 1) + [q])))
        else:
            rhs = AutoAction.from_triaut(TriAut.identity(n))
        _actions_agree(got, rhs, n, 6,
                       f"feed against exp(a d_{s_idx}) (draw {trial})")

        # conjugating exp(a d_s) by a feed series deposits exp(s(a) d_n)
        conj = _chain(e_act, tau_act, e_inv)
        if s_idx == i:
            rhs = _chain(AutoAction.from_triaut(exp_map(
                LieElem.from_coefficients(
                    [Poly.zero(n)] * (n - 1) + [s.apply(a_s)]))), tau_act)
        else:
            rhs = tau_act
        _actions_agree(conj, rhs, n, 6,
                       f"feed conjugation of exp(a d_{s_idx}) (draw {trial})")
        draws += 2

    for trial in range(50):
        # a unit series sees only the last translation component
        n = 2 + trial % 3
        s_idx = rng.randint(1, n)
        f = _random_series(rng, "F", n - 1, 4, None)
        a_s = _random_poly(rng, n, s_idx - 1, 3, 2)
        coeffs = [Poly.zero(n)] * n
        coeffs[s_idx - 1] = a_s
        tau = exp_map(LieElem.from_coefficients(coeffs))
        f_act = _f_action(n, f)
        f_inv = _f_action(n, f.reciprocal(12))
        tau_act = AutoAction.from_triaut(tau)
        tau_inv = AutoAction.from_triaut(tau.invert())
        got = commutator_action(tau_act, tau_inv, f_act, f_inv)
        if s_idx == n:
            drop = f.apply_without_unit(a_s)
            rhs = AutoAction.from_triaut(exp_map(LieElem.from_coefficients(
                [Poly.zero(n)] * (n - 1) + [-drop])))
        else:
            rhs = AutoAction.from_triaut(TriAut.identity(n))
        _actions_agree(got, rhs, n, 6,
                       f"unit series against exp(a d_{s_idx}) (draw {trial})")

        # ... equivalently, conjugation rewrites the translation through f
        conj = _chain(f_act, tau_act, f_inv)
        if s_idx == n:
            rhs = AutoAction.from_triaut(exp_map(LieElem.from_coefficients(
                [Poly.zero(n)] * (n - 1) + [f.apply(a_s)])))
        else:
            rhs = tau_act
        _actions_agree(conj, rhs, n, 6,
                       f"unit conjugation of exp(a d_{s_idx}) (draw {trial})")
        draws += 2

    # two pinned instances with everything written out
    n = 3
    s = OpSeries("E", 1, None, {1: Fraction(1)})
    tau = exp_map(LieElem.basis(3, (2,), 2))
    got = commutator_action(_e_action(3, 2, s), _e_action(3, 2, s.negate_e()),
                            AutoAction.from_triaut(tau),
                            AutoAction.from_triaut(tau.invert()))
    rhs = AutoAction.from_triaut(exp_map(LieElem.basis(3, (1, 0), 3, 2)))
    _actions_agree(got, rhs, 3, 6, "the pinned rank-3 feed commutator")

    f = OpSeries("F", 1, None, {2: Fraction(1)})
    tau = exp_map(LieElem.basis(2, (2,), 2))
    got = commutator_action(AutoAction.from_triaut(tau),
                            AutoAction.from_triaut(tau.invert()),
                            _f_action(2, f), _f_action(2, f.reciprocal(12)))
    rhs = AutoAction.from_triaut(exp_map(LieElem.d(2, 2).scale(-2)))
    _actions_agree(got, rhs, 2, 6, "the pinned rank-2 unit commutator")

    return f"{draws} parameter draws plus the two pinned instances"


def check_adjoint_action(rng: random.Random) -> str:
    matched = 0
    for trial in range(200):
        n = 2 + trial % 3
        u = _random_lie(rng, n, degree=3, terms=2)
        v = _random_lie(rng, n, degree=3, terms=2)
        _ensure(exp_ad_apply(u, v) == conjugate_derivation(exp_map(u), v),
                f"exp(ad u) disagrees with conjugation on {u}, {v}")
        matched += 1
    coords = 0
    for trial in range(30):
        # exp(ad u) is conjugation by exp(u); a map with a torus part and
        # constant terms covers T^n and the shifts as well
        n = 2 + trial % 3
        u = _random_lie(rng, n, degree=2, terms=2)
        sigma = TriAut([_random_poly(rng, n, i - 1, 2, 2)
                        for i in range(1, n + 1)], _random_torus(rng, n))
        for action, image in ((exp_ad_auto(u), exp_map(u)),
                              (AutoAction.from_triaut(sigma), sigma)):
            want = convert_form(_conjugation_element(image), "A", 8)
            _ensure(decompose(action, order=8).agrees_with(want, 8),
                    f"the decomposition of conjugation by {image} is not "
                    f"its element")
        coords += 1
    return f"{matched} conjugation matches, {coords} coordinate checks"


def check_ordinal_invariance(rng: random.Random) -> str:
    for trial in range(200):
        n = 2 + trial % 3
        g = _random_gn(rng, n, "A", None)
        u = _random_lie(rng, n, degree=4, terms=3, nonzero=True)
        v = act(g, u)
        _ensure(ord_of_element(v) == ord_of_element(u),
                f"ord changes under {g!r} on {u}")
        i = rng.randint(1, n)
        alpha = _random_exponents(rng, i - 1, i - 1, 4)
        lam = ord_of_basis(alpha, i, n)
        _ensure(ideal_membership(u, lam) == ideal_membership(v, lam),
                f"ideal at {lam} not respected on {u}")
    return "200 elements keep their ordinal degree and their ideals"


def check_feed_cocycle(rng: random.Random) -> str:
    for trial in range(200):
        n = 3 + trial % 2
        feeds = tuple(_random_series(rng, "E", k + 1, 4, None)
                      for k in range(n - 2))

        def c(u: LieElem) -> LieElem:
            return LieElem.from_coefficients(
                _apply_feeds(feeds, u.coefficient_polys())) - u

        for i in range(1, n):
            _ensure(c(LieElem.d(n, i)).is_zero(),
                    "a coordinate derivation feeds a nonzero correction")
        u = _random_lie(rng, n, degree=3, terms=2, max_index=n - 1)
        v = _random_lie(rng, n, degree=3, terms=2, max_index=n - 1)
        lhs = c(bracket(u, v))
        rhs = bracket(c(u), v) + bracket(u, c(v))
        _ensure(lhs == rhs, f"cocycle law fails on {u}, {v}")
    return "200 pairs satisfy the derivation rule for the correction"


# -- suite: decompose --------------------------------------------------------------

def check_decomposition_roundtrip(rng: random.Random) -> str:
    trips = 0
    for trial in range(100):
        n = 2 + trial % 3
        g = _random_gn(rng, n, "A", 8, support=6)
        got = decompose(AutoAction.from_gnelem(g), order=8)
        _ensure(got == g, f"decomposition misses {g!r}")
        trips += 1
    for n in (2, 3, 4):
        shift = TriAut.one_shift(n, n, _random_rat(rng, nonzero=True))
        got = decompose(AutoAction.from_triaut(shift), order=8)
        _ensure(got.is_identity(),
                f"a last-coordinate shift decomposes to {got!r}")
    return f"{trips} exact round trips, last-coordinate shifts vanish"


def check_multiplication(rng: random.Random) -> str:
    products = 0
    for trial in range(100):
        n = 3 + trial % 2
        g = _random_gn(rng, n, "B", 8, support=4)
        h = _random_gn(rng, n, "B", 8, support=4)
        direct = multiply_formula(g, h)
        composed = decompose(AutoAction.composed(AutoAction.from_gnelem(g),
                                                 AutoAction.from_gnelem(h)),
                             order=8)
        _ensure(convert_form(composed, "B", order=8).agrees_with(direct, 8),
                f"formula and composition disagree on draw {trial}")
        products += 1
    inverses = 0
    for trial in range(30):
        n = 2 + trial % 3
        g = _random_gn(rng, n, "B", 8, support=4)
        ginv = gn_inverse(g)
        for u in standard_generators(n, 4):
            _ensure(act(ginv, act(g, u)) == u,
                    f"left inverse fails on {u} (draw {trial})")
            _ensure(act(g, act(ginv, u)) == u,
                    f"right inverse fails on {u} (draw {trial})")
        inverses += 1
    return f"{products} products against composition, {inverses} inverses"


# -- suite: dsl --------------------------------------------------------------------

_ROUNDTRIP_CORPUS: tuple[tuple[str, str], ...] = (
    ("poly", "0"),
    ("poly", "5"),
    ("poly", "-7/3"),
    ("poly", "x1"),
    ("poly", "x1^2 + x2"),
    ("poly", "2*x1*x2 - x3"),
    ("poly", "-x1 + 1/2"),
    ("poly", "3/4*x2^5 - 2*x1^3*x2 + 1"),
    ("poly", "x1*x2*x3 - x1*x2 + x1"),
    ("poly", "10*x4^2 - 10*x4"),
    ("lie", "d1"),
    ("lie", "d2 - d1"),
    ("lie", "x1*d2"),
    ("lie", "3*x1^2*d2 + d1"),
    ("lie", "x1*x2*d3 - 2*d3"),
    ("lie", "1/2*x2^4*d3"),
    ("lie", "x3^2*d4 + x1*d2"),
    ("lie", "-d4"),
    ("lie", "2/3*x1^3*d4 - x2*d3 + d2"),
    ("lie", "x1^6*d2"),
    ("triaut", "[0, 0]"),
    ("triaut", "[0, x1^2]"),
    ("triaut", "[1, x1 + 1/2]"),
    ("triaut", "[0, 0 ; 2, 1/3]"),
    ("triaut", "[0, x1, x2^2 ; 1, -1, 4]"),
    ("triaut", "[0, 2*x1, x1*x2]"),
    ("triaut", "[-3, x1^3 - x1, 0]"),
    ("triaut", "[0, 0, 0, x3 ; 1, 1, 2, 1]"),
    ("triaut", "[1/2, -x1, x2 + 1, x1*x3]"),
    ("triaut", "[0, x1^2 ; -1, 5]"),
    ("ordinal", "0"),
    ("ordinal", "7"),
    ("ordinal", "w"),
    ("ordinal", "w*3"),
    ("ordinal", "w^2"),
    ("ordinal", "w^3*2 + w*4 + 9"),
    ("ordinal", "w^5 + 1"),
    ("ordinal", "w^2*6 + w^1*1"),
    ("ordinal", "w^4*2 + w^2*2 + 3"),
    ("series", "1"),
    ("series", "1 + D"),
    ("series", "1 - 1/2*D^2"),
    ("series", "1 + 2*D + 3*D^2 + 4*D^3"),
    ("series", "1 - D^6"),
    ("series", "1 + 7/5*D^4 - D^2"),
    ("gnelem-json", '{"n": 2, "form": "A", "t": ["1", "1"],'
     ' "tau": {"a": ["0", "x1^2"], "lambda": ["1", "1"]}, "s": [],'
     ' "f": {"order": null, "coeffs": {}}, "e": []}'),
    ("gnelem-json", '{"n": 2, "form": "B", "t": ["2", "1/3"],'
     ' "tau": {"a": ["0", "x1"], "lambda": ["1", "1"]},'
     ' "f": {"order": 8, "coeffs": {"2": "-1/2"}}, "e": []}'),
    ("gnelem-json", '{"n": 3, "form": "A", "t": ["1", "-1", "2"],'
     ' "tau": {"a": ["0", "x1^2", "x1*x2"], "lambda": ["1", "1", "1"]},'
     ' "s": ["1/2"], "f": {"order": 8, "coeffs": {"1": "1"}},'
     ' "e": [{"i": 2, "order": null, "coeffs": {"3": "2"}}]}'),
    ("gnelem-json", '{"n": 3, "form": "B", "t": ["1", "1", "1"],'
     ' "tau": {"a": ["0", "0", "x2^2"], "lambda": ["1", "1", "1"]},'
     ' "f": {"order": null, "coeffs": {}},'
     ' "e": [{"i": 2, "order": 6, "coeffs": {"1": "-1"}}]}'),
    ("gnelem-json", '{"n": 4, "form": "A", "t": ["1", "2", "3", "4"],'
     ' "tau": {"a": ["0", "x1", "0", "x3^2"], "lambda": ["1", "1", "1", "1"]},'
     ' "s": ["0", "-2"], "f": {"order": null, "coeffs": {}}, "e": []}'),
)

# every entry must exit with code 1 and point at a span
_NEGATIVE_CORPUS: tuple[tuple[str, ...], ...] = (
    ("bracket", "d1 +", "d2"),
    ("bracket", "x2*d2", "d1"),
    ("bracket", "d0", "d1"),
    ("bracket", "1/0*d1", "d2"),
    ("bracket", "d1", "d2$"),
    ("exp", "x1*"),
    ("exp", "x1*d1"),
    ("log", "[x1, ; 1, 1]"),
    ("log", "[0, x2^2]"),
    ("log", "[0, 0 ; 1]"),
    ("log", "[0, 0 ; 1, 0]"),
    ("ord", "w^0*3"),
    ("ord", "w^2 +"),
    ("ideal", "d1", "w*"),
    ("conjugate", "[0, 0]", "x1^d2"),
    ("act", '{"n": 2,', "d1"),
    ("act", '{"n": 2, "form": "C", "t": ["1", "1"], "tau": {"a": ["0", "0"],'
     ' "lambda": ["1", "1"]}, "s": [], "f": {"order": null, "coeffs": {}},'
     ' "e": []}', "d1"),
    ("decompose", "[0, x1 ; 1, 1, 1]"),
    ("reconstruct", "d1 - d2", "x1&d2"),
    ("mul", '{"n": 2}', '{"n": 2}'),
)


def check_dsl_roundtrip(rng: random.Random) -> str:
    for kind, text in _ROUNDTRIP_CORPUS:
        value = parse(kind, text)
        printed = print_value(value)
        again = parse(kind, printed)
        _ensure(again == value,
                f"{kind} round trip changes the value of {text!r}")
        _ensure(print_value(again) == printed,
                f"{kind} printing of {text!r} is not canonical")

    for argv in _NEGATIVE_CORPUS:
        err = io.StringIO()
        out = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(list(argv))
        _ensure(code == 1,
                f"{argv!r} exits with {code}, not 1")
        _ensure(re.search(r"at \d+\.\.\d+", err.getvalue()) is not None,
                f"{argv!r} reports no input span")
    return (f"{len(_ROUNDTRIP_CORPUS)} round trips, "
            f"{len(_NEGATIVE_CORPUS)} rejected inputs")


# -- driver ------------------------------------------------------------------------

CHECKS: tuple[tuple[str, str, Callable[[random.Random], str]], ...] = (
    ("bracket-operator-oracle", "bracket", check_bracket_oracle),
    ("derived-subalgebra-span", "bracket", check_derived_subalgebra),
    ("center-is-last-coordinate", "bracket", check_center),
    ("basis-order-isomorphism", "bracket", check_order_isomorphism),
    ("exp-log-bijection", "group", check_exp_log),
    ("conjugation-shape", "group", check_conjugation),
    ("frame-reconstruction", "group", check_reconstruction),
    ("commutation-lemmas", "group", check_commutation_lemmas),
    ("adjoint-action", "group", check_adjoint_action),
    ("ordinal-invariance", "group", check_ordinal_invariance),
    ("feed-cocycle", "group", check_feed_cocycle),
    ("decomposition-round-trip", "decompose", check_decomposition_roundtrip),
    ("multiplication-formula", "decompose", check_multiplication),
    ("dsl-round-trip", "dsl", check_dsl_roundtrip),
)


def run_checks(suite: str = "all", seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run one suite (or everything) and report (name, passed, detail) rows."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for name, tag, fn in CHECKS:
        if suite != "all" and tag != suite:
            continue
        rng = random.Random(f"{seed}:{name}")
        try:
            detail = fn(rng)
            results.append((name, True, detail))
        except CheckFailure as exc:
            results.append((name, False, str(exc)))
        except TriderivError as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
