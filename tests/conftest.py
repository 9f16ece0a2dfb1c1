"""Shared hypothesis profile, value strategies and seeded generators for
the test suite."""

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, Phase, settings

from triderive import (GnElem, LieElem, OpSeries, OrdinalCNF, Poly, TriAut,
                       TriderivError)
from triderive.poly import _MAX_DEGREE

# The explain phase would rerun a failing draw for minutes.
settings.register_profile(
    "suite",
    settings(max_examples=40, deadline=None, derandomize=True,
             phases=[p for p in Phase if p is not Phase.explain],
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.filter_too_much]))
settings.load_profile("suite")


def rationals(span: int = 6, nonzero: bool = False) -> st.SearchStrategy[Fraction]:
    nums = st.integers(-span, span)
    if nonzero:
        nums = nums.filter(bool)
    return st.builds(Fraction, nums, st.integers(1, 4))


def exponent_tuples(nvars: int, max_total: int = 3) -> st.SearchStrategy[tuple]:
    return st.lists(
        st.integers(0, max_total), min_size=nvars, max_size=nvars,
    ).map(tuple).filter(lambda e: sum(e) <= max_total)


def polys(nvars: int, max_total: int = 3, max_terms: int = 4,
          max_var: int | None = None) -> st.SearchStrategy[Poly]:
    """Sparse polynomials; max_var restricts to the subring on x1..xk."""
    exps = exponent_tuples(nvars, max_total)
    if max_var is not None:
        exps = exps.filter(lambda e: not any(e[max_var:]))
    return st.dictionaries(exps, rationals(nonzero=True), max_size=max_terms).map(
        lambda d: Poly(nvars, d))


def lie_elems(n: int, max_degree: int = 3,
              max_terms: int = 3) -> st.SearchStrategy[LieElem]:
    def key(i: int):
        return exponent_tuples(i - 1, max_degree).map(lambda a: (a, i))

    keys = st.integers(1, n).flatmap(key)
    return st.dictionaries(keys, rationals(nonzero=True), max_size=max_terms).map(
        lambda d: sum((LieElem.basis(n, a, i, c) for (a, i), c in d.items()),
                      LieElem.zero(n)))


def unipotent_auts(n: int, max_total: int = 2) -> st.SearchStrategy[TriAut]:
    parts = [st.just(Poly.zero(n))]
    for i in range(2, n + 1):
        parts.append(polys(n, max_total, max_terms=2, max_var=i - 1))
    return st.tuples(*parts).map(lambda a: TriAut(list(a)))


def triangular_auts(n: int, max_total: int = 2) -> st.SearchStrategy[TriAut]:
    lams = st.lists(rationals(span=3, nonzero=True), min_size=n, max_size=n)
    return st.tuples(unipotent_auts(n, max_total), lams).map(
        lambda pair: TriAut(list(pair[0].a), pair[1]))


def unit_series(order: int = 6, kind: str = "F") -> st.SearchStrategy[OpSeries]:
    """Series in D = d/dx1 through ``order``; despite the name, kind "E"
    gives series with no constant term."""
    lowest = 2 if kind == "FP" else 1
    return st.dictionaries(
        st.integers(lowest, order), rationals(span=3, nonzero=True), max_size=3,
    ).map(lambda coeffs: OpSeries(kind, 1, order, coeffs))


def ordinals(max_exp: int = 3) -> st.SearchStrategy[OrdinalCNF]:
    return st.dictionaries(
        st.integers(0, max_exp), st.integers(1, 5), max_size=3,
    ).map(OrdinalCNF)


def gn_elems(n: int, form: str,
             order: int | None = None) -> st.SearchStrategy[GnElem]:
    """Group elements in Form A or B; every series is exact when order
    is None and truncated at ``order`` otherwise."""
    top = 6 if order is None else order

    def series(kind: str, var: int) -> st.SearchStrategy[OpSeries]:
        lowest = 2 if kind == "FP" else 1
        return st.dictionaries(
            st.integers(lowest, top), rationals(span=3, nonzero=True),
            max_size=3,
        ).map(lambda coeffs: OpSeries(kind, var, order, coeffs))

    def no_constant(p: Poly) -> Poly:
        return p - Poly.const(n, p.constant_term())

    # Form A: tau fixes x1 and has no constant terms, the shift is s.
    # Form B: tau is unipotent, with no constant term only in x_n.
    if form == "A":
        first = st.just(Poly.zero(n))
    else:
        first = rationals().map(lambda c: Poly.const(n, c))
    parts = [first]
    for i in range(2, n + 1):
        part = polys(n, 2, max_terms=2, max_var=i - 1)
        if form == "A" or i == n:
            part = part.map(no_constant)
        parts.append(part)
    return st.builds(
        lambda t, a, s, f, e: GnElem(n, form, t, TriAut(list(a)), s, f, e),
        st.lists(rationals(span=3, nonzero=True), min_size=n, max_size=n),
        st.tuples(*parts),
        st.lists(rationals(), min_size=n - 2, max_size=n - 2)
        if form == "A" else st.none(),
        series("F" if form == "A" else "FP", n - 1),
        st.tuples(*(series("E", k + 1) for k in range(n - 2))))


def rand_poly(rng: random.Random, nvars: int, max_terms: int = 4,
              max_total: int = 3, max_var: int | None = None) -> Poly:
    """A seeded sparse polynomial with rational coefficients; max_var
    restricts it to the subring on x1..xk."""
    used = nvars if max_var is None else max_var
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_total) if used else 0):
            exps[rng.randrange(used)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                                      rng.randint(1, 6))
    return Poly(nvars, terms)


def rand_triaut(rng: random.Random, n: int, max_total: int = 2) -> TriAut:
    """A seeded triangular automorphism with rational scales."""
    parts = [rand_poly(rng, n, 1, 0, 0)]
    parts += [rand_poly(rng, n, 3, max_total, i) for i in range(1, n)]
    lams = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
            for _ in range(n)]
    return TriAut(parts, lams)


def bomb(rng: random.Random, sigma: TriAut, i: int) -> Poly:
    """One term in x1..x_i, for the coefficient of d_{i+1}, that
    substitution through sigma's images refuses before it forms any
    product: x_k^e, with e * deg sigma(x_k) just past the key limit.  Zero
    when no image of x1..x_i has degree 2 or more."""
    degs = sigma.images().degs
    ks = [k for k in range(i) if degs[k] >= 2]
    if not ks:
        return Poly.zero(sigma.n)
    k = rng.choice(ks)
    exps = [0] * sigma.n
    exps[k] = _MAX_DEGREE // degs[k] + rng.randint(1, 3)
    return Poly.monomial(sigma.n, exps, Fraction(rng.choice([-2, 1, 3]),
                                                 rng.randint(1, 3)))


def sympy_terms(expr, symbols) -> dict:
    """Exponent tuple -> Fraction map of a sympy expression, expanded."""
    import sympy

    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *symbols).as_dict().items() if c}


def to_sympy(p: Poly, symbols):
    import sympy

    out = sympy.Integer(0)
    for exps, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for sym, e in zip(symbols, exps):
            mono *= sym ** e
        out += mono
    return out


def assert_lowest_terms(p) -> None:
    """The stored form of a Poly, LieElem or OpSeries: nonzero integer
    numerators over one positive denominator, in lowest terms, with
    denominator 1 for zero."""
    assert isinstance(p._den, int) and p._den >= 1
    assert all(isinstance(c, int) and c for c in p._nums.values())
    assert math.gcd(p._den, *p._nums.values()) == 1


def frac_add(a: dict, b: dict) -> dict:
    """Sum of two Fraction term dicts, the arithmetic of a dict of
    Fractions per polynomial or derivation."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def bracket_by_fractions(u: dict, v: dict) -> dict:
    """[u, v] of two Fraction term dicts from the structure constants
    [x^a d_i, x^b d_j] = b_i x^(a + b - e_i) d_j for i < j, in Fraction
    arithmetic: the oracle of the integer bracket."""
    def basis_bracket(a, i, b, j, c):
        # c times [x^a d_i, x^b d_j], i < j, as a term dict
        if not b[i - 1]:
            return {}
        gamma = [x + y for x, y in zip(a + (0,) * (j - i), b)]
        gamma[i - 1] -= 1
        return {(tuple(gamma), j): b[i - 1] * c}

    out: dict = {}
    for (a, i), ca in u.items():
        for (b, j), cb in v.items():
            if i < j:
                out = frac_add(out, basis_bracket(a, i, b, j, ca * cb))
            elif i > j:
                out = frac_add(out, basis_bracket(b, j, a, i, -ca * cb))
    return out


def conjugate_by_polys(sigma: TriAut, coeffs: list) -> list:
    """Oracle for the conjugation kernel: the d_1..d_n coefficient
    polynomials of u in, those of sigma u sigma^(-1) out, through Poly
    arithmetic: each nonzero p_i substituted by TriAut.apply, then
    scaled by 1/lambda_i and multiplied into each nonzero entry below
    the diagonal of the inverse Jacobian's column i, as sigma's cache
    lists them.  Degree-cap checks come in the same order as the
    kernel's."""
    n = sigma.n
    jac = sigma._inverse_jacobian()
    out = [Poly.zero(n)] * n
    for i, p in enumerate(coeffs, start=1):
        if not p:
            continue
        image = sigma.apply(p)
        out[i - 1] = out[i - 1] + image.scale(1 / sigma.lam[i - 1])
        for j, m, _ in jac[i - 1][1:]:
            out[j - 1] = out[j - 1] + m * image
    return out


def inverse_jacobian_by_polys(sigma: TriAut) -> tuple:
    """Oracle for ``TriAut._inverse_jacobian``: forward substitution in
    J M = 1 through Poly arithmetic, each entry below the diagonal the
    sum of its products grad_k * M[k][i] for k = i..j-1, then scaled by
    -1/lambda_j; the products' degree-limit checks come in the order of
    j, i, k.  The same columns of (j, M[j][i], degree) out."""
    n = sigma.n
    rows: list = []
    for j in range(n):
        grad = [sigma.a[j].diff(k + 1) for k in range(j)]
        row = []
        for i in range(j):
            acc = Poly.zero(n)
            for k in range(i, j):
                if grad[k] and rows[k][i]:
                    acc = acc + grad[k] * rows[k][i]
            row.append(acc.scale(-1 / sigma.lam[j]))
        row.append(Poly.const(n, 1 / sigma.lam[j]))
        rows.append(row)
    return tuple(tuple((j, m, m.total_degree())
                       for j in range(i, n + 1) if (m := rows[j - 1][i - 1]))
                 for i in range(1, n + 1))


def series_product_by_fractions(a: dict, b: dict, limit: int) -> dict:
    """Oracle for ``OpSeries.mul``: the coefficients of degrees 1..limit of
    (1 + sum a_k D^k)(1 + sum b_k D^k), for Fraction coefficient dicts a
    and b, by the quadratic loop in Fraction arithmetic."""
    coeffs = {}
    for deg in range(1, limit + 1):
        total = a.get(deg, Fraction(0)) + b.get(deg, Fraction(0))
        for i in range(1, deg):
            ai = a.get(i)
            if ai:
                bi = b.get(deg - i)
                if bi:
                    total += ai * bi
        if total:
            coeffs[deg] = total
    return coeffs


def series_reciprocal_by_fractions(a: dict, order: int) -> dict:
    """Oracle for ``OpSeries.reciprocal``: the coefficients of degrees
    1..order of 1 / (1 + sum a_k D^k), for a Fraction coefficient dict a,
    by the recurrence b_k = -a_k - sum_{i<k} a_{k-i} b_i in Fraction
    arithmetic."""
    coeffs = {}
    for deg in range(1, order + 1):
        total = -a.get(deg, Fraction(0))
        for i in range(1, deg):
            bi = coeffs.get(i)
            if bi:
                ai = a.get(deg - i)
                if ai:
                    total -= ai * bi
        if total:
            coeffs[deg] = total
    return coeffs


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raised."""
    try:
        return fn(*args)
    except TriderivError as exc:
        return type(exc), str(exc)
