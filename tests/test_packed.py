"""The packed exponent keys: every monomial is one int with 16 bits per
exponent, so no stored term may pass total degree ``poly._MAX_DEGREE``.

Values drawn at ranks 2-6 with exponents up to that limit, fields near
2**15 and 2**16 - 2 included, must round-trip through the public tuple
keys and compute what Fraction arithmetic on exponent tuples computes.
The key limit is the one bound on degrees.  Past it, construction,
parsing, products, substitutions and brackets refuse with
DegreeCapError, never with a wrapped key."""

from fractions import Fraction
from operator import add

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import (bracket_by_fractions, exponent_tuples, frac_add,
                      outcome, rationals)
from triderive import (DegreeCapError, LieElem, Poly, TriAut, bracket,
                       center_solve, conjugate_derivation, poly)
from triderive.autgroup import _probe
from triderive.cli import main
from triderive.dsl import parse_lie, parse_poly
from triderive.lie import standard_generators

LIMIT = poly._MAX_DEGREE
ranks = st.integers(2, 6)


def big_exponents(count: int) -> st.SearchStrategy[tuple]:
    """Exponent tuples of total degree <= LIMIT, often with a field close
    to the top of its bits."""
    field = (st.sampled_from([0, 1, 2, 255, 256, 32767, 32768, LIMIT - 1,
                              LIMIT]) | st.integers(0, LIMIT))

    def clip(exps: list) -> tuple:
        total = sum(exps)
        if total > LIMIT:
            exps = [e * LIMIT // total for e in exps]
        return tuple(exps)

    return st.lists(field, min_size=count, max_size=count).map(clip)


def big_terms(nvars: int) -> st.SearchStrategy[dict]:
    return st.dictionaries(big_exponents(nvars), rationals(nonzero=True),
                           max_size=3)


def big_lie_terms(n: int) -> st.SearchStrategy[dict]:
    keys = st.integers(1, n).flatmap(
        lambda i: big_exponents(i - 1).map(lambda a: (a, i)))
    return st.dictionaries(keys, rationals(nonzero=True), max_size=3)


def frac_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = frac_add(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


def small_terms(nvars: int, coeffs: st.SearchStrategy[int]
                ) -> st.SearchStrategy[dict]:
    """Integer terms of small exponents, so that products meet."""
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), coeffs,
                           max_size=4)


nonzero_ints = st.integers(-3, 3).filter(bool)


def substituted_terms(n: int) -> st.SearchStrategy[list]:
    """(exponent tuple, nonzero int) terms of the three routes of
    ``poly._substitute_ints``: the constant, a power of one variable at
    any of x_1..x_n, and a product of several variables."""
    def power(j: int) -> st.SearchStrategy[tuple]:
        return st.integers(1, 3).map(
            lambda e: tuple(e * (k == j) for k in range(n)))

    several = st.tuples(*[st.integers(0, 2)] * n).filter(
        lambda exps: sum(map(bool, exps)) > 1)
    exps = (st.just((0,) * n) | st.integers(0, n - 1).flatmap(power)
            | several)
    return st.dictionaries(exps, st.integers(-5, 5).filter(bool),
                           min_size=1, max_size=5).map(lambda d: list(d.items()))


def images_of_degree(n: int, top: int) -> st.SearchStrategy[dict]:
    """Fraction term dicts of one to three terms, of total degree at most
    ``top``."""
    return st.dictionaries(exponent_tuples(n, top), rationals(nonzero=True),
                           min_size=1, max_size=3)


def over_limit(degree: int, context: str) -> tuple:
    """The outcome of a refusal at the key limit."""
    return (DegreeCapError,
            f"{context} would reach total degree {degree}, over the cap {LIMIT}")


class TestPublicViews:
    @given(ranks.flatmap(lambda n: st.tuples(st.just(n), big_terms(n))))
    def test_poly_round_trips_through_tuple_keys(self, drawn):
        n, terms = drawn
        p = Poly(n, terms)
        assert p.terms == terms
        assert all(type(k) is tuple and len(k) == n for k in p.terms)
        assert Poly(n, p.terms) == p
        assert p.total_degree() == max(map(sum, terms), default=-1)
        assert p.max_var() == max((max(i + 1 for i, e in enumerate(k) if e)
                                   for k in terms if any(k)), default=0)
        for i in range(1, n + 1):
            assert p.degree_in(i) == max((k[i - 1] for k in terms), default=-1)
            assert p.coefficient((0,) * n) == terms.get((0,) * n, 0)

    @given(ranks.flatmap(lambda n: st.tuples(st.just(n), big_lie_terms(n))))
    def test_lie_round_trips_through_basis_keys(self, drawn):
        n, terms = drawn
        u = LieElem(n, terms)
        assert u.terms == terms
        assert all(type(a) is tuple and len(a) == i - 1 for a, i in u.terms)
        assert LieElem(n, u.terms) == u
        assert LieElem.from_coefficients(u.coefficient_polys()) == u


class TestKernels:
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n), small_terms(n, st.integers(-3, 3)),
        small_terms(n, nonzero_ints), small_terms(n, nonzero_ints),
        st.integers(0, 4), nonzero_ints)))
    @example((2, {(1, 0): -1, (0, 1): 0}, {(1, 0): 1}, {(1, 0): 1, (0, 0): -1},
              0, 1))
    def test_product_into_an_accumulator(self, drawn):
        """poly._mul_into adds left x right into an accumulator that may
        already hold terms, zeros among them: each product lands under the
        sum of the exponent tuples, zeros stay, new keys follow in the
        order they are first met, and the left term of key 0, put at a
        drawn place, adds under each right term's own key."""
        n, acc, left, right, pos, c0 = drawn
        zero = (0,) * n
        left.pop(zero, None)
        items = list(left.items())
        items.insert(pos, (zero, c0))
        want = {e: Fraction(c) for e, c in acc.items()}
        for e1, c1 in items:
            for e2, c2 in right.items():
                e = tuple(map(add, e1, e2))
                want[e] = want.get(e, 0) + Fraction(c1) * c2
        packed = {poly._pack(e): c for e, c in acc.items()}
        got = poly._mul_into(packed, [(poly._pack(e), c) for e, c in items],
                             [(poly._pack(e), c) for e, c in right.items()])
        assert got is packed
        assert [(poly._unpack(k, n), c) for k, c in got.items()] == list(
            want.items())

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n), substituted_terms(n),
        st.lists(st.integers(0, 3).flatmap(lambda d: images_of_degree(n, d)),
                 min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, n - 1),
                           st.integers(1, 3), st.integers(0, n - 1)),
                 max_size=2))))
    @example((3, [((0, 0, 2), 3), ((0, 0, 0), -1), ((1, 1, 0), 2),
                  ((0, 1, 0), 1)],
              [{(0, 0, 0): 1, (1, 0, 0): Fraction(1, 2)}, {(0, 0, 1): -1},
               {(2, 0, 0): 1, (0, 1, 1): Fraction(-2, 3)}], []))
    @example((2, [((1, 1), 1), ((0, 3), 1), ((3, 0), 1)],
              [{(1, 1): 1, (0, 0): 2}, {(2, 0): 3}],
              [(2, 0, 1, 1), (1, 1, 3, 1)]))
    def test_substitution_routes(self, drawn):
        """poly._substitute_ints on constants, powers of one variable and
        products of several, by images of degree 0-3 with several terms,
        computes what Fraction arithmetic on exponent tuples computes.
        Bomb terms, put at drawn places, are x_j^e, times x_k when k is
        not j, with e * deg image_j just past the key limit: the refusal
        names the weighted degree of the first, in the order of the
        terms, before any product is formed."""
        n, terms, image_terms, bombs = drawn
        images = [Poly(n, t) for t in image_terms]
        degs = [max(map(sum, t)) for t in image_terms]
        terms = list(terms)
        for pos, j, extra, k in bombs:
            if degs[j] >= 2:
                exps = [0] * n
                exps[j] = LIMIT // degs[j] + extra
                exps[k] += k != j
                terms.insert(pos, (tuple(exps), 1))
        want: object = {}
        for exps, c in terms:
            degree = sum(e * d for e, d in zip(exps, degs))
            if degree > LIMIT:
                want = over_limit(degree, "substitution")
                break
            value = {(0,) * n: Fraction(c)}
            for t, e in zip(image_terms, exps):
                for _ in range(e):
                    value = frac_mul(value, t)
            want = frac_add(want, value)

        def substitute():
            common, acc = poly._substitute_ints(
                poly._Images(images), [(poly._pack(e), c) for e, c in terms])
            assert all(acc.values())
            return {poly._unpack(k, n): Fraction(c, common)
                    for k, c in acc.items()}

        assert outcome(substitute) == want

    @given(ranks.flatmap(lambda n: st.tuples(
        st.just(n), big_terms(n), big_terms(n))))
    def test_product(self, drawn):
        n, a, b = drawn
        top = max(map(sum, a), default=0) + max(map(sum, b), default=0)
        want = (over_limit(top, "product") if a and b and top > LIMIT
                else Poly(n, frac_mul(a, b)))
        assert outcome(lambda: Poly(n, a) * Poly(n, b)) == want

    @given(ranks.flatmap(lambda n: st.tuples(
        st.just(n), big_terms(n),
        st.lists(st.tuples(st.integers(0, n),
                           st.sampled_from([1, -1, 2, Fraction(1, 2)])),
                 min_size=n, max_size=n))))
    def test_substitution_by_monomials(self, drawn):
        """x_i := c_i x_j (or the constant c_i when j is 0), so every
        power is one term, whatever its exponent."""
        n, terms, maps = drawn
        images = [Poly.monomial(n, [int(k == j - 1) for k in range(n)], c)
                  for j, c in maps]
        want: dict = {}
        for exps, coeff in terms.items():
            out = [0] * n
            for e, (j, c) in zip(exps, maps):
                coeff *= Fraction(c) ** e
                if j:
                    out[j - 1] += e
            want = frac_add(want, {tuple(out): coeff})
        assert Poly(n, terms).substitute(images) == Poly(n, want)

    @given(ranks.flatmap(lambda n: st.tuples(
        st.just(n), big_lie_terms(n),
        st.lists(st.sampled_from([1, -1, 2, Fraction(1, 2), 3]),
                 min_size=n, max_size=n))))
    def test_conjugation_by_a_torus(self, drawn):
        """x^a d_i goes to lambda^a / lambda_i x^a d_i."""
        n, terms, lams = drawn
        want = {}
        for (alpha, i), c in terms.items():
            for a, lam in zip(alpha, lams):
                c *= Fraction(lam) ** a
            want[(alpha, i)] = c / lams[i - 1]
        got = conjugate_derivation(TriAut.torus(lams), LieElem(n, terms))
        assert got == LieElem(n, want)

    @given(ranks.flatmap(lambda n: st.tuples(
        st.just(n), big_lie_terms(n), big_terms(n))))
    def test_derivation_applied(self, drawn):
        """sum p_i dp/dx_i, refused at the first index whose product
        p_i * dp/dx_i would pass the limit."""
        n, terms, q = drawn
        want: dict = {}
        for i in range(1, n + 1):
            part = {alpha + (0,) * (n - i + 1): c
                    for (alpha, k), c in terms.items() if k == i}
            dq = {e[:i - 1] + (e[i - 1] - 1,) + e[i:]: c * e[i - 1]
                  for e, c in q.items() if e[i - 1]}
            if part and dq:
                top = max(map(sum, part)) + max(map(sum, dq))
                if top > LIMIT:
                    want = over_limit(top, "product")
                    break
                want = frac_add(want, frac_mul(part, dq))
        if isinstance(want, dict):
            want = Poly(n, want)
        assert outcome(LieElem(n, terms).apply_to, Poly(n, q)) == want

    @given(ranks.flatmap(lambda n: st.tuples(
        st.just(n), big_lie_terms(n), big_lie_terms(n))))
    def test_bracket(self, drawn):
        """Refused at the first pair of terms, in the order of the
        operands, whose bracket is a term of degree past the limit."""
        n, s, t = drawn
        want = None
        for (a, i), _ in s.items():
            for (b, j), _ in t.items():
                if (i < j and b[i - 1]) or (i > j and a[j - 1]):
                    if sum(a) + sum(b) - 1 > LIMIT and want is None:
                        want = over_limit(sum(a) + sum(b) - 1, "bracket")
        if want is None:
            want = LieElem(n, bracket_by_fractions(s, t))
        assert outcome(bracket, LieElem(n, s), LieElem(n, t)) == want


class TestPastTheLimit:
    def test_construction(self):
        assert Poly(2, {(LIMIT, 0): 1}).total_degree() == LIMIT
        for exps in [(LIMIT + 1, 0), (32768, 32767), (0, 1 << 16)]:
            with pytest.raises(DegreeCapError, match="term would reach total "
                               f"degree {sum(exps)}, over the cap {LIMIT}"):
                Poly(2, {exps: 1})
            with pytest.raises(DegreeCapError):
                LieElem(3, {(exps, 3): 1})
        with pytest.raises(DegreeCapError):
            Poly.monomial(3, (1, 1, LIMIT - 1))
        with pytest.raises(DegreeCapError):
            LieElem.basis(2, (LIMIT + 1,), 2)

    def test_parse(self):
        assert parse_poly(f"x1^{LIMIT}").total_degree() == LIMIT
        for text in [f"x1^{LIMIT + 1}", f"x1^{LIMIT}*x2", "x1^65536",
                     "x1^40000*x1^30000"]:
            with pytest.raises(DegreeCapError):
                parse_poly(text)
            with pytest.raises(DegreeCapError):
                parse_lie(f"{text}*d3")

    def test_bracket_at_and_past_the_limit(self):
        at = bracket(LieElem.basis(3, (40000,), 2),
                     LieElem.basis(3, (0, LIMIT - 40000 + 1), 3))
        assert at == LieElem.basis(3, (40000, LIMIT - 40000), 3,
                                   LIMIT - 40000 + 1)
        with pytest.raises(DegreeCapError, match="bracket would reach total "
                           f"degree {LIMIT + 1}, over the cap {LIMIT}"):
            bracket(LieElem.basis(3, (40000,), 2),
                    LieElem.basis(3, (0, LIMIT - 40000 + 2), 3))
        # a pair that gives no term is no refusal
        assert not bracket(LieElem.basis(3, (LIMIT,), 2),
                           LieElem.basis(3, (LIMIT, 0), 3))

    def test_generators_centers_and_probes(self):
        with pytest.raises(DegreeCapError):
            standard_generators(2, LIMIT + 1)
        with pytest.raises(DegreeCapError):
            center_solve(3, LIMIT // 2 + 1)
        with pytest.raises(DegreeCapError):
            _probe(2, 2, LIMIT + 1)
        assert _probe(2, 2, 3) == LieElem.basis(2, (3,), 2, Fraction(1, 6))

    @pytest.mark.parametrize("argv, err", [
        (["--n", "2", "bracket", f"x1^{LIMIT + 1}*d2", "d1"],
         f"term would reach total degree {LIMIT + 1}"),
        (["--n", "3", "bracket", "x1^40000*d2", f"x2^{LIMIT - 39998}*d3"],
         f"bracket would reach total degree {LIMIT + 1}"),
        (["conjugate", f"[0, x1^{LIMIT + 1}]", "d1"],
         f"term would reach total degree {LIMIT + 1}"),
        (["log", "[0, x1^32768*x1^32768]"],
         "term would reach total degree 65536"),
    ])
    def test_exit_2_through_the_cli(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}, over the cap {LIMIT}\n"

    def test_the_limit_itself_computes_through_the_cli(self, capsys):
        assert main(["--n", "2", "bracket", f"x1^{LIMIT}*d2", "d1"]) == 0
        assert capsys.readouterr().out == f"-{LIMIT}*x1^{LIMIT - 1}*d2\n"
