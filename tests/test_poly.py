"""Exact polynomial arithmetic, calculus and substitution."""

import random
from fractions import Fraction
from operator import add

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (assert_lowest_terms, frac_add, outcome, polys,
                      rand_poly, rationals, sympy_terms, to_sympy)
from triderive import DegreeCapError, DomainError, Poly, rat, rat_str
from triderive.poly import _Images, format_poly, iter_exponents


def x(i: int, nvars: int = 3) -> Poly:
    return Poly.var(nvars, i)


class TestConstruction:
    def test_zero_terms_are_dropped(self):
        p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_bad_exponent_length(self):
        with pytest.raises(DomainError):
            Poly(2, {(1,): 1})

    def test_negative_exponent(self):
        with pytest.raises(DomainError):
            Poly.monomial(2, (-1, 0))

    def test_var_index_out_of_range(self):
        with pytest.raises(DomainError):
            Poly.var(2, 3)

    def test_mixed_ring_arithmetic_rejected(self):
        with pytest.raises(DomainError):
            Poly.var(2, 1) + Poly.var(3, 1)


class TestQueries:
    def test_degrees(self):
        p = x(1) ** 2 * x(2) + x(3)
        assert p.total_degree() == 3
        assert p.degree_in(1) == 2
        assert p.degree_in(3) == 1
        assert Poly.zero(3).total_degree() == -1

    def test_max_var_and_subring(self):
        p = x(1) ** 4 + x(2)
        assert p.max_var() == 2
        assert p.uses_only(2)
        assert not p.uses_only(1)
        assert Poly.const(3, 5).max_var() == 0

    def test_coefficient_lookup(self):
        p = x(1) * x(2).scale(Fraction(3, 2))
        assert p.coefficient((1, 1, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 0, 1)) == 0
        assert p.constant_term() == 0


class TestArithmetic:
    @given(polys(2), polys(2), polys(2))
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(2))
    def test_additive_inverse(self, p):
        assert p - p == Poly.zero(2)
        assert p + (-p) == Poly.zero(2)

    @given(polys(2), rationals())
    def test_scale_matches_constant_multiply(self, p, c):
        assert p.scale(c) == p * Poly.const(2, c)

    def test_product_oracle(self):
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2
        p = (x(1) + x(2)) * (x(1) - x(2))
        assert p == x(1) ** 2 - x(2) ** 2

    @given(polys(2, max_total=2), st.integers(0, 5))
    def test_power_is_iterated_product(self, p, k):
        expected = Poly.const(2, 1)
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            x(1) ** -1


class TestDegreeCap:
    """The one degree bound is the packed key's limit, 65534: products,
    powers and substitutions reach it and are refused one past it, before
    any product is formed."""

    def test_product_over_cap(self):
        p = Poly.monomial(1, (32767,))
        assert p * p == Poly.monomial(1, (65534,))
        with pytest.raises(DegreeCapError, match="product would reach total "
                           "degree 65535, over the cap 65534") as refused:
            p * Poly.monomial(1, (32768,))
        assert (refused.value.degree, refused.value.cap) == (65535, 65534)

    def test_power_over_cap(self):
        assert len(((x(1, 1) + Poly.const(1, 1)) ** 65).terms) == 66
        assert x(1, 1) ** 65534 == Poly.monomial(1, (65534,))
        with pytest.raises(DegreeCapError, match="power would reach total "
                           "degree 65535, over the cap 65534"):
            x(1, 1) ** 65535

    def test_substitution_over_cap(self):
        cube = [Poly.monomial(1, (3,), 2)]
        assert Poly.monomial(1, (21844,)).substitute(cube) == Poly.monomial(
            1, (65532,), 2 ** 21844)
        with pytest.raises(DegreeCapError, match="substitution would reach "
                           "total degree 65535, over the cap 65534"):
            Poly.monomial(1, (21845,)).substitute(cube)


class TestCalculus:
    def test_diff_oracle(self):
        p = x(1) ** 3 * x(2) + x(2) ** 2
        assert p.diff(1) == x(1) ** 2 * x(2).scale(3)
        assert p.diff(2) == x(1) ** 3 + x(2).scale(2)
        assert p.diff(3) == Poly.zero(3)

    @given(polys(2), polys(2))
    def test_leibniz_rule(self, p, q):
        assert (p * q).diff(1) == p.diff(1) * q + p * q.diff(1)

    @given(polys(2), polys(2))
    def test_diff_commutes(self, p, q):
        assert p.diff(1).diff(2) == p.diff(2).diff(1)

    def test_diff_index_range(self):
        with pytest.raises(DomainError):
            x(1).diff(4)


class TestSubstitution:
    def test_identity_substitution(self):
        p = x(1) ** 2 * x(3) - x(2)
        assert p.substitute([x(1), x(2), x(3)]) == p

    def test_worked_example(self):
        # x1^2*x2 at x2 := x1 + 1 (in the same ring)
        p = Poly.var(2, 1) ** 2 * Poly.var(2, 2)
        q = p.substitute([Poly.var(2, 1), Poly.var(2, 1) + Poly.const(2, 1)])
        assert q == Poly.var(2, 1) ** 3 + Poly.var(2, 1) ** 2

    def test_changes_ring(self):
        p = Poly.var(2, 1) + Poly.var(2, 2)
        q = p.substitute([Poly.var(1, 1), Poly.var(1, 1) ** 2])
        assert q.nvars == 1
        assert q == Poly.var(1, 1) + Poly.var(1, 1) ** 2

    @given(polys(2, max_total=2), polys(2, max_total=2, max_terms=2),
           polys(2, max_total=2, max_terms=2))
    def test_substitution_is_a_ring_map(self, p, q, im1):
        im = [im1, Poly.var(2, 2)]
        assert (p + q).substitute(im) == p.substitute(im) + q.substitute(im)
        assert (p * q).substitute(im) == p.substitute(im) * q.substitute(im)

    def test_wrong_image_count(self):
        with pytest.raises(DomainError):
            Poly.var(2, 1).substitute([Poly.var(2, 1)])

    def test_constant_in_no_variables(self):
        # no image names a target ring: the constant stays in its own ring
        assert Poly(0, {(): 5}).substitute([]) == Poly.const(0, 5)
        assert Poly(0).substitute([]) == Poly.zero(0)

    def test_mixed_image_rings(self):
        with pytest.raises(DomainError):
            Poly.var(2, 1).substitute([Poly.var(2, 1), Poly.var(3, 1)])

    def test_cancellation_leaves_no_zero_terms(self):
        # x2 - x1^2 at x2 := x2 + x1^2 is x2; the x1^2 terms cancel
        p = Poly.var(2, 2) - Poly.var(2, 1) ** 2
        q = p.substitute([Poly.var(2, 1), Poly.var(2, 2) + Poly.var(2, 1) ** 2])
        assert q.terms == {(0, 1): Fraction(1)}

    @pytest.mark.parametrize("seed", range(4))
    def test_image_powers_asked_out_of_order(self, seed):
        """5 and 4 by squaring, 6 and 7 from the power kept below, 1 the
        image.  Each kept power is image ** e in its denominator and in
        the order of its keys, so a product from the power below is in
        lowest terms with no gcd taken."""
        rng = random.Random(f"powers:{seed}")
        image = rand_poly(rng, 3, 4, 3)
        images = _Images([image, Poly.var(3, 2), Poly.var(3, 3)])
        for e in (5, 4, 6, 1, 6, 7):
            got, want = images.power(0, e), image ** e
            assert (got._den, list(got._nums.items())) == \
                (want._den, list(want._nums.items()))
            assert_lowest_terms(got)
        assert sorted(images._powers[0]) == [1, 4, 5, 6, 7]

    @pytest.mark.parametrize("terms, e, total", [
        ({(30000, 0): 1, (0, 1): Fraction(1, 2)}, 3, 90000),
        ({(1, 1): Fraction(-3, 2)}, 32768, 65536),
    ])
    def test_image_powers_past_the_limit(self, terms, e, total):
        """From the power kept below, power(i, e) refuses with the text of
        Poly.__mul__, and without it, by squaring, with that of
        Poly.__pow__; neither keeps anything."""
        image = Poly(2, terms)
        images = _Images([image, Poly.var(2, 2)])
        assert outcome(images.power, 0, e) == outcome(pow, image, e) == (
            DegreeCapError, f"power would reach total degree {total}, "
            "over the cap 65534")
        below = images.power(0, e - 1)
        assert outcome(images.power, 0, e) == outcome(
            lambda: below * image) == (
            DegreeCapError, f"product would reach total degree {total}, "
            "over the cap 65534")
        assert sorted(images._powers[0]) == [e - 1]


def frac_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def frac_substitute(p: Poly, images: list) -> dict:
    one = {(0,) * images[0].nvars: Fraction(1)}
    out: dict = {}
    for exps, c in p.terms.items():
        term = {e: c * v for e, v in one.items()}
        for im, k in zip(images, exps):
            for _ in range(k):
                term = frac_mul(term, im.terms)
        out = frac_add(out, term)
    return out


class TestLayout:
    """Integer numerators over one denominator, against the Fraction
    arithmetic they replace."""

    @given(polys(3), polys(3), rationals(), st.integers(1, 3),
           st.lists(polys(2, max_total=2), min_size=3, max_size=3))
    def test_results_are_in_lowest_terms(self, p, q, c, i, images):
        results = [p + q, p - q, -p, p.scale(c), p * q, p ** 2, p ** 3,
                   p.diff(i), p.substitute(images),
                   Poly(3, p.terms)]
        for r in results:
            assert_lowest_terms(r)
            assert all(type(v) is Fraction for v in r.terms.values())

    @given(polys(3), polys(3), rationals(nonzero=True))
    def test_equal_by_different_routes(self, p, q, c):
        for other in (p.scale(c).scale(1 / c), p + q - q, q + p - q,
                      p * q.scale(c) + p - q.scale(c) * p, Poly(3, p.terms)):
            assert other == p
            assert hash(other) == hash(p)
            assert (other._den, other._nums) == (p._den, p._nums)

    @given(polys(3), polys(3), rationals(), st.integers(1, 3),
           st.lists(polys(2, max_total=2), min_size=3, max_size=3))
    def test_terms_match_fraction_arithmetic(self, p, q, c, i, images):
        a, b = p.terms, q.terms
        assert (p + q).terms == frac_add(a, b)
        assert (p - q).terms == frac_add(a, {e: -v for e, v in b.items()})
        assert p.scale(c).terms == {e: v * c for e, v in a.items() if v * c}
        assert (p * q).terms == frac_mul(a, b)
        assert (p ** 3).terms == frac_mul(frac_mul(a, a), a)
        assert p.diff(i).terms == {
            e[:i - 1] + (e[i - 1] - 1,) + e[i:]: v * e[i - 1]
            for e, v in a.items() if e[i - 1]}
        assert p.substitute(images).terms == frac_substitute(p, images)
        assert p.constant_term() == a.get((0, 0, 0), 0)

    def test_zero_has_denominator_one(self):
        half = Poly.const(2, Fraction(1, 2))
        for zero in (half - half, half.scale(0), half.diff(1),
                     half * Poly.zero(2), Poly.zero(2)):
            assert zero._den == 1 and not zero._nums and zero == Poly.zero(2)


class TestSympyOracle:
    """The integer kernel against sympy, on seeded rational inputs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_product(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"mul:{seed}")
        n = rng.randint(1, 4)
        syms = sympy.symbols(f"x1:{n + 1}")
        p, q = rand_poly(rng, n, 6, 4), rand_poly(rng, n, 6, 4)
        expected = sympy_terms(to_sympy(p, syms) * to_sympy(q, syms), syms)
        assert (p * q).terms == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_substitution(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"substitute:{seed}")
        n = rng.randint(1, 4)
        target = rng.choice([n, rng.randint(1, 4)])
        syms = sympy.symbols(f"x1:{max(n, target) + 1}")
        p = rand_poly(rng, n, 5, 4)
        images = [rand_poly(rng, target, 3, 2) for _ in range(n)]
        if target == n:
            k = rng.randrange(n)
            images[k] = Poly.var(n, k + 1)  # a variable mapped to itself
        expr = to_sympy(p, syms[:n]).subs(
            {s: to_sympy(im, syms[:target]) for s, im in zip(syms, images)},
            simultaneous=True)
        assert p.substitute(images).terms == sympy_terms(expr, syms[:target])

    @pytest.mark.parametrize("seed", range(8))
    def test_diff(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"diff:{seed}")
        n = rng.randint(1, 4)
        syms = sympy.symbols(f"x1:{n + 1}")
        p = rand_poly(rng, n, 6, 5)
        for i, s in enumerate(syms, start=1):
            expected = sympy_terms(sympy.diff(to_sympy(p, syms), s), syms)
            assert p.diff(i).terms == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_power(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"pow:{seed}")
        n = rng.randint(1, 4)
        syms = sympy.symbols(f"x1:{n + 1}")
        p = rand_poly(rng, n, 3, 3)
        for k in range(6):
            expected = sympy_terms(sympy.expand(to_sympy(p, syms) ** k), syms)
            assert (p ** k).terms == expected


def _phi_projection_series(p: Poly) -> Fraction:
    """The constant-term projection computed the slow way, as the
    composition over all variables of sum_k (-1)^k x_i^k/k! d^k/dx_i^k.

    Each inner sum kills every monomial with a positive x_i exponent and
    fixes the rest, so the composite agrees with Poly.constant_term.
    """
    out = p
    for i in range(1, p.nvars + 1):
        acc = Poly(p.nvars)
        xi = Poly.var(p.nvars, i)
        deriv = out
        factor = Poly.const(p.nvars, 1)
        k = 0
        while deriv:
            acc = acc + factor * deriv
            deriv = deriv.diff(i)
            k += 1
            factor = factor * xi.scale(Fraction(-1, k))
        out = acc
    return out.constant_term()


class TestProjectionAndFormat:
    def test_phi_projection_is_constant_term(self):
        p = Poly.const(2, 3) + Poly.var(2, 1)
        assert p.constant_term() == 3

    @given(polys(3))
    def test_phi_projection_matches_series_oracle(self, p):
        assert p.constant_term() == _phi_projection_series(p)

    def test_sorted_terms_descending_graded_lex(self):
        p = x(2) + x(1) ** 2 + Poly.const(3, 1)
        assert [e for e, _ in p.sorted_terms()] == [
            (2, 0, 0), (0, 1, 0), (0, 0, 0)]

    def test_format_examples(self):
        assert format_poly(Poly.zero(2)) == "0"
        assert format_poly(Poly.const(2, Fraction(-3, 2))) == "-3/2"
        p = Poly.var(2, 1) ** 2 - Poly.var(2, 2).scale(Fraction(1, 3))
        assert format_poly(p) == "x1^2 - 1/3*x2"

    def test_iter_exponents_counts(self):
        # distributing total degree <= 2 over two slots: 6 tuples
        assert len(list(iter_exponents(2, 2))) == 6

    def test_rat_round_trip(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-5/3") == Fraction(-5, 3)
        assert rat("+7") == 7
        assert rat("0/9") == 0
        assert rat_str(Fraction(-5, 3)) == "-5/3"
        assert rat_str(Fraction(7)) == "7"
        for value in (Fraction(-5, 3), Fraction(7), Fraction(0)):
            assert rat(rat_str(value)) == value
        with pytest.raises(DomainError):
            rat(1.5)
        for text in ("1e3", " 1.5 ", "1.5", "1_000", "١٢", "1/0", "1/00",
                     "1/-2", "--1", "", "/2", "3/", " 7", "7 ", "inf", "½"):
            with pytest.raises(DomainError):
                rat(text)
