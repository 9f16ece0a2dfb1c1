"""Truncated operator series in one partial derivative."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (assert_lowest_terms, frac_add, polys, rationals,
                      series_product_by_fractions,
                      series_reciprocal_by_fractions, unit_series)
from triderive import DomainError, OpSeries, Poly, TruncationError
from triderive.series import KINDS, _scaled
from triderive.verify import _apply_by_diff

# Coefficients past 64 bits, over denominators past 32 bits.
WIDE = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70).filter(bool),
                 st.integers(1, 2 ** 40))
SCALARS = rationals(nonzero=True) | WIDE


@st.composite
def series_on_polys(draw):
    """A series of any kind in d/dx_var, exact or stored through 0..6,
    and a polynomial in 1..4 variables, var among them, of degree <= 5."""
    nvars = draw(st.integers(1, 4))
    var = draw(st.integers(1, nvars))
    kind = draw(st.sampled_from(KINDS))
    order = draw(st.none() | st.integers(0, 6))
    lowest = 2 if kind == "FP" else 1
    top = 6 if order is None else order
    coeffs = draw(st.dictionaries(st.integers(1, 6), rationals(nonzero=True),
                                  max_size=4))
    series = OpSeries(kind, var, order,
                      {k: c for k, c in coeffs.items() if lowest <= k <= top})
    return series, draw(polys(nvars, max_total=5, max_terms=4))


@st.composite
def stored_series(draw, kinds=KINDS):
    """A series in D = d/dx1 of one of the kinds, exact or stored through
    0..12, with small or wide coefficients."""
    kind = draw(st.sampled_from(kinds))
    order = draw(st.none() | st.integers(0, 12))
    lowest = 2 if kind == "FP" else 1
    top = 12 if order is None else order
    coeffs = draw(st.dictionaries(st.integers(1, 12), SCALARS, max_size=5))
    return OpSeries(kind, 1, order,
                    {k: c for k, c in coeffs.items() if lowest <= k <= top})


def least(*orders):
    """The smallest of the orders that are not None, else None."""
    return min((o for o in orders if o is not None), default=None)


def assert_series(s: OpSeries, kind: str, order, coeffs: dict) -> None:
    """s is the series of these fields in D = d/dx1, stored in lowest
    terms, its Fraction view its numerators over its denominator."""
    assert (s.kind, s.var, s.order) == (kind, 1, order)
    assert_lowest_terms(s)
    assert {k: Fraction(c, s._den) for k, c in s._nums.items()} == coeffs
    assert s.coeffs == coeffs


def applied(fn, series: OpSeries, p: Poly):
    """fn(series, p), or the text and degrees of its TruncationError."""
    try:
        return fn(series, p)
    except TruncationError as exc:
        return str(exc), exc.required, exc.available


class TestConstruction:
    def test_kinds(self):
        assert OpSeries.one(1).unit() == 1
        assert OpSeries.zero_e(1).unit() == 0
        with pytest.raises(DomainError):
            OpSeries("Q", 1, 4)

    def test_degree_zero_coefficient_rejected(self):
        with pytest.raises(DomainError):
            OpSeries("F", 1, 4, {0: 1})

    def test_coefficients_beyond_order_rejected(self):
        with pytest.raises(DomainError):
            OpSeries("F", 1, 2, {3: 1})

    def test_no_linear_term_kind(self):
        with pytest.raises(DomainError):
            OpSeries("FP", 1, 4, {1: 1})

    def test_coefficient_query_respects_order(self):
        s = OpSeries("F", 1, 3, {2: Fraction(1, 2)})
        assert s.coefficient(2) == Fraction(1, 2)
        assert s.coefficient(3) == 0
        with pytest.raises(TruncationError):
            s.coefficient(4)

    def test_exact_series_have_no_horizon(self):
        s = OpSeries("F", 1, None, {5: 1})
        assert s.coefficient(100) == 0
        assert s.support() == 5


class TestValueSemantics:
    @given(series_on_polys())
    def test_hash_and_equality(self, pair):
        s = pair[0]
        # the first call computes the key and keeps it, the second reads it
        key = (s.kind, s.var, s.order, frozenset(s.coeffs.items()))
        assert [hash(s), hash(s)] == [hash(key)] * 2
        assert s == OpSeries(s.kind, s.var, s.order, dict(s.coeffs))
        other_order = None if s.order is not None else 6
        assert s != OpSeries(s.kind, s.var, other_order, s.coeffs)
        assert s != OpSeries(s.kind, s.var + 1, s.order, s.coeffs)

    def test_fields_that_differ(self):
        s = OpSeries("F", 1, 4, {2: 1})
        assert s != OpSeries("F", 1, 5, {2: 1})
        assert s != OpSeries("FP", 1, 4, {2: 1})
        assert s != OpSeries("F", 1, 4, {2: 2})
        assert s != {2: 1}


class TestApplication:
    def test_taylor_shift(self):
        # exp(2 D) acts as x -> x + 2
        s = OpSeries.exp_shift(1, 2, 4)
        p = Poly.var(1, 1) ** 2
        assert s.apply(p) == (Poly.var(1, 1) + Poly.const(1, 2)) ** 2

    def test_apply_needs_enough_coefficients(self):
        s = OpSeries("F", 1, 1, {1: 1})
        with pytest.raises(TruncationError):
            s.apply(Poly.var(1, 1) ** 2)

    def test_apply_without_unit(self):
        s = OpSeries("F", 1, 4, {1: 3})
        p = Poly.var(1, 1) ** 2
        assert s.apply_without_unit(p) == Poly.var(1, 1).scale(6)

    @given(unit_series(), unit_series())
    def test_product_acts_by_composition(self, f, g):
        p = Poly.var(1, 1) ** 3
        assert f.mul(g).apply(p) == f.apply(g.apply(p))

    @settings(max_examples=300)
    @given(series_on_polys())
    def test_apply_matches_the_repeated_derivative_oracle(self, pair):
        series, p = pair
        got = applied(OpSeries.apply, series, p)
        assert got == applied(_apply_by_diff, series, p)
        if isinstance(got, Poly):
            assert_lowest_terms(got)

    def test_series_variable_must_exist(self):
        with pytest.raises(DomainError):
            OpSeries.one(3).apply(Poly.var(2, 1))


class TestRingOperations:
    @given(unit_series(), unit_series(), unit_series())
    def test_mul_laws(self, f, g, h):
        assert f.mul(g) == g.mul(f)
        assert f.mul(g).mul(h) == f.mul(g.mul(h))
        assert f.mul(OpSeries.one(1)).agrees_with(f)

    @given(unit_series())
    def test_reciprocal(self, f):
        assert f.mul(f.reciprocal()).is_one()

    def test_reciprocal_of_exact_needs_order(self):
        f = OpSeries("F", 1, None, {1: 1})
        with pytest.raises(DomainError):
            f.reciprocal()
        g = f.reciprocal(3)
        assert f.mul(g).is_one()

    @pytest.mark.parametrize("order", [None, 2, 9])
    @pytest.mark.parametrize("kind", ["F", "FP"])
    def test_reciprocal_of_one_is_one_as_stored(self, kind, order):
        # nothing is infinite, so no order cuts or extends it
        for stored in (None, 4):
            one = OpSeries.one(1, kind, stored)
            assert one.reciprocal(order) is one

    def test_products_keep_the_smaller_order(self):
        f = OpSeries("F", 1, 3, {1: 1})
        g = OpSeries("F", 1, 5, {1: 1})
        assert f.mul(g).order == 3

    def test_e_kind_group(self):
        a = OpSeries("E", 1, 4, {1: 1, 3: Fraction(1, 2)})
        b = OpSeries("E", 1, 4, {1: -1})
        assert a.add_e(b) == OpSeries("E", 1, 4, {3: Fraction(1, 2)})
        assert a.add_e(a.negate_e()).is_zero_e()
        with pytest.raises(DomainError):
            a.mul(a)

    def test_scale_powers(self):
        # D -> 2D multiplies the degree-k coefficient by 2^k
        f = OpSeries("F", 1, 4, {1: 1, 2: 1})
        assert f.scale_powers(2) == OpSeries("F", 1, 4, {1: 2, 2: 4})
        with pytest.raises(DomainError):
            f.scale_powers(0)

    def test_scale_powers_matches_variable_rescale(self):
        # conjugating the operator by x -> g*x rescales the symbol
        f = OpSeries("F", 1, None, {1: Fraction(1, 2), 3: 2})
        g = Fraction(3)
        p = Poly.var(1, 1) ** 3
        blow = p.substitute([Poly.var(1, 1).scale(g)])
        shrink = [Poly.var(1, 1).scale(1 / g)]
        assert f.scale_powers(g).apply(p) == f.apply(blow).substitute(shrink)

    def test_truncate_never_extends(self):
        f = OpSeries("F", 1, 4, {3: 1})
        assert f.truncate(6).order == 4
        assert f.truncate(2) == OpSeries("F", 1, 2)


class TestIntegerLayout:
    """Every operation on the stored numerators against the Fraction
    oracles, kind, order and lowest terms included."""

    @settings(max_examples=150)
    @given(stored_series(("F", "FP")), stored_series(("F", "FP")))
    def test_product(self, f, g):
        order = least(f.order, g.order)
        limit = f.support() + g.support() if order is None else order
        want = series_product_by_fractions(f.coeffs, g.coeffs, limit)
        kind = "FP" if not want.get(1) and f.kind == g.kind == "FP" else "F"
        assert_series(f.mul(g), kind, order, want)

    @settings(max_examples=150)
    @given(stored_series(("F", "FP")), st.integers(0, 12))
    def test_reciprocal_cancels_through_the_order(self, f, order):
        order = least(order, f.order)
        inv = f.reciprocal(order)
        if f.is_one():
            assert inv is f
            return
        assert_series(inv, f.kind, order,
                      series_reciprocal_by_fractions(f.coeffs, order))
        assert_series(f.mul(inv), f.kind, order, {})
        assert_series(inv.mul(f), f.kind, order, {})

    @given(SCALARS, st.integers(0, 12))
    def test_exp_shift(self, lam, order):
        assert_series(OpSeries.exp_shift(1, lam, order), "F", order,
                      {k: lam ** k / math.factorial(k)
                       for k in range(1, order + 1)})

    @given(stored_series(("E",)), stored_series(("E",)))
    def test_sum_and_negation(self, a, b):
        order = least(a.order, b.order)
        assert_series(a.add_e(b), "E", order,
                      {k: c for k, c in frac_add(a.coeffs, b.coeffs).items()
                       if order is None or k <= order})
        minus = a.negate_e()
        assert_series(minus, "E", a.order, {k: -c for k, c in a.coeffs.items()})
        assert_series(a.add_e(minus), "E", a.order, {})

    @given(stored_series(), rationals() | WIDE, SCALARS)
    def test_rescalings(self, s, factor, gamma):
        assert_series(s.scale_coeffs(factor), s.kind, s.order,
                      {k: c * factor for k, c in s.coeffs.items() if factor})
        assert_series(s.scale_powers(gamma), s.kind, s.order,
                      {k: c * gamma ** k for k, c in s.coeffs.items()})

    @given(stored_series(), st.none() | st.integers(0, 12),
           st.integers(2, 12))
    def test_truncation_and_agreement(self, s, order, k):
        cut = least(s.order, order)
        short = s.truncate(order)
        assert_series(short, s.kind, cut, {d: c for d, c in s.coeffs.items()
                                           if cut is None or d <= cut})
        assert short.agrees_with(s) and s.agrees_with(short)
        # Doubling keeps the numerators of a series over an even
        # denominator, and halves the denominator.
        assert short.agrees_with(short.scale_coeffs(2)) == (not short.coeffs)
        top = 12 if cut is None else cut
        assert [short.coefficient(d) for d in range(1, top + 1)] == \
            [s.coeffs.get(d, 0) for d in range(1, top + 1)]
        if s.order is None or k <= s.order:
            other = OpSeries(s.kind, 1, s.order,
                             {**s.coeffs, k: s.coeffs.get(k, 0) + 1})
            assert not s.agrees_with(other)
            assert s.agrees_with(other, through=k - 1)

    @given(st.lists(stored_series(), max_size=4))
    def test_scaled_pairs_are_the_fraction_ones(self, series):
        """act and apply read each series' coefficients times one scale,
        the lcm of every stored coefficient's denominator."""
        scale, pairs = _scaled(series)
        assert scale == math.lcm(*(c.denominator for s in series
                                   for c in s.coeffs.values()))
        assert pairs == [[(k, int(c * scale)) for k, c in sorted(s.coeffs.items())]
                         for s in series]
        assert all(type(c) is int for row in pairs for _, c in row)
