"""Truncated operator series in one partial derivative."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import assert_lowest_terms, polys, rationals, unit_series
from triderive import DomainError, OpSeries, Poly, TruncationError
from triderive.series import KINDS
from triderive.verify import _apply_by_diff


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
