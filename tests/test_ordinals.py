"""Ordinal degrees in Cantor normal form and the basis enumeration."""

import pytest
from hypothesis import given

from conftest import ordinals
from triderive import DomainError, OrdinalCNF, ord_compare, ord_of_basis
from triderive.lie import iter_basis_keys, key_sort_key
from triderive.ordinals import format_ordinal


class TestNormalForm:
    def test_zero(self):
        assert OrdinalCNF.zero().is_zero()
        assert format_ordinal(OrdinalCNF.zero()) == "0"

    def test_from_int(self):
        assert format_ordinal(OrdinalCNF({0: 7})) == "7"
        assert OrdinalCNF({0: 0}).is_zero()

    def test_zero_coefficients_are_dropped(self):
        assert OrdinalCNF({2: 0, 0: 3}) == OrdinalCNF({0: 3})

    def test_rejects_negative_exponent(self):
        with pytest.raises(DomainError):
            OrdinalCNF({-1: 1})

    def test_rejects_negative_coefficient(self):
        with pytest.raises(DomainError):
            OrdinalCNF({2: -1})

    def test_format(self):
        a = OrdinalCNF({2: 1, 1: 3, 0: 4})
        assert format_ordinal(a) == "w^2*1 + w*3 + 4"
        assert format_ordinal(OrdinalCNF({1: 2})) == "w*2"


def compare_by_exponents(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """The oracle for ``ord_compare``: walk the union of the exponents
    from the highest down, and the first coefficient that differs
    decides."""
    for e in sorted(set(a.coeffs) | set(b.coeffs), reverse=True):
        ca, cb = a.coeffs.get(e, 0), b.coeffs.get(e, 0)
        if ca != cb:
            return 1 if ca > cb else -1
    return 0


class TestCompare:
    def test_oracle_chain(self):
        # 0 < 5 < w < w*2 < w^2 < w^2 + w*5
        chain = [OrdinalCNF.zero(), OrdinalCNF({0: 5}), OrdinalCNF({1: 1}),
                 OrdinalCNF({1: 2}), OrdinalCNF({2: 1}), OrdinalCNF({2: 1, 1: 5})]
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                assert ord_compare(a, b) == (i > j) - (i < j)

    def test_finite_part_breaks_ties(self):
        assert ord_compare(OrdinalCNF({1: 2, 0: 3}), OrdinalCNF({1: 2, 0: 4})) == -1

    def test_rich_comparisons(self):
        assert OrdinalCNF({0: 3}) < OrdinalCNF({1: 1})
        assert OrdinalCNF({2: 1}) >= OrdinalCNF({1: 9, 0: 9})

    @given(ordinals(), ordinals())
    def test_agrees_with_the_exponent_walk(self, a, b):
        c = compare_by_exponents(a, b)
        assert ord_compare(a, b) == c
        assert (a < b, a <= b, a > b, a >= b, a == b) == (
            c < 0, c <= 0, c > 0, c >= 0, c == 0)

    @given(ordinals())
    def test_value_semantics(self, a):
        assert list(a.coeffs) == sorted(a.coeffs, reverse=True)
        # the first call computes the key and keeps it, the second reads it
        key = tuple(sorted(a.coeffs.items(), reverse=True))
        assert [hash(a), hash(a)] == [hash(key)] * 2
        assert a == OrdinalCNF(dict(a.coeffs)) and a != a.coeffs
        bigger = OrdinalCNF({**a.coeffs, 0: a.coeffs.get(0, 0) + 1})
        assert a != bigger and a < bigger

    @given(ordinals(), ordinals(), ordinals())
    def test_strict_total_order(self, a, b, c):
        assert ord_compare(a, a) == 0
        assert ord_compare(a, b) == -ord_compare(b, a)
        if ord_compare(a, b) <= 0 and ord_compare(b, c) <= 0:
            assert ord_compare(a, c) <= 0


class TestBasisDegrees:
    def test_pinned_values(self):
        assert format_ordinal(ord_of_basis((), 1, 3)) == "w^2*1 + w*1 + 1"
        assert format_ordinal(ord_of_basis((0, 2), 3, 3)) == "w*2 + 1"
        assert format_ordinal(ord_of_basis((0, 0), 3, 3)) == "1"
        assert format_ordinal(ord_of_basis((4,), 2, 3)) == "w^2*1 + 5"

    def test_alpha_length_must_match_index(self):
        with pytest.raises(DomainError):
            ord_of_basis((1, 1), 2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_digit_sum(self, n):
        # w^(n-1) + ... + w^i, plus alpha_m w^(m-1) for each m, plus 1,
        # built through the validating constructor.
        for alpha, i in iter_basis_keys(n, 3):
            coeffs = dict.fromkeys(range(i, n), 1)
            for m, a in enumerate(alpha, start=1):
                coeffs[m - 1] = coeffs.get(m - 1, 0) + a
            coeffs[0] = coeffs.get(0, 0) + 1
            got = ord_of_basis(alpha, i, n)
            assert got == OrdinalCNF(coeffs)
            assert list(got.coeffs.items()) == \
                list(OrdinalCNF(coeffs).coeffs.items())

    @pytest.mark.parametrize("n", [2, 3])
    def test_order_isomorphism_on_initial_segment(self, n):
        # The map key -> ordinal degree must be strictly monotone against
        # the basis order; checked exhaustively through degree 3.
        keys = sorted(iter_basis_keys(n, 3), key=key_sort_key)
        degrees = [ord_of_basis(alpha, i, n) for alpha, i in keys]
        for a, b in zip(degrees, degrees[1:]):
            assert ord_compare(a, b) == -1
