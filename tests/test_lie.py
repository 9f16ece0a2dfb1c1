"""The Lie algebra of triangular derivations: bracket, degrees, center."""

from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (assert_lowest_terms, bracket_by_fractions, frac_add,
                      lie_elems, polys, rationals)
from triderive import (DegreeCapError, DomainError, InternalError, LieElem,
                       OrdinalCNF, Poly, bracket, center_solve,
                       conjugate_derivation, exp_ad_apply, exp_map,
                       ideal_membership, leading_term, ord_compare,
                       ord_of_element)
from triderive import lie
from triderive.dsl import parse_lie
from triderive.lie import (_join, _new, _nullspace, basis_compare, format_lie,
                           iter_basis_keys, standard_generators)


class TestConstruction:
    def test_alpha_length_tied_to_index(self):
        LieElem.basis(3, (1, 2), 3)
        with pytest.raises(DomainError):
            LieElem.basis(3, (1, 2), 2)

    def test_index_range(self):
        with pytest.raises(DomainError):
            LieElem.basis(2, (0, 0), 3)

    def test_coefficient_constraint(self):
        # the d_i coefficient may only use x1..x_{i-1}
        with pytest.raises(DomainError):
            LieElem.from_coefficients([Poly.var(2, 1), Poly.zero(2)])

    def test_from_coefficients_round_trip(self):
        u = LieElem.basis(3, (2, 1), 3, Fraction(1, 2)) + LieElem.d(3, 1)
        assert LieElem.from_coefficients(u.coefficient_polys()) == u

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    def test_one_pass_split_matches_each_index(self, n, data):
        u = data.draw(lie_elems(n))
        split = u.coefficient_polys()
        assert split == [u.coefficient_poly(i) for i in range(1, n + 1)]
        assert LieElem.from_coefficients(split) == u

    def test_min_index_and_degree(self):
        u = LieElem.basis(3, (2,), 2) + LieElem.d(3, 3)
        assert u.min_index() == 2
        assert LieElem.zero(3).is_zero()


class TestApplyTo:
    def test_derivation_on_monomial(self):
        # x1^2 d2 applied to x2^2 gives 2 x1^2 x2
        u = LieElem.basis(2, (2,), 2)
        p = Poly.var(2, 2) ** 2
        assert u.apply_to(p) == Poly.monomial(2, (2, 1), 2)

    @given(lie_elems(3), polys(3, max_total=2), polys(3, max_total=2))
    def test_leibniz(self, u, p, q):
        assert u.apply_to(p * q) == u.apply_to(p) * q + p * u.apply_to(q)

    @given(lie_elems(3), polys(3, max_total=2), rationals())
    def test_linear(self, u, p, c):
        assert u.apply_to(p.scale(c)) == u.apply_to(p).scale(c)


def apply_by_products(u: LieElem, p: Poly) -> Poly:
    """sum_i p_i * (dp/dx_i) with one Poly product per index, the oracle
    of the fused integer kernel behind apply_to."""
    out = Poly.zero(u.n)
    for i in range(1, u.n + 1):
        dp = p.diff(i)
        pi = u.coefficient_poly(i)
        if dp and pi:
            out = out + pi * dp
    return out


class TestDerivationKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @given(data=st.data())
    def test_matches_the_sum_of_products(self, n, data):
        u = data.draw(lie_elems(n))
        p = data.draw(polys(n, max_total=4, max_terms=5))
        got = u.apply_to(p)
        assert got == apply_by_products(u, p)
        assert_lowest_terms(got)

    def test_cap_is_checked_per_index_as_a_product(self):
        # p has degree 60002, so d1 passes (0 + 60001), while x1^6000*d2
        # would reach 6000 + 60001 = 66001 past the key limit 65534 before
        # x1^7000*x2^10*d3 (7010 + 60001) is reached.
        u = (LieElem.d(3, 1) + LieElem.basis(3, (6000,), 2)
             + LieElem.basis(3, (7000, 10), 3))
        p = Poly.monomial(3, (30000, 30000, 2))
        message = "product would reach total degree 66001, over the cap 65534"
        with pytest.raises(DegreeCapError, match=message) as fused:
            u.apply_to(p)
        assert (fused.value.degree, fused.value.cap) == (66001, 65534)
        with pytest.raises(DegreeCapError, match=message):
            apply_by_products(u, p)
        # at the limit itself, each index computes
        v = LieElem.d(3, 1) + LieElem.basis(3, (5533,), 2)
        assert v.apply_to(p) == apply_by_products(v, p)


class TestBracket:
    def test_pinned_example(self):
        # [x1^2 d2, x1 x2 d3] = x1^3 d3
        u = LieElem.basis(3, (2,), 2)
        v = LieElem.basis(3, (1, 1), 3)
        assert bracket(u, v) == LieElem.basis(3, (3, 0), 3)

    def test_against_operator_commutator(self):
        u = LieElem.basis(3, (1,), 2) + LieElem.d(3, 1)
        v = LieElem.basis(3, (0, 2), 3)
        w = bracket(u, v)
        for j in range(1, 4):
            probe = Poly.var(3, j)
            assert w.apply_to(probe) == (
                u.apply_to(v.apply_to(probe)) - v.apply_to(u.apply_to(probe)))

    @given(lie_elems(3), lie_elems(3))
    def test_antisymmetry(self, u, v):
        assert bracket(u, v) == bracket(v, u).scale(-1)

    @given(lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2))
    def test_jacobi(self, u, v, w):
        total = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
                 + bracket(w, bracket(u, v)))
        assert total.is_zero()

    @given(lie_elems(3), lie_elems(3), lie_elems(3))
    def test_bilinear(self, u, v, w):
        assert bracket(u + v, w) == bracket(u, w) + bracket(v, w)

    def test_mixed_rank_rejected(self):
        with pytest.raises(DomainError):
            bracket(LieElem.d(2, 1), LieElem.d(3, 1))


def exp_ad_by_fractions(u: dict, v: dict) -> dict:
    """sum_k (ad u)^k v / k! over Fraction term dicts."""
    out, term, k = v, v, 0
    while term:
        k += 1
        term = {key: c / k for key, c in bracket_by_fractions(u, term).items()}
        out = frac_add(out, term)
    return out


class TestLayout:
    """Integer numerators over one denominator, against the Fraction
    arithmetic they replace."""

    small = lie_elems(3, max_degree=2, max_terms=2)

    @given(lie_elems(3), lie_elems(3), rationals(), small, small)
    def test_results_are_in_lowest_terms(self, u, v, c, a, b):
        results = [u + v, u - v, -u, u.scale(c), bracket(u, v),
                   exp_ad_apply(a, b),
                   LieElem.from_coefficients(u.coefficient_polys()),
                   LieElem(3, u.terms), *u.coefficient_polys()]
        for r in results:
            assert_lowest_terms(r)
            assert all(type(x) is Fraction for x in r.terms.values())

    @given(lie_elems(3), lie_elems(3), rationals(nonzero=True))
    def test_equal_by_different_routes(self, u, v, c):
        for other in (u.scale(c).scale(1 / c), u + v - v, v + u - v,
                      -(-u), bracket(v, u) + u + bracket(u, v),
                      LieElem.from_coefficients(u.coefficient_polys()),
                      LieElem(3, u.terms)):
            assert other == u
            assert hash(other) == hash(u)
            assert (other._den, other._nums) == (u._den, u._nums)

    @given(lie_elems(3), lie_elems(3), rationals(), small, small)
    def test_terms_match_fraction_arithmetic(self, u, v, c, a, b):
        s, t = u.terms, v.terms
        assert (u + v).terms == frac_add(s, t)
        assert (u - v).terms == frac_add(s, {k: -x for k, x in t.items()})
        assert (-u).terms == {k: -x for k, x in s.items()}
        assert u.scale(c).terms == {k: x * c for k, x in s.items() if x * c}
        assert bracket(u, v).terms == bracket_by_fractions(s, t)
        assert exp_ad_apply(a, b).terms == exp_ad_by_fractions(a.terms, b.terms)
        for j, p in enumerate(u.coefficient_polys(), start=1):
            assert p.terms == {alpha + (0,) * (4 - j): x
                               for (alpha, k), x in s.items() if k == j}

    @given(lie_elems(3), lie_elems(3), rationals(nonzero=True), small, small)
    def test_hash_is_that_of_the_layout(self, u, v, c, a, b):
        """Every construction path hashes as (rank, den, numerators): on
        the first call, which computes a derivation's hash and keeps it,
        and on the second, which reads it back."""
        values = [LieElem(3, u.terms), _new(3, u._den, dict(u._nums)),
                  _join(3, u._den, u._parts()), u + v, u - v, -u,
                  u.scale(c), bracket(u, v),
                  exp_ad_apply(a, b), *u.coefficient_polys()]
        # u + 0 is u itself: each object once, so its first call is first
        for w in {id(w): w for w in values}.values():
            expected = hash((w._rank(), w._den, frozenset(w._nums.items())))
            if isinstance(w, LieElem):
                assert w._hash is None
            assert hash(w) == expected
            assert hash(w) == expected

    def test_zero_has_denominator_one(self):
        half = LieElem.basis(3, (1,), 2, Fraction(1, 2))
        for zero in (half - half, half.scale(0), bracket(half, half),
                     LieElem.zero(3),
                     LieElem.from_coefficients([Poly.zero(3)] * 3)):
            assert zero._den == 1 and not zero._nums
            assert zero == LieElem.zero(3)
            assert hash(zero) == hash(LieElem.zero(3))


class TestOrderAndDegrees:
    def test_basis_compare(self):
        # larger derivation index sorts first
        assert basis_compare(((0, 0), 3), ((1,), 2)) == -1
        # within an index, the rightmost exponent dominates
        assert basis_compare(((0, 1), 3), ((5, 0), 3)) == 1
        assert basis_compare(((2,), 2), ((2,), 2)) == 0

    def test_leading_term(self):
        u = LieElem.basis(3, (2,), 2) + LieElem.d(3, 3)
        assert leading_term(u) == (Fraction(1), ((2,), 2))
        with pytest.raises(DomainError):
            leading_term(LieElem.zero(3))

    def test_ord_of_element_takes_leading_key(self):
        u = LieElem.basis(3, (2,), 2, Fraction(5)) + LieElem.d(3, 3)
        assert ord_of_element(u) == OrdinalCNF({2: 1, 0: 3})

    @given(lie_elems(3, max_terms=2), lie_elems(3, max_terms=2))
    def test_bracket_drops_ordinal_degree(self, u, v):
        w = bracket(u, v)
        if not u.is_zero() and not v.is_zero() and not w.is_zero():
            cap = max(ord_of_element(u), ord_of_element(v))
            assert ord_compare(ord_of_element(w), cap) == -1

    def test_ideal_membership(self):
        u = LieElem.basis(3, (1,), 2) + LieElem.d(3, 3)
        lam = ord_of_element(u)
        assert ideal_membership(u, lam)
        assert not ideal_membership(LieElem.d(3, 1), lam)


class TestExpAd:
    def test_pinned_example(self):
        # exp(ad x1^2 d2) fixes d2 and moves d1 by the bracket once
        u = LieElem.basis(2, (2,), 2)
        v = LieElem.d(2, 1)
        out = exp_ad_apply(u, v)
        assert out == v + LieElem.basis(2, (1,), 2, -2)

    @given(lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2))
    def test_sums_in_place_as_running_sums_would(self, u, v):
        """The numerators come out in the order that adding each term to
        a new running sum leaves them in, cancelled keys dropped."""
        out = term = v
        k = 0
        while term:
            k += 1
            term = bracket(u, term).scale(Fraction(1, k))
            out = out + term
        got = exp_ad_apply(u, v)
        assert list(got._nums.items()) == list(out._nums.items())
        assert got._den == out._den

    @pytest.mark.parametrize("u, v, expected", [
        ("x1^2*d2", "0", "0"),
        ("0", "1/2*d1 + x1*d2", "1/2*d1 + x1*d2"),
        # [x1*d2, d1] = -d2 cancels the d2 of v
        ("x1*d2", "d1 + d2", "d1"),
        # the first term cancels the d2 of v, the second writes it again
        ("d1", "d2 - x1*d2 + x1^2*d2", "x1^2*d2 + x1*d2 + d2"),
    ])
    def test_zero_and_cancelling_sums(self, u, v, expected):
        u, v = parse_lie(u, 2), parse_lie(v, 2)
        got = exp_ad_apply(u, v)
        assert got.terms == exp_ad_by_fractions(u.terms, v.terms)
        assert str(got) == expected
        assert_lowest_terms(got)

    @given(lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2))
    def test_automorphism_of_the_bracket(self, u, v, w):
        lhs = exp_ad_apply(u, bracket(v, w))
        rhs = bracket(exp_ad_apply(u, v), exp_ad_apply(u, w))
        assert lhs == rhs

    def test_the_weight_bound_is_reached(self):
        # Weights (1, 6, 26, 1): the series needs 26 brackets, which is
        # more than the old cap 10 * (deg v + 2) = 20 allowed.
        u = parse_lie("-d1 + 1/3*x1^5*d2 - 3/2*x1*x2^4*d3", 4)
        v = parse_lie("-4/3*d1 + 3*d3", 4)
        assert ad_length(u, v) == weight_bound(u, v) == 26
        assert bracket(u, exp_ad_apply(u, v)) == exp_ad_apply(u, bracket(u, v))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    def test_length_within_the_weight_bound(self, n, data):
        u = data.draw(lie_elems(n, max_degree=4, max_terms=3))
        v = data.draw(lie_elems(n, max_degree=4, max_terms=3))
        assert ad_length(u, v) <= weight_bound(u, v)
        assert exp_ad_apply(-u, exp_ad_apply(u, v)) == v

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @given(data=st.data())
    def test_matches_every_oracle_at_the_workload_shape(self, n, data):
        """On operands of the lie-algebra workload's shape: the Fraction
        series, conjugation by exp(u), lowest terms, and the numerators
        in the order and over the denominator of a running sum."""
        u = data.draw(lie_elems(n, max_degree=4, max_terms=3))
        v = data.draw(lie_elems(n, max_degree=4, max_terms=3))
        got = exp_ad_apply(u, v)
        assert got.terms == exp_ad_by_fractions(u.terms, v.terms)
        assert got == conjugate_derivation(exp_map(u), v)
        assert_lowest_terms(got)
        want = exp_ad_by_running_sums(u, v)
        assert list(got._nums.items()) == list(want._nums.items())
        assert got._den == want._den

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @given(data=st.data())
    def test_the_weight_loop_gives_the_weight_bound(self, n, data):
        """Each key weighs sum_j a_j w_j, and with a bracket that never
        vanishes the series gives up after exactly weight_bound brackets."""
        u = data.draw(lie_elems(n, max_degree=4, max_terms=3))
        v = data.draw(lie_elems(n, max_degree=4, max_terms=3))
        w = data.draw(st.lists(st.integers(1, 99), min_size=n, max_size=n))
        for key in [*u._nums, *v._nums]:
            alpha, _ = u._unkey(key)
            assert lie._weigh(key, w) == sum(a * x for a, x in zip(alpha, w))
        bound = weight_bound(u, v) if v else 0
        calls = []

        def never_zero(u, nums):
            calls.append(nums)
            assert len(calls) <= bound, "the guard let the series run on"
            return nums

        with mock.patch.object(lie, "_ad", never_zero):
            if v:
                with pytest.raises(InternalError):
                    exp_ad_apply(u, v)
            else:
                assert exp_ad_apply(u, v) == v
        assert len(calls) == bound

    def test_the_termination_guard_is_wired(self, monkeypatch):
        """Weights read too low give a bound the 26-bracket pair passes."""
        u = parse_lie("-d1 + 1/3*x1^5*d2 - 3/2*x1*x2^4*d3", 4)
        v = parse_lie("-4/3*d1 + 3*d3", 4)
        monkeypatch.setattr(lie, "_weigh", lambda key, w: 0)
        with pytest.raises(InternalError, match="failed to terminate"):
            exp_ad_apply(u, v)


def exp_ad_by_running_sums(u: LieElem, v: LieElem) -> LieElem:
    """sum_k (ad u)^k v / k! as a running sum of reduced LieElem terms."""
    out = term = v
    k = 0
    while term:
        k += 1
        term = bracket(u, term).scale(Fraction(1, k))
        out = out + term
    return out


def ad_length(u: LieElem, v: LieElem) -> int:
    """The least k with (ad u)^k v = 0."""
    k = 0
    while v:
        v = bracket(u, v)
        k += 1
    return k


def weight_bound(u: LieElem, v: LieElem) -> int:
    """top(v) + max_i w_i + 1 for the grading of exp_ad_apply: w_1 = 1,
    w_i = 1 + the largest weighted degree of a d_i coefficient term of u
    (1 without one), and x^a d_i weighs sum_j a_j w_j - w_i."""
    weights = {1: 1}
    for i in range(2, u.n + 1):
        degrees = [sum(e * weights[j] for j, e in enumerate(alpha, start=1))
                   for alpha, index in u.terms if index == i]
        weights[i] = 1 + max(degrees, default=0)
    top = max((sum(e * weights[j] for j, e in enumerate(alpha, start=1))
               - weights[i] for alpha, i in v.terms), default=0)
    return top + max(weights.values()) + 1


def nullspace_by_fractions(rows: list[list[Fraction]], ncols: int
                           ) -> list[list[Fraction]]:
    """Basis of the solutions of rows * x = 0 by dense Gauss-Jordan
    elimination over Fractions, read off the reduced row echelon form:
    the oracle of the integer elimination."""
    matrix = [row[:] for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for k in range(r, len(matrix)):
            if matrix[k][col]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = 1 / matrix[r][col]
        matrix[r] = [x * inv for x in matrix[r]]
        for k in range(len(matrix)):
            if k != r and matrix[k][col]:
                factor = matrix[k][col]
                matrix[k] = [a - factor * b for a, b in zip(matrix[k], matrix[r])]
        pivots.append(col)
        r += 1
        if r == len(matrix):
            break
    basis: list[list[Fraction]] = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, col in enumerate(pivots):
            vec[col] = -matrix[row_idx][free]
        basis.append(vec)
    return basis


@st.composite
def sparse_matrices(draw):
    """Integer matrices of up to 12 columns, mostly zeros, with zero
    rows, repeated rows and combinations of earlier rows among them."""
    ncols = draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), ncols


class TestNullspace:
    @settings(max_examples=100)
    @given(sparse_matrices())
    def test_matches_fraction_gauss_jordan(self, matrix):
        rows, ncols = matrix
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        got = _nullspace(sparse, ncols)
        want = nullspace_by_fractions(
            [[Fraction(x) for x in row] for row in rows], ncols)
        assert got == [{c: x for c, x in enumerate(vec) if x} for vec in want]
        for vec in got:
            assert all(type(x) is Fraction for x in vec.values())
            for row in rows:
                assert sum(row[c] * x for c, x in vec.items()) == 0

    def test_pinned_cases(self):
        # x0 + 2 x1 = 0 and x0 + 2 x2 = 0; the rows are left as they are
        rows = [{0: 2, 1: 4}, {0: 3, 2: 6}]
        assert _nullspace(rows, 3) == [{0: -2, 1: 1, 2: 1}]
        assert rows == [{0: 2, 1: 4}, {0: 3, 2: 6}]
        assert _nullspace([], 0) == []
        assert _nullspace([], 2) == [{0: 1}, {1: 1}]
        assert _nullspace([{}, {}], 1) == [{0: 1}]
        assert _nullspace([{0: 5}, {0: -5}], 1) == []


class TestCenterAndBases:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_center_is_last_derivation(self, n):
        for d in range(4):
            sols = center_solve(n, d)
            assert sols == [LieElem.d(n, n)]
            for u in sols:
                assert leading_term(u)[0] == 1
                for g in standard_generators(n, d + 1):
                    assert bracket(u, g).is_zero()

    def test_center_rejects_bad_arguments(self):
        with pytest.raises(DomainError, match="degree bound"):
            center_solve(3, -1)
        with pytest.raises(DomainError, match="rank"):
            center_solve(1, 3)

    def test_iter_basis_keys_count(self):
        # rank 2: d1; d2, x1 d2, x1^2 d2 at degrees <= 2
        assert len(list(iter_basis_keys(2, 2))) == 4

    def test_standard_generators(self):
        gens = standard_generators(2, 3)
        assert LieElem.d(2, 1) in gens
        assert LieElem.basis(2, (3,), 2) in gens

    def test_format(self):
        u = LieElem.basis(3, (2,), 2, Fraction(-1, 2)) + LieElem.d(3, 1)
        assert format_lie(u) == "d1 - 1/2*x1^2*d2"
        assert format_lie(LieElem.zero(3)) == "0"
