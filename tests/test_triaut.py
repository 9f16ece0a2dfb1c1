"""Triangular automorphisms: group laws, exp/log, conjugation."""

import math
import random
from fractions import Fraction
from operator import add

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (bomb, conjugate_by_polys, inverse_jacobian_by_polys,
                      lie_elems, outcome, polys, rand_poly, rand_triaut,
                      rationals, sympy_terms, to_sympy, triangular_auts,
                      unipotent_auts)
from triderive import (AutoAction, DegreeCapError, DomainError, InternalError,
                       LieElem, Poly, TriAut, act, bracket,
                       conjugate_derivation, decompose, exp_ad_apply, exp_map,
                       log_map, normalize_mod_shn, reconstruct_from_frames)
from triderive import triaut
from triderive.dsl import parse_lie, parse_triaut
from triderive.poly import (_MAX_DEGREE, _check_limit, _pack,
                            _substitute_ints, _unpack)
from triderive.triaut import _bernoulli_term, format_triaut, split_ct_shift


class TestConstruction:
    def test_translation_parts_must_be_triangular(self):
        with pytest.raises(DomainError):
            TriAut([Poly.zero(2), Poly.var(2, 2)])

    def test_first_part_must_be_constant(self):
        with pytest.raises(DomainError):
            TriAut([Poly.var(2, 1), Poly.zero(2)])

    def test_scales_must_be_nonzero(self):
        with pytest.raises(DomainError):
            TriAut.torus([1, 0])

    def test_predicates(self):
        assert TriAut.identity(3).is_identity()
        sigma = TriAut([Poly.zero(2), Poly.var(2, 1) ** 2])
        assert sigma.is_unipotent() and sigma.is_ct()
        assert not TriAut.one_shift(2, 2, 1).is_ct()

    def test_images(self):
        sigma = TriAut([Poly.zero(2), Poly.var(2, 1) ** 2], [2, 3])
        assert sigma.images()[0] == Poly.var(2, 1).scale(2)
        assert sigma.images()[1] == Poly.var(2, 2).scale(3) + Poly.var(2, 1) ** 2


class TestValueSemantics:
    @given(triangular_auts(3))
    def test_hash_and_equality(self, sigma):
        # the first call computes the key and keeps it, the second reads it
        key = (sigma.n, sigma.lam, sigma.a)
        assert [hash(sigma), hash(sigma)] == [hash(key)] * 2
        assert sigma == TriAut(sigma.a, sigma.lam)
        lam = (sigma.lam[0] + 1 or 1,) + sigma.lam[1:]
        assert sigma != TriAut(sigma.a, lam)
        shifted = (sigma.a[0] + Poly.const(3, 1),) + sigma.a[1:]
        assert sigma != TriAut(shifted, sigma.lam)
        assert sigma != sigma.a

    def test_caches_do_not_take_part(self):
        sigma = TriAut([Poly.zero(2), Poly.var(2, 1) ** 2], [2, 3])
        fresh = TriAut(sigma.a, sigma.lam)
        sigma.invert()
        sigma.images()
        assert sigma == fresh and hash(sigma) == hash(fresh)


class TestGroupLaws:
    @given(triangular_auts(3))
    def test_inverse(self, sigma):
        assert sigma.compose(sigma.invert()).is_identity()
        assert sigma.invert().compose(sigma).is_identity()

    @given(triangular_auts(3, max_total=2), triangular_auts(3, max_total=2))
    def test_composition_applies_right_factor_first(self, s, t):
        p = Poly.var(3, 3) + Poly.var(3, 1) * Poly.var(3, 2)
        assert s.compose(t).apply(p) == s.apply(t.apply(p))

    @given(triangular_auts(2), triangular_auts(2), triangular_auts(2))
    def test_associative(self, a, b, c):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_apply_is_ring_map(self):
        sigma = TriAut([Poly.const(3, 1), Poly.var(3, 1) ** 2, Poly.zero(3)])
        p = Poly.var(3, 1) + Poly.var(3, 2)
        q = Poly.var(3, 2) * Poly.var(3, 3)
        assert sigma.apply(p * q) == sigma.apply(p) * sigma.apply(q)


class TestSubstitutionKernel:
    """apply keeps the powers of the images on the map between calls."""

    @pytest.mark.parametrize("seed", range(10))
    def test_apply_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"apply:{seed}")
        n = rng.randint(2, 4)
        syms = sympy.symbols(f"x1:{n + 1}")
        sigma = rand_triaut(rng, n)
        images = {s: lam * s + to_sympy(a, syms)
                  for s, lam, a in zip(syms, sigma.lam, sigma.a)}
        for _ in range(3):
            p = rand_poly(rng, n, 5, 4)
            expr = to_sympy(p, syms).subs(images, simultaneous=True)
            assert sigma.apply(p).terms == sympy_terms(expr, syms)

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_apply_matches_a_fresh_substitution(self, seed):
        rng = random.Random(f"repeat:{seed}")
        n = rng.randint(2, 4)
        sigma = rand_triaut(rng, n)
        ps = [rand_poly(rng, n, 5, 4) for _ in range(4)]
        for p in ps + ps[::-1] + [p * p for p in ps]:
            assert sigma.apply(p) == p.substitute(list(sigma.images()))
        assert sigma.images() == tuple(
            Poly.var(n, i).scale(lam) + a
            for i, (lam, a) in enumerate(zip(sigma.lam, sigma.a), start=1))

    def test_rank4_action_over_the_cap_is_pinned(self):
        # Conjugating the probe images by the inverse of this map builds
        # terms of far higher degree; decompose reads its coordinates
        # without it, and acting with the result agrees with conjugation.
        sigma = parse_triaut("[0,x1^2,x1*x2^2,x3^2;2,1,3,1]")
        g = decompose(AutoAction.from_triaut(sigma))
        d1 = LieElem.d(4, 1)
        assert act(g, d1) == conjugate_derivation(sigma, d1)


class TestExpLog:
    def test_pinned_exponential(self):
        # exp(x1^2 d2) translates x2 by x1^2 and fixes x1
        sigma = exp_map(LieElem.basis(2, (2,), 2))
        assert sigma == TriAut([Poly.zero(2), Poly.var(2, 1) ** 2])

    def test_exp_of_d1_is_a_unit_shift(self):
        assert exp_map(LieElem.d(2, 1)) == TriAut.one_shift(2, 1, 1)

    def test_log_rejects_non_unipotent(self):
        with pytest.raises(DomainError):
            log_map(TriAut.torus([2, 1]))

    @given(lie_elems(3, max_degree=2, max_terms=2))
    def test_double_round_trip(self, u):
        sigma = exp_map(u)
        assert log_map(sigma) == u
        assert exp_map(log_map(sigma)) == sigma

    def test_one_parameter_subgroup(self):
        u = LieElem.basis(3, (1, 2), 3) + LieElem.basis(3, (1,), 2)
        assert exp_map(u).compose(exp_map(u.scale(-1))).is_identity()


def log_by_series(sigma: TriAut) -> LieElem:
    """The logarithm series b_j = -sum_i (1 - sigma)^i (x_j) / i, one
    substitution by sigma per term: the oracle of log_map."""
    n = sigma.n
    coeffs = []
    for j in range(1, n + 1):
        w = Poly.var(n, j) - sigma.images()[j - 1]
        acc = Poly.zero(n)
        i = 1
        while w:
            acc = acc - w.scale(Fraction(1, i))
            w = w - sigma.apply(w)
            i += 1
        coeffs.append(acc)
    return LieElem.from_coefficients(coeffs)


def with_first_shift(n: int) -> st.SearchStrategy[TriAut]:
    """Unipotent maps whose x1 is shifted by a drawn constant too."""
    return st.tuples(unipotent_auts(n), rationals()).map(
        lambda pair: TriAut([Poly.const(n, pair[1]), *pair[0].a[1:]]))


class TestLogByBernoulliSeries:
    """log_map solves b_j = sum_k (B_k/k!) D^k(a_j) coordinate by
    coordinate, D the derivation on x_1..x_{j-1}."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @given(data=st.data())
    def test_matches_the_series_in_sigma(self, n, data):
        sigma = data.draw(with_first_shift(n))
        delta = log_map(sigma)
        assert delta == log_by_series(sigma)
        assert exp_map(delta) == sigma

    @pytest.mark.parametrize("text", [
        "[1, x1^12]", "[-2/3, x1^5 - x1, x1*x2^3 - x2 + 2]",
        "[1/2, x1^2, x2^2, x1*x3^2 + x2]",
    ])
    def test_long_series_match_the_series_in_sigma(self, text):
        # [1, x1^12] needs every term through D^12 = 12! * (d/dx1)^12
        sigma = parse_triaut(text)
        assert log_map(sigma) == log_by_series(sigma)

    def test_coefficients_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        series = sympy.series(z / (sympy.exp(z) - 1), z, 0, 13).removeO()
        for k in range(13):
            c = series.coeff(z, k)
            assert _bernoulli_term(k) == Fraction(int(c.p), int(c.q))

    def test_pinned_logarithm(self):
        # b_2 = x1^2 - 1/2 * 2*x1 + 1/12 * 2 (D = d1), and with
        # D = d1 + b_2 d2: b_3 = (x2 + 1) - 1/2 * b_2 + 1/12 * (2*x1 - 1),
        # the D^3 term 2 having the coefficient B_3/3! = 0.
        sigma = parse_triaut("[1, x1^2, x2 + 1]")
        assert str(log_map(sigma)) == (
            "d1 + x1^2*d2 - x1*d2 + 1/6*d2 + x2*d3 - 1/2*x1^2*d3"
            " + 2/3*x1*d3 + 5/6*d3")


def conjugate_by_substitution(sigma: TriAut, u: LieElem) -> LieElem:
    """The conjugation sigma u sigma^(-1) straight from its definition,
    the oracle of the inverse-Jacobian kernel: the d_j coefficient is
    sigma(u(sigma^(-1)(x_j)))."""
    return LieElem.from_coefficients(
        [sigma.apply(u.apply_to(q)) for q in sigma.invert().images()])


def rand_lie(rng: random.Random, n: int) -> LieElem:
    """A seeded derivation with a coefficient on every d_i."""
    return LieElem.from_coefficients(
        [rand_poly(rng, n, 2, 2, i - 1) for i in range(1, n + 1)])


def conjugate_by_exponent_sums(sigma: TriAut, den: int, parts: list
                               ) -> tuple[int, list[dict]]:
    """The conjugation kernel with one route for every entry of the
    inverse Jacobian: each product sums exponent tuples, constant entries
    included, unpacked from the packed keys and packed back.  The
    reference for the values of ``_conjugate`` and for the order of the
    keys of each dict it returns."""
    n = sigma.n
    columns = []
    for part, column in zip(parts, sigma._inverse_jacobian()):
        if part:
            common, image = _substitute_ints(sigma.images(), part.items())
            deg = max(sum(_unpack(e, n)) for e in image)
            for _, _, mdeg in column[1:]:
                _check_limit(mdeg + deg, "product")
            columns.append((common, image, column))
    lcm = math.lcm(*(common * m._den
                     for common, _, column in columns for _, m, _ in column))
    out: list[dict] = [{} for _ in range(sigma.n)]
    for common, image, column in columns:
        for j, m, _ in column:
            scale = lcm // (common * m._den)
            for e1, c1 in m._nums.items():
                for e2, c2 in image.items():
                    key = _pack(tuple(map(add, _unpack(e1, n), _unpack(e2, n))))
                    out[j - 1][key] = out[j - 1].get(key, 0) + c1 * scale * c2
    return den * lcm, out


def jacobian_entries(build) -> list:
    """The columns that build() returns as (j, den, numerators in key
    order, degree) per entry."""
    return [[(j, m._den, list(m._nums.items()), deg) for j, m, deg in column]
            for column in build()]


@st.composite
def frames(draw, affine: bool, max_rank: int = 5):
    """sigma at ranks 2..max_rank, with a torus and shifts.  An affine
    sigma has translation parts of degree <= 1, so every entry of its
    inverse Jacobian is constant.  Otherwise a_2 gains c*x1^2, so column 1
    holds the entry of degree 1 that d a_2 / d x1 brings.  a_1 is often
    0, so that the image of x1 is one term."""
    n = draw(st.integers(2, max_rank))
    parts = [Poly.const(n, draw(st.just(0) | rationals()))]
    for i in range(2, n + 1):
        parts.append(draw(polys(n, 1 if affine or i == 2 else 3,
                                max_terms=3, max_var=i - 1)))
    if not affine:
        square = (2,) + (0,) * (n - 1)
        parts[1] = parts[1] + Poly.monomial(n, square,
                                            draw(rationals(nonzero=True)))
    lams = draw(st.lists(rationals(span=3, nonzero=True), min_size=n,
                         max_size=n))
    return TriAut(parts, lams)


@st.composite
def frames_and_derivations(draw, affine: bool):
    """(sigma, u): a frame of ``frames`` at ranks 2..5 and a derivation."""
    sigma = draw(frames(affine))
    return sigma, draw(lie_elems(sigma.n, max_degree=4, max_terms=4))


@st.composite
def with_bombs(draw, sigma: TriAut, u: LieElem) -> LieElem:
    """u plus a bomb term x_k^e on each of some drawn indices i, with x_k
    in x1..x_{i-1}.  Where sigma's image of x_k is one term, e is the key
    limit itself, so that the products of column i pass it when an entry
    has positive degree; where the image has degree 2 or more, e * deg is
    just past the limit, so that the substitution refuses.  The index in
    e keeps two refusals of one variable apart."""
    images = sigma.images()
    coeffs = u.coefficient_polys()
    for i in range(1, sigma.n):
        ks = [k for k in range(i)
              if len(images[k].terms) == 1 or images.degs[k] >= 2]
        if ks and draw(st.booleans()):
            k = draw(st.sampled_from(ks))
            exps = [0] * sigma.n
            exps[k] = (_MAX_DEGREE if len(images[k].terms) == 1
                       else _MAX_DEGREE // images.degs[k] + i)
            coeffs[i] = coeffs[i] + Poly.monomial(sigma.n, exps,
                                                  draw(rationals(nonzero=True)))
    return LieElem.from_coefficients(coeffs)


class TestConjugationKernel:
    """conjugate_derivation goes through the cached inverse Jacobian."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_poly_route_errors_included(self, seed):
        """Values, and degree-limit errors with their type, text and order
        (substitution of p_i, then the products of column i, then
        p_{i+1}), are those of Poly arithmetic; a bomb term on about a
        third of the coefficients makes refusals common."""
        rng = random.Random(f"conjugate-cap:{seed}")
        n = 2 + seed % 4
        for _ in range(30):
            sigma = rand_triaut(rng, n, max_total=3)
            coeffs = [rand_poly(rng, n, 4, 6, i) for i in range(n)]
            for i in range(1, n):
                if rng.random() < 0.3:
                    coeffs[i] = coeffs[i] + bomb(rng, sigma, i)
            u = LieElem.from_coefficients(coeffs)
            assert outcome(conjugate_derivation, sigma, u) == outcome(
                lambda: LieElem.from_coefficients(
                    conjugate_by_polys(sigma, u.coefficient_polys())))

    def test_a_column_is_checked_before_the_next_index(self):
        """x1 |-> x1 keeps x1^65534 at the limit, and the products of its
        column, d_2, take it one past, before x2^40000, whose image
        under x2 |-> x2 + x1^2 has degree 80000, is substituted."""
        sigma = parse_triaut("[0, x1^2, x2^2]")
        u = parse_lie(f"x1^{_MAX_DEGREE}*d2 + x2^40000*d3", 3)
        want = (DegreeCapError, "product would reach total degree 65535, "
                "over the cap 65534")
        assert outcome(conjugate_derivation, sigma, u) == want
        assert outcome(lambda: LieElem.from_coefficients(
            conjugate_by_polys(sigma, u.coefficient_polys()))) == want

    @pytest.mark.parametrize("text, want", [
        # column 2 of M: 1, -1, 1, all constants
        ("[0, x1, x2, x3]", f"x1^{_MAX_DEGREE}*d2 - x1^{_MAX_DEGREE}*d3"
                            f" + x1^{_MAX_DEGREE}*d4"),
        # column 2 of M: 1, -1, 1 - 2*x2
        ("[0, x1, x2, x3 + x2^2]", (DegreeCapError, "product would reach "
                                    "total degree 65535, over the cap 65534")),
    ])
    def test_a_column_of_constants_reaches_the_limit(self, text, want):
        """A column whose entries below the diagonal are all constants
        skips the products' degree checks, which cannot fail, as the
        substitution held the image to the limit: the image x1^65534
        comes out at the limit.  One entry of degree 1 in the column,
        and the products are checked and refused as before."""
        sigma = parse_triaut(text)
        u = parse_lie(f"x1^{_MAX_DEGREE}*d2", 4)
        got = outcome(lambda: str(conjugate_derivation(sigma, u)))
        assert got == want
        assert got == outcome(lambda: str(LieElem.from_coefficients(
            conjugate_by_polys(sigma, u.coefficient_polys()))))

    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "mixed"])
    @given(data=st.data())
    def test_constant_and_other_entries_share_one_kernel(self, affine, data):
        """Frames whose inverse Jacobian is all constant, and frames with
        an entry of positive degree too, both through ``poly._mul_into``,
        which adds a constant entry's products under the image's own
        keys: values, key order and degree-limit errors are those of the
        kernel that sums exponent tuples for every entry, and values and
        errors those of Poly arithmetic, with the bomb terms of
        ``with_bombs`` added."""
        sigma, u = data.draw(frames_and_derivations(affine))
        u = data.draw(with_bombs(sigma, u))
        degrees = [[mdeg for _, _, mdeg in column]
                   for column in sigma._inverse_jacobian()]
        assert all(column[0] == 0 for column in degrees)
        assert any(map(any, degrees)) is not affine

        def kernel(fn):
            den, parts = fn(sigma, u._den, u._parts())
            return den, [list(part.items()) for part in parts]

        assert outcome(kernel, triaut._conjugate) == outcome(
            kernel, conjugate_by_exponent_sums)
        assert outcome(conjugate_derivation, sigma, u) == outcome(
            lambda: LieElem.from_coefficients(
                conjugate_by_polys(sigma, u.coefficient_polys())))

    def test_rank_mismatch(self):
        with pytest.raises(DomainError, match="mixed ranks: 2 vs 3"):
            conjugate_derivation(TriAut.identity(2), LieElem.d(3, 1))

    def test_a_result_off_the_algebra_is_an_internal_error(self, monkeypatch):
        # a d_2 coefficient that uses x2 cannot come out of a conjugation
        monkeypatch.setattr(triaut, "_conjugate",
                            lambda sigma, den, parts: (1, [{}, {_pack((0, 1)): 1}]))
        with pytest.raises(InternalError) as info:
            conjugate_derivation(TriAut.identity(2), LieElem.d(2, 1))
        assert str(info.value) == ("conjugation left the triangular algebra: "
                                   "coefficient of d_2 may only use x1..x1")

    @given(triangular_auts(3), lie_elems(3))
    def test_matches_the_definition(self, sigma, u):
        assert conjugate_derivation(sigma, u) == conjugate_by_substitution(sigma, u)

    @given(triangular_auts(4, max_total=1), lie_elems(4, max_degree=2))
    def test_matches_the_definition_at_rank4(self, sigma, u):
        assert conjugate_derivation(sigma, u) == conjugate_by_substitution(sigma, u)

    @pytest.mark.parametrize("text, expected", [
        ("d1", "1/2*d1 - x1*d2 - 1/6*x2*d3 + 1/3*x1^2*d3 + 1/3*x2*x3*d4"
               " - 2/3*x1^2*x3*d4"),
        ("d2", "d2 - 1/3*x1*d3 + 2/3*x1*x3*d4"),
        ("x1*x2*d3", "2/3*x1*x2*d3 + 2/3*x1^3*d3 - 4/3*x1*x2*x3*d4"
                     " - 4/3*x1^3*x3*d4"),
        ("d1 + x1*d2 - 3*x3^2*d4", None),
    ])
    def test_pinned_rank4_torus_map(self, text, expected):
        sigma = parse_triaut("[0,x1^2,x1*x2,x3^2;2,1,3,1]")
        u = parse_lie(text, 4)
        got = conjugate_derivation(sigma, u)
        assert got == conjugate_by_substitution(sigma, u)
        if expected is not None:
            assert str(got) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_inverse_jacobian_is_built_once(self, seed):
        rng = random.Random(f"jacobian:{seed}")
        n = rng.randint(2, 4)
        sigma = rand_triaut(rng, n)
        assert sigma._jac_inv is None
        conjugate_derivation(sigma, rand_lie(rng, n))
        jac = sigma._jac_inv
        for _ in range(3):
            u = rand_lie(rng, n)
            assert conjugate_derivation(sigma, u) == conjugate_by_substitution(sigma, u)
            assert sigma._jac_inv is jac
        # Column i lists (j, M[j][i], its degree) for the nonzero M[j][i]
        # with j >= i, where M[j][i] = sigma(d q_j / d x_i) and
        # q_j = sigma^(-1)(x_j).
        qs = sigma.invert().images()
        for i in range(1, n + 1):
            entries = [(j, sigma.apply(qs[j - 1].diff(i)))
                       for j in range(i, n + 1)]
            assert jac[i - 1] == tuple((j, m, m.total_degree())
                                       for j, m in entries if m)
            assert jac[i - 1][0] == (i, Poly.const(n, 1 / sigma.lam[i - 1]), 0)

    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "mixed"])
    @given(data=st.data())
    def test_inverse_jacobian_matches_the_poly_build(self, affine, data):
        """Every entry of the integer build has the value, denominator,
        key order and degree of the Poly build, at ranks 2..6.  A mixed
        frame may add a steep term c*x_{j-1}^e to a_j, e near half the
        key limit: the product of two such gradients then passes the
        limit or stays just under it, and both builds refuse the same
        product with the same text."""
        sigma = data.draw(frames(affine, max_rank=6))
        if not affine:
            parts = list(sigma.a)
            for j in range(1, sigma.n):
                if data.draw(st.booleans()):
                    exps = [0] * sigma.n
                    exps[j - 1] = data.draw(st.integers(_MAX_DEGREE // 2 - 1,
                                                        _MAX_DEGREE // 2 + 3))
                    parts[j] = parts[j] + Poly.monomial(
                        sigma.n, exps, data.draw(rationals(nonzero=True)))
            sigma = TriAut(parts, sigma.lam)

        assert outcome(jacobian_entries, sigma._inverse_jacobian) == outcome(
            jacobian_entries, lambda: inverse_jacobian_by_polys(sigma))

    @pytest.mark.parametrize("text, total", [
        # M[3][1] = d a_3/d x2 * d a_2/d x1 over the lambdas, of degree
        # 2 * (32768 - 1): at the limit
        ("[0, x1^32768, x2^32768]", None),
        ("[0, x1^32769, x2^32769]", 65536),
        ("[0, x1^40000, x2^40000]", 79998),
        # row 4: the product for M[4][1] (32768 + 65534) is refused
        # before that for M[4][2] (32768 + 32767)
        ("[0, x1^32768, x2^32768, x3^32769]", 98302),
        # a key of M[5][1] cancels and comes back among its products
        ("[0, -x1^2 - x1, -x2, -x1 + x2 + x3, -x3*x4 - x2 - x3]", None),
    ])
    def test_inverse_jacobian_pinned(self, text, total):
        """Frames at and past the limit, and one whose entry sums a key
        to zero and then meets it again: the integer build gives the
        entries, key order included, or the refusal of the Poly build."""
        sigma = parse_triaut(text)
        got = outcome(jacobian_entries, sigma._inverse_jacobian)
        assert got == outcome(jacobian_entries,
                              lambda: inverse_jacobian_by_polys(sigma))
        if total is not None:
            assert got == (DegreeCapError, f"product would reach total "
                           f"degree {total}, over the cap 65534")
        elif sigma.n == 3:
            assert got[0][-1][-1] == _MAX_DEGREE

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"conjugate:{seed}")
        n = rng.randint(2, 4)
        syms = sympy.symbols(f"x1:{n + 1}")
        sigma = rand_triaut(rng, n)
        u = rand_lie(rng, n)
        forward = {s: lam * s + to_sympy(a, syms)
                   for s, lam, a in zip(syms, sigma.lam, sigma.a)}
        # sigma^(-1)(x_j) = (x_j - a_j(sigma^(-1)(x_1), ...)) / lambda_j
        inverse: dict = {}
        for s, lam, a in zip(syms, sigma.lam, sigma.a):
            inverse[s] = sympy.expand(
                (s - to_sympy(a, syms).subs(inverse, simultaneous=True)) / lam)
        coeffs = [to_sympy(p, syms) for p in u.coefficient_polys()]
        got = conjugate_derivation(sigma, u).coefficient_polys()
        for j, s in enumerate(syms):
            q = inverse[s]
            uq = sum(c * sympy.diff(q, x) for c, x in zip(coeffs, syms))
            expr = sympy.expand(sympy.sympify(uq).subs(forward, simultaneous=True))
            assert got[j].terms == sympy_terms(expr, syms)


class TestConjugation:
    def test_pinned_example(self):
        # exp(x1^2 d2) sends d1 to d1 - 2 x1 d2
        sigma = exp_map(LieElem.basis(2, (2,), 2))
        out = conjugate_derivation(sigma, LieElem.d(2, 1))
        assert out == LieElem.d(2, 1) + LieElem.basis(2, (1,), 2, -2)

    @given(triangular_auts(3, max_total=2), lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2))
    def test_respects_brackets(self, sigma, u, v):
        lhs = conjugate_derivation(sigma, bracket(u, v))
        rhs = bracket(conjugate_derivation(sigma, u),
                      conjugate_derivation(sigma, v))
        assert lhs == rhs

    @given(triangular_auts(2), triangular_auts(2), lie_elems(2, max_terms=2))
    def test_homomorphism_in_the_group(self, s, t, u):
        lhs = conjugate_derivation(s.compose(t), u)
        rhs = conjugate_derivation(s, conjugate_derivation(t, u))
        assert lhs == rhs

    @given(lie_elems(3, max_degree=2, max_terms=2),
           lie_elems(3, max_degree=2, max_terms=2))
    def test_exp_ad_matches_conjugation(self, u, v):
        assert exp_ad_apply(u, v) == conjugate_derivation(exp_map(u), v)


class TestNormalForms:
    def test_normalize_mod_shn(self):
        sigma = TriAut([Poly.zero(2), Poly.const(2, 5) + Poly.var(2, 1) ** 2])
        assert normalize_mod_shn(sigma) == TriAut([Poly.zero(2), Poly.var(2, 1) ** 2])
        assert normalize_mod_shn(sigma).is_normalized_unipotent()

    def test_split_ct_shift(self):
        tau = TriAut([Poly.zero(3), Poly.var(3, 1) ** 2,
                      Poly.var(3, 1) * Poly.var(3, 2)])
        mu = (Fraction(1), Fraction(-2), Fraction(3))
        sigma = tau.compose(TriAut.shift(mu))
        got_tau, got_mu = split_ct_shift(sigma)
        assert got_tau == tau
        assert got_mu == mu

    def test_reconstruct_from_frames(self):
        # frames list the images of d1..dn under conjugation
        sigma = TriAut([Poly.zero(2), Poly.var(2, 1) ** 2])
        frames = [conjugate_derivation(sigma, LieElem.d(2, i)) for i in (1, 2)]
        assert reconstruct_from_frames(frames) == sigma
        # a torus . ct map scales the frames by 1/lambda_i, as decompose
        # reads them; the reconstruction recovers the scales too
        for seed in range(8):
            rng = random.Random(f"frames:{seed}")
            n = 2 + seed % 3
            parts = [Poly.zero(n)]
            for i in range(2, n + 1):
                p = rand_poly(rng, n, 3, 2, i - 1)
                parts.append(p - Poly.const(n, p.constant_term()))
            lams = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
                    for _ in range(n)]
            sigma = TriAut.torus(lams).compose(TriAut(parts))
            frames = [conjugate_derivation(sigma, LieElem.d(n, i))
                      for i in range(1, n + 1)]
            assert reconstruct_from_frames(frames) == sigma
            assert sigma.lam == tuple(lams)

    def test_format(self):
        sigma = TriAut([Poly.zero(2), Poly.var(2, 1) ** 2], [1, 2])
        assert format_triaut(sigma) == "[0, x1^2 ; 1, 2]"
        assert format_triaut(TriAut([Poly.zero(2), Poly.var(2, 1)])) == "[0, x1]"
