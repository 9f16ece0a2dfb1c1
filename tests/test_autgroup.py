"""The automorphism group in canonical coordinates: action, product, inverse."""

import functools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (assert_lowest_terms, bomb, conjugate_by_polys,
                      gn_elems, lie_elems, outcome, rand_poly, rationals,
                      unit_series)
from triderive import (AutoAction, DomainError, GnElem, LieElem, OpSeries,
                       Poly, TriAut, TruncationError, act, bracket,
                       conjugate_derivation, convert_form, decompose,
                       exp_ad_auto, exp_map, gn_inverse, multiply_formula)
from triderive.autgroup import _probe
from triderive.verify import _apply_by_diff, _apply_feeds, _apply_unit_series
from triderive.dsl import parse_lie
from triderive.lie import standard_generators
from triderive.poly import DEFAULT_ORDER
from triderive.triaut import normalize_mod_shn


def x(i: int, n: int = 3) -> Poly:
    return Poly.var(n, i)


def gn(n: int, form: str = "A", t=None, tau=None, s=None, f=None, e=None) -> GnElem:
    if t is None:
        t = [1] * n
    if tau is None:
        tau = TriAut.identity(n)
    if s is None and form == "A":
        s = [0] * (n - 2)
    if f is None:
        f = OpSeries.one(n - 1, "F" if form == "A" else "FP")
    if e is None:
        e = [OpSeries.zero_e(k + 1) for k in range(n - 2)]
    return GnElem(n, form, t, tau, s, f, e)


def same_action(g: GnElem, fn, n: int, max_exponent: int = 4) -> bool:
    return all(act(g, u) == fn(u) for u in standard_generators(n, max_exponent))


def torus_formula(lams, u: LieElem) -> LieElem:
    """Oracle for the torus action: the scaling x_k -> lam_k x_k sends
    x^a d_i to lam^a / lam_i x^a d_i."""
    terms = {}
    for (alpha, i), c in u.terms.items():
        factor = 1 / Fraction(lams[i - 1])
        for k, a in enumerate(alpha):
            factor *= Fraction(lams[k]) ** a
        terms[(alpha, i)] = c * factor
    return LieElem(u.n, terms)


def coefficients(u: LieElem) -> list:
    return [u.coefficient_poly(i) for i in range(1, u.n + 1)]


def feeds_by_derivation(e, u: LieElem) -> LieElem:
    """u  ->  u + sum_i e_i(p_i) d_n where p_i is the d_i coefficient."""
    n = u.n
    extra = Poly.zero(n)
    for k, series in enumerate(e):
        pi = u.coefficient_poly(k + 2)
        if pi:
            extra = extra + _apply_by_diff(series, pi)
    if not extra:
        return u
    coeffs = coefficients(u)
    coeffs[n - 1] = coeffs[n - 1] + extra
    return LieElem.from_coefficients(coeffs)


def unit_series_by_derivation(f: OpSeries, u: LieElem) -> LieElem:
    """Rewrites only the d_n coefficient: p_n -> f(p_n)."""
    n = u.n
    pn = u.coefficient_poly(n)
    if not pn:
        return u
    coeffs = coefficients(u)
    coeffs[n - 1] = _apply_by_diff(f, pn)
    return LieElem.from_coefficients(coeffs)


def act_by_factors(g: GnElem, u: LieElem) -> LieElem:
    """Oracle for act: one factor at a time, each from derivation to
    derivation, the shift and the triangular part by separate
    conjugations and the torus by its closed formula."""
    if g.form == "A":
        w = unit_series_by_derivation(g.f, feeds_by_derivation(g.e, u))
        w = conjugate_derivation(TriAut.shift(g.s + (0, 0)), w)
        w = conjugate_derivation(g.tau, w)
        return torus_formula(g.t, w)
    w = feeds_by_derivation(g.e, unit_series_by_derivation(g.f, u))
    return conjugate_derivation(g.tau, torus_formula(g.t, w))


def act_by_poly_route(g: GnElem, u: LieElem) -> LieElem:
    """Oracle for act: its steps on coefficient polynomials, the unit
    series and the feeds by repeated Poly.diff and the frame map through
    Poly arithmetic, with the errors in the same order."""
    if g.n != u.n:
        raise DomainError(f"mixed ranks: {g.n} vs {u.n}")
    coeffs = _apply_feeds(g.e, _apply_unit_series(g.f, u.coefficient_polys()))
    frame = g._frame_map()
    if not frame.is_identity():
        coeffs = conjugate_by_polys(frame, coeffs)
    return LieElem.from_coefficients(coeffs)


def rand_gn(rng: random.Random, n: int, form: str) -> GnElem:
    """A seeded element with exact series; in Form B the triangular part
    keeps the constant terms that Form A moves into the shift."""
    parts = [Poly.zero(n)]
    for i in range(2, n + 1):
        p = rand_poly(rng, n, 3, 2, i - 1)
        if form == "A" or i == n:
            p = p - Poly.const(n, p.constant_term())
        parts.append(p)
    t = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)) for _ in range(n)]

    def coeffs(lowest: int) -> dict:
        return {k: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 4))
                for k in rng.sample(range(lowest, 5), 2)}

    f = OpSeries("F" if form == "A" else "FP", n - 1, None,
                 coeffs(1 if form == "A" else 2))
    e = [OpSeries("E", k + 1, None, coeffs(1)) for k in range(n - 2)]
    s = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
         for _ in range(n - 2)] if form == "A" else None
    return GnElem(n, form, t, TriAut(parts), s, f, e)


def product_by_derivation_correction(g: GnElem, h: GnElem) -> GnElem:
    """Oracle for multiply_formula: the correction c d_n is built as a
    derivation, conjugated by g's torus and exponentiated, and composed
    between g's triangular part and h's conjugated by the torus; the
    series apply by repeated Poly.diff."""
    n = g.n
    b = h.tau.a
    c = _apply_by_diff(g.f, b[n - 1]) - b[n - 1]
    for k, series in enumerate(g.e):
        if b[k + 1]:
            c = c + _apply_by_diff(series, b[k + 1])
    tt = TriAut.torus(g.t)
    tau = g.tau
    if c:
        correction = conjugate_derivation(
            tt, LieElem.from_coefficients([Poly.zero(n)] * (n - 1) + [c]))
        tau = tau.compose(exp_map(correction))
    tau = normalize_mod_shn(tau.compose(tt.compose(h.tau).compose(tt.invert())))
    e = [series.scale_coeffs(h.t[n - 1] / h.t[k + 1])
         .scale_powers(h.t[k]).add_e(h.e[k]) for k, series in enumerate(g.e)]
    f = g.f.scale_powers(h.t[n - 2]).mul(h.f)
    f = OpSeries("FP", f.var, f.order, f.coeffs)
    return GnElem(n, "B", [a * b for a, b in zip(g.t, h.t)], tau, None, f, e)


def inverse_by_pure_factors(g: GnElem, order=None) -> GnElem:
    """Oracle for gn_inverse: the inverses of the four factors, each as
    its own element, multiplied in the order f, e, torus, triangular
    part."""
    gb = convert_form(g, "B", order)
    n = gb.n
    # the caller's order, never past the stored one, else the default
    inv_order = min((o for o in (order, gb.f.order) if o is not None),
                    default=DEFAULT_ORDER)
    f_inv = gb.f.reciprocal(inv_order)
    out = gn(n, "B", f=OpSeries("FP", f_inv.var, f_inv.order, f_inv.coeffs))
    out = multiply_formula(out, gn(n, "B", e=[x.negate_e() for x in gb.e]))
    out = multiply_formula(out, gn(n, "B", t=[1 / c for c in gb.t]))
    out = multiply_formula(
        out, gn(n, "B", tau=normalize_mod_shn(gb.tau.invert())))
    if g.form == "A":
        return convert_form(out, "A", order)
    return out


# Elements at ranks 2-5 with exact series and with series stored through
# degree 2, which multi-term derivations of degree up to 4 outrun.
ACT_ELEMS = {(n, form, order): gn_elems(n, form, order)
             for n in (2, 3, 4, 5) for form in "AB" for order in (None, 2)}
DERIVATIONS = {n: lie_elems(n, max_degree=4, max_terms=4) for n in (2, 3, 4, 5)}


class TestGnElem:
    def test_identity(self):
        for form in ("A", "B"):
            assert GnElem.identity(3, form).is_identity()

    @pytest.mark.parametrize("n", [0, 1])
    def test_identity_checks_the_rank_first(self, n):
        for form in ("A", "B"):
            with pytest.raises(DomainError, match="^rank must be at least 2$"):
                GnElem.identity(n, form)

    def test_form_a_requires_ct_tau(self):
        with pytest.raises(DomainError):
            gn(3, tau=TriAut.one_shift(3, 2, 1))

    def test_form_b_rejects_shift_data(self):
        with pytest.raises(DomainError):
            GnElem(3, "B", [1, 1, 1], TriAut.identity(3), (0,),
                   OpSeries.one(2, "FP"), [OpSeries.zero_e(1)])

    def test_series_symbols_are_checked(self):
        with pytest.raises(DomainError):
            gn(3, f=OpSeries.one(1))
        with pytest.raises(DomainError):
            gn(3, e=[OpSeries.zero_e(2)])

    @given(gn_elems(3, "A") | gn_elems(3, "B", order=4))
    def test_hash_and_equality(self, g):
        # the first call computes the key and keeps it, the second reads it
        key = (g.n, g.form, g.t, g.tau, g.s, g.f, g.e)
        assert [hash(g), hash(g)] == [hash(key)] * 2
        assert g == GnElem(g.n, g.form, g.t, g.tau, g.s, g.f, g.e)
        t = (-g.t[0],) + g.t[1:]
        assert g != GnElem(g.n, g.form, t, g.tau, g.s, g.f, g.e)
        f = OpSeries(g.f.kind, g.f.var, 6 if g.f.order is None else None,
                     g.f.coeffs)
        assert g != GnElem(g.n, g.form, g.t, g.tau, g.s, f, g.e)

    def test_forms_differ(self):
        assert GnElem.identity(3, "A") != GnElem.identity(3, "B")
        assert GnElem.identity(3, "A") == GnElem.identity(3, "A")
        assert GnElem.identity(3, "A") != TriAut.identity(3)

    def test_agrees_with_ignores_deep_coefficients(self):
        a = gn(3, f=OpSeries("F", 2, 4, {2: 1}))
        b = gn(3, f=OpSeries("F", 2, 2, {2: 1}))
        assert a.agrees_with(b)
        assert not a.agrees_with(gn(3, f=OpSeries("F", 2, 4, {2: 2})))


class TestAction:
    def test_feed_block(self):
        g = gn(3, e=[OpSeries("E", 1, None, {1: 1})])
        u = LieElem.basis(3, (1,), 2)
        assert act(g, u) == u + LieElem.d(3, 3)

    def test_unit_series_block(self):
        g = gn(3, f=OpSeries("F", 2, None, {1: 1}))
        u = LieElem.basis(3, (0, 2), 3)
        assert act(g, u) == u + LieElem.basis(3, (0, 1), 3, 2)

    def test_torus_block(self):
        g = gn(3, t=[2, 3, 5])
        u = LieElem.basis(3, (1,), 2)
        assert act(g, u) == u.scale(Fraction(2, 3))
        assert torus_formula((2, 3, 5), u) == act(g, u)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    def test_torus_conjugation_matches_closed_formula(self, n, data):
        u = data.draw(lie_elems(n))
        lams = data.draw(st.lists(rationals(span=3, nonzero=True),
                                  min_size=n, max_size=n))
        assert conjugate_derivation(TriAut.torus(lams), u) == torus_formula(lams, u)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_factor_by_factor(self, seed):
        rng = random.Random(f"act:{seed}")
        n = 2 + seed % 3
        for form in ("A", "B"):
            g = rand_gn(rng, n, form)
            probes = standard_generators(n, 2)
            coeffs = [rand_poly(rng, n, 2, 2, i) for i in range(n)]
            probes.append(LieElem.from_coefficients(coeffs))
            # the zero derivation, which both series steps return as it
            # is, and one with no d_n coefficient, which the unit series
            # step returns as it is
            probes.append(LieElem.zero(n))
            probes.append(LieElem.from_coefficients(
                coeffs[:-1] + [Poly.zero(n)]))
            for u in probes:
                assert act(g, u) == act_by_factors(g, u)

    @pytest.mark.parametrize("order", [None, 2])
    @pytest.mark.parametrize("form", ["A", "B"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_matches_factor_by_factor_on_random_derivations(
            self, n, form, order, data):
        g = data.draw(ACT_ELEMS[n, form, order])
        u = data.draw(DERIVATIONS[n])
        got = outcome(act, g, u)
        want = outcome(act_by_factors, g, u)
        if isinstance(want, LieElem):
            assert got == want
        else:
            # act_by_factors applies the feeds before f in Form A, so
            # when both would fail, the first failure named may differ.
            assert want[0] is TruncationError and got[0] is TruncationError

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_poly_route_errors_included(self, seed):
        """Values, and truncation and degree-limit errors with their type,
        text and order, are those of the Poly route; a bomb term on about
        a third of the coefficients, refused by the frame's substitution,
        makes degree-limit errors common."""
        rng = random.Random(f"act-cap:{seed}")
        n = 2 + seed % 4
        for _ in range(40):
            form = rng.choice("AB")
            g = rand_gn(rng, n, form)
            if rng.random() < 0.3:
                g = GnElem(n, form, g.t, g.tau, g.s, g.f.truncate(3),
                           [series.truncate(3) for series in g.e])
            coeffs = [rand_poly(rng, n, 4, 6, i) for i in range(n)]
            # in x1..x_i, the series' own symbol x_i included: the
            # oracle derives no further than the series' last coefficient
            for i in range(2, n):
                if rng.random() < 0.3:
                    coeffs[i] = coeffs[i] + bomb(rng, g._frame_map(), i)
            u = LieElem.from_coefficients(coeffs)
            assert outcome(act, g, u) == outcome(act_by_poly_route, g, u)

    @pytest.mark.parametrize("u, message", [
        # f is checked before the feeds, on the whole d_3 coefficient
        ("x1^5*d2 + x2^3*d3 + x1^7*d3",
         "need series coefficients through degree 3, stored through 2"),
        ("x1^5*d2 + x1^7*d3",
         "need series coefficients through degree 5, stored through 2"),
        ("x1^2*d2 + x2^2*d3", None),
    ])
    def test_truncation_names_the_first_series_that_falls_short(
            self, u, message):
        g = gn(3, f=OpSeries("F", 2, 2, {1: 1}),
               e=[OpSeries("E", 1, 2, {2: Fraction(1, 2)})])
        v = parse_lie(u, 3)
        if message is None:
            assert act(g, v) == act_by_poly_route(g, v)
        else:
            with pytest.raises(TruncationError) as info:
                act(g, v)
            assert str(info.value) == message
            assert (info.value.required, info.value.available) == \
                (int(message.split()[5].rstrip(",")), 2)
            assert outcome(act_by_poly_route, g, v) == \
                (TruncationError, message)

    @pytest.mark.parametrize("n, i", [(3, 3), (4, 4), (4, 3), (5, 4)])
    @pytest.mark.parametrize("power", [2, 3])
    def test_degree_needed_is_that_in_the_symbol(self, n, i, power):
        """A series stored through 2 reading p_i = x1^9 + x_{i-1}^power
        (f on p_n when i = n, else the feed e_i on p_i) needs the degree
        in its symbol x_{i-1}, not the total degree 9."""
        def stored(kind: str, var: int) -> OpSeries:
            return OpSeries(kind, var, 2, {1: Fraction(1, 2), 2: 3})

        if i == n:
            g = gn(n, f=stored("F", n - 1))
        else:
            g = gn(n, e=[stored("E", k + 1) if k + 2 == i
                         else OpSeries.zero_e(k + 1) for k in range(n - 2)])
        u = parse_lie(f"x1^9*d{i} + x{i - 1}^{power}*d{i}", n)
        if power == 2:
            assert act(g, u) == act_by_poly_route(g, u)
        else:
            with pytest.raises(TruncationError) as info:
                act(g, u)
            assert (info.value.required, info.value.available) == (3, 2)

    def test_rank_mismatch(self):
        with pytest.raises(DomainError, match="mixed ranks: 3 vs 2"):
            act(gn(3), LieElem.d(2, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_frame_map_is_built_once(self, seed):
        rng = random.Random(f"frame:{seed}")
        n = 2 + seed % 3
        for form in ("A", "B"):
            g = rand_gn(rng, n, form)
            assert g._frame is None
            act(g, LieElem.d(n, 1))
            frame = g._frame
            assert frame is not None
            act(g, LieElem.d(n, n))
            assert g._frame_map() is frame
            tt = TriAut.torus(g.t)
            if form == "A":
                assert frame == tt.compose(g.tau).compose(
                    TriAut.shift(g.s + (0, 0)))
            else:
                assert frame == g.tau.compose(tt)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_an_identity_frame_acts_without_conjugation(self, n, monkeypatch):
        """Only the series act: the constants keep None for the frame, and
        the result is that of the series steps alone."""
        g = gn(n, f=OpSeries("F", n - 1, None, {1: Fraction(1, 2), 3: 2}),
               e=[OpSeries("E", k + 1, None, {2: Fraction(-1, 3)})
                  for k in range(n - 2)])
        monkeypatch.setattr("triderive.autgroup._conjugated", None)
        for u in standard_generators(n, 4):
            coeffs = _apply_feeds(g.e, _apply_unit_series(
                g.f, u.coefficient_polys()))
            assert act(g, u) == LieElem.from_coefficients(coeffs)
        assert g._act[0] is None

    @pytest.mark.parametrize("order", [None, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_constants_give_the_poly_route(self, seed, order):
        """Exact series and series stored through 3, whose coefficients past
        a derivation's degree enter the one scale, act as the Poly route
        does, errors included, on every call after the constants exist."""
        rng = random.Random(f"act-constants:{seed}")
        n = 2 + seed % 3
        g = rand_gn(rng, n, rng.choice("AB"))
        if order is not None:
            g = GnElem(n, g.form, g.t, g.tau, g.s, g.f.truncate(order),
                       [series.truncate(order) for series in g.e])
        assert g._act is None
        probes = [LieElem.from_coefficients(
            [rand_poly(rng, n, 5, 3, i) for i in range(n)]) for _ in range(6)]
        for u in probes + probes:
            assert outcome(act, g, u) == outcome(act_by_poly_route, g, u)
        frame, scale, pairs = g._act
        assert frame is (None if g._frame.is_identity() else g._frame)
        assert scale == math.lcm(*(c.denominator for series in (g.f, *g.e)
                                   for c in series.coeffs.values()))
        assert pairs == [[(k, int(c * scale)) for k, c in
                          sorted(series.coeffs.items())]
                         for series in (g.f, *g.e)]

    def test_truncation_reports_the_same_degrees_after_the_constants(self):
        g = gn(3, f=OpSeries("F", 2, 2, {1: 1, 2: Fraction(1, 3)}),
               e=[OpSeries("E", 1, 2, {2: Fraction(1, 2)})])
        short, long = parse_lie("x2^2*d3", 3), parse_lie("x1^4*d2", 3)
        for _ in range(2):
            assert act(g, short) == act_by_poly_route(g, short)
            with pytest.raises(TruncationError) as info:
                act(g, long)
            assert (info.value.required, info.value.available) == (4, 2)
            assert str(info.value) == ("need series coefficients through "
                                       "degree 4, stored through 2")

    def test_respects_brackets(self):
        g = gn(3, t=[2, 1, 3], tau=TriAut([Poly.zero(3), x(1) ** 2, x(1) * x(2)]),
               s=[Fraction(1, 2)], f=OpSeries("F", 2, None, {2: 1}),
               e=[OpSeries("E", 1, None, {1: 2})])
        u = LieElem.basis(3, (2,), 2) + LieElem.d(3, 1)
        v = LieElem.basis(3, (1, 1), 3) + LieElem.basis(3, (0,), 2)
        assert act(g, bracket(u, v)) == bracket(act(g, u), act(g, v))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    def test_unit_series_and_feeds_commute(self, n, data):
        """F'_n x E_n is a direct product: on the coefficient list, f and
        e commute, for f with a linear term (kind F) and without (FP)."""
        coeffs = data.draw(lie_elems(n)).coefficient_polys()
        kind = data.draw(st.sampled_from(["F", "FP"]))
        lowest = 2 if kind == "FP" else 1
        f_coeffs = data.draw(st.dictionaries(
            st.integers(lowest, 4), rationals(span=3, nonzero=True),
            min_size=1, max_size=3))
        if kind == "F":
            f_coeffs[1] = data.draw(rationals(span=3, nonzero=True))
        f = OpSeries(kind, n - 1, None, f_coeffs)
        e = [OpSeries("E", k + 1, None, data.draw(st.dictionaries(
            st.integers(1, 4), rationals(span=3, nonzero=True), max_size=3)))
             for k in range(n - 2)]
        assert _apply_feeds(e, _apply_unit_series(f, coeffs)) == \
            _apply_unit_series(f, _apply_feeds(e, coeffs))

    def test_action_memoizes_and_validates(self):
        calls = []

        def fn(u):
            calls.append(u)
            return u

        action = AutoAction(2, fn)
        probe = LieElem.d(2, 1)
        action(probe)
        action(probe)
        assert len(calls) == 1
        bad = AutoAction(2, lambda u: "no")
        with pytest.raises(DomainError):
            bad(probe)


ROUND_TRIP = {
    "rank3": gn(3, t=[2, 1, 3], tau=TriAut([Poly.zero(3), x(1) ** 2, x(1) * x(2)]),
                s=[Fraction(1, 2)],
                f=OpSeries("F", 2, 6, {1: Fraction(1, 2), 3: 1}),
                e=[OpSeries("E", 1, 6, {2: 1})]),
    # both shifts nonzero, so every feed probe is read off a shifted point
    "rank4": gn(4, t=[2, -1, 3, Fraction(1, 2)],
                tau=TriAut([Poly.zero(4), x(1, 4) ** 2, x(1, 4) * x(2, 4),
                            x(2, 4) ** 2 - x(1, 4) * x(3, 4)]),
                s=[Fraction(1, 2), -3],
                f=OpSeries("F", 3, 6, {1: Fraction(1, 2), 2: -1}),
                e=[OpSeries("E", 1, 6, {1: 1, 3: 2}),
                   OpSeries("E", 2, 6, {2: Fraction(-1, 3)})]),
}


def decompose_questions(n: int, order: int, s) -> list:
    """Oracle for the questions ``decompose`` asks, in order and without
    repeats: 20 linearity and bracket checks on generator pairs drawn by
    random.Random(7042), the images of d_1..d_n, then the probes of the
    shift, the unit series and the feeds, built from Fractions."""
    gens = [LieElem.d(n, 1)] + [
        LieElem.basis(n, (0,) * (i - 2) + (j,), i)
        for i in range(2, n + 1) for j in range(min(3, order) + 1)]
    scalars = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
               Fraction(3)]
    rng = random.Random(7042)
    asked = []
    for _ in range(20):
        u, v = rng.choice(gens), rng.choice(gens)
        c1, c2 = rng.choice(scalars), rng.choice(scalars)
        asked += [u.scale(c1) + v.scale(c2), u, v, bracket(u, v)]

    def probe(i: int, k: int, shift: Fraction = Fraction(0)) -> LieElem:
        pad = (0,) * (i - 2)
        return LieElem(n, {(pad + (j,), i): (-shift) ** (k - j)
                           / (math.factorial(j) * math.factorial(k - j))
                           for j in range(k + 1)})

    asked += [LieElem.d(n, i) for i in range(1, n + 1)]
    asked += [probe(i + 1, 1) for i in range(1, n - 1)]
    asked += [probe(n, k) for k in range(1, order + 1)]
    asked += [probe(i, k, Fraction(s[i - 2]))
              for i in range(2, n) for k in range(1, order + 1)]
    out = []
    for u in asked:
        if u not in out:
            out.append(u)
    return out


# Form A elements whose shifts are zero, negative and fractional.
QUESTION_SHIFTS = {2: [()], 3: [(0,), (-3,), (Fraction(1, 2),)],
                   4: [(0, Fraction(-2, 3)), (Fraction(1, 2), -3),
                       (Fraction(-5, 2), 0)]}


class TestDecompose:
    @pytest.mark.parametrize("form", ["A", "B"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_asks_the_pinned_questions_in_order(self, n, form):
        rng = random.Random(f"questions:{n}{form}")
        for s in QUESTION_SHIFTS[n]:
            a = rand_gn(rng, n, "A")
            a = GnElem(n, "A", a.t, a.tau, s, a.f, a.e)
            g = a if form == "A" else convert_form(a, "B")
            for order in range(1, 9):
                asked = []

                def fn(u, g=g, asked=asked):
                    asked.append(u)
                    return act(g, u)

                got = decompose(AutoAction(n, fn), order=order)
                assert got.s == a.s
                assert asked == decompose_questions(n, order, a.s)

    @given(st.integers(2, 4).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(2, n))),
           st.integers(0, 16),
           st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)))
    def test_probe_is_the_fraction_expansion(self, rank_index, k, shift):
        n, i = rank_index
        got = _probe(n, i, k, shift)
        pad = (0,) * (i - 2)
        assert got == LieElem(n, {(pad + (j,), i): (-shift) ** (k - j)
                                   / (math.factorial(j) * math.factorial(k - j))
                                   for j in range(k + 1)})
        assert_lowest_terms(got)
        powers = [alpha[-1] for alpha, _ in got.terms]
        assert powers == sorted(powers)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_frame_is_the_recovered_one(self, n, data):
        h = decompose(AutoAction.from_gnelem(data.draw(gn_elems(n, "A"))),
                      order=3)
        assert h._frame is not None and h._frame_map() is h._frame
        assert h._frame == TriAut.torus(h.t).compose(h.tau).compose(
            TriAut.shift(h.s + (0, 0)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_acts_through_the_frame_it_assigned(self, n, data):
        """The constants of act are built on its first call, which comes
        after decompose assigns the recovered frame map, so they hold that
        map (None when it is the identity)."""
        g = data.draw(gn_elems(n, "A"))
        h = decompose(AutoAction.from_gnelem(g), order=3)
        assert h._act[0] is (None if h._frame.is_identity() else h._frame)
        for u in standard_generators(n, 3):
            assert act(h, u) == act(g, u)

    @pytest.mark.parametrize("g", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
    def test_round_trip_pinned(self, g):
        assert decompose(AutoAction.from_gnelem(g), order=6) == g

    def test_adjoint_action_is_inner(self):
        u = LieElem.basis(3, (2,), 2) + LieElem.basis(3, (0, 1), 3)
        g = decompose(exp_ad_auto(u), order=8)
        assert g.t == (1, 1, 1)
        assert g.tau == exp_map(u)
        assert g.s == (0,)
        assert g.f.is_one()
        assert all(series.is_zero_e() for series in g.e)

    def test_rejects_non_actions(self):
        torpedo = AutoAction(2, lambda u: u + LieElem.d(2, 2))
        with pytest.raises(DomainError):
            decompose(torpedo)

    NOT_LINEAR = "action is not linear on generators"
    NO_BRACKETS = "action does not respect brackets on generators"

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("box, refusals", [
        # u -> g(u) + d1 breaks linearity on every pair whose scalars do
        # not sum to 1.  The first pair at rank 2 and order 1, and at rank
        # 4 and order 3 or more, has the scalars -1 and 2, so its bracket
        # fails first.
        ("plus d1", {(2, 1): NO_BRACKETS, (4, 3): NO_BRACKETS,
                     (4, 8): NO_BRACKETS}),
        # 2g and -g are linear, but [c a, c b] = c^2 [a, b].
        ("twice", {}),
        ("negated", {}),
    ])
    def test_the_spot_check_refuses_with_the_pinned_message(self, n, box,
                                                            refusals):
        rng = random.Random(f"spot:{n}{box}")
        boxes = {"plus d1": lambda g, u: act(g, u) + LieElem.d(n, 1),
                 "twice": lambda g, u: act(g, u).scale(2),
                 "negated": lambda g, u: -act(g, u)}
        default = self.NOT_LINEAR if box == "plus d1" else self.NO_BRACKETS
        for order in (1, 3, 8):
            for _ in range(3):
                g = rand_gn(rng, n, rng.choice("AB"))
                fn = functools.partial(boxes[box], g)
                with pytest.raises(DomainError) as info:
                    decompose(AutoAction(n, fn), order=order)
                assert str(info.value) == refusals.get((n, order), default)

    def test_rejects_an_action_wrong_on_a_high_probe(self):
        # The identity, except that x2^k d3 with k >= 8 picks up x1 d3.  The
        # spot check and the frames never see such a term, and every read
        # constant is that of the identity; acting with the result is exact.
        def fn(u):
            if any(i == 3 and alpha[1] >= 8 for alpha, i in u.terms):
                return u + LieElem.basis(3, (1, 0), 3)
            return u

        with pytest.raises(DomainError) as info:
            decompose(AutoAction(3, fn), order=10)
        assert str(info.value) == ("the decomposition does not reproduce the "
                                   "action on the probe 1/40320*x2^8*d3")


def faulty_box(name: str, g: GnElem):
    """A black box built from g that is not g's action, or not an action."""
    n = g.n
    frame = g._frame_map()
    if name == "one basis element":
        # wrong only on x1^2 d_n, by d1 times its coefficient; linear
        key = ((2,) + (0,) * (n - 2), n)
        return lambda u: act(g, u) + LieElem.d(n, 1).scale(u.terms.get(key, 0))
    if name == "twice":
        return lambda u: act(g, u).scale(2)
    if name == "negated":
        return lambda u: -act(g, u)
    if name == "nonlinear":
        return lambda u: act(g, u).scale(len(u.terms))
    if name == "minus sigma":
        return lambda u: -conjugate_derivation(frame, u)
    if name == "stored through 2":
        h = GnElem(n, g.form, g.t, g.tau, g.s, g.f.truncate(2),
                   [e.truncate(2) for e in g.e])
        return lambda u: act(h, u)
    assert name == "right through 2"
    # g's action on derivations of degree <= 2; above, the frame map's alone
    return lambda u: (act(g, u) if max((sum(a) for a, _ in u.terms), default=0)
                      <= 2 else conjugate_derivation(frame, u))


class TestFaultyBoxes:
    """The corpus of faulty black boxes: what ``decompose`` makes of each,
    at ranks 2-4 and orders 1, 2, 4 and 8.  A change to the checks that
    changes any of these outcomes is recorded."""

    OUTCOMES = {
        "g": None,  # accepted, and taken for g itself through the order
        "L": (DomainError, "action is not linear on generators"),
        "B": (DomainError, "action does not respect brackets on generators"),
        "T": (TruncationError, "need series coefficients through degree 3, "
                               "stored through 2"),
        "P": (DomainError, "the decomposition does not reproduce the action "
                           "on the probe 1/6*x3^3*d4"),
    }

    # Per box, the outcomes at orders 1, 2, 4, 8 for ranks 2, 3 and 4.  A
    # box wrong only on x1^2 d3 (rank 3) or x1^2 d4 (rank 4) gets through:
    # the spot check's pairs and the probes never ask it.
    CORPUS = {
        "one basis element": ("gBBB", "gBgg", "gggg"),
        "twice": ("BBBB", "BBBB", "BBBB"),
        "negated": ("BBBB", "BBBB", "BBBB"),
        "nonlinear": ("LLLL", "LLLL", "LLLL"),
        "minus sigma": ("BBBB", "BBBB", "BBBB"),
        "stored through 2": ("ggTT", "ggTT", "ggTT"),
        "right through 2": ("ggLL", "ggBB", "ggPP"),
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("box", CORPUS)
    def test_each_box_gets_its_recorded_outcome(self, box, n):
        g = rand_gn(random.Random(f"faulty:{n}"), n, "A")
        for order, code in zip((1, 2, 4, 8), self.CORPUS[box][n - 2]):
            got = outcome(decompose, AutoAction(n, faulty_box(box, g)), order)
            if isinstance(got, GnElem):
                assert code == "g" and got.agrees_with(g), (order, got)
            else:
                assert got == self.OUTCOMES[code], order


class TestBlackBoxRefusals:
    def test_a_probe_of_another_rank(self):
        with pytest.raises(DomainError) as info:
            AutoAction(3, lambda u: u)(LieElem.d(2, 1))
        assert str(info.value) == "probe has rank 2, action has rank 3"

    @pytest.mark.parametrize("value", [LieElem.d(3, 1), "d1", None],
                             ids=["another rank", "text", "None"])
    def test_a_foreign_value_from_the_evaluator(self, value):
        with pytest.raises(DomainError) as info:
            AutoAction(2, lambda u: value)(LieElem.d(2, 1))
        assert str(info.value) == "action evaluator returned a foreign value"

    def test_composing_actions_of_different_ranks(self):
        with pytest.raises(DomainError) as info:
            AutoAction.composed(AutoAction(2, lambda u: u),
                                AutoAction(3, lambda u: u))
        assert str(info.value) == "composing actions of different ranks"

    @pytest.mark.parametrize("forms", ["AB", "BA", "AA"])
    def test_the_multiplication_formula_needs_form_b(self, forms):
        with pytest.raises(DomainError) as info:
            multiply_formula(*(GnElem.identity(2, form) for form in forms))
        assert str(info.value) == "the multiplication formula needs Form B inputs"

    def test_the_multiplication_formula_of_mixed_ranks(self):
        with pytest.raises(DomainError) as info:
            multiply_formula(GnElem.identity(2, "B"), GnElem.identity(3, "B"))
        assert str(info.value) == "mixed ranks: 2 vs 3"


class TestConvertForm:
    def test_round_trip_exact(self):
        g = gn(3, t=[2, 1, 3], tau=TriAut([Poly.zero(3), x(1) ** 2, x(1) * x(2)]),
               s=[Fraction(1, 2)], f=OpSeries("F", 2, None, {2: 1}),
               e=[OpSeries("E", 1, None, {1: 2})])
        b = convert_form(g, "B")
        assert b.form == "B" and b.s is None
        assert convert_form(b, "A") == g

    def test_linear_term_truncates(self):
        g = gn(2, f=OpSeries("F", 1, None, {1: 1}))
        b = convert_form(g, "B", order=6)
        assert b.f.order == 6
        back = convert_form(b, "A", order=6)
        assert back.f.agrees_with(g.f, 6)

    # Form A's f is exp(c*D) f_B, and Form B keeps the shift of x_{n-1}
    # by c in tau: at rank 2 that is the constant term of tau's x1 part.

    def test_pinned_split(self):
        rest = OpSeries("FP", 1, 6, {2: Fraction(1, 2)})
        g = gn(2, f=OpSeries.exp_shift(1, 3, 6).mul(rest))
        b = convert_form(g, "B")
        assert b.f == rest
        assert b.tau.a[0] == Poly.const(2, 3)
        assert convert_form(b, "A") == g

    def test_no_linear_term_means_no_shift(self):
        # nothing is infinite, so no order cuts f, in either direction
        g = gn(2, f=OpSeries("F", 1, None, {2: 5}))
        b = convert_form(g, "B", order=4)
        assert b.f == OpSeries("FP", 1, None, {2: 5})
        assert b.tau.is_identity()
        assert convert_form(b, "A", order=4) == g

    def test_exact_split_with_shift_goes_through_the_order(self):
        g = gn(2, f=OpSeries("F", 1, None, {1: 1}))
        assert convert_form(g, "B").f.order == DEFAULT_ORDER
        b = convert_form(g, "B", order=8)
        assert b.f.order == 8 and b.tau.a[0] == Poly.const(2, 1)
        assert OpSeries.exp_shift(1, 1, 8).mul(b.f).agrees_with(g.f, 8)
        back = convert_form(b, "A")
        assert back.f.order == 8 and back.agrees_with(g, 8)

    def test_a_shift_past_the_stored_order_is_not_guessed(self):
        # f through order 0 does not know its linear term, the shift c
        g = gn(2, f=OpSeries("F", 1, 0))
        with pytest.raises(TruncationError) as info:
            convert_form(g, "B")
        assert (info.value.required, info.value.available) == (1, 0)
        assert convert_form(gn(2, f=OpSeries("F", 1, 1)), "B").tau.is_identity()

    @given(st.integers(-3, 3), unit_series(kind="FP"),
           st.lists(rationals(span=3, nonzero=True), min_size=2, max_size=2))
    def test_round_trip(self, shift, rest, t):
        g = gn(2, t=t, f=OpSeries.exp_shift(1, shift, 6).mul(rest))
        b = convert_form(g, "B")
        assert b.f.agrees_with(rest, 6)
        assert convert_form(b, "A") == g


GN_ELEMS = {(n, form, order): gn_elems(n, form, order)
            for n in (2, 3, 4) for form in "AB" for order in (None, 6)}


class TestGroupOperations:
    def small_pair(self):
        g = GnElem(3, "B", [2, 1, 1], TriAut([Poly.zero(3), x(1) ** 2, Poly.zero(3)]),
                   None, OpSeries("FP", 2, 8, {2: Fraction(1, 2)}),
                   [OpSeries("E", 1, 8, {1: 1})])
        h = GnElem(3, "B", [1, 3, 2], TriAut([Poly.zero(3), Poly.zero(3),
                                              x(1) * x(2)]),
                   None, OpSeries("FP", 2, 8, {3: 1}), [OpSeries.zero_e(1, 8)])
        return g, h

    def test_product_matches_composition(self):
        g, h = self.small_pair()
        prod = multiply_formula(g, h)
        assert same_action(prod, lambda u: act(g, act(h, u)), 3)

    def test_inverse(self):
        g, _ = self.small_pair()
        ginv = gn_inverse(g)
        assert multiply_formula(g, ginv).agrees_with(GnElem.identity(3, "B"), 8)
        for u in standard_generators(3, 4):
            assert act(ginv, act(g, u)) == u

    @pytest.mark.parametrize("order", [None, 6])
    @pytest.mark.parametrize("form", ["A", "B"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_product_and_inverse_match_the_oracles(self, n, form, order, data):
        elems = GN_ELEMS[n, form, order]
        g, h = data.draw(elems), data.draw(elems)
        inv_order = data.draw(st.sampled_from([None, 5, 8]))
        assert outcome(gn_inverse, g, inv_order) == \
            outcome(inverse_by_pure_factors, g, inv_order)
        gb, hb = convert_form(g, "B", 6), convert_form(h, "B", 6)
        # g's series stored through 1 fall short of h's translation parts
        # of degree 2 in x_{n-1} or x_{i-1}, and both sides must say so.
        low = data.draw(st.sampled_from([None, 1]))
        gb = GnElem(n, "B", gb.t, gb.tau, None, gb.f.truncate(low),
                    [series.truncate(low) for series in gb.e])
        assert outcome(multiply_formula, gb, hb) == \
            outcome(product_by_derivation_correction, gb, hb)

    def test_multiplication_needs_form_b(self):
        with pytest.raises(DomainError):
            multiply_formula(gn(3), gn(3))
