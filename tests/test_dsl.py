"""Text and JSON front end: parsing, printing, error spans."""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (exponent_tuples, gn_elems, lie_elems, ordinals, polys,
                      rationals, unipotent_auts, unit_series)
from triderive import (DegreeCapError, DomainError, GnElem, LieElem,
                       OpSeries, ParseError, Poly, SemanticError, TriAut,
                       gnelem_from_json, gnelem_to_json, parse, print_value)
from triderive.dsl import (parse_gnelem, parse_lie, parse_ordinal, parse_poly,
                           parse_series, parse_triaut)
from triderive.ordinals import OrdinalCNF
from triderive.poly import rat_str

OVER_THE_LIMIT = "^term would reach total degree 70000, over the cap 65534$"


@st.composite
def term_sums(draw, keys):
    """Terms on two or three distinct keys, so that keys repeat, some
    coefficients are 0 and some terms come back later negated."""
    pool = draw(st.lists(keys, min_size=2, max_size=3, unique=True))
    terms = draw(st.lists(st.tuples(rationals(span=3), st.sampled_from(pool)),
                          max_size=8))
    negated = draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    return terms + [(-c, key) for c, key in negated]


class TestPolyText:
    def test_round_trip(self):
        p = Poly.var(3, 1) ** 2 - Poly.var(3, 2).scale(Fraction(1, 3))
        assert parse_poly(print_value(p), 3) == p

    def test_examples(self):
        assert parse_poly("0", 2) == Poly.zero(2)
        assert parse_poly("3/2", 1) == Poly.const(1, Fraction(3, 2))
        assert parse_poly("x1*x2^2 - x1", 2) == (
            Poly.monomial(2, (1, 2)) - Poly.var(2, 1))

    def test_rank_inference(self):
        assert parse_poly("x3 + 1").nvars == 3

    def test_variable_beyond_rank(self):
        with pytest.raises(SemanticError):
            parse_poly("x3", 2)

    def test_zero_denominator_in_any_spelling(self):
        for text in ("1/0", "1/00"):
            with pytest.raises(SemanticError):
                parse_poly(text, 1)

    def test_only_ascii_digits(self):
        for text in ("x1^²", "٣*x1"):
            with pytest.raises(ParseError):
                parse_poly(text, 1)

    def test_like_terms_sum_and_cancel(self):
        x1, x2 = Poly.var(2, 1), Poly.var(2, 2)
        assert parse_poly("x1 - x2^2 + 2*x1 + 1/2 - 3*x1 + x2^2 + x2 - 1/2") \
            == x2
        assert parse_poly("x1 + x2 + x1") == x1.scale(2) + x2

    @pytest.mark.parametrize("text", ["x1^70000 - x1^70000", "0*x1^70000",
                                      "x1 + x1^70000 + x2^70001"])
    def test_every_term_is_checked_before_the_sum(self, text):
        with pytest.raises(DegreeCapError, match=OVER_THE_LIMIT):
            parse_poly(text)

    def test_parse_error_span(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + + x2", 2)
        assert info.value.start == 5
        assert "at 5..6" in str(info.value)


class TestLieText:
    def test_round_trip(self):
        u = LieElem.basis(3, (2,), 2, Fraction(-1, 2)) + LieElem.d(3, 1)
        assert parse_lie(print_value(u), 3) == u

    def test_examples(self):
        assert parse_lie("d2", 2) == LieElem.d(2, 2)
        assert parse_lie("2*x1^3*d2 - d1", 2) == (
            LieElem.basis(2, (3,), 2, 2) + LieElem.d(2, 1).scale(-1))

    def test_zero(self):
        assert parse_lie("0", 3) == LieElem.zero(3)
        assert parse_lie("0 - d1", 2) == LieElem.d(2, 1).scale(-1)
        for text in ("1", "x1", "0*x1", "d1 + 2"):
            with pytest.raises(ParseError):
                parse_lie(text, 2)

    def test_coefficient_ring_enforced(self):
        with pytest.raises(SemanticError) as info:
            parse_lie("x2*d2", 3)
        assert "may only use x1" in info.value.reason

    def test_d1_coefficient_must_be_constant(self):
        with pytest.raises(SemanticError) as info:
            parse_lie("x1*d1", 2)
        assert "must be constant" in info.value.reason

    @pytest.mark.parametrize("text", ["x1^70000*d2 - x1^70000*d2",
                                      "0*x1^70000*d2", "x1*d2 + x1^70000*d2"])
    def test_every_term_is_checked_before_the_sum(self, text):
        with pytest.raises(DegreeCapError, match=OVER_THE_LIMIT):
            parse_lie(text)

    @pytest.mark.parametrize("text, n, error, reason", [
        ("x1^70000*d3", 2, SemanticError, "d3 exceeds rank 2"),
        ("x2^70000*d2", None, SemanticError,
         "coefficient of d2 may only use x1..x1"),
        # term by term in text order: the limit of the first term is
        # met before the coefficient ring of the second
        ("x1^70000*d2 + x2*d2", None, DegreeCapError, OVER_THE_LIMIT[1:-1]),
    ])
    def test_each_term_checks_rank_then_ring_then_limit(self, text, n, error,
                                                         reason):
        with pytest.raises(error) as info:
            parse_lie(text, n)
        assert str(info.value).startswith(reason)

    @pytest.mark.parametrize("text, span", [
        ("x1 + d2", (0, 3)), ("d2 - 2*x1 + d1", (3, 10)), ("d2 - x1", (3, 7)),
        ("x1^70000*d2 + x1", (12, 16)), ("x1 + + d2", (0, 3)),
    ])
    def test_missing_d_part_span(self, text, span):
        """From the term's start, its sign included, to the next token;
        reported while reading, before a later syntax error and before
        any term's limit."""
        with pytest.raises(ParseError, match="^term is missing its d-part") \
                as info:
            parse_lie(text)
        assert (info.value.start, info.value.end) == span


class TestTermReader:
    """Polynomial and derivation text share one term reader: errors met
    while reading come first, each term is checked after the whole text is
    read, and the checked terms are summed once, as the constructors sum
    them."""

    @pytest.mark.parametrize("parse_text, text, span", [
        (parse_poly, "x1^70000 + + x2", (11, 12)),
        (parse_lie, "x1^70000*d2 + + d1", (14, 15)),
    ])
    def test_a_syntax_error_comes_before_the_limit(self, parse_text, text,
                                                   span):
        with pytest.raises(ParseError) as info:
            parse_text(text)
        assert (info.value.start, info.value.end) == span

    @staticmethod
    def text_of(terms):
        """(coefficient, exponents, d-index or None) terms as text, in
        order, each as drawn."""
        out = []
        for coeff, exps, i in terms:
            factors = [rat_str(abs(coeff))]
            factors += [f"x{k}^{e}" for k, e in enumerate(exps, 1) if e]
            if i is not None:
                factors.append(f"d{i}")
            out.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
        return " ".join(out) or "0"

    @staticmethod
    def first_touch_sum(items):
        """Like keys summed in the order first met; a key that sums to 0
        is dropped and, met again, comes last."""
        acc = {}
        for key, c in items:
            total = acc.get(key, 0) + c
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return acc

    @staticmethod
    def assert_same_layout(parsed, built):
        assert parsed == built
        assert parsed._den == built._den
        assert list(parsed._nums.items()) == list(built._nums.items())
        assert list(parsed.terms.items()) == list(built.terms.items())

    @given(term_sums(exponent_tuples(3)))
    def test_poly_layout_is_the_constructors(self, terms):
        text = self.text_of([(c, e, None) for c, e in terms])
        built = Poly(3, self.first_touch_sum((e, c) for c, e in terms))
        self.assert_same_layout(parse_poly(text, 3), built)

    @given(term_sums(st.integers(1, 3).flatmap(
        lambda i: exponent_tuples(i - 1).map(lambda a: (a, i)))))
    def test_lie_layout_is_the_constructors(self, terms):
        text = self.text_of([(c, a, i) for c, (a, i) in terms])
        built = LieElem(3, self.first_touch_sum((k, c) for c, k in terms))
        self.assert_same_layout(parse_lie(text, 3), built)


class TestTriAutText:
    def test_round_trip(self):
        sigma = TriAut([Poly.zero(2), Poly.var(2, 1) ** 2], [1, 2])
        assert parse_triaut(print_value(sigma), 2) == sigma

    def test_unipotent_form(self):
        assert parse_triaut("[0, x1^2]") == TriAut(
            [Poly.zero(2), Poly.var(2, 1) ** 2])

    def test_zero_scale_rejected(self):
        with pytest.raises(SemanticError):
            parse_triaut("[0, 0 ; 1, 0]")

    def test_triangularity_enforced(self):
        with pytest.raises(SemanticError):
            parse_triaut("[x2, 0]")


class TestOrdinalText:
    def test_round_trip(self):
        a = OrdinalCNF({2: 1, 1: 3, 0: 4})
        assert parse_ordinal(print_value(a)) == a

    def test_examples(self):
        assert parse_ordinal("0").is_zero()
        assert parse_ordinal("w^2*3 + w*1 + 4") == OrdinalCNF({2: 3, 1: 1, 0: 4})
        assert parse_ordinal("w") == OrdinalCNF({1: 1})

    @pytest.mark.parametrize("text, canonical", [
        ("1 + w", "w"),
        ("w + w^2*3 + 2", "w^2*3 + 2"),
        ("w*1 + w*2", "w*3"),
        ("w*0 + 5", "5"),
        ("w^2 + 0 + w", "w^2 + w"),
    ])
    def test_terms_add_as_ordinals(self, text, canonical):
        """A term w^e*c with c > 0 absorbs every earlier term of lower
        exponent, as 1 + w = w; zero terms absorb nothing."""
        assert parse_ordinal(text) == parse_ordinal(canonical)

    def test_w0_rejected(self):
        with pytest.raises(SemanticError):
            parse_ordinal("w^0")

    def test_dangling_star(self):
        with pytest.raises(ParseError):
            parse_ordinal("w*")


class TestSeriesText:
    def test_round_trip(self):
        s = OpSeries("F", 1, 6, {1: Fraction(1, 2), 3: 2})
        assert parse_series(print_value(s), "F", 1, 6) == s

    def test_examples(self):
        assert parse_series("1 + 1/2*D^2", "F", 2, 4) == OpSeries(
            "F", 2, 4, {2: Fraction(1, 2)})
        assert parse_series("D - D^3", "E", 1, None) == OpSeries(
            "E", 1, None, {1: 1, 3: -1})

    def test_constant_term_checked(self):
        with pytest.raises(SemanticError):
            parse_series("2 + D", "F", 1, 4)
        with pytest.raises(SemanticError):
            parse_series("1 + D", "E", 1, 4)
        with pytest.raises(SemanticError):
            parse_series("1 + 1 + D", "F", 1, 4)

    @pytest.mark.parametrize("text, poly_text, coeffs", [
        ("1 + D*2", "1 + x1*2", {1: 2}),
        ("1 + 2*D*D", "1 + 2*x1*x1", {2: 2}),
        ("1 + D^2*3", "1 + x1^2*3", {2: 3}),
        ("1 + 2*3*D", "1 + 2*3*x1", {1: 6}),
    ])
    def test_terms_follow_the_polynomial_grammar(self, text, poly_text, coeffs):
        assert parse_series(text, "F", 1, 4) == OpSeries("F", 1, 4, coeffs)
        assert parse_poly(poly_text) == Poly(1, {(0,): 1} | {
            (deg,): c for deg, c in coeffs.items()})

    @pytest.mark.parametrize("text", ["1 + D2", "1 + x1", "1 + D D", "1 +", ""])
    def test_malformed_series_rejected(self, text):
        with pytest.raises(ParseError):
            parse_series(text, "F", 1, 4)


class TestPrinterRoundTrip:
    """One term printer serves polynomials, derivations, maps and series:
    what it prints parses back to the value, and prints the same again."""

    @staticmethod
    def assert_round_trip(value, parse_text):
        text = print_value(value)
        back = parse_text(text)
        assert back == value
        assert print_value(back) == text

    @given(polys(3))
    def test_polys(self, p):
        self.assert_round_trip(p, lambda text: parse_poly(text, 3))

    @given(lie_elems(3))
    def test_lie_elems(self, u):
        self.assert_round_trip(u, lambda text: parse_lie(text, 3))

    @given(unipotent_auts(3))
    def test_unipotent_auts(self, sigma):
        self.assert_round_trip(sigma, lambda text: parse_triaut(text, 3))

    @given(st.sampled_from(["F", "FP", "E"]).flatmap(
        lambda kind: unit_series(kind=kind)))
    def test_series(self, s):
        self.assert_round_trip(
            s, lambda text: parse_series(text, s.kind, s.var, s.order))

    @given(ordinals())
    def test_ordinals(self, o):
        self.assert_round_trip(o, lambda text: parse("ordinal", text))

    @pytest.mark.parametrize("kind, text", [
        ("poly", "-x1^2 + x2"),
        ("poly", "-x1 - x2 + 1"),
        ("poly", "-3/2"),
        ("poly", "1"),
        ("poly", "0"),
        ("lie", "-d4"),
        ("lie", "-d1 - 1/2*x1*x3^2*d4"),
        ("lie", "0"),
        ("lie", "x1*d2 - 2*d2"),
        ("triaut", "[-1, -x1 ; -1, 2/3]"),
        ("series-F", "1 - D + 1/2*D^3"),
        ("series-E", "-D + 1/2*D^3"),
        ("series-E", "-7/2*D^2"),
        ("series-E", "0"),
    ])
    def test_pinned_signs_and_magnitudes(self, kind, text):
        if kind.startswith("series-"):
            value = parse_series(text, kind[len("series-"):], 1, 6)
        else:
            value = parse(kind, text)
        assert print_value(value) == text


class TestGnElemJson:
    def payload(self):
        return {
            "n": 3, "form": "A", "t": ["2", "-1/3", "3"],
            "tau": {"a": ["0", "x1^2", "x1*x2"], "lambda": ["1", "1", "1"]},
            "s": ["-7/2"],
            "f": {"order": 6, "coeffs": {"1": "1/2", "2": "-5"}},
            "e": [{"i": 2, "order": 6, "coeffs": {"2": "1"}}],
        }

    def test_round_trip(self):
        g = gnelem_from_json(self.payload())
        printed = gnelem_to_json(g)
        assert gnelem_from_json(printed) == g
        assert gnelem_to_json(gnelem_from_json(printed)) == printed
        assert parse_gnelem(print_value(g)) == g

    @pytest.mark.parametrize("form", ["A", "B"])
    @given(data=st.data())
    def test_round_trip_drawn(self, form, data):
        n = data.draw(st.integers(2, 4), label="n")
        order = data.draw(st.sampled_from([None, 6]), label="order")
        g = data.draw(gn_elems(n, form, order))
        assert gnelem_from_json(gnelem_to_json(g)) == g
        assert parse_gnelem(print_value(g)) == g

    def test_missing_field(self):
        data = self.payload()
        del data["f"]
        with pytest.raises(DomainError):
            gnelem_from_json(data)

    def test_bad_json_has_span(self):
        with pytest.raises(ParseError) as info:
            parse_gnelem("{not json")
        assert info.value.end == info.value.start + 1

    def test_floats_rejected(self):
        data = self.payload()
        data["t"] = [1.5, "1", "1"]
        with pytest.raises(DomainError):
            gnelem_from_json(data)

    @pytest.mark.parametrize("value", [
        True, False, None, "1.5", "1e3", "0x10", "1/0", "1/00", "1/-2",
        "--1", "", "1/", "inf", "nan", "½", "²", "٣", " 5 / 6 "])
    def test_rationals_outside_the_grammar_rejected(self, value):
        for field in ("t", "s", "tau.lambda", "f"):
            data = self.payload()
            if field == "t":
                data["t"] = [value, "1", "1"]
            elif field == "s":
                data["s"] = [value]
            elif field == "tau.lambda":
                data["tau"]["lambda"] = ["1", value, "1"]
            else:
                data["f"]["coeffs"] = {"1": value}
            with pytest.raises(DomainError) as info:
                gnelem_from_json(data)
            assert str(info.value).startswith(f"{field}: ")

    def test_rationals_of_the_grammar_accepted(self):
        data = self.payload()
        data["t"] = [2, "-3/4", "5/6"]
        data["s"] = ["+7"]
        g = gnelem_from_json(data)
        assert g.t == (2, Fraction(-3, 4), Fraction(5, 6))
        assert g.s == (7,)

    def test_feed_series_indices_checked(self):
        data = self.payload()
        data["e"] = [{"i": 5, "order": 6, "coeffs": {}}]
        with pytest.raises(DomainError):
            gnelem_from_json(data)


class TestDispatcher:
    def test_kinds(self):
        assert parse("poly", "x1", n=2) == Poly.var(2, 1)
        assert parse("ordinal", "3") == OrdinalCNF({0: 3})
        blob = json.dumps(gnelem_to_json(GnElem.identity(2)))
        assert parse("gnelem-json", blob) == GnElem.identity(2)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            parse("matrix", "x1")

    def test_print_value_rejects_foreign_types(self):
        with pytest.raises(DomainError):
            print_value(3.14)
