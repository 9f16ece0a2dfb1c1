"""Text and JSON interchange for every value the library computes with.

Grammar (whitespace insignificant, no implicit multiplication):

    rational  := INT | INT "/" POSINT
    monomial  := factor ("*" factor)*          factor := rational | "x"INT["^"INT]
    poly      := ["+"|"-"] monomial (("+"|"-") monomial)*
    lie term  := [monomial "*"] "d"INT | "0"   summed like poly terms
    triaut    := "[" poly ("," poly)* [";" rational ("," rational)*] "]"
    ordinal   := ("w"["^"INT]["*"INT] | INT) joined by "+"
    series    := like poly but in the single symbol "D" (no index)

Parsers report syntax errors (ParseError) and meaning errors such as a
d2 coefficient using x2 (SemanticError) with byte spans into the input.
Group elements travel as JSON; rationals inside JSON are "p/q" strings.

Polynomial, derivation and series text is a signed sum of terms, read
by ``_read_terms`` and checked in one order.  While reading, in text
order: syntax, a variable over the rank, a derivation term missing its
d-part.  Then term by term: a derivation's index against the rank, then
its coefficient ring; a polynomial's or derivation's degree against the
key limit, even if the term cancels or its coefficient is 0.  Then one
sum, whose constant term a series checks.

Printing is canonical: descending graded-lex for polynomials, descending
basis order for derivations, ascending degree for series.  For every
value, parse(print(v)) == v.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import DomainError, ParseError, SemanticError
from .lie import LieElem, _new as _new_lie, _tag, format_lie
from .ordinals import OrdinalCNF, format_ordinal
from .poly import (Poly, _add_terms, _check_limit, _new as _new_poly,
                   _over_lcm, _pack, format_poly, rat, rat_str)


# -- tokens and terms ------------------------------------------------------------


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end


_SYMBOLS = {"+", "-", "*", "/", "^", "[", "]", ";", ","}
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _DIGITS:
            end = pos
            while end < length and text[end] in _DIGITS:
                end += 1
            tokens.append(_Token("int", text[pos:end], pos, end))
            pos = end
            continue
        if ch.isalpha():
            end = pos + 1
            while end < length and text[end] in _DIGITS:
                end += 1
            tokens.append(_Token("name", text[pos:end], pos, end))
            pos = end
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, pos, pos + 1))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos, pos + 1)
    tokens.append(_Token("end", "", length, length))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(what)
        return self.next()

    def fail(self, what: str) -> ParseError:
        tok = self.peek()
        found = tok.text or "end of input"
        return ParseError(f"expected {what}, found {found!r}", tok.start, tok.end)

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.start, tok.end)

    # -- shared pieces -----------------------------------------------------

    def sign(self) -> int:
        tok = self.peek()
        if tok.kind == "+":
            self.next()
            return 1
        if tok.kind == "-":
            self.next()
            return -1
        return 1

    def rational(self) -> Fraction:
        num = self.expect("int", "a number")
        if self.peek().kind == "/":
            self.next()
            den = self.expect("int", "a denominator")
            if not int(den.text):
                raise SemanticError("zero denominator", den.start, den.end)
            return Fraction(int(num.text), int(den.text))
        return Fraction(int(num.text))

    def indexed_name(self, letter: str, noun: str) -> tuple[int, _Token]:
        tok = self.expect("name", f"a {noun}")
        if not tok.text.startswith(letter) or len(tok.text) < 2:
            raise ParseError(f"expected a {noun}, found {tok.text!r}",
                             tok.start, tok.end)
        index = int(tok.text[1:])
        if index < 1:
            raise SemanticError(f"{noun} indices start at 1", tok.start, tok.end)
        return index, tok

    def caret_int(self) -> int:
        self.expect("^", "'^'")
        tok = self.expect("int", "an exponent")
        return int(tok.text)


def _read_terms(text: str, what: str, max_index: int | None = None,
                symbol: str = "x"
                ) -> list[tuple[Fraction, dict[int, int],
                                tuple[int, _Token] | None, int]]:
    """Read ["+"|"-"] term (("+"|"-") term)*: each term a product of
    rationals and variables x1, x2, ... (or with symbol "D" the one D, as
    index 1), for "a derivation" closed by its d-part "d"INT or a bare
    zero, which is skipped.  Returns in text order each term's signed
    coefficient, {index: exp}, d-part (index and token, or None) and
    start offset, that of its sign if any."""
    p = _Parser(text)
    derivation = what == "a derivation"
    terms = []
    tok = p.peek()
    if tok.kind == "end":
        raise p.fail(what)
    while tok.kind != "end":
        coeff = Fraction(p.sign())
        exps: dict[int, int] = {}
        d_part = None
        while True:
            factor = p.peek()
            if factor.kind == "int":
                coeff *= p.rational()
            elif factor.kind == "name" and factor.text[0] == symbol:
                if symbol == "D":
                    if factor.text != "D":
                        raise p.fail("a factor")
                    p.next()
                    index = 1
                else:
                    index, name_tok = p.indexed_name("x", "variable")
                    if max_index is not None and index > max_index:
                        raise SemanticError(
                            f"variable x{index} exceeds rank {max_index}",
                            name_tok.start, name_tok.end)
                power = p.caret_int() if p.peek().kind == "^" else 1
                exps[index] = exps.get(index, 0) + power
            elif derivation and factor.kind == "name" and factor.text[0] == "d":
                d_part = p.indexed_name("d", "derivation")
                break
            else:
                raise p.fail("a factor")
            if p.peek().kind != "*":
                break
            p.next()
        if d_part is not None or not derivation:
            terms.append((coeff, exps, d_part, tok.start))
        elif coeff or exps:
            raise ParseError("term is missing its d-part", tok.start,
                             p.peek().start)
        tok = p.peek()
        if tok.kind not in ("+", "-", "end"):
            raise p.fail("'+' or '-'")
    return terms


# -- polynomials -------------------------------------------------------------------


def parse_poly(text: str, n: int | None = None) -> Poly:
    """Parse a polynomial; the ring size is n or the largest index seen."""
    terms = _read_terms(text, "a polynomial", n)
    nvars = n if n is not None else max(
        (max(e) for _, e, _, _ in terms if e), default=0)
    for _, exps, _, _ in terms:
        _check_limit(sum(exps.values()), "term")
    keyed = [(_pack([e.get(i, 0) for i in range(1, nvars + 1)]), c)
             for c, e, _, _ in terms if c]
    if nvars < 0:
        raise DomainError("nvars must be nonnegative")
    return _new_poly(nvars, *_over_lcm(_add_terms({}, keyed)))


# -- derivations ---------------------------------------------------------------------


def parse_lie(text: str, n: int | None = None) -> LieElem:
    """Parse a sum of derivation terms like "2*x1^2*d2 - d1"."""
    terms = _read_terms(text, "a derivation", n)
    rank = n if n is not None else max(
        [2] + [max(d[0], max(e, default=0) + 1) for _, e, d, _ in terms])
    for _, exps, (index, d_tok), start in terms:
        if index > rank:
            raise SemanticError(f"d{index} exceeds rank {rank}", start, d_tok.end)
        if exps and max(exps) >= index:
            reason = ("coefficient of d1 must be constant" if index == 1 else
                      f"coefficient of d{index} may only use x1..x{index - 1}")
            raise SemanticError(reason, start, d_tok.end)
        _check_limit(sum(exps.values()), "term")
    keyed = [(_pack([e.get(i, 0) for i in range(1, j)]) + _tag(rank, j), c)
             for c, e, (j, _), _ in terms if c]
    if rank < 2:
        raise DomainError("rank must be at least 2")
    return _new_lie(rank, *_over_lcm(_add_terms({}, keyed)))


# -- triangular automorphisms ----------------------------------------------------------


def parse_triaut(text: str, n: int | None = None) -> TriAut:
    """Parse "[a1, ..., an ; l1, ..., ln]" (the scale block optional)."""
    from .triaut import TriAut
    p = _Parser(text)
    p.expect("[", "'['")
    # First pass: slice out the comma-separated chunks so each polynomial
    # can be parsed with the final rank in hand.
    entries: list[tuple[int, int]] = []
    start = p.peek().start
    scales: list[Fraction] | None = None
    while True:
        tok = p.peek()
        if tok.kind == "end":
            raise p.fail("']'")
        if tok.kind in (",", ";", "]"):
            entries.append((start, tok.start))
            p.next()
            if tok.kind == ",":
                start = p.peek().start
                continue
            if tok.kind == ";":
                scales = []
                while True:
                    sgn = p.sign()
                    scales.append(p.rational() * sgn)
                    nxt = p.peek()
                    if nxt.kind == ",":
                        p.next()
                        continue
                    p.expect("]", "']'")
                    break
            break
        p.next()
    p.done()
    rank = len(entries)
    if n is not None and n != rank:
        raise SemanticError(f"expected rank {n}, found {rank} entries",
                            0, len(text))
    if scales is not None and len(scales) != rank:
        raise SemanticError(f"need {rank} scales, found {len(scales)}",
                            0, len(text))
    parts = []
    for i, (s, e) in enumerate(entries, start=1):
        chunk = text[s:e]
        if not chunk.strip():
            raise ParseError("empty entry", s, max(e, s + 1))
        try:
            poly = parse_poly(chunk, rank)
        except (ParseError, SemanticError) as exc:
            raise type(exc)(exc.reason, s + exc.start, s + exc.end)
        if not poly.uses_only(i - 1):
            raise SemanticError(
                f"translation part of x{i} may only use x1..x{i - 1}", s, e)
        parts.append(poly)
    for c in scales or []:
        if not c:
            raise SemanticError("scales must be nonzero", 0, len(text))
    return TriAut(parts, scales)


# -- ordinals ----------------------------------------------------------------------------


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse "w^2*3 + w*1 + 4" style ordinal text; "0" is the zero ordinal.
    Terms add as ordinals do: a nonzero term absorbs every lower one before
    it, so "1 + w" is w."""
    p = _Parser(text)
    coeffs: dict[int, int] = {}
    first = True
    while True:
        tok = p.peek()
        if tok.kind == "end":
            if first:
                raise p.fail("an ordinal")
            break
        if not first and tok.kind != "+":
            raise p.fail("'+'")
        if not first:
            p.next()
        tok = p.peek()
        if tok.kind == "int":
            exp, coeff = 0, int(p.next().text)
        elif tok.kind == "name" and tok.text == "w":
            p.next()
            exp = 1
            if p.peek().kind == "^":
                exp = p.caret_int()
                if exp == 0:
                    raise SemanticError("write plain integers, not w^0",
                                        tok.start, tok.end)
            coeff = 1
            if p.peek().kind == "*":
                p.next()
                c_tok = p.expect("int", "a coefficient")
                coeff = int(c_tok.text)
        else:
            raise p.fail("'w' or an integer")
        if coeff:
            coeffs = {k: c for k, c in coeffs.items() if k >= exp}
        coeffs[exp] = coeffs.get(exp, 0) + coeff
        first = False
    p.done()
    return OrdinalCNF(coeffs)


# -- operator series ------------------------------------------------------------------------


def parse_series(text: str, kind: str = "F", var: int = 1,
                 order: int | None = None) -> OpSeries:
    """Parse series text in the symbol D; the kind fixes the constant term
    (1 for unit kinds, 0 for the no-constant kind) and is checked."""
    from .series import OpSeries
    terms = [(exps.get(1, 0), coeff) for coeff, exps, _, _
             in _read_terms(text, "a series", symbol="D")]
    sums = _add_terms({}, [(deg, c) for deg, c in terms if c])
    constant = sums.get(0, Fraction(0))
    expected = Fraction(0) if kind == "E" else Fraction(1)
    if constant != expected:
        raise SemanticError(
            f"series of kind {kind} must have constant term {expected}",
            0, len(text))
    # Every degree read, a cancelled one too, meets the order check.
    coeffs = {deg: sums.get(deg, 0) for deg, _ in terms if deg}
    try:
        return OpSeries(kind, var, order, coeffs)
    except DomainError as exc:
        raise SemanticError(str(exc), 0, len(text))


# -- group elements as JSON --------------------------------------------------------------------


def _rat_from_json(value: Any, what: str) -> Fraction:
    """A JSON rational: an integer, or a string that ``rat`` reads (an
    optional sign, digits, an optional nonzero "/" denominator, no
    spaces).  Booleans, floats, decimals and exponents are refused."""
    if isinstance(value, str):
        try:
            return rat(value)
        except DomainError as exc:
            raise DomainError(f"{what}: {exc}")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"{what}: rationals are written as strings")


def _list_from_json(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list")
    return value


def _series_from_json(obj: Any, kind: str, var: int, what: str) -> OpSeries:
    from .series import OpSeries
    if not isinstance(obj, dict):
        raise DomainError(f"{what}: expected an object")
    order = obj.get("order", "missing")
    if order == "missing":
        raise DomainError(f"{what}: missing order")
    if order is not None and (not isinstance(order, int) or isinstance(order, bool)):
        raise DomainError(f"{what}: order must be an integer or null")
    coeffs: dict[int, Fraction] = {}
    raw = obj.get("coeffs", {})
    if not isinstance(raw, dict):
        raise DomainError(f"{what}: coeffs must be an object")
    for key, val in raw.items():
        try:
            deg = int(key)
        except ValueError:
            deg = -1
        # Only the spelling gnelem_to_json prints: no sign, space, "_",
        # leading zero or non-ASCII digit, so no two keys name one degree.
        if deg < 0 or str(deg) != key:
            raise DomainError(f"{what}: bad degree {key!r}")
        coeffs[deg] = _rat_from_json(val, what)
    try:
        return OpSeries(kind, var, order, coeffs)
    except DomainError as exc:
        raise DomainError(f"{what}: {exc}")


def _series_to_json(s: OpSeries) -> dict[str, Any]:
    return {
        "order": s.order,
        "coeffs": {str(d): rat_str(c) for d, c in sorted(s.coeffs.items())},
    }


def gnelem_from_json(obj: Any) -> GnElem:
    """Build a group element from parsed JSON data."""
    from .autgroup import GnElem
    from .series import OpSeries
    from .triaut import TriAut
    if not isinstance(obj, dict):
        raise DomainError("group element JSON must be an object")
    for field in ("n", "form", "t", "tau", "f", "e"):
        if field not in obj:
            raise DomainError(f"missing field {field!r}")
    n = obj["n"]
    if not isinstance(n, int) or n < 2:
        raise DomainError("n must be an integer rank of at least 2")
    form = obj["form"]
    if form not in ("A", "B"):
        raise DomainError(f"unknown form {form!r}")
    t = [_rat_from_json(v, "t") for v in _list_from_json(obj["t"], "t")]
    tau_obj = obj["tau"]
    if not isinstance(tau_obj, dict) or "a" not in tau_obj:
        raise DomainError("tau must carry translation parts")
    a_texts = tau_obj["a"]
    if not isinstance(a_texts, list) or len(a_texts) != n:
        raise DomainError("tau needs n translation parts")
    parts = []
    for i, chunk in enumerate(a_texts, start=1):
        if not isinstance(chunk, str):
            raise DomainError(f"tau entry {i}: polynomials are written as strings")
        try:
            parts.append(parse_poly(chunk, n))
        except (ParseError, SemanticError) as exc:
            raise DomainError(f"tau entry {i}: {exc.reason}")
    lam = [_rat_from_json(v, "tau.lambda")
           for v in _list_from_json(tau_obj.get("lambda", [1] * n), "tau.lambda")]
    tau = TriAut(parts, lam)
    s = obj.get("s")
    if form == "A":
        if s is None:
            raise DomainError("Form A carries shift data")
        s = [_rat_from_json(v, "s") for v in _list_from_json(s, "s")]
    elif s is not None:
        raise DomainError("Form B has no shift field")
    f = _series_from_json(obj["f"], "F" if form == "A" else "FP", n - 1, "f")
    e_map: dict[int, OpSeries] = {}
    for entry in _list_from_json(obj["e"], "e"):
        if not isinstance(entry, dict) or "i" not in entry:
            raise DomainError("each feed series carries its target index i")
        i = entry["i"]
        if not isinstance(i, int) or not 2 <= i <= n - 1:
            raise DomainError(f"feed series index {i!r} out of range 2..{n - 1}")
        if i in e_map:
            raise DomainError(f"duplicate feed series for index {i}")
        e_map[i] = _series_from_json(entry, "E", i - 1, f"e[{i}]")
    e = [e_map.get(i, OpSeries.zero_e(i - 1)) for i in range(2, n)]
    return GnElem(n, form, t, tau, s, f, e)


def gnelem_to_json(g: GnElem) -> dict[str, Any]:
    """Plain-data form of a group element (inverse of gnelem_from_json)."""
    out: dict[str, Any] = {
        "n": g.n,
        "form": g.form,
        "t": [rat_str(c) for c in g.t],
        "tau": {
            "a": [format_poly(p) for p in g.tau.a],
            "lambda": [rat_str(c) for c in g.tau.lam],
        },
    }
    if g.s is not None:
        out["s"] = [rat_str(c) for c in g.s]
    out["f"] = _series_to_json(g.f)
    out["e"] = [{"i": k + 2, **_series_to_json(series)}
                for k, series in enumerate(g.e)]
    return out


def parse_gnelem(text: str) -> GnElem:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos, exc.pos + 1)
    try:
        return gnelem_from_json(obj)
    except DomainError as exc:
        raise SemanticError(str(exc), 0, len(text))


# -- entry points ------------------------------------------------------------------------------


def parse(kind: str, text: str, *, n: int | None = None):
    """Parse one value of the given kind from text; a series is read as
    an exact unit series (kind F) in D = d/dx1."""
    if kind == "poly":
        return parse_poly(text, n)
    if kind == "lie":
        return parse_lie(text, n)
    if kind == "triaut":
        return parse_triaut(text, n)
    if kind == "ordinal":
        return parse_ordinal(text)
    if kind == "series":
        return parse_series(text)
    if kind == "gnelem-json":
        return parse_gnelem(text)
    raise DomainError(f"unknown input kind {kind!r}")


def print_value(value: Any) -> str:
    """Canonical text for any library value."""
    if isinstance(value, Poly):
        return format_poly(value)
    if isinstance(value, LieElem):
        return format_lie(value)
    if isinstance(value, OrdinalCNF):
        return format_ordinal(value)
    if isinstance(value, Fraction):
        return rat_str(value)
    # Each module below is loaded already if value is of its kind.
    from .triaut import TriAut, format_triaut
    if isinstance(value, TriAut):
        return format_triaut(value)
    from .series import OpSeries, format_series
    if isinstance(value, OpSeries):
        return format_series(value)
    from .autgroup import GnElem
    if isinstance(value, GnElem):
        return json.dumps(gnelem_to_json(value), indent=2, sort_keys=False)
    raise DomainError(f"no canonical text for {type(value).__name__}")
