"""Exact sparse polynomials over the rationals.

Polynomials, and the triangular derivations of the lie module, store
exact rationals in one integer layout, that of FLINT's fmpq_poly:
``_nums`` maps keys to nonzero ints, ``_den`` is at least 1, and the
pair is kept in lowest terms, gcd(_den, *_nums) == 1, with ``_den == 1``
for zero.  The form is canonical, so equality and hashing compare it as
it is.  Every operation works on the integers and ends with at most one
gcd, skipped when the denominator is 1.  Fractions are built only where
a caller reads coefficients; ``terms`` is built on first read and kept.
Values are exact and never mutated after construction.  One class owns
the layout: ``_IntLayout``, the base of ``Poly`` and ``LieElem``, holds
its value semantics, next to the helpers that their operations and those
of ``OpSeries`` use.  A ``LieElem`` keeps its hash once computed, since
the memos of black-box actions hash every probe and image they see; a
``Poly`` hashes afresh and stays one slot smaller.  The other values of
the package take theirs from one key, through ``_Keyed``, which computes
the key once and keeps it.

A key is one packed int (Monagan and Pearce's packed exponent vectors):
the exponent of x_i sits in field i-1 of ``_W`` = 16 bits, x1 in the
lowest, so the product of two monomials is the sum of their keys.  No
key holds a total degree above ``_MAX_DEGREE`` = 2**16 - 2: then no
field carries into the next, and key % (2**16 - 1) is the total degree.
Construction refuses a term past that limit with DegreeCapError, and
every operation that forms keys checks its degree first.  ``terms``,
``coefficient`` and the constructors keep exponent tuples; ``_pack``
and ``_unpack`` convert between the two.

Products and substitutions multiply and add plain ints, every product
through the one sparse kernel ``_mul_into``, which conjugation and
derivations share.  A substitution takes every variable of a term
through a power of its image and puts the terms over the lcm of the
denominators of those powers, so every term lands on the same
denominator.  The powers are kept by the image set it is given: a
triangular automorphism holds one such set for its lifetime, so
repeated substitutions by the same map compute each power once, most
from the one below by a product with no gcd (see ``_Images``).  The
kernel ``_substitute_ints`` also serves conjugation, which substitutes
integer coefficients without building polynomials.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from .errors import DegreeCapError, DomainError

RatLike = Union[Fraction, int]
_K = TypeVar("_K")
_N = TypeVar("_N", int, Fraction)
_L = TypeVar("_L", bound="_IntLayout")

# Series truncation order when the inputs give none (autgroup, CLI).
DEFAULT_ORDER = 16

# Bits per exponent field of a packed key; a key holds total degree at
# most _MAX_DEGREE, so no field overflows and key % _FIELD is the degree.
_W = 16
_FIELD = (1 << _W) - 1
_MAX_DEGREE = _FIELD - 1


# A rational as text: optional sign, ASCII digits, optional "/" denominator.
_RAT_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(value: RatLike | str) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational.

    A string is an optional sign and ASCII digits, optionally followed by
    "/" and a nonzero denominator of ASCII digits; nothing else, not even
    surrounding spaces, is accepted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RAT_TEXT.fullmatch(value)
        if match is not None:
            num, den = match.groups()
            if den is None or int(den):
                return Fraction(int(num), int(den or 1))
    raise DomainError(f"not a rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Canonical text for a rational: bare integer or "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _check_limit(degree: int, context: str) -> None:
    """Refuse a degree over the key limit, the one bound on degrees: every
    operation checks it before it forms keys."""
    if degree > _MAX_DEGREE:
        raise DegreeCapError(f"{context} would reach total degree {degree}, "
                             f"over the cap {_MAX_DEGREE}", degree, _MAX_DEGREE)


def _pack(exps: Sequence[int]) -> int:
    """The key of an exponent sequence: x_i in field i-1."""
    key = 0
    for e in reversed(exps):
        key = key << _W | e
    return key


def _unpack(key: int, count: int) -> tuple[int, ...]:
    """The first ``count`` exponent fields of a key."""
    exps = []
    for _ in range(count):
        exps.append(key & _FIELD)
        key >>= _W
    return tuple(exps)


# -- the integer layout --------------------------------------------------------
#
# A value is a pair (den, nums) of a positive denominator and a dict of
# nonzero integer numerators, in lowest terms.


def _over_lcm(terms: Mapping[_K, Fraction]) -> tuple[int, dict[_K, int]]:
    """Nonzero Fractions in lowest terms as (den, nums) over the lcm of
    their denominators.  No gcd is needed: for each prime p of den, the
    term whose denominator holds the full power of p in den keeps a
    numerator prime to p."""
    if not terms:
        return 1, {}
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _lowest(den: int, nums: dict[_K, int]) -> tuple[int, dict[_K, int]]:
    """nums / den (no zero numerators, den >= 1) in lowest terms, by one
    gcd; the zero value comes out with den 1."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: c // g for k, c in nums.items()}
    return den, nums


def _sum_ints(d1: int, n1: Mapping[_K, int], d2: int, n2: Mapping[_K, int]
              ) -> tuple[int, dict[_K, int]]:
    """n1/d1 + n2/d2 over the lcm of the denominators, in lowest terms."""
    if d1 == d2:
        den = d1
        acc = dict(n1)
        items: Iterable[tuple[_K, int]] = n2.items()
    else:
        den = math.lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        acc = {k: c * m1 for k, c in n1.items()}
        items = [(k, c * m2) for k, c in n2.items()]
    return _lowest(den, _add_terms(acc, items))


def _summed(terms: Sequence[tuple[int, Mapping[_K, int]]], den: int = 0
            ) -> tuple[int, dict[_K, int]]:
    """The sum of the values nums / d of terms, in lowest terms, added in
    order by ``_add_terms`` over den: a multiple of each d, or their lcm."""
    den = den or math.lcm(*(d for d, _ in terms))
    acc: dict[_K, int] = {}
    for d, nums in terms:
        m = den // d
        _add_terms(acc, nums.items() if m == 1 else
                   [(e, c * m) for e, c in nums.items()])
    return _lowest(den, acc)


def _fractions(den: int, nums: Iterable[int]) -> list[Fraction]:
    """The Fractions nums / den."""
    if den == 1:
        return list(map(Fraction, nums))
    return [Fraction(c, den) for c in nums]


def _add_terms(acc: dict[_K, _N], items: Iterable[tuple[_K, _N]]) -> dict[_K, _N]:
    """Add each (key, nonzero coefficient) pair into acc, dropping every
    key whose sum is zero, and return acc.  The sparse sum of
    polynomials, derivations and series."""
    for key, c in items:
        prev = acc.get(key)
        if prev is None:
            acc[key] = c
        else:
            s = prev + c
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


class _Keyed:
    """Value semantics from one key: a subclass gives ``_fields()``, a
    tuple of its fields, and sets ``_key_cache`` to None when it builds a
    value.  ``_key()`` computes the key on first use and keeps it, as the
    fields never change.  Two values of the same class are equal when
    their keys are, and a value hashes as its key."""

    __slots__ = ("_key_cache",)

    def _key(self) -> tuple:
        key = self._key_cache
        if key is None:
            key = self._key_cache = self._fields()
        return key

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class _IntLayout:
    """The value semantics of the integer layout, the base of Poly and
    LieElem; OpSeries shares the layout and takes ``terms`` as its
    ``coeffs``.  A subclass keeps its rank in a slot of its own and gives
    ``_rank``, ``_with`` (a value of its class and rank from a canonical
    (den, nums)), ``_require_same_rank`` (which raises on a rank
    mismatch) and ``_unkey`` (the public key of a packed one)."""

    __slots__ = ("_den", "_nums", "_terms")

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """The coefficients as Fractions, under the public keys.  Built on
        first read and kept; do not mutate it."""
        terms = self._terms
        if terms is None:
            nums = self._nums
            terms = self._terms = dict(zip(map(self._unkey, nums),
                                           _fractions(self._den, nums.values())))
        return terms

    def _coefficient(self, key: int) -> Fraction:
        """One coefficient, read without the Fraction view."""
        return Fraction(self._nums.get(key, 0), self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._rank() == other._rank() and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self._rank(), self._den, frozenset(self._nums.items())))

    def __add__(self: _L, other: _L) -> _L:
        self._require_same_rank(other)
        if not other._nums:
            return self
        if not self._nums:
            return other
        return self._with(*_sum_ints(self._den, self._nums,
                                     other._den, other._nums))

    def __neg__(self: _L) -> _L:
        return self._with(self._den, {k: -c for k, c in self._nums.items()})

    def __sub__(self: _L, other: _L) -> _L:
        return self + (-other)

    def scale(self: _L, factor: RatLike) -> _L:
        f = rat(factor)
        if f == 1:
            return self
        if not f:
            return self._with(1, {})
        num = f.numerator
        return self._with(*_lowest(self._den * f.denominator,
                                   {k: c * num for k, c in self._nums.items()}))


class Poly(_IntLayout):
    """Immutable sparse polynomial with a fixed number of variables."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], RatLike] | None = None):
        if nvars < 0:
            raise DomainError("nvars must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise DomainError(f"bad exponent tuple {exps} for {nvars} variables")
                _check_limit(sum(exps), "term")
                c = rat(coeff)
                if c:
                    clean[exps] = c
        self.nvars = nvars
        self._den, nums = _over_lcm(clean)
        self._nums = {_pack(e): c for e, c in nums.items()}
        self._terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: RatLike) -> Poly:
        return Poly(nvars, {(0,) * nvars: rat(value)})

    @staticmethod
    def var(nvars: int, index: int) -> Poly:
        """The variable x_index, 1-based."""
        if not 1 <= index <= nvars:
            raise DomainError(f"variable index {index} out of range 1..{nvars}")
        return _new(nvars, 1, {1 << _W * (index - 1): 1})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff: RatLike = 1) -> Poly:
        return Poly(nvars, {tuple(exps): rat(coeff)})

    # -- the hooks of the integer layout -------------------------------

    def _rank(self) -> int:
        return self.nvars

    def _with(self, den: int, nums: dict[int, int]) -> Poly:
        return _new(self.nvars, den, nums)

    def _unkey(self, key: int) -> tuple[int, ...]:
        return _unpack(key, self.nvars)

    def _require_same_rank(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise DomainError(
                f"mixed variable counts: {self.nvars} vs {other.nvars}")

    # -- basic queries -----------------------------------------------

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max(map(_FIELD.__rmod__, self._nums), default=-1)

    def degree_in(self, index: int) -> int:
        """Largest exponent of x_index; -1 for the zero polynomial."""
        shift = _W * (index - 1)
        return max((e >> shift & _FIELD for e in self._nums), default=-1)

    def constant_term(self) -> Fraction:
        return self._coefficient(0)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def max_var(self) -> int:
        """Largest variable index actually used; 0 for constants."""
        return -(-max(self._nums, default=0).bit_length() // _W)

    def uses_only(self, k: int) -> bool:
        """True when the polynomial lies in the subring on x1..xk."""
        return self.max_var() <= k

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: Poly) -> Poly:
        self._require_same_rank(other)
        if not self._nums or not other._nums:
            return Poly(self.nvars)
        # Top-degree product terms cannot cancel, so this bound is exact.
        return _new(self.nvars, *_lowest(*_product(
            self, other, self.total_degree() + other.total_degree())))

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise DomainError("negative polynomial power")
        if exponent == 0:
            return Poly.const(self.nvars, 1)
        if self._nums:
            _check_limit(self.total_degree() * exponent, "power")
        out: Poly | None = None
        base = self
        e = exponent
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out  # type: ignore[return-value]
            base = base * base

    # -- calculus and substitution ------------------------------------

    def diff(self, index: int) -> Poly:
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise DomainError(f"variable index {index} out of range 1..{self.nvars}")
        shift = _W * (index - 1)
        one = 1 << shift
        # Lowering one exponent is injective, so no two terms meet.
        nums = {key - one: c * e for key, c in self._nums.items()
                if (e := key >> shift & _FIELD)}
        return _new(self.nvars, *_lowest(self._den, nums))

    def substitute(self, images: Sequence[Poly]) -> Poly:
        """Evaluate at x_i := images[i-1]; images share one target ring."""
        if len(images) != self.nvars:
            raise DomainError(
                f"need {self.nvars} substitution images, got {len(images)}")
        if not images:
            # A constant in no variables: no image names another ring.
            return self
        if not self._nums:
            return Poly(images[0].nvars)
        if not isinstance(images, _Images):
            images = _Images(images)
        common, acc = _substitute_ints(images, self._nums.items())
        return _new(images.target, *_lowest(self._den * common, acc))

    # -- canonical term order ------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded lexicographic order (x1 largest)."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {format_poly(self)!r})"


def _new(nvars: int, den: int, nums: dict[int, int]) -> Poly:
    """Internal constructor that trusts its canonical integer form."""
    p = Poly.__new__(Poly)
    p.nvars = nvars
    p._den = den
    p._nums = nums
    p._terms = None
    return p


def _mul_into(acc: dict[int, int], left: Iterable[tuple[int, int]],
              right: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add left x right into acc, zeros left in, and return acc: the one
    sparse product (right is iterated once per left term, so it must be a
    list or a dict view).  Keys are added as ints, so a left key may carry
    more than exponents: a conjugation's entries carry the tag of their
    derivation index, and its products land on derivation keys."""
    get = acc.get
    for e1, c1 in left:
        for e2, c2 in right:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def _mul_ints(left: Iterable[tuple[int, int]], right: Iterable[tuple[int, int]]
              ) -> dict[int, int]:
    """Product of two integer term lists, cancelled keys dropped."""
    return {e: c for e, c in _mul_into({}, left, right).items() if c}


def _product(p: Poly, q: Poly, degree: int) -> tuple[int, dict[int, int]]:
    """p * q as (den, nums), not put in lowest terms, once its degree
    passes the limit check."""
    _check_limit(degree, "product")
    return p._den * q._den, _mul_ints(p._nums.items(), q._nums.items())


def _substitute_ints(images: _Images, items: Iterable[tuple[int, int]]
                     ) -> tuple[int, dict[int, int]]:
    """The integer terms (key, numerator) evaluated at x_i :=
    images[i-1]: (common, acc) with the value acc / common, not in lowest
    terms.  Every term is checked against the limit before any product is
    formed; the terms are put over the lcm of the denominators of the
    image powers they need.  Each term takes one of three routes, read
    off its packed key: key 0 is the unit; a power x_i^e of one variable,
    whose key is its top field shifted back into place, is the kept power
    images[i-1] ** e, with no unpacking; any other term unpacks its fields
    up to its top variable, and the second pass multiplies their powers."""
    degs = images.degs
    # First pass: check every term against the limit, and collect the
    # denominators of the image powers to put them over one.
    plan = []
    dens = []
    unit = [(0, 1)]
    for key, num in items:
        den, first, rest = 1, unit, ()
        if key:
            top = (key.bit_length() - 1) // _W
            e = key >> _W * top
            if key == e << _W * top:
                _check_limit(e * degs[top], "substitution")
                power = images.power(top, e)
                den, first = power._den, power._nums.items()
            else:
                exps = _unpack(key, top + 1)
                _check_limit(sum(map(mul, exps, degs)), "substitution")
                factors = []
                for i, e in enumerate(exps):
                    if e:
                        power = images.power(i, e)
                        den *= power._den
                        factors.append(power._nums.items())
                first, rest = factors[0], factors[1:]
        plan.append((num, den, first, rest))
        dens.append(den)
    common = math.lcm(*dens)
    # Second pass: integer products, accumulated over ``common``.  A key
    # that cancels is dropped at once, as Fraction sums would be.
    acc: dict[int, int] = {}
    for num, den, pieces, rest in plan:
        scale = num * (common // den)
        for pairs in rest:
            pieces = _mul_ints(pieces, pairs).items()
        for key, v in pieces:
            s = acc.get(key, 0) + scale * v
            if s:
                acc[key] = s
            else:
                del acc[key]
    return common, acc


class _Images(tuple):
    """Substitution images, with what Poly.substitute derives from them.

    Holds each image's total degree and, computed on demand, the powers
    of the images.  The limit check in substitute bounds every requested
    exponent of an image of positive degree by the key limit
    ``_MAX_DEGREE``, and so the number of powers kept per image.  A power
    from the one below needs no gcd, as by Gauss's lemma a power of a
    polynomial in lowest terms is, and its limit check is e * degree."""

    def __new__(cls, images: Iterable[Poly]) -> _Images:
        self = super().__new__(cls, images)
        target = self[0].nvars
        if any(im.nvars != target for im in self):
            raise DomainError("substitution images live in different rings")
        self.target = target
        self.degs = [max(im.total_degree(), 0) for im in self]
        self._powers: list[dict[int, Poly]] = [{} for _ in self]
        return self

    def power(self, i: int, e: int) -> Poly:
        """images[i] ** e, computed once: one product from images[i] **
        (e-1) when that is kept, as substitutions tend to ask for the
        powers in ascending order, else by squaring."""
        powers = self._powers[i]
        cached = powers.get(e)
        if cached is None:
            below = powers.get(e - 1)
            cached = self[i] ** e if below is None else _new(
                self.target, *_product(below, self[i], e * self.degs[i]))
            powers[e] = cached
        return cached


def format_monomial(exps: Sequence[int]) -> str:
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical text: terms in descending graded-lex order."""
    return _format_terms((format_monomial(exps), coeff)
                         for exps, coeff in p.sorted_terms())


def _format_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Signed sum of (monomial text, coefficient) pairs in the given order,
    e.g. "-x1^2 + 3/2*x2 - 1".  The empty monomial is the unit; no terms
    print as "0"."""
    chunks: list[str] = []
    for mono, coeff in terms:
        mag = abs(coeff)
        if not mono:
            body = rat_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{rat_str(mag)}*{mono}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def iter_exponents(nvars: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples with the given length and total degree bound."""
    if nvars == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in iter_exponents(nvars - 1, max_total - head):
            yield (head,) + tail

