"""Formal series in a single partial derivative, used as operators.

An OpSeries in the symbol D = d/dx_m stores coefficients for degrees
1..order; the degree-0 coefficient is implied by the kind:

  * kind "F":  unit series 1 + c1 D + c2 D^2 + ...
  * kind "FP": unit series with c1 forced to 0 (no linear term)
  * kind "E":  no constant term, c1 D + c2 D^2 + ...

``order`` is the truncation order: coefficients of degree > order are
unknown, and any query that would need them raises TruncationError
rather than guessing zero.  ``order=None`` marks an exact series, i.e. a
polynomial in D whose higher coefficients are genuinely zero.  Products
and sums propagate the smallest order involved.  Only two results are
infinite, a product with exp(c*D) for c != 0 and the reciprocal of a
series other than 1; ``_through`` is the one rule for how far such a
result is kept.

The coefficients are stored in the integer layout of ``poly``, that of
Poly and LieElem, with D^d at key d; ``coeffs`` is their Fraction view,
built on first read.  A product is the kernel ``_mul_into`` with each
unit as the term of key 0, a reciprocal an integer recurrence, and an
application to a polynomial one kernel of falling factorials; ``verify``
keeps the route by repeated derivatives as its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError, TruncationError
from .poly import (_FIELD, _W, DEFAULT_ORDER, Poly, RatLike, _add_terms,
                   _format_terms, _IntLayout, _Keyed, _lowest, _mul_into,
                   _new, _over_lcm, _sum_ints, rat)

KINDS = ("F", "FP", "E")


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class OpSeries(_Keyed):
    """Immutable truncated series in one partial derivative."""

    __slots__ = ("kind", "var", "order", "_den", "_nums", "_terms")

    def __init__(self, kind: str, var: int, order: int | None,
                 coeffs: Mapping[int, RatLike] | None = None):
        if kind not in KINDS:
            raise DomainError(f"unknown series kind {kind!r}")
        if var < 1:
            raise DomainError("series variable index must be at least 1")
        if order is not None and order < 0:
            raise DomainError("series order must be nonnegative")
        clean: dict[int, Fraction] = {}
        if coeffs:
            for deg, c in coeffs.items():
                if deg < 1:
                    raise DomainError(
                        "degree-0 series coefficients are implied by the kind")
                if order is not None and deg > order:
                    raise DomainError(
                        f"coefficient at degree {deg} beyond order {order}")
                cf = rat(c)
                if cf:
                    clean[deg] = cf
        if kind == "FP" and clean.get(1):
            raise DomainError("this series kind forbids a linear term")
        self.kind = kind
        self.var = var
        self.order = order
        self._den, self._nums = _over_lcm(clean)
        self._terms = clean
        self._key_cache = None

    # Poly's Fraction view of the layout, a degree being its own key.
    coeffs = _IntLayout.terms
    _unkey = int

    # -- constructors -----------------------------------------------------

    @staticmethod
    def one(var: int, kind: str = "F", order: int | None = None) -> OpSeries:
        if kind == "E":
            raise DomainError("the unit series is not of the no-constant kind")
        return OpSeries(kind, var, order)

    @staticmethod
    def zero_e(var: int, order: int | None = None) -> OpSeries:
        return OpSeries("E", var, order)

    @staticmethod
    def exp_shift(var: int, amount: RatLike, order: int | None) -> OpSeries:
        """exp(amount * D) truncated at the given order; exact when the
        amount is zero."""
        lam = rat(amount)
        if not lam:
            return OpSeries("F", var, None)
        if order is None:
            raise DomainError("a nonzero exponential needs a finite order")
        # 1/k! = (order!/k!) / order!, then D -> lam * D.
        nums = {k: math.perm(order, order - k) for k in range(order + 1)}
        return _series("F", var, order, nums[0], nums).scale_powers(lam)

    # -- queries ------------------------------------------------------------

    def unit(self) -> Fraction:
        return Fraction(0) if self.kind == "E" else Fraction(1)

    def coefficient(self, deg: int) -> Fraction:
        """The coefficient at a degree within the stored order."""
        if deg == 0:
            return self.unit()
        if self.order is not None and deg > self.order:
            raise TruncationError(
                f"series only stored through degree {self.order}, asked for {deg}",
                required=deg, available=self.order)
        return Fraction(self._nums.get(deg, 0), self._den)

    def support(self) -> int:
        """Largest stored degree with a nonzero coefficient (0 if none)."""
        return max(self._nums, default=0)

    def is_one(self) -> bool:
        return self.kind != "E" and not self._nums

    def is_zero_e(self) -> bool:
        return self.kind == "E" and not self._nums

    def _fields(self) -> tuple:
        return self.kind, self.var, self.order, frozenset(self.coeffs.items())

    def agrees_with(self, other: OpSeries, through: int | None = None) -> bool:
        """Equality of coefficients through the common valid order."""
        if self.var != other.var or self.unit() != other.unit():
            return False
        limit = _min_order(_min_order(self.order, other.order), through)
        a, b = self.truncate(limit), other.truncate(limit)
        return a._den == b._den and a._nums == b._nums

    # -- operator application -------------------------------------------------

    def apply(self, p: Poly) -> Poly:
        """Apply sum_k c_k (d/dx_var)^k to a polynomial.

        Exact whenever the stored order covers the x_var degree of p;
        beyond that the missing coefficients would matter, so it raises.
        Runs on the falling-factorial kernel; ``verify`` holds its oracle.
        """
        if p.nvars < self.var:
            raise DomainError("polynomial does not involve the series variable")
        need = p.degree_in(self.var)
        self._require_order(need)
        scale, (pairs,) = _scaled([self])
        acc = {} if self.kind == "E" else \
            {exps: c * scale for exps, c in p._nums.items()}
        _add_terms(acc, _derivative_terms(self.var, pairs, need, p._nums))
        return _new(p.nvars, *_lowest(p._den * scale, acc))

    def _require_order(self, need: int) -> None:
        """Raise TruncationError unless the stored order covers an
        application to a polynomial of degree ``need`` in the symbol."""
        if self.order is not None and need > self.order:
            raise TruncationError(
                f"need series coefficients through degree {need}, "
                f"stored through {self.order}", required=need, available=self.order)

    def apply_without_unit(self, p: Poly) -> Poly:
        """Apply the series minus its constant term."""
        return self.apply(p) - p.scale(self.unit())

    # -- ring operations --------------------------------------------------------

    def _require_compatible(self, other: OpSeries) -> None:
        if self.var != other.var:
            raise DomainError("series in different symbols")

    def mul(self, other: OpSeries) -> OpSeries:
        """Series product; both factors must be unit series."""
        self._require_compatible(other)
        if self.kind == "E" or other.kind == "E":
            raise DomainError("products are defined for unit series only")
        # Each unit is the term of key 0, and so is the product's.
        acc = _mul_into({}, [(0, self._den), *self._nums.items()],
                        [(0, other._den), *other._nums.items()])
        kind = "FP" if self.kind == other.kind == "FP" else "F"
        return _series(kind, self.var, _min_order(self.order, other.order),
                       self._den * other._den, acc)

    def reciprocal(self, order: int | None = None) -> OpSeries:
        """Multiplicative inverse of a unit series up to the given order
        (defaulting to the stored order, which must then be finite); 1
        is returned as stored."""
        if self.kind == "E":
            raise DomainError("only unit series are invertible")
        if not self._nums:
            return self
        order = order if order is not None else self.order
        if order is None:
            raise DomainError("inverting an exact series needs an explicit order")
        if self.order is not None and self.order < order:
            raise TruncationError(
                "cannot invert beyond the stored order",
                required=order, available=self.order)
        # With a_i = A_i / d stored, the inverse's c_k / d^k has C_0 = 1
        # and C_k = -sum_i A_i C_(k-i) d^(i-1); all over d^order.
        powers = [self._den ** j for j in range(order + 1)]
        cs = [1]
        for k in range(1, order + 1):
            cs.append(-sum(a * cs[k - i] * powers[i - 1]
                           for i, a in self._nums.items() if i <= k))
        return _series(self.kind, self.var, order, powers[order],
                       {k: c * powers[order - k] for k, c in enumerate(cs)})

    def add_e(self, other: OpSeries) -> OpSeries:
        """Sum of two no-constant series (their natural group operation)."""
        self._require_compatible(other)
        if self.kind != "E" or other.kind != "E":
            raise DomainError("coefficient-wise sums are for no-constant series")
        return _series("E", self.var, _min_order(self.order, other.order),
                       *_sum_ints(self._den, self._nums, other._den, other._nums))

    def negate_e(self) -> OpSeries:
        if self.kind != "E":
            raise DomainError("negation is for no-constant series")
        return _series("E", self.var, self.order, self._den,
                       {d: -c for d, c in self._nums.items()})

    def scale_coeffs(self, factor: RatLike) -> OpSeries:
        """Multiply every coefficient by one scalar (degree-0 unaffected,
        so unit series require factor compatibility: use on "E" freely)."""
        f = rat(factor)
        return _series(self.kind, self.var, self.order, self._den * f.denominator,
                       {d: c * f.numerator for d, c in self._nums.items()})

    def scale_powers(self, gamma: RatLike) -> OpSeries:
        """Substitute D -> gamma * D, i.e. c_k -> c_k * gamma^k.

        This is how a torus coordinate change acts on the symbol.
        """
        g = rat(gamma)
        if not g:
            raise DomainError("power rescale needs a nonzero factor")
        # Over den * q^top, with gamma = p/q and top the largest degree.
        p, q, top = g.numerator, g.denominator, self.support()
        nums = {d: c * p ** d * q ** (top - d) for d, c in self._nums.items()}
        return _series(self.kind, self.var, self.order, self._den * q ** top, nums)

    def truncate(self, order: int | None) -> OpSeries:
        """Forget coefficients beyond the given order (never extends)."""
        return _series(self.kind, self.var, _min_order(self.order, order),
                       self._den, self._nums)

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return (f"OpSeries({self.kind!r}, var={self.var}, order={self.order}, "
                f"{format_series(self)!r})")


def _series(kind: str, var: int, order: int | None, den: int,
            nums: Mapping[int, int]) -> OpSeries:
    """Internal constructor, trusting the kind: nums / den in lowest terms,
    kept on the degrees 1..order (1 up if order is None) that are nonzero."""
    s = OpSeries.__new__(OpSeries)
    s.kind, s.var, s.order = kind, var, order
    s._den, s._nums = _lowest(den, {d: c for d, c in nums.items() if c and 0 < d
                                    and (order is None or d <= order)})
    s._terms = s._key_cache = None
    return s


def _scaled(series: Sequence[OpSeries]) -> tuple[int, list[list[tuple[int, int]]]]:
    """One integer scale over the series, the lcm of their denominators,
    and each series' (k, c_k * scale) pairs, ascending k."""
    scale = math.lcm(*(s._den for s in series))
    return scale, [[(k, c * (scale // s._den)) for k, c in sorted(s._nums.items())]
                   for s in series]


def _derivative_terms(var: int, pairs: list[tuple[int, int]], need: int,
                      part: Mapping[int, int]):
    """The terms of sum_{k=1..need} c_k D^k in D = d/dx_var, the series
    without its unit, on the integer terms in part (packed keys), times the
    scale of the pairs (``_scaled``): k outermost, each D^k x^a by the
    falling factorial a!/(a-k)!.  ``apply`` and ``autgroup.act`` run on it."""
    shift = _W * (var - 1)
    for k, ck in pairs:
        if k > need:
            break
        step = k << shift
        for key, num in part.items():
            a = key >> shift & _FIELD
            if a >= k:
                yield key - step, num * ck * math.perm(a, k)


def _through(order: int | None, stored: int | None) -> int:
    """The order an infinite result is kept through: the caller's order,
    never past what the series stores, or DEFAULT_ORDER when neither is
    finite."""
    through = _min_order(order, stored)
    return DEFAULT_ORDER if through is None else through


def _shifted(f: OpSeries, c: Fraction, order: int | None,
             kind: str) -> OpSeries:
    """exp(c*D) * f as a unit series of the given kind: f as stored when c
    is 0, else kept through ``_through(order, f.order)``."""
    if c:
        through = _through(order, f.order)
        f = OpSeries.exp_shift(f.var, c, through).mul(f.truncate(through))
    return _series(kind, f.var, f.order, f._den, f._nums)


def format_series(s: OpSeries) -> str:
    """Canonical text in the symbol D, ascending degree, e.g. "1 + 1/2*D^2"."""
    terms = [] if s.kind == "E" else [("", Fraction(1))]
    for deg in sorted(s.coeffs):
        terms.append(("D" if deg == 1 else f"D^{deg}", s.coeffs[deg]))
    return _format_terms(terms)
