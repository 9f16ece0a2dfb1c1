"""Ordinals below w^w in Cantor normal form, plus the degree map that
attaches one to each basis derivation x^a d_i.

An ordinal is a finite map {exponent k -> positive integer coefficient},
read as sum of coeff * w^k terms.  Comparison is lexicographic from the
highest exponent down, which is the usual CNF order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DomainError
from .poly import _Keyed


class OrdinalCNF(_Keyed):
    """Immutable ordinal below w^w, its terms kept from the highest down."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if exp < 0:
                    raise DomainError("ordinal exponents must be nonnegative")
                if c < 0:
                    raise DomainError("ordinal coefficients must be nonnegative")
                if c:
                    clean[exp] = c
        self.coeffs = dict(sorted(clean.items(), reverse=True))
        self._key_cache = None

    @staticmethod
    def zero() -> OrdinalCNF:
        return OrdinalCNF()

    def is_zero(self) -> bool:
        return not self.coeffs

    def _fields(self) -> tuple[tuple[int, int], ...]:
        """The terms from the highest exponent down, which compare as the
        ordinals do."""
        return tuple(self.coeffs.items())

    def __lt__(self, other: OrdinalCNF) -> bool:
        return ord_compare(self, other) < 0

    def __le__(self, other: OrdinalCNF) -> bool:
        return ord_compare(self, other) <= 0

    def __gt__(self, other: OrdinalCNF) -> bool:
        return ord_compare(self, other) > 0

    def __ge__(self, other: OrdinalCNF) -> bool:
        return ord_compare(self, other) >= 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"OrdinalCNF({format_ordinal(self)!r})"


def ord_compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """Three-way CNF comparison: -1, 0 or 1."""
    ka, kb = a._key(), b._key()
    return (ka > kb) - (ka < kb)


def format_ordinal(a: OrdinalCNF) -> str:
    """Canonical text, e.g. "w^2*3 + w*1 + 4"; the zero ordinal is "0"."""
    if not a.coeffs:
        return "0"
    parts = []
    for exp, c in a.coeffs.items():
        if exp == 0:
            parts.append(str(c))
        elif exp == 1:
            parts.append(f"w*{c}")
        else:
            parts.append(f"w^{exp}*{c}")
    return " + ".join(parts)


def ord_of_basis(alpha: Sequence[int], i: int, n: int) -> OrdinalCNF:
    """Ordinal degree of the basis derivation x^alpha d_i inside rank n.

    The assignment is the unique order isomorphism onto [1, ord of the
    whole algebra]: the block of index-i derivations sits above every
    block of larger index, contributing w^(n-1) + ... + w^i, and within a
    block the exponent alpha contributes digit-wise with the coordinate
    alpha_m weighted by w^(m-1).
    """
    if not 1 <= i <= n:
        raise DomainError(f"derivation index {i} out of range 1..{n}")
    if len(alpha) != i - 1:
        raise DomainError(f"exponent for d_{i} needs {i - 1} coordinates")
    if any(a < 0 for a in alpha):
        raise DomainError("negative exponent")
    # The stored form, exponents from the highest down, of the digits
    # checked above; so the constructor's checks and sort are skipped.
    coeffs = dict.fromkeys(range(n - 1, i - 1, -1), 1)
    for m in range(i - 1, 1, -1):
        if alpha[m - 1]:
            coeffs[m - 1] = alpha[m - 1]
    coeffs[0] = alpha[0] + 1 if alpha else 1
    out = OrdinalCNF.__new__(OrdinalCNF)
    out.coeffs = coeffs
    out._key_cache = None
    return out
