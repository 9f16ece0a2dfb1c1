"""Triangular polynomial automorphisms.

An automorphism here sends x_i to lambda_i * x_i + a_i with a nonzero
scalar lambda_i and a polynomial a_i in x1..x_{i-1} only (so a_1 is a
constant).  These maps form a group; the unipotent ones (all lambda_i
equal 1) are exactly the exponentials of triangular derivations, and
conjugation by any triangular automorphism preserves the derivation
algebra, which is what makes the whole calculus exact.

Notation for values: [a1, ..., an ; l1, ..., ln], with the lambda block
omitted when the map is unipotent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InternalError
from .lie import LieElem, _derive, _join, _operator, _split, _tag, bracket
from .poly import (_FIELD, _W, Poly, RatLike, _add_terms, _check_limit,
                   _Images, _Keyed, _lowest, _mul_into, _new, _product, rat,
                   rat_str, _substitute_ints, _sum_ints)


class TriAut(_Keyed):
    """Immutable triangular automorphism of the rank-n polynomial ring."""

    __slots__ = ("n", "a", "lam", "_images", "_inv", "_jac_inv")

    def __init__(self, a: Sequence[Poly], lam: Sequence[RatLike] | None = None):
        n = len(a)
        if n < 1:
            raise DomainError("rank must be at least 1")
        if lam is None:
            lams = tuple(Fraction(1) for _ in range(n))
        else:
            if len(lam) != n:
                raise DomainError("need one scale per variable")
            lams = tuple(rat(c) for c in lam)
        if any(not c for c in lams):
            raise DomainError("scales must be nonzero")
        polys = []
        for i, p in enumerate(a, start=1):
            if p.nvars != n:
                raise DomainError("translation parts must live in the rank-n ring")
            if not p.uses_only(i - 1):
                raise DomainError(f"translation part of x{i} may only use x1..x{i - 1}")
            polys.append(p)
        self.n = n
        self.a = tuple(polys)
        self.lam = lams
        self._images = self._inv = self._jac_inv = self._key_cache = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int) -> TriAut:
        return TriAut([Poly.zero(n) for _ in range(n)])

    @staticmethod
    def torus(lam: Sequence[RatLike]) -> TriAut:
        n = len(lam)
        return TriAut([Poly.zero(n) for _ in range(n)], lam)

    @staticmethod
    def shift(mu: Sequence[RatLike]) -> TriAut:
        n = len(mu)
        return TriAut([Poly.const(n, m) for m in mu])

    @staticmethod
    def one_shift(n: int, index: int, amount: RatLike) -> TriAut:
        """Translate only x_index by a constant."""
        parts = [Poly.zero(n) for _ in range(n)]
        parts[index - 1] = Poly.const(n, amount)
        return TriAut(parts)

    # -- predicates -------------------------------------------------------

    def is_identity(self) -> bool:
        return all(c == 1 for c in self.lam) and all(p.is_zero() for p in self.a)

    def is_unipotent(self) -> bool:
        return all(c == 1 for c in self.lam)

    def is_ct(self) -> bool:
        """Unipotent, fixes x1, and no translation has a constant term."""
        return (self.is_unipotent() and self.a[0].is_zero()
                and all(not p.constant_term() for p in self.a))

    def is_normalized_unipotent(self) -> bool:
        """Unipotent with no constant term in the last translation part,
        the canonical representative modulo last-coordinate shifts."""
        return self.is_unipotent() and not self.a[-1].constant_term()

    # -- the group operations ----------------------------------------------

    def images(self) -> tuple[Poly, ...]:
        """All images, built once.  The tuple also keeps the powers that
        substitutions by this map compute, since the map never changes."""
        cached = self._images
        if cached is None:
            cached = _Images(_new(self.n, *_sum_ints(
                lam.denominator, {1 << _W * i: lam.numerator}, a._den, a._nums))
                for i, (lam, a) in enumerate(zip(self.lam, self.a)))
            self._images = cached
        return cached

    def apply(self, p: Poly) -> Poly:
        """Apply to a polynomial by substituting the images."""
        if p.nvars != self.n:
            raise DomainError("polynomial must live in the rank-n ring")
        return p.substitute(self.images())

    def compose(self, other: TriAut) -> TriAut:
        """Composition applying ``other`` first: result(p) = self(other(p))."""
        if self.n != other.n:
            raise DomainError(f"mixed ranks: {self.n} vs {other.n}")
        return _from_images(self.n, [self.apply(q) for q in other.images()])

    def invert(self) -> TriAut:
        """Group inverse, built coordinate by coordinate.  Cached both ways
        (the inverse keeps this map as its own), since the instance is
        immutable: repeated calls, such as inverting a map and inverting
        back, build nothing new.  Conjugation never inverts."""
        cached = self._inv
        if cached is not None:
            return cached
        n = self.n
        inverse_images: list[Poly] = []
        for i in range(1, n + 1):
            # a_i only uses x1..x_{i-1}, whose inverse images are known.
            images = inverse_images + [Poly.var(n, j) for j in range(i, n + 1)]
            shifted = Poly.var(n, i) - self.a[i - 1].substitute(images)
            inverse_images.append(shifted.scale(1 / self.lam[i - 1]))
        inv = _from_images(n, inverse_images)
        self._inv = inv
        inv._inv = self
        return inv

    def _inverse_jacobian(self) -> tuple[tuple[tuple[int, Poly, int], ...], ...]:
        """The inverse Jacobian M of this map, by columns: column i holds
        (j, M[j][i], total degree of M[j][i]) for the j >= i with M[j][i]
        nonzero, ascending, so it starts with M[i][i] = 1/lambda_i.  Here
        M[j][i] = sigma(d q_j / d x_i) with q_j = sigma^(-1)(x_j).  Built
        once, by forward substitution in J M = 1 (J = the Jacobian of
        sigma, lower triangular with the lambdas on its diagonal), which
        needs products but no inversion and no substitution: each entry
        sums its products on integer numerators over their lcm, each
        product checked against the limit first, by ascending i, then k."""
        cached = self._jac_inv
        if cached is None:
            n = self.n
            cols: list[list[tuple[Poly, int]]] = []  # (M[j][i], its degree)
            for j in range(n):
                grad = [self.a[j].diff(k + 1) for k in range(j)]
                f = 1 / self.lam[j]
                for i, col in enumerate(cols):
                    prods = [_product(g, m, g.total_degree() + mdeg)
                             for g, (m, mdeg) in zip(grad[i:], col) if g and m]
                    den = math.lcm(*(d for d, _ in prods))
                    m = _new(n, *_lowest(den * f.denominator, _add_terms({}, (
                        (e, -f.numerator * c * (den // d)) for d, nums in prods
                        for e, c in nums.items()))))
                    col.append((m, m.total_degree()))
                cols.append([(_new(n, f.denominator, {0: f.numerator}), 0)])
            cached = tuple(tuple((j, m, d) for j, (m, d) in enumerate(col, i) if m)
                           for i, col in enumerate(cols, 1))
            self._jac_inv = cached
        return cached

    def _fields(self) -> tuple:
        return self.n, self.lam, self.a

    def __str__(self) -> str:
        return format_triaut(self)

    def __repr__(self) -> str:
        return f"TriAut({format_triaut(self)!r})"


def _from_images(n: int, images: Sequence[Poly]) -> TriAut:
    """Rebuild a TriAut from raw images, checking the triangular shape.
    The images are x_i * lambda_i + a_i in canonical form: the map's own."""
    lams = []
    parts = []
    for i, q in enumerate(images, start=1):
        rest = dict(q._nums)
        lam = Fraction(rest.pop(1 << _W * (i - 1), 0), q._den)
        parts.append(_new(n, *_lowest(q._den, rest)))
        if not lam or not parts[-1].uses_only(i - 1):
            raise InternalError(f"image of x{i} is not triangular: {q}")
        lams.append(lam)
    sigma = TriAut(parts, lams)
    sigma._images = _Images(images)
    return sigma


# -- the bridge to derivations -------------------------------------------------


def conjugate_derivation(sigma: TriAut, u: LieElem) -> LieElem:
    """The derivation sigma u sigma^(-1).

    Its d_j coefficient is sigma(u(q_j)) with q_j = sigma^(-1)(x_j).  By
    the chain rule that is sum_{i <= j} M[j][i] sigma(p_i), where p_i is
    the d_i coefficient of u and M[j][i] = sigma(d q_j / d x_i) is the
    inverse Jacobian of sigma, a lower-triangular matrix with diagonal
    1/lambda_j.  sigma caches M, next to its images and their powers, so
    a conjugation substitutes only the nonzero coefficients of u and
    multiplies each into one column of M, all on integer numerators.
    """
    if sigma.n != u.n:
        raise DomainError(f"mixed ranks: {sigma.n} vs {u.n}")
    den, parts = _conjugate(sigma, u._den, u._parts())
    try:
        return _join(u.n, den, parts)
    except DomainError as exc:
        raise InternalError(f"conjugation left the triangular algebra: {exc}")


def _conjugate(sigma: TriAut, den: int, parts: Sequence[dict]
               ) -> tuple[int, list[dict]]:
    """The kernel of conjugation: the numerators of the d_1..d_n
    coefficients of u over den in (one dict per index, keyed by packed
    keys of x1..xn), those of sigma u sigma^(-1) out, over the returned
    denominator and with zeros left in.

    Each nonzero p_i is substituted through sigma's images, checked
    against the degree limit term by term, and then each product
    M[j][i] sigma(p_i) with j > i is checked, in that order, before the
    next index, unless column i holds only constants, which cannot take
    the image past the limit; sigma's cache gives column i of M with the
    degree of each entry.  The products go straight into one dict per
    index j, over one denominator, through ``poly._mul_into``.
    """
    images = sigma.images()
    jac = sigma._inverse_jacobian()
    columns = []
    for part, column in zip(parts, jac):
        if not part:
            continue
        common, image = _substitute_ints(images, part.items())
        if any(mdeg for _, _, mdeg in column[1:]):
            deg = max(map(_FIELD.__rmod__, image))
            for _, _, mdeg in column[1:]:
                _check_limit(mdeg + deg, "product")
        columns.append((common, image.items(), column))
    lcm = math.lcm(*(common * m._den
                     for common, _, column in columns for _, m, _ in column))
    out: list[dict] = [{} for _ in range(sigma.n)]
    for common, image, column in columns:
        for j, m, _ in column:
            scale = lcm // (common * m._den)
            _mul_into(out[j - 1], [(e, c * scale) for e, c in m._nums.items()],
                      image)
    return den * lcm, out


def exp_map(delta: LieElem) -> TriAut:
    """The automorphism exp(delta): x_i -> sum_k delta^k(x_i) / k!.

    Terminates because triangular derivations act locally nilpotently on
    polynomials.  Term k is delta of term k-1 over k times delta's den.
    """
    n = delta.n
    den, parts = delta._den, _operator(delta._parts())
    images = []
    for i in range(1, n + 1):
        term = acc = Poly.var(n, i)
        k = 0
        while term:
            k += 1
            term = _derive(den * k, parts, term)
            acc = acc + term
        images.append(acc)
    return _from_images(n, images)


# B_k / k!, the Taylor coefficients c_k of z / (e^z - 1): 1, -1/2, 1/12,
# 0, -1/720, ...  Times (e^z - 1)/z they give 1, so for k >= 1,
# sum_{m=0}^{k} c_{k-m} / (m+1)! = 0.  Extended on demand, not at import.
_BERNOULLI = [Fraction(1)]


def _bernoulli_term(k: int) -> Fraction:
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        _BERNOULLI.append(-sum(_BERNOULLI[m - i] / math.factorial(i + 1)
                               for i in range(1, m + 1)))
    return _BERNOULLI[k]


def log_map(sigma: TriAut) -> LieElem:
    """Inverse of exp_map on unipotent automorphisms, by derivations only.

    Let sigma send x_j to x_j + a_j, and delta = sum_i b_i d_i.  On
    x_1..x_{j-1}, which b_j uses, delta acts as D = sum_{i<j} b_i d_i, so
    exp(delta)(x_j) = x_j + sum_k D^k(b_j)/(k+1)! = x_j + phi(D)(b_j) with
    phi(z) = (e^z - 1)/z.  D is triangular, so locally nilpotent: power
    series in D are finite sums on polynomials and compose as series do.
    As phi(z) * z/(e^z - 1) = 1, exp(delta) = sigma exactly when
    b_j = sum_k (B_k/k!) D^k(a_j), solved for j = 1..n in order.
    """
    if not sigma.is_unipotent():
        raise DomainError("logarithm needs a unipotent automorphism")
    coeffs: list[Poly] = []
    for a in sigma.a:
        den, parts = _split(coeffs)
        parts = _operator(parts)
        b = term = a
        k = 0
        while term:
            k += 1
            term = _derive(den, parts, term)
            if term and _bernoulli_term(k):
                b = b + term.scale(_bernoulli_term(k))
        coeffs.append(b)
    return LieElem.from_coefficients(coeffs)


def normalize_mod_shn(sigma: TriAut) -> TriAut:
    """Drop the constant term of the last translation part.

    Shifts of x_n act trivially on the derivation algebra, so this picks
    the canonical representative of sigma's coset.
    """
    mu = sigma.a[-1].constant_term()
    if not mu:
        return sigma
    parts = list(sigma.a)
    parts[-1] = parts[-1] - Poly.const(sigma.n, mu)
    return TriAut(parts, sigma.lam)


def split_ct_shift(sigma: TriAut) -> tuple[TriAut, tuple[Fraction, ...]]:
    """Factor a unipotent map as (no-constant-terms part) o (shift).

    Returns (tau, mu) with sigma = tau o shift(mu); tau keeps each
    translation minus its constant term.  Requires a_1 itself constant,
    which holds for every unipotent triangular map since a_1 has no
    variables to use.
    """
    if not sigma.is_unipotent():
        raise DomainError("factorization needs a unipotent automorphism")
    mu = tuple(p.constant_term() for p in sigma.a)
    parts = [p - Poly.const(sigma.n, m) for p, m in zip(sigma.a, mu)]
    return TriAut(parts), mu


def reconstruct_from_frames(frames: Sequence[LieElem]) -> TriAut:
    """Find the triangular automorphism matching coordinate derivations
    to a commuting frame.

    frames[i-1] must have the shape mu_i d_i + (terms with index > i)
    with mu_i nonzero, and the frames must pairwise commute.  The result
    sigma satisfies sigma d_i sigma^(-1) = frames[i-1]; it is the unique
    such map with no constant terms in its translations, and its scales
    are the 1/mu_i.
    """
    n = len(frames)
    if n < 2:
        raise DomainError("need at least two frames")
    mus = []
    for i, f in enumerate(frames, start=1):
        if f.n != n:
            raise DomainError(f"{n} frames need rank {n}, frame {i} has "
                              f"rank {f.n}")
        mu = f._coefficient(_tag(n, i))
        if not mu:
            raise DomainError(f"frame {i} has no constant d_{i} component")
        for alpha, j in map(f._unkey, f._nums):
            if j < i or (j == i and any(alpha)):
                raise DomainError(
                    f"frame {i} contains the disallowed term x^{alpha} d_{j}")
        mus.append(mu)
    for i in range(n):
        for j in range(i + 1, n):
            if bracket(frames[i], frames[j]):
                raise DomainError(f"frames {i + 1} and {j + 1} do not commute")

    # x_i' = phi_{i-1} ... phi_1 (x_i / mu_i), where phi_m resums with the
    # m-th frame: phi_m(p) = sum_k (-x_m')^k * frames[m]^k(p) / k!.
    splits = [(f._den, _operator(f._parts())) for f in frames]
    images: list[Poly] = []
    for i in range(1, n + 1):
        p = Poly.var(n, i).scale(1 / mus[i - 1])
        for m in range(1, i):
            den, parts = splits[m - 1]
            minus_xm = -images[m - 1]
            acc, deriv, factor, k = Poly.zero(n), p, Poly.const(n, 1), 0
            while deriv:
                acc = acc + factor * deriv
                k += 1
                deriv = _derive(den * k, parts, deriv)
                factor = factor * minus_xm
            p = acc
        images.append(p)
    return _from_images(n, images)


def format_triaut(sigma: TriAut) -> str:
    """Canonical text: "[a1, ..., an ; l1, ..., ln]", scales omitted when
    the map is unipotent."""
    body = ", ".join(str(p) for p in sigma.a)
    if sigma.is_unipotent():
        return f"[{body}]"
    scales = ", ".join(rat_str(c) for c in sigma.lam)
    return f"[{body} ; {scales}]"
