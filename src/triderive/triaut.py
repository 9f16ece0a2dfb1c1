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
from .lie import (LieElem, _derive, _new as _new_lie, _operator, _split, _tag,
                  bracket)
from .poly import (_FIELD, _W, Poly, RatLike, _add_terms, _check_limit,
                   _Images, _Keyed, _lowest, _mul_into, _new, _over_lcm,
                   _product, rat, rat_str, _substitute_ints, _sum_ints, _summed)


class TriAut(_Keyed):
    """Immutable triangular automorphism of the rank-n polynomial ring."""

    __slots__ = ("n", "a", "lam", "_images", "_inv", "_plan")

    def __init__(self, a: Sequence[Poly], lam: Sequence[RatLike] | None = None):
        n = len(a)
        if n < 1:
            raise DomainError("rank must be at least 1")
        if lam is not None and len(lam) != n:
            raise DomainError("need one scale per variable")
        lams = (Fraction(1),) * n if lam is None else tuple(map(rat, lam))
        if any(not c for c in lams):
            raise DomainError("scales must be nonzero")
        for i, p in enumerate(a, start=1):
            if p.nvars != n:
                raise DomainError("translation parts must live in the rank-n ring")
            if not p.uses_only(i - 1):
                raise DomainError(f"translation part of x{i} may only use x1..x{i - 1}")
        self.n = n
        self.a = tuple(a)
        self.lam = lams
        self._images = self._inv = self._plan = self._key_cache = None

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
        if not 1 <= index <= n:
            raise DomainError(f"variable index {index} out of range 1..{n}")
        return TriAut.shift([amount if i == index else 0 for i in range(1, n + 1)])

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
        """Group inverse: q_i = (x_i - a_i(q_1..q_{i-1})) / lambda_i from
        the numerators of a_i(q) over D, x_i's key first, with one gcd.
        Cached both ways (the inverse keeps this map as its own), since
        the instance is immutable.  Conjugation never inverts."""
        cached = self._inv
        if cached is not None:
            return cached
        n = self.n
        xs = [Poly.var(n, j) for j in range(1, n + 1)]
        inverse_images: list[Poly] = []
        for i, (lam, a) in enumerate(zip(self.lam, self.a)):
            # a_i only uses x1..x_{i-1}, whose inverse images are known.
            common, acc = _substitute_ints(_Images(inverse_images + xs[i:]),
                                           a._nums.items())
            den = a._den * common
            g, h = (1 / lam).as_integer_ratio()  # h > 0, so den stays positive
            inverse_images.append(_new(n, *_lowest(den * h, {
                1 << _W * i: g * den, **{e: -g * c for e, c in acc.items()}})))
        inv = _from_images(n, inverse_images)
        self._inv = inv
        inv._inv = self
        return inv

    def _inverse_jacobian(self) -> tuple[tuple[tuple[int, Poly, int], ...], ...]:
        """The inverse Jacobian M of this map, by columns, as
        ``_lower_inverse`` gives them.  Here M[j][i] = sigma(d q_j / d x_i)
        with q_j = sigma^(-1)(x_j), and J M = 1 for J the Jacobian of
        sigma: the lambdas, with d a_j / d x_i below."""
        return _lower_inverse(self.n, self.lam, [
            [a.diff(k + 1) for k in range(j)] for j, a in enumerate(self.a)])

    def _conjugation_plan(self) -> list[tuple[int, list, list[int]]]:
        """Per column i of the inverse Jacobian M, built once, as the map
        never changes: (D_i, the entries M[j][i] as (packed key plus the
        tag of d_j, numerator over D_i) pairs in the order of
        ``_inverse_jacobian``, the positive degrees among them), with D_i
        the lcm of the column's denominators."""
        plan = self._plan
        if plan is None:
            plan = self._plan = []
            for column in self._inverse_jacobian():
                den = math.lcm(*(m._den for _, m, _ in column))
                plan.append((den, [(e + _tag(self.n, j), c * (den // m._den))
                                   for j, m, _ in column for e, c in m._nums.items()],
                             [deg for _, _, deg in column if deg]))
        return plan

    def _fields(self) -> tuple:
        return self.n, self.lam, self.a

    def __str__(self) -> str:
        return format_triaut(self)

    def __repr__(self) -> str:
        return f"TriAut({format_triaut(self)!r})"


def _lower_inverse(n: int, diag: Sequence[Fraction], below: Sequence[Sequence[Poly]]
                   ) -> tuple[tuple[tuple[int, Poly, int], ...], ...]:
    """The inverse M of the lower-triangular L with the nonzero diag[j] on
    its diagonal and L[j][k] = below[j][k] for k < j, by columns: column
    i holds (j, M[j][i], total degree of M[j][i]) for the j >= i with
    M[j][i] nonzero, ascending, so it starts with 1/diag[i].  Forward
    substitution in L M = 1 needs products but no inversion: M[j][i]
    sums its products L[j][k] M[k][i] on integer numerators over their
    lcm, with one gcd, each product checked against the limit first, by
    ascending j, then i, then k."""
    cols: list[list[tuple[Poly, int]]] = []  # (M[j][i], its degree)
    for j, row in enumerate(below):
        f = 1 / diag[j]
        for i, col in enumerate(cols):
            prods = [_product(g, m, g.total_degree() + mdeg)
                     for g, (m, mdeg) in zip(row[i:], col) if g and m]
            den = math.lcm(*(d for d, _ in prods))
            m = _new(n, *_lowest(den * f.denominator, _add_terms({}, (
                (e, -f.numerator * c * (den // d)) for d, nums in prods
                for e, c in nums.items()))))
            col.append((m, m.total_degree()))
        cols.append([(_new(n, f.denominator, {0: f.numerator}), 0)])
    return tuple(tuple((j, m, d) for j, (m, d) in enumerate(col, i) if m)
                 for i, col in enumerate(cols, 1))


def _from_images(n: int, images: Sequence[Poly]) -> TriAut:
    """A TriAut from the canonical images of a group operation, kept as its
    own: once their shape is checked, built without ``TriAut.__init__``."""
    lams, parts = [], []
    for i, q in enumerate(images):
        rest = dict(q._nums)
        lam = Fraction(rest.pop(1 << _W * i, 0), q._den)
        if not lam or max(rest, default=0) >> _W * i:
            raise InternalError(f"image of x{i + 1} is not triangular: {q}")
        lams.append(lam)
        parts.append(_new(n, *_lowest(q._den, rest)))
    sigma = TriAut.__new__(TriAut)
    sigma.n, sigma.a, sigma.lam = n, tuple(parts), tuple(lams)
    sigma._inv = sigma._plan = sigma._key_cache = None
    sigma._images = _Images(images)
    return sigma


# -- the bridge to derivations -------------------------------------------------


def conjugate_derivation(sigma: TriAut, u: LieElem) -> LieElem:
    """The derivation sigma u sigma^(-1).

    Its d_j coefficient is sigma(u(q_j)) with q_j = sigma^(-1)(x_j).  By
    the chain rule that is sum_{i <= j} M[j][i] sigma(p_i), where p_i is
    the d_i coefficient of u and M[j][i] = sigma(d q_j / d x_i) is the
    inverse Jacobian of sigma, a lower-triangular matrix with diagonal
    1/lambda_j.  sigma keeps M as its conjugation plan, next to its images
    and their powers, so a conjugation substitutes only the nonzero p_i
    and multiplies each into one column of M, all on integer numerators
    and into one dict of derivation keys.
    """
    if sigma.n != u.n:
        raise DomainError(f"mixed ranks: {sigma.n} vs {u.n}")
    return _conjugated(sigma, u._den, u._parts())


def _conjugated(sigma: TriAut, den: int, parts: Sequence[dict]) -> LieElem:
    """The kernel of conjugation: sigma u sigma^(-1), for u given by the
    numerators of its d_1..d_n coefficients over den, as ``LieElem._parts``
    gives them.  Each nonzero p_i is substituted through sigma's images,
    checked against the degree limit term by term, and must use only
    x1..x_{i-1}; then the products M[j][i] sigma(p_i) of positive degree
    are checked, in order, before the next index.  The products go into
    one dict of derivation keys over one denominator through
    ``poly._mul_into``: within each index, keys come in the order of
    column-by-column sums."""
    images, plan, used = sigma.images(), sigma._conjugation_plan(), []
    for i, part in enumerate(parts):
        if not part:
            continue
        common, image = _substitute_ints(images, part.items())
        if max(image) >> _W * i:
            raise InternalError(f"conjugation left the triangular algebra: "
                                f"coefficient of d_{i + 1} may only use x1..x{i}")
        cden, entries, degs = plan[i]
        if degs:
            deg = max(map(_FIELD.__rmod__, image))
            for mdeg in degs:
                _check_limit(mdeg + deg, "product")
        used.append((common * cden, entries, image.items()))
    lcm = used[0][0] if len(used) == 1 else math.lcm(*(d for d, *_ in used))
    acc: dict[int, int] = {}
    for d, entries, image in used:
        scale = lcm // d
        _mul_into(acc, entries if scale == 1 else
                  [(e, c * scale) for e, c in entries], image)
    return _new_lie(sigma.n, *_lowest(den * lcm,
                                      {k: c for k, c in acc.items() if c}))


def exp_map(delta: LieElem) -> TriAut:
    """The automorphism exp(delta): x_i -> sum_k delta^k(x_i) / k!.

    Terminates because triangular derivations act locally nilpotently on
    polynomials.  Term k is ``_derive`` of term k-1 over k times its den
    times delta's den, in lowest terms; ``_summed`` adds an image's terms.
    """
    n, den, operator = delta.n, delta._den, _operator(delta._parts())
    images = []
    for i in range(n):
        terms = [(1, {1 << _W * i: 1})]
        while terms[-1][1]:
            d, nums = terms[-1]
            terms.append(_lowest(den * len(terms) * d, _derive(operator, nums)))
        images.append(_new(n, *_summed(terms)))
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
    b_j = sum_k (B_k/k!) D^k(a_j), solved for j = 1..n in order, each
    D^k(a_j) in lowest terms and b_j summed once by ``_summed``.
    """
    if not sigma.is_unipotent():
        raise DomainError("logarithm needs a unipotent automorphism")
    coeffs: list[Poly] = []
    for a in sigma.a:
        den, parts = _split(coeffs)
        operator = _operator(parts)
        powers = [(a._den, a._nums)]  # D^k(a_j), k = 0, 1, ...
        while powers[-1][1]:
            d, nums = powers[-1]
            powers.append(_lowest(den * d, _derive(operator, nums)))
        coeffs.append(_new(sigma.n, *_summed([
            (d * b.denominator, {e: c * b.numerator for e, c in nums.items()})
            for k, (d, nums) in enumerate(powers)
            if nums and (b := _bernoulli_term(k))])))
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
    are the 1/mu_i.  The d_j coefficient of frame k is M[j][k], for M
    the inverse Jacobian of sigma, so ``_lower_inverse`` gives sigma's
    Jacobian J = M^(-1).  A monomial of a_j whose lowest variable is x_i
    appears, differentiated, in the part of J[j][i] in x_i..x_n only and
    nowhere else, so a_j sums the x_i-primitives of those parts; each
    primitive's degree is checked against the limit before its keys.
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

    coeffs = [f.coefficient_polys() for f in frames]
    jac = _lower_inverse(n, mus, [[coeffs[k][j] for k in range(j)]
                                  for j in range(n)])
    terms: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, column in enumerate(jac):
        one = 1 << _W * i  # the key of x_{i+1}, whose multiples lack x1..x_i
        for j, m, _ in column[1:]:
            low = [(e, c) for e, c in m._nums.items() if not e % one]
            if low:
                _check_limit(max(e % _FIELD for e, _ in low) + 1, "primitive")
                terms[j - 1].update((e + one, Fraction(c, m._den * (
                    (e // one & _FIELD) + 1))) for e, c in low)
    return TriAut([_new(n, *_over_lcm(t)) for t in terms], [1 / mu for mu in mus])


def format_triaut(sigma: TriAut) -> str:
    """Canonical text: "[a1, ..., an ; l1, ..., ln]", scales omitted when
    the map is unipotent."""
    body = ", ".join(str(p) for p in sigma.a)
    if sigma.is_unipotent():
        return f"[{body}]"
    scales = ", ".join(rat_str(c) for c in sigma.lam)
    return f"[{body} ; {scales}]"
