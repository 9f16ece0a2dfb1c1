"""The Lie algebra of triangular polynomial derivations.

Rank n fixes the algebra spanned by x^a d_i where a runs over exponent
tuples with exactly i-1 coordinates, so the coefficient of d_i only uses
x1..x_{i-1}.  Elements are finite rational combinations of these basis
derivations.

An element is stored in the integer layout described in the poly
module; ``LieElem`` takes its value semantics from that layout's owner,
``poly._IntLayout``.  Its public keys are basis keys (a, i); inside, the
key of x^a d_i is a, packed as a monomial of x1..xn, plus n - i in the
field above those n fields.  The structure constants of the basis are
integers, [x^a d_i, x^b d_j] = b_i x^(a+b-e_i) d_j for i < j, so
brackets work on the numerators too, form each key as one sum, and end
with at most one gcd.

The basis carries a linear order (larger derivation index first is
SMALLER; within one index, compare exponents from the most significant
coordinate x_{i-1} down), which is the order of the packed keys as
plain ints, and an ordinal-valued degree compatible with it.
Brackets strictly drop that degree, which powers the termination
arguments used elsewhere.

``center_solve`` finds the center, K d_n, as the null space of linear
equations.  The same integer structure constants make them integer
equations, built from basis keys alone.  They are solved by fraction-free
elimination on sparse integer rows (each update a*row - b*pivot, then one
gcd of the row's content, after Bareiss).  Every pivot row ends as an
integer multiple of its row of the reduced row echelon form, which is
unique, so the basis read from the ratios at the end is the one exact
Gauss-Jordan elimination over the rationals gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InternalError
from .ordinals import OrdinalCNF, ord_compare, ord_of_basis
from .poly import (_FIELD, _MAX_DEGREE, _W, Poly, RatLike, _add_terms,
                   _check_limit, _format_terms, _IntLayout,
                   _lowest, _mul_into, _new as _new_poly, _over_lcm, _pack,
                   _unpack, format_monomial, iter_exponents, rat)

# A basis derivation x^alpha d_i is keyed by (alpha, i) in public.
Key = tuple[tuple[int, ...], int]


def _check_key(alpha: tuple[int, ...], i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise DomainError(f"derivation index {i} out of range 1..{n}")
    if len(alpha) != i - 1:
        raise DomainError(
            f"exponent {alpha} for d_{i} needs {i - 1} coordinates")
    if any(a < 0 for a in alpha):
        raise DomainError("negative exponent")
    _check_limit(sum(alpha), "term")


def _tag(n: int, i: int) -> int:
    """What the index i adds to a packed key at rank n: n - i in the field
    above the n exponent fields, so that a larger key is a larger basis
    element.  The key of d_i itself."""
    return (n - i) << _W * n


class LieElem(_IntLayout):
    """Immutable element of the rank-n triangular derivation algebra."""

    __slots__ = ("n", "_hash")

    def __init__(self, n: int, terms: Mapping[Key, RatLike] | None = None):
        if n < 2:
            raise DomainError("rank must be at least 2")
        clean: dict[Key, Fraction] = {}
        if terms:
            for (alpha, i), coeff in terms.items():
                alpha = tuple(alpha)
                _check_key(alpha, i, n)
                c = rat(coeff)
                if c:
                    clean[(alpha, i)] = c
        self.n = n
        self._den, nums = _over_lcm(clean)
        self._nums = {_pack(alpha) + _tag(n, i): c
                      for (alpha, i), c in nums.items()}
        self._terms = clean
        self._hash = None

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n: int) -> LieElem:
        return LieElem(n)

    @staticmethod
    def basis(n: int, alpha: Sequence[int], i: int, coeff: RatLike = 1) -> LieElem:
        return LieElem(n, {(tuple(alpha), i): rat(coeff)})

    @staticmethod
    def d(n: int, i: int) -> LieElem:
        """The coordinate derivation d_i."""
        return LieElem.basis(n, (0,) * (i - 1), i)

    @staticmethod
    def from_coefficients(polys: Sequence[Poly]) -> LieElem:
        """Build sum p_i d_i from coefficient polynomials in x1..xn.

        Each p_i must use only x1..x_{i-1}.
        """
        n = len(polys)
        if n < 2:
            raise DomainError("rank must be at least 2")
        if any(p.nvars != n for p in polys):
            raise DomainError("coefficient polynomials must live in rank-n ring")
        return _join(n, *_split(polys))

    # -- the hooks of the integer layout -----------------------------------

    def _rank(self) -> int:
        return self.n

    def _with(self, den: int, nums: dict[int, int]) -> LieElem:
        return _new(self.n, den, nums)

    def _unkey(self, key: int) -> Key:
        i = self.n - (key >> _W * self.n)
        return _unpack(key, i - 1), i

    def _require_same_rank(self, other: LieElem) -> None:
        if self.n != other.n:
            raise DomainError(f"mixed ranks: {self.n} vs {other.n}")

    def __hash__(self) -> int:
        """The layout's hash, computed on first use and kept."""
        h = self._hash
        if h is None:
            h = self._hash = _IntLayout.__hash__(self)
        return h

    # -- structure queries ----------------------------------------------

    def coefficient_poly(self, i: int) -> Poly:
        """The d_i coefficient as a polynomial in the full rank-n ring."""
        if not 1 <= i <= self.n:
            raise DomainError(f"derivation index {i} out of range 1..{self.n}")
        return self.coefficient_polys()[i - 1]

    def coefficient_polys(self) -> list[Poly]:
        """The d_1..d_n coefficients, split in one pass over the terms."""
        return [_new_poly(self.n, *_lowest(self._den, part))
                for part in self._parts()]

    def _parts(self) -> list[dict[int, int]]:
        """The numerators of the d_1..d_n coefficients over ``_den``, one
        dict per index keyed by packed keys of x1..xn."""
        n = self.n
        top = _W * n
        mask = (1 << top) - 1
        parts: list[dict[int, int]] = [{} for _ in range(n)]
        for key, c in self._nums.items():
            parts[n - 1 - (key >> top)][key & mask] = c
        return parts

    def min_index(self) -> int:
        """Smallest derivation index in the support; n+1 when zero."""
        if not self._nums:
            return self.n + 1
        return self.n - (max(self._nums) >> _W * self.n)

    # -- as an operator on polynomials -------------------------------------

    def apply_to(self, p: Poly) -> Poly:
        """Apply the derivation sum p_i d/dx_i to a polynomial."""
        if p.nvars != self.n:
            raise DomainError("polynomial must live in the rank-n ring")
        return _derive(self._den, _operator(self._parts()), p)

    def __str__(self) -> str:
        return format_lie(self)

    def __repr__(self) -> str:
        return f"LieElem({self.n}, {format_lie(self)!r})"


def _new(n: int, den: int, nums: dict[int, int]) -> LieElem:
    """Internal constructor that trusts its canonical integer form."""
    u = LieElem.__new__(LieElem)
    u.n = n
    u._den = den
    u._nums = nums
    u._terms = None
    u._hash = None
    return u


def _join(n: int, den: int, parts: Sequence[Mapping[int, int]]) -> LieElem:
    """sum p_i d_i from the numerators of p_1..p_n over den, one dict per
    index keyed by packed keys of x1..xn; zero numerators are skipped.
    Each p_i must use only x1..x_{i-1}: its keys lie below 2**(W(i-1))."""
    nums: dict[int, int] = {}
    for i, part in enumerate(parts, start=1):
        bound = 1 << _W * (i - 1)
        tag = _tag(n, i)
        for key, c in part.items():
            if c:
                if key >= bound:
                    raise DomainError(
                        f"coefficient of d_{i} may only use x1..x{i - 1}")
                nums[key + tag] = c
    return _new(n, *_lowest(den, nums))


def _split(polys: Sequence[Poly]) -> tuple[int, list[dict[int, int]]]:
    """The numerators of polys over the lcm den of their denominators, one
    dict per poly keyed by packed keys, as ``LieElem._parts`` gives them."""
    den = math.lcm(*(p._den for p in polys))
    return den, [p._nums if p._den == den else
                 {e: c * (den // p._den) for e, c in p._nums.items()}
                 for p in polys]


def _operator(parts: Sequence[dict[int, int]]
              ) -> list[tuple[int, dict[int, int], int]]:
    """The numerators of p_1, p_2, ..., as ``_split`` or
    ``LieElem._parts`` gives them, in the form ``_derive`` takes: a triple
    (k, numerators of p_{k+1}, deg p_{k+1}) per nonzero p_{k+1}, so that
    the degrees are taken once for every polynomial derived."""
    return [(k, part, max(map(_FIELD.__rmod__, part)))
            for k, part in enumerate(parts) if part]


def _derive(den: int, operator: Sequence[tuple[int, dict[int, int], int]],
            p: Poly) -> Poly:
    """Apply sum p_i d/dx_i to p, the numerators of the p_i over den given
    as ``_operator`` gives them.  The products go over den * p._den into
    one dict and end with one gcd, as in ``bracket``.  Each index is first
    checked against the degree limit as the product p_i * dp/dx_i:
    deg p_i + deg dp/dx_i."""
    acc: dict[int, int] = {}
    for k, part, deg in operator:
        # d/dx_{k+1}: lowering one exponent is injective, so no terms meet
        shift = _W * k
        one = 1 << shift
        dp = [(e - one, c * a) for e, c in p._nums.items()
              if (a := e >> shift & _FIELD)]
        if dp:
            _check_limit(deg + max(e % _FIELD for e, _ in dp), "product")
            _mul_into(acc, part.items(), dp)
    return _new_poly(p.nvars, *_lowest(den * p._den,
                                       {e: c for e, c in acc.items() if c}))


# -- basis order and ordinal degree -----------------------------------------


def key_sort_key(key: Key) -> tuple:
    """Sort key realizing the basis order (ascending)."""
    alpha, i = key
    return (-i, tuple(reversed(alpha)))


def basis_compare(key1: Key, key2: Key) -> int:
    """Three-way comparison of basis derivations: -1, 0 or 1.

    x^a d_i beats x^b d_j when i < j; for equal index the exponents are
    compared from the most significant coordinate x_{i-1} downwards.
    """
    k1, k2 = key_sort_key(key1), key_sort_key(key2)
    return (k1 > k2) - (k1 < k2)


def leading_term(u: LieElem) -> tuple[Fraction, Key]:
    """Coefficient and key of the largest basis derivation in the support."""
    if not u._nums:
        raise DomainError("zero element has no leading term")
    key = max(u._nums)
    return u._coefficient(key), u._unkey(key)


def ord_of_element(u: LieElem) -> OrdinalCNF:
    """Ordinal degree: the degree of the leading basis derivation.

    The zero element gets ordinal 0, below every nonzero degree.
    """
    if not u._nums:
        return OrdinalCNF.zero()
    alpha, i = u._unkey(max(u._nums))
    return ord_of_basis(alpha, i, u.n)


def ideal_membership(u: LieElem, lam: OrdinalCNF) -> bool:
    """Whether u lies in the span of basis derivations of degree <= lam."""
    return ord_compare(ord_of_element(u), lam) <= 0


# -- bracket -----------------------------------------------------------------


def bracket(u: LieElem, v: LieElem) -> LieElem:
    """Lie bracket: ``_ad`` over u._den * v._den, then one gcd."""
    u._require_same_rank(v)
    return _new(u.n, *_lowest(u._den * v._den, _ad(u, v._nums)))


def _ad(u: LieElem, nums: Mapping[int, int]) -> dict[int, int]:
    """Numerators of [u, v] over u._den * v._den from v's over v._den, by
    [x^a d_i, x^b d_j] = b_i x^(a+b-e_i) d_j for i < j, nonzero ones only:
    b_i is field i-1 of the key of x^b d_j, and a plus that key minus e_i
    is the key of the term, index field included.  A term has degree
    |a| + |b| - 1, checked against the key limit before its key is formed."""
    n = u.n
    top = _W * n
    mask = (1 << top) - 1
    right = nums.items()
    acc: dict[int, int] = {}
    get = acc.get
    for ka, ca in u._nums.items():
        ta = ka >> top  # n - i
        si = _W * (n - 1 - ta)  # the offset of field i-1
        a = ka & mask
        da = a % _FIELD
        for kb, cb in right:
            tb = kb >> top
            if ta > tb:  # i < j
                factor, key = kb >> si & _FIELD, a + kb - (1 << si)
            elif ta < tb:
                sj = _W * (n - 1 - tb)
                factor, key = -(ka >> sj & _FIELD), (kb & mask) + ka - (1 << sj)
            else:
                continue
            if factor:
                if da + (kb & mask) % _FIELD > _MAX_DEGREE + 1:
                    _check_limit(da + (kb & mask) % _FIELD - 1, "bracket")
                acc[key] = get(key, 0) + factor * ca * cb
    return {k: c for k, c in acc.items() if c}


def _weigh(key: int, w: Sequence[int]) -> int:
    """sum_j a_j w_j over the exponent fields of the key of x^a d_i."""
    total = 0
    for x in w:
        total += (key & _FIELD) * x
        key >>= _W
    return total


def exp_ad_apply(u: LieElem, v: LieElem) -> LieElem:
    """Apply exp(ad u) to v, summing (ad u)^k v / k! until a term vanishes.

    Weigh x^a d_i by sum_j a_j w_j - w_i, where w_1 = 1 and w_i is 1 + the
    largest sum_j a_j w_j over the terms x^a d_i of u, or 1 if there are
    none.  Terms of u weigh <= -1, basis elements >= -max_i w_i, and both
    terms of [x^a d_i, x^b d_j] = b_i x^(a+b-e_i) d_j - a_j x^(a+b-e_j) d_i
    weigh the sum of the weights of x^a d_i and x^b d_j.  So (ad u)^k v = 0
    for k > top(v) + max_i w_i, where top(v) is the largest weight of a
    term of v.  Passing that bound is a bug and raises InternalError.

    One integer series: T_k = (ad u)^k v stays the raw numerators of ``_ad``
    over v._den u._den^k, with no gcd and no 1/k!.  With T_K the last
    nonzero term, T_0..T_K are added into one dict, ascending, each times
    (K!/k!) u._den^(K-k), over v._den u._den^K K!, and reduced once.
    """
    u._require_same_rank(v)
    n = u.n
    top = _W * n
    w = [1] * n  # w[i - 1] is w_i, read from w_1..w_{i-1}: ascending i
    for key in sorted(u._nums, reverse=True):  # the larger key, the smaller i
        i = n - (key >> top)
        w[i - 1] = max(w[i - 1], 1 + _weigh(key, w))
    cap = max([_weigh(key, w) - w[n - 1 - (key >> top)] for key in v._nums],
              default=0) + max(w) + 1
    terms, nums, acc = [], v._nums, {}
    while nums:
        terms.append(nums)
        if len(terms) > cap:
            raise InternalError("exp(ad u) failed to terminate within its bound")
        nums = _ad(u, nums)
    weights = [1]  # of T_K, T_{K-1}, ..., T_0
    for k in range(len(terms) - 1, 0, -1):
        weights.append(weights[-1] * k * u._den)
    for nums, m in zip(terms, reversed(weights)):
        _add_terms(acc, [(key, c * m) for key, c in nums.items()])
    return _new(n, *_lowest(v._den * weights[-1], acc))


# -- generators and the center ------------------------------------------------


def iter_basis_keys(n: int, max_degree: int) -> Iterator[Key]:
    """All basis keys of rank n with |alpha| <= max_degree, ascending index."""
    for i in range(1, n + 1):
        for alpha in iter_exponents(i - 1, max_degree):
            yield (alpha, i)


def _generator_keys(n: int, max_exponent: int) -> list[int]:
    """The packed keys of the standard generators."""
    _check_limit(max_exponent, "generator")
    return [_tag(n, 1)] + [(j << _W * (i - 2)) + _tag(n, i)
                           for i in range(2, n + 1)
                           for j in range(max_exponent + 1)]


def standard_generators(n: int, max_exponent: int) -> list[LieElem]:
    """d_1 together with x_{i-1}^j d_i for 2 <= i <= n, 0 <= j <= max_exponent."""
    return [_new(n, 1, {key: 1}) for key in _generator_keys(n, max_exponent)]


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int
               ) -> dict[int, int]:
    """a*row - b*pivot with the smallest integers a, b that clear col,
    divided by the content of the result."""
    p, c = pivot[col], row[col]
    g = math.gcd(p, c)
    a, b = p // g, c // g
    out = {k: a * v for k, v in row.items()}
    for k, v in pivot.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            del out[k]
    g = math.gcd(*out.values()) if out else 1
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def _nullspace(rows: Iterable[dict[int, int]], ncols: int
               ) -> list[dict[int, Fraction]]:
    """Basis of the solutions of rows * x = 0 read off the reduced row
    echelon form: one vector per free column, ascending, with 1 at its
    free column and its nonzero entries only.

    Each row maps columns to nonzero ints.  A row is reduced by the pivot
    rows of its smallest column, ascending, until it vanishes or its
    smallest column becomes a new pivot; then each pivot row, the largest
    pivot first, is cleared of the other pivot columns.  The updates keep
    integers (``_eliminate``), so each pivot row ends as a multiple of its
    row of the reduced echelon form.  That form is unique, whatever the
    order of the rows, so the ratios read at the end are its entries.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            row = _eliminate(row, pivot, col)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for other in [k for k in row if k != col and k in pivots]:
            row = _eliminate(row, pivots[other], other)
        pivots[col] = row
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = {free: Fraction(1)}
            for col, row in pivots.items():
                if free in row:
                    vec[col] = Fraction(-row[free], row[col])
            basis.append(vec)
    return basis


def center_solve(n: int, max_degree: int) -> list[LieElem]:
    """Solve for elements of degree <= max_degree commuting with every
    standard generator of exponent <= max_degree + 1.

    Returns a basis of the solution space, each element scaled so its
    leading coefficient is 1.

    The unknowns are the coefficients of the basis derivations of degree
    <= max_degree.  Each generator is one basis derivation with
    coefficient 1, so [x^a d_i, g] is one term with an integer structure
    constant, and the equations, one per generator and output key, have
    integer coefficients.  ``_nullspace`` solves them without fractions
    and returns the reduced-echelon basis.
    """
    if max_degree < 0:
        raise DomainError("degree bound must be nonnegative")
    if n < 2:
        raise DomainError("rank must be at least 2")
    # Each bracket has degree at most max_degree + (max_degree + 1) - 1.
    _check_limit(2 * max_degree, "bracket")
    top = _W * n
    mask = (1 << top) - 1
    # The generators with their n - j, as bracket reads them.
    gens = [(kb, kb >> top) for kb in _generator_keys(n, max_degree + 1)]
    keys = []
    equations: dict[tuple[int, int], dict[int, int]] = {}
    for pos, (alpha, i) in enumerate(iter_basis_keys(n, max_degree)):
        a = _pack(alpha)
        ka = a + _tag(n, i)
        ta = n - i
        si = _W * (i - 1)
        keys.append(ka)
        for g_idx, (kb, tb) in enumerate(gens):
            # [x^a d_i, g] is one term, as in bracket
            if ta > tb:
                factor, out_key = kb >> si & _FIELD, a + kb - (1 << si)
            elif ta < tb:
                sj = _W * (n - 1 - tb)
                factor, out_key = -(ka >> sj & _FIELD), (kb & mask) + ka - (1 << sj)
            else:
                continue
            if factor:
                # one (basis key, generator) pair gives one term, so each
                # entry is set once
                equations.setdefault((g_idx, out_key), {})[pos] = factor

    out = []
    for vec in _nullspace(equations.values(), len(keys)):
        elem = _new(n, *_over_lcm({keys[pos]: c for pos, c in vec.items()}))
        lead, _ = leading_term(elem)
        out.append(elem.scale(1 / lead))
    out.sort(key=lambda e: max(e._nums))
    return out


# -- canonical text -----------------------------------------------------------


def format_lie(u: LieElem) -> str:
    """Canonical text: terms in descending basis order, e.g. "3*x1*d2 + d2"."""
    terms = []
    for key in sorted(u.terms, key=key_sort_key, reverse=True):
        alpha, i = key
        mono = format_monomial(alpha)
        terms.append((f"{mono}*d{i}" if mono else f"d{i}", u.terms[key]))
    return _format_terms(terms)
