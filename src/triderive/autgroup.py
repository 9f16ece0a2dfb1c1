"""The automorphism group of the triangular derivation algebra, in
canonical coordinates.

Every automorphism factors uniquely into commuting-frame data: a torus
part t (coordinate scalings), a triangular part tau, a shift part s, a
unit series f acting on the top coefficient through d/dx_{n-1}, and a
tuple e of no-constant series feeding lower coefficients into the top
one.  Two coordinate layouts are supported:

  Form A:  sigma = t . tau . s . f . e      (tau with no constant terms,
           s a shift of x1..x_{n-2}, f a unit series)
  Form B:  sigma = tau . t . e . f          (tau unipotent modulo shifts
           of x_n, the shift data absorbed into tau, f without linear
           term)

The group is T^n . (UAut_K(P_n)_n . (F'_n x E_n)), and the group law
uses two facts of it as they are: f and e commute, as F'_n x E_n is a
direct product, and moving them past a triangular part leaves
exp(c d_n) with c in K[x_1..x_{n-1}], the translation x_n -> x_n + c.

Form A is what the black-box decomposition produces; Form B is where
the closed multiplication formula lives.  ``act`` evaluates either form
on a derivation through the element's frame map, its whole triangular
factor as one automorphism.  ``decompose`` recovers Form A coordinates
from action queries alone: the frame map t . tau . s sends the origin
to (s_1, ..., s_{n-2}, 0, 0), so each coordinate is read as one
constant of one probe image at that point, and the assembled element
must reproduce the action exactly on every probe.  ``convert_form``
moves between the two layouts.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, InternalError
from .lie import (LieElem, _join, _new, _tag, bracket, exp_ad_apply,
                  standard_generators)
from .poly import (_W, DEFAULT_ORDER, RatLike, _add_terms,
                   _check_limit, _Keyed, _lowest, rat)
from .series import OpSeries, _derivative_terms, _scaled, _shifted, _through
from .triaut import (TriAut, _conjugated, conjugate_derivation,
                     normalize_mod_shn, reconstruct_from_frames,
                     split_ct_shift)


class GnElem(_Keyed):
    """Immutable group element in canonical coordinates (Form A or B).

    The element builds its frame map, the whole triangular factor (torus
    included) as one automorphism, once, on the first ``act`` that needs
    it, and keeps it for its lifetime, with the caches that conjugation
    fills on that map and the integer series coefficients ``act`` reads.
    """

    __slots__ = ("n", "form", "t", "tau", "s", "f", "e", "_frame", "_act")

    def __init__(self, n: int, form: str, t: Sequence[RatLike], tau: TriAut,
                 s: Sequence[RatLike] | None, f: OpSeries,
                 e: Sequence[OpSeries]):
        if n < 2:
            raise DomainError("rank must be at least 2")
        if form not in ("A", "B"):
            raise DomainError(f"unknown form {form!r}")
        tvals = tuple(rat(c) for c in t)
        if len(tvals) != n or any(not c for c in tvals):
            raise DomainError("torus part needs n nonzero scales")
        if tau.n != n:
            raise DomainError("triangular part has the wrong rank")
        evals = tuple(e)
        if len(evals) != n - 2:
            raise DomainError("need one feed series per index 2..n-1")
        for k, series in enumerate(evals):
            if series.kind != "E" or series.var != k + 1:
                raise DomainError(
                    f"feed series for index {k + 2} must be no-constant in d{k + 1}")
        if f.var != n - 1:
            raise DomainError("the unit series must live in the last inner symbol")
        if form == "A":
            if s is None:
                raise DomainError("Form A carries shift data")
            svals: tuple[Fraction, ...] | None = tuple(rat(c) for c in s)
            if len(svals) != n - 2:
                raise DomainError("shift part needs n-2 entries")
            if not tau.is_ct():
                raise DomainError(
                    "Form A triangular part must fix x1 and have no constant terms")
            if f.kind != "F":
                raise DomainError("Form A unit series must be of kind F")
        else:
            if s is not None:
                raise DomainError("Form B absorbs the shift data into tau")
            svals = None
            if not tau.is_normalized_unipotent():
                raise DomainError(
                    "Form B triangular part must be unipotent with no constant "
                    "term in its last translation")
            if f.kind != "FP":
                raise DomainError("Form B unit series must lack a linear term")
        self.n = n
        self.form = form
        self.t = tvals
        self.tau = tau
        self.s = svals
        self.f = f
        self.e = evals
        self._frame = self._act = self._key_cache = None

    @staticmethod
    def identity(n: int, form: str = "A") -> GnElem:
        if n < 2:
            raise DomainError("rank must be at least 2")
        f = OpSeries.one(n - 1, "F" if form == "A" else "FP")
        e = [OpSeries.zero_e(k + 1) for k in range(n - 2)]
        s = [Fraction(0)] * (n - 2) if form == "A" else None
        return GnElem(n, form, [1] * n, TriAut.identity(n), s, f, e)

    def is_identity(self) -> bool:
        return (all(c == 1 for c in self.t) and self.tau.is_identity()
                and (self.s is None or not any(self.s))
                and self.f.is_one() and all(x.is_zero_e() for x in self.e))

    def _fields(self) -> tuple:
        return self.n, self.form, self.t, self.tau, self.s, self.f, self.e

    def agrees_with(self, other: GnElem, through: int | None = None) -> bool:
        """Structural equality with series compared through the common order."""
        if (self.n, self.form, self.t, self.tau, self.s) != \
                (other.n, other.form, other.t, other.tau, other.s):
            return False
        if not self.f.agrees_with(other.f, through):
            return False
        return all(a.agrees_with(b, through) for a, b in zip(self.e, other.e))

    def _frame_map(self) -> TriAut:
        """The triangular factor as one map, built once: t . tau . s in
        Form A, tau . t in Form B."""
        frame = self._frame
        if frame is None:
            tt = TriAut.torus(self.t)
            if self.s is None:
                frame = self.tau.compose(tt)
            else:
                frame = tt.compose(self.tau)
                if any(self.s):
                    frame = frame.compose(TriAut.shift(self.s + (0, 0)))
            self._frame = frame
        return frame

    def _act_constants(self) -> tuple:
        """The frame map, or None for the identity, and ``_scaled`` of f and
        e: what ``act`` reads, built on its first call, after decompose."""
        if self._act is None:
            frame = self._frame_map()
            self._act = (None if frame.is_identity() else frame,
                         *_scaled((self.f, *self.e)))
        return self._act

    def __repr__(self) -> str:
        return (f"GnElem(n={self.n}, form={self.form!r}, t={self.t}, "
                f"tau={self.tau!r}, s={self.s}, f={self.f!r}, e={self.e!r})")


# -- evaluating the action ------------------------------------------------------


def act(g: GnElem, u: LieElem) -> LieElem:
    """Evaluate the automorphism on a derivation.

    One pass over u's integer numerators applies the series factors, and
    one conjugation by the frame map, which g builds once and keeps,
    applies the whole triangular factor and writes the result's keys
    straight into one dict; no polynomial is built between.
    The series steps commute in both forms: f rewrites only p_n, through
    d/dx_{n-1}, the feeds read only p_2..p_{n-1} and add to p_n terms in
    x_1..x_{n-2}, which d/dx_{n-1} kills.  So f is applied to p_n, and
    then each feed e_i, through d/dx_{i-1}, to p_i, the result added to
    p_n.  Every term x^a yields its derivatives a!/(a-k)! x^(a-k) with
    the series coefficients over one common denominator.  A series must
    be stored through the degree of its coefficient in its symbol; f is
    checked first, then the feeds in order.  That degree is the top field
    of the coefficient's largest key: f reads p_n and e_i reads p_i, whose
    top variable is the series' own symbol, x_{n-1} and x_{i-1}, so the
    key with the most of it is the largest, whatever its lower fields.
    """
    if g.n != u.n:
        raise DomainError(f"mixed ranks: {g.n} vs {u.n}")
    parts = u._parts()
    # Each live series, its place j in (f, *e) and the coefficient it reads
    # (f p_n, e_i p_i), checked before g's constants may build the frame map.
    live = []
    for j, series in enumerate((g.f, *g.e)):
        part = parts[j] if j else parts[-1]
        if part:
            need = max(part) >> _W * (series.var - 1)
            series._require_order(need)
            live.append((series, j, part, need))
    frame, scale, pairs = g._act_constants()
    den = u._den
    if live:
        # p_n gets a dict of its own: f reads the one it had.
        if scale != 1:
            den *= scale
            parts = [part and {exps: c * scale for exps, c in part.items()}
                     for part in parts]
        else:
            parts[-1] = dict(parts[-1])
        top = parts[-1]
        # Each feed is summed apart, then into the sum of the feeds, then
        # into p_n, as Poly sums would: the order of the terms of p_n
        # decides which term the frame's substitution refuses first.
        feeds: dict[int, int] = {}
        for series, j, part, need in live:
            terms = _derivative_terms(series.var, pairs[j], need, part)
            if series.kind == "E":
                _add_terms(feeds, _add_terms({}, terms).items())
            else:
                _add_terms(top, terms)
        _add_terms(top, feeds.items())
    if frame is not None:
        return _conjugated(frame, den, parts)
    return _join(g.n, den, parts)


class AutoAction:
    """A rank-n automorphism action given only as a black-box evaluator.

    Results are memoized, so repeated probes of the same derivation are
    free; the evaluator must be deterministic.
    """

    __slots__ = ("n", "_fn", "_memo")

    def __init__(self, n: int, fn: Callable[[LieElem], LieElem]):
        if n < 2:
            raise DomainError("rank must be at least 2")
        self.n = n
        self._fn = fn
        self._memo = {}

    def __call__(self, u: LieElem) -> LieElem:
        if u.n != self.n:
            raise DomainError(f"probe has rank {u.n}, action has rank {self.n}")
        out = self._memo.get(u)
        if out is None:
            out = self._fn(u)
            if not isinstance(out, LieElem) or out.n != self.n:
                raise DomainError("action evaluator returned a foreign value")
            self._memo[u] = out
        return out

    @staticmethod
    def from_triaut(sigma: TriAut) -> AutoAction:
        return AutoAction(sigma.n, lambda u: conjugate_derivation(sigma, u))

    @staticmethod
    def from_gnelem(g: GnElem) -> AutoAction:
        return AutoAction(g.n, lambda u: act(g, u))

    @staticmethod
    def composed(outer: AutoAction, inner: AutoAction) -> AutoAction:
        if outer.n != inner.n:
            raise DomainError("composing actions of different ranks")
        return AutoAction(outer.n, lambda u: outer(inner(u)))


def exp_ad_auto(u: LieElem) -> AutoAction:
    """The action exp(ad u), evaluated termwise through the bracket."""
    return AutoAction(u.n, lambda v: exp_ad_apply(u, v))


# -- recovering coordinates from the action --------------------------------------


@functools.cache
def _spot_pairs(n: int, degree: int) -> tuple[tuple, ...]:
    """The spot check's 20 generator pairs at rank n, with exponents up to
    degree: random.Random(7042) draws the same pairs, in the same order,
    for each (n, degree), so they are built once.  Each is (u, v, c1, c2,
    c1 u + c2 v, [u, v])."""
    gens = standard_generators(n, degree)
    scalars = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]
    rng = random.Random(7042)
    pairs = []
    for _ in range(20):
        u, v = rng.choice(gens), rng.choice(gens)
        c1, c2 = rng.choice(scalars), rng.choice(scalars)
        pairs.append((u, v, c1, c2, u.scale(c1) + v.scale(c2), bracket(u, v)))
    return tuple(pairs)


def _spot_check(action: AutoAction, order: int) -> None:
    """Cheap sanity probes: the action must be linear and respect brackets
    on 20 generator pairs before we trust it with a decomposition.  The
    pairs are fixed for each rank and order, and built once.  The
    generators have exponents up to 3, and no more than the order, so
    that series stored through the order suffice."""
    for u, v, c1, c2, combo, uv in _spot_pairs(action.n, min(3, order)):
        if action(combo) != action(u).scale(c1) + action(v).scale(c2):
            raise DomainError("action is not linear on generators")
        if action(uv) != bracket(action(u), action(v)):
            raise DomainError("action does not respect brackets on generators")


def _probe(n: int, i: int, k: int, shift: Fraction = Fraction(0)) -> LieElem:
    """(x_{i-1} - shift)^k / k! d_i, expanded.  With -shift = p/q, the
    x_{i-1}^j term is C(k, j) p^(k-j) q^j over q^k k!."""
    _check_limit(k, "probe")
    p, q = -shift.numerator, shift.denominator
    field, tag = _W * (i - 2), _tag(n, i)
    nums = {(j << field) + tag: c for j in range(k + 1)
            if (c := math.comb(k, j) * p ** (k - j) * q ** j)}
    return _new(n, *_lowest(q ** k * math.factorial(k), nums))


def decompose(action: AutoAction, order: int = DEFAULT_ORDER) -> GnElem:
    """Recover Form A coordinates of an automorphism from action queries.

    After a spot check of linearity and brackets on generator pairs,
    fixed for each rank and order and built once, the images of d_1..d_n
    fix the torus and the triangular part together, as the frame map
    t . tau, which the result keeps.  The frame map t . tau . s sends
    the origin to (s_1, ..., s_{n-2}, 0, 0), so every other coordinate
    is t_i times one constant: that of the d_i coefficient of the image
    of a probe whose series factors leave a known value at that point.
    Series data is recovered through the given order; everything else
    is exact.  The assembled element must then reproduce the action on
    every probe, or DomainError is raised: the black box is not an
    automorphism action of the expected triangular shape.
    """
    n = action.n
    if order < 1:
        raise DomainError("order must be at least 1")
    _spot_check(action, order)

    # The images of d_i are the frame of t . tau, scaled by 1/t_i.
    probes = [LieElem.d(n, i) for i in range(1, n + 1)]
    tt_tau = reconstruct_from_frames([action(u) for u in probes])
    t = tt_tau.lam
    tau = TriAut.torus(tuple(1 / c for c in t)).compose(tt_tau)
    if not tau.is_ct():
        raise InternalError("frame reconstruction left constant terms")

    def read(u: LieElem, i: int) -> Fraction:
        """t_i times the constant term of the d_i coefficient of action(u);
        u joins the probes that the result is checked on."""
        probes.append(u)
        return t[i - 1] * action(u)._coefficient(_tag(n, i))

    # Shift: x_i d_{i+1} takes the value s_i at the point.
    s = tuple(read(_probe(n, i + 1, 1), i + 1) for i in range(1, n - 1))
    # Unit series: f sends x_{n-1}^k / k! to f_k at the point.
    f = OpSeries("F", n - 1, order,
                 {k: read(_probe(n, n, k), n) for k in range(1, order + 1)})
    # Feeds: the probe vanishes at the point and leaves e_{i,k} in the d_n
    # slot, which f, acting through d/dx_{n-1}, does not touch.
    e = [OpSeries("E", i - 1, order,
                  {k: read(_probe(n, i, k, s[i - 2]), n)
                   for k in range(1, order + 1)})
         for i in range(2, n)]

    g = GnElem(n, "A", t, tau, s, f, e)
    # g's frame map t . tau . s is the recovered t . tau, then the shift.
    g._frame = tt_tau.compose(TriAut.shift(s + (0, 0))) if any(s) else tt_tau
    for u in probes:
        if act(g, u) != action(u):
            raise DomainError(f"the decomposition does not reproduce the "
                              f"action on the probe {u}")
    return g


# -- changing coordinate layouts --------------------------------------------------


def convert_form(g: GnElem, target: str, order: int | None = None) -> GnElem:
    """Rewrite between Form A and Form B.

    Form A keeps a shift of x_{n-1} by c, f's linear coefficient, in f
    as the factor exp(c*D), where Form B keeps it in tau.  For c != 0
    moving it leaves an infinite series, kept through the order as
    ``_shifted`` says; f otherwise moves as stored, all else is exact.
    """
    if target not in ("A", "B"):
        raise DomainError(f"unknown form {target!r}")
    if target == g.form:
        return g
    n = g.n
    tt = TriAut.torus(g.t)
    if target == "B":
        c = g.f.coefficient(1)
        frame = g._frame_map()
        if c:
            frame = frame.compose(TriAut.one_shift(n, n - 1, c))
        tau_b = normalize_mod_shn(frame.compose(tt.invert()))
        return GnElem(n, "B", g.t, tau_b, None, _shifted(g.f, -c, order, "FP"),
                      g.e)

    unipotent = tt.invert().compose(g.tau).compose(tt)
    tau_a, mu = split_ct_shift(unipotent)
    if mu[n - 1]:
        raise InternalError("normalized element produced a last-coordinate shift")
    return GnElem(n, "A", g.t, tau_a, tuple(mu[: n - 2]),
                  _shifted(g.f, mu[n - 2], order, "F"), g.e)


def _conjugation_element(sigma: TriAut) -> GnElem:
    """The element that acts as conjugation by sigma, built exactly, in
    Form B: the element of T^n . UAut_K(P_n)_n with t = lambda, tau =
    sigma . torus(lambda)^(-1) modulo shifts of x_n, f = 1 and e = 0."""
    one = GnElem.identity(sigma.n, "B")
    tau = normalize_mod_shn(sigma.compose(TriAut.torus(sigma.lam).invert()))
    return GnElem(sigma.n, "B", sigma.lam, tau, None, one.f, one.e)


# -- the closed multiplication ------------------------------------------------------


def multiply_formula(g: GnElem, h: GnElem) -> GnElem:
    """Product of two Form B elements, directly in coordinates.

    Sliding g's commuting series factors through h's unipotent part
    deposits exp(c d_n) with c = (f_g - 1)(b_n) + sum_i e_{g,i}(b_i),
    where the b_i are h's translation parts.  c lies in K[x_1..x_{n-1}],
    so exp(c d_n) is the translation x_n -> x_n + c, and as b_n does not
    use x_n, exp(c d_n) h.tau is h.tau with c added to b_n.  After that
    only torus rescalings and coefficient-wise series arithmetic remain.
    """
    if g.form != "B" or h.form != "B":
        raise DomainError("the multiplication formula needs Form B inputs")
    if g.n != h.n:
        raise DomainError(f"mixed ranks: {g.n} vs {h.n}")
    n = g.n

    b = h.tau.a
    c = g.f.apply_without_unit(b[n - 1])
    for k, series in enumerate(g.e):
        if b[k + 1]:
            c = c + series.apply(b[k + 1])

    tt = TriAut.torus(g.t)
    tau_h = TriAut(b[:-1] + (b[-1] + c,)) if c else h.tau
    tau_new = normalize_mod_shn(
        g.tau.compose(tt.compose(tau_h).compose(tt.invert())))

    t_new = tuple(a * b2 for a, b2 in zip(g.t, h.t))

    e_new = []
    for k, series in enumerate(g.e):
        i = k + 2
        moved = series.scale_coeffs(h.t[n - 1] / h.t[i - 1]) \
                      .scale_powers(h.t[i - 2])
        e_new.append(moved.add_e(h.e[k]))

    # FP times FP has no linear term, so the product stays of kind FP.
    f_new = g.f.scale_powers(h.t[n - 2]).mul(h.f)

    return GnElem(n, "B", t_new, tau_new, None, f_new, e_new)


def gn_inverse(g: GnElem, order: int | None = None) -> GnElem:
    """Group inverse: in Form B, g = tau . t . e . f with e and f
    commuting, so g^(-1) is the Form B element (f^(-1), -e) times t^(-1)
    times tau^(-1), joined by the multiplication formula.  f^(-1), unless
    f = 1, is infinite and kept through ``_through``."""
    gb = convert_form(g, "B", order)
    n = gb.n

    one = GnElem.identity(n, "B")
    f_inv = gb.f.reciprocal(_through(order, gb.f.order))
    out = GnElem(n, "B", one.t, one.tau, None, f_inv,
                 [series.negate_e() for series in gb.e])
    for t, tau in (([1 / c for c in gb.t], one.tau),
                   (one.t, normalize_mod_shn(gb.tau.invert()))):
        out = multiply_formula(out, GnElem(n, "B", t, tau, None, one.f, one.e))
    if g.form == "A":
        return convert_form(out, "A", order)
    return out
