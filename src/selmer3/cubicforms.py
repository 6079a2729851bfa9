"""Binary cubic forms, the twisted GL2 action, and the correspondence with
cubic rings.

A form f = a x^3 + b x^2 y + c x y^2 + d y^3 with exact rational
coefficients corresponds to the rank-3 ring on basis (1, w, t) with

    w*t = -a*d,   w^2 = -a*c + b*w - a*t,   t^2 = -b*d + d*w - c*t,

the translation-normalized multiplication table (w*t lands in the base
ring).  The table is commutative, associative for every (a, b, c, d), and
its trace-form discriminant equals disc(f) identically, which is what the
round-trip tests pin down.

Every coefficient of a form, a matrix or a ring table is exact, and is
held as an `int` when it is integral and as a `Fraction` only where a
denominator remains; `_exact` is the one place that rule is applied, and
the constructors call it.  The formulas are the same on both types, so
an integral form's ring, its subrings and its integral translates are
computed in integer arithmetic.  The two divisions on these values,
`act`'s division by the determinant and `oracle.order_from_lattice`'s
change of basis, go through `_exact_div`, which returns a // b when b
divides a and a Fraction otherwise.  A float never appears.

Three routines here are the single copy of a decision that other modules
(the oracle among them) call rather than repeat: `discriminant` is the
discriminant polynomial, `linear_substitution` the closed form of
f(m00 x + m10 y, m01 x + m11 y) on which the twisted GL2 action and
the SL2(F_p) orbit scan are built, and `_root_multiplicities` the zeros
of a form over F_p with their multiplicities, from which the projective
roots, the splitting type and the form scan's root pattern are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import DomainError
from .localfield import Place, Rational, _proven_prime
from .twistfamilies import factorize


def _exact(x: Rational) -> Rational:
    """x as an int when it is integral and as a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact_div(a: Rational, b: Rational) -> Rational:
    """a / b exactly: a // b when b divides a, a Fraction otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(Fraction(a) / Fraction(b))


def discriminant(a, b, c, d):
    """disc(a x^3 + b x^2 y + c x y^2 + d y^3), on ints and Fractions alike."""
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


@dataclass(frozen=True)
class BinaryCubicForm:
    """a x^3 + b x^2 y + c x y^2 + d y^3; each coefficient an int when it is
    integral and a Fraction otherwise (`_exact`)."""

    a: Rational
    b: Rational
    c: Rational
    d: Rational

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational):
        object.__setattr__(self, "a", _exact(a))
        object.__setattr__(self, "b", _exact(b))
        object.__setattr__(self, "c", _exact(c))
        object.__setattr__(self, "d", _exact(d))

    def coefficients(self) -> tuple[Rational, Rational, Rational, Rational]:
        return (self.a, self.b, self.c, self.d)

    def discriminant(self) -> Rational:
        """disc, an int for an integral form; otherwise the integer disc of
        the form times the lcm L of the denominators, divided by L^4."""
        a, b, c, d = self.a, self.b, self.c, self.d
        den = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        if den == 1:
            return discriminant(a, b, c, d)
        return Fraction(discriminant(*(t.numerator * (den // t.denominator) for t in (a, b, c, d))), den**4)

    def swap(self) -> "BinaryCubicForm":
        """f(y, x); the involution pairing the two SL2-orbits of a field."""
        return BinaryCubicForm(self.d, self.c, self.b, self.a)

    def scale(self, s: Rational) -> "BinaryCubicForm":
        s = _exact(s)
        return BinaryCubicForm(s * self.a, s * self.b, s * self.c, s * self.d)

    def is_integral(self) -> bool:
        return all(t.denominator == 1 for t in self.coefficients())

    def is_p_integral(self, p: int | Place) -> bool:
        """Whether p divides no denominator, for a prime p or the finite
        `Place` at p, which has proven it."""
        p = _proven_prime(p)
        return all(t.denominator % p for t in self.coefficients())

    def reduce_mod(self, p: int | Place) -> tuple[int, int, int, int]:
        if not self.is_p_integral(p):
            raise DomainError(f"form is not {p}-integral")
        if isinstance(p, Place):
            p = p.p
        out = []
        for t in self.coefficients():
            out.append(t.numerator * pow(t.denominator, -1, p) % p)
        return tuple(out)  # type: ignore[return-value]

    def to_json_obj(self) -> list[str]:
        return [str(t) for t in self.coefficients()]

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c}, {self.d})"


@dataclass(frozen=True)
class TwoByTwoMatrix:
    a: Rational
    b: Rational
    c: Rational
    d: Rational

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational):
        object.__setattr__(self, "a", _exact(a))
        object.__setattr__(self, "b", _exact(b))
        object.__setattr__(self, "c", _exact(c))
        object.__setattr__(self, "d", _exact(d))

    def det(self) -> Rational:
        return self.a * self.d - self.b * self.c

    def mul(self, other: "TwoByTwoMatrix") -> "TwoByTwoMatrix":
        return TwoByTwoMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "TwoByTwoMatrix":
        return TwoByTwoMatrix(1, 0, 0, 1)


def linear_substitution(a, b, c, d, m00, m01, m10, m11):
    """Coefficients of f(m00 x + m10 y, m01 x + m11 y) for f = (a, b, c, d),
    expanded in closed form; the entries may come from any commutative
    ring."""
    return (
        a * m00**3 + b * m00**2 * m01 + c * m00 * m01**2 + d * m01**3,
        3 * a * m00**2 * m10
        + b * (m00**2 * m11 + 2 * m00 * m01 * m10)
        + c * (2 * m00 * m01 * m11 + m01**2 * m10)
        + 3 * d * m01**2 * m11,
        3 * a * m00 * m10**2
        + b * (2 * m00 * m10 * m11 + m01 * m10**2)
        + c * (m00 * m11**2 + 2 * m01 * m10 * m11)
        + 3 * d * m01 * m11**2,
        a * m10**3 + b * m10**2 * m11 + c * m10 * m11**2 + d * m11**3,
    )


def act(gamma: TwoByTwoMatrix, f: BinaryCubicForm) -> BinaryCubicForm:
    """(gamma . f)(x, y) = f(a x + c y, b x + d y) / det(gamma).

    Satisfies disc(gamma . f) = det(gamma)^2 disc(f) and composes as a left
    action.
    """
    det = gamma.det()
    if det == 0:
        raise DomainError("singular matrix cannot act on forms")
    moved = linear_substitution(f.a, f.b, f.c, f.d, gamma.a, gamma.b, gamma.c, gamma.d)
    return BinaryCubicForm(*(_exact_div(t, det) for t in moved))


# ----------------------------------------------------------------------
# Cubic rings
# ----------------------------------------------------------------------

Triple = tuple[Rational, Rational, Rational]


def _triple(x0, x1, x2) -> Triple:
    return (_exact(x0), _exact(x1), _exact(x2))


@dataclass(frozen=True)
class CubicRing:
    """Rank-3 algebra on basis (1, w, t): stores the products w^2, w*t, t^2
    as coordinate triples over that basis, each coordinate an int when it
    is integral and a Fraction otherwise (the constructor applies
    `_exact`, so a table computed in Fractions is stored the same way as
    one computed in ints).  The table is commutative and unital by
    representation; `validate()` verifies associativity and runs on every
    untrusted input path.

    Two identities suffice.  The associator [x, y, z] = (xy)z - x(yz) is
    trilinear, so it vanishes everywhere once it vanishes on basis triples,
    and on any triple containing 1 it vanishes because 1 is the unit.  In a
    commutative table [x, y, x] = (xy)x - x(yx) = x(xy) - x(xy) = 0, which
    disposes of (w, w, w), (w, t, w), (t, w, t) and (t, t, t), and
    [z, y, x] = -[x, y, z], which reduces (t, w, w) and (t, t, w) to the two
    triples left: (w*w)*t = w*(w*t) and (w*t)*t = w*(t*t)."""

    ww: Triple
    wt: Triple
    tt: Triple

    def __post_init__(self) -> None:
        object.__setattr__(self, "ww", _triple(*self.ww))
        object.__setattr__(self, "wt", _triple(*self.wt))
        object.__setattr__(self, "tt", _triple(*self.tt))

    def validate(self) -> "CubicRing":
        ww, wt, tt = self.ww, self.wt, self.tt

        def times_t(x):
            # x*t = x0*t + x1*(w*t) + x2*(t*t)
            x0, x1, x2 = x
            return (x1 * wt[0] + x2 * tt[0], x1 * wt[1] + x2 * tt[1], x0 + x1 * wt[2] + x2 * tt[2])

        def w_times(x):
            # w*x = x0*w + x1*(w*w) + x2*(w*t)
            x0, x1, x2 = x
            return (x1 * ww[0] + x2 * wt[0], x0 + x1 * ww[1] + x2 * wt[1], x1 * ww[2] + x2 * wt[2])

        if times_t(ww) != w_times(wt) or times_t(wt) != w_times(tt):
            raise DomainError("multiplication table is not associative")
        return self

    def mul(self, x: Triple, y: Triple) -> Triple:
        x0, x1, x2 = x
        y0, y1, y2 = y
        # coefficients of w*w, w*t and t*t in the product
        c_ww, c_wt, c_tt = x1 * y1, x1 * y2 + x2 * y1, x2 * y2
        ww, wt, tt = self.ww, self.wt, self.tt
        return (
            x0 * y0 + c_ww * ww[0] + c_wt * wt[0] + c_tt * tt[0],
            x0 * y1 + x1 * y0 + c_ww * ww[1] + c_wt * wt[1] + c_tt * tt[1],
            x0 * y2 + x2 * y0 + c_ww * ww[2] + c_wt * wt[2] + c_tt * tt[2],
        )

    def _basis_traces(self) -> tuple[Rational, Rational]:
        # Tr(w) and Tr(t), read off the diagonal of the multiplication maps
        return self.ww[1] + self.wt[2], self.wt[1] + self.tt[2]

    def trace(self, z: Triple) -> Rational:
        # Tr is linear and Tr(1) = 3
        tr_w, tr_t = self._basis_traces()
        return 3 * z[0] + z[1] * tr_w + z[2] * tr_t

    def discriminant(self) -> Rational:
        # determinant of the trace-form Gram matrix on (1, w, t), whose
        # entries 3, Tr(w), Tr(t), Tr(ww), Tr(wt), Tr(tt) come off the table
        tr_w, tr_t = self._basis_traces()
        ww, wt, tt = (3 * z[0] + z[1] * tr_w + z[2] * tr_t for z in (self.ww, self.wt, self.tt))
        return 3 * (ww * tt - wt * wt) - tr_w * (tr_w * tt - wt * tr_t) + tr_t * (tr_w * wt - ww * tr_t)


def form_to_ring(f: BinaryCubicForm, p: int | Place | None = None) -> CubicRing:
    """The cubic ring whose index form is f.  Requires integral
    coefficients (p-integral when a prime or its `Place` is given): the
    correspondence is over a PID."""
    if p is None:
        if not f.is_integral():
            raise DomainError("form must have integral coefficients")
    else:
        if not f.is_p_integral(p):
            raise DomainError(f"form must be {p}-integral")
    a, b, c, d = f.coefficients()
    return CubicRing(ww=(-a * c, b, -a), wt=(-a * d, 0, 0), tt=(-b * d, d, -c))


def ring_to_form(ring: CubicRing) -> BinaryCubicForm:
    """Inverse of form_to_ring.  The basis is first translated so that w*t
    lies in the base ring, then the coefficients are read off; a table that
    cannot be matched is rejected."""
    alpha, beta = ring.wt[1], ring.wt[2]  # w*t = n + alpha*w + beta*t
    if alpha != 0 or beta != 0:
        # (w - beta)(t - alpha) lands in the base ring
        ring = translate_basis(ring, -beta, -alpha)
    a = -ring.ww[2]
    b = ring.ww[1]
    c = -ring.tt[2]
    d = ring.tt[1]
    # the table of form_to_ring(f), entry by entry past the four read above
    if ring.ww[0] != -a * c or ring.wt != (-a * d, 0, 0) or ring.tt[0] != -b * d:
        raise DomainError("structure constants do not define a cubic ring of a form")
    return BinaryCubicForm(a, b, c, d)


def translate_basis(ring: CubicRing, s: Rational, t: Rational) -> CubicRing:
    """The same ring on the basis (1, w + s, t + t')."""
    s, t = _exact(s), _exact(t)
    w, th = (s, 1, 0), (t, 0, 1)
    # products of the new basis, still in old coordinates
    ww = ring.mul(w, w)
    wt = ring.mul(w, th)
    tt = ring.mul(th, th)

    def to_new(z: Triple) -> Triple:
        # x + y*w_old + z*t_old = (x - y*s - z*t) + y*w_new + z*t_new
        return (z[0] - z[1] * s - z[2] * t, z[1], z[2])

    return CubicRing(to_new(ww), to_new(wt), to_new(tt))


# ----------------------------------------------------------------------
# Mod-p behaviour: factorization types, subrings of index p
# ----------------------------------------------------------------------

def _root_multiplicities(fa: int, fb: int, fc: int, fd: int, p: int) -> dict[tuple[int, int], int]:
    """The zeros in P^1(F_p) of a form that is nonzero mod p, with their
    multiplicities: {(x, 1): m} with x increasing, then (1, 0).  Horner's
    rule evaluates f(x, 1) at every x; only at a root is the synthetic
    division by (X - x) repeated, until it leaves a remainder."""
    mults: dict[tuple[int, int], int] = {}
    for x in range(p):
        if (((fa * x + fb) * x + fc) * x + fd) % p:
            continue
        # each pass turns q into its quotient by (X - x), remainder last
        q, m = [fa, fb, fc, fd], 0
        while True:
            for i in range(1, len(q)):
                q[i] = (q[i] + q[i - 1] * x) % p
            if q.pop():
                break
            m += 1
        mults[(x, 1)] = m
    if fa == 0:
        # (1 : 0) has multiplicity 3 minus the degree of f(x, 1)
        mults[(1, 0)] = 1 if fb else 2 if fc else 3
    return mults


def projective_roots_mod_p(f: BinaryCubicForm, p: int | Place) -> list[tuple[int, int]]:
    """Zeros of f mod p in P^1(F_p), as normalized pairs (x, 1) or (1, 0),
    for a prime p or the finite `Place` at p.  A form vanishing identically
    mod p has every point as a zero."""
    fa, fb, fc, fd = f.reduce_mod(p)
    if isinstance(p, Place):
        p = p.p
    if fa == 0 and fb == 0 and fc == 0 and fd == 0:
        return [(x, 1) for x in range(p)] + [(1, 0)]
    return list(_root_multiplicities(fa, fb, fc, fd, p))


# splitting type by the root multiplicities over F_p, largest first
_SPLITTING_TYPES = {(1, 1, 1): "(111)", (1,): "(12)", (): "(3)", (2, 1): "(1^2 1)", (3,): "(1^3)"}


def factorization_type(f: BinaryCubicForm, p: int) -> str:
    """Splitting type of f mod p over F_p.  When f corresponds to a maximal
    order this is the splitting of p in that order."""
    fa, fb, fc, fd = f.reduce_mod(p)
    if fa == 0 and fb == 0 and fc == 0 and fd == 0:
        return "degenerate"
    mults = sorted(_root_multiplicities(fa, fb, fc, fd, p).values(), reverse=True)
    return _SPLITTING_TYPES[tuple(mults)]


def _unimodular_completion(x0: int, y0: int) -> TwoByTwoMatrix:
    """An SL2(Z) matrix with first row (x0, y0); requires gcd(x0, y0) = 1."""
    if gcd(x0, y0) != 1:
        raise DomainError("point must be primitive")
    old_r, r = x0, y0
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    # old_s*x0 + old_t*y0 = 1, so [[x0, y0], [-old_t, old_s]] has det 1
    return TwoByTwoMatrix(x0, y0, -old_t, old_s)


def index_p_subrings(ring: CubicRing, p: int | Place) -> list[CubicRing]:
    """The subrings of index p, one per zero of the associated form in
    P^1(F_p); each has discriminant p^2 times that of the input.  p is a
    prime, proven here once, or its `Place`; every step below is handed the
    `Place`."""
    place = p if isinstance(p, Place) else Place.finite(p)
    p = place.p
    f = ring_to_form(ring)
    if not f.is_p_integral(place):
        raise DomainError(f"ring is not defined over the {p}-integral base")
    out = []
    shear = TwoByTwoMatrix(1, 0, 0, p)
    for x0, y0 in projective_roots_mod_p(f, place):
        gamma = _unimodular_completion(x0, y0)
        moved = act(gamma, f)
        sub = act(shear, moved)
        if not sub.is_p_integral(place):
            raise AssertionError("index-p subring construction lost integrality")
        out.append(form_to_ring(sub, p=place))
    return out


def conductor_subring(ring: CubicRing, p: int, k: int) -> CubicRing:
    """The ring base + p^k * S; its form is p^k times the form of S, so the
    discriminant is multiplied by p^(4k)."""
    if k < 0:
        raise DomainError("conductor exponent must be nonnegative")
    if k == 0:
        return ring
    f = ring_to_form(ring)
    return form_to_ring(f.scale(p**k), p=p)


# ----------------------------------------------------------------------
# Orbits over a field
# ----------------------------------------------------------------------


def _has_rational_projective_root(f: BinaryCubicForm) -> bool:
    a, b, c, d = f.coefficients()
    if a == 0:
        return True  # (1 : 0)
    # clear denominators: integer cubic, rational root theorem
    lcm = 1
    for t in (a, b, c, d):
        lcm = lcm * t.denominator // gcd(lcm, t.denominator)
    A, B, C, D = (int(t * lcm) for t in (a, b, c, d))
    if D == 0:
        return True  # root x = 0
    # a root n/m in lowest terms has n | D and m | A, and is a zero of the
    # cubic exactly when A n^3 + B n^2 m + C n m^2 + D m^3 = 0
    nums, dens = [1], [1]
    for divisors, n in ((nums, abs(D)), (dens, abs(A))):
        for q, e in factorize(n).items():
            divisors[:] = [x * q**i for x in divisors for i in range(e + 1)]
    for num in nums:
        for den in dens:
            if gcd(num, den) != 1:
                continue
            for n in (num, -num):
                if ((A * n + B * den) * n + C * den * den) * n + D * den**3 == 0:
                    return True
    return False


def orbit_split(f: BinaryCubicForm, p: int | Place | None = None) -> tuple[BinaryCubicForm, ...]:
    """SL2-orbit representatives inside the determinant +-1 orbit of f:
    {f} when f is reducible over the field (Q, or Q_p when a prime p or its
    proven `Place` is given), {f, f(y, x)} when f is irreducible, i.e.
    cuts out a field."""
    if f.discriminant() == 0:
        raise DomainError("orbit splitting requires nonzero discriminant")
    if p is None:
        reducible = _has_rational_projective_root(f)
    else:
        # padicroots takes the discriminant from here, so it is imported late
        from .padicroots import form_has_projective_root_qp

        reducible = form_has_projective_root_qp(*f.coefficients(), p)
    return (f,) if reducible else (f, f.swap())


# ----------------------------------------------------------------------
# Desk-scale isomorphism testing
# ----------------------------------------------------------------------

@cache
def _bounded_unimodular_matrices(bound: int) -> list[TwoByTwoMatrix]:
    mats = []
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if abs(a * d - b * c) == 1:
                        mats.append(TwoByTwoMatrix(a, b, c, d))
    return mats


def rings_isomorphic(
    r1: CubicRing, r2: CubicRing, bound: int = 3, probe_primes=(5, 7, 11, 13)
) -> bool:
    """Bounded unimodular transporter search on the index forms, with an
    invariant pre-check (discriminant, factorization types).  Adequate at
    test scale; a False from the bounded search means "not matched", full
    isomorphism testing is out of scope."""
    f1, f2 = ring_to_form(r1), ring_to_form(r2)
    if f1.discriminant() != f2.discriminant():
        return False
    for p in probe_primes:
        if f1.is_p_integral(p) and f2.is_p_integral(p):
            if factorization_type(f1, p) != factorization_type(f2, p):
                return False
    target = f2.coefficients()
    return any(act(g, f1).coefficients() == target for g in _bounded_unimodular_matrices(bound))
