"""Binary cubic forms, the twisted GL2 action, and the correspondence with
cubic rings.

A form f = a x^3 + b x^2 y + c x y^2 + d y^3 with exact rational
coefficients corresponds to the rank-3 ring on basis (1, w, t) with

    w*t = -a*d,   w^2 = -a*c + b*w - a*t,   t^2 = -b*d + d*w - c*t,

the translation-normalized multiplication table (w*t lands in the base
ring).  The table is commutative, associative for every (a, b, c, d), and
its trace-form discriminant equals disc(f) identically, which is what the
round-trip tests pin down.

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
from math import gcd

from .errors import DomainError
from .localfield import Rational, is_prime, valuation
from .padicroots import form_has_projective_root_qp


def discriminant(a, b, c, d):
    """disc(a x^3 + b x^2 y + c x y^2 + d y^3), on ints and Fractions alike."""
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


@dataclass(frozen=True)
class BinaryCubicForm:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def discriminant(self) -> Fraction:
        return discriminant(self.a, self.b, self.c, self.d)

    def swap(self) -> "BinaryCubicForm":
        """f(y, x); the involution pairing the two SL2-orbits of a field."""
        return BinaryCubicForm(self.d, self.c, self.b, self.a)

    def scale(self, s: Rational) -> "BinaryCubicForm":
        s = Fraction(s)
        return BinaryCubicForm(s * self.a, s * self.b, s * self.c, s * self.d)

    def is_integral(self) -> bool:
        return all(t.denominator == 1 for t in self.coefficients())

    def is_p_integral(self, p: int) -> bool:
        return all(t == 0 or valuation(t, p) >= 0 for t in self.coefficients())

    def reduce_mod(self, p: int) -> tuple[int, int, int, int]:
        if not self.is_p_integral(p):
            raise DomainError(f"form is not {p}-integral")
        out = []
        for t in self.coefficients():
            out.append(t.numerator * pow(t.denominator, -1, p) % p)
        return tuple(out)  # type: ignore[return-value]

    def to_json_obj(self) -> list[str]:
        return [str(t) for t in self.coefficients()]

    @staticmethod
    def from_json_obj(obj) -> "BinaryCubicForm":
        if len(obj) != 4:
            raise DomainError("a form serializes as a 4-tuple")
        return BinaryCubicForm(*(Fraction(str(t)) for t in obj))

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c}, {self.d})"


@dataclass(frozen=True)
class TwoByTwoMatrix:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def det(self) -> Fraction:
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
    return BinaryCubicForm(*(t / det for t in moved))


# ----------------------------------------------------------------------
# Cubic rings
# ----------------------------------------------------------------------

Triple = tuple[Fraction, Fraction, Fraction]


def _triple(x0, x1, x2) -> Triple:
    return (Fraction(x0), Fraction(x1), Fraction(x2))


@dataclass(frozen=True)
class CubicRing:
    """Rank-3 algebra on basis (1, w, t): stores the products w^2, w*t, t^2
    as coordinate triples over that basis.  The table is commutative and
    unital by representation; `validate()` verifies associativity by finite
    checking on basis products and runs on every untrusted input path."""

    ww: Triple
    wt: Triple
    tt: Triple

    def validate(self) -> "CubicRing":
        for x, y, z in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 2)):
            left = self.mul(self.basis(x), self.mul(self.basis(y), self.basis(z)))
            right = self.mul(self.mul(self.basis(x), self.basis(y)), self.basis(z))
            if left != right:
                raise DomainError("multiplication table is not associative")
        return self

    @staticmethod
    def basis(i: int) -> Triple:
        return tuple(Fraction(1 if j == i else 0) for j in range(3))  # type: ignore[return-value]

    def mul(self, x: Triple, y: Triple) -> Triple:
        x0, x1, x2 = x
        y0, y1, y2 = y
        out = [x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x2 * y0]
        for coeff, prod in (
            (x1 * y1, self.ww),
            (x1 * y2 + x2 * y1, self.wt),
            (x2 * y2, self.tt),
        ):
            for i in range(3):
                out[i] += coeff * prod[i]
        return (out[0], out[1], out[2])

    def _basis_traces(self) -> tuple[Fraction, Fraction]:
        # Tr(w) and Tr(t), read off the diagonal of the multiplication maps
        return self.ww[1] + self.wt[2], self.wt[1] + self.tt[2]

    def trace(self, z: Triple) -> Fraction:
        # Tr is linear and Tr(1) = 3
        tr_w, tr_t = self._basis_traces()
        return 3 * z[0] + z[1] * tr_w + z[2] * tr_t

    def discriminant(self) -> Fraction:
        # determinant of the trace-form Gram matrix on (1, w, t), whose
        # entries 3, Tr(w), Tr(t), Tr(ww), Tr(wt), Tr(tt) come off the table
        tr_w, tr_t = self._basis_traces()
        ww, wt, tt = (3 * z[0] + z[1] * tr_w + z[2] * tr_t for z in (self.ww, self.wt, self.tt))
        return 3 * (ww * tt - wt * wt) - tr_w * (tr_w * tt - wt * tr_t) + tr_t * (tr_w * wt - ww * tr_t)

    def structure_constants(self) -> list[list[list[str]]]:
        """Full 3x3x3 array: entry [i][j] is e_i * e_j over (1, w, t)."""
        table = [[None] * 3 for _ in range(3)]  # type: ignore[var-annotated]
        for i in range(3):
            for j in range(3):
                table[i][j] = [str(c) for c in self.mul(self.basis(i), self.basis(j))]
        return table  # type: ignore[return-value]

    @staticmethod
    def from_structure_constants(table) -> "CubicRing":
        def tr(entry) -> Triple:
            return _triple(*(Fraction(str(v)) for v in entry))

        e0e0 = tr(table[0][0])
        if e0e0 != CubicRing.basis(0):
            raise DomainError("basis element 0 must be the unit")
        for i in range(3):
            for j in range(3):
                if tr(table[i][j]) != tr(table[j][i]):
                    raise DomainError("multiplication table is not commutative")
            if tr(table[0][i]) != CubicRing.basis(i):
                raise DomainError("basis element 0 must be the unit")
        return CubicRing(tr(table[1][1]), tr(table[1][2]), tr(table[2][2])).validate()


def form_to_ring(f: BinaryCubicForm, p: int | None = None) -> CubicRing:
    """The cubic ring whose index form is f.  Requires integral
    coefficients (p-integral when a prime is given): the correspondence is
    over a PID."""
    if p is None:
        if not f.is_integral():
            raise DomainError("form must have integral coefficients")
    else:
        if not f.is_p_integral(p):
            raise DomainError(f"form must be {p}-integral")
    a, b, c, d = f.coefficients()
    return CubicRing(
        ww=_triple(-a * c, b, -a),
        wt=_triple(-a * d, 0, 0),
        tt=_triple(-b * d, d, -c),
    )


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
    s, t = Fraction(s), Fraction(t)
    w = (Fraction(0) + s, Fraction(1), Fraction(0))
    th = (Fraction(0) + t, Fraction(0), Fraction(1))
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


def projective_roots_mod_p(f: BinaryCubicForm, p: int) -> list[tuple[int, int]]:
    """Zeros of f mod p in P^1(F_p), as normalized pairs (x, 1) or (1, 0).
    A form vanishing identically mod p has every point as a zero."""
    fa, fb, fc, fd = f.reduce_mod(p)
    if fa == 0 and fb == 0 and fc == 0 and fd == 0:
        return [(x, 1) for x in range(p)] + [(1, 0)]
    return list(_root_multiplicities(fa, fb, fc, fd, p))


# splitting type by the root multiplicities over F_p, largest first
_SPLITTING_TYPES = {(1, 1, 1): "(111)", (1,): "(12)", (): "(3)", (2, 1): "(1^2 1)", (3,): "(1^3)"}


def factorization_type(f: BinaryCubicForm, p: int) -> str:
    """Splitting type of f mod p over F_p.  When f corresponds to a maximal
    order this is the splitting of p in that order."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
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


def index_p_subrings(ring: CubicRing, p: int) -> list[CubicRing]:
    """The subrings of index p, one per zero of the associated form in
    P^1(F_p); each has discriminant p^2 times that of the input."""
    f = ring_to_form(ring)
    if not f.is_p_integral(p):
        raise DomainError(f"ring is not defined over the {p}-integral base")
    out = []
    shear = TwoByTwoMatrix(1, 0, 0, p)
    for x0, y0 in projective_roots_mod_p(f, p):
        gamma = _unimodular_completion(x0, y0)
        moved = act(gamma, f)
        sub = act(shear, moved)
        if not sub.is_p_integral(p):
            raise AssertionError("index-p subring construction lost integrality")
        out.append(form_to_ring(sub, p=p))
    return out


def conductor_subring(ring: CubicRing, p: int, k: int) -> CubicRing:
    """The ring base + p^k * S; its form is p^k times the form of S, so the
    discriminant is multiplied by p^(4k)."""
    if k < 0:
        raise DomainError("conductor exponent must be nonnegative")
    if k == 0:
        return ring
    f = ring_to_form(ring)
    return form_to_ring(f.scale(Fraction(p) ** k), p=p)


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
    for num in _divisors(abs(D)):
        for den in _divisors(abs(A)):
            for sgn in (1, -1):
                x = Fraction(sgn * num, den)
                if ((A * x + B) * x + C) * x + D == 0:
                    return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def orbit_split(f: BinaryCubicForm, p: int | None = None) -> tuple[BinaryCubicForm, ...]:
    """SL2-orbit representatives inside the determinant +-1 orbit of f:
    {f} when f is reducible over the field (Q, or Q_p when p is given),
    {f, f(y, x)} when f is irreducible, i.e. cuts out a field."""
    if f.discriminant() == 0:
        raise DomainError("orbit splitting requires nonzero discriminant")
    if p is None:
        reducible = _has_rational_projective_root(f)
    else:
        a, b, c, d = f.coefficients()
        reducible = form_has_projective_root_qp(a, b, c, d, p)
    return (f,) if reducible else (f, f.swap())


# ----------------------------------------------------------------------
# Desk-scale isomorphism testing
# ----------------------------------------------------------------------

_UNIMODULAR_BOUND = 2


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


def canonical_form_bounded(f: BinaryCubicForm, bound: int = _UNIMODULAR_BOUND) -> tuple:
    """Lexicographically least coefficient tuple over the GL2(Z) elements
    with entries bounded by `bound`.  A bounded search, adequate at test
    scale; use invariants for anything bigger."""
    best = None
    for gamma in _bounded_unimodular_matrices(bound):
        cand = act(gamma, f).coefficients()
        if best is None or cand < best:
            best = cand
    return best  # type: ignore[return-value]


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
