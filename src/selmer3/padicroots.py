"""Exact root isolation in complete discretely valued rings.

Polynomials come as integer coefficients, constant term first, of degree
at most 3: the Z_p-roots of one-variable polynomials, and the projective
roots of binary cubic forms in Z_p and in the cubic extension rings of the
oracle module.  The decision procedure is the classical branch-and-lift:
scan residues, accept a branch outright when the strong Hensel criterion
v(g(a)) > 2 v(g'(a)) holds, otherwise substitute x = a + pi*t, strip the
content, and recurse.

Depth is capped at 2 v(Res(g, g')) plus a margin; a separable polynomial
must resolve before the cap, so hitting it raises instead of guessing.  A
polynomial with a repeated root (Res(g, g') = 0) is first replaced by its
squarefree part, read off in closed form because a repeated root of a
cubic is rational; otherwise the resultant of that test sets the cap.
The resultant needs no determinant: Res(g, g') = +-lead(g) disc(g), and
disc(g) is read off the binary cubic discriminant of `cubicforms`.  It is
an integer, so its valuation is that of its embedding in the model (3 v_p
in an Eisenstein model).  The two orientations f(x, 1) and f(1, y) of a
binary cubic share their discriminant, computed once however many models
test the form.

A node evaluates g only where g can have a root: at the zeros of its
reduction g-bar.  When the residue field is F_p (Z_p, the Eisenstein
rings) or the coefficients lie in Z_p, g-bar is read by reducing each
coefficient (or its coordinate 0) mod p once and padding it to a cubic,
and its zeros in F_p are found by the one F_p zero scan of `cubicforms`
(`_zeros_mod_p`); the model's evaluation, the valuation and the
derivative, built at the first zero, run only there.  In an unramified cubic ring, whose residue field is
F_p^3, this covers every residue: since F_p^2 and F_p^3 meet in F_p,
g-bar has zeros in F_p^3 outside F_p exactly when it is a cubic with no
zero in F_p, that is, irreducible over F_p.  Such zeros are simple (an
irreducible polynomial over a finite field is separable), so the strong
Hensel test accepts the first of them, and the node answers True when
g-bar is a cubic with no zero in F_p.  Only a node of the unramified ring
with coefficients outside Z_p walks all p^3 residues.

A binary cubic has a projective root when f(x, 1) has a ring root or
f(1, y) has one divisible by the uniformizer pi, since [1 : y] with y a
unit is [1/y : 1].  The second search tests the residue 0 of its root
node as every node does (an exact root, the strong Hensel test) and then
searches f(1, pi t), one node down.

Models supply the ring: Z_p on Python integers here, cubic extension rings
in the oracle module, whose elements are their integer coordinates.  Root
isolation does no arithmetic on elements itself; a model needs `p`,
`embed_int(n)`, `residue_walk(coeffs)`, `peval(coeffs, x)`, `val(x)`,
`div_uniformizer(x)`, `scale(x, n)` (x times the integer n) and
`times_uniformizer(x)`.  `residue_walk` gives the residues a node with
these coefficients walks, possibly as a one-pass iterator, and the node's
answer if none of them is a zero of the reduction (the zeros of the
reduction in F_p, and whether the lemma above applies; or, in the
unramified ring outside Z_p, every residue and False); `peval` is the
value at x of the polynomial with the given element coefficients
(constant term first), the one place a model multiplies elements;
`div_uniformizer` refuses an inexact division.  The shift to a + pi*t is Taylor's formula: the k-th
coefficient of g(a + pi*t) is pi^k times the value at a of the
polynomial with coefficients binomial(j, k) c_j, j >= k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .cubicforms import _zeros_mod_p, discriminant
from .errors import DomainError, PrecisionError
from .localfield import Place, _proven_prime, _split

_DEPTH_MARGIN = 6


class ZpModel:
    """Z_p with elements represented as Python integers.  Root isolation
    starts from integer coefficients and only ever shifts by residues and
    divides by p exactly, so no rationals occur."""

    def __init__(self, p: int):
        self.p = p

    def embed_int(self, n: int) -> int:
        return n

    def residue_walk(self, coeffs) -> tuple[list[int], bool]:
        reduction = [c % self.p for c in coeffs] + [0] * (4 - len(coeffs))
        return _zeros_mod_p(*reduction[::-1], self.p), False

    def peval(self, coeffs, x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def val(self, x: int) -> int | None:
        return _split(x, self.p)[0] if x else None

    def div_uniformizer(self, x: int) -> int:
        q, r = divmod(x, self.p)
        if r:
            raise DomainError("element is not divisible by the uniformizer")
        return q

    def scale(self, x: int, n: int) -> int:
        return x * n

    def times_uniformizer(self, x: int) -> int:
        return x * self.p


def _pderiv(coeffs, model):
    return [model.scale(coeffs[i], i) for i in range(1, len(coeffs))]


def _pshift(coeffs, a, model):
    """Coefficients of g(a + pi*t) as a polynomial in t, by Taylor's
    formula: the k-th is pi^k g^(k)(a)/k!, the value at a of the polynomial
    with coefficients binomial(j, k) c_j (j >= k), times pi k times."""
    out = []
    for k in range(len(coeffs)):
        x = model.peval([model.scale(coeffs[j], comb(j, k)) for j in range(k, len(coeffs))], a)
        for _ in range(k):
            x = model.times_uniformizer(x)
        out.append(x)
    return out


def _strip_content(coeffs, model):
    vals = [model.val(c) for c in coeffs]
    nz = [v for v in vals if v is not None]
    if not nz:
        raise DomainError("zero polynomial in root isolation")
    for _ in range(min(nz)):
        coeffs = [model.div_uniformizer(c) for c in coeffs]
    return coeffs


def _resultant(coeffs: list[int]) -> int:
    """+-Res(g, g') for an integer g of degree 1 to 3 with a nonzero leading
    coefficient.  Res(g, g') = +-lead(g) disc(g), where disc is 1 for a
    linear g, and disc(0, b, c, d) = b^2 disc(b x^2 + c x + d) brings the
    quadratic case to the cubic discriminant."""
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    if deg == 1:
        return lead
    disc = discriminant(*([0] * (3 - deg) + coeffs[::-1]))
    return disc * lead if deg == 3 else disc // lead


def _depth_cap(res: int, model) -> int:
    """2 v(Res(g, g')) + margin from the `_resultant` of an integer g of
    degree 1 to 3, which is nonzero when g is separable."""
    if res == 0:
        raise DomainError("inseparable polynomial in root isolation")
    return 2 * model.val(model.embed_int(res)) + _DEPTH_MARGIN


def _squarefree_part(coeffs: list[int]) -> list[int]:
    """An integer polynomial with the same roots as the inseparable g of
    degree 2 or 3, and each of them simple.  A repeated root of g is
    rational, so this is a closed form: a quadratic's double root is
    -b/2a; a cubic with b^2 - 3ac = 0 has the triple root -b/3a, and
    otherwise the double root r = (9ad - bc)/(2(b^2 - 3ac)) and the simple
    root -b/a - 2r."""
    if len(coeffs) == 3:
        _, b, a = coeffs
        return [b, 2 * a]
    d, c, b, a = coeffs
    h = b * b - 3 * a * c
    if h == 0:
        return [b, 3 * a]
    r = Fraction(9 * a * d - b * c, 2 * h)
    s = Fraction(-b, a) - 2 * r
    # (r.den x - r.num)(s.den x - s.num)
    return [
        r.numerator * s.numerator,
        -(r.denominator * s.numerator + s.denominator * r.numerator),
        r.denominator * s.denominator,
    ]


def has_ring_root(model, coeffs) -> bool:
    """Whether the polynomial with the given integer coefficients (constant
    term first, degree at most 3) has a root in the model's ring of
    integers.  A polynomial with a repeated root is replaced by its
    squarefree part, which has the same roots."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        if not any(coeffs):
            raise DomainError("zero polynomial in root isolation")
        return False
    if len(coeffs) > 4:
        raise DomainError(f"root isolation takes degree at most 3, got {len(coeffs) - 1}")
    return _has_root(model, coeffs, _resultant(coeffs))


def _has_root(model, coeffs: list[int], res: int, near_zero: bool = False) -> bool:
    """`has_ring_root` for an integer g of degree 1 to 3 with a nonzero
    leading coefficient and its `_resultant` res; with `near_zero`, whether
    g has a root divisible by the uniformizer: the residue 0 of the root
    node is tested as `_search` tests it, and g(pi t) searched below it."""
    if res == 0:
        coeffs = _squarefree_part(coeffs)
        res = _resultant(coeffs)
    cap = _depth_cap(res, model)
    coeffs = _strip_content([model.embed_int(c) for c in coeffs], model)
    if not near_zero:
        return _search(model, coeffs, 0, cap)
    v0 = model.val(coeffs[0])  # g(0)
    if v0 is None or v0 == 0:
        return v0 is None
    return _lifts(model, coeffs, _pderiv(coeffs, model), model.embed_int(0), v0, 0, cap)


def _search(model, coeffs, depth: int, cap: int) -> bool:
    if depth > cap:
        raise PrecisionError(f"root isolation exceeded depth cap {cap}")
    walk, otherwise = model.residue_walk(coeffs)
    deriv = None
    for a in walk:
        v0 = model.val(model.peval(coeffs, a))
        if v0 is None:
            return True  # exact root in the ring
        if v0 == 0:
            continue  # a unit: only the walk over F_p^3 meets one
        if deriv is None:
            deriv = _pderiv(coeffs, model)
        if _lifts(model, coeffs, deriv, a, v0, depth, cap):
            return True
    return otherwise


def _lifts(model, coeffs, deriv, a, v0: int, depth: int, cap: int) -> bool:
    """Whether g, with v(g(a)) = v0 > 0, has a root congruent to a: by the
    strong Hensel test, else by the search of g(a + pi*t) one node down."""
    v1 = model.val(model.peval(deriv, a))
    if v1 is not None and v0 > 2 * v1:
        return True  # strong Hensel lift
    return _search(model, _strip_content(_pshift(coeffs, a, model), model), depth + 1, cap)


def _primitive_at(coeffs, p: int) -> list[int]:
    """Integers proportional to the rational coefficients (ints or
    Fractions, not all zero), with p-content 1: denominators cleared, then
    the power of p dividing them all.  A rational multiple has the same
    roots."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    scale = p ** min((_split(t, p)[0] for t in ints if t), default=0)
    return [t // scale for t in ints]


def _projective_root_test(a, b, c, d):
    """model -> whether the binary cubic with the given integer coefficients
    (see `_primitive_at`) has a zero on the projective line over the
    model's fraction field, for any number of models from one
    discriminant.  Any projective point has a representative with both
    coordinates integral and one of them a unit, so testing f(x, 1) and
    f(1, y) for ring roots covers everything.  Both
    are cubics when a d != 0, and disc is symmetric under (a, b, c, d) ->
    (d, c, b, a), so their resultants are disc a and disc d.  A point
    [1 : y] with y a unit is [1/y : 1], which the f(x, 1) search covers,
    so f(1, y) is searched at y = 0 (mod pi) only."""
    if a == 0 or d == 0:
        return lambda model: True  # [1:0] or [0:1] is a root
    disc = discriminant(a, b, c, d)
    return lambda model: _has_root(model, [d, c, b, a], disc * a) or _has_root(
        model, [a, b, c, d], disc * d, near_zero=True
    )


def form_has_projective_root_qp(a, b, c, d, p: int | Place) -> bool:
    """Whether a binary cubic with the given rational coefficients has a
    zero in P^1(Q_p), for a prime p or its `Place`, which has proven it."""
    p = _proven_prime(p)
    return _projective_root_test(*_primitive_at((a, b, c, d), p))(ZpModel(p))
