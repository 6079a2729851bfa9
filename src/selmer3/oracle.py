"""Brute-force verifiers, independent of the classification layer.

The cubic fields of Q_p with discriminant in the class of d are listed
once, from one square test each of d and -3d, with the index form of each
maximal order; count_cubic_extensions and the cohomology counts and
field rows of an enumerate_orbits stratum read that list.
enumerate_orbits decides integrality of every local class by exhausting
the index-p^j sublattices of the maximal order (a nonexistence answer
really is an exhaustive search; an existence answer carries a witness
form re-verified from scratch at the stratum's prime and precision:
discriminant stratum by truncated square roots, class membership by
p-adic root isolation in exact models of the cubic extensions).  A search
past MAX_ORDER_LATTICES lattices, sigma(p^j) = (p^(j+1) - 1)/(p - 1),
raises BudgetError before any is walked.  h1_counts_from_norm_kernel
counts the cohomology a second way, enumerating the norm-one kernel of
the mod-cube group of the quadratic algebra Q_p(sqrt(-3d)).
verify_subring_bijection checks the index-p subring count against the
projective zeros of the index form.
Nothing in this module consults the dimension table or the integrality
theorem; tests compare its output against them.

The hot loops run on exact integers: an extension-model element is its
tuple of integer coordinates over an integral basis, so valuations are
read off the coordinates, division by the uniformizer is an exact integer
division, and a model multiplies elements only where it evaluates a
polynomial, by Horner's rule on the coordinates; root isolation
evaluates a node only at the zeros of its reduction, coordinate 0 of each
coefficient mod p in an Eisenstein model and in the unramified model at a
node with coefficients in Z_p, found in F_p by the zero scan of `cubicforms`
(in the unramified case they stand for all p^3 residues of F_p^3, by the
lemma in `padicroots`), and searches a form's f(1, y) at y = 0 (mod pi)
only;
sublattice closure is tested inline on the integer (w, t) coordinates of
the ring's table (a p-integral table scaled by a p-unit to integers first)
and a subring's table is rewritten in its basis by divmod, with exact
division into Fractions only for a basis that is not closed; and the form
scan classifies each residue form mod p once,
counts its lifts mod p^2 of discriminant valuation 1 from the gradient
of the discriminant (disc(x + p h) = disc(x) + p grad(x).h mod p^2 holds
exactly, as disc has integer coefficients), and at the triple-root
residue forms compares, per lift (a, b, c), two rows over the p values
of d: the Eisenstein test, solved once per residue form, and the flags
p^3 | disc, read off the exact quadratic in d.  Nothing is truncated.

The SL2(Z/p^k)-orbit merging of the full form space is only feasible at
k = 1 (the space has p^(4k) points); sl2_orbit_count_mod_p implements that
component, and the deeper strata are covered by the order-enumeration
route above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .cubicforms import (
    BinaryCubicForm,
    CubicRing,
    _exact_div,
    _root_multiplicities,
    _zeros_mod_p,
    discriminant,
    form_to_ring,
    linear_substitution,
    projective_roots_mod_p,
    ring_to_form,
)
from .localclass import unramified_cubic_form
from .errors import BudgetError, DomainError, PrecisionError
from .localfield import (
    Place,
    _proven_prime,
    _split,
    Rational,
    cube_class_reps,
    is_prime,
    is_square,
    least_nonresidue,
    sqrt_extension_unramified,
    tame_place,
)
from .padicroots import ZpModel, _primitive_at, _projective_root_test


# ----------------------------------------------------------------------
# Exact models of the tame cubic extensions of Q_p
# ----------------------------------------------------------------------


class CubicExtModel:
    """O = Z_p[w] with w^3 = r0 + r1*w + r2*w^2, its elements the integer
    coordinates (c0, c1, c2) of c0 + c1*w + c2*w^2 over the basis
    (1, w, w^2).

    Covers both tame shapes: the unramified cubic (w a lift of a generator
    of F_{p^3}, uniformizer p) and the Eisenstein extensions (w^3 = p*u,
    uniformizer w).  In both, (1, w, w^2) is an integral basis of the ring
    of integers, so Z^3 coordinates cover every integral element that root
    isolation meets, the valuation is read off the coordinates, and
    division by the uniformizer is exact integer division.  Elements are
    multiplied only inside `peval`.  Arithmetic is exact throughout;
    nothing is reduced mod a power of p."""

    def __init__(self, p: int, rule: tuple[int, int, int], ramified: bool):
        self.p = p
        self.rule = rule
        self.ramified = ramified

    @staticmethod
    def unramified(p: int) -> "CubicExtModel":
        f = unramified_cubic_form(p)  # x^3 + A x + B irreducible mod p
        a_coef, b_coef = int(f.c), int(f.d)
        return CubicExtModel(p, (-b_coef, -a_coef, 0), ramified=False)

    @staticmethod
    def eisenstein(p: int, u: int) -> "CubicExtModel":
        return CubicExtModel(p, (p * u, 0, 0), ramified=True)

    def peval(self, coeffs, x) -> tuple[int, int, int]:
        """The value at x of the polynomial with element coefficients
        `coeffs` (constant term first), by Horner's rule on the
        coordinates: the raw product with x runs up to w^4, and w^4 and w^3
        are folded down by the rule."""
        x0, x1, x2 = x
        r0, r1, r2 = self.rule
        a0, a1, a2 = coeffs[-1]
        for k0, k1, k2 in reversed(coeffs[:-1]):
            # (a0 + a1 w + a2 w^2) x + k, with w^4 and w^3 folded down
            t4 = a2 * x2
            t3 = a1 * x2 + a2 * x1 + t4 * r2
            a0, a1, a2 = (
                a0 * x0 + t3 * r0 + k0,
                a0 * x1 + a1 * x0 + t4 * r0 + t3 * r1 + k1,
                a0 * x2 + a1 * x1 + a2 * x0 + t4 * r1 + t3 * r2 + k2,
            )
        return a0, a1, a2

    def embed_int(self, n: int) -> tuple[int, int, int]:
        return n, 0, 0

    def scale(self, x, n: int) -> tuple[int, int, int]:
        return x[0] * n, x[1] * n, x[2] * n

    def val(self, x) -> int | None:
        """Valuation normalized so that the uniformizer has valuation 1;
        None for zero.  Unramified: min v_p(c_i).  Eisenstein: the terms
        c_i w^i have valuations 3 v_p(c_i) + i, distinct mod 3, so the
        minimum is attained once and is the valuation of the sum.  A unit
        (c0 prime to p, or any coordinate when unramified) reads 0 at once."""
        p = self.p
        c0, c1, c2 = x
        if c0 % p or not self.ramified and (c1 % p or c2 % p):
            return 0
        if self.ramified:
            return min((3 * _split(t, p)[0] + i for i, t in enumerate(x) if t), default=None)
        return min((_split(t, p)[0] for t in x if t), default=None)

    def residues(self):
        """One lift of each residue, built as iterated: the p integers
        below p when ramified, the p^3 coordinates (c0, c1, c2) with
        0 <= c_i < p when unramified (residue degree 3)."""
        if self.ramified:
            return map(self.embed_int, range(self.p))
        return product(range(self.p), repeat=3)

    def residue_walk(self, coeffs):
        """The residues root isolation walks at a node with these
        coefficients, and the node's answer if none of them is a zero of
        the reduction (the lemma in `padicroots`).  Eisenstein, or
        unramified with every coefficient in Z_p, the reduction is
        coordinate 0 mod p: the lifts of its zeros in F_p, and, unramified,
        whether it is a cubic with none, hence irreducible; otherwise every
        residue of F_p^3, and False."""
        p = self.p
        if not self.ramified and any(c[1] or c[2] for c in coeffs):
            return self.residues(), False
        reduction = [c[0] % p for c in coeffs] + [0] * (4 - len(coeffs))
        zeros = _zeros_mod_p(*reduction[::-1], p)
        cubic = not (self.ramified or zeros) and reduction[3] != 0
        return [self.embed_int(a) for a in zeros], cubic

    def times_uniformizer(self, x) -> tuple[int, int, int]:
        """x times the uniformizer: p when unramified, w in the Eisenstein
        model, where w x = c2 p u + c0 w + c1 w^2."""
        c0, c1, c2 = x
        if self.ramified:
            return c2 * self.rule[0], c0, c1
        return c0 * self.p, c1 * self.p, c2 * self.p

    def div_uniformizer(self, x) -> tuple[int, int, int]:
        """x divided by a uniformizer: p when unramified, w/u in the
        Eisenstein model w^3 = p*u, where x * u / w = x * w^2 / p.  Unit
        factors leave root sets unchanged.  Refuses an inexact division."""
        p = self.p
        c0, c1, c2 = x
        if c0 % p or not self.ramified and (c1 % p or c2 % p):
            raise DomainError("element is not divisible by the uniformizer")
        if self.ramified:
            # x * w^2 = c1*p*u + c2*p*u*w + c0*w^2
            u = self.rule[0] // p
            return c1 * u, c2 * u, c0 // p
        return c0 // p, c1 // p, c2 // p


def algebra_class_of_form(f: BinaryCubicForm, p: int) -> str:
    """Which cubic algebra a p-integral form of nonzero discriminant cuts
    out over Q_p: "split" (reducible), "unram", or "ram-u<rep>".  Decided
    entirely by root isolation; p > 3 keeps everything tame."""
    p = tame_place(p, "tame classification").p
    if f.discriminant() == 0:
        raise DomainError("degenerate form")
    return _algebra_class(f, p)


def _algebra_class(f: BinaryCubicForm, p: int) -> str:
    """`algebra_class_of_form` at a prime p > 3, for a form of nonzero disc."""
    has_root = _projective_root_test(*_primitive_at(f.coefficients(), p))
    if has_root(ZpModel(p)):
        return "split"
    if has_root(CubicExtModel.unramified(p)):
        return "unram"
    for u in cube_class_reps(p):
        if has_root(CubicExtModel.eisenstein(p, u)):
            return f"ram-u{u}"
    raise PrecisionError("form matched no tame cubic algebra")


# ----------------------------------------------------------------------
# Cubic extensions with prescribed discriminant class
# ----------------------------------------------------------------------


def _cubic_fields(place: Place, d: Rational) -> list[tuple[str, BinaryCubicForm, int]]:
    """The cubic fields of Q_p (p > 3) whose discriminant lies in the square
    class of d, as (label, index form of the maximal order, v_p of its
    discriminant): the unramified field (unit square discriminant) when d
    is a square, and the Eisenstein fields x^3 - p*u (discriminant
    -27 p^2 u^2, in the class of -3) when -3d is."""
    d = Fraction(d)
    if d == 0:
        raise DomainError("square class of 0 is undefined")
    p = place.p
    fields = []
    if is_square(d, place):
        fields.append(("unram", unramified_cubic_form(p), 0))
    if is_square(-3 * d, place):
        fields.extend((f"ram-u{u}", BinaryCubicForm(1, 0, 0, -p * u), 2) for u in cube_class_reps(p))
    return fields


def _h1_counts(fields) -> tuple[int, int]:
    """(#H^1, #H^1_un) from `_cubic_fields`: each field adds the two orbits
    of its swap pair, unramified exactly for the unramified field."""
    return 1 + 2 * len(fields), 1 + 2 * sum(label == "unram" for label, _, _ in fields)


def count_cubic_extensions(p: int, d: Rational) -> int:
    """Number of cubic field extensions of Q_p (p > 3) whose discriminant
    lies in the square class of d."""
    return len(_cubic_fields(tame_place(p, "extension count"), d))


# ----------------------------------------------------------------------
# Norm-kernel route to the cohomology counts
# ----------------------------------------------------------------------
#
# The group attached to d is the norm-one kernel of K*/(K*)^3 over the
# quadratic algebra K = Q_p[x]/(x^2 + 3d), and its unramified subgroup is
# the same kernel on unit groups.  Modulo cubes (p != 3) a factor of K of
# residue degree f and ramification index e is a valuation coordinate a
# mod 3 plus a residue-unit coordinate u mod gcd(3, p^f - 1) (the
# one-units are uniquely 3-divisible).  The norm multiplies a by f and,
# sending a generator of the residue units to the e-th power of one of
# F_p^*, u by e, mod gcd(3, p - 1).  (A ramified uniformizer's norm also
# carries a unit, but the kernel pins its a to 0.)  The kernels are
# counted by brute enumeration of these groups, giving a second
# independent derivation of the dimension table that also covers p = 2,
# where extension counting is not implemented.


def h1_counts_from_norm_kernel(p: int, d: Rational) -> tuple[int, int]:
    """(#H^1, #H^1_un) from the norm-kernel description, by exhaustive
    enumeration of the mod-cube groups of the quadratic algebra of
    discriminant -3d: split (two factors with f = e = 1), inert (f = 2)
    or ramified (e = 2)."""
    if p == 3:
        raise DomainError("norm-kernel route needs residue characteristic != 3")
    place = Place.finite(p)
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    if is_square(-3 * d, place):
        factors = [(1, 1), (1, 1)]
    else:
        factors = [(2, 1) if sqrt_extension_unramified(-3 * d, place) else (1, 2)]
    groups = [product(range(3), range(gcd(3, p**f - 1))) for f, _ in factors]
    base_units = gcd(3, p - 1)
    kernel = unram_kernel = 0
    for point in product(*groups):
        norm_val = sum(f * a for (f, _), (a, _) in zip(factors, point)) % 3
        norm_unit = sum(e * u for (_, e), (_, u) in zip(factors, point)) % base_units
        if norm_val == norm_unit == 0:
            kernel += 1
            unram_kernel += all(a == 0 for a, _ in point)
    return kernel, unram_kernel


# ----------------------------------------------------------------------
# Exhaustive order enumeration
# ----------------------------------------------------------------------


# The most sublattices an order search walks: one of index p^j, over
# sigma(p^j) = (p^(j+1) - 1)/(p - 1) of them, raises `BudgetError` past it.
MAX_ORDER_LATTICES = 10**6


def _index_sublattices(p: int, j: int):
    """Hermite rows of the index-p^j subgroups of Z^2: the pairs (a, e) of
    powers of p with a*e = p^j, each standing for the e bases (a, b), (0, e)
    with 0 <= b < e.  sigma(p^j) bases in all."""
    for i in range(j + 1):
        yield p**i, p ** (j - i)


def orders_of_index(ring: CubicRing, p: int | Place, j: int, *, place: Place | None = None):
    """All subrings of index p^j of a p-integral cubic ring, as Hermite-basis
    triples (a, b, e).  Exhaustive: every index-p^j sublattice containing 1
    is the preimage of an index-p^j subgroup of Z^2 = ring/Z, and each is
    tested for closure under multiplication.  p is a prime, proven here, or
    its `Place`; a caller holding the `Place` may pass it as `place` beside
    the int p (perfbench's tracer reads sigma(p^j) off an int p).  A
    negative j is refused, and more than `MAX_ORDER_LATTICES` lattices
    raise `BudgetError` unwalked.

    The test runs on the (w, t) coordinates of the table as integers: an
    integral table as it is, otherwise multiplied by the lcm L of its
    denominators, a p-unit (a ring that is not p-integral is refused); a
    Z_p-lattice contains z exactly when it contains L*z.  For v1 = a*w + b*t
    and v2 = e*t, the products v1*v1 = a^2*ww + b*(a*wt + u), v1*v2 = e*u
    and v2*v2 = e^2*tt, with u = a*wt + b*tt, are formed coordinate by
    coordinate in the walk, the b-free terms once per row; (z1, z2) lies in
    the span of (a, b) and (0, e) exactly when a | z1 and
    e | z2 - (z1/a)*b.  All three are tested, though for odd p the first
    and the last imply the second."""
    p = _proven_prime(p if place is None else place)
    if j < 0:
        raise DomainError(f"index exponent must be nonnegative, got {j}")
    coords = (*ring.ww[1:], *ring.wt[1:], *ring.tt[1:])  # the constant coordinates never enter
    if set(map(type, coords)) != {int}:
        den = lcm(*(z.denominator for z in coords))
        if den % p == 0:
            raise DomainError(f"ring is not {p}-integral")
        coords = tuple(int(z * den) for z in coords)
    ww1, ww2, wt1, wt2, tt1, tt2 = coords
    lattices = (p ** (j + 1) - 1) // (p - 1)  # sigma(p^j)
    if lattices > MAX_ORDER_LATTICES:
        raise BudgetError(f"order search over {lattices} lattices exceeds the maximum {MAX_ORDER_LATTICES}")
    found = []
    for a, e in _index_sublattices(p, j):
        aa1, aa2, aw1, aw2, ee1, ee2 = a * a * ww1, a * a * ww2, a * wt1, a * wt2, e * e * tt1, e * e * tt2
        for b in range(e):
            u1, u2 = aw1 + b * tt1, aw2 + b * tt2
            z1, z2 = aa1 + b * (aw1 + u1), aa2 + b * (aw2 + u2)  # v1*v1
            if z1 % a or (z2 - z1 // a * b) % e:
                continue
            z1, z2 = e * u1, e * u2  # v1*v2
            if z1 % a or (z2 - z1 // a * b) % e:
                continue
            if ee1 % a or (ee2 - ee1 // a * b) % e:  # v2*v2
                continue
            found.append((a, b, e))
    return found


def order_from_lattice(ring: CubicRing, basis: tuple[int, int, int]) -> CubicRing:
    """The subring on basis (1, v1, v2) with v1 = a*w + b*t and v2 = e*t, as
    an abstract cubic ring.  The products v1*v1 = a^2*ww + 2ab*wt + b^2*tt,
    v1*v2 = ae*wt + be*tt and v2*v2 = e^2*tt are formed from the table rows
    (neither v1 nor v2 has a component along 1) and rewritten in the new
    basis: y1 = z1/a and y2 = (z2 - y1*b)/e by `divmod`, exact when both
    remainders vanish, as they do on a closed basis of an integral table;
    on a remainder (a basis that is not closed, or a Fraction entry) the
    product is rewritten by `_exact_div`.  Integral entries stay ints, and
    a p-integral input ring keeps its Fractions."""
    a, b, e = basis
    (ww0, ww1, ww2), (wt0, wt1, wt2), (tt0, tt1, tt2) = ring.ww, ring.wt, ring.tt
    aa, ab, bb, ae, be, ee = a * a, 2 * a * b, b * b, a * e, b * e, e * e
    products = (
        (aa * ww0 + ab * wt0 + bb * tt0, aa * ww1 + ab * wt1 + bb * tt1, aa * ww2 + ab * wt2 + bb * tt2),
        (ae * wt0 + be * tt0, ae * wt1 + be * tt1, ae * wt2 + be * tt2),
        (ee * tt0, ee * tt1, ee * tt2),
    )
    table = []
    for z0, z1, z2 in products:
        y1, r1 = divmod(z1, a)
        y2, r2 = divmod(z2 - y1 * b, e)
        if r1 or r2:  # not closed, or a Fraction entry
            y1 = _exact_div(z1, a)
            y2 = _exact_div(z2 - y1 * b, e)
        table.append((z0, y1, y2))
    return CubicRing(*table).validate()


# ----------------------------------------------------------------------
# Truncated arithmetic used for witness verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedRing:
    """Z/p^k as the precision context for witness checks; p is given as a
    prime or as the `Place` that has proven it, and held as the int."""

    p: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _proven_prime(self.p))
        if self.k < 1:
            raise DomainError("precision exponent must be positive")

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def reduce_unit(self, x: Rational) -> int:
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    def unit_sqrt(self, x: Rational) -> int | None:
        """A square root of the unit x mod p^k (odd p): brute root mod p,
        then Hensel lifting digit by digit."""
        if self.p == 2:
            raise DomainError("truncated square roots implemented for odd p only")
        a = self.reduce_unit(x)
        r = next((t for t in range(1, self.p) if t * t % self.p == a % self.p), None)
        if r is None:
            return None
        for i in range(1, self.k):
            mod = self.p ** (i + 1)
            r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
        assert r * r % self.modulus == a
        return r


# ----------------------------------------------------------------------
# The orbit table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRow:
    algebra: str  # "split" | "unram" | "ram-u<rep>"
    orbit_count: int
    integral: bool
    witness: BinaryCubicForm | None
    order_index_exponent: int | None  # j with [O_L : S] = p^j, fields only
    orders_found: int | None

    def to_json_obj(self) -> dict:
        return {**vars(self), "witness": None if self.witness is None else self.witness.to_json_obj()}


@dataclass(frozen=True)
class OrbitTable:
    p: int
    k: int
    disc_val: int
    unit_class: str
    d0: int
    h1_count: int
    h1_unramified_count: int
    rows: tuple[OrbitRow, ...] = field(default_factory=tuple)

    def to_json_obj(self) -> dict:
        """The fields in order, d0 as a string and the rows as objects."""
        return {**vars(self), "d0": str(self.d0), "rows": [r.to_json_obj() for r in self.rows]}

    def summary(self) -> dict:
        """Per-kind (class count, integral count), comparable with the
        classification layer."""
        out: dict[str, tuple[int, int]] = {}
        for row in self.rows:
            key = "unram" if row.algebra == "unram" else (
                "ramified" if row.algebra.startswith("ram-") else "trivial"
            )
            n, n_int = out.get(key, (0, 0))
            out[key] = (n + row.orbit_count, n_int + (row.orbit_count if row.integral else 0))
        return out


def _verify_witness(
    form: BinaryCubicForm, place: Place, tr: TruncatedRing, disc_val: int, u0: int, algebra: str
) -> Rational:
    """Check the witness form from scratch against the stratum p^disc_val
    times the square class of the unit u0, at the stratum's proven prime
    and precision, and return the discriminant it checked."""
    if not form.is_p_integral(place):
        raise AssertionError("witness not p-integral")
    disc = form.discriminant()
    v, num, den = _split(Fraction(disc), place.p) if disc else (None, 0, 1)  # 0 fails
    if v != disc_val:
        raise AssertionError("witness discriminant valuation mismatch")
    if tr.unit_sqrt(Fraction(num, den * u0)) is None:
        raise AssertionError("witness discriminant in the wrong square class")
    got = _algebra_class(form, place.p)
    if got != algebra:
        raise AssertionError(f"witness cuts out {got}, expected {algebra}")
    return disc


def enumerate_orbits(
    p: int,
    k: int | None = None,
    disc_val: int = 0,
    unit_class: str = "square",
) -> OrbitTable:
    """Census of the local classes in one discriminant stratum, with
    integrality decided by exhaustive order enumeration and every positive
    answer re-verified through an independently constructed witness form.

    The default precision is max(6, disc_val + 5); passing a smaller k
    than disc_val + 2 is refused rather than silently truncated.
    """
    place = tame_place(p, "orbit enumeration")
    if unit_class not in ("square", "nonsquare"):
        raise DomainError("unit_class must be 'square' or 'nonsquare'")
    if disc_val < 0:
        raise DomainError("discriminant valuation must be nonnegative")
    if k is None:
        k = max(6, disc_val + 5)
    if k < disc_val + 2:
        raise DomainError(f"precision {k} too small for stratum v = {disc_val}")

    u0 = 1 if unit_class == "square" else least_nonresidue(p)
    d0 = u0 * p**disc_val
    fields = _cubic_fields(place, d0)
    h1, h1_un = _h1_counts(fields)
    tr = TruncatedRing(place, k)

    # the reducible class, integral for every d: exhibit and verify
    triv = BinaryCubicForm(Fraction(-d0, 4), 0, 1, 0)
    if _verify_witness(triv, place, tr, disc_val, u0, "split") != d0:
        raise AssertionError("split witness has the wrong discriminant")
    rows = [OrbitRow("split", 1, True, triv, None, None)]

    for algebra, max_order_form, v_disc_max in fields:
        delta = disc_val - v_disc_max
        if delta < 0 or delta % 2 != 0:
            rows.append(OrbitRow(algebra, 2, False, None, None, 0))
            continue
        j = delta // 2
        maximal = form_to_ring(max_order_form, p=place)
        found = orders_of_index(maximal, p, j, place=place)
        if not found:
            rows.append(OrbitRow(algebra, 2, False, None, j, 0))
            continue
        witness = ring_to_form(order_from_lattice(maximal, found[0]))
        _verify_witness(witness, place, tr, disc_val, u0, algebra)
        rows.append(OrbitRow(algebra, 2, True, witness, j, len(found)))

    table = OrbitTable(p, k, disc_val, unit_class, d0, h1, h1_un, tuple(rows))
    if sum(r.orbit_count for r in table.rows) != h1:
        raise AssertionError("orbit census does not match the cohomology count")
    return table


def verify_subring_bijection(ring: CubicRing, p: int | Place) -> bool:
    """Exhaustively enumerate the closed index-p sublattices containing 1
    and compare with the projective zeros of the index form mod p; also
    checks the discriminant scaling p^2 on every subring found.  p is a
    prime, proven here before any lattice is walked, or its `Place`."""
    place = p if isinstance(p, Place) else Place.finite(p)
    f = ring_to_form(ring)
    subs = orders_of_index(ring, place.p, 1, place=place)
    roots = projective_roots_mod_p(f, place)
    if len(subs) != len(roots):
        return False
    target = place.p**2 * ring.discriminant()
    return all(order_from_lattice(ring, s).discriminant() == target for s in subs)


# ----------------------------------------------------------------------
# Exhaustive form-space scan at modulus p^2
# ----------------------------------------------------------------------


# The largest prime the form-space scans accept: both touch all p^4 forms
# mod p, and the low-valuation scan reads the p^3 rows (a, b, c) of each of
# the p^2 - 1 triple-root residue forms, 0.4 s at this bound (Python 3.11).
MAX_SCAN_PRIME = 13


@dataclass(frozen=True)
class LowValuationScan:
    p: int
    v1_forms: int
    v1_all_have_simple_root: bool
    triple_forms: int
    eisenstein_forms: int
    dichotomy_holds: bool


def scan_forms_low_valuation(p: int) -> LowValuationScan:
    """Count every form mod p^2 (coefficients not all divisible by p) with
    discriminant divisible by p, and verify two facts from scratch:

    * every form with v(disc) = 1 (fully visible at this modulus) carries
      a simple projective root, hence is reducible: the odd-valuation
      stratum holds only the trivial class;
    * triple-root forms obey the Eisenstein dichotomy: no lift of the
      root zeroes f mod p^2 exactly when the canonical integer lift has
      discriminant valuation 2.  The derivative vanishes mod p at a
      triple root, so the value of f on root lifts is constant across any
      unramified extension; an Eisenstein form therefore has no root
      there, and the v(disc) = 2 stratum never meets the unramified
      class.  (Both disc and its gradient vanish mod p on these forms, so
      the valuation-2 property is a class invariant of the reduction.)

    The scan is residue-first.  The discriminant mod p and the root
    pattern mod p depend only on the residue form x, so each of the
    p^4 - 1 nonzero residue forms is classified once.  Its p^4 lifts
    x + p h (h in [0, p)^4) with v(disc) = 1 are counted, not walked:
    disc has integer coefficients, so its divided higher derivatives are
    integers and disc(x + p h) = disc(x) + p grad(x).h mod p^2 exactly.
    With p | disc(x), a lift has v(disc) = 1 exactly when disc(x)/p +
    grad(x).h is a unit.  If grad(x) is nonzero mod p, the linear form
    h -> grad(x).h takes each value mod p on p^3 of the h, so p^4 - p^3
    lifts have v(disc) = 1; otherwise all p^4 do when disc(x)/p is a unit
    and none do when it is not.  The gradient vanishes mod p exactly at
    the triple-root residue forms.

    Only the triple-root residue forms with p^2 | disc(x) are walked, one
    step per lift (a, b, c) for its p values d = d0 + p t.  disc is a
    quadratic in d: disc(a, b, c, d0 + p t) = e0 + p t e1 + q t^2 k2
    exactly, e0 = disc(a, b, c, d0), e1 its d-derivative there, k2 =
    -27 a^2.  Each step checks the gradient lemma, q | e0 and p | e1 (else
    `AssertionError`), and reads the row of flags "p^3 does not divide
    disc" off (e0/q, e1/p, k2) mod p, each of at most p^3 rows built once.
    The Eisenstein flags form a row too.  At a root lift (x, y), f = base
    + d y^3 mod p^2, and y^3 is 0 mod p^2 at every lift or a unit at every
    lift, so the p^2 lifts zero f at every d or at none, or each at one d:
    the dot product of (a, b, c) with a term (n3, n2, n1) of
    `_root_lift_terms`, made once per root.  The terms all reduce to one m
    mod p (each lift reduces to the root, -(y^3)^-1 to -(y0^3)^-1), so at
    a = a0 + p i, b = b0 + p j, c = c0 + p k the dot product is (a0 n3 +
    b0 n2 + c0 n1) + p s mod p^2, s = i m3 + j m2 + k m1 mod p: the lift's
    zero set is the residue form's set Z0 shifted by p s.
    `_eisenstein_table` solves Z0 once per residue form into rows by s,
    and the dichotomy is one comparison of two rows per (a, b, c).
    Nothing about the values of f on the lifts is assumed.  All arithmetic
    is on integers.
    A prime past `MAX_SCAN_PRIME` raises `BudgetError` before any walk.
    """
    p = tame_place(p, "form scan").p
    _check_scan_prime(p)
    q = p * p
    v1 = v1_simple = triples = eis_count = 0
    dichotomy, rows, lift_terms = True, {}, {}
    for a0, b0, c0, d0 in product(range(p), repeat=4):
        disc0 = discriminant(a0, b0, c0, d0)
        if not (a0 or b0 or c0 or d0) or disc0 % p:
            continue
        mults = _root_multiplicities(a0, b0, c0, d0, p)
        if any(t % p for t in _disc_gradient(a0, b0, c0, d0)):
            n = q * q - q * p
        else:
            n = q * q if disc0 // p % p else 0
        v1 += n
        if 1 in mults.values():
            v1_simple += n
        triple = next((root for root, m in mults.items() if m == 3), None)
        if triple is None or n:
            continue  # no triple root, or only lifts of v(disc) = 1
        terms = lift_terms[triple] = lift_terms.get(triple) or _root_lift_terms(triple, p)
        (m3, m2, m1), table = _eisenstein_table(a0, b0, c0, d0, terms, p)
        sums, e2 = [sum(row) for row in table], -27 * a0 * a0 % p
        for i, j in product(range(p), repeat=2):
            a, b, s = a0 + p * i, b0 + p * j, i * m3 + j * m2
            k2d, ab, b3 = -27 * a * a * d0, 18 * a * b, 4 * b**3
            for c in range(c0, q, p):
                # disc(a, b, c, d0 + p t) = e0 + p t e1 + q t^2 k2 exactly
                e1 = 2 * k2d + ab * c - b3
                e0 = (e1 - k2d) * d0 + (b * b - 4 * a * c) * c * c
                if e0 % q or e1 % p:
                    raise AssertionError(f"p^2 does not divide disc at the lifts of {(a, b, c, d0)}")
                key = (e0 // q % p, e1 // p % p, e2)
                if (row := rows.get(key)) is None:
                    row = rows[key] = tuple((key[0] + t * key[1] + t * t * e2) % p != 0 for t in range(p))
                s_abc = (s + c // p * m1) % p
                triples += p
                eis_count += sums[s_abc]
                if row != table[s_abc]:
                    dichotomy = False
    return LowValuationScan(
        p=p,
        v1_forms=v1,
        v1_all_have_simple_root=v1 == v1_simple,
        triple_forms=triples,
        eisenstein_forms=eis_count,
        dichotomy_holds=dichotomy,
    )


def _disc_gradient(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The partial derivatives of `discriminant` in a, b, c and d."""
    return (
        18 * b * c * d - 4 * c**3 - 54 * a * d * d,
        18 * a * c * d + 2 * b * c * c - 12 * b * b * d,
        18 * a * b * d + 2 * b * b * c - 12 * a * c * c,
        18 * a * b * c - 4 * b**3 - 54 * a * a * d,
    )


def _check_scan_prime(p: int) -> None:
    if p > MAX_SCAN_PRIME:
        raise BudgetError(f"form-space scan at p = {p} exceeds the maximum prime {MAX_SCAN_PRIME}")


def _root_lift_terms(root, p: int) -> tuple[bool, frozenset[tuple[int, int, int]]]:
    """The p^2 lifts (x, y) of a projective root mod p, as the scan uses
    them.  Mod q = p^2, f(x, y) = base + d y^3 with base = a x^3 + b x^2 y
    + c x y^2, and y = 0 mod p at every lift or at none.  The result is
    (False, the distinct (x^3, x^2 y, x y^2) mod q) in the first case and
    (True, their distinct products with -(y^3)^-1 mod q) in the second,
    whose dot product with (a, b, c) is the d mod q the lift zeroes."""
    x0, y0 = root
    q = p * p
    solved = y0 % p != 0
    terms = set()
    for s in range(p):
        for t in range(p):
            x, y = x0 + p * s, y0 + p * t
            k = -pow(y**3, -1, q) if solved else 1
            terms.add((x**3 * k % q, x * x * y * k % q, x * y * y * k % q))
    return solved, frozenset(terms)


def _eisenstein_table(a0: int, b0: int, c0: int, d0: int, lift_terms, p: int):
    """The common reduction m mod p of `lift_terms` (`_root_lift_terms` of a
    triple root of (a0, b0, c0, d0)), and a table whose row s says at t if
    no root lift zeroes the lift of shift s with d = d0 + p t.  With Z0 the
    residue form's zeros and hit[u] = (d0 + p u in Z0), a row is not
    hit[(t - s) mod p] if y is a unit, else p copies of (-p s not in Z0)."""
    q = p * p
    solved, terms = lift_terms
    zeros = {(a0 * n3 + b0 * n2 + c0 * n1) % q for n3, n2, n1 in terms}
    if solved:
        hit = [d0 + p * u in zeros for u in range(p)]
        table = [tuple(not hit[(t - s) % p] for t in range(p)) for s in range(p)]
    else:
        table = [(-p * s % q not in zeros,) * p for s in range(p)]
    return tuple(n % p for n in next(iter(terms))), table


# ----------------------------------------------------------------------
# SL2(Z/p) orbit scan (precision k = 1)
# ----------------------------------------------------------------------


def sl2_orbit_count_mod_p(p: int, delta: int) -> int:
    """Number of SL2(F_p)-orbits on the binary cubics over F_p of
    discriminant delta != 0, by breadth-first merging of the whole form
    space under the two standard generators.  The k = 1 instance of orbit
    merging at finite precision.  A prime past `MAX_SCAN_PRIME` raises
    `BudgetError` before the form space is built."""
    if not is_prime(p):
        raise DomainError("orbit scan requires a prime p")
    if delta % p == 0:
        raise DomainError("scan requires nonzero discriminant")
    _check_scan_prime(p)
    gens = [(0, 1, p - 1, 0), (1, 1, 0, 1)]  # S and T
    todo = {
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if discriminant(a, b, c, d) % p == delta % p
    }
    orbits = 0
    while todo:
        seed = todo.pop()
        orbits += 1
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                # both generators have determinant 1 mod p
                nxt = tuple(t % p for t in linear_substitution(*cur, *g))
                if nxt in todo:
                    todo.remove(nxt)
                    frontier.append(nxt)
    return orbits
