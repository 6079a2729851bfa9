"""Brute-force verifiers, independent of the classification layer.

enumerate_orbits decides integrality of every local class by exhausting the
index-p^j sublattices of the maximal order (a nonexistence answer really is
an exhaustive search; an existence answer carries a witness form that is
re-verified from scratch: discriminant stratum by truncated square roots,
class membership by p-adic root isolation in exact models of the cubic
extensions).  count_cubic_extensions enumerates the cubic fields of Q_p
with prescribed discriminant class.  verify_subring_bijection checks the
index-p subring count against the projective zeros of the index form.
Nothing in this module consults the dimension table or the integrality
theorem; tests compare its output against them.

The hot loops run on exact integers: extension-model elements carry
integer coordinates over an integral basis, so valuations are read off
the coordinates and division by the uniformizer is an exact integer
division; sublattice closure is tested on the ring's table scaled by a
p-unit to integers; and the form scan classifies each residue form mod p
once before walking its lifts mod p^2.  Nothing is truncated.

The SL2(Z/p^k)-orbit merging of the full form space is only feasible at
k = 1 (the space has p^(4k) points); sl2_orbit_count_mod_p implements that
component, and the deeper strata are covered by the order-enumeration
route above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm

from .cubicforms import (
    BinaryCubicForm,
    CubicRing,
    _root_multiplicities,
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
    _split,
    Rational,
    cube_class_reps,
    is_prime,
    is_square,
    least_nonresidue,
    unit_part,
    valuation,
)
from .padicroots import form_has_projective_root_qp, has_ring_root


# ----------------------------------------------------------------------
# Exact models of the tame cubic extensions of Q_p
# ----------------------------------------------------------------------


class _ExtElem:
    """c0 + c1*w + c2*w^2 in a cubic model ring, integer coordinates."""

    __slots__ = ("model", "c")

    def __init__(self, model, c):
        self.model = model
        self.c = c

    def __add__(self, other):
        a, b = self.c, other.c
        return _ExtElem(self.model, (a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    def __sub__(self, other):
        a, b = self.c, other.c
        return _ExtElem(self.model, (a[0] - b[0], a[1] - b[1], a[2] - b[2]))

    def __mul__(self, other):
        return self.model._mul(self, other)

    def __eq__(self, other):
        return self.model is other.model and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"ExtElem{self.c}"


class CubicExtModel:
    """O = Z_p[w] with w^3 = r0 + r1*w + r2*w^2, on integer coordinates over
    the basis (1, w, w^2).

    Covers both tame shapes: the unramified cubic (w a lift of a generator
    of F_{p^3}, uniformizer p) and the Eisenstein extensions (w^3 = p*u,
    uniformizer w).  In both, (1, w, w^2) is an integral basis of the ring
    of integers, so Z^3 coordinates cover every integral element that root
    isolation meets, the valuation is read off the coordinates, and
    division by the uniformizer is exact integer division.  Arithmetic is
    exact throughout; nothing is reduced mod a power of p."""

    def __init__(self, p: int, rule: tuple[int, int, int], ramified: bool):
        self.p = p
        self.rule = rule
        self.ramified = ramified
        self.zero = _ExtElem(self, (0, 0, 0))
        self.one = _ExtElem(self, (1, 0, 0))
        self.w = _ExtElem(self, (0, 1, 0))
        # residue degree 3 in the unramified case, 1 in the ramified case
        if ramified:
            self._residues = [self.embed_int(n) for n in range(p)]
        else:
            self._residues = [
                _ExtElem(self, (a, b, c)) for a in range(p) for b in range(p) for c in range(p)
            ]

    @staticmethod
    def unramified(p: int) -> "CubicExtModel":
        f = unramified_cubic_form(p)  # x^3 + A x + B irreducible mod p
        a_coef, b_coef = int(f.c), int(f.d)
        return CubicExtModel(p, (-b_coef, -a_coef, 0), ramified=False)

    @staticmethod
    def eisenstein(p: int, u: int) -> "CubicExtModel":
        return CubicExtModel(p, (p * u, 0, 0), ramified=True)

    def _mul(self, x: _ExtElem, y: _ExtElem) -> _ExtElem:
        a0, a1, a2 = x.c
        b0, b1, b2 = y.c
        # raw product up to w^4; fold down with w^3 = r0 + r1 w + r2 w^2
        c = [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
             a1 * b2 + a2 * b1, a2 * b2]
        r0, r1, r2 = self.rule
        # w^4 = r0 w + r1 w^2 + r2 w^3
        c[1] += c[4] * r0
        c[2] += c[4] * r1
        c[3] += c[4] * r2
        c[0] += c[3] * r0
        c[1] += c[3] * r1
        c[2] += c[3] * r2
        return _ExtElem(self, (c[0], c[1], c[2]))

    def embed_int(self, n: int) -> _ExtElem:
        return _ExtElem(self, (n, 0, 0))

    def val(self, x: _ExtElem) -> int | None:
        """Valuation normalized so that the uniformizer has valuation 1;
        None for zero.  Unramified: min v_p(c_i).  Eisenstein: the terms
        c_i w^i have valuations 3 v_p(c_i) + i, distinct mod 3, so the
        minimum is attained once and is the valuation of the sum."""
        p = self.p
        if self.ramified:
            return min(
                (3 * _split(t, p)[0] + i for i, t in enumerate(x.c) if t), default=None
            )
        return min((_split(t, p)[0] for t in x.c if t), default=None)

    def residues(self):
        return self._residues

    def uniformizer(self) -> _ExtElem:
        return self.w if self.ramified else self.embed_int(self.p)

    def div_uniformizer(self, x: _ExtElem) -> _ExtElem:
        """x divided by a uniformizer: p when unramified, w/u in the
        Eisenstein model w^3 = p*u, where x * u / w = x * w^2 / p.  Unit
        factors leave root sets unchanged.  Refuses an inexact division."""
        p = self.p
        c0, c1, c2 = x.c
        if c0 % p or not self.ramified and (c1 % p or c2 % p):
            raise DomainError("element is not divisible by the uniformizer")
        if self.ramified:
            # x * w^2 = c1*p*u + c2*p*u*w + c0*w^2
            u = self.rule[0] // p
            return _ExtElem(self, (c1 * u, c2 * u, c0 // p))
        return _ExtElem(self, (c0 // p, c1 // p, c2 // p))


def _form_has_root_in_model(f: BinaryCubicForm, model: CubicExtModel) -> bool:
    a, b, c, d = f.coefficients()
    if a == 0 or d == 0:
        return True
    # clear denominators, then the content at p: a rational multiple of f
    # with the same roots and primitive integer coefficients at p
    den = lcm(*(t.denominator for t in (a, b, c, d)))
    coeffs = [int(t * den) for t in (a, b, c, d)]
    scale = model.p ** min(_split(t, model.p)[0] for t in coeffs if t)
    a, b, c, d = (t // scale for t in coeffs)
    emb = model.embed_int
    return has_ring_root(model, [emb(d), emb(c), emb(b), emb(a)]) or has_ring_root(
        model, [emb(a), emb(b), emb(c), emb(d)]
    )


def algebra_class_of_form(f: BinaryCubicForm, p: int) -> str:
    """Which cubic algebra a p-integral form of nonzero discriminant cuts
    out over Q_p: "split" (reducible), "unram", or "ram-u<rep>".  Decided
    entirely by root isolation; p > 3 keeps everything tame."""
    if p <= 3 or not is_prime(p):
        raise DomainError("tame classification requires p > 3")
    if f.discriminant() == 0:
        raise DomainError("degenerate form")
    a, b, c, d = f.coefficients()
    if form_has_projective_root_qp(a, b, c, d, p):
        return "split"
    if _form_has_root_in_model(f, CubicExtModel.unramified(p)):
        return "unram"
    for u in cube_class_reps(p):
        if _form_has_root_in_model(f, CubicExtModel.eisenstein(p, u)):
            return f"ram-u{u}"
    raise PrecisionError("form matched no tame cubic algebra")


# ----------------------------------------------------------------------
# Cubic extensions with prescribed discriminant class
# ----------------------------------------------------------------------


def same_square_class(x: Rational, y: Rational, p: int) -> bool:
    return is_square(Fraction(x) * Fraction(y), Place.finite(p))


def count_cubic_extensions(p: int, d: Rational) -> int:
    """Number of cubic field extensions of Q_p (p > 3) whose discriminant
    lies in the square class of d: the unramified one (unit square
    discriminant) plus the Eisenstein fields x^3 - p*u (discriminant
    -27 p^2 u^2, always in the class of -3)."""
    if p <= 3 or not is_prime(p):
        raise DomainError("extension count requires p > 3")
    d = Fraction(d)
    if d == 0:
        raise DomainError("square class of 0 is undefined")
    n = 0
    if same_square_class(d, 1, p):
        n += 1
    if same_square_class(d, -3, p):
        n += len(cube_class_reps(p))
    return n


def h1_counts_from_extensions(p: int, d: Rational) -> tuple[int, int]:
    """(#H^1, #H^1_un) derived purely from field enumeration: each cubic
    field contributes the two members of its swap pair of orbits, and the
    unramified subgroup consists of the classes split by the unramified
    cubic."""
    total = 1 + 2 * count_cubic_extensions(p, d)
    unram = 1 + (2 if same_square_class(d, 1, p) else 0)
    return total, unram


# ----------------------------------------------------------------------
# Norm-kernel route to the cohomology counts
# ----------------------------------------------------------------------
#
# The group attached to d is the norm-one kernel of K*/(K*)^3 over the
# quadratic algebra K = Q_p[x]/(x^2 + 3d), and its unramified subgroup is
# the same kernel on unit groups.  Modulo cubes (p != 3) everything is a
# small elementary abelian 3-group: a valuation coordinate plus a
# residue-unit coordinate (the one-units are uniquely 3-divisible).  The
# kernels are counted by brute enumeration of these groups, giving a
# second independent derivation of the dimension table that also covers
# p = 2, where extension counting is not implemented.


def _mod_cube_rank(order_of_residue_units: int) -> int:
    return 1 if order_of_residue_units % 3 == 0 else 0


def h1_counts_from_norm_kernel(p: int, d: Rational) -> tuple[int, int]:
    """(#H^1, #H^1_un) from the norm-kernel description, by exhaustive
    enumeration of the mod-cube groups of the quadratic algebra of
    discriminant -3d."""
    if p == 3 or not is_prime(p):
        raise DomainError("norm-kernel route needs residue characteristic != 3")
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    from .localfield import sqrt_extension_unramified

    base_unit_rank = _mod_cube_rank(p - 1)

    if is_square(-3 * d, Place.finite(p)):
        # split algebra: two copies of the base, norm adds coordinates
        elems = []
        for a1 in range(3):
            for u1 in range(3 if base_unit_rank else 1):
                for a2 in range(3):
                    for u2 in range(3 if base_unit_rank else 1):
                        elems.append(((a1, u1), (a2, u2)))
        kernel = sum(
            1
            for (a1, u1), (a2, u2) in elems
            if (a1 + a2) % 3 == 0 and (u1 + u2) % 3 == 0
        )
        unram_kernel = sum(
            1
            for (a1, u1), (a2, u2) in elems
            if a1 == a2 == 0 and (u1 + u2) % 3 == 0
        )
        return kernel, unram_kernel

    if sqrt_extension_unramified(-3 * d, p):
        # inert quadratic: residue field of order p^2 (unit rank 1 always),
        # norm doubles the valuation and raises residue units to p + 1
        unit_rank_k = _mod_cube_rank(p * p - 1)
        assert unit_rank_k == 1
        kernel = unram_kernel = 0
        for a in range(3):
            for u in range(3):
                norm_val = (2 * a) % 3
                norm_unit = ((p + 1) * u) % 3 if base_unit_rank else 0
                if norm_val == 0 and norm_unit == 0:
                    kernel += 1
                    if a == 0:
                        unram_kernel += 1
        return kernel, unram_kernel

    # ramified quadratic: residue field of order p; the Galois involution
    # is trivial on residues, so units norm by squaring, and the norm of a
    # uniformizer has valuation 1.  The valuation constraint a = 0 (mod 3)
    # pins a = 0, so the uniformizer's unit class never enters the kernel.
    unit_rank_k = base_unit_rank
    kernel = unram_kernel = 0
    for a in range(3):
        for u in range(3 if unit_rank_k else 1):
            norm_val = a % 3
            norm_unit = (2 * u) % 3 if unit_rank_k else 0
            if norm_val == 0 and norm_unit == 0:
                kernel += 1
                if a == 0:
                    unram_kernel += 1
    return kernel, unram_kernel


# ----------------------------------------------------------------------
# Exhaustive order enumeration
# ----------------------------------------------------------------------


def _index_sublattices(p: int, j: int):
    """Hermite bases of the index-p^j subgroups of Z^2: rows (a, b), (0, e)
    with a*e = p^j and 0 <= b < e.  sigma(p^j) of them."""
    for i in range(j + 1):
        a, e = p**i, p ** (j - i)
        for b in range(e):
            yield (a, b, e)


def orders_of_index(ring: CubicRing, p: int, j: int, budget: int = 10**6):
    """All subrings of index p^j of a p-integral cubic ring, as Hermite-basis
    triples.  Exhaustive: every index-p^j sublattice containing 1 is the
    preimage of an index-p^j subgroup of Z^2 = ring/Z, and each is tested
    for closure under multiplication.

    The test runs on integers.  The w and t coordinates of the table are
    multiplied by the lcm L of their denominators, a p-unit (a ring that is
    not p-integral is refused); a Z_p-lattice contains z exactly when it
    contains L*z.  With a, e powers of p, (z1, z2) lies in the span of
    (a, b) and (0, e) exactly when a | z1 and e | z2 - (z1/a)*b."""
    coords = [z[i] for z in (ring.ww, ring.wt, ring.tt) for i in (1, 2)]
    den = lcm(*(z.denominator for z in coords))
    if den % p == 0:
        raise DomainError(f"ring is not {p}-integral")
    ww1, ww2, wt1, wt2, tt1, tt2 = (int(z * den) for z in coords)
    found = []
    checked = 0
    for a, b, e in _index_sublattices(p, j):
        checked += 1
        if checked > budget:
            raise BudgetError(f"order search exceeded budget after {checked} lattices")
        # (w, t) coordinates of v1*v1, v1*v2, v2*v2 for v1 = a w + b t, v2 = e t
        aa, ab, bb = a * a, 2 * a * b, b * b
        products = (
            (aa * ww1 + ab * wt1 + bb * tt1, aa * ww2 + ab * wt2 + bb * tt2),
            (a * e * wt1 + b * e * tt1, a * e * wt2 + b * e * tt2),
            (e * e * tt1, e * e * tt2),
        )
        if all(z1 % a == 0 and (z2 - z1 // a * b) % e == 0 for z1, z2 in products):
            found.append((a, b, e))
    return found


def order_from_lattice(ring: CubicRing, basis: tuple[int, int, int]) -> CubicRing:
    """The subring on basis (1, a*w + b*t, e*t), as an abstract cubic
    ring (translation-normalized via its index form)."""
    a, b, e = basis
    v1 = (Fraction(0), Fraction(a), Fraction(b))
    v2 = (Fraction(0), Fraction(0), Fraction(e))

    def in_new_basis(z):
        # z = z0 + z1*w + z2*t with (z1, z2) in the lattice
        y1 = z[1] / a
        y2 = (z[2] - y1 * b) / e
        return (z[0], y1, y2)

    return CubicRing(
        ww=in_new_basis(ring.mul(v1, v1)),
        wt=in_new_basis(ring.mul(v1, v2)),
        tt=in_new_basis(ring.mul(v2, v2)),
    ).validate()


# ----------------------------------------------------------------------
# Truncated arithmetic used for witness verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedRing:
    """Z/p^k as the precision context for witness checks."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
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
        return {
            "algebra": self.algebra,
            "orbit_count": self.orbit_count,
            "integral": self.integral,
            "witness": None if self.witness is None else self.witness.to_json_obj(),
            "order_index_exponent": self.order_index_exponent,
            "orders_found": self.orders_found,
        }


@dataclass(frozen=True)
class OrbitTable:
    p: int
    k: int
    disc_val: int
    unit_class: str
    d0: Fraction
    h1_count: int
    h1_unramified_count: int
    rows: tuple[OrbitRow, ...] = field(default_factory=tuple)

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "disc_val": self.disc_val,
            "unit_class": self.unit_class,
            "d0": str(self.d0),
            "h1_count": self.h1_count,
            "h1_unramified_count": self.h1_unramified_count,
            "rows": [r.to_json_obj() for r in self.rows],
        }

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
    form: BinaryCubicForm, p: int, k: int, disc_val: int, d0: Fraction, algebra: str
) -> None:
    if not form.is_p_integral(p):
        raise AssertionError("witness not p-integral")
    disc = form.discriminant()
    if valuation(disc, p) != disc_val:
        raise AssertionError("witness discriminant valuation mismatch")
    tr = TruncatedRing(p, k)
    ratio = unit_part(disc, p) / unit_part(d0, p)
    if tr.unit_sqrt(ratio) is None:
        raise AssertionError("witness discriminant in the wrong square class")
    got = algebra_class_of_form(form, p)
    if got != algebra:
        raise AssertionError(f"witness cuts out {got}, expected {algebra}")


def enumerate_orbits(
    p: int,
    k: int | None = None,
    disc_val: int = 0,
    unit_class: str = "square",
    budget: int = 10**6,
) -> OrbitTable:
    """Census of the local classes in one discriminant stratum, with
    integrality decided by exhaustive order enumeration and every positive
    answer re-verified through an independently constructed witness form.

    The default precision is max(6, disc_val + 5); passing a smaller k
    than disc_val + 2 is refused rather than silently truncated.
    """
    if p <= 3 or not is_prime(p):
        raise DomainError("orbit enumeration requires p > 3")
    if unit_class not in ("square", "nonsquare"):
        raise DomainError("unit_class must be 'square' or 'nonsquare'")
    if disc_val < 0:
        raise DomainError("discriminant valuation must be nonnegative")
    if k is None:
        k = max(6, disc_val + 5)
    if k < disc_val + 2:
        raise DomainError(f"precision {k} too small for stratum v = {disc_val}")

    u0 = 1 if unit_class == "square" else least_nonresidue(p)
    d0 = Fraction(u0) * Fraction(p) ** disc_val
    h1, h1_un = h1_counts_from_extensions(p, d0)
    rows = []

    # the reducible class, integral for every d: exhibit and verify
    triv = BinaryCubicForm(Fraction(-d0, 4), 0, 1, 0)
    assert triv.discriminant() == d0
    _verify_witness(triv, p, k, disc_val, d0, "split")
    rows.append(OrbitRow("split", 1, True, triv, None, None))

    # field classes present in this stratum
    fields: list[tuple[str, BinaryCubicForm, int]] = []
    if same_square_class(d0, 1, p):
        fields.append(("unram", unramified_cubic_form(p), 0))
    if same_square_class(d0, -3, p):
        for u in cube_class_reps(p):
            fields.append((f"ram-u{u}", BinaryCubicForm(1, 0, 0, -p * u), 2))

    for algebra, max_order_form, v_disc_max in fields:
        delta = disc_val - v_disc_max
        if delta < 0 or delta % 2 != 0:
            rows.append(OrbitRow(algebra, 2, False, None, None, 0))
            continue
        j = delta // 2
        maximal = form_to_ring(max_order_form, p=p)
        found = orders_of_index(maximal, p, j, budget=budget)
        if not found:
            rows.append(OrbitRow(algebra, 2, False, None, j, 0))
            continue
        witness = ring_to_form(order_from_lattice(maximal, found[0]))
        _verify_witness(witness, p, k, disc_val, d0, algebra)
        rows.append(OrbitRow(algebra, 2, True, witness, j, len(found)))

    table = OrbitTable(p, k, disc_val, unit_class, d0, h1, h1_un, tuple(rows))
    if sum(r.orbit_count for r in table.rows) != h1:
        raise AssertionError("orbit census does not match the cohomology count")
    return table


def verify_subring_bijection(ring: CubicRing, p: int) -> bool:
    """Exhaustively enumerate the closed index-p sublattices containing 1
    and compare with the projective zeros of the index form mod p; also
    checks the discriminant scaling p^2 on every subring found."""
    f = ring_to_form(ring)
    subs = orders_of_index(ring, p, 1)
    roots = projective_roots_mod_p(f, p)
    if len(subs) != len(roots):
        return False
    target = p * p * ring.discriminant()
    return all(order_from_lattice(ring, s).discriminant() == target for s in subs)


# ----------------------------------------------------------------------
# Exhaustive form-space scan at modulus p^2
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LowValuationScan:
    p: int
    v1_forms: int
    v1_all_have_simple_root: bool
    triple_forms: int
    eisenstein_forms: int
    dichotomy_holds: bool


def scan_forms_low_valuation(p: int) -> LowValuationScan:
    """Walk every form mod p^2 (coefficients not all divisible by p) with
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

    The walk is residue-first.  The discriminant mod p and the root
    pattern mod p depend only on the residue form, so each of the p^4 - 1
    nonzero residue forms is classified once; the p^4 lifts of each one
    with discriminant divisible by p are then walked one by one, with the
    v(disc) = 1 count, the triple-root count, the Eisenstein test and the
    valuation-2 comparison made on every lift.  All arithmetic is on
    integers.
    """
    if p <= 3 or not is_prime(p):
        raise DomainError("form scan requires p > 3")
    q = p * p
    v1 = v1_simple = triples = eis_count = 0
    dichotomy = True
    for a0, b0, c0, d0 in product(range(p), repeat=4):
        if not (a0 or b0 or c0 or d0) or discriminant(a0, b0, c0, d0) % p:
            continue
        mults = _root_multiplicities(a0, b0, c0, d0, p)
        simple = 1 in mults.values()
        triple = next((root for root, m in mults.items() if m == 3), None)
        lifts = None if triple is None else _root_lift_monomials(triple, p)
        for a, b, c in product(range(a0, q, p), range(b0, q, p), range(c0, q, p)):
            # `discriminant` expanded as a quadratic in d, its coefficients
            # hoisted out of the d loop rather than a call per lift
            k2, k1, k0 = -27 * a * a, 18 * a * b * c - 4 * b**3, b * b * c * c - 4 * a * c**3
            for d in range(d0, q, p):
                disc = (k2 * d + k1) * d + k0
                if disc % q:
                    v1 += 1
                    if simple:
                        v1_simple += 1
                    continue
                if lifts is None:
                    continue
                triples += 1
                eis = _eisenstein_at_root(a, b, c, d, lifts, q)
                if eis:
                    eis_count += 1
                val_is_two = disc % (q * p) != 0
                if eis != val_is_two:
                    dichotomy = False
    return LowValuationScan(
        p=p,
        v1_forms=v1,
        v1_all_have_simple_root=v1 == v1_simple,
        triple_forms=triples,
        eisenstein_forms=eis_count,
        dichotomy_holds=dichotomy,
    )


def _root_lift_monomials(root, p: int) -> list[tuple[int, int, int, int]]:
    """(x^3, x^2 y, x y^2, y^3) mod p^2 at each of the p^2 lifts (x, y) of a
    projective root mod p."""
    x0, y0 = root
    q = p * p
    out = []
    for s in range(p):
        for t in range(p):
            x, y = (x0 + p * s) % q, (y0 + p * t) % q
            out.append((x**3 % q, x * x * y % q, x * y * y % q, y**3 % q))
    return out


def _eisenstein_at_root(a: int, b: int, c: int, d: int, lifts, q: int) -> bool:
    """Whether f = (a, b, c, d) is nonzero mod q at every root lift, given
    the lifts' monomials from _root_lift_monomials."""
    return all((a * m3 + b * m2 + c * m1 + d * m0) % q for m3, m2, m1, m0 in lifts)


# ----------------------------------------------------------------------
# SL2(Z/p) orbit scan (precision k = 1)
# ----------------------------------------------------------------------


def sl2_orbit_count_mod_p(p: int, delta: int) -> int:
    """Number of SL2(F_p)-orbits on the binary cubics over F_p of
    discriminant delta != 0, by breadth-first merging of the whole form
    space under the two standard generators.  The k = 1 instance of orbit
    merging at finite precision."""
    if delta % p == 0:
        raise DomainError("scan requires nonzero discriminant")
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
