"""Local classification of twist classes at a finite place.

Three layers, all symbolic: the dimension table for the order-3 Galois
module cut out by sqrt(d) (keyed by whether zeta_3 lies in the completion
and by the square classes of d and -3d), the integral-orbit classification
by the valuation of d, and the soluble-class description for a good
reduction 3-isogeny.  Class descriptors are kind tags, not cocycles; the
group itself is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cubicforms import BinaryCubicForm, discriminant
from .errors import DomainError, NonIntegralClassError
from .localfield import (
    Place,
    Rational,
    SquareClassification,
    _entry_split,
    _split,
    classify_squares,
    cube_class_reps,
    is_square,
    sqrt_extension_unramified,
    tame_place,
)

KIND_TRIVIAL = "trivial"
KIND_UNRAM_1 = "unram-1"
KIND_UNRAM_2 = "unram-2"
KIND_RAMIFIED = "ramified"


@dataclass(frozen=True)
class OrbitClassDescriptor:
    """One class of the local classification.  `detail` separates the
    ramified classes: "u<rep>.<a|b>" names the Eisenstein unit class and the
    member of the swap pair.  The unram-1/unram-2 labels (and the a/b pair
    labels) are non-canonical: the two members are Galois-conjugate orbits
    the theory does not distinguish."""

    kind: str
    detail: str = ""
    integral: bool = True
    soluble: bool | None = None

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "integral": self.integral}
        if self.detail:
            obj["detail"] = self.detail
        if self.soluble is not None:
            obj["soluble"] = self.soluble
        return obj


@dataclass(frozen=True)
class LocalTwistDatum:
    """Everything the local layer needs to know about a twist parameter at
    one finite place, with the valuation reduced into [0, 2n)."""

    place: Place
    d: Fraction
    v_d: int
    u: Fraction
    squares: SquareClassification
    n: int
    r: int | None  # 3^r = gcd(3^m, v(d)), defined when v(d) is even positive


def level_r(v: int, m: int) -> int:
    """The r of an even valuation 0 < v < 2 * 3^m: 3^r = gcd(3^m, v)."""
    r = 0
    while r < m and v % 3 ** (r + 1) == 0:
        r += 1
    return r


def build_twist_datum(p: int, d: Rational, m: int = 1) -> LocalTwistDatum:
    """The datum of d at p: one `Place` proves p, one split of d gives its
    valuation and unit part."""
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    place = Place.finite(p)
    n = 3**m
    v, num, den = _split(d, p)
    u = Fraction(num, den)
    v_red = v % (2 * n)
    d_red = u * p**v_red
    return LocalTwistDatum(
        place=place,
        d=d_red,
        v_d=v_red,
        u=u,
        squares=classify_squares(d_red, place),
        n=n,
        r=level_r(v_red, m) if v_red > 0 and v_red % 2 == 0 else None,
    )


def h1_dims(place: Place, d: Rational) -> tuple[int, int]:
    """(dim of the full local cohomology group, dim of its unramified
    subgroup) for the twist d, at a finite place of residue characteristic
    not 3.  Exactly the six-cell table."""
    if not place.is_finite:
        raise DomainError("dimension table is defined at finite places only")
    if place.p == 3:
        raise DomainError("residue characteristic 3 is outside the table's domain")
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    sq = classify_squares(d, place)
    if place.p % 3 == 1:
        # -3 is a square, so the d and -3d columns coincide
        return (2, 1) if sq.d_is_square else (0, 0)
    if sq.d_is_square:
        return (1, 1)
    if sq.minus3d_is_square:
        return (1, 0)
    return (0, 0)


def _class_list(p: int, dims: tuple[int, int]) -> list[tuple[str, str]]:
    dim_total, dim_un = dims
    out = [(KIND_TRIVIAL, "")]
    if dim_un == 1:
        out.append((KIND_UNRAM_1, ""))
        out.append((KIND_UNRAM_2, ""))
    n_ram = 3**dim_total - 3**dim_un
    if n_ram:
        reps = cube_class_reps(p)
        assert n_ram == 2 * len(reps)
        for u_rep in reps:
            out.append((KIND_RAMIFIED, f"u{u_rep}.a"))
            out.append((KIND_RAMIFIED, f"u{u_rep}.b"))
    return out


def classify_integral(p: int | Place, d: Rational) -> list[OrbitClassDescriptor]:
    """All local classes for the twist d at p > 3, each flagged integral or
    not: at v(d) = 0 exactly the unramified classes are integral, at odd
    v(d) only the trivial class exists, at v(d) = 2 exactly the nontrivial
    unramified classes fail, and for even v(d) > 2 everything is integral."""
    place = tame_place(p, "classification")
    p = place.p
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    v = _split(d, p)[0]
    if v < 0:
        raise DomainError("twist parameter must be p-integral")

    def integral(kind: str) -> bool:
        if kind == KIND_TRIVIAL:
            return True
        if kind == KIND_RAMIFIED:
            return v >= 2
        return v == 0 or (v % 2 == 0 and v >= 4)  # nontrivial unramified

    return [
        OrbitClassDescriptor(kind=kind, detail=detail, integral=integral(kind))
        for kind, detail in _class_list(p, h1_dims(place, d))
    ]


# ----------------------------------------------------------------------
# Constructive integral representatives
# ----------------------------------------------------------------------


def _mul_mod_cubic(
    u: tuple[int, int, int], v: tuple[int, int, int], a: int, b: int, p: int
) -> tuple[int, int, int]:
    """u * v in F_p[x] / (x^3 + a x + b), residues as (c0, c1, c2)."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    d3 = u1 * v2 + u2 * v1
    d4 = u2 * v2
    return (
        (u0 * v0 - b * d3) % p,
        (u0 * v1 + u1 * v0 - a * d3 - b * d4) % p,
        (u0 * v2 + u1 * v1 + u2 * v0 - a * d4) % p,
    )


def _cubic_has_root(a: int, b: int, p: int) -> bool:
    """Whether x^3 + a x + b has a root mod the prime p > 3, read off the
    parity of its discriminant (Stickelberger): a zero discriminant means a
    repeated, hence rational, root, and a nonsquare one a linear times an
    irreducible quadratic factor.  A nonzero square leaves 0 or 3 roots,
    and f splits exactly when x^p = x (mod f), with x^p reduced by
    square-and-multiply, so the test costs O(log p) products."""
    disc = discriminant(1, 0, a, b) % p
    if disc == 0 or pow(disc, (p - 1) // 2, p) != 1:
        return True
    r = (1, 0, 0)
    for bit in bin(p)[2:]:
        r = _mul_mod_cubic(r, r, a, b, p)
        if bit == "1":  # times x: x^3 = -a x - b
            r = ((-b * r[2]) % p, (r[0] - a * r[2]) % p, r[1])
    return r == (0, 1, 0)


def unramified_cubic_form(p: int) -> BinaryCubicForm:
    """Index form of the maximal order of the unramified cubic extension:
    x^3 + A x y^2 + B y^3 from the first monic cubic x^3 + A x + B, in the
    order of (A, B), that is irreducible mod p.  A cubic with no root mod p
    is irreducible; by the discriminant-parity test of `_cubic_has_root`
    its discriminant is a unit square, and x^p != x modulo it.
    For p = 2 (mod 3) cubing permutes F_p, so every x^3 + B has a root and
    the A = 0 row is skipped."""
    for a_coef in range(1 if p % 3 == 2 else 0, p):
        for b_coef in range(1, p):
            if not _cubic_has_root(a_coef, b_coef, p):
                return BinaryCubicForm(1, 0, a_coef, b_coef)
    raise AssertionError(f"no irreducible cubic found mod {p}")


def _asymmetric_conductor(f: BinaryCubicForm, p: int) -> BinaryCubicForm:
    # the subring on basis (1, p^2 w, p t): multiplies the discriminant by
    # p^6, shifting its valuation by 6 instead of conductor_subring's 4
    a, b, c, d = f.coefficients()
    q = Fraction(p)
    return BinaryCubicForm(a * q**3, b * q**2, c * q, d)


def integral_representative(
    p: int | Place, d: Rational, cls: OrbitClassDescriptor
) -> BinaryCubicForm:
    """A p-integral form in the given class whose discriminant has the
    valuation of d and the same unit square class.  (Exact equality of the
    unit part is not attainable over Q in general: the local scaling that
    matches units is a p-adic, not rational, square root.)"""
    place = tame_place(p, "a representative")
    p = place.p
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    v = _split(d, p)[0]
    if not cls.integral:
        raise NonIntegralClassError(f"class {cls.kind} has no p-integral representative at v(d)={v}")
    q = Fraction(p)

    if cls.kind == KIND_TRIVIAL:
        form = BinaryCubicForm(-d / 4, 0, 1, 0)
    elif cls.kind in (KIND_UNRAM_1, KIND_UNRAM_2):
        base = unramified_cubic_form(p)
        if v == 0:
            form = base
        elif v % 4 == 0:
            form = base.scale(q ** (v // 4))
        else:  # v = 2 (mod 4), v >= 6; v = 2 is the non-integral case
            form = _asymmetric_conductor(base, p).scale(q ** ((v - 6) // 4))
        if cls.kind == KIND_UNRAM_2:
            form = form.swap()
    elif cls.kind == KIND_RAMIFIED:
        u_rep = int(cls.detail[1:].split(".")[0])
        base = BinaryCubicForm(1, 0, 0, -p * u_rep)  # x^3 - p*u y^3, Eisenstein
        if v % 4 == 2:
            form = base.scale(q ** ((v - 2) // 4))
        else:  # v = 0 (mod 4), v >= 4
            # index-p suborder of the maximal order, discriminant valuation 4
            suborder = BinaryCubicForm(-u_rep, 0, 0, q**2)
            form = suborder.scale(q ** ((v - 4) // 4))
        if cls.detail.endswith(".b"):
            form = form.swap()
    else:
        raise DomainError(f"unknown class kind {cls.kind!r}")

    disc = form.discriminant()
    assert form.is_p_integral(place)
    # same valuation, so the unit parts share a square class when disc * d is a square
    assert disc != 0 and _split(disc, p)[0] == v
    assert is_square(disc * d, place)
    return form


# ----------------------------------------------------------------------
# Soluble classes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SolubleClasses:
    """The image of the local Kummer map, at the resolution of the good
    reduction theorem.  `nontrivial_kinds` lists the soluble nontrivial
    class kinds when the theorem pins the image down exactly (the trivial
    class is always soluble); when only the intersection with the
    unramified subgroup is determined, `nontrivial_kinds` is None and
    `meets_unramified` carries the answer."""

    case: str  # "unramified" | "zero" | "unram-trivial" | "summand"
    nontrivial_kinds: frozenset[str] | None
    meets_unramified: bool | None

    def selector(self, classes: list[OrbitClassDescriptor]) -> list[OrbitClassDescriptor]:
        if self.nontrivial_kinds is None:
            raise DomainError("soluble set is only known inside the unramified subgroup")
        keep = self.nontrivial_kinds | {KIND_TRIVIAL}
        return [c for c in classes if c.kind in keep]

    def count(self, classes: list[OrbitClassDescriptor]) -> int:
        return len(self.selector(classes))


def soluble_classes(datum: LocalTwistDatum, summand_flag: bool) -> SolubleClasses:
    """Image of the local Kummer map for a good reduction twist at residue
    characteristic != 3.  Residue characteristic 2 is admitted exactly as
    far as the theorem extends there: the v(d) = 0 and ramified-sqrt cases."""
    p = datum.place.p
    assert p is not None
    if p == 3:
        raise DomainError("3-adic places take ratio overrides, not this theorem")
    v = datum.v_d

    if not sqrt_extension_unramified(datum.d, datum.place):
        # covers odd v(d); the whole group vanishes
        return SolubleClasses("zero", frozenset(), False)
    if v == 0:
        kinds = frozenset({KIND_UNRAM_1, KIND_UNRAM_2}) if h1_dims(datum.place, datum.d)[1] else frozenset()
        return SolubleClasses("unramified", kinds, bool(kinds))
    if p == 2:
        raise DomainError("even positive v(d) at p = 2 is outside the theorem")
    if not datum.squares.d_is_square:
        # unramified subgroup is trivial; image beyond it is ratio data
        return SolubleClasses("unram-trivial", None, False)
    return SolubleClasses("summand", None, not summand_flag)


def unit_class(u: Rational, p: int, r: int) -> int | str:
    """The class of the p-adic unit u at the proven prime p and r, all that
    a table-2 exponent reads of u: u mod 8 at p = 2; else "nonsquare",
    "square", or "power" for a square that is a 3^r-th power unit (every
    square at p = 3).  The one-units are uniquely 3-divisible away from 3,
    so u is a 3^r-th power exactly when its residue is a 3^r-th power in
    F_p^*, that is when u^((p - 1) / gcd(3^r, p - 1)) = 1 (mod p)."""
    mod = 8 if p == 2 else p
    u = u.numerator * pow(u.denominator, -1, mod) % mod
    if p == 2:
        return u
    if pow(u, (p - 1) // 2, p) != 1:
        return "nonsquare"
    return "power" if p == 3 or pow(u, (p - 1) // gcd(3**r, p - 1), p) == 1 else "square"


def class_labels(p: int, cls: int | str) -> tuple[str, ...]:
    """The labels under which a configuration may key the unit class cls
    at p, most specific first.  At p = 2 every unit is a 3^r-th power, so
    the square class 1 is a "power"."""
    label = ("power" if cls == 1 else "nonsquare") if p == 2 else cls
    if label == "nonsquare":
        return ("nonsquare", "any")
    return ("power", "square", "any") if label == "power" else ("square", "any")


def unit_class_labels(u: Rational, place: Place, r: int) -> tuple[str, ...]:
    """The label chain of the unit u at the finite place and r.  The place
    has proven its prime."""
    if _entry_split(u, place)[0]:
        raise DomainError(f"{u} is not a unit at {place.p}")
    return class_labels(place.p, unit_class(u, place.p, r))
