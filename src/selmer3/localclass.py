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

from .cubicforms import BinaryCubicForm
from .errors import DomainError, IncompleteConfigError, NonIntegralClassError
from .localfield import (
    Place,
    Rational,
    SquareClassification,
    classify_squares,
    cube_class_reps,
    is_prime,
    is_square,
    is_unit_3power,
    sqrt_extension_unramified,
    unit_part,
    valuation,
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


def build_twist_datum(p: int, d: Rational, m: int = 1) -> LocalTwistDatum:
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    n = 3**m
    v = valuation(d, p)
    v_red = v % (2 * n)
    d_red = d * Fraction(p) ** (v_red - v)
    r = None
    if v_red > 0 and v_red % 2 == 0:
        r = 0
        while v_red % 3 ** (r + 1) == 0 and r + 1 <= m:
            r += 1
    return LocalTwistDatum(
        place=Place.finite(p),
        d=d_red,
        v_d=v_red,
        u=unit_part(d_red, p),
        squares=classify_squares(d_red, Place.finite(p)),
        n=n,
        r=r,
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


def classify_integral(p: int, d: Rational) -> list[OrbitClassDescriptor]:
    """All local classes for the twist d at p > 3, each flagged integral or
    not: at v(d) = 0 exactly the unramified classes are integral, at odd
    v(d) only the trivial class exists, at v(d) = 2 exactly the nontrivial
    unramified classes fail, and for even v(d) > 2 everything is integral."""
    if p <= 3 or not is_prime(p):
        raise DomainError(f"classification requires a prime p > 3, got {p}")
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    v = valuation(d, p)
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
        for kind, detail in _class_list(p, h1_dims(Place.finite(p), d))
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


def _poly_gcd(u: list[int], v: list[int], p: int) -> list[int]:
    """A gcd over F_p of two coefficient lists, constant term first; the
    result carries no leading zeros (empty for the zero polynomial)."""
    while u and u[-1] == 0:
        u.pop()
    while v and v[-1] == 0:
        v.pop()
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            q = u[-1] * inv % p
            shift = len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] = (u[shift + i] - q * c) % p
            while u and u[-1] == 0:
                u.pop()
        u, v = v, u
    return u


def _cubic_has_root(a: int, b: int, p: int) -> bool:
    """Whether x^3 + a x + b has a root mod p: gcd(f, x^p - x) != 1
    (Rabin), with x^p reduced mod f by square-and-multiply, so the test
    costs O(log p) products instead of a scan over F_p."""
    r = (1, 0, 0)
    for bit in bin(p)[2:]:
        r = _mul_mod_cubic(r, r, a, b, p)
        if bit == "1":  # times x: x^3 = -a x - b
            r = ((-b * r[2]) % p, (r[0] - a * r[2]) % p, r[1])
    g = _poly_gcd([b % p, a % p, 0, 1], [r[0], (r[1] - 1) % p, r[2]], p)
    return len(g) > 1


def unramified_cubic_form(p: int) -> BinaryCubicForm:
    """Index form of the maximal order of the unramified cubic extension:
    x^3 + A x y^2 + B y^3 from the first monic cubic x^3 + A x + B, in the
    order of (A, B), that is irreducible mod p.  A cubic with no root mod p
    is irreducible, and its discriminant is automatically a unit square.
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
    p: int, d: Rational, cls: OrbitClassDescriptor
) -> BinaryCubicForm:
    """A p-integral form in the given class whose discriminant has the
    valuation of d and the same unit square class.  (Exact equality of the
    unit part is not attainable over Q in general: the local scaling that
    matches units is a p-adic, not rational, square root.)"""
    d = Fraction(d)
    if not cls.integral:
        raise NonIntegralClassError(
            f"class {cls.kind} has no p-integral representative at v(d)={valuation(d, p)}"
        )
    if p <= 3 or not is_prime(p):
        raise DomainError(f"representatives require a prime p > 3, got {p}")
    v = valuation(d, p)
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
    assert form.is_p_integral(p)
    assert valuation(disc, p) == v
    assert is_square(unit_part(disc, p) * unit_part(d, p), Place.finite(p))
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


def soluble_classes(
    datum: LocalTwistDatum, summand_flag: bool, good_reduction: bool = True
) -> SolubleClasses:
    """Image of the local Kummer map for a good reduction twist at residue
    characteristic != 3.  Residue characteristic 2 is admitted exactly as
    far as the theorem extends there: the v(d) = 0 and ramified-sqrt cases."""
    p = datum.place.p
    assert p is not None
    if p == 3:
        raise DomainError("3-adic places take ratio overrides, not this theorem")
    if not good_reduction:
        raise DomainError("bad reduction places take ratio overrides, not this theorem")
    v = datum.v_d

    if not sqrt_extension_unramified(datum.d, p):
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


def unit_class_labels(u: Rational, p: int, r: int) -> tuple[str, ...]:
    """The labels under which a configuration may key the unit class of u
    at p and r, most specific first: "power" for a square that is a 3^r-th
    power unit (every square at p = 3), then "square" or "nonsquare", then
    "any"."""
    if not is_square(u, Place.finite(p)):
        return ("nonsquare", "any")
    if p == 3 or is_unit_3power(u, p, r):
        return ("power", "square", "any")
    return ("square", "any")


def summand_flag_reduction(
    u: Rational,
    r: int,
    p: int,
    global_summand_bit: bool,
    unit_class_table: dict[tuple[str, int], bool] | None = None,
) -> bool:
    """The direct-summand flag that decides solubility at even positive
    v(d).  At r = 0 it is the configured global bit, independent of u; for
    r >= 1 the flag is looked up by the unit class of u.  A u that is a
    (2*3^r)-th power is in the class of u = 1, keyed "power"."""
    if r == 0:
        return global_summand_bit
    u = Fraction(u)
    table = unit_class_table or {}
    for label in unit_class_labels(u, p, r):
        if (label, r) in table:
            return table[(label, r)]
    raise IncompleteConfigError(
        f"descriptor incomplete: no summand flag for unit class of {u} at r={r}"
    )
