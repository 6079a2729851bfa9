"""The Selmer-ratio calculus.

Every local ratio is a power of 3 and is carried as its base-3 exponent,
never as a float.  Good finite places follow the even-positive-valuation
ratio table (keyed by whether zeta_3 is present and by the square classes
of d and -3d, with the extension-class orders |kappa|, |kappa-hat| looked
up from the isogeny descriptor); archimedean places contribute the inverse
of the twisted kernel size; places of bad reduction and places over 3 take
configured override exponents, mirroring the fact that those inputs come
from an external computation and enter this artifact as data.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import compress
from math import isqrt

from .errors import Document, DomainError, IncompleteConfigError, malformed
from .localclass import LocalTwistDatum, class_labels, level_r, unit_class, unit_class_labels
from .localfield import Place, Rational, is_prime
from .twistfamilies import TwistClass, TwistFamily, _primes_below, _walk, admitted_masks, factorize, reduce_class

# ----------------------------------------------------------------------
# Configuration types
# ----------------------------------------------------------------------


def _read_place(value, path: str) -> Place:
    """A prime, "real" or "complex"."""
    if type(value) is int:
        return Place.finite(value)
    if type(value) is not str:
        raise malformed(path, value, 'a prime, "real" or "complex"')
    if value not in ("real", "complex"):
        raise DomainError(f"unintelligible place {value!r}")
    return Place(value)


def _write_place(place: Place) -> int | str:
    return place.p if place.is_finite else place.kind


@dataclass(frozen=True)
class LocalPlaceProfile(Document):
    place: Place = field(metadata={"json": (_read_place, _write_place)})
    reduction: str = "good"  # "good" | "bad"
    override_exponent: int | None = None

    def __post_init__(self) -> None:
        if self.reduction not in ("good", "bad"):
            raise DomainError("reduction must be 'good' or 'bad'")
        if self.place.is_finite:
            needs = self.reduction == "bad" or self.place.p == 3
            if needs and self.override_exponent is None:
                raise IncompleteConfigError(
                    f"place {self.place} needs an override exponent "
                    "(bad reduction and residue characteristic 3 are data, not theorems)"
                )


def _log3_order(order: int) -> int:
    k, power = 0, 1
    while power < order:
        k, power = k + 1, 3 * power
    if power != order:
        raise DomainError(f"extension-class order {order} is not a power of 3")
    return k


@dataclass(frozen=True)
class KappaEntry(Document):
    r: int
    unit_class: str  # "any" | "power" | "square" | "nonsquare"
    kappa: int
    kappa_hat: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise DomainError(f"r = {self.r} is negative")
        _log3_order(self.kappa)
        _log3_order(self.kappa_hat)
        if self.unit_class not in ("any", "power", "square", "nonsquare"):
            raise DomainError(f"unknown unit class label {self.unit_class!r}")
        if self.r == 0 and self.unit_class != "any":
            raise DomainError("r = 0 entries are independent of the unit class")


# The largest level exponent m: every computation takes n = 3^m.
MAX_LEVEL = 100


@dataclass(frozen=True)
class IsogenyDescriptor(Document):
    """Configuration of one zeta-linear 3-isogeny: the level n = 3^m, the
    square class cutting out the field of the kernel, the global
    direct-summand bit, and the per-(unit class, r) extension-class
    orders."""

    m: int = 1
    kernel_character: Fraction = Fraction(1)
    global_summand_bit: bool = True
    kappa_orders: tuple[KappaEntry, ...] = ()
    name: str = ""

    schema = 1

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_LEVEL:
            raise DomainError(f"level exponent m must be between 1 and {MAX_LEVEL}")
        if self.kernel_character == 0:
            raise DomainError("kernel character must be a nonzero square class")
        for entry in self.kappa_orders:
            if entry.r == 0 and (entry.kappa == 1) != self.global_summand_bit:
                raise DomainError(
                    "|kappa| = 1 at r = 0 must agree with the global summand bit"
                )

    @property
    def n(self) -> int:
        return 3**self.m

    def kappa_exponents(self, p: int, labels: tuple[str, ...], r: int) -> tuple[int, int]:
        """(log3 |kappa|, log3 |kappa-hat|) of the first entry at r keyed
        by a label of the unit class's chain at p; raises when the table
        has none."""
        for label in labels:
            for entry in self.kappa_orders:
                if entry.r == r and entry.unit_class == label:
                    return _log3_order(entry.kappa), _log3_order(entry.kappa_hat)
        raise IncompleteConfigError(
            f"descriptor incomplete: no kappa orders for r={r}, unit class {labels[0]} at p={p}"
        )

    def summand_flag(self, p: int, u: Rational, r: int) -> bool:
        if r == 0:
            return self.global_summand_bit
        return self.kappa_exponents(p, unit_class_labels(u, Place.finite(p), r), r)[0] == 0


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

# The largest |k| of a reported 3^k: 3^9000 has 4,295 of int's 4,300 digits.
MAX_REPORTED_EXPONENT = 9000


def _power_of_3(k: int) -> Fraction:
    if abs(k) > MAX_REPORTED_EXPONENT:
        raise DomainError(f"a global exponent past {MAX_REPORTED_EXPONENT} in absolute value")
    return Fraction(3) ** k


@dataclass(frozen=True)
class PlaceExponent:
    place_label: str
    exponent: int
    provenance: str


@dataclass(frozen=True)
class SelmerRatioReport:
    entries: tuple[PlaceExponent, ...]
    d0: int

    @property
    def global_exponent(self) -> int:
        return sum(e.exponent for e in self.entries)

    def ratio(self) -> Fraction:
        return _power_of_3(self.global_exponent)

    def to_json_obj(self) -> dict:
        return {
            "d0": self.d0,
            "places": [
                {"place": e.place_label, "k": e.exponent, "provenance": e.provenance}
                for e in self.entries
            ],
            "global_k": self.global_exponent,
            "ratio": str(self.ratio()),
        }


# ----------------------------------------------------------------------
# Local exponents
# ----------------------------------------------------------------------


def archimedean_exponent(desc: IsogenyDescriptor, d: Rational) -> int:
    """Real-place rule: the ratio is 1 over the number of real points of
    the twisted kernel, so it is 1 when the kernel character is nontrivial
    on conjugation (k0 * d < 0) and 1/3 otherwise."""
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist parameter must be nonzero")
    return 0 if desc.kernel_character * d < 0 else -1


def _class_exponent(desc: IsogenyDescriptor, p: int, r: int, cls: int | str) -> int:
    """The table-2 exponent at a good prime p != 3 and an even v(d) > 0 of
    level r, for a unit of class cls: the kappa orders come from its label
    chain.  Where p = 1 (mod 3), zeta_3 is present and -3 a square, so d and
    -3d are squares together; at odd p = 2 (mod 3) exactly one of them is;
    at 2, d is a square when its unit is 1 (mod 8) and -3d when it is 5."""
    labels = class_labels(p, cls)
    kappa, kappa_hat = desc.kappa_exponents(p, labels, r)
    d_square = labels[0] != "nonsquare"
    if p % 3 == 1:
        return kappa - kappa_hat if d_square else 0
    if d_square:
        return kappa - 1
    return 1 - kappa_hat if p != 2 or cls == 5 else 0


def local_exponent(
    profile: LocalPlaceProfile,
    desc: IsogenyDescriptor,
    datum: LocalTwistDatum | None = None,
    d: Rational | None = None,
) -> int:
    """log3 of the local Selmer ratio at the profiled place.  Finite places
    read the twist datum; the real place only needs the sign of d."""
    place = profile.place
    if place.kind == "complex":
        return -1
    if place.kind == "real":
        if d is None and datum is None:
            raise DomainError("archimedean exponent needs the twist parameter")
        return archimedean_exponent(desc, d if d is not None else datum.d)
    if profile.override_exponent is not None:  # required at bad places and at 3
        return profile.override_exponent
    if datum is None:
        raise DomainError("finite-place exponent needs the local twist datum")
    if datum.v_d == 0 or datum.v_d % 2 == 1:
        return 0
    p = datum.place.p
    return _class_exponent(desc, p, datum.r, unit_class(datum.u, p, datum.r))


class _PlaceExponents:
    """The per-place exponents of one configuration, for one report or one
    partition: the profiles are indexed once, and the table-2 exponent of
    each (p, v(d) mod 2n, unit class of d at p) is computed once, when a
    member first reaches it.  Those are exactly the inputs of r and of
    `_class_exponent`, so no twist datum is built.  Provenance is decided
    here: an override, a good place with v(d) = 0 or odd (exponent 0), or a
    table-2 cell."""

    def __init__(self, profiles: list[LocalPlaceProfile], desc: IsogenyDescriptor) -> None:
        self.desc = desc
        self.primes: set[int] = set()
        self.overrides: dict[int, int] = {}  # finite places only: an archimedean override is ignored
        self.arch_label: str | None = None
        for prof in profiles:
            p = prof.place.p
            if p is None:
                if self.arch_label is not None:
                    raise DomainError(f"two archimedean places profiled: {self.arch_label}, {prof.place.kind}")
                self.arch_label = prof.place.kind
                continue
            if p in self.primes:
                raise DomainError(f"place {p} is profiled twice")
            self.primes.add(p)
            if prof.override_exponent is not None:
                self.overrides[p] = prof.override_exponent
        if self.arch_label is None:
            raise IncompleteConfigError("no archimedean place profiled")
        if 3 not in self.primes:
            raise IncompleteConfigError("place 3 is not covered by the configuration")
        self.arch_k = {
            sign: -1 if self.arch_label == "complex" else archimedean_exponent(desc, sign)
            for sign in (1, -1)
        }
        self.table2: dict[tuple[int, int, int | str], int] = {}

    def table2_exponent(self, p: int, v: int, d0: int) -> int:
        """The table-2 exponent at the good prime p of d0 = u p^v, v even
        and positive, memoized per (p, v mod 2n, unit class of u).  A
        valuation v = 0 (mod 2n) reads as v(d) = 0, exponent 0."""
        v_red = v % (2 * self.desc.n)
        if not v_red:
            return 0
        r = level_r(v_red, self.desc.m)
        key = (p, v_red, unit_class(d0 // p**v, p, r))
        k = self.table2.get(key)
        if k is None:
            k = self.table2[key] = _class_exponent(self.desc, p, r, key[2])
        return k

    def entries(self, tc: TwistClass) -> list[tuple[str, int, str]]:
        """(place label, exponent, provenance) at the archimedean place and
        at every profiled prime or prime dividing d0, primes increasing."""
        d0 = tc.d0
        out = [(self.arch_label, self.arch_k[1 if d0 > 0 else -1], "archimedean")]
        vals = tc.factorization()
        for p in sorted(vals.keys() | self.primes):
            v = vals.get(p, 0)
            if p in self.overrides:
                out.append((str(p), self.overrides[p], "override"))
            elif v == 0 or v % 2 == 1:
                out.append((str(p), 0, "good"))
            else:
                out.append((str(p), self.table2_exponent(p, v, d0), "table2"))
        return out


def global_report(
    profiles: list[LocalPlaceProfile], desc: IsogenyDescriptor, d: Rational
) -> SelmerRatioReport:
    """Per-place exponents and their sum, for the twist class of d.  The
    profiles must cover every place where the exponent can be nonzero: one
    archimedean place, the place over 3, all bad places; good places
    dividing d are synthesized automatically."""
    tc = reduce_class(d, desc.n)
    entries = _PlaceExponents(profiles, desc).entries(tc)
    return SelmerRatioReport(tuple(PlaceExponent(*e) for e in entries), tc.d0)


# ----------------------------------------------------------------------
# Averages and bounds
# ----------------------------------------------------------------------


def average_selmer_prediction(k: int) -> Fraction:
    """Average Selmer size on the stratum where the global ratio is 3^k."""
    return 1 + _power_of_3(k)


def _good_places_vanish(family: TwistFamily, desc: IsogenyDescriptor) -> bool:
    """Whether every good place has table-2 exponent 0 on every even
    stratum 2 <= v(d) < 2 min(family.n, desc.n), the ones the family's
    members reach.  `_class_exponent` reads p only as 2 or mod 3, v only
    through r, and d's unit only through its class, so 2, 5 and 7 with the
    classes of their units, and the levels r, stand for all.  At p = 2
    (mod 3) every unit is a 3^r-th power, so none is of class "square"; at
    r = 0, "square" and "power" read the same "any" entry.  A stratum
    without kappa orders reads as False."""
    classes = ((2, (1, 3, 5, 7)), (5, ("nonsquare", "power")), (7, ("nonsquare", "square", "power")))
    levels = range(_log3_order(min(family.n, desc.n)))
    try:
        return not any(_class_exponent(desc, p, r, cls) for p, cs in classes for cls in cs for r in levels)
    except IncompleteConfigError:
        return False


def _sign_densities(family: TwistFamily, rule: _PlaceExponents) -> dict[int, Fraction] | None:
    """{k: density of T_k in the family}, read off the configuration, or
    None when the finite part of k is not constant on the family.  It is
    constant, the sum C of the override exponents, when every good place
    contributes 0: always on a squarefree family (v(d) is 0 or 1 there),
    otherwise exactly when `_good_places_vanish`.  Then the sign alone
    decides the cell, arch_k[sign] + C, and each sign holds the same share
    of the family (negation preserves residue classes' power-free
    densities)."""
    if not (family.squarefree or _good_places_vanish(family, rule.desc)):
        return None
    const = sum(rule.overrides.values())
    densities: dict[int, Fraction] = {}
    for sign in family.signs:
        k = rule.arch_k[sign] + const
        densities[k] = densities.get(k, Fraction(0)) + Fraction(1, len(family.signs))
    return densities


def euler_product_average(
    family: TwistFamily, desc: IsogenyDescriptor, profiles: list[LocalPlaceProfile]
) -> Fraction:
    """The exact predicted average Selmer size over the family: the sum
    over k of density(T_k) * (1 + 3^k), with the densities `tk_partition`
    attaches.  Refused with `IncompleteConfigError` when they are unknown,
    that is when the family is not squarefree and some good place has a
    nonzero table-2 exponent, and when a congruence condition of a
    non-squarefree family sits at a prime without an override."""
    rule = _PlaceExponents(profiles, desc)
    if not family.squarefree:
        # a congruence condition reshapes the local measure at its primes;
        # that only cancels out when the ratio is constant there (override)
        # or identically 1 (the squarefree strata)
        for cond in family.conditions:
            for q in factorize(cond.modulus):
                if q not in rule.overrides:
                    raise IncompleteConfigError(
                        f"congruence condition at {q} needs an override profile "
                        "or the squarefree restriction"
                    )
    densities = _sign_densities(family, rule)
    if densities is None:
        raise IncompleteConfigError(
            "unprofiled good places have a non-unit generic factor; "
            "profile them explicitly or restrict to a squarefree family"
        )
    return sum(dens * average_selmer_prediction(k) for k, dens in densities.items())


def greenberg_wiles_check(
    selmer_dims: tuple[int, int],
    torsion: tuple[int, int],
    report: "SelmerRatioReport | int",
) -> bool:
    """The ratio identity: 3^k must equal
    (#Sel(phi) / #Sel(phi-dual)) * (#dual-kernel torsion / #kernel torsion).
    Accepts either a report or its global exponent."""
    k = report.global_exponent if isinstance(report, SelmerRatioReport) else report
    d1, d2 = selmer_dims
    t_ker, t_dual = torsion
    return Fraction(3) ** k == Fraction(3) ** (d1 - d2) * Fraction(t_dual, t_ker)


def duality_exponent(ell: int, k_ell: int) -> int:
    """Local duality at an odd prime: the ratio of an isogeny and its dual
    multiply to ell, so the dual exponent is 1 - k."""
    if ell == 2 or not is_prime(ell):
        raise DomainError("duality rule applies at odd primes only")
    return 1 - k_ell


def parity_prediction(global_exponent: int) -> str:
    """Parity of the 3-Selmer dimension equals the parity of the global
    exponent (for twists other than the trivial one)."""
    return "odd" if global_exponent % 2 else "even"


def rank_density_bounds(k: int) -> tuple[Fraction, Fraction]:
    """The one rank bound, on the stratum where the ratio is 3^k: (average-dimension
    bound |k| + 3^-|k|, lower bound 1 - 1/(2*3^|k|) on the density of dimension |k|)."""
    inverse = _power_of_3(-abs(k))
    return abs(k) + inverse, 1 - inverse / 2


def _json_fields(obj) -> dict:
    """A flat dataclass's fields by name, each Fraction as its text."""
    return {f.name: str(v) if isinstance(v := getattr(obj, f.name), Fraction) else v for f in fields(obj)}


@dataclass(frozen=True)
class TkCell:
    k: int
    members: tuple[int, ...]
    count: int
    exact_density: Fraction | None
    avg_selmer: Fraction
    avg_dim_bound: Fraction
    dim_density_bound: Fraction

    def to_json_obj(self) -> dict:
        return _json_fields(self)


def _deviations(family: TwistFamily, rule: _PlaceExponents, sign: int, mask: bytes) -> dict[int, int]:
    """{h: the sum of the table-2 exponents of sign * h} over the members h
    (mask[h] = 1) that a prime p without an override divides to an even
    power v > 0; h = u p^v is walked one residue of u mod p (mod 8 at 2) at
    a time, and each residue reads the exponent of its unit class."""
    dev: dict[int, int] = {}
    bound = len(mask)
    for p in () if family.squarefree else _primes_below(isqrt(bound - 1) + 1):
        if p in rule.overrides:
            continue
        modulus = 8 if p == 2 else p
        for v in range(2, 2 * family.n, 2):
            pv = p**v
            if pv >= bound:
                break
            step = modulus * pv
            for start in range(pv, min(step, bound), 2 * pv if p == 2 else pv):
                heights = list(compress(range(start, bound, step), mask[start::step]))
                if heights and (t := rule.table2_exponent(p, v, sign * heights[0])):
                    for h in heights:
                        dev[h] = dev.get(h, 0) + t
    return dev


def tk_partition(
    family: TwistFamily,
    desc: IsogenyDescriptor,
    profiles: list[LocalPlaceProfile],
    height_bound: int,
) -> dict[int, TkCell]:
    """Partition of the family's members below the height bound by global
    exponent, each cell in enumeration order (height ascending, positive
    first).  No member is built, since the exponent is additive over
    places: k(d) = arch(sign d) + the override exponents + the sum over the
    other primes p of t(p, v_p(d), unit class of d at p), and t = 0 unless
    v_p(d) is even and positive.  So only primes p < sqrt(height) move d
    off its sign's base value, and `_deviations` sieves for them; a
    squarefree family has none.  A family of another level is read modulo
    the descriptor's 2n-th powers by the same sieve: that multiplies the
    unit at p by a 2n-th power, which keeps its unit class for every
    r <= m, so t reads only v mod 2n (v = 0 reads as exponent 0) and the
    class of d's own unit.

    Each cell's exact density is read off the configuration
    (`_sign_densities`), the same at every height: set when the family is
    squarefree or every good place has table-2 exponent 0, else None."""
    rule = _PlaceExponents(profiles, desc)
    # runs per sign, positive first: the stable sort by height keeps -h after h
    cells: dict[int, list[int]] = defaultdict(list)
    ordered: dict[int, int] = {}  # cell -> the size of the one base run it was given empty
    masks, _, (m, classes) = admitted_masks(family, height_bound)
    for sign, mask in masks:
        base = rule.arch_k[sign] + sum(rule.overrides.values())
        rest = bytearray(mask)
        for h, t in _deviations(family, rule, sign, mask).items():
            rest[h] = 0
            cells[base + t].append(sign * h)
        run = cells[base]
        empty = not run
        run += _walk(rest, sign, m, classes[sign])
        if empty:  # in height order, unless a member joins it later
            ordered[base] = len(run)
    densities = _sign_densities(family, rule) or {}

    out: dict[int, TkCell] = {}
    for k in sorted(k for k, run in cells.items() if run):  # a base cell may have no member
        avg_dim, dens = rank_density_bounds(k)
        members = tuple(cells[k] if ordered.get(k) == len(cells[k]) else sorted(cells[k], key=abs))
        out[k] = TkCell(
            k=k,
            members=members,
            count=len(members),
            exact_density=densities.get(k),
            avg_selmer=average_selmer_prediction(k),
            avg_dim_bound=avg_dim,
            dim_density_bound=dens,
        )
    return out


# ----------------------------------------------------------------------
# The CM closed form
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CmRatioCheck:
    g: int
    complex_places: int
    degree: int
    archimedean_exponent: int
    three_adic_exponent: int
    c3_exponent: int
    pi_exponent: int
    avg_selmer: Fraction
    avg_rank_bound: Fraction

    def to_json_obj(self) -> dict:
        return _json_fields(self)


def cm_ratio_check(g: int, complex_places: int) -> CmRatioCheck:
    """Closed-form global exponent of multiplication by 3 over a totally
    complex base containing the cube roots of unity: each complex place
    contributes -2g, the places over 3 contribute g times the degree
    2 * complex_places, and the good finite places nothing.  The
    triplication map factors through 2g conjugate 3-isogenies, so the
    per-isogeny exponent is the 2g-th part."""
    if g < 1 or complex_places < 1:
        raise DomainError("dimension and place count must be positive")
    degree = 2 * complex_places
    arch = -2 * g * complex_places
    over3 = g * degree
    c3 = arch + over3
    if c3 % (2 * g):
        raise DomainError("triplication exponent is not divisible by the chain length")
    pi_exp = c3 // (2 * g)
    avg = average_selmer_prediction(pi_exp)
    return CmRatioCheck(
        g=g,
        complex_places=complex_places,
        degree=degree,
        archimedean_exponent=arch,
        three_adic_exponent=over3,
        c3_exponent=c3,
        pi_exponent=pi_exp,
        avg_selmer=avg,
        avg_rank_bound=(avg - 1) / 2,
    )


# ----------------------------------------------------------------------
# Configuration documents
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RatioConfig(Document):
    descriptor: IsogenyDescriptor
    profiles: tuple[LocalPlaceProfile, ...] = ()

    schema = 1
