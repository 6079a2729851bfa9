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

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, IncompleteConfigError
from .localclass import LocalTwistDatum, build_twist_datum, unit_class_labels
from .localfield import (
    Place,
    Rational,
    is_prime,
    least_nonresidue,
    zeta3_present,
)
from .twistfamilies import TwistClass, TwistFamily, enumerate_classes, reduce_class

# ----------------------------------------------------------------------
# Configuration types
# ----------------------------------------------------------------------

SYMBOLIC_KINDS = ("real", "complex", "over3", "finite-good", "finite-bad")


@dataclass(frozen=True)
class SymbolicPlace:
    """A place of an unspecified base field, for symbolic profiles (the CM
    closed form).  `degree` is the local degree where it matters."""

    kind: str
    degree: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SYMBOLIC_KINDS:
            raise DomainError(f"unknown symbolic place kind {self.kind!r}")


@dataclass(frozen=True)
class LocalPlaceProfile:
    place: Place | SymbolicPlace
    reduction: str = "good"  # "good" | "bad"
    override_exponent: int | None = None

    def __post_init__(self) -> None:
        if self.reduction not in ("good", "bad"):
            raise DomainError("reduction must be 'good' or 'bad'")
        if isinstance(self.place, Place) and self.place.is_finite:
            needs = self.reduction == "bad" or self.place.p == 3
            if needs and self.override_exponent is None:
                raise IncompleteConfigError(
                    f"place {self.place} needs an override exponent "
                    "(bad reduction and residue characteristic 3 are data, not theorems)"
                )

    @property
    def zeta3(self) -> bool:
        if isinstance(self.place, Place):
            return zeta3_present(self.place)
        return self.place.kind == "complex"

    def to_json_obj(self) -> dict:
        if isinstance(self.place, SymbolicPlace):
            place_obj: object = {"symbolic": self.place.kind, "degree": self.place.degree}
        elif self.place.is_finite:
            place_obj = self.place.p
        else:
            place_obj = self.place.kind
        obj: dict = {"place": place_obj, "reduction": self.reduction}
        if self.override_exponent is not None:
            obj["override_exponent"] = self.override_exponent
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "LocalPlaceProfile":
        raw = obj["place"]
        place: Place | SymbolicPlace
        if isinstance(raw, dict):
            place = SymbolicPlace(raw["symbolic"], int(raw.get("degree", 1)))
        elif isinstance(raw, int):
            place = Place.finite(raw)
        elif raw in ("real", "complex"):
            place = Place(raw)
        else:
            raise DomainError(f"unintelligible place {raw!r}")
        return LocalPlaceProfile(
            place=place,
            reduction=obj.get("reduction", "good"),
            override_exponent=obj.get("override_exponent"),
        )


def _log3_order(order: int) -> int:
    k = 0
    while order > 1:
        if order % 3:
            raise DomainError(f"extension-class order {order} is not a power of 3")
        order //= 3
        k += 1
    return k


@dataclass(frozen=True)
class KappaEntry:
    r: int
    unit_class: str  # "any" | "power" | "square" | "nonsquare"
    kappa: int
    kappa_hat: int

    def __post_init__(self) -> None:
        _log3_order(self.kappa)
        _log3_order(self.kappa_hat)
        if self.unit_class not in ("any", "power", "square", "nonsquare"):
            raise DomainError(f"unknown unit class label {self.unit_class!r}")
        if self.r == 0 and self.unit_class != "any":
            raise DomainError("r = 0 entries are independent of the unit class")


@dataclass(frozen=True)
class IsogenyDescriptor:
    """Configuration of one zeta-linear 3-isogeny: the level n = 3^m, the
    square class cutting out the field of the kernel, the global
    direct-summand bit, and the per-(unit class, r) extension-class
    orders."""

    m: int = 1
    kernel_character: Fraction = Fraction(1)
    global_summand_bit: bool = True
    kappa_orders: tuple[KappaEntry, ...] = ()
    chain_length: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError("level exponent m must be at least 1")
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

    def kappa_exponents(self, p: int, u: Rational, r: int) -> tuple[int, int]:
        """(log3 |kappa|, log3 |kappa-hat|) for the unit class of u at the
        given r; raises when the table has no entry for the stratum."""
        u = Fraction(u)
        for label in unit_class_labels(u, p, r):
            for entry in self.kappa_orders:
                if entry.r == r and entry.unit_class == label:
                    return _log3_order(entry.kappa), _log3_order(entry.kappa_hat)
        raise IncompleteConfigError(
            f"descriptor incomplete: no kappa orders for r={r}, unit {u} at p={p}"
        )

    def summand_flag(self, p: int, u: Rational, r: int) -> bool:
        if r == 0:
            return self.global_summand_bit
        return self.kappa_exponents(p, u, r)[0] == 0

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "m": self.m,
            "kernel_character": str(self.kernel_character),
            "global_summand_bit": self.global_summand_bit,
            "chain_length": self.chain_length,
            "name": self.name,
            "kappa_orders": [
                {
                    "r": e.r,
                    "unit_class": e.unit_class,
                    "kappa": e.kappa,
                    "kappa_hat": e.kappa_hat,
                }
                for e in self.kappa_orders
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "IsogenyDescriptor":
        if obj.get("schema") != 1:
            raise DomainError("unsupported descriptor schema")
        entries = tuple(
            KappaEntry(
                int(e["r"]), str(e["unit_class"]), int(e["kappa"]), int(e["kappa_hat"])
            )
            for e in obj.get("kappa_orders", [])
        )
        return IsogenyDescriptor(
            m=int(obj.get("m", 1)),
            kernel_character=Fraction(str(obj.get("kernel_character", "1"))),
            global_summand_bit=bool(obj.get("global_summand_bit", True)),
            kappa_orders=entries,
            chain_length=int(obj.get("chain_length", 1)),
            name=obj.get("name", ""),
        )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

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
        return Fraction(3) ** self.global_exponent

    def exponent_at(self, label: str) -> int:
        for e in self.entries:
            if e.place_label == label:
                return e.exponent
        raise KeyError(label)

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


def _table2_exponent(
    profile: LocalPlaceProfile, desc: IsogenyDescriptor, datum: LocalTwistDatum
) -> int:
    p = datum.place.p
    assert p is not None and datum.r is not None
    kappa, kappa_hat = desc.kappa_exponents(p, datum.u, datum.r)
    sq = datum.squares
    if profile.zeta3:
        return kappa - kappa_hat if (sq.d_is_square or sq.minus3d_is_square) else 0
    if sq.d_is_square:
        return kappa - 1
    if sq.minus3d_is_square:
        return 1 - kappa_hat
    return 0


def local_exponent(
    profile: LocalPlaceProfile,
    desc: IsogenyDescriptor,
    datum: LocalTwistDatum | None = None,
    d: Rational | None = None,
) -> int:
    """log3 of the local Selmer ratio at the profiled place.  Finite places
    read the twist datum; the real place only needs the sign of d."""
    place = profile.place
    if isinstance(place, SymbolicPlace):
        if place.kind == "complex":
            return -1
        if profile.override_exponent is not None:
            return profile.override_exponent
        raise IncompleteConfigError(
            f"symbolic place {place.kind} needs an override exponent"
        )
    if place.kind == "complex":
        return -1
    if place.kind == "real":
        if d is None and datum is None:
            raise DomainError("archimedean exponent needs the twist parameter")
        return archimedean_exponent(desc, d if d is not None else datum.d)
    if profile.override_exponent is not None:
        return profile.override_exponent
    if profile.reduction == "bad" or place.p == 3:
        raise IncompleteConfigError(f"place {place} needs an override exponent")
    if datum is None:
        raise DomainError("finite-place exponent needs the local twist datum")
    if datum.v_d == 0 or datum.v_d % 2 == 1:
        return 0
    return _table2_exponent(profile, desc, datum)


class _PlaceExponents:
    """The per-place exponents of one configuration, for one report or one
    partition: the profiles are indexed once, and the table-2 exponent of
    each distinct (p, v(d), unit residue of d mod p, or mod 8 at p = 2) is
    computed once.  Those are exactly the inputs of the square classes of d
    and -3d, of the unit-class labels and of r.  Provenance is decided
    here: an override, a good place with v(d) = 0 or odd (exponent 0, no
    datum built), or a table-2 cell."""

    def __init__(self, profiles: list[LocalPlaceProfile], desc: IsogenyDescriptor) -> None:
        self.desc = desc
        self.by_prime: dict[int, LocalPlaceProfile] = {}
        arch: LocalPlaceProfile | None = None
        for prof in profiles:
            if isinstance(prof.place, SymbolicPlace):
                raise DomainError("symbolic profiles belong to the closed-form checks")
            if prof.place.is_finite:
                assert prof.place.p is not None
                self.by_prime[prof.place.p] = prof
            else:
                arch = prof
        if arch is None:
            raise IncompleteConfigError("no archimedean place profiled")
        if 3 not in self.by_prime:
            raise IncompleteConfigError("place 3 is not covered by the configuration")
        self.arch_label = arch.place.kind
        self.arch_k = {
            sign: -1 if arch.place.kind == "complex" else archimedean_exponent(desc, sign)
            for sign in (1, -1)
        }
        self.table2: dict[tuple[int, int, int], int] = {}

    def entries(self, tc: TwistClass) -> list[tuple[str, int, str]]:
        """(place label, exponent, provenance) at the archimedean place and
        at every profiled prime or prime dividing d0, primes increasing."""
        d0 = tc.d0
        out = [(self.arch_label, self.arch_k[1 if d0 > 0 else -1], "archimedean")]
        vals = tc.factorization()
        for p in sorted(self.by_prime.keys() | vals.keys()):
            prof = self.by_prime.get(p)
            v = vals.get(p, 0)
            if prof is not None and prof.override_exponent is not None:
                out.append((str(p), prof.override_exponent, "override"))
            elif v == 0 or v % 2 == 1:
                out.append((str(p), 0, "good"))
            else:
                key = (p, v, d0 // p**v % (8 if p == 2 else p))
                k = self.table2.get(key)
                if k is None:
                    datum = build_twist_datum(p, d0, self.desc.m)
                    k = local_exponent(prof or LocalPlaceProfile(Place.finite(p)), self.desc, datum)
                    self.table2[key] = k
                out.append((str(p), k, "table2"))
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
    return 1 + Fraction(3) ** k


def _stratum_expectation(desc: IsogenyDescriptor, p: int, j: int) -> Fraction:
    """Expected ratio over the unit square classes in the stratum
    v(d) = j at a good place, as an exact rational."""
    if j == 0 or j % 2 == 1:
        return Fraction(1)
    r = 0
    while j % 3 ** (r + 1) == 0 and r + 1 <= desc.m:
        r += 1
    if p == 2:
        # the four unit classes mod 8 are equidistributed; d square needs
        # u = 1 (8), -3d square needs u = 5 (8)
        k1, _ = desc.kappa_exponents(2, Fraction(1), r)
        _, kh5 = desc.kappa_exponents(2, Fraction(5), r)
        return Fraction(
            Fraction(3) ** (k1 - 1) + Fraction(3) ** (1 - kh5) + 2, 4
        )
    u_sq, u_nsq = Fraction(1), Fraction(least_nonresidue(p))
    if p % 3 == 1:
        k, kh = desc.kappa_exponents(p, u_sq, r)
        return (Fraction(3) ** (k - kh) + 1) / 2
    k, _ = desc.kappa_exponents(p, u_sq, r)
    _, kh = desc.kappa_exponents(p, u_nsq, r)
    return (Fraction(3) ** (k - 1) + Fraction(3) ** (1 - kh)) / 2


def _local_factor(
    desc: IsogenyDescriptor, family: TwistFamily, prof: LocalPlaceProfile
) -> Fraction:
    if prof.override_exponent is not None:
        return Fraction(3) ** prof.override_exponent
    place = prof.place
    assert isinstance(place, Place) and place.p is not None
    p = place.p
    strata = range(2) if family.squarefree else range(2 * desc.n)
    total = Fraction(0)
    weighted = Fraction(0)
    for j in strata:
        mu = Fraction(p - 1, p) / Fraction(p) ** j
        total += mu
        weighted += mu * _stratum_expectation(desc, p, j)
    return weighted / total


def _generic_factor_is_one(desc: IsogenyDescriptor, family: TwistFamily) -> bool:
    if family.squarefree:
        return True
    for p in (5, 7):  # one representative of each residue class mod 3
        for j in range(2, 2 * desc.n, 2):
            if _stratum_expectation(desc, p, j) != 1:
                return False
    return True


def euler_product_average(
    family: TwistFamily, desc: IsogenyDescriptor, profiles: list[LocalPlaceProfile]
) -> Fraction:
    """The exact predicted average Selmer size over the family:
    1 + (archimedean average of the ratio) * (product of normalized local
    averages).  Finite because all unprofiled factors are 1; when the
    configuration makes a generic factor differ from 1 the computation is
    refused rather than truncated."""
    if not family.signs:
        raise DomainError("family has an empty archimedean coset set")
    arch = Fraction(0)
    for sign in family.signs:
        arch += Fraction(3) ** archimedean_exponent(desc, sign)
    arch /= len(family.signs)
    overridden = {
        prof.place.p
        for prof in profiles
        if isinstance(prof.place, Place)
        and prof.place.is_finite
        and prof.override_exponent is not None
    }
    if not family.squarefree:
        # a congruence condition reshapes the local measure at its primes;
        # that only cancels out when the ratio is constant there (override)
        # or identically 1 (the squarefree strata)
        from .twistfamilies import factorize

        for cond in family.conditions:
            for q in factorize(cond.modulus):
                if q not in overridden:
                    raise IncompleteConfigError(
                        f"congruence condition at {q} needs an override profile "
                        "or the squarefree restriction"
                    )
    product = Fraction(1)
    for prof in profiles:
        if isinstance(prof.place, SymbolicPlace) or not prof.place.is_finite:
            continue
        product *= _local_factor(desc, family, prof)
    if not _generic_factor_is_one(desc, family):
        raise IncompleteConfigError(
            "unprofiled good places have a non-unit generic factor; "
            "profile them explicitly or restrict to a squarefree family"
        )
    return 1 + arch * product


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
    """(average-dimension bound |k| + 3^-|k|, lower bound 1 - 1/(2*3^|k|)
    on the density where the dimension equals |k|)."""
    a = abs(k)
    return Fraction(a) + Fraction(3) ** (-a), 1 - Fraction(1, 2 * 3**a)


def explicit_rank_bound(dim_a: int, num_bad_places: int) -> Fraction:
    """dim A * (#S + 3^-#S) where S includes the places over 3 and infinity,
    so #S is at least 1."""
    if dim_a < 1:
        raise DomainError("dimension must be positive")
    if num_bad_places < 1:
        raise DomainError("#S includes the places over 3 and infinity, so #S >= 1")
    s = num_bad_places
    return dim_a * (Fraction(s) + Fraction(3) ** (-s))


@dataclass(frozen=True)
class ChainBound:
    dim_bound: int
    size_bound: int


def chain_rank_bound(selmer_sizes: list[int]) -> ChainBound:
    """Rank bound through a chain of 3-isogenies: the dimension bound is
    the sum of log3 of the Selmer sizes, the cruder size bound their sum."""
    dim = 0
    for s in selmer_sizes:
        dim += _log3_order(s)
    return ChainBound(dim, sum(selmer_sizes))


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
        return {
            "k": self.k,
            "count": self.count,
            "members": list(self.members),
            "exact_density": None if self.exact_density is None else str(self.exact_density),
            "avg_selmer": str(self.avg_selmer),
            "avg_dim_bound": str(self.avg_dim_bound),
            "dim_density_bound": str(self.dim_density_bound),
        }


def tk_partition(
    family: TwistFamily,
    desc: IsogenyDescriptor,
    profiles: list[LocalPlaceProfile],
    height_bound: int,
) -> dict[int, TkCell]:
    """Partition of the enumerated family by global exponent.  Exact
    densities are attached when the finite-place part of the exponent is
    constant on the family, so that only the sign decides the cell (the
    congruence-measure case); otherwise the density is left unknown."""
    members = enumerate_classes(family, height_bound)
    rule = _PlaceExponents(profiles, desc)
    finite_parts: set[int] = set()
    cells: dict[int, list[int]] = {}
    for tc in members:
        # a family of another level is read modulo the descriptor's powers
        cls = tc if tc.n == desc.n else reduce_class(tc.d0, desc.n)
        arch, *finite = (k for _, k, _ in rule.entries(cls))
        finite_k = sum(finite)
        finite_parts.add(finite_k)
        cells.setdefault(arch + finite_k, []).append(tc.d0)

    densities: dict[int, Fraction] = {}
    if len(finite_parts) == 1:
        const = next(iter(finite_parts))
        per_sign = Fraction(1, len(family.signs))
        for sign in family.signs:
            k = const + archimedean_exponent(desc, sign)
            densities[k] = densities.get(k, Fraction(0)) + per_sign

    out: dict[int, TkCell] = {}
    for k in sorted(cells):
        avg_dim, dens = rank_density_bounds(k)
        out[k] = TkCell(
            k=k,
            members=tuple(cells[k]),
            count=len(cells[k]),
            exact_density=densities.get(k),
            avg_selmer=average_selmer_prediction(k),
            avg_dim_bound=avg_dim,
            dim_density_bound=dens,
        )
    return out


def tk_emptiness_bound(num_bad_places: int) -> int:
    """T_k is empty once |k| exceeds the number of places where the local
    exponent can be nonzero."""
    return num_bad_places


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
        return {
            "g": self.g,
            "complex_places": self.complex_places,
            "degree": self.degree,
            "archimedean_exponent": self.archimedean_exponent,
            "three_adic_exponent": self.three_adic_exponent,
            "c3_exponent": self.c3_exponent,
            "pi_exponent": self.pi_exponent,
            "avg_selmer": str(self.avg_selmer),
            "avg_rank_bound": str(self.avg_rank_bound),
        }


def cm_ratio_check(
    g: int,
    complex_places: int,
    degree: int | None = None,
    profiles: list[LocalPlaceProfile] | None = None,
) -> CmRatioCheck:
    """Closed-form global exponent of multiplication by 3 over a totally
    complex base containing the cube roots of unity: each complex place
    contributes -2g, the places over 3 contribute g times the degree, and
    the good finite places nothing.  The triplication map factors through
    2g conjugate 3-isogenies, so the per-isogeny exponent is the 2g-th
    part."""
    if g < 1 or complex_places < 1:
        raise DomainError("dimension and place count must be positive")
    if degree is None:
        degree = 2 * complex_places
    if degree != 2 * complex_places:
        raise DomainError("a totally complex field has degree twice its place count")
    if profiles is not None:
        for prof in profiles:
            if prof.place.kind == "real":
                raise DomainError("inconsistent profile: a real place in a CM check")
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
class RatioConfig:
    descriptor: IsogenyDescriptor
    profiles: tuple[LocalPlaceProfile, ...]

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "descriptor": self.descriptor.to_json_obj(),
            "profiles": [p.to_json_obj() for p in self.profiles],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "RatioConfig":
        if obj.get("schema") != 1:
            raise DomainError("unsupported ratio-config schema")
        return RatioConfig(
            descriptor=IsogenyDescriptor.from_json_obj(obj["descriptor"]),
            profiles=tuple(LocalPlaceProfile.from_json_obj(p) for p in obj.get("profiles", [])),
        )

    @staticmethod
    def from_json(text: str) -> "RatioConfig":
        return RatioConfig.from_json_obj(json.loads(text))
