"""Sextic twist families of Prym surfaces of bielliptic plane quartics
y^3 = (x^2 - d)(x^2 - a*d), and the rank / rational-point bounds for the
shipped a = 4 family.

The surface carries two 3-isogenies phi, psi whose composition is the
descent of 1 - zeta.  On the family Sigma (squarefree d = 2 or 11 mod 36)
every finite place except 3 contributes a trivial ratio: the good places
because d is squarefree there, the place 2 because neither d nor -3d is a
2-adic square on Sigma.  A configuration's family must be squarefree (its
construction refuses any other), so both facts hold for each member by
arithmetic alone: every prime other than 2 and 3 divides d once, and the
place 2 is decided by d mod 4 (see `_Assembler`).  The 3-adic pair comes
from a constraint solver:
exponents in {0, 1}, the four ratios of the twist and its -27-twist
multiply to 9, and (the externally computed input) the phi and psi ratios
differ.  The solver output is used unordered; which of phi, psi carries
the 3 is optional metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import DomainError, IncompleteConfigError
from .localfield import Rational, sextic_class_3adic
from .selmerratio import IsogenyDescriptor, archimedean_exponent, parity_prediction, rank_density_bounds
from .twistfamilies import TwistFamily, _sieve_walk, admitted_masks, family_preset, reduce_class


@dataclass(frozen=True)
class ThreeAdicInput:
    """What is known about the four 3-adic exponents
    (phi_d, psi_d, phi_{-27d}, psi_{-27d}): entries lie in {0, 1}, they sum
    to the product exponent, and in "unequal" mode the first two differ.
    `ordered` optionally pins the (phi, psi) order per sixth-power class."""

    mode: str = "unequal"  # "unequal" | "product-only"
    product_exponent: int = 2
    ordered: dict[int, tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("unequal", "product-only"):
            raise DomainError(f"unknown 3-adic input mode {self.mode!r}")


@dataclass(frozen=True)
class FTildeEntry:
    curve_type: str
    max_r: int
    value: int


@dataclass(frozen=True)
class PrymCurveConfig:
    a: Fraction
    genus: int
    dim_b: int
    family: TwistFamily
    three_adic: ThreeAdicInput
    kernel_characters: tuple[Fraction, Fraction]
    f_tilde: FTildeEntry
    trivial_points: int
    nontorsion_trivial_points: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.a in (0, 1, -1):
            raise DomainError("curve parameter a must avoid 0 and +-1")
        if not self.family.squarefree:  # the premise of the assembly's closed forms
            raise DomainError(f"a Prym family must be squarefree; {self.family.name!r} is not")

    def descriptors(self) -> tuple[IsogenyDescriptor, IsogenyDescriptor]:
        k_phi, k_psi = self.kernel_characters
        return (
            IsogenyDescriptor(m=1, kernel_character=k_phi, name="phi"),
            IsogenyDescriptor(m=1, kernel_character=k_psi, name="psi"),
        )


PRESETS: dict[str, PrymCurveConfig] = {
    "prym-a4": PrymCurveConfig(
        a=Fraction(4),
        genus=3,
        dim_b=2,
        family=family_preset("sigma-36-2-11"),
        three_adic=ThreeAdicInput(mode="unequal", product_exponent=2),
        kernel_characters=(Fraction(1), Fraction(1)),
        f_tilde=FTildeEntry("plane_quartic", max_r=2, value=4),
        trivial_points=1,
        nontorsion_trivial_points=0,
        name="prym-a4",
    ),
}


def load_preset(name: str) -> PrymCurveConfig:
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}")
    return PRESETS[name]


def solve_three_adic(config: PrymCurveConfig) -> list[tuple[int, int, int, int]]:
    """All assignments of the four 3-adic exponents consistent with the
    configured constraints; exhaustive over {0,1}^4."""
    unequal = config.three_adic.mode == "unequal"
    out = [
        x for x in product((0, 1), repeat=4)
        if sum(x) == config.three_adic.product_exponent and not (unequal and x[0] == x[1])
    ]
    if not out:
        raise DomainError("3-adic constraints are unsatisfiable")
    return out


@dataclass(frozen=True)
class PlacePair:
    place_label: str
    pair: tuple[int, int]  # (phi exponent, psi exponent)
    ordered: bool
    provenance: str

    def to_json_obj(self) -> dict:
        return {
            "place": self.place_label,
            "pair": list(self.pair),
            "ordered": self.ordered,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class RowSkeleton:
    """What the rows of one sign (and 3-adic sixth-power class, when the
    3-adic order is configured) share: the sign of d, the pairs at the real
    place, at 2 and at 3, the global pair of (phi, psi) they add up to,
    sorted unless that order is configured, and the four 3-adic exponents."""

    sign: int
    places: tuple[PlacePair, PlacePair, PlacePair]  # real, 2, 3
    pair_global: tuple[int, int]
    four_exponents: tuple[int, int, int, int]


def good_place(label: str) -> PlacePair:
    """The pair of a prime p > 3 dividing a member (see `_Assembler`)."""
    return PlacePair(label, (0, 0), True, "good")


class PrymLocalAssembly(NamedTuple):
    """A member's row: d, its skeleton and the primes p > 3 dividing d,
    each placed after the skeleton's places as `good_place(str(p))`."""

    d0: int
    skeleton: RowSkeleton
    primes: tuple[int, ...] = ()

    @property
    def places(self) -> tuple[PlacePair, ...]:
        return self.skeleton.places + tuple(good_place(str(p)) for p in self.primes)

    @property
    def four_exponents(self) -> tuple[int, int, int, int]:
        return self.skeleton.four_exponents

    @property
    def pair_global(self) -> tuple[int, int]:
        return self.skeleton.pair_global

    @property
    def k_pi(self) -> int:
        return sum(self.pair_global)

    @property
    def parity(self) -> str:
        return parity_prediction(self.k_pi)

    def to_json_obj(self) -> dict:
        kp, ks = self.pair_global
        return {
            "d": self.d0,
            "places": [p.to_json_obj() for p in self.places],
            "pair_global_k": [kp, ks],
            "pair_ratios": [str(Fraction(3) ** kp), str(Fraction(3) ** ks)],
            "k_pi": self.k_pi,
            "parity": self.parity,
            "three_adic_four": list(self.four_exponents),
        }


def _assembly_maker(skeleton: RowSkeleton):
    """`family_report`'s default row factory: make(h, increasing primes) of a member's row."""
    return lambda h, primes: PrymLocalAssembly(skeleton.sign * h, skeleton, tuple([p for p in primes if p > 3]))


_TWO_ADIC_SQUARE = "family admits a twist with a 2-adic square; preset broken"
# The sixth-power class at 3 of a squarefree d by d mod 27: v_3(d) <= 1, the unit read mod 9.
_SIXTH_POWER_CLASS = tuple(sextic_class_3adic(r).representative if r % 9 else None for r in range(27))


class _Assembler:
    """What a configuration fixes for all its twists, resolved once per
    report: the two descriptors, the 3-adic solutions with the unique
    unordered pair they determine, and one row skeleton per sign (per sign
    and sixth-power class when the 3-adic order is configured), built on
    first use; `makers` decides a family's skeletons on its masks.

    The family is squarefree, so a prime p > 3 divides d once and its
    ratio is 1.  At 2, for squarefree d, d or -3d is a 2-adic square
    exactly when d = 1 (mod 4):
      - at v_2(d) = 1 both valuations are odd, so neither is a square;
      - for odd d, d = 1 (mod 8) or -3d = 1 (mod 8) exactly when d = 1 or
        5 (mod 8).
    So a family with a member d = 1 (mod 4) is refused: by `family_report`
    on its masks, by `assemble_local_exponents` on its one d.  No row
    needs a 2-adic test."""

    def __init__(self, config: PrymCurveConfig) -> None:
        self.descs = config.descriptors()
        self.solutions = solve_three_adic(config)
        self.pairs = {tuple(sorted(s[:2])) for s in self.solutions}
        if len(self.pairs) != 1:
            raise DomainError("3-adic constraints do not determine the unordered pair")
        self.ordered = config.three_adic.ordered
        self.skeletons: dict = {}  # sign, or (sign, sixth-power class) -> RowSkeleton

    def skeleton(self, d0: int) -> RowSkeleton:
        """The skeleton of a member d0 of the squarefree family."""
        sign, ordered = 1 if d0 > 0 else -1, self.ordered
        key = sign if ordered is None else (sign, _SIXTH_POWER_CLASS[d0 % 27])
        if key in self.skeletons:
            return self.skeletons[key]
        if ordered is None:
            three = PlacePair("3", next(iter(self.pairs)), False, "override")
        else:
            rep = key[1]
            if rep not in ordered:
                raise IncompleteConfigError(f"no ordered 3-adic input for sixth-power class {rep}")
            if tuple(sorted(ordered[rep])) not in self.pairs:
                raise DomainError("ordered 3-adic input contradicts the constraints")
            three = PlacePair("3", ordered[rep], True, "override")
        # the real place sees the sign of d only
        real = tuple(archimedean_exponent(desc, sign) for desc in self.descs)
        kp, ks = real[0] + three.pair[0], real[1] + three.pair[1]
        skeleton = self.skeletons[key] = RowSkeleton(
            sign,
            (PlacePair("real", real, True, "archimedean"), PlacePair("2", (0, 0), True, "h1-zero"), three),
            (kp, ks) if ordered is not None or kp <= ks else (ks, kp),
            self.solutions[0],
        )
        return skeleton

    def makers(self, masks: list[tuple[int, bytes]], row) -> dict:
        """{sign: make(h, primes)} for `_sieve_walk`: row(skeleton) for each
        skeleton the masks reach, built class by class mod 27 (mod 1 without
        the order at 3) at each class's first member, in walk order, so a
        refusal names the class of the first member it meets."""
        m = 1 if self.ordered is None else 27
        firsts = sorted((r + m * k, -s) for s, mask in masks for r in range(m) if (k := mask[r::m].find(1)) >= 0)
        for h, minus in firsts:  # by first height, the positive sign first
            self.skeleton(-minus * h)
        made = {key: row(skeleton) for key, skeleton in self.skeletons.items()}
        if m == 1:
            return {sign: made.get(sign) for sign, _ in masks}
        return {s: lambda h, primes, s=s: made[s, _SIXTH_POWER_CLASS[s * h % 27]](h, primes) for s, _ in masks}


def assemble_local_exponents(config: PrymCurveConfig, d: Rational) -> PrymLocalAssembly:
    """Per-place exponent pairs for (phi_d, psi_d) on the configured family.

    Good places away from 6 contribute (0, 0) because the family is
    squarefree there; the place 2 contributes (0, 0) after verifying that
    neither d nor -3d is a 2-adic square (d is not 1 mod 4); the place 3
    takes the solver's unique unordered pair; the real place is decided by
    the sign of d.  This is the entry for an arbitrary d, so it checks
    membership in the family; `family_report` does not, for the members it
    enumerates."""
    tc = reduce_class(d, config.family.n)
    if not config.family.admits(tc):
        raise DomainError(f"{d} is not in the configured family")
    if tc.d0 % 4 == 1:
        raise DomainError(_TWO_ADIC_SQUARE)
    return _assembly_maker(_Assembler(config).skeleton(tc.d0))(abs(tc.d0), tc.factors[::2])


def chabauty_point_bound(config: PrymCurveConfig, rank_cap: int) -> int:
    """Rational-point bound from the uniform-Chabauty input: the f-tilde
    value at rank_cap + genus - dim B, plus the trivial points, plus the
    nontorsion trivial points.  Needs rank_cap < dim B."""
    if rank_cap >= config.dim_b:
        raise DomainError(
            f"Chabauty inapplicable: rank cap {rank_cap} must be below dim B = {config.dim_b}"
        )
    r = rank_cap + config.genus - config.dim_b
    if config.f_tilde.curve_type != "plane_quartic" or r > config.f_tilde.max_r:
        raise IncompleteConfigError(
            f"f-tilde value unavailable for {config.f_tilde.curve_type} at r = {r}"
        )
    return config.f_tilde.value + config.trivial_points + config.nontorsion_trivial_points


@dataclass(frozen=True)
class PrymReport:
    name: str
    height_bound: int
    rows: tuple  # what `family_report`'s row makers built: PrymLocalAssembly by default
    avg_rank_bound: Fraction
    rank_le_1_density: Fraction
    point_bound: int

    def to_json_obj(self) -> dict:  # of a report whose rows are the default `PrymLocalAssembly`
        return {**self.summary_json_obj(), "rows": [row.to_json_obj() for row in self.rows]}

    def summary_json_obj(self) -> dict:
        """The report's JSON object less its rows, whatever they are."""
        return {
            "preset": self.name,
            "height_bound": self.height_bound,
            "member_count": len(self.rows),
            "aggregate": {
                "avg_rank_bound": str(self.avg_rank_bound),
                "rank_le_1_density": str(self.rank_le_1_density),
                "point_bound": self.point_bound,
            },
        }


def _check_invariants(skeleton: RowSkeleton) -> None:
    """The "unequal" mode's invariants of the rows of a skeleton, whose
    global pair they all carry: an odd global exponent and the unordered
    ratio pair {1, 3+-1}."""
    if parity_prediction(sum(skeleton.pair_global)) != "odd":
        raise AssertionError("parity invariant failed")
    if set(skeleton.pair_global) not in ({0, -1}, {0, 1}):
        raise AssertionError("ratio pair invariant failed")


def family_report(config: PrymCurveConfig, height_bound: int, row=_assembly_maker) -> PrymReport:
    """Enumerate the family, assemble all local exponents, and aggregate
    the analytic bounds.  row(skeleton), called once per row skeleton,
    returns make(h, primes), which the sieve walk calls for each member of
    its sign, so no member is tested again.  Skeletons and refusals are all
    decided before the walk, the invariants (exponents in {0,1} summing to
    the product exponent, odd global exponent, unordered ratio pair
    {1, 3+-1}) once per skeleton, whose rows carry its exponents."""
    assembler = _Assembler(config)
    unequal = config.three_adic.mode == "unequal"
    if unequal and sorted(assembler.solutions[0]) != [0, 0, 1, 1]:
        raise AssertionError("solver output violated the product identity")
    masks, candidates, walk = admitted_masks(config.family, height_bound)
    for sign, mask in masks:
        if any(mask[2 - sign :: 4]):  # sign * h = 1 (mod 4) at h = 2 - sign (mod 4)
            raise DomainError(_TWO_ADIC_SQUARE)
    makers = assembler.makers(masks, row)
    skeletons = assembler.skeletons.values()
    if unequal:
        for skeleton in skeletons:
            _check_invariants(skeleton)

    # the bounds depend on a row through its |k| pattern only, and every row has the
    # pattern (0, 1): the pair's average bounds add, as do its exceptional densities
    patterns = {tuple(sorted(map(abs, s.pair_global))) for s in skeletons}
    if patterns and patterns != {(0, 1)}:
        raise AssertionError(f"unexpected |k| patterns {patterns}")
    (avg_0, dens_0), (avg_1, dens_1) = rank_density_bounds(0), rank_density_bounds(1)
    avg_bound, density = avg_0 + avg_1, dens_0 + dens_1 - 1
    return PrymReport(
        name=config.name,
        height_bound=height_bound,
        point_bound=chabauty_point_bound(config, rank_cap=1),  # evaluated, or refused, before the walk
        rows=tuple(_sieve_walk(masks, candidates, walk, makers)),
        avg_rank_bound=avg_bound,
        rank_le_1_density=density,
    )
