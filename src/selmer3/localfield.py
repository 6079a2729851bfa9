"""Exact local arithmetic over the completions of Q.

Everything here is a pure function of exact rationals: valuations, unit
parts, square classes (Euler's criterion at odd p, residues mod 8 at p = 2),
cube-class representatives, and the sixth-power classification of Q_3.
The base field is Q throughout; Q_p and R are the only completions that
occur concretely.

A prime is proven once, where it enters: by building a `Place`, or by the
one `is_prime` test (`_proven_prime`) of a public function that takes a raw
p (`valuation`, `unit_part`; `sqrt_extension_unramified` takes either).
Below that test the primitives work on `_split`, which trusts its p, so a
caller that holds a `Place` passes it or its p on and nothing tests it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Rational = Fraction | int

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases: a proof of
    primality for n < 3.3 * 10^24, a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, the real place, or a formal complex
    place, the archimedean profile of a totally complex base."""

    kind: str  # "finite" | "real" | "complex"
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "finite":
            if self.p is None or not is_prime(self.p):
                raise DomainError(f"finite place requires a prime, got {self.p}")
        elif self.kind in ("real", "complex"):
            if self.p is not None:
                raise DomainError("archimedean places carry no prime")
        else:
            raise DomainError(f"unknown place kind {self.kind!r}")

    @staticmethod
    def finite(p: int) -> "Place":
        return Place("finite", p)

    @staticmethod
    def real() -> "Place":
        return Place("real")

    @staticmethod
    def complex() -> "Place":
        return Place("complex")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        return str(self.p) if self.is_finite else self.kind


def tame_place(p: int | Place, what: str) -> Place:
    """The finite place at a prime p > 3, refusing p <= 3 for `what`: an
    int is proven prime here, a `Place` has proven it, so a caller that
    passes the place on proves p once."""
    if (p.p if isinstance(p, Place) else p) <= 3:
        raise DomainError(f"{what} requires a prime p > 3, got {p}")
    return p if isinstance(p, Place) else Place.finite(p)


def _proven_prime(p: int | Place) -> int:
    """The prime of a finite `Place`, or p once `is_prime` has proven it."""
    if isinstance(p, Place):
        return p.p
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


def _split(x: Fraction, p: int) -> tuple[int, int, int]:
    """(v, num, den) with x = p^v * num/den and num, den prime to p.  No
    checks: x is nonzero and p a proven prime, by a `Place` or by the
    entry test of the public function that calls it."""
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def _entry_split(x: Rational, p: int | Place) -> tuple[int, int, int]:
    """`_split` at the entry of a public function: refuses x = 0 and a
    composite p, with the call's one primality test (none for a `Place`)."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("0 has no p-adic valuation")
    return _split(x, _proven_prime(p))


def valuation(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational; additive on products."""
    return _entry_split(x, p)[0]


def unit_part(x: Rational, p: int) -> Fraction:
    """The u with x = p^valuation(x, p) * u; numerator and denominator of u
    are coprime to p."""
    _, num, den = _entry_split(x, p)
    return Fraction(num, den)


def is_square(x: Rational, place: Place) -> bool:
    """Whether x is a square in the completion at the given place."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("square test of 0 is undefined")
    if place.kind == "complex":
        return True
    if place.kind == "real":
        return x > 0
    p = place.p
    assert p is not None
    v, num, den = _split(x, p)
    if v % 2 != 0:
        return False
    if p == 2:
        return num * den % 8 == 1  # odd den is its own inverse mod 8
    # Euler's criterion on the unit part
    return pow(num * pow(den, -1, p) % p, (p - 1) // 2, p) == 1


def sqrt_extension_unramified(d: Rational, p: int | Place) -> bool:
    """Whether Q_p(sqrt(d))/Q_p is unramified (the split case counts as
    unramified): v(d) even and, at p = 2, the unit part 1 mod 4.  p is a
    prime or the finite `Place` at one, which has proven it."""
    v, num, den = _entry_split(d, p)
    p = p.p if isinstance(p, Place) else p
    return v % 2 == 0 and (p != 2 or num * den % 4 == 1)  # odd den is its own inverse mod 4


@dataclass(frozen=True)
class SquareClassification:
    """Square classes of d and -3d at one place; the column selector of the
    dimension and ratio tables."""

    d_is_square: bool
    minus3d_is_square: bool

    @property
    def neither(self) -> bool:
        return not (self.d_is_square or self.minus3d_is_square)


def classify_squares(d: Rational, place: Place) -> SquareClassification:
    d = Fraction(d)
    return SquareClassification(is_square(d, place), is_square(-3 * d, place))


# ----------------------------------------------------------------------
# Sixth-power classes of Q_3.
#
# Z_3^{x6} = 1 + 9 Z_3, so a unit's class is its residue mod 9 and a general
# element is classified by (unit mod 9, valuation mod 6).  The canonical
# transversal pairs each residue in (Z/9)^* with its signed representative
# in {+-1, +-2, +-4} and each valuation class with 3^j, 0 <= j < 6.
# ----------------------------------------------------------------------

_SIGNED_UNIT_REPS = {s % 9: s for s in (1, -1, 2, -2, 4, -4)}


@dataclass(frozen=True)
class SexticClass3:
    """Canonical representative of a class in Q_3^* / Q_3^{*6}."""

    unit_rep: int  # one of +-1, +-2, +-4
    val_mod6: int

    @property
    def representative(self) -> int:
        return self.unit_rep * 3**self.val_mod6


def sextic_class_3adic(d: Rational) -> SexticClass3:
    d = Fraction(d)
    if d == 0:
        raise DomainError("sextic class of 0 is undefined")
    v, num, den = _split(d, 3)
    return SexticClass3(_SIGNED_UNIT_REPS[num * pow(den, -1, 9) % 9], v % 6)


# Unit-class representatives of F_p^* modulo cubes: the smallest positive
# integers hitting each coset.  One class when p = 2 (mod 3), three when
# p = 1 (mod 3), told apart by the cubic character c^((p-1)/3) mod p.
def cube_class_reps(p: int) -> tuple[int, ...]:
    if p % 3 != 1:
        return (1,)
    e = (p - 1) // 3
    reps: dict[int, int] = {}
    c = 1
    while len(reps) < 3:
        reps.setdefault(pow(c, e, p), c)
        c += 1
    return tuple(reps.values())


def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise DomainError(f"no nonresidue found mod {p}")
