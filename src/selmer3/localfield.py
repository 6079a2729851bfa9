"""Exact local arithmetic over the completions of Q.

Everything here is a pure function of exact rationals: valuations, unit
parts, square classes (Euler's criterion at odd p, residues mod 8 at p = 2),
cube and 3-power-unit tests, and the sixth-power classification of Q_3.
The base field is Q throughout; Q_p and R are the only completions that
occur concretely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError

Rational = Fraction | int

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases: a proof of
    primality for n < 3.3 * 10^24, a strong probable-prime test above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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
    place (the latter only ever appears in symbolic profiles)."""

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


def _split(x: Fraction, p: int) -> tuple[int, int, int]:
    """(v, num, den) with x = p^v * num/den and num, den prime to p.  No
    checks: x is nonzero and p a proven prime (a `Place` proves it when it
    is built), so the hot primitives skip the primality test."""
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def valuation(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational; additive on products."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("valuation of 0 is undefined")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _split(x, p)[0]


def unit_part(x: Rational, p: int) -> Fraction:
    """The u with x = p^valuation(x, p) * u; numerator and denominator of u
    are coprime to p."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("unit part of 0 is undefined")
    return x / Fraction(p) ** valuation(x, p)


def _unit_mod(u: Fraction, modulus: int) -> int:
    # u must have numerator and denominator coprime to the modulus
    num, den = u.numerator, u.denominator
    if gcd(den, modulus) != 1 or gcd(num, modulus) != 1:
        raise DomainError(f"{u} is not a unit modulo {modulus}")
    return num * pow(den, -1, modulus) % modulus


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


def zeta3_present(place: Place) -> bool:
    """Whether the completion contains a primitive cube root of unity."""
    if place.kind == "complex":
        return True
    if place.kind == "real":
        return False
    return place.p % 3 == 1


def is_unit_3power(u: Rational, p: int, j: int) -> bool:
    """Whether the p-adic unit u is a 3^j-th power in Z_p^*.

    For p != 3 the one-units are uniquely 3-divisible, so only the residue
    of u modulo p matters.
    """
    if p == 3:
        raise DomainError("3-power-unit test not supported at p = 3")
    u = Fraction(u)
    if valuation(u, p) != 0:
        raise DomainError(f"{u} is not a p-adic unit at {p}")
    g = gcd(3**j, p - 1)
    return pow(_unit_mod(u, p), (p - 1) // g, p) == 1


def sqrt_extension_unramified(d: Rational, p: int) -> bool:
    """Whether Q_p(sqrt(d))/Q_p is unramified (the split case counts as
    unramified).  At p = 2 this is decided by the unit part mod 4."""
    v = valuation(d, p)
    if v % 2 != 0:
        return False
    if p == 2:
        return _unit_mod(unit_part(d, 2), 4) == 1
    return True


@dataclass(frozen=True)
class ValuedRational:
    """A nonzero rational together with its decomposition x = p^val * unit
    at a finite place."""

    value: Fraction
    place: Place
    val: int
    unit: Fraction


def valued(x: Rational, p: int) -> ValuedRational:
    x = Fraction(x)
    v = valuation(x, p)
    return ValuedRational(x, Place.finite(p), v, unit_part(x, p))


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
