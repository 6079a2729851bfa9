"""Twist classes over Q: canonical 2n-th-power-free representatives, the
height, and enumeration of squarefree / congruence-defined families.

A class in Q^x modulo 2n-th powers is stored by its unique 2n-th-power-free
integer representative, sign kept (the sign is the archimedean datum).
Every class carries the factorization of its representative, so nothing
downstream factors it again.  `enumerate_classes` reads the factorization
of each height off one smallest-prime-factor sieve over the height box
(an `array('I')`, four bytes a height), which also decides the power-free
test; `reduce_class` keeps the factorization it computes to reduce d.  Only
an arbitrary d is trial-divided, once.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import isqrt
from operator import or_

from .errors import DomainError
from .localfield import Rational, is_prime


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division with a
    primality check on the cofactor."""
    if n <= 0:
        raise DomainError("factorize expects a positive integer")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        if not is_prime(m):
            raise DomainError(f"cofactor {m} resisted factorization")
        out[m] = out.get(m, 0) + 1
    return out


def rational_exponents(d: Fraction) -> dict[int, int]:
    exps = factorize(abs(d.numerator))
    if d.denominator > 1:
        for p, e in factorize(d.denominator).items():
            exps[p] = exps.get(p, 0) - e
    return exps


@dataclass(frozen=True, slots=True)
class TwistClass:
    """The 2n-th-power-free integer representative of a twist class.

    `factors` is the factorization of |d0| when the producer knew it, flat
    as (p1, e1, p2, e2, ...) with p increasing: one tuple of ints, which
    the garbage collector stops tracking, per class.  It takes no part in
    equality, hashing or repr."""

    d0: int
    n: int
    factors: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.d0 == 0:
            raise DomainError("twist class must be nonzero")

    def factorization(self) -> dict[int, int]:
        """p -> v_p(d0) in increasing p: read off the carried factors, by
        trial division only for a class built without them."""
        f = self.factors
        if f is None:
            return factorize(abs(self.d0))
        return dict(zip(f[::2], f[1::2]))


def reduce_class(d: Rational, n: int) -> TwistClass:
    """Reduce d modulo 2n-th powers of rationals: every prime exponent is
    taken mod 2n, the sign is kept.  Idempotent."""
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist class must be nonzero")
    d0 = 1 if d > 0 else -1
    factors: list[int] = []
    for p, e in sorted(rational_exponents(d).items()):
        e %= 2 * n
        if e:
            d0 *= p**e
            factors += (p, e)
    return TwistClass(d0, n, tuple(factors))


def height(tc: TwistClass) -> int:
    return abs(tc.d0)


def is_squarefree_class(tc: TwistClass) -> bool:
    """Squarefree means every prime divides the representative to order 0
    or 1 (equivalently v(d) = 0 or 1 mod 2n at every prime)."""
    return all(e <= 1 for e in tc.factorization().values())


@dataclass(frozen=True)
class CongruenceCondition:
    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise DomainError("a congruence modulus must be positive")

    def admits(self, d0: int) -> bool:
        return d0 % self.modulus in self.residues


@dataclass(frozen=True)
class TwistFamily:
    """A family of twist classes defined by local conditions: an
    archimedean sign set, an optional squarefree restriction, and finitely
    many congruence conditions."""

    n: int = 3
    signs: tuple[int, ...] = (1, -1)
    conditions: tuple[CongruenceCondition, ...] = ()
    squarefree: bool = False
    height_bound: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not set(self.signs) <= {1, -1} or not self.signs:
            raise DomainError("signs must be a nonempty subset of {+1, -1}")
        if self.n < 3 or self.n % 3 != 0:
            raise DomainError("n must be a power of 3, at least 3")

    def admits(self, tc: TwistClass) -> bool:
        if tc.n != self.n:
            return False
        if (1 if tc.d0 > 0 else -1) not in self.signs:
            return False
        if self.squarefree and not is_squarefree_class(tc):
            return False
        return all(cond.admits(tc.d0) for cond in self.conditions)

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "signs": ["+" if s > 0 else "-" for s in self.signs],
            "conditions": [
                {"modulus": c.modulus, "residues": sorted(c.residues)}
                for c in self.conditions
            ],
            "squarefree": self.squarefree,
            "height_bound": self.height_bound,
            "name": self.name,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "TwistFamily":
        if obj.get("schema") != 1:
            raise DomainError("unsupported family schema")
        signs = tuple(1 if s == "+" else -1 for s in obj.get("signs", ["+", "-"]))
        conds = tuple(
            CongruenceCondition(int(c["modulus"]), frozenset(int(r) for r in c["residues"]))
            for c in obj.get("conditions", [])
        )
        return TwistFamily(
            n=int(obj.get("n", 3)),
            signs=signs,
            conditions=conds,
            squarefree=bool(obj.get("squarefree", False)),
            height_bound=obj.get("height_bound"),
            name=obj.get("name", ""),
        )

    @staticmethod
    def from_json(text: str) -> "TwistFamily":
        return TwistFamily.from_json_obj(json.loads(text))


def _smallest_prime_factors(bound: int) -> array:
    """spf[h] is the smallest prime factor of the composite h < bound and 0
    for h prime or h < 2.  Primes are marked from the largest down, so the
    smallest one is written last."""
    spf = array("I", [0]) * max(bound, 1)
    root = isqrt(max(bound - 1, 0))
    is_p = bytearray([1]) * (root + 1)
    primes = []
    for p in range(2, root + 1):
        if is_p[p]:
            primes.append(p)
            is_p[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    for p in reversed(primes):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, bound, p))
    return spf


def _power_free_factors(spf: array, h: int, power: int) -> tuple[int, ...] | None:
    """The flat factorization of h read off the sieve, or None when some
    p^power divides h."""
    out: list[int] = []
    while h > 1:
        p = spf[h]
        if not p:
            out += (h, 1)
            break
        e = 0
        while h % p == 0:
            h //= p
            e += 1
        if e >= power:
            return None
        out += (p, e)
    return tuple(out)


def _admitting_mask(bound: int, sign: int, conditions: tuple[CongruenceCondition, ...]) -> bytearray:
    """mask[h] = 1 for the 0 < h < bound such that every congruence
    condition admits sign * h; residue classes are struck out by slices."""
    mask = bytearray([1]) * max(bound, 1)
    mask[0] = 0
    for cond in conditions:
        m = cond.modulus
        for r in range(min(m, bound)):
            if not cond.admits(sign * r):
                mask[r::m] = bytes(len(range(r, bound, m)))
    return mask


def enumerate_classes(family: TwistFamily, height_bound: int | None = None) -> list[TwistClass]:
    """All classes of the family with height strictly below the bound,
    sorted by height with the positive representative first.  Each class
    carries its factorization; only heights that some sign admits are
    factored."""
    bound = height_bound if height_bound is not None else family.height_bound
    if bound is None:
        raise DomainError("an enumeration needs a height bound")
    power = 2 if family.squarefree else 2 * family.n
    spf = _smallest_prime_factors(bound)
    masks = [(s, _admitting_mask(bound, s, family.conditions)) for s in (1, -1) if s in family.signs]
    candidates = masks[0][1]
    for _, mask in masks[1:]:
        candidates = bytes(map(or_, candidates, mask))
    out = []
    for h in compress(range(bound), candidates):
        factors = _power_free_factors(spf, h, power)
        if factors is None:
            continue
        for sign, mask in masks:
            if mask[h]:
                out.append(TwistClass(sign * h, family.n, factors))
    return out


PRESETS: dict[str, TwistFamily] = {
    "sigma-36-2-11": TwistFamily(
        n=3,
        signs=(1, -1),
        conditions=(CongruenceCondition(36, frozenset({2, 11})),),
        squarefree=True,
        name="sigma-36-2-11",
    ),
    "squarefree-n3": TwistFamily(n=3, squarefree=True, name="squarefree-n3"),
    "full-n3": TwistFamily(n=3, name="full-n3"),
}


def family_preset(name: str) -> TwistFamily:
    if name not in PRESETS:
        raise DomainError(f"unknown family preset {name!r}")
    return PRESETS[name]
