"""Twist classes over Q: canonical 2n-th-power-free representatives, the
height, and enumeration of squarefree / congruence-defined families.

A class in Q^x modulo 2n-th powers is stored by its unique 2n-th-power-free
integer representative, sign kept (the sign is the archimedean datum).
Every class carries the factorization of its representative, so nothing
downstream factors it again.  `enumerate_classes` reads the factorization
of each height off one smallest-prime-factor sieve over the height box
(an `array('I')`, four bytes a height), which also decides the power-free
test; `reduce_class` keeps the factorization it computes to reduce d.  Only
an arbitrary d is factored, once: trial division by small primes, then
Pollard's rho within a fixed budget.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt
from operator import or_

from .errors import BudgetError, DomainError
from .localfield import Rational, is_prime


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes p < bound, by the sieve of Eratosthenes."""
    is_p = bytearray([1]) * max(bound, 2)
    is_p[:2] = b"\0\0"
    for p in range(2, isqrt(max(bound - 1, 0)) + 1):
        if is_p[p]:
            is_p[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(compress(range(bound), is_p))


# Trial division covers the primes below this bound; a cofactor with no
# such factor that is below its square is prime.
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)
# Iterations of x -> x^2 + c that one factorization may spend in rho.
_RHO_BUDGET = 1 << 23
_RHO_BATCH = 128


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer, keys in increasing
    order: trial division by the primes below 1000, then Brent's variant
    of Pollard's rho on a composite cofactor, every factor it splits off
    checked with `is_prime`.  Rho has a fixed iteration budget; past it
    the factorization raises `BudgetError`."""
    if n <= 0:
        raise DomainError("factorize expects a positive integer")
    out: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
    if m >= _TRIAL_BOUND**2:
        for p in sorted(_rho_primes(m)):
            out[p] = out.get(p, 0) + 1
    elif m > 1:  # no prime factor below its square root
        out[m] = 1
    return out


def _rho_primes(m: int) -> list[int]:
    """The prime factors of m, with multiplicity, split off by rho within
    one budget."""
    steps = _RHO_BUDGET
    todo, primes = [m], []
    while todo:
        k = todo.pop()
        if is_prime(k):
            primes.append(k)
            continue
        g, steps = _brent_split(k, steps)
        todo += (g, k // g)
    return primes


def _brent_split(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the odd composite n and the iterations left of
    `steps`: Brent's cycle search on x -> x^2 + c from x = 2 (Brent, BIT 20,
    1980), with one gcd per batch of differences, for c = 1, 2, ... until a
    walk splits n.  Raises `BudgetError` when the iterations run out."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r  # at most r to move x, r to compare with it
            if steps < 0:
                raise BudgetError(
                    f"factorization of {n} exceeded {_RHO_BUDGET} rho iterations"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch passed the collision: replay it one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps


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
        `factorize` only for a class built without them."""
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
    for p in reversed(_primes_below(isqrt(max(bound - 1, 0)) + 1)):
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
