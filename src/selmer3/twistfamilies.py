"""Twist classes over Q: canonical 2n-th-power-free representatives, the
height, and enumeration of squarefree / congruence-defined families.

A class in Q^x modulo 2n-th powers is stored by its unique 2n-th-power-free
integer representative, sign kept (the sign is the archimedean datum).
`admitted_masks` marks a family's members below a height bound, one byte a
height and sign; `_walk` reads them off the residue classes one condition
admits (or every height, if cheaper).  The T_k partition reads only these masks.
`_sieve_walk` factors each admitted height once, off one smallest-prime-
factor sieve (an `array('I')`, four bytes a height), and hands its primes
to a maker per sign: the Prym report's rows (the tests' reference
`enumerate_classes` makes classes off it too).
`reduce_class` builds the class of one d (`global_report`) and factors it
once: trial division by small primes, then Pollard's rho within a fixed budget.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, isqrt
from typing import Iterator

from .errors import BudgetError, Document, DomainError, malformed
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
# The largest height bound a family is sieved to: the masks and the factor
# sieve take a few bytes a height, a few GB at this bound.
MAX_HEIGHT = 10**7
# The most bytes of congruence-mask fills, signs x conditions x height, one
# family is sieved with: each condition and sign copies its admitted classes
# into a fresh mask.  The strided copies of a power-of-two modulus admitting
# every class run at up to 29 ns a byte (Python 3.11, 2 cores): 8 s here.
MAX_MASK_BYTES = 3 * 10**8
# `_walk` sets a class up in 0.8-1.5 us and reads a height in 30 ns (Python 3.11, 2 cores).
_CLASS_READS = 50
# The most residues a family's congruence conditions may list, counted once
# per sign: `admitted_masks` takes a Python step of about 0.2 us for each
# (Python 3.11, 2 cores), so 0.5 s at this bound.  A family past it is
# refused when it is built.
MAX_LISTED_RESIDUES = 2 * 10**6


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


# The envelope prints a representative, and int prints at most 4,300 digits.
_REPRESENTATIVE_LIMIT = 10**4300


def reduce_class(d: Rational, n: int) -> TwistClass:
    """Reduce d modulo 2n-th powers of rationals: every prime exponent is
    taken mod 2n, the sign is kept.  Idempotent.  A negative exponent e
    becomes 2n + e, so a small d can have a huge representative; one with
    more digits than the envelope can print raises DomainError."""
    d = Fraction(d)
    if d == 0:
        raise DomainError("twist class must be nonzero")
    d0 = 1 if d > 0 else -1
    factors: list[int] = []
    for p, e in sorted(rational_exponents(d).items()):
        e %= 2 * n
        if e:
            # p^e >= 2^(e (bits of p - 1)), a bound read before the power is taken
            if e * (p.bit_length() - 1) >= _REPRESENTATIVE_LIMIT.bit_length():
                break
            d0 *= p**e
            factors += (p, e)
    else:
        if abs(d0) < _REPRESENTATIVE_LIMIT:
            return TwistClass(d0, n, tuple(factors))
    raise DomainError("the representative of d has more than 4300 digits")


@dataclass(frozen=True)
class CongruenceCondition(Document):
    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise DomainError("a congruence modulus must be positive")

    def admits(self, d0: int) -> bool:
        return d0 % self.modulus in self.residues


def _read_signs(value, path: str) -> tuple[int, ...]:
    """The signs of a family document: an array of "+" and "-"."""
    if type(value) is not list:
        raise malformed(path, value, "an array")
    for i, sign in enumerate(value):
        if sign not in ("+", "-"):
            raise malformed(f"{path}[{i}]", sign, '"+" or "-"')
    return tuple(1 if sign == "+" else -1 for sign in value)


@dataclass(frozen=True)
class TwistFamily(Document):
    """A family of twist classes defined by local conditions: an
    archimedean sign set, an optional squarefree restriction, and finitely
    many congruence conditions.  Conditions that list more than
    `MAX_LISTED_RESIDUES` residues, counted once per sign, raise
    `BudgetError` here, before any mask or per-sign set is built."""

    n: int = 3
    signs: tuple[int, ...] = field(
        default=(1, -1), metadata={"json": (_read_signs, lambda signs: ["+" if s > 0 else "-" for s in signs])}
    )
    conditions: tuple[CongruenceCondition, ...] = ()
    squarefree: bool = False
    name: str = ""

    schema = 1

    def __post_init__(self) -> None:
        signs = set(self.signs)
        if not signs <= {1, -1} or not signs:
            raise DomainError("signs must be a nonempty subset of {+1, -1}")
        # n divides 3^b, where 3^b > 2^b > n, exactly when n is a power of 3
        if self.n < 3 or 3 ** self.n.bit_length() % self.n:
            raise DomainError("n must be a power of 3, at least 3")
        listed = len(signs) * sum(len(cond.residues) for cond in self.conditions)
        if listed > MAX_LISTED_RESIDUES:
            raise BudgetError(
                f"the congruence conditions list {listed} residues over the signs,"
                f" more than the maximum {MAX_LISTED_RESIDUES}"
            )

    def admits(self, tc: TwistClass) -> bool:
        if tc.n != self.n:
            return False
        if (1 if tc.d0 > 0 else -1) not in self.signs:
            return False
        if self.squarefree and any(e > 1 for e in tc.factorization().values()):
            return False
        return all(cond.admits(tc.d0) for cond in self.conditions)


def admitted_masks(family: TwistFamily, bound: int) -> tuple[list[tuple[int, bytes]], bytes, tuple[int, dict]]:
    """([(sign, mask)] for the family's signs, positive first, their union,
    and (m, {sign: classes}) to `_walk` them in), one byte a height:
    mask[h] = 1 when sign * h is a member, that is h is 2n-th-power-free
    (squarefree in a squarefree family) and every congruence condition
    admits sign * h.  Multiples of p^power are struck out, and admitted
    residue classes copied, by slice assignment.  The classes, increasing,
    are the c = sign * r (mod m) below the bound of the condition of fewest
    reads, `_CLASS_READS` a class plus its heights, or else 0 mod 1.
    A bound past `MAX_HEIGHT`, or more than `MAX_MASK_BYTES` of mask fills,
    raises `BudgetError` before anything is built."""
    if bound > MAX_HEIGHT:
        raise BudgetError(f"height bound {bound} exceeds the maximum {MAX_HEIGHT}")
    size = max(bound, 1)
    fills = len(set(family.signs)) * len(family.conditions) * size
    if fills > MAX_MASK_BYTES:
        raise BudgetError(
            f"{len(family.conditions)} congruence conditions at height {bound} take {fills} bytes"
            f" of mask fills, more than the maximum {MAX_MASK_BYTES}"
        )
    power = 2 if family.squarefree else 2 * family.n
    free = bytearray([1]) * size
    free[0] = 0
    # once power >= size.bit_length(), p^power >= 2^power > size strikes
    # nothing; decided so, no power of a large level is ever taken
    primes = _primes_below(isqrt(size - 1) + 1) if power < size.bit_length() else []
    for q in (p**power for p in primes):
        if q >= size:
            break
        free[q::q] = bytes(len(range(q, size, q)))
    masks, union = [], 0
    for sign in (1, -1):
        if sign in family.signs:
            mask = free
            for cond in family.conditions:
                m = cond.modulus
                mask, old = bytearray(size), mask
                for c in {sign * r % m for r in cond.residues if 0 <= r < m}:
                    mask[c::m] = old[c::m]
            masks.append((sign, bytes(mask)))
            union |= int.from_bytes(mask, "big")
    m, residues = min(  # at most one class a listed residue and a height below the bound
        ((1, (0,)), *((cond.modulus, cond.residues) for cond in family.conditions)),
        key=lambda walk: min(len(walk[1]), size) * (-(-size // walk[0]) + _CLASS_READS),
    )
    classes = {s: sorted(c for r in residues if 0 <= r < m and (c := s * r % m) < size) for s, _ in masks}
    return masks, union.to_bytes(size, "big"), (m, classes)


def _walk(mask: bytes, sign: int, m: int, classes: list[int]) -> Iterator[int]:
    """sign * h for each h with mask[h] = 1, increasing, where each marked h
    lies in one of the classes mod m (increasing, below len(mask)): only
    their slices mask[c::m] are read, interleaved row by row, unless they
    cost as much as class 0 mod 1 (every height), as `admitted_masks` counts."""
    size, step, k, rows = len(mask), sign * m, len(classes), -(-len(mask) // m)
    if k * (rows + _CLASS_READS) >= size + _CLASS_READS:  # as a union of both signs' classes may
        return compress(range(0, sign * size, sign), mask)
    if k == 1:  # the class's slice alone
        return compress(range(sign * classes[0], sign * size, step), mask[classes[0] :: m])
    selector = bytearray(k * rows)  # 0 past the bound in the last row
    for i, c in enumerate(classes):
        column = mask[c::m]
        selector[i : i + k * len(column) : k] = column
    heights = zip(*(range(sign * c, sign * c + step * rows, step) for c in classes))
    return compress(chain.from_iterable(heights), selector)


def _sieve_walk(masks: list[tuple[int, bytes]], union: bytes, walk: tuple, makers: dict) -> list:
    """makers[sign](h, primes) for each member sign * h that `admitted_masks`
    marks, by height with the positive sign first, off both signs' classes
    in `walk`; primes are those of h, increasing, with multiplicity.  Each
    height is factored once off the sieve spf: spf[m] is the smallest prime
    factor of a composite m, else 0 (primes are marked largest first)."""
    size = len(union)
    spf = array("I", [0]) * size
    for p in reversed(_primes_below(isqrt(size - 1) + 1)):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, size, p))
    signs, out = [(mask, makers[sign]) for sign, mask in masks], []
    for h in _walk(union, 1, walk[0], sorted(set().union(*walk[1].values()))):
        primes, m = [], h
        while p := spf[m]:  # m is composite
            primes.append(p)
            m //= p
        if m > 1:  # a prime
            primes.append(m)
        for mask, make in signs:
            if mask[h]:
                out.append(make(h, primes))
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
