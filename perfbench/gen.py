"""Seeded inputs for the benchmark, built without selmer3.

Primes come from the Miller-Rabin test below, never from
selmer3.localfield, so a defect there cannot shape its own test inputs.
Every generated twist parameter keeps its factorization, so the checks can
derive the expected answer independently.
"""

from __future__ import annotations

import json
import random
from math import gcd

DEFAULT_SEED = 20210714

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24 (far above any input
    drawn here)."""
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


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn uniformly from the primes in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def power_free(h: int, power: int) -> bool:
    """Whether no prime power p^power divides h (trial division; the heights
    checked here are small)."""
    p = 2
    while p**power <= h:
        if h % p**power == 0:
            return False
        p += 1
    return True


def family_members(height: int, squarefree: bool, conditions=(), signs=(1, -1)) -> list[int]:
    """The benchmark's own enumeration of a twist family with n = 3: the
    signed heights below `height` that are squarefree (or sixth-power-free)
    and meet every congruence condition, sorted like selmer3's report."""
    power = 2 if squarefree else 6
    bad = bytearray(height)
    for q in range(2, height):
        if q**power >= height:
            break
        if is_prime(q):
            for m in range(q**power, height, q**power):
                bad[m] = 1
    out = []
    for h in range(1, height):
        if bad[h]:
            continue
        for sign in signs:
            d0 = sign * h
            if all(d0 % m in residues for m, residues in conditions):
                out.append(d0)
    return out


# ----------------------------------------------------------------------
# family-scan inputs
# ----------------------------------------------------------------------

# A seeded family keeps its member count fixed, so its cost does not move
# with the seed: the height is the first one reaching this many members.
# The modulus is fixed too, because excluding a further small prime from
# every member (modulus 60, 84, ...) made members measurably cheaper.
FAMILY_MEMBERS = 2000
FAMILY_MODULUS = 36


def congruence_family(rng: random.Random) -> dict:
    """A squarefree congruence family in selmer3's family-file schema:
    three unit residues mod 36 drawn from the seed, so every residue class
    carries squarefree members at the same density."""
    modulus = FAMILY_MODULUS
    units = [r for r in range(modulus) if gcd(r, modulus) == 1]
    residues = sorted(rng.sample(units, 3))
    bound = 2
    count = 0
    while count < FAMILY_MEMBERS:
        h = bound - 1
        hits = sum(1 for s in (1, -1) if (s * h) % modulus in residues)
        if hits and power_free(h, 2):
            count += hits
        bound += 1
    return {
        "schema": 1,
        "n": 3,
        "conditions": [{"modulus": modulus, "residues": residues}],
        "squarefree": True,
        "signs": ["+", "-"],
        "height_bound": bound - 1,
        "name": f"bench-{modulus}-{'-'.join(map(str, residues))}",
    }


# ----------------------------------------------------------------------
# point-queries inputs
# ----------------------------------------------------------------------

# One cycle of request kinds, repeated in this order: ratio 3, prym 2,
# classify 2, forms 3 out of every 10.
QUERY_PATTERN = (
    "ratio", "forms", "classify", "prym", "forms",
    "ratio", "classify", "forms", "prym", "ratio",
)
_COFACTOR_PRIMES = (2, 5, 7, 11, 13)
_SMALL_SQUAREFREE = (1, 2, 5, 7, 10, 11, 13, 14, 17, 19, 22, 23, 26, 29, 31, 34, 35, 37, 38)

# Request cost is set by a few input features: the digit counts of the two
# large primes of D, and for classify the residue of P mod 3, whether the
# unit part is a square, v_P(D) and the size of P.  Each kind draws these
# strata in shuffled periods that hold every stratum once, so every run
# sees the same mix of cheap and costly requests and only the values
# inside a stratum are random.  For classify the period is nested: every
# 24 requests hold each (residue, square, v) once, and each of those
# cycles through the eight size buckets of P on its own, so the costly
# strata (P = 2 mod 3, square, v in {0, 4}) come at a fixed rate.
_DIGIT_PAIRS = [(a, b) for a in (4, 5, 6) for b in (4, 5, 6)]
_CLASSIFY_SHAPES = [(residue, square, v) for residue in (1, 2) for square in (True, False) for v in range(6)]
_P_BUCKETS = range(8)


def ratio_config(rng: random.Random) -> dict:
    """A complete ratio configuration: real place, an override at 3 and a
    bad place at 2, kappa orders for r = 0 and r = 1."""
    kappa_hat = rng.choice((1, 3))
    return {
        "schema": 1,
        "descriptor": {
            "schema": 1, "m": 1, "kernel_character": rng.choice(("1", "-3")),
            "global_summand_bit": True, "chain_length": 1, "name": "bench",
            "kappa_orders": [
                {"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": kappa_hat},
                {"r": 1, "unit_class": "any", "kappa": 1, "kappa_hat": 1},
            ],
        },
        "profiles": [
            {"place": "real", "reduction": "good"},
            {"place": 3, "reduction": "bad", "override_exponent": rng.choice((-1, 0, 1))},
            {"place": 2, "reduction": "bad", "override_exponent": rng.choice((0, 1))},
        ],
    }


def _two_primes(rng: random.Random, digits: tuple[int, int]) -> list[int]:
    """Two distinct primes with the given digit counts and leading digit 1,
    so that a digit count fixes the trial-division cost within a factor 2."""
    primes: list[int] = []
    while len(primes) < 2:
        n = digits[len(primes)]
        p = random_prime(rng, 10 ** (n - 1), 2 * 10 ** (n - 1))
        if p not in primes:
            primes.append(p)
    return primes


def _ratio_query(rng: random.Random, digits) -> dict:
    sign = rng.choice((1, -1))
    factors = {p: 1 for p in _two_primes(rng, digits)}
    q = rng.choice(_COFACTOR_PRIMES)
    factors[q] = rng.randint(1, 7)
    return {"kind": "ratio", "sign": sign, "factors": factors}


def _prym_query(rng: random.Random, digits) -> dict:
    """A member of the Sigma family: squarefree, d = 2 or 11 (mod 36)."""
    while True:
        sign = rng.choice((1, -1))
        big = _two_primes(rng, digits)
        small = rng.choice(_SMALL_SQUAREFREE)
        d = sign * small * big[0] * big[1]
        if d % 36 in (2, 11):
            factors = {p: 1 for p in big}
            factors.update((p, 1) for p in range(2, small + 1) if small % p == 0 and is_prime(p))
            return {"kind": "prym", "sign": sign, "factors": factors}


def _classify_query(rng: random.Random, stratum) -> dict:
    """P prime, P = residue (mod 3), in [125 * bucket, 125 * (bucket + 1));
    D = u * P^v with u a unit that is a square mod P or not."""
    residue, square, bucket, v = stratum
    while True:
        p = random_prime(rng, max(5, 125 * bucket), 125 * (bucket + 1))
        if p % 3 == residue:
            break
    while True:
        u = rng.choice((1, -1)) * rng.randint(1, 50)
        if u % p and (pow(u, (p - 1) // 2, p) == 1) == square:
            return {"kind": "classify", "p": p, "v": v, "u": u}


def _forms_query(rng: random.Random, _stratum) -> dict:
    while True:
        coeffs = [rng.randint(-20, 20) for _ in range(4)]
        if form_discriminant(*coeffs) != 0:
            return {"kind": "forms", "coeffs": coeffs, "p": rng.choice((5, 7, 11, 13))}


def _shuffled_periods(rng: random.Random, strata):
    while True:
        period = list(strata)
        rng.shuffle(period)
        yield from period


def _classify_strata(rng: random.Random):
    buckets = {shape: _shuffled_periods(rng, _P_BUCKETS) for shape in _CLASSIFY_SHAPES}
    for residue, square, v in _shuffled_periods(rng, _CLASSIFY_SHAPES):
        yield residue, square, next(buckets[residue, square, v]), v


def query_stream(seed: int):
    """Endless seeded request stream, kinds in QUERY_PATTERN order."""
    rng = random.Random(seed)
    makers = {
        "ratio": (_ratio_query, _shuffled_periods(rng, _DIGIT_PAIRS)),
        "prym": (_prym_query, _shuffled_periods(rng, _DIGIT_PAIRS)),
        "classify": (_classify_query, _classify_strata(rng)),
        "forms": (_forms_query, _shuffled_periods(rng, [None])),
    }
    while True:
        for kind in QUERY_PATTERN:
            make, strata = makers[kind]
            yield make(rng, next(strata))


def twist_value(query: dict) -> int:
    d = query["sign"]
    for p, e in query["factors"].items():
        d *= p**e
    return d


# ----------------------------------------------------------------------
# oracle-verify inputs and shared form arithmetic
# ----------------------------------------------------------------------


def form_discriminant(a, b, c, d):
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


def random_forms(rng: random.Random, count: int, bound: int) -> list[list[int]]:
    """Integral forms with coefficients in [-bound, bound], disc != 0."""
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-bound, bound) for _ in range(4)]
        if form_discriminant(*coeffs) != 0:
            out.append(coeffs)
    return out


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
