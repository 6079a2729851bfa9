"""Reference functions that only tests call: each restates, on the
library's own pieces, an answer that no command or library path needs, so
that the tests can check the layers beneath it.  pytest does not collect
this module (its name does not start with `test_`).

- `soluble_classes` with `SolubleClasses`: the image of the local Kummer
  map at the resolution of the good-reduction theorem, over the classes of
  `localclass`; `summand_flag` and `unit_class_labels` feed it.
- `h1_counts_from_extensions`: the cohomology counts read off the oracle's
  list of cubic fields.
- `has_zp_root`: root isolation in Z_p of a polynomial with rational
  coefficients.
- `enumerate_classes`: a family's classes below a height bound, as
  `twistfamilies._sieve_walk` yields them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from selmer3 import twistfamilies
from selmer3.errors import DomainError
from selmer3.localclass import (
    KIND_TRIVIAL,
    KIND_UNRAM_1,
    KIND_UNRAM_2,
    LocalTwistDatum,
    OrbitClassDescriptor,
    class_labels,
    h1_dims,
    unit_class,
)
from selmer3.localfield import Place, Rational, _entry_split, _proven_prime, sqrt_extension_unramified, tame_place
from selmer3.oracle import _cubic_fields, _h1_counts
from selmer3.padicroots import ZpModel, _primitive_at, has_ring_root
from selmer3.selmerratio import IsogenyDescriptor
from selmer3.twistfamilies import TwistClass, TwistFamily


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


def soluble_classes(datum: LocalTwistDatum, summand_flag: bool) -> SolubleClasses:
    """Image of the local Kummer map for a good reduction twist at residue
    characteristic != 3.  Residue characteristic 2 is admitted exactly as
    far as the theorem extends there: the v(d) = 0 and ramified-sqrt cases."""
    p = datum.place.p
    assert p is not None
    if p == 3:
        raise DomainError("3-adic places take ratio overrides, not this theorem")
    v = datum.v_d

    if not sqrt_extension_unramified(datum.d, datum.place):
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


def unit_class_labels(u: Rational, place: Place, r: int) -> tuple[str, ...]:
    """The label chain of the unit u at the finite place and r.  The place
    has proven its prime."""
    if _entry_split(u, place)[0]:
        raise DomainError(f"{u} is not a unit at {place.p}")
    return class_labels(place.p, unit_class(u, place.p, r))


def summand_flag(desc: IsogenyDescriptor, p: int, u: Rational, r: int) -> bool:
    """The descriptor's summand bit at p for the unit u and r: the global
    bit at r = 0, else whether |kappa| = 1 for the unit's class."""
    if r == 0:
        return desc.global_summand_bit
    return desc.kappa_exponents(p, unit_class_labels(u, Place.finite(p), r), r)[0] == 0


def h1_counts_from_extensions(p: int, d: Rational) -> tuple[int, int]:
    """(#H^1, #H^1_un) derived purely from field enumeration."""
    return _h1_counts(_cubic_fields(tame_place(p, "extension count"), d))


def has_zp_root(coeffs, p: int) -> bool:
    """Root in Z_p of a polynomial of degree at most 3 with rational
    coefficients (constant term first)."""
    p = _proven_prime(p)
    if all(c == 0 for c in coeffs):
        raise DomainError("zero polynomial")
    return has_ring_root(ZpModel(p), _primitive_at(coeffs, p))


def enumerate_classes(family: TwistFamily, bound: int) -> list[TwistClass]:
    """All classes of the family with height strictly below the bound, in
    the order of `_sieve_walk`, each height's flat factors shared by both
    signs'.  The walk is read through the module, so that a test counting
    its calls sees this one."""
    last = [0, ()]  # a height and its flat factors

    def make(sign: int, h: int, primes: list[int]) -> TwistClass:
        if last[0] != h:
            flat: list[int] = []
            for p in primes:
                if flat and flat[-2] == p:
                    flat[-1] += 1
                else:
                    flat += (p, 1)
            last[:] = h, tuple(flat)
        return TwistClass(sign * h, family.n, last[1])

    makers = {s: partial(make, s) for s in (1, -1)}
    return twistfamilies._sieve_walk(*twistfamilies.admitted_masks(family, bound), makers)
