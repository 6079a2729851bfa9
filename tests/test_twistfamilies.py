import math
import random
from fractions import Fraction
from itertools import compress

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selmer3 import twistfamilies
from selmer3.errors import BudgetError, DomainError
from selmer3.twistfamilies import (
    CongruenceCondition,
    TwistClass,
    TwistFamily,
    admitted_masks,
    enumerate_classes,
    factorize,
    family_preset,
    height,
    is_squarefree_class,
    reduce_class,
)


def test_factorize():
    assert factorize(96) == {2: 5, 3: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    with pytest.raises(DomainError):
        factorize(0)


_primes = st.integers(2, 10**7).map(lambda n: sympy.prevprime(n + 1))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.just(1),
        _primes,
        st.builds(pow, _primes, st.sampled_from((2, 3))),
        st.lists(_primes, min_size=2, max_size=4).map(math.prod),
    )
)
@example(999983 * 999979)
@example(9999991**3)
@example(2**5 * 997**2 * 1009 * 9999991)
def test_factorize_matches_sympy(n):
    # sympy lists its keys in no fixed order; factorize's are increasing
    assert list(factorize(n).items()) == sorted(sympy.factorint(n).items())


def test_factorize_raises_budget_error_when_rho_runs_out(monkeypatch):
    monkeypatch.setattr(twistfamilies, "_RHO_BUDGET", 8)
    assert factorize(2 * 997 * 1009) == {2: 1, 997: 1, 1009: 1}  # trial division only
    with pytest.raises(BudgetError):
        factorize(999983 * 999979)


def test_reduce_class_examples():
    assert reduce_class(64, 3).d0 == 1
    assert reduce_class(96, 3).d0 == 96
    assert reduce_class(Fraction(2, 729), 3).d0 == 2


def test_reduce_class_keeps_sign_and_is_idempotent():
    rng = random.Random(8)
    for _ in range(200):
        d = Fraction(rng.randint(1, 10**5), rng.randint(1, 10**4)) * rng.choice([1, -1])
        tc = reduce_class(d, 3)
        assert (tc.d0 > 0) == (d > 0)
        assert reduce_class(tc.d0, 3).d0 == tc.d0
        # the quotient is a sixth power
        q = d / tc.d0
        root = Fraction(
            round(abs(q.numerator) ** (1 / 6)), round(q.denominator ** (1 / 6))
        )
        assert root**6 == q


def test_reduce_class_multiplicative_up_to_powers():
    rng = random.Random(9)
    for _ in range(100):
        a = Fraction(rng.randint(1, 1000)) * rng.choice([1, -1])
        b = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice([1, -1])
        assert reduce_class(a * b**6, 3) == reduce_class(a, 3)


def test_height():
    assert height(reduce_class(64, 3)) == 1
    assert height(reduce_class(-50, 3)) == 50
    assert height(reduce_class(Fraction(7, 2**6), 3)) == 7


def test_is_squarefree_class():
    assert is_squarefree_class(reduce_class(30, 3))
    assert not is_squarefree_class(reduce_class(12, 3))
    assert is_squarefree_class(reduce_class(2 * 3**6 * 5, 3))


def test_enumerate_sigma_preset():
    fam = family_preset("sigma-36-2-11")
    got = [tc.d0 for tc in enumerate_classes(fam, 100)]
    assert got == [2, 11, -34, 38, 47, -61, -70, 74, 83, -97]
    # -25 = 11 (mod 36) but is not squarefree; 74 = 2 (mod 36) and is
    assert -25 not in got


def test_enumerate_full_family():
    fam = family_preset("full-n3")
    got = [tc.d0 for tc in enumerate_classes(fam, 10)]
    assert got == [d for h in range(1, 10) for d in (h, -h)]
    got65 = {tc.d0 for tc in enumerate_classes(fam, 65)}
    assert 64 not in got65 and -64 not in got65 and 63 in got65


def test_enumerate_respects_signs_and_conditions():
    fam = TwistFamily(n=3, signs=(1,), squarefree=True)
    got = enumerate_classes(fam, 20)
    assert all(tc.d0 > 0 and is_squarefree_class(tc) for tc in got)
    empty = TwistFamily(n=3, conditions=(CongruenceCondition(5, frozenset()),))
    assert enumerate_classes(empty, 100) == []


def test_enumerate_members_all_pass_family_predicate():
    fam = family_preset("sigma-36-2-11")
    for tc in enumerate_classes(fam, 500):
        assert fam.admits(tc)
        assert height(tc) < 500


def test_sixth_power_free_density():
    fam = family_preset("full-n3")
    bound = 10**6
    count = len(enumerate_classes(fam, bound))
    density = count / (2 * (bound - 1))
    expected = 945 / math.pi**6
    assert abs(density - expected) / expected < 0.05


def test_family_json_round_trip():
    fam = family_preset("sigma-36-2-11")
    again = TwistFamily.from_json_obj(fam.to_json_obj())
    assert again == fam
    with pytest.raises(DomainError):
        TwistFamily.from_json_obj({"schema": 2})


@pytest.mark.parametrize("n", [6, 12, 18])
def test_family_level_must_be_a_power_of_three(n):
    with pytest.raises(DomainError, match="power of 3"):
        TwistFamily(n=n)


def test_family_preset_unknown():
    with pytest.raises(DomainError):
        family_preset("nope")


def test_twist_class_rejects_zero():
    with pytest.raises(DomainError):
        TwistClass(0, 3)


def test_enumerate_matches_brute_force_filter():
    # every nonzero d with |d| < bound that the family predicate admits,
    # in enumeration order; moduli below and above the bound
    rng = random.Random(12)
    for _ in range(30):
        modulus = rng.choice([4, 9, 36, 50, 1000])
        residues = frozenset(rng.sample(range(modulus), rng.randint(1, min(modulus, 5))))
        fam = TwistFamily(
            n=rng.choice([3, 9]),
            signs=rng.choice([(1,), (-1,), (1, -1)]),
            conditions=(CongruenceCondition(modulus, residues),),
            squarefree=rng.choice([True, False]),
        )
        bound = rng.randint(1, 700)
        want = []
        for h in range(1, bound):
            for s in (1, -1):
                tc = TwistClass(s * h, fam.n)
                if reduce_class(s * h, fam.n) == tc and fam.admits(tc):
                    want.append(s * h)
        assert [tc.d0 for tc in enumerate_classes(fam, bound)] == want


@st.composite
def _condition(draw, bound):
    """A congruence condition whose modulus may exceed the height bound and
    whose residues may be 0, negative or at least the modulus; several
    residues or almost all of them."""
    modulus = draw(st.integers(1, 2 * bound + 2))
    pool = st.integers(-modulus, 2 * modulus)
    if draw(st.booleans()):
        return CongruenceCondition(modulus, draw(st.frozensets(pool, max_size=6)))
    # most classes admitted, a few refused, some residues out of range
    refused = draw(st.frozensets(st.integers(0, modulus - 1), max_size=3))
    return CongruenceCondition(modulus, frozenset(range(modulus)) - refused | draw(st.frozensets(pool, max_size=2)))


@st.composite
def _family_and_bound(draw):
    bound = draw(st.integers(1, 300))
    family = TwistFamily(
        n=draw(st.sampled_from([3, 9])),
        signs=draw(st.sampled_from([(1,), (-1,), (1, -1)])),
        conditions=tuple(draw(st.lists(_condition(bound), max_size=3))),
        squarefree=draw(st.booleans()),
    )
    return family, bound


@settings(max_examples=60, deadline=None)
@given(_family_and_bound())
@example((TwistFamily(n=3, conditions=(CongruenceCondition(36, frozenset({0, 2, 11, 36, 47})),)), 200))
@example((TwistFamily(n=3, signs=(-1,), conditions=(CongruenceCondition(500, frozenset({0, 3, 499})),)), 100))
@example((TwistFamily(n=3, conditions=(CongruenceCondition(4, frozenset({1, 2, 3})),) * 2, squarefree=True), 150))
@example((TwistFamily(n=3, signs=(1,), conditions=(CongruenceCondition(1, frozenset({0})),)), 30))
@example((TwistFamily(n=3, conditions=(CongruenceCondition(36, frozenset(range(35))),)), 200))  # d = 35 (mod 36) out
@example((TwistFamily(n=3, conditions=(CongruenceCondition(300, frozenset(range(300)) - {99}),)), 100))
@example((TwistFamily(n=3, conditions=(CongruenceCondition(7, frozenset(range(1, 7))),)), 50))  # d = 0 (mod 7) out
def test_admitted_masks_equal_the_per_height_predicate(family_and_bound):
    # mask[h] says whether sign * h is a member: its own 2n-th-power-free
    # representative, admitted by the family; the union is their union
    family, bound = family_and_bound
    masks, union, _ = admitted_masks(family, bound)
    assert [sign for sign, _ in masks] == [s for s in (1, -1) if s in family.signs]
    for sign, mask in masks:
        want = [h > 0 and (tc := reduce_class(sign * h, family.n)).d0 == sign * h and family.admits(tc)
                for h in range(len(mask))]
        assert list(map(bool, mask)) == want, sign
    assert list(union) == [max(column) for column in zip(*(mask for _, mask in masks))]


def test_admitted_masks_ask_no_condition_about_each_class(monkeypatch):
    # a condition's mask is built from its residues, not by asking it about
    # every class of its modulus below the bound
    calls = []
    admits = CongruenceCondition.admits
    monkeypatch.setattr(CongruenceCondition, "admits", lambda cond, d0: calls.append(d0) or admits(cond, d0))
    few = CongruenceCondition(10**6, frozenset({1, 7, 999_983}))
    most = CongruenceCondition(36, frozenset(range(36)) - {0, 9})
    family = TwistFamily(n=3, conditions=(few, most), squarefree=True)
    masks, _, _ = admitted_masks(family, 10**5)
    assert calls == []
    assert [h for h in range(10**5) if masks[0][1][h]] == [1, 7]
    assert [h for h in range(10**5) if masks[1][1][h]] == [17]  # -17 = 999,983 (mod 10^6)


def test_many_conditions_are_refused_before_any_mask(monkeypatch):
    # 151 conditions x 2 signs x 10^6 heights is past the mask budget: the
    # refusal comes before a mask, the sieve's primes or a byte is made
    def allocated(*args):
        raise AssertionError("allocated before the budget check")

    many = TwistFamily(n=3, conditions=(CongruenceCondition(7, frozenset({1})),) * 151)
    assert 2 * 151 * 10**6 > twistfamilies.MAX_MASK_BYTES
    with monkeypatch.context() as m:
        for name in ("bytearray", "bytes"):
            m.setattr(twistfamilies, name, allocated, raising=False)
        m.setattr(twistfamilies, "_primes_below", allocated)
        with pytest.raises(BudgetError, match="151 congruence conditions"):
            admitted_masks(many, 10**6)
        # one sign needs half the fills
        with pytest.raises(BudgetError):
            admitted_masks(TwistFamily(n=3, signs=(1,), conditions=many.conditions * 2), 10**6)
    # the budget itself is sieved, one byte past it is not
    monkeypatch.setattr(twistfamilies, "MAX_MASK_BYTES", 2 * 3 * 100)
    three = TwistFamily(n=3, conditions=(CongruenceCondition(7, frozenset({1, 2})),) * 3)
    masks, _, _ = admitted_masks(three, 100)
    assert [h for h in range(100) if masks[0][1][h]] == [h for h in range(1, 100) if h % 7 in (1, 2) and h % 2**6]
    with pytest.raises(BudgetError):
        admitted_masks(three, 101)
    assert admitted_masks(TwistFamily(n=3, signs=(-1,), conditions=three.conditions), 200)


def test_presets_stay_far_below_the_mask_budget():
    for name, family in twistfamilies.PRESETS.items():
        fills = len(family.signs) * len(family.conditions) * twistfamilies.MAX_HEIGHT
        assert fills * 10 <= twistfamilies.MAX_MASK_BYTES, name


def test_many_listed_residues_are_refused_when_the_family_is_built(monkeypatch):
    # signs x listed residues past the budget is refused by the constructor,
    # so no per-sign set of admitted classes and no mask is ever made; a
    # residue at or past its modulus still counts, as it is still listed
    monkeypatch.setattr(twistfamilies, "MAX_LISTED_RESIDUES", 2 * 6)
    conditions = (CongruenceCondition(7, frozenset({1, 2})), CongruenceCondition(5, frozenset({0, 3, 9, 12})))
    family = TwistFamily(n=3, conditions=conditions)  # 2 x (2 + 4), the budget itself
    masks, _, _ = admitted_masks(family, 100)
    admitted = [h for h in range(1, 100) if h % 7 in (1, 2) and h % 5 in (0, 3)]
    assert [h for h in range(100) if masks[0][1][h]] == admitted
    with pytest.raises(BudgetError, match="conditions list 14 residues over the signs"):
        TwistFamily(n=3, conditions=conditions + (CongruenceCondition(4, frozenset({1})),))
    # one sign counts its residues once
    assert TwistFamily(n=3, signs=(-1,), conditions=conditions * 2)
    with pytest.raises(BudgetError):
        TwistFamily(n=3, signs=(-1,), conditions=conditions * 2 + (CongruenceCondition(4, frozenset({1})),))
    # the refusal is the constructor's, whichever way the family is read
    obj = family.to_json_obj()
    obj["conditions"] = obj["conditions"] * 2
    with pytest.raises(BudgetError):
        TwistFamily.from_json_obj(obj)


def test_presets_stay_far_below_the_residue_budget():
    for name, family in twistfamilies.PRESETS.items():
        listed = len(family.signs) * sum(len(cond.residues) for cond in family.conditions)
        assert listed * 10**5 <= twistfamilies.MAX_LISTED_RESIDUES, name


@st.composite
def _walked_family_and_bound(draw):
    """A family of 0 to 3 conditions, moduli up to 10^30 (some past the
    bound), residues that may be at or past their modulus or admit nothing,
    and a height bound up to 3000."""
    bound = draw(st.integers(1, 3000))
    conditions = []
    for _ in range(draw(st.integers(0, 3))):
        modulus = draw(st.one_of(st.integers(1, 40), st.integers(1, 2 * bound), st.integers(1, 10**30)))
        small = st.integers(0, min(2 * modulus, 4 * bound))
        residues = draw(st.one_of(
            st.frozensets(small, max_size=8),
            st.frozensets(st.integers(0, 2 * modulus), max_size=4),
            st.just(frozenset(range(min(modulus, 64)))),
        ))
        conditions.append(CongruenceCondition(modulus, residues))
    family = TwistFamily(
        n=draw(st.sampled_from([3, 9])),
        signs=draw(st.sampled_from([(1,), (-1,), (1, -1)])),
        conditions=tuple(conditions),
        squarefree=draw(st.booleans()),
    )
    return family, bound


def _classes_of(cond, sign, bound):
    return sorted(c for c in {sign * r % cond.modulus for r in cond.residues if 0 <= r < cond.modulus} if c < bound)


@settings(max_examples=150, deadline=None)
@given(_walked_family_and_bound())
@example((TwistFamily(n=3, conditions=(CongruenceCondition(36, frozenset({5, 13, 29})),), squarefree=True), 3000))
@example((TwistFamily(n=3, conditions=(CongruenceCondition(10**30, frozenset({1, 7, 10**30 - 3})),)), 50))
@example((TwistFamily(n=9, signs=(-1,), conditions=(CongruenceCondition(7, frozenset({7, 8})),)), 100))
@example((TwistFamily(n=3, conditions=(CongruenceCondition(4, frozenset(range(4))),)), 1))
@example((TwistFamily(n=3), 1))
def test_walk_equals_the_walk_of_every_height(family_and_bound):
    # the walk yields sign * h for the marked h in increasing order, as a
    # compress over every height does, in the classes admitted_masks picks,
    # in any one condition's classes, and for the union over both signs
    family, bound = family_and_bound
    masks, union, (m, classes) = admitted_masks(family, bound)
    size = len(union)
    assert all(cs == sorted(set(cs)) and all(0 <= c < size for c in cs) for cs in classes.values())
    for sign, mask in masks:
        want = list(compress(range(0, sign * size, sign), mask))
        assert list(twistfamilies._walk(mask, sign, m, classes[sign])) == want
        for cond in family.conditions:
            assert list(twistfamilies._walk(mask, sign, cond.modulus, _classes_of(cond, sign, size))) == want
    both = sorted(set().union(*classes.values()))
    assert list(twistfamilies._walk(union, 1, m, both)) == list(compress(range(size), union))
    if not family.conditions:
        assert (m, classes) == (1, {sign: [0] for sign, _ in masks})


# `_sieve_walk` makers of each member's d0
_D0 = {sign: lambda h, _, sign=sign: sign * h for sign in (1, -1)}


def test_walk_reads_only_the_admitted_classes(monkeypatch):
    # three residues mod 10^6 at height 10^6: the walk of each sign and of
    # the union reads the three heights of its classes, not the 10^6 below
    # the bound; a condition admitting every class mod 2^4 is not walked
    sparse = CongruenceCondition(10**6, frozenset({1, 7, 999_983}))
    dense = CongruenceCondition(16, frozenset(range(16)))
    family = TwistFamily(n=3, conditions=(dense, sparse), squarefree=True)
    masks, union, walk = admitted_masks(family, 10**6)
    assert walk == (10**6, {1: [1, 7, 999_983], -1: [17, 999_993, 999_999]})
    read = []

    def tally(heights):
        for h in heights:
            read.append(h)
            yield h

    monkeypatch.setattr(twistfamilies, "compress", lambda data, selectors: compress(tally(data), selectors))
    walked = [list(twistfamilies._walk(mask, sign, 10**6, walk[1][sign])) for sign, mask in masks]
    assert walked == [[1, 7, 999_983], [-17, -999_993]]  # 999,999 = 3^3 7 11 13 37
    assert sorted(map(abs, read)) == [1, 7, 17, 999_983, 999_993, 999_999]
    read.clear()
    assert twistfamilies._sieve_walk(masks, union, walk, _D0) == [1, 7, -17, 999_983, -999_993]
    assert len(read) <= 1000 + 6  # the sieve's primes below 1000, and the six classes


def test_walk_reads_every_height_where_its_classes_cost_more(monkeypatch):
    # 18 residues mod 36 at 20,000: each sign's walk reads its 18 classes,
    # but the sieve walk's union of both signs' 35 classes would read more
    # than every height, so it reads every height once
    family = TwistFamily(n=3, conditions=(CongruenceCondition(36, frozenset(range(18))),), squarefree=True)
    masks, union, walk = admitted_masks(family, 20_000)
    assert walk == (36, {1: list(range(18)), -1: [0, *range(19, 36)]})
    read = []
    monkeypatch.setattr(twistfamilies, "compress", lambda data, bits: read.append(data) or compress(data, bits))
    for sign, mask in masks:
        want = list(compress(range(0, sign * 20_000, sign), mask))
        assert list(twistfamilies._walk(mask, sign, 36, walk[1][sign])) == want
    assert not any(isinstance(data, range) for data in read)  # the interleaved slices
    members = twistfamilies._sieve_walk(masks, union, walk, _D0)
    assert read[-1] == range(20_000)
    assert members == [sign * h for h in range(20_000) for sign, mask in masks if mask[h]]


def test_congruence_modulus_must_be_positive():
    with pytest.raises(DomainError):
        CongruenceCondition(0, frozenset({0}))
