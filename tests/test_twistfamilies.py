import math
import random
from fractions import Fraction

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


def test_congruence_modulus_must_be_positive():
    with pytest.raises(DomainError):
        CongruenceCondition(0, frozenset({0}))
