import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selmer3.errors import DomainError
from selmer3.localfield import (
    Place,
    classify_squares,
    cube_class_reps,
    is_square,
    least_nonresidue,
    sextic_class_3adic,
    sqrt_extension_unramified,
    unit_part,
    valuation,
)
from selmer3.localclass import unit_class, unit_class_labels
from selmer3.twistfamilies import factorize

Q5 = Place.finite(5)
Q7 = Place.finite(7)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(1, 7) == 0
    # 9/14 = 9 / (2*7): the 7 sits in the denominator
    assert valuation(Fraction(9, 14), 7) == -1


def test_valuation_rejects_zero_and_composite():
    with pytest.raises(DomainError):
        valuation(0, 5)
    with pytest.raises(DomainError):
        valuation(10, 6)


@pytest.mark.parametrize("call", [
    lambda: unit_part(10, 6),
    lambda: unit_class_labels(5, Place.finite(6), 1),
    lambda: sqrt_extension_unramified(5, 6),
    lambda: unit_part(0, 5),
    lambda: unit_class_labels(0, Q5, 1),
    lambda: sqrt_extension_unramified(0, 5),
    lambda: unit_class_labels(14, Q7, 1),
])
def test_raw_p_entries_refuse_composite_p_zero_and_non_units(call):
    # the public entries test a raw p themselves, as `valuation` does; the
    # unit-class labels take a proven place and a unit
    with pytest.raises(DomainError):
        call()


def test_valuation_additive_on_products():
    rng = random.Random(101)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13])
        x = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
        y = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_unit_part_examples():
    assert unit_part(50, 5) == 2
    assert unit_part(-27, 3) == -1
    assert unit_part(Fraction(2, 45), 3) == Fraction(2, 5)


def test_unit_part_decomposition():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 11])
        x = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4)) * rng.choice([1, -1])
        v = valuation(x, p)
        u = unit_part(x, p)
        assert x == Fraction(p) ** v * u
        assert valuation(u, p) == 0


def test_is_square_examples():
    # 3^2 = 9 = 2 (mod 7)
    assert any(x * x % 7 == 2 for x in range(7))
    assert is_square(2, Q7)
    assert not is_square(5, Q5)  # odd valuation
    assert is_square(Fraction(-3) * Fraction(-3), Q5)


def test_is_square_at_two_and_archimedean():
    q2 = Place.finite(2)
    assert is_square(17, q2)  # 17 = 1 (mod 8)
    assert not is_square(3, q2)
    assert not is_square(2, q2)
    assert is_square(4, q2)
    assert is_square(2, Place.real()) and not is_square(-2, Place.real())
    assert is_square(-2, Place.complex())


def test_is_square_invariant_under_square_scaling():
    rng = random.Random(55)
    places = [Q5, Q7, Place.finite(2), Place.finite(13), Place.real()]
    for _ in range(200):
        place = rng.choice(places)
        x = Fraction(rng.randint(1, 300), rng.randint(1, 300)) * rng.choice([1, -1])
        t = Fraction(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice([1, -1])
        assert is_square(x * t * t, place) == is_square(x, place)


def test_square_xor_minus3_square_when_zeta3_absent():
    # at p = 2 (mod 3), p > 3, exactly one of u, -3u is a square for unit u
    for p in (5, 11, 17, 23):
        place = Place.finite(p)
        for u in range(1, p):
            assert is_square(u, place) != is_square(-3 * u, place)


def test_sextic_class_canonical_reps():
    assert sextic_class_3adic(2).representative == 2
    assert sextic_class_3adic(64 * 2).representative == 2
    assert sextic_class_3adic(11).representative == 2


def test_sextic_class_of_11_vs_2_by_exhaustive_search():
    # 11/2 should be a sixth power in Z_3: find t with t^6 = 11 * 2^(-1) (mod 3^5)
    target = 11 * pow(2, -1, 3**5) % 3**5
    assert any(pow(t, 6, 3**5) == target for t in range(1, 3**5))


def test_sextic_class_invariant_under_sixth_powers():
    rng = random.Random(99)
    for _ in range(200):
        d = Fraction(rng.randint(1, 400), rng.randint(1, 400)) * rng.choice([1, -1])
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
        assert sextic_class_3adic(d * t**6) == sextic_class_3adic(d)


def test_sextic_transversal_is_exact():
    # the 36 representatives {+-1,+-2,+-4} x {3^j} are pairwise inequivalent
    reps = [s * 3**j for s in (1, -1, 2, -2, 4, -4) for j in range(6)]
    classes = {sextic_class_3adic(r) for r in reps}
    assert len(classes) == 36
    for r in reps:
        assert sextic_class_3adic(r).representative == r


def test_classify_squares_exclusive_cases():
    sq = classify_squares(1, Q5)
    assert sq.d_is_square and not sq.minus3d_is_square
    sq = classify_squares(-3, Q5)
    assert not sq.d_is_square and sq.minus3d_is_square
    sq = classify_squares(5, Q5)
    assert sq.neither


def test_unit_3power_test():
    # cubes mod 7 are {1, 6}; 6 is a nonsquare, so the cube 1 is the power
    assert unit_class(Fraction(1), 7, 1) == "power"
    assert unit_class(Fraction(2), 7, 1) == "square"
    assert unit_class(Fraction(4), 5, 1) == "power"  # every unit is a cube when p = 2 (mod 3)
    assert unit_class(Fraction(4), 5, 2) == "power"
    assert unit_class(Fraction(2), 13, 0) == "nonsquare"
    # the labels of a square unit: 1 and 4 are cubes mod 7 and 5, 2 is not mod 7
    assert unit_class_labels(1, Q7, 1) == ("power", "square", "any")
    assert unit_class_labels(2, Q7, 1) == ("square", "any")
    assert unit_class_labels(4, Q5, 2) == ("power", "square", "any")
    assert unit_class_labels(6, Q7, 1) == ("nonsquare", "any")


def test_sqrt_extension_ramification():
    assert sqrt_extension_unramified(2, 5)
    assert not sqrt_extension_unramified(5, 5)
    assert sqrt_extension_unramified(5, 2)  # 5 = 1 (mod 4)
    assert not sqrt_extension_unramified(3, 2)
    assert not sqrt_extension_unramified(2, 2)


def test_cube_class_reps():
    assert cube_class_reps(5) == (1,)
    reps7 = cube_class_reps(7)
    assert len(reps7) == 3
    cubes7 = {pow(x, 3, 7) for x in range(1, 7)}
    cosets = [{r * c % 7 for c in cubes7} for r in reps7]
    assert set().union(*cosets) == set(range(1, 7))


def _cube_class_reps_by_sets(p):
    """Reference: the smallest c in each coset of the cubes, by building
    the set of all cubes (O(p) memory; small p only)."""
    cubes = {pow(x, 3, p) for x in range(1, p)}
    reps, seen = [], set()
    for c in range(1, p):
        if c not in seen:
            reps.append(c)
            seen |= {c * x % p for x in cubes}
    return tuple(reps)


def test_cube_class_reps_match_set_reference():
    from sympy import primerange

    for p in primerange(2, 2000):
        assert cube_class_reps(p) == _cube_class_reps_by_sets(p), p


def test_cube_class_reps_at_large_primes():
    # 1000000009 = 1 (mod 3): three classes, told apart by c^((p-1)/3)
    p = 1000000009
    reps = cube_class_reps(p)
    chars = [pow(c, (p - 1) // 3, p) for c in reps]
    assert reps[0] == 1 and len(set(chars)) == 3
    assert all(pow(c, (p - 1) // 3, p) == 1 for c in range(2, reps[1]))
    assert cube_class_reps(1000000007) == (1,)


def test_least_nonresidue():
    assert least_nonresidue(5) == 2
    assert least_nonresidue(7) == 3



Q2 = Place.finite(2)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, -1]), st.sampled_from([1, 2]))
def test_two_adic_square_class_of_squarefree_d_is_d_mod_4(half, sign, two):
    # the closed form the Prym assembly uses at the place 2: for squarefree
    # d, d or -3d is a 2-adic square exactly when d = 1 (mod 4)
    odd = 2 * half + 1
    assume(max(factorize(odd).values(), default=1) == 1)
    d = sign * two * odd
    assert (d % 4 == 1) == (is_square(d, Q2) or is_square(-3 * d, Q2))
