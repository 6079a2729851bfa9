from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selmer3.cubicforms import _root_multiplicities
from selmer3.errors import DomainError
from selmer3.padicroots import (
    ZpModel,
    _depth_cap,
    _resultant,
    form_has_projective_root_qp,
    has_ring_root,
)

from references import has_zp_root


def test_simple_roots():
    assert has_zp_root([-1, 0, 1], 5)  # x^2 - 1
    assert not has_zp_root([-2, 0, 1], 5)  # 2 is not a square mod 5
    assert has_zp_root([-2, 0, 0, 1], 5)  # 2 = 3^3 (mod 5) Hensel-lifts
    assert not has_zp_root([-5, 0, 0, 1], 5)  # Eisenstein, root has valuation 1/3


def test_root_needs_lifting_beyond_first_digit():
    # (x - 1)(x - 51) = x^2 - 52x + 51: both roots = 1 (mod 5), one lift
    # requires separating the cluster at depth 2
    assert has_zp_root([51, -52, 1], 5)
    # x^2 - 2x - 49 has roots 1 +- 5*sqrt(2), not in Q_5
    assert not has_zp_root([-49, -2, 1], 5)
    # x^2 - 2x + 1 - 25*4 = (x-1)^2 - 100: roots 1 +- 10 in Z_5
    assert has_zp_root([-99, -2, 1], 5)


def test_rational_scaling_is_harmless():
    assert has_zp_root([Fraction(-1, 7), 0, Fraction(1, 7)], 5)
    assert has_zp_root([-5, 0, 5], 7) == has_zp_root([-1, 0, 1], 7)


def test_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        has_zp_root([0, 0], 5)
    with pytest.raises(DomainError):
        has_ring_root(ZpModel(5), [Fraction(0)])


def test_projective_roots_of_forms():
    # x^3 - 2 y^3 over Q_5: affine root since 2 is a cube mod 5
    assert form_has_projective_root_qp(1, 0, 0, -2, 5)
    # 5x^3 + y^3: no root at finite or infinite points of P^1(Q_5)
    assert not form_has_projective_root_qp(5, 0, 0, 1, 5)
    # degenerate leading coefficients give the obvious boundary roots
    assert form_has_projective_root_qp(0, 1, 1, 7, 5)
    assert form_has_projective_root_qp(3, 1, 1, 0, 5)


def test_brute_force_cross_check():
    # compare against a mod-p^4 search with Hensel-free certification: any
    # simple root mod p^4 whose derivative is a unit certifies a Z_p-root
    p = 7
    for coeffs in (
        [3, 1, 0, 1],
        [1, 2, 3, 4],
        [-2, 0, 1, 1],
        [6, 0, 1],
        [4, 5, 1],
    ):
        got = has_zp_root(coeffs, p)
        witness = False
        for x in range(p**2):
            val = sum(c * x**i for i, c in enumerate(coeffs))
            der = sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i)
            if val % p == 0 and der % p != 0:
                witness = True
        if witness:
            assert got  # a certified root must be found


# ----------------------------------------------------------------------
# The depth cap against an independent resultant
# ----------------------------------------------------------------------


def _v(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@st.composite
def _prime_and_poly(draw, primes, max_power=3):
    """A prime and integer coefficients (constant term first) of degree 1 to
    3, each a small integer times a power of the prime, leading term nonzero."""
    p = draw(st.sampled_from(primes))
    deg = draw(st.integers(1, 3))
    term = st.builds(lambda n, k: n * p**k, st.integers(-12, 12), st.integers(0, max_power))
    coeffs = draw(st.lists(term, min_size=deg + 1, max_size=deg + 1))
    assume(coeffs[-1] != 0)
    return p, coeffs


@settings(max_examples=300, deadline=None)
@given(_prime_and_poly((2, 3, 5, 7)))
def test_depth_cap_equals_twice_the_resultant_valuation(case):
    import sympy

    from selmer3.oracle import CubicExtModel

    p, coeffs = case
    x = sympy.Symbol("x")
    g = sympy.Poly(list(reversed(coeffs)), x)
    res = int(sympy.resultant(g, g.diff(x)))
    assert abs(_resultant(coeffs)) == abs(res)
    if res == 0:
        with pytest.raises(DomainError):
            _depth_cap(_resultant(coeffs), ZpModel(p))
        return
    assert _depth_cap(_resultant(coeffs), ZpModel(p)) == 2 * _v(res, p) + 6
    # in an Eisenstein model the uniformizer is a cube root of p times a unit
    assert _depth_cap(_resultant(coeffs), CubicExtModel.eisenstein(p, 1)) == 2 * 3 * _v(res, p) + 6


def test_separable_input_computes_one_discriminant(monkeypatch):
    # the resultant that tests for a repeated root also sets the depth cap;
    # an inseparable input computes a second one, for its squarefree part
    import selmer3.padicroots as padicroots

    calls = []
    original = padicroots.discriminant
    monkeypatch.setattr(padicroots, "discriminant", lambda *a: calls.append(a) or original(*a))
    assert has_ring_root(ZpModel(5), [-2, 0, 0, 1])  # x^3 - 2, separable
    assert len(calls) == 1
    calls.clear()
    # (x - 1)^2 (x + 1): the squarefree part x^2 - 1 is a quadratic
    assert has_ring_root(ZpModel(5), [1, -1, -1, 1])
    assert len(calls) == 2


# ----------------------------------------------------------------------
# Root isolation: properties
# ----------------------------------------------------------------------

_ODD_PRIMES = (3, 5, 7, 11, 13)


def _value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


@st.composite
def _prime_and_poly_without_zero_mod_p(draw):
    """A prime and a polynomial whose constant term avoids every value
    -h(x) mod p of the rest h of the polynomial."""
    p, coeffs = draw(_prime_and_poly(_ODD_PRIMES, max_power=1))
    h = [0] + coeffs[1:]
    allowed = [r for r in range(p) if all((_value(h, x) + r) % p for x in range(p))]
    assume(allowed)
    constant = draw(st.sampled_from(allowed)) + p * draw(st.integers(-3, 3))
    return p, [constant] + coeffs[1:]


@settings(max_examples=300, deadline=None)
@given(_prime_and_poly_without_zero_mod_p())
def test_no_zero_mod_p_means_no_root(case):
    p, coeffs = case
    assert all(_value(coeffs, x) % p for x in range(p))
    assert not has_zp_root(coeffs, p)


@settings(max_examples=300, deadline=None)
@given(_prime_and_poly(_ODD_PRIMES, max_power=1))
def test_simple_zero_mod_p_lifts(case):
    p, coeffs = case
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    assume(any(_value(coeffs, x) % p == 0 and _value(deriv, x) % p for x in range(p)))
    assert has_zp_root(coeffs, p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13)), st.lists(st.integers(-40, 40), min_size=1, max_size=4))
@example(5, [0])  # an all-zero reduction: every residue
@example(3, [3, -6, 0, 9])
@example(7, [2, 0, 0, 0])  # zero leading coefficients: a nonzero constant
@example(11, [0, 0, 1, 0])  # x^2: a double zero, and (1 : 0) a simple one
def test_one_zero_scan_for_root_isolation_and_root_multiplicities(p, coeffs):
    # root isolation's zeros of a reduction are those of brute-force
    # evaluation, and the form scan's multiplicities those of sympy's
    # factorization over GF(p); both come from cubicforms' one scan of F_p
    sympy = pytest.importorskip("sympy")
    zeros, _ = ZpModel(p).residue_walk(coeffs)
    assert list(zeros) == [x for x in range(p) if _value(coeffs, x) % p == 0]
    fd, fc, fb, fa = [c % p for c in coeffs] + [0] * (4 - len(coeffs))
    if not (fa or fb or fc or fd):
        return
    x = sympy.Symbol("x")
    poly = sympy.Poly(fa * x**3 + fb * x**2 + fc * x + fd, x, modulus=p)
    want = {(int(-factor.TC()) % p, 1): m for factor, m in poly.factor_list()[1] if factor.degree() == 1}
    if fa == 0:
        want[(1, 0)] = 3 - poly.degree()  # (1 : 0) to 3 minus the degree of f(x, 1)
    assert _root_multiplicities(fa, fb, fc, fd, p) == want


# ----------------------------------------------------------------------
# Repeated roots: the squarefree part
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs, p, expected",
    [
        ([0, 0, 1, 1], 3, True),  # x^3 + x^2 = x^2 (x + 1)
        ([0, 0, 1, 1], 5, True),
        ([-2, 5, -4, 1], 5, True),  # (x - 1)^2 (x - 2)
        ([-2, 5, -4, 1], 2, True),
        ([-1, 3, -3, 1], 7, True),  # (x - 1)^3
        ([1, -2, 1], 3, True),  # (x - 1)^2
        ([1, -10, 25], 5, False),  # (5x - 1)^2: double root 1/5
        ([-3, 31, -85, 25], 5, True),  # (5x - 1)^2 (x - 3): simple root 3
        ([-2, 25, -100, 125], 5, False),  # (5x - 1)^2 (5x - 2): roots 1/5, 2/5
        ([1, -15, 75, -125], 5, False),  # (1 - 5x)^3: triple root 1/5
        ([-125, 75, -15, 1], 5, True),  # (x - 5)^3
    ],
)
def test_repeated_roots_are_answered(coeffs, p, expected):
    assert has_zp_root(coeffs, p) is expected


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=60), min_size=2, max_size=2),
    st.integers(1, 3),
    st.integers(-9, 9).filter(bool),
)
def test_repeated_roots_against_their_valuations(p, roots, shape, lead):
    """g = lead (x - r)^2 (x - s), (x - r)^3 or (x - r)^2 has a root in Z_p
    exactly when one of r, s has no p in its denominator."""
    r, s = roots
    factors = {1: [r, r, s], 2: [r, r, r], 3: [r, r]}[shape]
    coeffs = [Fraction(lead)]  # constant term first
    for root in factors:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    assert has_zp_root(coeffs, p) == any(x.denominator % p for x in factors)


def test_form_with_repeated_linear_factor():
    # (x - y)^2 (x + y) and (5x - y)^2 (x - 7y): every chart of both is
    # inseparable, and the rational zeros are projective roots over Q_p
    assert form_has_projective_root_qp(1, -1, -1, 1, 5)
    assert form_has_projective_root_qp(25, -185, 71, -7, 5)
    assert form_has_projective_root_qp(25, -185, 71, -7, 7)


@pytest.mark.parametrize("p", _ODD_PRIMES)
def test_degree_above_three_rejected(p):
    with pytest.raises(DomainError):
        has_zp_root([-1, 0, 0, 0, 1], p)
    with pytest.raises(DomainError):
        has_ring_root(ZpModel(p), [1, 1, 0, 0, p])


@pytest.mark.parametrize("n", [1, 4, 9, 15])
def test_non_prime_rejected(n):
    with pytest.raises(DomainError):
        has_zp_root([-1, 0, 1], n)
    with pytest.raises(DomainError):
        form_has_projective_root_qp(1, 0, 0, -2, n)


def test_root_isolation_sees_integers_only(monkeypatch):
    seen = []
    original = ZpModel.val

    def recording(self, x):
        seen.append(type(x))
        return original(self, x)

    monkeypatch.setattr(ZpModel, "val", recording)
    assert has_zp_root([Fraction(-1, 7), 0, Fraction(1, 7)], 5)
    assert has_zp_root([51, -52, 1], 5)
    assert not has_zp_root([-5, 0, 0, 1], 5)
    assert not form_has_projective_root_qp(Fraction(5, 3), 0, 0, Fraction(1, 3), 5)
    assert form_has_projective_root_qp(1, Fraction(1, 2), 0, -2, 7)
    assert seen
    assert set(seen) == {int}
