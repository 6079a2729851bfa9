import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selmer3.cubicforms import (
    BinaryCubicForm,
    CubicRing,
    TwoByTwoMatrix,
    act,
    canonical_form_bounded,
    conductor_subring,
    discriminant,
    factorization_type,
    form_to_ring,
    index_p_subrings,
    orbit_split,
    projective_roots_mod_p,
    ring_to_form,
    rings_isomorphic,
)
from selmer3.errors import DomainError


def disc_oracle(f: BinaryCubicForm) -> Fraction:
    """Independent discriminant: -Res(g, g')/a for g = f(x, 1) when a != 0,
    via a Sylvester determinant; fall back to the swapped form at a = 0."""
    a, b, c, d = f.coefficients()
    if a == 0:
        if d == 0:
            # f = y*x*(bx + cy): disc of x*y*(bx+cy) = b^2 c^2
            return b * b * c * c
        return disc_oracle(f.swap())
    g = [a, b, c, d]          # x^3 .. const
    dg = [3 * a, 2 * b, c]    # derivative
    n, m = 3, 2
    size = n + m
    rows = []
    for i in range(m):
        rows.append([Fraction(0)] * i + g + [Fraction(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + dg + [Fraction(0)] * (size - m - 1 - i))

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        acc = Fraction(0)
        for j, top in enumerate(mat[0]):
            if top == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in mat[1:]]
            acc += (-1) ** j * top * det(minor)
        return acc

    return -det(rows) / a


def random_form(rng, bound=20, require_nonzero_disc=True):
    while True:
        f = BinaryCubicForm(*(rng.randint(-bound, bound) for _ in range(4)))
        if not require_nonzero_disc or f.discriminant() != 0:
            return f


def test_discriminant_examples():
    assert BinaryCubicForm(0, 1, 1, 0).discriminant() == 1
    assert BinaryCubicForm(1, 0, 0, 1).discriminant() == -27
    t = Fraction(17, 3)
    assert BinaryCubicForm(-t / 4, 0, 1, 0).discriminant() == t


def test_discriminant_matches_resultant_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_form(rng, require_nonzero_disc=False)
        assert f.discriminant() == disc_oracle(f)


def test_act_identity_and_rotation():
    f = BinaryCubicForm(0, 1, 1, 0)
    assert act(TwoByTwoMatrix.identity(), f) == f
    rot = TwoByTwoMatrix(0, -1, 1, 0)
    g = act(rot, f)
    assert g == BinaryCubicForm(0, 1, -1, 0)
    assert g.discriminant() == 1


def test_act_rejects_singular():
    with pytest.raises(DomainError):
        act(TwoByTwoMatrix(1, 2, 2, 4), BinaryCubicForm(1, 0, 0, 1))


def test_act_discriminant_covariance():
    rng = random.Random(31)
    for _ in range(150):
        f = random_form(rng, require_nonzero_disc=False)
        gamma = TwoByTwoMatrix(*(rng.randint(-5, 5) for _ in range(4)))
        if gamma.det() == 0:
            continue
        assert act(gamma, f).discriminant() == gamma.det() ** 2 * f.discriminant()


def test_act_is_a_left_action():
    rng = random.Random(47)
    for _ in range(60):
        f = random_form(rng)
        g1 = TwoByTwoMatrix(*(rng.randint(-4, 4) for _ in range(4)))
        g2 = TwoByTwoMatrix(*(rng.randint(-4, 4) for _ in range(4)))
        if g1.det() == 0 or g2.det() == 0:
            continue
        assert act(g1.mul(g2), f) == act(g1, act(g2, f))


def test_form_to_ring_discriminant_preserved():
    rng = random.Random(9)
    for _ in range(200):
        f = random_form(rng, require_nonzero_disc=False)
        assert form_to_ring(f).discriminant() == f.discriminant()


def test_round_trip_is_identity():
    rng = random.Random(10)
    for _ in range(200):
        f = random_form(rng)
        assert ring_to_form(form_to_ring(f)) == f


def test_form_to_ring_rejects_non_integral():
    f = BinaryCubicForm(Fraction(1, 2), 0, 0, 1)
    with pytest.raises(DomainError):
        form_to_ring(f)
    # but it is 5-integral
    form_to_ring(f, p=5)
    with pytest.raises(DomainError):
        form_to_ring(f, p=2)


def test_split_ring_corresponds_to_split_form():
    # Z x Z x Z on idempotent basis: w = (1,0,0), t = (0,0,1)
    zzz = CubicRing(
        ww=(Fraction(0), Fraction(1), Fraction(0)),
        wt=(Fraction(0), Fraction(0), Fraction(0)),
        tt=(Fraction(0), Fraction(0), Fraction(1)),
    )
    assert zzz.discriminant() == 1
    f = ring_to_form(zzz)
    split = BinaryCubicForm(0, 1, 1, 0)  # xy(x + y)
    assert canonical_form_bounded(f) == canonical_form_bounded(split)
    assert rings_isomorphic(zzz, form_to_ring(split))


def test_monogenic_ring_x3_minus_t():
    # Z[x]/(x^3 - t) should have discriminant -27 t^2
    for t in (2, 5, -7):
        f = BinaryCubicForm(1, 0, 0, -t)
        assert f.discriminant() == -27 * t * t
        ring = form_to_ring(f)
        assert ring.discriminant() == -27 * t * t
        # w = -x, t = -x^2 satisfy the table; check w^3 = -t via w^2 * w
        w = CubicRing.basis(1)
        w3 = ring.mul(ring.mul(w, w), w)
        assert w3 == (Fraction(-t), Fraction(0), Fraction(0))


def test_ring_to_form_normalizes_translated_bases():
    rng = random.Random(12)
    from selmer3.cubicforms import translate_basis

    for _ in range(100):
        f = random_form(rng)
        ring = form_to_ring(f)
        shifted = translate_basis(ring, rng.randint(-5, 5), rng.randint(-5, 5))
        assert ring_to_form(shifted) == f


def test_factorization_type_examples():
    f = BinaryCubicForm(0, 1, 1, 0)
    for p in (5, 7, 11):
        assert factorization_type(f, p) == "(111)"
    # x^3 + x + 1 is irreducible mod 5
    assert factorization_type(BinaryCubicForm(1, 0, 1, 1), 5) == "(3)"
    assert factorization_type(BinaryCubicForm(1, 0, 0, 5), 5) == "(1^3)"
    assert factorization_type(BinaryCubicForm(1, 0, 0, 0), 5) == "(1^3)"
    # x^2(x+1) mod 5
    assert factorization_type(BinaryCubicForm(1, 1, 0, 0), 5) == "(1^2 1)"
    assert factorization_type(BinaryCubicForm(5, 5, 5, 5), 5) == "degenerate"


def test_factorization_type_against_root_counts():
    rng = random.Random(77)
    for _ in range(300):
        p = rng.choice([5, 7, 11])
        f = random_form(rng, require_nonzero_disc=False)
        if all(v % p == 0 for v in f.reduce_mod(p)):
            continue
        tag = factorization_type(f, p)
        nroots = len(projective_roots_mod_p(f, p))
        expected = {"(111)": 3, "(12)": 1, "(3)": 0, "(1^2 1)": 2, "(1^3)": 1}[tag]
        assert nroots == expected


def test_index_p_subrings_counts_and_discriminants():
    rng = random.Random(123)
    for _ in range(100):
        p = rng.choice([5, 7, 11])
        f = random_form(rng)
        ring = form_to_ring(f)
        subs = index_p_subrings(ring, p)
        assert len(subs) == len(projective_roots_mod_p(f, p))
        for sub in subs:
            assert sub.discriminant() == p * p * ring.discriminant()


def test_index_p_subrings_fixed_cases():
    split = form_to_ring(BinaryCubicForm(0, 1, 1, 0))
    assert len(index_p_subrings(split, 5)) == 3
    inert = form_to_ring(BinaryCubicForm(1, 0, 1, 1))  # irreducible mod 5
    assert len(index_p_subrings(inert, 5)) == 0
    eisenstein = form_to_ring(BinaryCubicForm(1, 0, 0, 5))  # x^3 mod 5
    assert len(index_p_subrings(eisenstein, 5)) == 1


def test_conductor_subring_discriminant_scaling():
    f = BinaryCubicForm(1, 2, -1, 3)
    ring = form_to_ring(f)
    assert conductor_subring(ring, 5, 0) == ring
    for k in (1, 2, 3):
        sub = conductor_subring(ring, 5, k)
        assert sub.discriminant() == Fraction(5) ** (4 * k) * ring.discriminant()


def test_orbit_split_over_q():
    reducible = BinaryCubicForm(0, 1, 1, 0)
    assert orbit_split(reducible) == (reducible,)
    irreducible = BinaryCubicForm(1, 0, 0, -2)  # x^3 - 2y^3
    frep = orbit_split(irreducible)
    assert frep == (irreducible, irreducible.swap())
    assert orbit_split(irreducible.swap())[0].swap().swap() == irreducible.swap()


def test_orbit_split_over_qp():
    # x^3 - 2 y^3: 2 is not a cube in Q_5 (cubing is bijective mod 5 so it is)
    # use x^3 - 7 y^3 at p = 7: Eisenstein, irreducible over Q_7
    f = BinaryCubicForm(1, 0, 0, -7)
    assert len(orbit_split(f, p=7)) == 2
    # but x^3 - 8 y^3 is reducible everywhere
    g = BinaryCubicForm(1, 0, 0, -8)
    assert len(orbit_split(g, p=7)) == 1
    with pytest.raises(DomainError):
        orbit_split(BinaryCubicForm(0, 0, 1, 0), p=5)


def test_unimodular_action_gives_isomorphic_rings():
    rng = random.Random(321)
    mats = [
        TwoByTwoMatrix(1, 1, 0, 1),
        TwoByTwoMatrix(1, 0, 1, 1),
        TwoByTwoMatrix(0, -1, 1, 0),
        TwoByTwoMatrix(1, 0, 0, -1),
    ]
    for _ in range(40):
        f = random_form(rng, bound=5)
        gamma = rng.choice(mats)
        assert rings_isomorphic(form_to_ring(f), form_to_ring(act(gamma, f)))


def test_serialization_round_trips():
    f = BinaryCubicForm(Fraction(-17, 4), 0, 1, 0)
    assert BinaryCubicForm.from_json_obj(f.to_json_obj()) == f
    ring = form_to_ring(BinaryCubicForm(1, 2, 3, 4))
    again = CubicRing.from_structure_constants(ring.structure_constants())
    assert again == ring


# ----------------------------------------------------------------------
# Independent cross-checks against sympy
# ----------------------------------------------------------------------

_rationals = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


def _to_fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals)
def test_discriminant_equals_sympy(a, b, c, d):
    import sympy

    assume(a != 0)
    x = sympy.Symbol("x")
    cubic = sum(sympy.Rational(t.numerator, t.denominator) * x**k
                for t, k in ((Fraction(a), 3), (Fraction(b), 2), (Fraction(c), 1), (Fraction(d), 0)))
    expected = _to_fraction(sympy.discriminant(cubic, x))
    assert discriminant(a, b, c, d) == expected
    assert discriminant(*map(Fraction, (a, b, c, d))) == expected
    assert BinaryCubicForm(a, b, c, d).discriminant() == expected


# sorted (degree, multiplicity) pairs of the factors over F_p, with
# (1 : 0) counted as a linear factor
_TYPE_OF_FACTOR_PATTERN = {
    ((1, 1), (1, 1), (1, 1)): "(111)",
    ((1, 1), (2, 1)): "(12)",
    ((3, 1),): "(3)",
    ((1, 1), (1, 2)): "(1^2 1)",
    ((1, 3),): "(1^3)",
}


# sympy sorts same-degree factors over GF(p) by a deprecated comparison
@pytest.mark.filterwarnings("ignore::sympy.utilities.exceptions.SymPyDeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.tuples(*[st.integers(-40, 40)] * 4),
)
def test_factorization_type_matches_sympy_factor_list(p, coeffs):
    import sympy

    f = BinaryCubicForm(*coeffs)
    fa, fb, fc, fd = f.reduce_mod(p)
    if not (fa or fb or fc or fd):
        assert factorization_type(f, p) == "degenerate"
        return
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(fa * x**3 + fb * x**2 + fc * x + fd, x, modulus=p)
    pattern = [(sympy.degree(g, x), m) for g, m in factors]
    at_infinity = 3 - sum(deg * m for deg, m in pattern)
    if at_infinity:
        pattern.append((1, at_infinity))
    assert factorization_type(f, p) == _TYPE_OF_FACTOR_PATTERN[tuple(sorted(pattern))]


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[_rationals] * 4), st.tuples(*[_rationals] * 4))
def test_act_equals_sympy_expansion(coeffs, entries):
    import sympy

    gamma = TwoByTwoMatrix(*entries)
    assume(gamma.det() != 0)
    f = BinaryCubicForm(*coeffs)
    x, y = sympy.symbols("x y")
    a, b, c, d, fa, fb, fc, fd = (
        sympy.Rational(t.numerator, t.denominator)
        for t in (gamma.a, gamma.b, gamma.c, gamma.d, *f.coefficients())
    )
    X, Y = a * x + c * y, b * x + d * y
    moved = sympy.Poly(
        sympy.expand((fa * X**3 + fb * X**2 * Y + fc * X * Y**2 + fd * Y**3) / (a * d - b * c)),
        x, y,
    )
    expected = tuple(
        _to_fraction(moved.coeff_monomial(m)) for m in (x**3, x**2 * y, x * y**2, y**3)
    )
    assert act(gamma, f).coefficients() == expected
