import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selmer3.cubicforms import (
    BinaryCubicForm,
    CubicRing,
    TwoByTwoMatrix,
    act,
    conductor_subring,
    discriminant,
    factorization_type,
    form_to_ring,
    index_p_subrings,
    orbit_split,
    projective_roots_mod_p,
    ring_to_form,
    rings_isomorphic,
    translate_basis,
)
from selmer3.errors import DomainError
from selmer3.localfield import Place


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
    assert act(TwoByTwoMatrix(1, 0, 0, 1), f) == f
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
    assert rings_isomorphic(zzz, form_to_ring(split))


def test_monogenic_ring_x3_minus_t():
    # Z[x]/(x^3 - t) should have discriminant -27 t^2
    for t in (2, 5, -7):
        f = BinaryCubicForm(1, 0, 0, -t)
        assert f.discriminant() == -27 * t * t
        ring = form_to_ring(f)
        assert ring.discriminant() == -27 * t * t
        # w = -x, t = -x^2 satisfy the table; check w^3 = -t via w^2 * w
        w = (0, 1, 0)
        w3 = ring.mul(ring.mul(w, w), w)
        assert w3 == (Fraction(-t), Fraction(0), Fraction(0))


def test_ring_to_form_normalizes_translated_bases():
    rng = random.Random(12)
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


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("p", [6, 1, 0, 25])
def test_conductor_subring_proves_p_at_every_k(p, k):
    # p is proven before k = 0 returns the ring unchanged
    ring = form_to_ring(BinaryCubicForm(1, 2, -1, 3))
    with pytest.raises(DomainError):
        conductor_subring(ring, p, k)
    assert conductor_subring(ring, Place.finite(5), k) == conductor_subring(ring, 5, k)


def test_orbit_split_over_q():
    reducible = BinaryCubicForm(0, 1, 1, 0)
    assert orbit_split(reducible) == (reducible,)
    irreducible = BinaryCubicForm(1, 0, 0, -2)  # x^3 - 2y^3
    frep = orbit_split(irreducible)
    assert frep == (irreducible, irreducible.swap())
    assert orbit_split(irreducible.swap())[0].swap().swap() == irreducible.swap()


def _linear_times_quadratic(s, t, a, b, c):
    """The coefficients of (s x + t y)(a x^2 + b x y + c y^2)."""
    return (s * a, s * b + t * a, s * c + t * b, t * c)


_coeff = st.integers(-10**6, 10**6)
_small = st.integers(-100, 100)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(_coeff, _coeff, _coeff, _coeff),
    st.builds(_linear_times_quadratic, _small, _small, _small, _small, _small),
))
def test_orbit_split_over_q_matches_sympy_rational_roots(coeffs):
    # f splits off a linear factor over Q exactly when it has a rational
    # projective root, which sympy's factorization decides independently
    sympy = pytest.importorskip("sympy")
    f = BinaryCubicForm(*coeffs)
    assume(f.discriminant() != 0)
    x, y = sympy.symbols("x y")
    a, b, c, d = coeffs
    _, factors = sympy.Poly(a * x**3 + b * x**2 * y + c * x * y**2 + d * y**3, x, y).factor_list()
    reducible = any(g.total_degree() == 1 for g, _ in factors)
    assert orbit_split(f) == ((f,) if reducible else (f, f.swap()))


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
    assert f.to_json_obj() == ["-17/4", "0", "1", "0"]


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


def test_rational_projective_root_matches_sympy_rational_roots():
    # seeded forms with coefficients up to 10^6: random ones (almost all
    # irreducible), products of a linear and a quadratic form, and both
    # scaled by 1/k; a root at (1 : 0) is a = 0
    import sympy

    from selmer3.cubicforms import _has_rational_projective_root

    rng = random.Random(20261019)
    x = sympy.Symbol("x")
    forms = []
    for i in range(120):
        if i % 2:
            m, n = rng.randint(1, 999), rng.randint(-999, 999)
            u, v, w = (rng.randint(-500, 500) for _ in range(3))
            coeffs = (m * u, m * v - n * u, m * w - n * v, -n * w)
        else:
            coeffs = tuple(rng.randint(-10**6, 10**6) for _ in range(4))
        k = rng.choice((1, 1, 2, 6, 35))
        forms.append(tuple(Fraction(t, k) for t in coeffs))
    forms += [(0, 3, 5, 7), (2, 0, 0, -3), (4, 0, 0, -32), (9, 1, 1, 0)]
    reducible = 0
    for a, b, c, d in forms:
        poly = sympy.Poly(
            [sympy.Rational(t.numerator, t.denominator) for t in map(Fraction, (a, b, c, d))], x
        )
        expected = a == 0 or any(g.degree() == 1 for g, _ in poly.factor_list()[1])
        assert _has_rational_projective_root(BinaryCubicForm(a, b, c, d)) == expected, (a, b, c, d)
        reducible += expected
    assert 60 < reducible < len(forms)


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


# ----------------------------------------------------------------------
# The closed-form ring table against the basis-triple loops it replaced
# ----------------------------------------------------------------------

_ROWS = ("ww", "wt", "tt")


def _loop_mul(ring: CubicRing, x, y):
    """Product by the generic loop: the unit part, then each basis product
    weighted by its coefficient."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    out = [x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x2 * y0]
    for coeff, prod in ((x1 * y1, ring.ww), (x1 * y2 + x2 * y1, ring.wt), (x2 * y2, ring.tt)):
        for i in range(3):
            out[i] += coeff * prod[i]
    return tuple(out)


def _associative_by_six_triples(ring: CubicRing) -> bool:
    """Associativity on the six basis triples the table was once checked on."""
    def e(i: int) -> tuple[int, int, int]:
        return tuple(int(j == i) for j in range(3))

    for x, y, z in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 2)):
        left = _loop_mul(ring, e(x), _loop_mul(ring, e(y), e(z)))
        right = _loop_mul(ring, _loop_mul(ring, e(x), e(y)), e(z))
        if left != right:
            return False
    return True


def _validates(ring: CubicRing) -> bool:
    try:
        ring.validate()
    except DomainError:
        return False
    return True


def _perturbed(ring: CubicRing, row: str, i: int, delta) -> CubicRing:
    entries = list(getattr(ring, row))
    entries[i] += delta
    return replace(ring, **{row: tuple(entries)})


_small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _ring_tables(draw):
    """Tables of form_to_ring rings, integral or 5-integral with unit
    denominators, sometimes on a translated basis, sometimes with one
    entry moved (which mostly breaks associativity).  Zero coefficients
    are common: with a = 0 or d = 0 one entry can be moved so that only
    one of the two identities fails."""
    den = draw(st.sampled_from((1, 2, 3, 4, 6)))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-20, 20)), min_size=4, max_size=4))
    ring = form_to_ring(BinaryCubicForm(*(Fraction(c, den) for c in coeffs)), p=5)
    if draw(st.booleans()):
        ring = translate_basis(ring, draw(_small_fractions), draw(_small_fractions))
    if draw(st.booleans()):
        delta = draw(_small_fractions.filter(bool))
        ring = _perturbed(ring, draw(st.sampled_from(_ROWS)), draw(st.integers(0, 2)), delta)
    return ring


@settings(max_examples=300, deadline=None)
@given(_ring_tables())
def test_validate_equals_six_triple_loop(ring):
    assert _validates(ring) == _associative_by_six_triples(ring)


def test_validate_verdicts_on_seeded_tables():
    # both verdicts occur, and agree with the loop
    rng = random.Random(31)
    verdicts = []
    for _ in range(200):
        f = random_form(rng, require_nonzero_disc=False)
        ring = translate_basis(form_to_ring(f), Fraction(rng.randint(-6, 6), 5), rng.randint(-3, 3))
        if rng.random() < 0.5:
            delta = Fraction(rng.randint(1, 5), 7)
            ring = _perturbed(ring, rng.choice(_ROWS), rng.randrange(3), delta)
        verdict = _validates(ring)
        assert verdict == _associative_by_six_triples(ring)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 150


@settings(max_examples=200, deadline=None)
@given(_ring_tables(), st.tuples(*[_small_fractions] * 3), st.tuples(*[_small_fractions] * 3))
def test_mul_equals_loop(ring, x, y):
    assert ring.mul(x, y) == _loop_mul(ring, x, y)


def test_from_structure_constants_rejects_non_associative_table():
    ring = form_to_ring(BinaryCubicForm(1, 2, -3, 5))
    assert ring.validate() == ring
    # w^2 gains 1 in its constant term: still commutative and unital
    ww = (ring.ww[0] + 1, *ring.ww[1:])
    with pytest.raises(DomainError, match="not associative"):
        CubicRing(ww, ring.wt, ring.tt).validate()


# ----------------------------------------------------------------------
# Ints where integral, Fractions elsewhere: parity with a Fraction reference
# ----------------------------------------------------------------------
#
# The references below recompute each construction on tuples of Fractions,
# as the module did before integral entries became ints.  The values must
# agree, every entry must be an int exactly when it is integral, and no
# value handed to the normalizing helper may be a float (a float that
# happens to be integral would otherwise be normalized away unseen).


def _ref_table(coeffs):
    a, b, c, d = (Fraction(x) for x in coeffs)
    return ((-a * c, b, -a), (-a * d, Fraction(0), Fraction(0)), (-b * d, d, -c))


def _ref_mul(table, x, y):
    ww, wt, tt = table
    x0, x1, x2 = x
    y0, y1, y2 = y
    out = [x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x2 * y0]
    for coeff, row in ((x1 * y1, ww), (x1 * y2 + x2 * y1, wt), (x2 * y2, tt)):
        for i in range(3):
            out[i] += coeff * row[i]
    return tuple(out)


def _ref_translate(table, s, t):
    s, t = Fraction(s), Fraction(t)
    w, th = (s, Fraction(1), Fraction(0)), (t, Fraction(0), Fraction(1))
    return tuple(
        (z[0] - z[1] * s - z[2] * t, z[1], z[2])
        for z in (_ref_mul(table, w, w), _ref_mul(table, w, th), _ref_mul(table, th, th))
    )


def _ref_ring_to_form(table):
    alpha, beta = table[1][1], table[1][2]
    if alpha or beta:
        table = _ref_translate(table, -beta, -alpha)
    ww, _, tt = table
    return (-ww[2], ww[1], -tt[2], tt[1])


def _ref_act(gamma, coeffs):
    """f(m00 x + m10 y, m01 x + m11 y) / det by multiplying out the linear
    forms, each a list of its x and y coefficients."""
    m00, m01, m10, m11 = (Fraction(x) for x in gamma)

    def times(u, v):
        out = [Fraction(0)] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] += ui * vj
        return out

    first, second = [m00, m10], [m01, m11]
    total = [Fraction(0)] * 4
    for k, coeff in enumerate(coeffs):  # x^(3-k) y^k  ->  first^(3-k) second^k
        term = [Fraction(coeff)]
        for factor in [first] * (3 - k) + [second] * k:
            term = times(term, factor)
        total = [x + y for x, y in zip(total, term)]
    det = m00 * m11 - m01 * m10
    return tuple(x / det for x in total)


def _ref_roots_mod_p(coeffs, p):
    red = [Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in coeffs]
    roots = [(x, 1) for x in range(p) if sum(c * x ** (3 - k) for k, c in enumerate(red)) % p == 0]
    if red[0] == 0:
        roots.append((1, 0))
    return roots


def _ref_index_p_subrings(coeffs, p):
    from selmer3.cubicforms import _unimodular_completion

    out = []
    for x0, y0 in _ref_roots_mod_p(coeffs, p):
        g = _unimodular_completion(x0, y0)
        sub = _ref_act((1, 0, 0, p), _ref_act((g.a, g.b, g.c, g.d), coeffs))
        out.append(_ref_table(sub))
    return out


def _ref_order(table, basis):
    a, b, e = basis
    v1, v2 = (Fraction(0), Fraction(a), Fraction(b)), (Fraction(0), Fraction(0), Fraction(e))

    def in_new_basis(z):
        y1 = z[1] / a
        return (z[0], y1, (z[2] - y1 * b) / e)

    return tuple(in_new_basis(_ref_mul(table, u, v)) for u, v in ((v1, v1), (v1, v2), (v2, v2)))


def _assert_exact(values):
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x


def _rows(ring):
    return (ring.ww, ring.wt, ring.tt)


_p_unit_fractions = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _parity_cases(draw):
    """(p, form coefficients, basis shift or None, matrix): integral forms,
    p-integral Fraction forms with a common denominator prime to p, rings
    on a basis translated by p-integral amounts, and a matrix of ints or
    small Fractions with nonzero determinant."""
    p = draw(st.sampled_from((5, 7)))
    den = draw(st.sampled_from((1, 1, 2, 3, 6)))
    coeffs = tuple(Fraction(draw(st.integers(-30, 30)), den) for _ in range(4))
    shift = draw(st.none() | st.tuples(_p_unit_fractions, _p_unit_fractions))
    entries = st.integers(-4, 4) | _p_unit_fractions
    gamma = draw(st.tuples(entries, entries, entries, entries).filter(lambda m: m[0] * m[3] != m[1] * m[2]))
    return p, coeffs, shift, gamma


@settings(max_examples=150, deadline=None)
@given(_parity_cases())
def test_int_or_fraction_entries_equal_a_fraction_reference(case):
    from unittest import mock

    import selmer3.cubicforms as cubicforms
    from selmer3.oracle import order_from_lattice, orders_of_index

    p, coeffs, shift, gamma = case
    handed = []
    original = cubicforms._exact
    with mock.patch.object(cubicforms, "_exact", lambda x: handed.append(x) or original(x)):
        f = BinaryCubicForm(*coeffs)
        moved = act(TwoByTwoMatrix(*gamma), f)
        ring = form_to_ring(f, p=p)
        table = _ref_table(coeffs)
        if shift is not None:
            ring = translate_basis(ring, *shift)
            table = _ref_translate(table, *shift)
        back = ring_to_form(ring)
        orders = {j: orders_of_index(ring, p, j) for j in (1, 2)}
        built = [order_from_lattice(ring, basis) for j in (1, 2) for basis in orders[j]]
        subs = index_p_subrings(ring, p)
        conductors = [conductor_subring(ring, p, k) for k in (0, 1, 2)]
    assert all(type(x) in (int, Fraction) for x in handed)

    assert moved.coefficients() == _ref_act(gamma, coeffs)
    assert _rows(ring) == table
    assert back.coefficients() == _ref_ring_to_form(table) == coeffs
    assert [_rows(r) for r in built] == [_ref_order(table, s) for j in (1, 2) for s in orders[j]]
    assert [_rows(r) for r in subs] == _ref_index_p_subrings(coeffs, p)
    assert [_rows(r) for r in conductors] == [table] + [
        _ref_table([p**k * x for x in coeffs]) for k in (1, 2)
    ]
    _assert_exact(moved.coefficients() + back.coefficients())
    for r in [ring, *built, *subs, *conductors]:
        _assert_exact(x for row in _rows(r) for x in row)


def test_integral_forms_stay_in_ints_through_the_subring_check(monkeypatch):
    # the ring of an integral form and every subring the bijection check
    # builds from it are computed in ints: no Fraction and no float is
    # ever handed to the normalizing helper
    import selmer3.cubicforms as cubicforms
    import selmer3.oracle as oracle

    handed, rings = [], []
    original_exact, original_order = cubicforms._exact, oracle.order_from_lattice
    monkeypatch.setattr(cubicforms, "_exact", lambda x: handed.append(x) or original_exact(x))
    monkeypatch.setattr(oracle, "order_from_lattice", lambda *a: rings.append(original_order(*a)) or rings[-1])
    rng = random.Random(1701)
    for _ in range(60):
        f = random_form(rng, bound=30)
        ring = form_to_ring(f)
        rings.append(ring)
        for p in (5, 7, 11):
            assert oracle.verify_subring_bijection(ring, p)
    assert len(rings) > 100
    assert all(type(x) is int for r in rings for row in _rows(r) for x in row)
    assert handed and all(type(x) is int for x in handed)
