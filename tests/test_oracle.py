import random
import time
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selmer3.cubicforms import BinaryCubicForm, CubicRing, form_to_ring, orbit_split, projective_roots_mod_p
from selmer3.errors import DomainError, PrecisionError
from selmer3.localclass import classify_integral, h1_dims, unramified_cubic_form
from selmer3.localfield import Place, cube_class_reps, least_nonresidue
from selmer3.oracle import (
    CubicExtModel,
    _algebra_class,
    OrbitTable,
    TruncatedRing,
    algebra_class_of_form,
    count_cubic_extensions,
    enumerate_orbits,
    h1_counts_from_extensions,
    order_from_lattice,
    orders_of_index,
    sl2_orbit_count_mod_p,
    verify_subring_bijection,
)
from selmer3.padicroots import ZpModel, has_ring_root


def test_extension_model_arithmetic():
    # elements are integer coordinates over (1, w, w^2); w = (0, 1, 0)
    m = CubicExtModel.eisenstein(5, 1)
    w = (0, 1, 0)
    # the value of t^3 at w is w^3 = 5
    assert m.peval([m.embed_int(0)] * 3 + [m.embed_int(1)], w) == (5, 0, 0)
    assert m.times_uniformizer(w) == (0, 0, 1) and m.times_uniformizer((0, 0, 1)) == (5, 0, 0)
    assert m.scale((1, -2, 3), -4) == (-4, 8, -12)
    assert m.val(w) == 1 and m.val(m.embed_int(5)) == 3
    assert m.val(m.div_uniformizer(w)) == 0
    e = CubicExtModel.unramified(5)
    assert e.val(e.embed_int(5)) == 1
    assert e.val(w) == 0
    assert e.times_uniformizer((1, -2, 3)) == (5, -10, 15)
    # residues are built as iterated: p^3 of them unramified, p ramified
    assert list(e.residues()) == list(product(range(5), repeat=3))
    assert list(m.residues()) == [(n, 0, 0) for n in range(5)]
    # times_uniformizer against the sympy product with p or w
    rng = random.Random(5)
    for model in (e, m, CubicExtModel.eisenstein(7, 2)):
        pi = (model.p, 0, 0) if not model.ramified else w
        for _ in range(20):
            x = tuple(rng.randint(-10**6, 10**6) for _ in range(3))
            assert model.times_uniformizer(x) == _sympy_product(model, x, pi)


def test_algebra_class_of_form():
    assert algebra_class_of_form(BinaryCubicForm(0, 1, 1, 0), 5) == "split"
    assert algebra_class_of_form(BinaryCubicForm(1, 0, 0, -5), 5) == "ram-u1"
    assert algebra_class_of_form(unramified_cubic_form(5), 5) == "unram"
    assert algebra_class_of_form(unramified_cubic_form(7), 7) == "unram"
    # x^3 - 8 is reducible over Q_5 (2 is a cube)
    assert algebra_class_of_form(BinaryCubicForm(1, 0, 0, -8), 5) == "split"
    # x^3 - 2 over Q_7: 2 is a cube mod 7 (2 = 4^3 mod 7 is false; 4^3=64=1;
    # cubes mod 7 are {1, 6}) so x^3 - 2 has no root and stays unramified-inert
    assert algebra_class_of_form(BinaryCubicForm(1, 0, 0, -2), 7) == "unram"
    # Eisenstein with the other unit class at p = 7
    assert algebra_class_of_form(BinaryCubicForm(1, 0, 0, -7 * 2), 7) == "ram-u2"


def test_count_cubic_extensions_reference_values():
    # zeta3 in Q_7: unramified + three Eisenstein classes, all square disc
    assert count_cubic_extensions(7, 1) == 4
    assert count_cubic_extensions(7, 3) == 0  # nonsquare class
    assert count_cubic_extensions(7, 7) == 0  # odd valuation class
    # zeta3 not in Q_5: split by square class
    assert count_cubic_extensions(5, 1) == 1
    assert count_cubic_extensions(5, -3) == 1
    assert count_cubic_extensions(5, 5) == 0
    assert count_cubic_extensions(13, 1) == 4


def test_h1_counts_match_dimension_table():
    # the acceptance-1 identity 3^dim = 1 + 2 * (number of extensions)
    for p in (5, 7, 13):
        nr = least_nonresidue(p)
        for d in (1, nr, -3, -3 * nr, p, p * nr, p * p, p * p * nr):
            dim_total, dim_un = h1_dims(Place.finite(p), d)
            total, unram = h1_counts_from_extensions(p, d)
            assert total == 3**dim_total
            assert unram == 3**dim_un


def test_orders_of_index_counts():
    # unramified maximal order: no index-p order (its form has no root)
    for p in (5, 7):
        maximal = form_to_ring(unramified_cubic_form(p))
        assert orders_of_index(maximal, p, 1) == []
        assert len(orders_of_index(maximal, p, 2)) >= 1
    # Eisenstein maximal order: exactly one index-p order (single root x^3)
    eis = form_to_ring(BinaryCubicForm(1, 0, 0, -5))
    assert len(orders_of_index(eis, 5, 1)) == 1
    # two projective roots (x^2(x + y) mod 5) give two index-p orders
    double = form_to_ring(BinaryCubicForm(1, 1, 0, -25))
    assert len(projective_roots_mod_p(BinaryCubicForm(1, 1, 0, -25), 5)) == 2
    assert len(orders_of_index(double, 5, 1)) == 2


def test_verify_subring_bijection_fixed_rings():
    assert verify_subring_bijection(form_to_ring(BinaryCubicForm(0, 1, 1, 0)), 5)
    assert verify_subring_bijection(form_to_ring(BinaryCubicForm(1, 0, 1, 1)), 5)
    assert verify_subring_bijection(form_to_ring(BinaryCubicForm(1, 0, 0, 5)), 5)


def test_verify_subring_bijection_random():
    rng = random.Random(5)
    for p in (5, 7, 11):
        for _ in range(30):
            f = BinaryCubicForm(*(rng.randint(-20, 20) for _ in range(4)))
            if f.discriminant() == 0:
                continue
            assert verify_subring_bijection(form_to_ring(f), p)


def _summaries_match(table: OrbitTable, p: int, d0) -> bool:
    theory = {}
    for c in classify_integral(p, d0):
        key = "unram" if c.kind.startswith("unram") else c.kind
        n, n_int = theory.get(key, (0, 0))
        theory[key] = (n + 1, n_int + (1 if c.integral else 0))
    return table.summary() == theory


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
@pytest.mark.parametrize("disc_val", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("unit_class", ["square", "nonsquare"])
def test_enumerate_orbits_agrees_with_classification(p, disc_val, unit_class):
    table = enumerate_orbits(p, disc_val=disc_val, unit_class=unit_class)
    assert _summaries_match(table, p, table.d0)
    assert sum(r.orbit_count for r in table.rows) == table.h1_count
    dim_total, dim_un = h1_dims(Place.finite(p), table.d0)
    assert table.h1_count == 3**dim_total
    assert table.h1_unramified_count == 3**dim_un


def test_enumerate_orbits_key_strata():
    # v(d) = 2, d square: the nontrivial unramified classes are non-integral
    t = enumerate_orbits(5, disc_val=2, unit_class="square")
    unram = [r for r in t.rows if r.algebra == "unram"]
    assert len(unram) == 1 and not unram[0].integral and unram[0].orders_found == 0
    # v(d) = 1: single reducible class
    t = enumerate_orbits(5, disc_val=1, unit_class="square")
    assert [r.algebra for r in t.rows] == ["split"]
    # v(d) = 4: everything integral, with witnesses
    t = enumerate_orbits(7, disc_val=4, unit_class="square")
    assert all(r.integral for r in t.rows)
    assert all(r.witness is not None for r in t.rows)


def test_enumerate_orbits_precision_stability():
    for p, v, uc in ((5, 2, "square"), (7, 4, "square"), (5, 3, "nonsquare")):
        base = enumerate_orbits(p, disc_val=v, unit_class=uc)
        bumped = enumerate_orbits(p, k=base.k + 1, disc_val=v, unit_class=uc)
        assert [r.to_json_obj() for r in base.rows] == [r.to_json_obj() for r in bumped.rows]


def test_enumerate_orbits_determinism():
    a = enumerate_orbits(7, disc_val=2, unit_class="square").to_json_obj()
    b = enumerate_orbits(7, disc_val=2, unit_class="square").to_json_obj()
    assert a == b


def test_enumerate_orbits_rejects_small_precision():
    with pytest.raises(DomainError):
        enumerate_orbits(5, k=3, disc_val=4)
    with pytest.raises(DomainError):
        enumerate_orbits(3, disc_val=0)


def test_truncated_ring_sqrt():
    tr = TruncatedRing(5, 6)
    r = tr.unit_sqrt(Fraction(9, 4))
    assert r is not None and r * r % 5**6 == tr.reduce_unit(Fraction(9, 4))
    assert tr.unit_sqrt(2) is None  # 2 is not a square mod 5
    with pytest.raises(DomainError):
        TruncatedRing(4, 2)


def test_sl2_orbit_scan_mod_p():
    # over F_p the orbit count on fixed nonzero discriminant is 3 for a
    # square residue and 1 for a nonsquare (size of the Frobenius-fixed
    # stabilizer group)
    for p in (5, 7):
        assert sl2_orbit_count_mod_p(p, 1) == 3
        assert sl2_orbit_count_mod_p(p, least_nonresidue(p)) == 1
    for p in (4, 9, 0, -5):
        with pytest.raises(DomainError):
            sl2_orbit_count_mod_p(p, 1)


def test_orbit_table_golden_file():
    import json
    from pathlib import Path

    table = enumerate_orbits(5, disc_val=2, unit_class="square")
    golden = json.loads(
        (Path(__file__).parent / "golden" / "orbit_table_p5_v2_square.json").read_text()
    )
    assert table.to_json_obj() == golden


def test_orbit_split_consistent_with_algebra_class():
    import random as _random

    from selmer3.cubicforms import orbit_split

    rng = _random.Random(42)
    for _ in range(60):
        p = rng.choice([5, 7])
        f = BinaryCubicForm(*(rng.randint(-9, 9) for _ in range(4)))
        if f.discriminant() == 0:
            continue
        split = len(orbit_split(f, p=p)) == 1
        assert split == (algebra_class_of_form(f, p) == "split")


def test_form_space_scan_low_valuation():
    from selmer3.oracle import scan_forms_low_valuation

    scan = scan_forms_low_valuation(5)
    # v(disc) = 1 forms all reducible; Eisenstein dichotomy on triple roots
    assert scan.v1_forms == 60000 and scan.v1_all_have_simple_root
    assert scan.triple_forms == 15000 and scan.eisenstein_forms == 12000
    assert scan.dichotomy_holds


def test_norm_kernel_route_matches_dimension_table():
    from selmer3.oracle import h1_counts_from_norm_kernel

    # includes p = 2, which the extension-count route does not cover
    for p in (2, 5, 7, 13):
        place = Place.finite(p)
        units = [1, 3, 5, 7, -1, -3, -5, -7] if p == 2 else [1, least_nonresidue(p), -3]
        strata = [u * p**v for u in units for v in (0, 1, 2, 3)]
        for d in strata:
            dim_total, dim_un = h1_dims(place, d)
            assert h1_counts_from_norm_kernel(p, d) == (3**dim_total, 3**dim_un), (p, d)


def test_norm_kernel_agrees_with_extension_counts():
    from selmer3.oracle import h1_counts_from_norm_kernel

    for p in (5, 7, 13):
        nr = least_nonresidue(p)
        for d in (1, nr, -3, -3 * nr, p, p * nr, p * p, p**3 * nr):
            assert h1_counts_from_norm_kernel(p, d) == h1_counts_from_extensions(p, d)


def test_form_space_scan_low_valuation_p7():
    from selmer3.oracle import scan_forms_low_valuation

    scan = scan_forms_low_valuation(7)
    assert (scan.v1_forms, scan.triple_forms, scan.eisenstein_forms) == (691488, 115248, 98784)
    assert scan.v1_all_have_simple_root and scan.dichotomy_holds


def _scan_walking_every_lift(p):
    """The form scan as a walk over every lift mod p^2 of every residue
    form with p | disc, the v(disc) = 1 count made lift by lift and the
    Eisenstein test by evaluating f at all p^2 lifts of the triple root."""
    import selmer3.oracle as oracle
    from selmer3.cubicforms import _root_multiplicities, discriminant

    q = p * p
    v1 = v1_simple = triples = eis_count = 0
    dichotomy = True
    for a0, b0, c0, d0 in product(range(p), repeat=4):
        if not (a0 or b0 or c0 or d0) or discriminant(a0, b0, c0, d0) % p:
            continue
        mults = _root_multiplicities(a0, b0, c0, d0, p)
        simple = 1 in mults.values()
        triple = next((root for root, m in mults.items() if m == 3), None)
        if triple is not None:
            x0, y0 = triple
            lifts = [(x0 + p * s, y0 + p * t) for s in range(p) for t in range(p)]
            monomials = [(x**3, x * x * y, x * y * y, y**3) for x, y in lifts]
        for a, b, c, d in product(*(range(r, q, p) for r in (a0, b0, c0, d0))):
            disc = discriminant(a, b, c, d)
            if disc % q:
                v1 += 1
                v1_simple += simple
                continue
            if triple is None:
                continue
            triples += 1
            eis = all((a * u + b * v + c * w + d * z) % q for u, v, w, z in monomials)
            eis_count += eis
            if eis != (disc % (q * p) != 0):
                dichotomy = False
    return oracle.LowValuationScan(p, v1, v1 == v1_simple, triples, eis_count, dichotomy)


@pytest.mark.parametrize("p", [5, 7])
def test_form_scan_equals_walking_every_lift(p):
    from selmer3.oracle import scan_forms_low_valuation

    assert scan_forms_low_valuation(p) == _scan_walking_every_lift(p)


def _scan_walking_every_d(p):
    """The form scan with the v(disc) = 1 lifts counted from the gradient,
    as the library counts them, but the triple-root lifts walked d by d:
    disc evaluated at each of the p^4 lifts (a, b, c, d) and compared with
    the Eisenstein table's flag for that d."""
    import selmer3.oracle as oracle
    from selmer3.cubicforms import _root_multiplicities, discriminant

    q = p * p
    v1 = v1_simple = triples = eis_count = 0
    dichotomy = True
    for a0, b0, c0, d0 in product(range(p), repeat=4):
        disc0 = discriminant(a0, b0, c0, d0)
        if not (a0 or b0 or c0 or d0) or disc0 % p:
            continue
        mults = _root_multiplicities(a0, b0, c0, d0, p)
        if any(t % p for t in oracle._disc_gradient(a0, b0, c0, d0)):
            n = q * q - q * p
        else:
            n = q * q if disc0 // p % p else 0
        v1 += n
        if 1 in mults.values():
            v1_simple += n
        triple = next((root for root, m in mults.items() if m == 3), None)
        if triple is None:
            continue
        terms = oracle._root_lift_terms(triple, p)
        (m3, m2, m1), table = oracle._eisenstein_table(a0, b0, c0, d0, terms, p)
        for i, j, k in product(range(p), repeat=3):
            a, b, c = a0 + p * i, b0 + p * j, c0 + p * k
            for d, eis in zip(range(d0, q, p), table[(i * m3 + j * m2 + k * m1) % p]):
                disc = discriminant(a, b, c, d)
                if disc % q:
                    continue  # v(disc) = 1, counted above
                triples += 1
                eis_count += eis
                if eis != (disc % (q * p) != 0):
                    dichotomy = False
    return oracle.LowValuationScan(p, v1, v1 == v1_simple, triples, eis_count, dichotomy)


def test_form_scan_rows_equal_walking_every_d():
    # the scan reads the p values of d off one row per lift (a, b, c);
    # here disc is evaluated at each of them
    from selmer3.oracle import scan_forms_low_valuation

    assert scan_forms_low_valuation(11) == _scan_walking_every_d(11)


_WIDE = st.integers(-(10**6), 10**6)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_WIDE, _WIDE, _WIDE, _WIDE), _WIDE, _WIDE)
@example((1, 0, 0, 0), 5, 1)
@example((-(10**6), 10**6, -(10**6), 10**6), 13, -(10**6))
def test_discriminant_is_an_exact_quadratic_in_d(x, p, t):
    # the scan's row: disc(a, b, c, d0 + p t) = D0 + p t D1 + p^2 t^2 k2
    # with D0 = disc(a, b, c, d0), D1 its d-derivative and k2 = -27 a^2,
    # an identity of integers for every p and t, not only mod a power of p
    from selmer3.cubicforms import discriminant
    from selmer3.oracle import _disc_gradient

    a, b, c, d0 = x
    d1, k2 = _disc_gradient(*x)[3], -27 * a * a
    assert d1 == 2 * k2 * d0 + 18 * a * b * c - 4 * b**3
    assert discriminant(a, b, c, d0 + p * t) == discriminant(*x) + p * t * d1 + p * p * t * t * k2


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_discriminant_first_order_expansion_mod_p2(p):
    # disc(x + p h) = disc(x) + p grad(x).h mod p^2, and grad(x) = 0 mod p
    # exactly at the triple-root residue forms: the two facts the scan
    # counts its v(disc) = 1 lifts from
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from selmer3.cubicforms import _root_multiplicities, discriminant
    from selmer3.oracle import _disc_gradient

    q = p * p
    triples = 0
    for x in product(range(p), repeat=4):
        if not any(x) or discriminant(*x) % p:
            continue
        triple = 3 in _root_multiplicities(*x, p).values()
        triples += triple
        assert all(t % p == 0 for t in _disc_gradient(*x)) == triple, x

    assert triples == p * p - 1

    coeffs = st.tuples(*[st.integers(-10**6, 10**6)] * 4)

    @settings(max_examples=200, deadline=None)
    @given(coeffs, coeffs)
    def expansion(x, h):
        lifted = discriminant(*(xi + p * hi for xi, hi in zip(x, h)))
        linear = discriminant(*x) + p * sum(g * hi for g, hi in zip(_disc_gradient(*x), h))
        assert (lifted - linear) % q == 0

    expansion()


def test_form_scans_refuse_a_prime_past_the_budget(monkeypatch):
    import selmer3.oracle as oracle
    from selmer3.errors import BudgetError

    def walked(*args):
        raise AssertionError("walked before the budget check")

    with monkeypatch.context() as m:
        m.setattr(oracle, "discriminant", walked)
        m.setattr(oracle, "_root_multiplicities", walked)
        # p = 101 is about 10^8 forms: refused without a walk or an allocation
        for p, bound in ((101, oracle.MAX_SCAN_PRIME), (7, 5)):
            m.setattr(oracle, "MAX_SCAN_PRIME", bound)
            with pytest.raises(BudgetError):
                oracle.scan_forms_low_valuation(p)
            with pytest.raises(BudgetError):
                oracle.sl2_orbit_count_mod_p(p, 1)
    # a prime at the bound still runs
    monkeypatch.setattr(oracle, "MAX_SCAN_PRIME", 5)
    assert oracle.scan_forms_low_valuation(5).dichotomy_holds
    assert oracle.sl2_orbit_count_mod_p(5, 1) == 3


@pytest.mark.parametrize("p", [11, 13])
def test_form_scan_eisenstein_flag_equals_direct_evaluation(p):
    # the scan reads "no root lift zeroes f mod p^2" from one table per
    # residue form, at the row of the shift s of (a, b, c); here f is
    # evaluated at every one of the p^2 lifts instead
    import selmer3.oracle as oracle
    from selmer3.cubicforms import _root_multiplicities

    q = p * p
    rng = random.Random(1000 + p)
    seen = set()
    for i in range(6):
        # a residue form lam (al x - be y)^3 with the triple root [be : al];
        # al = 0 (the root (1, 0)) first
        lam, al, be = rng.randrange(1, p), 0 if i == 0 else rng.randrange(1, p), rng.randrange(1, p)
        residue = tuple(
            lam * t % p for t in (al**3, -3 * al * al * be, 3 * al * be * be, -(be**3))
        )
        x0, y0 = (be * pow(al, -1, p) % p, 1) if al else (1, 0)
        triple = next(root for root, m in _root_multiplicities(*residue, p).items() if m == 3)
        assert triple == (x0, y0)
        (m3, m2, m1), table = oracle._eisenstein_table(*residue, oracle._root_lift_terms(triple, p), p)
        lifts = [(x0 + p * s, y0 + p * t) for s in range(p) for t in range(p)]
        for _ in range(8):
            shift = [rng.randrange(p) for _ in range(3)]
            a, b, c = (r + p * h for r, h in zip(residue, shift))
            row = table[(shift[0] * m3 + shift[1] * m2 + shift[2] * m1) % p]
            for t, d in enumerate(range(residue[3], q, p)):
                direct = all(
                    (a * x**3 + b * x * x * y + c * x * y * y + d * y**3) % q for x, y in lifts
                )
                assert row[t] == direct, (p, a, b, c, d)
                seen.add(direct)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_root_lift_terms_share_one_reduction(p):
    # the premise of the scan's shift: at every triple root mod p, every
    # term of `_root_lift_terms` reduces to the same triple mod p
    import selmer3.oracle as oracle
    from selmer3.cubicforms import _root_multiplicities

    roots = {
        root
        for x in product(range(p), repeat=4)
        if any(x)
        for root, m in _root_multiplicities(*x, p).items()
        if m == 3
    }
    assert len(roots) == p + 1
    for root in roots:
        solved, terms = oracle._root_lift_terms(root, p)
        assert solved == (root[1] % p != 0)
        assert len({tuple(n % p for n in term) for term in terms}) == 1, root


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_ext_model_peval_equals_horner_through_mul(p):
    # the reference multiplies by sympy reduction modulo the rule, not
    # through the model
    rng = random.Random(2000 + p)
    for model in _models(p):
        for _ in range(60):
            coeffs = [tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(rng.randint(1, 4))]
            x = tuple(rng.randint(-50, 50) * p ** rng.randint(0, 2) for _ in range(3))
            acc = (0, 0, 0)
            for c in reversed(coeffs):
                acc = tuple(s + t for s, t in zip(_sympy_product(model, acc, x), c))
            assert model.peval(coeffs, x) == acc


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pshift_is_the_taylor_shift(p):
    # peval(_pshift(g, a), t) = g(a + pi t), with pi = p in Z_p and the
    # unramified model and pi = w in the Eisenstein models; the reference
    # expands g(a + pi t) by sympy, reduced modulo the rule
    from selmer3.padicroots import ZpModel, _pshift

    rng = random.Random(6000 + p)
    zp = ZpModel(p)
    for _ in range(60):
        g = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 4))]
        a, t = rng.randrange(p), rng.randint(-10**3, 10**3)
        assert zp.peval(_pshift(g, a, zp), t) == sum(c * (a + p * t) ** i for i, c in enumerate(g))
    for model in (CubicExtModel.unramified(p), CubicExtModel.eisenstein(p, 1), CubicExtModel.eisenstein(p, 2)):
        w, _ = _sympy_ring(model.rule)
        pi = w if model.ramified else p
        for _ in range(30):
            g = [tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(rng.randint(1, 4))]
            a = tuple(rng.randrange(p) for _ in range(3))
            t = tuple(rng.randint(-10**3, 10**3) for _ in range(3))
            x = _sympy_element(model, a) + pi * _sympy_element(model, t)
            shifted = sum(_sympy_element(model, c) * x**i for i, c in enumerate(g))
            assert model.peval(_pshift(g, a, model), t) == _sympy_coordinates(model, shifted)


def test_zp_model_peval_equals_int_horner():
    from selmer3.padicroots import ZpModel

    rng = random.Random(3000)
    for p in (2, 5, 7, 101):
        model = ZpModel(p)
        for _ in range(200):
            coeffs = [rng.randint(-10**9, 10**9) for _ in range(rng.randint(1, 4))]
            x = rng.randint(-10**4, 10**4)
            assert model.peval(coeffs, x) == sum(c * x**i for i, c in enumerate(coeffs))


def test_extension_model_holds_no_residue_table():
    # the p^3 residues of the unramified model are built as iterated, so a
    # model at p = 61 keeps no table of 226,981 elements
    model = CubicExtModel.unramified(61)
    assert all(not isinstance(v, (list, tuple, dict, set)) or len(v) <= 3 for v in vars(model).values())
    residues = model.residues()
    assert iter(residues) is residues
    assert next(residues) == (0, 0, 0)


# ----------------------------------------------------------------------
# Root isolation in the unramified model against the walk over all p^3
# residues
# ----------------------------------------------------------------------


def _search_every_residue(model, coeffs, depth, cap):
    """Branch-and-lift over every residue of the model, with no answer
    read off the reduction: the reference for `padicroots._search`."""
    from selmer3.padicroots import _pderiv, _pshift, _strip_content

    if depth > cap:
        raise PrecisionError(f"root isolation exceeded depth cap {cap}")
    deriv = _pderiv(coeffs, model)
    for a in model.residues() if isinstance(model, CubicExtModel) else range(model.p):
        v0 = model.val(model.peval(coeffs, a))
        if v0 is None:
            return True
        if v0 == 0:
            continue
        v1 = model.val(model.peval(deriv, a))
        if v1 is not None and v0 > 2 * v1:
            return True
        shifted = _strip_content(_pshift(coeffs, a, model), model)
        if _search_every_residue(model, shifted, depth + 1, cap):
            return True
    return False


def _outcome(run, *args, reference=False):
    """run(*args), or the type and message of what it raised; with
    `reference`, root isolation walks every residue."""
    import selmer3.padicroots as padicroots

    search = _search_every_residue if reference else padicroots._search
    try:
        with mock.patch.object(padicroots, "_search", search):
            return run(*args)
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)


@st.composite
def _prime_and_integer_poly(draw):
    """A prime and integer coefficients (constant term first) of degree 1
    to 3: plain, each coefficient below the leading one times a power of p
    (so the reduction is often a power of x, and the search recurses), with
    a repeated linear factor, or with p dividing the leading coefficient."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    big = st.integers(-10**6, 10**6)
    shape = draw(st.sampled_from(("plain", "p-powers", "repeated", "p-lead")))
    if shape == "repeated":
        # (u x + r)^2 (s x + t), with r a small number times a power of p
        u = draw(st.integers(1, 30))
        r = draw(st.integers(-30, 30)) * p ** draw(st.integers(0, 2))
        s, t = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
        coeffs = [r * r * t, 2 * u * r * t + r * r * s, u * u * t + 2 * u * r * s, u * u * s]
    else:
        coeffs = draw(st.lists(big, min_size=2, max_size=4))
        if shape == "p-powers":
            coeffs = [c * p ** draw(st.integers(0, 4)) for c in coeffs[:-1]] + coeffs[-1:]
        elif shape == "p-lead":
            coeffs[-1] = p * draw(big)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assume(len(coeffs) >= 2)
    return p, coeffs


@settings(max_examples=300, deadline=None)
@given(_prime_and_integer_poly())
@example((5, [5, 0, 0, 1]))  # Eisenstein: a triple zero mod p that does not lift
@example((7, [2, 0, 0, 1]))  # x^3 + 2 is irreducible mod 7
@example((5, [2, 0, 5]))  # the reduction is a unit constant
@example((5, [2, 0, 1]))  # an irreducible quadratic
def test_unramified_root_isolation_equals_the_full_walk(case):
    p, coeffs = case
    model = CubicExtModel.unramified(p)
    assert _outcome(has_ring_root, model, coeffs) == _outcome(
        has_ring_root, model, coeffs, reference=True
    )


@settings(max_examples=150, deadline=None)
@given(_prime_and_integer_poly())
@example((5, [5, 0, 0, 1]))  # Eisenstein: a triple zero mod p that does not lift
@example((7, [14, 0, 0, 1]))  # x^3 + 14 has the root -w in the model w^3 = 7 * 2
@example((5, [2, 0, 5]))  # the reduction is a unit constant
@example((5, [1, 5, 0, 5]))  # a cubic whose reduction is the constant 1
def test_root_isolation_equals_the_full_walk_in_z_p_and_eisenstein_models(case):
    # the walk over the zeros of each node's reduction against the walk over
    # every residue, in Z_p and in each Eisenstein model
    p, coeffs = case
    for model in [ZpModel(p)] + [CubicExtModel.eisenstein(p, u) for u in cube_class_reps(p)]:
        assert _outcome(has_ring_root, model, coeffs) == _outcome(
            has_ring_root, model, coeffs, reference=True
        ), model


def _both_orientations(model, a, b, c, d):
    # a projective root is a ring root of f(x, 1) or of f(1, y), each
    # searched over every residue when `_search` is the reference
    return a == 0 or d == 0 or has_ring_root(model, [d, c, b, a]) or has_ring_root(model, [a, b, c, d])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((5, 7, 11)),
    st.lists(st.integers(-10**4, 10**4), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
@example(5, [1, 0, 0, -5], [0, 0, 0, 0])  # irreducible: both orientations are searched
@example(7, [7, 0, 0, 1], [0, 0, 0, 0])  # 7 x^3 + y^3: the root [1 : -w] of w^3 = 7 has y = 0 (mod w)
@example(5, [1, 3, 3, 1], [0, 0, 0, 0])  # (x + y)^3, a repeated root at the unit y/x
def test_projective_root_test_equals_both_full_walks(p, coeffs, powers):
    # f(1, y) is searched only at y = 0 (mod pi); the reference searches
    # both orientations at every residue
    from selmer3.padicroots import form_has_projective_root

    a, b, c, d = (t * p**k for t, k in zip(coeffs, powers))
    for model in [ZpModel(p), CubicExtModel.unramified(p)] + [
        CubicExtModel.eisenstein(p, u) for u in cube_class_reps(p)
    ]:
        assert _outcome(form_has_projective_root, model, a, b, c, d) == _outcome(
            _both_orientations, model, a, b, c, d, reference=True
        ), model


@pytest.mark.parametrize("p", [5, 7, 11])
def test_algebra_class_equals_the_full_walk(p):
    rng = random.Random(4000 + p)
    seen = set()
    for _ in range(40):
        f = BinaryCubicForm(*(rng.randint(-300, 300) * p ** rng.randint(0, 2) for _ in range(4)))
        if f.discriminant() == 0:
            continue
        got = _outcome(_algebra_class, f, p)
        assert got == _outcome(_algebra_class, f, p, reference=True), f
        seen.add(got if isinstance(got, str) else "raised")
    assert {"split", "unram"} <= seen and any(s.startswith("ram-") for s in seen)


# ----------------------------------------------------------------------
# The integer oracle against independent Fraction and sympy references
# ----------------------------------------------------------------------


def _models(p):
    return [CubicExtModel.unramified(p)] + [
        CubicExtModel.eisenstein(p, u) for u in cube_class_reps(p)
    ]


@cache
def _sympy_ring(rule):
    """(w, the defining polynomial w^3 - r2 w^2 - r1 w - r0) as sympy Polys."""
    import sympy

    w = sympy.Poly(sympy.Symbol("w"))
    r0, r1, r2 = rule
    return w, w**3 - r2 * w**2 - r1 * w - r0


def _sympy_element(model, c):
    w, _ = _sympy_ring(model.rule)
    return c[0] + c[1] * w + c[2] * w**2


def _sympy_coordinates(model, poly):
    """The coordinates over (1, w, w^2) of a sympy Poly in w, reduced by
    sympy modulo the defining polynomial."""
    _, modulus = _sympy_ring(model.rule)
    coeffs = poly.rem(modulus).all_coeffs()[::-1]
    return tuple(int(t) for t in coeffs + [0] * (3 - len(coeffs)))


def _sympy_product(model, x, y):
    return _sympy_coordinates(model, _sympy_element(model, x) * _sympy_element(model, y))


def _norm(model, c):
    """Norm of c0 + c1 w + c2 w^2: the determinant of multiplication by it
    on (1, w, w^2), reduced by sympy modulo the defining polynomial."""
    import sympy

    cols = [_sympy_product(model, c, tuple(int(i == j) for i in range(3))) for j in range(3)]
    return int(sympy.Matrix(3, 3, lambda i, j: cols[j][i]).det())


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_ext_model_val_equals_norm_valuation(p):
    from sympy import multiplicity

    rng = random.Random(p)
    for model in _models(p):
        for _ in range(40):
            c = tuple(rng.randint(-60, 60) * p ** rng.randint(0, 3) for _ in range(3))
            # built through the model, as the value of c0 + c1 t + c2 t^2 at w
            x = model.peval([model.embed_int(t) for t in c], (0, 1, 0))
            assert x == c
            if c == (0, 0, 0):
                assert model.val(x) is None
                continue
            v = multiplicity(p, _norm(model, c))
            if not model.ramified:
                assert v % 3 == 0
                v //= 3
            assert model.val(x) == v, (p, model.rule, c)


def test_eisenstein_division_with_nontrivial_unit():
    # w^3 = 14: dividing -21 by w would give -21 w^2 / 14, not integral
    # over Z; the uniformizer w/u keeps integer coordinates
    m = CubicExtModel.eisenstein(7, 2)
    x = m.embed_int(-21)
    y = m.div_uniformizer(x)
    assert all(type(t) is int for t in y)
    assert m.val(x) == 3 and m.val(y) == 2
    for x in ((-21, 0, 0), (7, 3, 5), (-14, -1, 2), (0, 0, 1)):
        y = m.div_uniformizer(x)
        assert all(type(t) is int for t in y)
        assert m.val(y) == m.val(x) - 1
        # y is x divided by w/u: y * w = u * x, the product by sympy
        assert _sympy_product(m, y, (0, 1, 0)) == tuple(2 * t for t in x)
    with pytest.raises(DomainError):
        m.div_uniformizer(m.embed_int(1))
    e = CubicExtModel.unramified(7)
    with pytest.raises(DomainError):
        e.div_uniformizer((0, 1, 0))


def _orders_reference(ring, p, j):
    """orders_of_index on Fractions: ring.mul, then membership of the (w, t)
    coordinates in the Hermite lattice by valuations."""
    from selmer3.localfield import valuation

    def integral(x):
        return x == 0 or valuation(x, p) >= 0

    found = []
    for i in range(j + 1):
        a, e = p**i, p ** (j - i)
        for b in range(e):
            v1 = (Fraction(0), Fraction(a), Fraction(b))
            v2 = (Fraction(0), Fraction(0), Fraction(e))
            closed = True
            for x, y in ((v1, v1), (v1, v2), (v2, v2)):
                z = ring.mul(x, y)
                s = z[1] / a
                if not (integral(s) and integral((z[2] - s * b) / e)):
                    closed = False
                    break
            if closed:
                found.append((a, b, e))
    return found


def _integral_and_translated_rings(p):
    from selmer3.cubicforms import translate_basis

    rng = random.Random(100 + p)
    rings = []
    for _ in range(8):
        # integral rings, some with every coefficient but one divisible by p
        coeffs = [rng.randint(-9, 9) * p ** rng.randint(0, 2) for _ in range(4)]
        f = BinaryCubicForm(*coeffs)
        if f.discriminant() != 0:
            rings.append(form_to_ring(f))
        # p-integral rings with unit denominators, in a translated basis
        den = rng.choice([2, 3, 4, 6])
        g = BinaryCubicForm(*(Fraction(t, den) for t in coeffs))
        if g.discriminant() != 0:
            shifted = translate_basis(form_to_ring(g, p=p), Fraction(1, den), Fraction(-2, 3))
            rings.append(shifted)
    # no index-p order, and an index-p^2 one: the unramified maximal order
    rings.append(form_to_ring(unramified_cubic_form(p)))
    assert len(rings) >= 10
    return rings


@pytest.mark.parametrize("p", [5, 7, 11])
def test_orders_of_index_equals_fraction_reference(p):
    for ring in _integral_and_translated_rings(p):
        for j in (1, 2):
            assert orders_of_index(ring, p, j) == _orders_reference(ring, p, j)


def _order_reference(ring, basis):
    """order_from_lattice through the generic ring.mul on the new basis."""
    a, b, e = basis
    v1 = (Fraction(0), Fraction(a), Fraction(b))
    v2 = (Fraction(0), Fraction(0), Fraction(e))

    def in_new_basis(z):
        y1 = z[1] / a
        return (z[0], y1, (z[2] - y1 * b) / e)

    products = (ring.mul(v1, v1), ring.mul(v1, v2), ring.mul(v2, v2))
    return CubicRing(*(in_new_basis(z) for z in products))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_order_from_lattice_equals_generic_products(p):
    subrings = 0
    for ring in _integral_and_translated_rings(p):
        for j in (1, 2):
            for basis in orders_of_index(ring, p, j):
                sub = order_from_lattice(ring, basis)
                assert sub == _order_reference(ring, basis)
                assert sub.discriminant() == p ** (2 * j) * ring.discriminant()
                subrings += 1
    assert subrings >= 10


def test_orders_of_index_rejects_ring_not_p_integral():
    ring = form_to_ring(BinaryCubicForm(Fraction(1, 5), 1, 0, 1), p=7)
    with pytest.raises(DomainError):
        orders_of_index(ring, 5, 1)


# ----------------------------------------------------------------------
# Work-count guards
# ----------------------------------------------------------------------


def test_form_scan_classifies_each_residue_once(monkeypatch):
    import selmer3.oracle as oracle

    p = 5
    seen = []
    original = oracle._root_multiplicities

    def counting(fa, fb, fc, fd, p_):
        seen.append((fa, fb, fc, fd))
        return original(fa, fb, fc, fd, p_)

    monkeypatch.setattr(oracle, "_root_multiplicities", counting)
    oracle.scan_forms_low_valuation(p)
    expected = {
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a, b, c, d) != (0, 0, 0, 0)
        and (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d) % p == 0
    }
    assert len(seen) == len(expected) and set(seen) == expected


def test_form_scan_solves_each_triple_root_once(monkeypatch):
    # the root lift terms depend only on the root: p + 1 calls per scan,
    # one per triple root mod p, and none kept from an earlier scan
    import selmer3.oracle as oracle

    p = 7
    seen = []
    original = oracle._root_lift_terms

    def counting(root, p_):
        seen.append(root)
        return original(root, p_)

    monkeypatch.setattr(oracle, "_root_lift_terms", counting)
    first = oracle.scan_forms_low_valuation(p)
    calls = len(seen)
    assert calls == len(set(seen)) == p + 1
    assert set(seen) == {(1, 0)} | {(x, 1) for x in range(p)}
    assert oracle.scan_forms_low_valuation(p) == first
    assert len(seen) == 2 * calls


def test_oracle_imports_no_classification_layer():
    # the oracle checks the classification, so it must not consult it:
    # from localclass it takes only the construction of the unramified
    # cubic, and nothing from the ratio calculus or the families.  Its root
    # isolation runs through padicroots, which takes only the discriminant
    # polynomial from cubicforms and nothing from the layers above.
    import ast

    import selmer3.oracle as oracle
    import selmer3.padicroots as padicroots

    excluded = {"selmerratio": set(), "prym": set(), "twistfamilies": set()}
    rules = {
        oracle: {**excluded, "localclass": {"unramified_cubic_form"}},
        padicroots: {**excluded, "localclass": set(), "cubicforms": {"discriminant"}},
    }
    for checked, allowed in rules.items():
        for node in ast.walk(ast.parse(Path(checked.__file__).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                taken = {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import m` and `from . import m` take a whole module
                taken = {(alias.name.rpartition(".")[2], "*") for alias in node.names}
            else:
                continue
            for module, name in taken:
                assert module not in allowed or name in allowed[module], (checked, module, name)


def test_root_isolation_builds_integer_elements_only(monkeypatch):
    # every element an extension model hands root isolation is a tuple of
    # three ints: its coordinates, with no element class around them
    built = []
    for name in ("embed_int", "peval", "scale", "times_uniformizer", "div_uniformizer"):
        original = getattr(CubicExtModel, name)

        def recording(self, *args, _f=original):
            out = _f(self, *args)
            built.append(out)
            return out

        monkeypatch.setattr(CubicExtModel, name, recording)
    assert algebra_class_of_form(unramified_cubic_form(7), 7) == "unram"
    assert algebra_class_of_form(BinaryCubicForm(1, 0, 0, -14), 7) == "ram-u2"
    assert built
    assert all(type(x) is tuple and len(x) == 3 and all(type(t) is int for t in x) for x in built)


def test_root_isolation_computes_one_discriminant_per_form(monkeypatch):
    # the resultants of f(x, 1) and f(1, y) are +-lead disc of the same
    # form, so a form's root tests, in one model or in every model its
    # algebra is tried in, evaluate the discriminant once; the other call
    # is the nonzero-discriminant check at the boundary
    import sys

    import selmer3.cubicforms as cubicforms

    calls = []
    original = cubicforms.discriminant
    for name, module in list(sys.modules.items()):
        if name.startswith("selmer3") and getattr(module, "discriminant", None) is original:
            monkeypatch.setattr(module, "discriminant", lambda *a: calls.append(a) or original(*a))
    f = BinaryCubicForm(1, 0, 0, -2)  # irreducible over Q_7: both orientations are searched
    assert orbit_split(f, 7) == (f, f.swap())
    assert len(calls) == 2
    calls.clear()
    # tried in Z_7, the unramified model and two Eisenstein models; the
    # other calls are the unramified model's search, one per cubic
    # x^3 + A x + B it tries mod 7
    f = BinaryCubicForm(1, 0, 0, -14)
    assert algebra_class_of_form(f, 7) == "ram-u2"
    assert calls.count(f.coefficients()) == 2
    assert [c for c in calls if c != f.coefficients()] == [(1, 0, 0, 1), (1, 0, 0, 2)]


def test_witness_check_computes_each_discriminant_once(monkeypatch):
    # one discriminant per witness, the split witness's construction check
    # included, and one integral rescaling per witness for all the models
    # its algebra is tried in
    import selmer3.oracle as oracle

    def counting(target, name):
        calls = []
        original = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *a: calls.append(a) or original(*a))
        return calls

    discs = counting(BinaryCubicForm, "discriminant")
    rescalings = counting(oracle, "_primitive_at")
    witnesses = counting(oracle, "_verify_witness")
    strata = [(p, v, uc) for p in (5, 7) for v in range(5) for uc in ("square", "nonsquare")]
    for p, v, uc in strata:
        oracle.enumerate_orbits(p, disc_val=v, unit_class=uc)
    assert len(witnesses) > len(strata)
    assert len(discs) == len(witnesses)
    assert len(rescalings) == len(witnesses)


def test_grid_decides_each_square_class_once(monkeypatch):
    # one is_square test each of d0 and -3 d0 per stratum, for the field
    # list that the cohomology counts and the field rows share; the prime is
    # proven once per stratum, where its place is built, and the witness
    # checks and their truncated ring reuse it
    import sys

    import selmer3.localfield as localfield
    import selmer3.oracle as oracle

    modules = [m for name, m in sys.modules.items() if name.startswith("selmer3")]
    calls = {"is_prime": [], "is_square": []}
    for name, log in calls.items():
        original = getattr(localfield, name)
        wrapper = lambda *a, _f=original, _log=log: _log.append(a) or _f(*a)  # noqa: E731
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    strata = [(p, v, uc) for p in (5, 7) for v in range(5) for uc in ("square", "nonsquare")]
    for p, v, uc in strata:
        oracle.enumerate_orbits(p, disc_val=v, unit_class=uc)
    assert len(calls["is_square"]) == 2 * len(strata) == 40
    assert len(calls["is_prime"]) == len(strata) == 20


def test_order_search_past_the_budget_is_refused_unwalked(monkeypatch):
    import selmer3.oracle as oracle
    from selmer3.errors import BudgetError

    def walked(*args):
        raise AssertionError("walked before the budget check")

    maximal = form_to_ring(unramified_cubic_form(5))
    with monkeypatch.context() as m:
        m.setattr(oracle, "_index_sublattices", walked)
        # sigma(5^9) = 2,441,406 lattices; the unramified field of the
        # v = 18 stratum needs index 5^9
        with pytest.raises(BudgetError):
            oracle.orders_of_index(maximal, 5, 9)
        with pytest.raises(BudgetError):
            oracle.enumerate_orbits(5, disc_val=18)
        # sigma(5^3) = 156 past a bound of sigma(5^2) = 31
        m.setattr(oracle, "MAX_ORDER_LATTICES", 31)
        with pytest.raises(BudgetError):
            oracle.orders_of_index(maximal, 5, 3)
    # a search of exactly the bound still runs
    monkeypatch.setattr(oracle, "MAX_ORDER_LATTICES", 31)
    assert oracle.orders_of_index(maximal, 5, 2)


def test_unramified_root_isolation_walks_the_residues_of_f_p(monkeypatch):
    # every node of the grid's unramified root isolation has integer
    # coefficients, so it evaluates the polynomial and its derivative at
    # most at the p residues of F_p, not at all p^3 of F_p^3
    import selmer3.padicroots as padicroots

    nodes, evals = [], []
    search, peval = padicroots._search, CubicExtModel.peval

    def counting_search(model, coeffs, depth, cap):
        if isinstance(model, CubicExtModel) and not model.ramified:
            nodes.append(model.p)
        return search(model, coeffs, depth, cap)

    def counting_peval(model, coeffs, x):
        if not model.ramified:
            evals.append(model.p)
        return peval(model, coeffs, x)

    monkeypatch.setattr(padicroots, "_search", counting_search)
    monkeypatch.setattr(CubicExtModel, "peval", counting_peval)
    for p in (5, 7):
        for v in range(5):
            for uc in ("square", "nonsquare"):
                enumerate_orbits(p, disc_val=v, unit_class=uc)
    assert set(nodes) == {5, 7}
    for p in (5, 7):
        assert evals.count(p) <= 2 * p * nodes.count(p)


def test_grid_evaluates_each_node_only_at_the_zeros_of_its_reduction(monkeypatch):
    # over the 20-stratum grid a node evaluates its polynomial only at the
    # residues where its reduction vanishes (the unramified model with
    # coefficients outside Z_p, which walks all of F_p^3, is never reached),
    # and f(1, y) only at y = 0 (mod pi): 774 full evaluations, before
    # either restriction, fall to at most 250
    import selmer3.padicroots as padicroots

    nodes, evals, walked = [], [], []
    search = padicroots._search

    def recording_search(model, coeffs, depth, cap):
        nodes.append(coeffs)
        try:
            return search(model, coeffs, depth, cap)
        finally:
            nodes.pop()

    def counting(cls):
        peval = cls.peval

        def counting_peval(model, coeffs, x):
            out = peval(model, coeffs, x)
            evals.append(out)
            if nodes and coeffs is nodes[-1]:  # the node's own polynomial at a walked residue
                walked.append(model.val(out))
            return out

        monkeypatch.setattr(cls, "peval", counting_peval)

    monkeypatch.setattr(padicroots, "_search", recording_search)
    counting(ZpModel)
    counting(CubicExtModel)
    for p in (5, 7):
        for v in range(5):
            for uc in ("square", "nonsquare"):
                enumerate_orbits(p, disc_val=v, unit_class=uc)
    assert walked and 0 not in walked
    assert len(evals) <= 250


def test_algebra_class_at_a_large_prime_is_fast():
    # walking all of F_p^3, 226,981 residues per node, took seconds on
    # these forms
    p = 61
    rng = random.Random(61)
    forms = []
    while len(forms) < 40:
        f = BinaryCubicForm(*(rng.randint(-1000, 1000) for _ in range(4)))
        if f.discriminant() != 0:
            forms.append(f)
    started = time.perf_counter()
    classes = [algebra_class_of_form(f, p) for f in forms]
    elapsed = time.perf_counter() - started
    assert "unram" in classes
    assert elapsed < 2.0, elapsed
