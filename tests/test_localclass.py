import random
from fractions import Fraction

import pytest

from selmer3.cubicforms import factorization_type, orbit_split
from selmer3.errors import DomainError, IncompleteConfigError, NonIntegralClassError
from selmer3.localclass import (
    OrbitClassDescriptor,
    _cubic_has_root,
    build_twist_datum,
    classify_integral,
    h1_dims,
    integral_representative,
    soluble_classes,
    unit_class,
    unramified_cubic_form,
)
from selmer3.localfield import Place, is_square, least_nonresidue, unit_part, valuation
from selmer3.selmerratio import IsogenyDescriptor, KappaEntry


def kinds_summary(classes):
    out = {}
    for c in classes:
        key = "unram" if c.kind.startswith("unram") else c.kind
        n, n_int = out.get(key, (0, 0))
        out[key] = (n + 1, n_int + (1 if c.integral else 0))
    return out


def test_h1_dims_table_cells():
    assert h1_dims(Place.finite(7), 1) == (2, 1)
    assert h1_dims(Place.finite(5), 1) == (1, 1)
    assert h1_dims(Place.finite(5), 5) == (0, 0)
    assert h1_dims(Place.finite(5), -3) == (1, 0)
    assert h1_dims(Place.finite(7), 3) == (0, 0)  # both d, -3d nonsquare
    assert h1_dims(Place.finite(13), 1) == (2, 1)
    # residue characteristic 2: the bottom-right cell is reachable
    assert h1_dims(Place.finite(2), 17) == (1, 1)
    assert h1_dims(Place.finite(2), 5) == (1, 0)
    assert h1_dims(Place.finite(2), 3) == (0, 0)


def test_h1_dims_domain_errors():
    with pytest.raises(DomainError):
        h1_dims(Place.finite(3), 1)
    with pytest.raises(DomainError):
        h1_dims(Place.real(), 1)
    with pytest.raises(DomainError):
        h1_dims(Place.finite(5), 0)


def test_h1_dims_depends_only_on_square_classes():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([5, 7, 13])
        d = Fraction(rng.randint(1, 300)) * rng.choice([1, -1])
        t = Fraction(rng.randint(1, 30)) * rng.choice([1, -1])
        assert h1_dims(Place.finite(p), d) == h1_dims(Place.finite(p), d * t * t)


def test_classify_integral_theorem_cases():
    # v(d) = 2, d square, zeta3 absent: nontrivial unramified non-integral
    cls = classify_integral(5, 25)
    assert kinds_summary(cls) == {"trivial": (1, 1), "unram": (2, 0)}
    # v(d) = 1: the single reducible class, integral
    cls = classify_integral(5, 5)
    assert kinds_summary(cls) == {"trivial": (1, 1)}
    # v(d) = 4, zeta3 present, d square: everything integral (9 classes)
    cls = classify_integral(7, 7**4)
    assert kinds_summary(cls) == {"trivial": (1, 1), "unram": (2, 2), "ramified": (6, 6)}
    # v(d) = 0, zeta3 present, d square: integral = unramified
    cls = classify_integral(7, 1)
    assert kinds_summary(cls) == {"trivial": (1, 1), "unram": (2, 2), "ramified": (6, 0)}
    # v(d) = 2, zeta3 absent, -3d square: ramified classes, integral
    cls = classify_integral(5, -3 * 25)
    assert kinds_summary(cls) == {"trivial": (1, 1), "ramified": (2, 2)}


def test_classify_integral_depends_only_on_invariants():
    rng = random.Random(17)
    for _ in range(150):
        p = rng.choice([5, 7])
        v = rng.randint(0, 5)
        u = rng.randint(1, 200)
        while u % p == 0:
            u = rng.randint(1, 200)
        t = rng.randint(1, 30)
        while t % p == 0:
            t = rng.randint(1, 30)
        d1 = Fraction(p) ** v * u
        d2 = Fraction(p) ** v * u * t * t
        c1 = [(c.kind, c.detail, c.integral) for c in classify_integral(p, d1)]
        c2 = [(c.kind, c.detail, c.integral) for c in classify_integral(p, d2)]
        assert c1 == c2


def test_classify_integral_rejects_bad_inputs():
    with pytest.raises(DomainError):
        classify_integral(3, 9)
    with pytest.raises(DomainError):
        classify_integral(5, Fraction(1, 5))
    with pytest.raises(DomainError):
        classify_integral(5, 0)


def cls_of(p, d, kind, detail_idx=0):
    matches = [c for c in classify_integral(p, d) if c.kind == kind]
    return matches[detail_idx]


def test_trivial_representative_has_exact_discriminant():
    for p, d in ((5, 25), (5, 5), (7, Fraction(7**3) * 3), (5, 1)):
        form = integral_representative(p, Fraction(d, 1), cls_of(p, d, "trivial"))
        assert form.discriminant() == d
        assert len(orbit_split(form, p=p)) == 1  # reducible


def test_unramified_representative_valuations():
    # v = 0: the maximal unramified order; v = 4, 6, 8: conductor orders
    for p in (5, 7):
        for v in (0, 4, 6, 8):
            d = Fraction(p) ** v
            cls = cls_of(p, d, "unram-1")
            form = integral_representative(p, d, cls)
            disc = form.discriminant()
            assert valuation(disc, p) == v
            assert is_square(unit_part(disc, p), Place.finite(p))
            assert form.is_p_integral(p)
            # the reduction is the shape of an order in the unramified cubic
            assert len(orbit_split(form, p=p)) == 2  # irreducible over Q_p


def test_unramified_pair_are_swaps():
    p, d = 5, Fraction(5) ** 4
    f1 = integral_representative(p, d, cls_of(p, d, "unram-1"))
    f2 = integral_representative(p, d, cls_of(p, d, "unram-2"))
    assert f2 == f1.swap()


def test_unramified_rep_at_v0_is_maximal_inert_order():
    for p in (5, 7, 13):
        form = unramified_cubic_form(p)
        assert valuation(form.discriminant(), p) == 0
        assert factorization_type(form, p) == "(3)"


def _first_rootless_cubic(p):
    """Reference: the first (A, B) in row order with no x in F_p making
    x^3 + A x + B vanish, read off the set of values -(x^3 + A x)."""
    for a in range(p):
        hit = {(-x**3 - a * x) % p for x in range(p)}
        for b in range(1, p):
            if b not in hit:
                return (1, 0, a, b)
    raise AssertionError(p)


def test_unramified_cubic_form_is_first_irreducible_cubic():
    from sympy import primerange

    for p in primerange(5, 2000):
        assert unramified_cubic_form(p).coefficients() == _first_rootless_cubic(p), p


def test_cubic_root_test_equals_a_root_search():
    # every cubic x^3 + A x + B mod p: zero, nonsquare and nonzero-square
    # discriminants alike, the last split or irreducible
    from sympy import primerange

    for p in primerange(5, 62):
        for a in range(p):
            hit = {(-x**3 - a * x) % p for x in range(p)}
            for b in range(p):
                assert _cubic_has_root(a, b, p) == (b in hit), (a, b, p)


def test_unit_class_equals_a_power_search():
    from sympy import primerange

    for p in primerange(5, 60):
        squares = {t * t % p for t in range(1, p)}
        for r in range(4):
            powers = {pow(t, 3**r, p) for t in range(1, p)}
            for u in range(1, p):
                want = "nonsquare" if u not in squares else "power" if u in powers else "square"
                assert unit_class(Fraction(u), p, r) == want, (u, p, r)
                assert unit_class(Fraction(3 * u + p, 3), p, r) == want, (u, p, r)  # u as a fraction
    for u in range(-15, 16, 2):
        for r in range(4):
            assert unit_class(Fraction(u), 2, r) == u % 8
            assert unit_class(Fraction(u, 3), 2, r) == 3 * u % 8  # 3 is its own inverse mod 8


def test_ramified_representative_valuations():
    # zeta3 absent: ramified classes live in the -3d-square column
    p = 5
    for v in (2, 4, 6, 8):
        d = Fraction(p) ** v * -3
        cls = cls_of(p, d, "ramified")
        form = integral_representative(p, d, cls)
        disc = form.discriminant()
        assert valuation(disc, p) == v
        assert is_square(unit_part(disc, p) * unit_part(d, p), Place.finite(p))
        assert len(orbit_split(form, p=p)) == 2


def test_ramified_representatives_zeta3_present():
    p, v = 7, 2
    d = Fraction(p) ** v
    rams = [c for c in classify_integral(p, d) if c.kind == "ramified"]
    assert len(rams) == 6
    forms = {integral_representative(p, d, c) for c in rams}
    assert len(forms) == 6
    for form in forms:
        assert valuation(form.discriminant(), p) == 2
        assert factorization_type(form, p) == "(1^3)"  # Eisenstein shape


def test_non_integral_class_rejected():
    cls = cls_of(5, 25, "unram-1")
    assert not cls.integral
    with pytest.raises(NonIntegralClassError):
        integral_representative(5, 25, cls)
    # ramified classes at v(d) = 0 are also non-integral
    cls = cls_of(7, 1, "ramified")
    with pytest.raises(NonIntegralClassError):
        integral_representative(7, 1, cls)


def test_soluble_classes_theorem_cases():
    # v(d) = 0: soluble = unramified
    datum = build_twist_datum(5, 1)
    sol = soluble_classes(datum, summand_flag=True)
    assert sol.case == "unramified"
    assert sol.nontrivial_kinds == frozenset({"unram-1", "unram-2"})
    assert sol.count(classify_integral(5, 1)) == 3**1  # 3^dim_un

    # odd valuation: the zero group
    sol = soluble_classes(build_twist_datum(5, 5), summand_flag=True)
    assert sol.case == "zero" and sol.nontrivial_kinds == frozenset()
    assert sol.count(classify_integral(5, 5)) == 1

    # v(d) = 2, d square, flag true: no nontrivial unramified soluble class
    sol = soluble_classes(build_twist_datum(5, 25), summand_flag=True)
    assert sol.case == "summand" and sol.meets_unramified is False
    sol = soluble_classes(build_twist_datum(5, 25), summand_flag=False)
    assert sol.meets_unramified is True

    # v(d) = 2, d nonsquare: unramified subgroup trivial
    sol = soluble_classes(build_twist_datum(5, -3 * 25), summand_flag=True)
    assert sol.case == "unram-trivial" and sol.meets_unramified is False


def test_soluble_classes_at_two():
    # unramified sqrt, v = 0: theorem extends
    sol = soluble_classes(build_twist_datum(2, 17), summand_flag=True)
    assert sol.case == "unramified"
    # ramified sqrt: zero
    sol = soluble_classes(build_twist_datum(2, 3), summand_flag=True)
    assert sol.case == "zero"
    # even positive valuation at 2 is outside the extension
    with pytest.raises(DomainError):
        soluble_classes(build_twist_datum(2, 4 * 17), summand_flag=True)


def test_soluble_classes_rejects_overrides_domain():
    with pytest.raises(DomainError):
        soluble_classes(build_twist_datum(3, 1), summand_flag=True)


def test_soluble_count_matches_h1_at_v0():
    for p in (5, 7, 13):
        for u in (1, least_nonresidue(p), -3):
            datum = build_twist_datum(p, u)
            sol = soluble_classes(datum, summand_flag=True)
            assert sol.count(classify_integral(p, u)) == 3 ** h1_dims(Place.finite(p), u)[1]


def test_summand_flag_unit_class_labels():
    entries = (KappaEntry(1, "power", 1, 1), KappaEntry(1, "nonsquare", 3, 1))
    desc = IsogenyDescriptor(global_summand_bit=False, kappa_orders=entries)
    # r = 0 reads the global bit, whatever the unit
    assert desc.summand_flag(5, 2, 0) is False
    assert IsogenyDescriptor(global_summand_bit=True, kappa_orders=entries).summand_flag(5, 2, 0) is True
    # 4 = 2^2 and every 5-adic unit is a cube, so 4 is a (2*3)-rd power
    assert desc.summand_flag(5, 4, 1) is True
    assert desc.summand_flag(5, 2, 1) is False
    # 2 is a square mod 7 but not a cube, so its label is "square": unlisted
    with pytest.raises(IncompleteConfigError):
        desc.summand_flag(7, 2, 1)
    # at p = 3 every square unit is keyed "power"
    assert desc.summand_flag(3, 4, 1) is True


def test_twist_datum_reduction():
    datum = build_twist_datum(5, Fraction(5) ** 8 * 2, m=1)
    assert datum.v_d == 2 and datum.u == 2
    assert datum.r == 0
    datum = build_twist_datum(5, 5**6 * 3, m=1)
    assert datum.v_d == 0
    datum = build_twist_datum(7, 7**18 * 3, m=2)  # n = 9, 2n = 18
    assert datum.v_d == 0


def test_descriptor_serialization_tags():
    tags = {c.to_json_obj()["kind"] for c in classify_integral(7, 49)}
    assert tags == {"trivial", "unram-1", "unram-2", "ramified"}
