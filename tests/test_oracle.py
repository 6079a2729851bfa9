import random
from fractions import Fraction
from pathlib import Path

import pytest

from selmer3.cubicforms import BinaryCubicForm, form_to_ring, projective_roots_mod_p
from selmer3.errors import DomainError
from selmer3.localclass import classify_integral, h1_dims, unramified_cubic_form
from selmer3.localfield import Place, cube_class_reps, least_nonresidue
from selmer3.oracle import (
    CubicExtModel,
    _ExtElem,
    OrbitTable,
    TruncatedRing,
    algebra_class_of_form,
    count_cubic_extensions,
    enumerate_orbits,
    h1_counts_from_extensions,
    orders_of_index,
    sl2_orbit_count_mod_p,
    verify_subring_bijection,
)


def test_extension_model_arithmetic():
    m = CubicExtModel.eisenstein(5, 1)
    w = m.w
    assert (w * w * w).c == (Fraction(5), 0, 0)
    assert m.val(w) == 1 and m.val(m.embed_int(5)) == 3
    assert m.val(m.div_uniformizer(w)) == 0
    e = CubicExtModel.unramified(5)
    assert e.val(e.embed_int(5)) == 1
    assert e.val(e.w) == 0
    assert len(e.residues()) == 125


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


@pytest.mark.parametrize("p", [5, 7, 11, 13])
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


# ----------------------------------------------------------------------
# The integer oracle against independent Fraction and sympy references
# ----------------------------------------------------------------------


def _models(p):
    return [CubicExtModel.unramified(p)] + [
        CubicExtModel.eisenstein(p, u) for u in cube_class_reps(p)
    ]


def _norm(model, c):
    """Norm of c0 + c1 w + c2 w^2: the determinant of multiplication by it
    on (1, w, w^2), reduced by sympy modulo the defining polynomial."""
    import sympy

    w = sympy.Symbol("w")
    r0, r1, r2 = model.rule
    modulus = sympy.Poly(w**3 - r2 * w**2 - r1 * w - r0, w)
    x = sympy.Poly(c[0] + c[1] * w + c[2] * w**2, w)
    cols = []
    for j in range(3):
        coeffs = (x * sympy.Poly(w**j, w)).rem(modulus).all_coeffs()[::-1]
        cols.append(coeffs + [0] * (3 - len(coeffs)))
    return int(sympy.Matrix(3, 3, lambda i, j: cols[j][i]).det())


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_ext_model_val_equals_norm_valuation(p):
    from sympy import multiplicity

    rng = random.Random(p)
    for model in _models(p):
        for _ in range(40):
            c = tuple(rng.randint(-60, 60) * p ** rng.randint(0, 3) for _ in range(3))
            # built through the model's arithmetic, so _mul and + are covered
            x = model.embed_int(c[0]) + model.embed_int(c[1]) * model.w
            x = x + model.embed_int(c[2]) * (model.w * model.w)
            assert x.c == c
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
    assert all(type(t) is int for t in y.c)
    assert m.val(x) == 3 and m.val(y) == 2
    for c in ((-21, 0, 0), (7, 3, 5), (-14, -1, 2), (0, 0, 1)):
        x = _ExtElem(m, c)
        y = m.div_uniformizer(x)
        assert all(type(t) is int for t in y.c)
        assert m.val(y) == m.val(x) - 1
        # y is x divided by w/u: y * w = u * x
        assert (y * m.w).c == (m.embed_int(2) * x).c
    with pytest.raises(DomainError):
        m.div_uniformizer(m.one)
    e = CubicExtModel.unramified(7)
    with pytest.raises(DomainError):
        e.div_uniformizer(e.w)


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


@pytest.mark.parametrize("p", [5, 7, 11])
def test_orders_of_index_equals_fraction_reference(p):
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
    for ring in rings:
        for j in (1, 2):
            assert orders_of_index(ring, p, j) == _orders_reference(ring, p, j)


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


def test_oracle_imports_no_classification_layer():
    # the oracle checks the classification, so it must not consult it:
    # from localclass it takes only the construction of the unramified
    # cubic, and nothing from the ratio calculus or the families
    import ast

    import selmer3.oracle as oracle

    allowed = {
        "localclass": {"unramified_cubic_form"},
        "selmerratio": set(),
        "prym": set(),
        "twistfamilies": set(),
    }
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            taken = {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import m` and `from . import m` take a whole module
            taken = {(alias.name.rpartition(".")[2], "*") for alias in node.names}
        else:
            continue
        for module, name in taken:
            assert module not in allowed or name in allowed[module], (module, name)


def test_root_isolation_builds_integer_elements_only(monkeypatch):
    import selmer3.oracle as oracle

    built = []
    original = oracle._ExtElem.__init__

    def recording(self, model, c):
        built.append(c)
        original(self, model, c)

    monkeypatch.setattr(oracle._ExtElem, "__init__", recording)
    assert algebra_class_of_form(unramified_cubic_form(7), 7) == "unram"
    assert algebra_class_of_form(BinaryCubicForm(1, 0, 0, -14), 7) == "ram-u2"
    assert built
    assert all(type(t) is int for c in built for t in c)
