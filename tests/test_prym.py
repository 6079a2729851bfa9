from dataclasses import replace
from fractions import Fraction

import pytest

from selmer3 import prym
from selmer3.errors import DomainError, IncompleteConfigError
from selmer3.localfield import sextic_class_3adic
from selmer3.prym import (
    PrymCurveConfig,
    ThreeAdicInput,
    assemble_local_exponents,
    chabauty_point_bound,
    family_report,
    load_preset,
    solve_three_adic,
)
from selmer3.selmerratio import duality_exponent
from selmer3.twistfamilies import CongruenceCondition, TwistFamily, family_preset

from references import enumerate_classes


@pytest.fixture(scope="module")
def a4():
    return load_preset("prym-a4")


def test_preset_loads(a4):
    assert a4.name == "prym-a4"
    assert a4.a == 4
    assert a4.genus == 3 and a4.dim_b == 2
    assert a4.three_adic.mode == "unequal" and a4.three_adic.product_exponent == 2
    assert a4.three_adic.ordered is None
    assert a4.kernel_characters == (1, 1)
    assert (a4.f_tilde.curve_type, a4.f_tilde.max_r, a4.f_tilde.value) == ("plane_quartic", 2, 4)
    assert a4.trivial_points == 1 and a4.nontorsion_trivial_points == 0
    family = a4.family
    assert family is family_preset("sigma-36-2-11")
    assert family.n == 3 and family.signs == (1, -1)
    assert family.conditions == (CongruenceCondition(36, frozenset({2, 11})),)
    assert family.squarefree and family.name == "sigma-36-2-11"


def test_unknown_preset():
    with pytest.raises(DomainError):
        load_preset("prym-a5")


def test_three_adic_solver_unequal(a4):
    sols = solve_three_adic(a4)
    assert sols == [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    assert {tuple(sorted(s[:2])) for s in sols} == {(0, 1)}
    for s in sols:
        assert sum(s) == 2 and set(s) <= {0, 1}


def test_three_adic_solver_unsatisfiable(a4):
    bad = PrymCurveConfig(
        a=a4.a,
        genus=a4.genus,
        dim_b=a4.dim_b,
        family=a4.family,
        three_adic=ThreeAdicInput(mode="unequal", product_exponent=9),
        kernel_characters=a4.kernel_characters,
        f_tilde=a4.f_tilde,
        trivial_points=a4.trivial_points,
        nontorsion_trivial_points=a4.nontorsion_trivial_points,
    )
    with pytest.raises(DomainError):
        solve_three_adic(bad)


def test_assemble_d2(a4):
    asm = assemble_local_exponents(a4, 2)
    # d = 2 > 0: archimedean pair (-1, -1); 3-adic unordered {0, 1}
    by_place = {p.place_label: p for p in asm.places}
    assert by_place["real"].pair == (-1, -1)
    assert by_place["2"].pair == (0, 0)
    assert tuple(sorted(by_place["3"].pair)) == (0, 1)
    assert asm.pair_global == (-1, 0)
    ratios = {Fraction(3) ** k for k in asm.pair_global}
    assert ratios == {Fraction(1), Fraction(1, 3)}
    assert asm.k_pi == -1 and asm.parity == "odd"


def test_assemble_negative_twist(a4):
    asm = assemble_local_exponents(a4, -34)
    by_place = {p.place_label: p for p in asm.places}
    assert by_place["real"].pair == (0, 0)
    assert by_place["17"].pair == (0, 0)  # good squarefree place
    assert asm.pair_global == (0, 1)
    assert asm.k_pi == 1 and asm.parity == "odd"


def test_assemble_rejects_non_members(a4):
    with pytest.raises(DomainError):
        assemble_local_exponents(a4, -25)  # not squarefree, wrong class anyway
    with pytest.raises(DomainError):
        assemble_local_exponents(a4, 3)  # residue 3 mod 36


def test_every_member_has_one_trivial_ratio(a4):
    for tc in enumerate_classes(a4.family, 300):
        asm = assemble_local_exponents(a4, tc.d0)
        kp, ks = asm.pair_global
        assert 0 in (kp, ks)
        assert {abs(kp), abs(ks)} == {0, 1}


def test_duality_consistency_of_three_adic(a4):
    # applying the 3-adic duality k -> 1 - k to a solver assignment gives
    # another valid assignment (same constraints hold for the duals)
    for sol in solve_three_adic(a4):
        dual = tuple(duality_exponent(3, k) for k in sol)
        assert sum(dual) == 2 and set(dual) <= {0, 1}
        assert dual[0] != dual[1]


def test_ordered_three_adic_input(a4):
    ordered = PrymCurveConfig(
        a=a4.a,
        genus=a4.genus,
        dim_b=a4.dim_b,
        family=a4.family,
        three_adic=ThreeAdicInput(mode="unequal", product_exponent=2, ordered={2: (1, 0)}),
        kernel_characters=a4.kernel_characters,
        f_tilde=a4.f_tilde,
        trivial_points=a4.trivial_points,
        nontorsion_trivial_points=a4.nontorsion_trivial_points,
    )
    asm = assemble_local_exponents(ordered, 2)
    by_place = {p.place_label: p for p in asm.places}
    assert by_place["3"].pair == (1, 0) and by_place["3"].ordered
    assert asm.pair_global == (0, -1)  # now genuinely ordered (phi, psi)
    # every member of Sigma is in the sixth-power class of 2, so the single
    # ordered entry covers the family
    for tc in enumerate_classes(a4.family, 120):
        assemble_local_exponents(ordered, tc.d0)


def test_chabauty_point_bound(a4):
    assert chabauty_point_bound(a4, rank_cap=1) == 5
    assert chabauty_point_bound(a4, rank_cap=0) == 5
    with pytest.raises(DomainError):
        chabauty_point_bound(a4, rank_cap=2)


def test_chabauty_needs_f_tilde_entry(a4):
    odd = PrymCurveConfig(
        a=a4.a,
        genus=5,
        dim_b=2,
        family=a4.family,
        three_adic=a4.three_adic,
        kernel_characters=a4.kernel_characters,
        f_tilde=a4.f_tilde,
        trivial_points=1,
        nontorsion_trivial_points=0,
    )
    with pytest.raises(IncompleteConfigError):
        chabauty_point_bound(odd, rank_cap=1)  # r = 4 exceeds the table


def test_family_report_refuses_a_missing_f_tilde_entry_before_any_walk(a4, monkeypatch):
    config = replace(a4, f_tilde=replace(a4.f_tilde, max_r=1))  # the report's rank cap 1 needs r = 2
    monkeypatch.setattr(prym, "_sieve_walk", None)  # a walk would raise TypeError
    with pytest.raises(IncompleteConfigError, match="f-tilde value unavailable"):
        family_report(config, 10**6)


def test_family_report_aggregates(a4):
    report = family_report(a4, 500)
    assert report.avg_rank_bound == Fraction(7, 3)
    assert report.rank_le_1_density == Fraction(1, 3)
    assert report.point_bound == 5
    assert len(report.rows) == len(enumerate_classes(a4.family, 500))
    assert all(r.parity == "odd" for r in report.rows)


def test_family_report_empty_family(a4):
    report = family_report(a4, 2)  # Sigma has no members below height 2
    assert report.rows == ()
    assert report.avg_rank_bound == Fraction(7, 3)
    assert report.rank_le_1_density == Fraction(1, 3)
    assert report.point_bound == 5


def test_config_validation(a4):
    with pytest.raises(DomainError):
        PrymCurveConfig(
            a=Fraction(1),
            genus=3,
            dim_b=2,
            family=a4.family,
            three_adic=a4.three_adic,
            kernel_characters=a4.kernel_characters,
            f_tilde=a4.f_tilde,
            trivial_points=1,
            nontorsion_trivial_points=0,
        )


def test_config_refuses_a_family_that_is_not_squarefree(a4):
    # the assembly's closed forms at 2 and at the good places need it
    with pytest.raises(DomainError):
        PrymCurveConfig(
            a=a4.a,
            genus=a4.genus,
            dim_b=a4.dim_b,
            family=family_preset("full-n3"),
            three_adic=a4.three_adic,
            kernel_characters=a4.kernel_characters,
            f_tilde=a4.f_tilde,
            trivial_points=a4.trivial_points,
            nontorsion_trivial_points=a4.nontorsion_trivial_points,
        )


def test_prym_report_golden_file(a4):
    import json
    from pathlib import Path

    report = family_report(a4, 100)
    golden = json.loads(
        (Path(__file__).parent / "golden" / "prym_a4_height100.json").read_text()
    )
    assert report.to_json_obj() == golden


def test_members_satisfy_footnote_characterization(a4):
    from selmer3.localfield import Place, is_square

    q2, q3 = Place.finite(2), Place.finite(3)
    for tc in enumerate_classes(a4.family, 400):
        d = tc.d0
        assert not is_square(d, q2) and not is_square(-3 * d, q2)
        assert not is_square(d, q3) and not is_square(-3 * d, q3)


def test_report_json_equals_fresh_rows(a4):
    # a row's JSON, restated from the assembly's places and pairs
    import json

    report = family_report(a4, 2000)
    fresh_rows = []
    for row in report.rows:
        kp, ks = row.pair_global
        fresh_rows.append({
            "d": row.d0,
            "places": [p.to_json_obj() for p in row.places],
            "pair_global_k": [kp, ks],
            "pair_ratios": [str(Fraction(3) ** kp), str(Fraction(3) ** ks)],
            "k_pi": sum(p.pair[0] + p.pair[1] for p in row.places),
            "parity": row.parity,
            "three_adic_four": list(row.four_exponents),
        })
    obj = report.to_json_obj()
    assert len(report.rows) > 100
    assert json.loads(json.dumps(obj)) == {**obj, "rows": fresh_rows}


def _primes_above_3(d):
    return [p for p in range(5, abs(d) + 1) if d % p == 0 and all(p % q for q in range(2, p))]


def test_rows_share_one_skeleton_per_sign(a4):
    # the real place, 2 and 3 are fixed by the sign on Sigma, and every
    # other place adds (0, 0): a row carries its sign's skeleton
    report = family_report(a4, 2000)
    skeletons = {r.d0 > 0: r.skeleton for r in report.rows}
    assert len({id(r.skeleton) for r in report.rows}) == 2
    for row in report.rows:
        assert row.skeleton is skeletons[row.d0 > 0]
        assert row.places[:3] == row.skeleton.places
        assert list(row.primes) == _primes_above_3(row.d0)
        assert [p.place_label for p in row.places[3:]] == [str(p) for p in row.primes]
        assert all(p.pair == (0, 0) and p.provenance == "good" for p in row.places[3:])
        assert row.pair_global == tuple(sorted(map(sum, zip(*(p.pair for p in row.places)))))


@pytest.mark.parametrize(
    "sign, residues, first",
    [
        (1, {1}, 1),  # d = 1, 5, 13, ...
        (1, {1, 2}, 1),
        (-1, {1}, -3),  # d = -3, -7, -11, ...: -h = 1 (mod 4) at h = 3 (mod 4)
        (-1, {1, 3}, -3),
    ],
)
def test_family_report_refuses_a_member_that_is_1_mod_4(a4, monkeypatch, sign, residues, first):
    # d or -3d is then a 2-adic square; the refusal reads the sign's mask,
    # so it fires from the first such member on, before any row is built
    family = TwistFamily(
        n=3, signs=(sign,), conditions=(CongruenceCondition(4, frozenset(residues)),), squarefree=True
    )
    config = replace(a4, family=family)
    assert [tc.d0 for tc in enumerate_classes(family, abs(first) + 1)][-1] == first
    below = family_report(config, abs(first))  # no member 1 (mod 4) yet
    assert all(r.d0 % 4 != 1 for r in below.rows)
    with pytest.raises(DomainError, match="2-adic square"):
        assemble_local_exponents(config, first)
    monkeypatch.setattr(prym, "_sieve_walk", None)  # a walk would raise TypeError
    for height in (abs(first) + 1, 200):
        with pytest.raises(DomainError, match="2-adic square"):
            family_report(config, height)


@pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)])
def test_family_report_keeps_a_family_with_no_member_1_mod_4(a4, signs):
    # -1 = 3 (mod 4) and -5 = 3 (mod 4): the negative sign's mask is read
    # at h = 3 (mod 4), not at h = 1
    family = TwistFamily(
        n=3, signs=signs, conditions=(CongruenceCondition(4, frozenset({2, 3})),), squarefree=True
    )
    report = family_report(replace(a4, family=family), 200)
    assert [r.d0 for r in report.rows] == [tc.d0 for tc in enumerate_classes(family, 200)]
    assert any(r.d0 < 0 and -r.d0 % 4 == 1 for r in report.rows) == (-1 in signs)


@pytest.mark.parametrize(
    "ordered, error, match",
    [
        ({5: (1, 0)}, IncompleteConfigError, "sixth-power class 2$"),  # every member of Sigma is in the class of 2
        ({2: (1, 1)}, DomainError, "contradicts the constraints"),
    ],
)
def test_ordered_three_adic_refusal_comes_before_any_walk(a4, monkeypatch, ordered, error, match):
    # a member's skeleton depends on its sign and d mod 27 only, so the
    # family's masks decide each refusal before the walk begins
    config = replace(a4, three_adic=ThreeAdicInput(mode="unequal", product_exponent=2, ordered=ordered))
    assert family_report(config, 2).rows == ()  # no member below 2, so nothing to refuse
    monkeypatch.setattr(prym, "_sieve_walk", None)  # a walk would raise TypeError
    for height in (3, 3000):
        with pytest.raises(error, match=match):
            family_report(config, height)


def test_ordered_three_adic_refusal_waits_for_a_member_of_the_missing_class(a4, monkeypatch):
    # the order at 3 is given for the classes of the members below 20: a
    # report is refused from the first member of another class on
    family = TwistFamily(n=3, conditions=(CongruenceCondition(4, frozenset({2, 3})),), squarefree=True)
    members = [tc.d0 for tc in enumerate_classes(family, 500)]
    given = {sextic_class_3adic(d).representative for d in members if abs(d) < 20}
    first = next(d for d in members if sextic_class_3adic(d).representative not in given)
    config = replace(a4, family=family, three_adic=ThreeAdicInput(ordered={rep: (0, 1) for rep in given}))
    below = family_report(config, abs(first))
    assert [r.d0 for r in below.rows] == [d for d in members if abs(d) < abs(first)]
    monkeypatch.setattr(prym, "_sieve_walk", None)  # a walk would raise TypeError
    with pytest.raises(IncompleteConfigError, match=f"sixth-power class {sextic_class_3adic(first).representative}$"):
        family_report(config, abs(first) + 1)


def test_sixth_power_class_of_a_squarefree_d_is_read_mod_27():
    # v_3(d) <= 1 and the unit is read mod 9, so d mod 27 fixes the class
    bound = 10**4
    squarefree = bytearray([1]) * bound
    for p in range(2, 100):
        squarefree[p * p :: p * p] = bytes(len(range(p * p, bound, p * p)))
    for h in range(1, bound):
        if squarefree[h]:
            for d0 in (h, -h):
                assert prym._SIXTH_POWER_CLASS[d0 % 27] == sextic_class_3adic(d0).representative, d0
