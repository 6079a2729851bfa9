import random
from fractions import Fraction

import pytest

from selmer3.cli import _TRIVIAL_CONFIG
from selmer3.errors import DomainError, IncompleteConfigError
from selmer3.localclass import build_twist_datum
from selmer3.localfield import Place
from selmer3.selmerratio import (
    MAX_REPORTED_EXPONENT,
    IsogenyDescriptor,
    KappaEntry,
    LocalPlaceProfile,
    RatioConfig,
    archimedean_exponent,
    average_selmer_prediction,
    cm_ratio_check,
    duality_exponent,
    euler_product_average,
    global_report,
    greenberg_wiles_check,
    local_exponent,
    parity_prediction,
    rank_density_bounds,
    tk_partition,
)
from selmer3.twistfamilies import TwistFamily, family_preset


def trivial_kappa_descriptor(m=1, summand=True, kappa=1, kappa_hat=1):
    entries = [KappaEntry(0, "any", kappa if summand else 3, kappa_hat)]
    for r in range(1, m + 1):
        entries.append(KappaEntry(r, "any", kappa, kappa_hat))
    return IsogenyDescriptor(
        m=m, global_summand_bit=summand, kappa_orders=tuple(entries)
    )


def standard_profiles(three_exponent=0, bad=()):
    profiles = [LocalPlaceProfile(Place.real())]
    profiles.append(
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=three_exponent)
    )
    for p, k in bad:
        profiles.append(LocalPlaceProfile(Place.finite(p), reduction="bad", override_exponent=k))
    return profiles


def test_local_exponent_table_cells():
    desc = trivial_kappa_descriptor()
    # (Q_5 good, v(d)=2, d square, |kappa| = 1): exponent -1, ratio 1/3
    prof = LocalPlaceProfile(Place.finite(5))
    datum = build_twist_datum(5, 25)
    assert local_exponent(prof, desc, datum) == -1
    # (Q_7 good, v(d)=2, d square, |kappa| = |kappa-hat| = 3): exponent 0
    desc7 = IsogenyDescriptor(
        m=1,
        global_summand_bit=False,
        kappa_orders=(KappaEntry(0, "any", 3, 3),),
    )
    assert local_exponent(LocalPlaceProfile(Place.finite(7)), desc7, build_twist_datum(7, 49)) == 0
    # -3d square at p = 5 with |kappa-hat| = 1: exponent +1
    assert local_exponent(prof, desc, build_twist_datum(5, -3 * 25)) == 1
    # d = 50: v = 2 with unit 2, so -3d is square at 5: also +1
    assert local_exponent(prof, desc, build_twist_datum(5, 50)) == 1
    # neither square (p = 7, unit 3): 0
    datum_neither = build_twist_datum(7, 49 * 3)
    assert local_exponent(LocalPlaceProfile(Place.finite(7)), desc7, datum_neither) == 0


def test_local_exponent_good_and_odd_valuations():
    desc = trivial_kappa_descriptor()
    prof = LocalPlaceProfile(Place.finite(5))
    assert local_exponent(prof, desc, build_twist_datum(5, 2)) == 0
    assert local_exponent(prof, desc, build_twist_datum(5, 5)) == 0
    assert local_exponent(prof, desc, build_twist_datum(5, 5**3)) == 0


def test_archimedean_rule():
    desc = trivial_kappa_descriptor()
    assert archimedean_exponent(desc, 2) == -1
    assert archimedean_exponent(desc, -2) == 0
    neg_kernel = IsogenyDescriptor(
        m=1, kernel_character=Fraction(-1), kappa_orders=(KappaEntry(0, "any", 1, 1),)
    )
    assert archimedean_exponent(neg_kernel, 2) == 0
    assert archimedean_exponent(neg_kernel, -2) == -1
    prof = LocalPlaceProfile(Place.complex())
    assert local_exponent(prof, desc) == -1


def test_override_rules():
    desc = trivial_kappa_descriptor()
    prof = LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=2)
    assert local_exponent(prof, desc) == 2
    with pytest.raises(IncompleteConfigError):
        LocalPlaceProfile(Place.finite(3))
    with pytest.raises(IncompleteConfigError):
        LocalPlaceProfile(Place.finite(7), reduction="bad")


def test_global_report_squarefree_twist():
    desc = trivial_kappa_descriptor()
    report = global_report(standard_profiles(), desc, 30)
    finite = [e for e in report.entries if e.place_label not in ("real", "complex")]
    assert all(e.exponent == 0 for e in finite)
    assert report.global_exponent == archimedean_exponent(desc, 30) == -1


def test_global_report_twist_invariance():
    desc = trivial_kappa_descriptor()
    rng = random.Random(3)
    profiles = standard_profiles()
    for _ in range(100):
        d = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
        t = Fraction(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1])
        r1 = global_report(profiles, desc, d)
        r2 = global_report(profiles, desc, d * t**6)
        assert r1 == r2


def test_global_report_requires_three_adic_coverage():
    desc = trivial_kappa_descriptor()
    with pytest.raises(IncompleteConfigError) as err:
        global_report([LocalPlaceProfile(Place.real())], desc, 30)
    assert "3" in str(err.value)


def test_global_report_covers_primes_dividing_d():
    desc = trivial_kappa_descriptor()
    report = global_report(standard_profiles(), desc, 25)
    by_place = {e.place_label: e.exponent for e in report.entries}
    assert by_place["5"] == -1  # v = 2, d square, |kappa| = 1
    assert report.global_exponent == -1 + -1


def test_average_selmer_prediction():
    assert average_selmer_prediction(0) == 2
    assert average_selmer_prediction(1) == 4
    assert average_selmer_prediction(-2) == Fraction(10, 9)


def test_euler_product_squarefree_family():
    desc = trivial_kappa_descriptor()
    fam = family_preset("squarefree-n3")
    avg = euler_product_average(fam, desc, standard_profiles())
    # both signs: archimedean average (1/3 + 1)/2 = 2/3, all finite factors 1
    assert avg == 1 + Fraction(2, 3)


def test_euler_product_full_family_symmetric_kappas():
    # |kappa| = |kappa-hat| = 3 everywhere makes every generic factor 1
    desc = IsogenyDescriptor(
        m=1,
        global_summand_bit=False,
        kappa_orders=(KappaEntry(0, "any", 3, 3), KappaEntry(1, "any", 3, 3)),
    )
    fam = family_preset("full-n3")
    avg = euler_product_average(fam, desc, standard_profiles())
    assert avg == 1 + Fraction(2, 3)


def test_euler_product_full_family_incomplete():
    desc = trivial_kappa_descriptor()  # |kappa| = 1: generic factor not 1
    fam = family_preset("full-n3")
    with pytest.raises(IncompleteConfigError):
        euler_product_average(fam, desc, standard_profiles())


def test_euler_product_empty_signs_rejected():
    with pytest.raises(DomainError):
        TwistFamily(signs=())


def test_greenberg_wiles_fixtures():
    assert greenberg_wiles_check((1, 0), (1, 1), 1)
    assert not greenberg_wiles_check((0, 0), (1, 1), 1)
    assert greenberg_wiles_check((2, 1), (3, 1), 0)  # 3^1 * (1/3) = 1


def test_duality_exponent():
    assert duality_exponent(3, 0) == 1
    assert duality_exponent(3, 1) == 0
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(-5, 5)
        assert duality_exponent(3, duality_exponent(3, k)) == k
    with pytest.raises(DomainError):
        duality_exponent(2, 0)


def test_parity_prediction():
    assert parity_prediction(-1) == "odd"
    assert parity_prediction(0) == "even"
    assert parity_prediction(2) == "even"


def test_rank_density_bounds():
    assert rank_density_bounds(0) == (Fraction(1), Fraction(1, 2))
    assert rank_density_bounds(1) == (Fraction(4, 3), Fraction(5, 6))
    assert rank_density_bounds(-1) == (Fraction(4, 3), Fraction(5, 6))
    for k in range(-60, 61):
        inverse = Fraction(1, 3 ** abs(k))
        assert rank_density_bounds(k) == (abs(k) + inverse, 1 - inverse / 2)


def test_rank_density_bounds_refuses_unreported_exponents():
    assert rank_density_bounds(-MAX_REPORTED_EXPONENT)[0] > MAX_REPORTED_EXPONENT
    for k in (MAX_REPORTED_EXPONENT + 1, -MAX_REPORTED_EXPONENT - 1):
        with pytest.raises(DomainError):
            rank_density_bounds(k)


@pytest.mark.parametrize("family", [family_preset("full-n3"), TwistFamily(n=9, name="full-n9")])
def test_every_tk_cell_carries_the_rank_density_bounds(family):
    config = _TRIVIAL_CONFIG  # what `scan` reads without --config
    cells = tk_partition(family, config.descriptor, list(config.profiles), 2000)
    assert sorted(cells) == list(range(-3, 3))
    for k, cell in cells.items():
        assert (cell.avg_dim_bound, cell.dim_density_bound) == rank_density_bounds(k)


def test_cm_ratio_check():
    for g, n_places in ((1, 1), (3, 3), (9, 9)):
        check = cm_ratio_check(g, n_places)
        assert check.c3_exponent == 0
        assert check.pi_exponent == 0
        assert check.avg_selmer == 2
        assert check.avg_rank_bound == Fraction(1, 2)


def test_cm_multiplicativity_of_chain():
    # 2g conjugate isogenies compose to multiplication by 3 (up to a unit);
    # the chain exponents must sum to the triplication exponent
    check = cm_ratio_check(3, 3)
    assert 2 * check.g * check.pi_exponent == check.c3_exponent


def test_tk_partition_squarefree_preset():
    desc = trivial_kappa_descriptor()
    fam = family_preset("squarefree-n3")
    cells = tk_partition(fam, desc, standard_profiles(), 60)
    assert set(cells) == {-1, 0}
    assert cells[-1].exact_density == Fraction(1, 2)
    assert cells[0].exact_density == Fraction(1, 2)
    assert all(d > 0 for d in cells[-1].members)
    assert all(d < 0 for d in cells[0].members)
    assert cells[-1].avg_selmer == Fraction(4, 3)
    assert cells[0].avg_dim_bound == 1


def test_tk_partition_single_sign_single_cell():
    desc = trivial_kappa_descriptor()
    fam = TwistFamily(n=3, signs=(1,), squarefree=True)
    cells = tk_partition(fam, desc, standard_profiles(), 40)
    assert set(cells) == {-1}
    assert cells[-1].exact_density == 1


def test_config_round_trip():
    desc = trivial_kappa_descriptor()
    cfg = RatioConfig(desc, tuple(standard_profiles(bad=((2, 0),))))
    again = RatioConfig.from_json_obj(cfg.to_json_obj())
    assert again == cfg


def test_descriptor_validation():
    with pytest.raises(DomainError):
        IsogenyDescriptor(m=1, kappa_orders=(KappaEntry(0, "any", 3, 1),))
    with pytest.raises(DomainError):
        KappaEntry(0, "square", 1, 1)
    with pytest.raises(DomainError):
        KappaEntry(1, "any", 2, 1)


@pytest.mark.parametrize("place", [Place.real(), Place.complex()])
def test_an_override_at_an_archimedean_place_is_ignored(place):
    # overrides are data of finite places: the archimedean exponent comes
    # from the sign of d (real) or is -1 (complex), and an override there
    # enters neither a report nor the constant of any T_k cell
    desc = trivial_kappa_descriptor()
    plain = [LocalPlaceProfile(place)] + standard_profiles()[1:]
    marked = [LocalPlaceProfile(place, override_exponent=5)] + standard_profiles()[1:]
    for d in (2, -2, 50, -7**2 * 11):
        assert local_exponent(marked[0], desc, d=d) == local_exponent(plain[0], desc, d=d)
        assert global_report(marked, desc, d) == global_report(plain, desc, d)
    for name in ("squarefree-n3", "full-n3"):
        fam = family_preset(name)
        assert tk_partition(fam, desc, marked, 300) == tk_partition(fam, desc, plain, 300)
    fam = family_preset("squarefree-n3")
    assert euler_product_average(fam, desc, marked) == euler_product_average(fam, desc, plain)


@pytest.mark.parametrize(
    "profiles",
    [
        [LocalPlaceProfile(Place.complex())] + standard_profiles(),
        standard_profiles(bad=((7, 2),)) + [LocalPlaceProfile(Place.finite(7))],
    ],
    ids=["archimedean", "prime"],
)
def test_a_place_profiled_twice_is_refused(profiles):
    desc = trivial_kappa_descriptor()
    fam = family_preset("squarefree-n3")
    with pytest.raises(DomainError, match="profiled"):
        euler_product_average(fam, desc, profiles)
    with pytest.raises(DomainError, match="profiled"):
        global_report(profiles, desc, -14)


def test_euler_product_with_place_two_profile():
    # good reduction at 2 with symmetric extension classes: factor 1;
    # with split classes the four unit classes mod 8 average to 4/3 per
    # even positive stratum, so the factor exceeds 1 and is refused
    fam = family_preset("full-n3")
    symmetric = IsogenyDescriptor(
        m=1,
        global_summand_bit=False,
        kappa_orders=(KappaEntry(0, "any", 3, 3), KappaEntry(1, "any", 3, 3)),
    )
    profiles = standard_profiles() + [LocalPlaceProfile(Place.finite(2))]
    assert euler_product_average(fam, symmetric, profiles) == 1 + Fraction(2, 3)

    split = IsogenyDescriptor(
        m=1,
        global_summand_bit=True,
        kappa_orders=(KappaEntry(0, "any", 1, 1), KappaEntry(1, "any", 1, 1)),
    )
    with pytest.raises(IncompleteConfigError):
        euler_product_average(fam, split, profiles)


def test_greenberg_wiles_accepts_report():
    desc = trivial_kappa_descriptor()
    report = global_report(standard_profiles(), desc, 30)
    assert report.global_exponent == -1
    assert greenberg_wiles_check((0, 1), (1, 1), report)


def test_euler_product_congruence_guard():
    from selmer3.twistfamilies import CongruenceCondition

    desc = IsogenyDescriptor(
        m=1,
        global_summand_bit=False,
        kappa_orders=(KappaEntry(0, "any", 3, 3), KappaEntry(1, "any", 3, 3)),
    )
    # squarefree congruence family: fine (strata ratios are 1 regardless)
    sigma = family_preset("sigma-36-2-11")
    avg = euler_product_average(sigma, desc, standard_profiles(bad=((2, 0),)))
    assert avg == 1 + Fraction(2, 3)
    # the same congruence without the squarefree restriction reshapes the
    # measure at 2 and 3 and is refused unless those places carry overrides
    loose = TwistFamily(
        n=3, conditions=(CongruenceCondition(36, frozenset({2, 11})),)
    )
    with pytest.raises(IncompleteConfigError):
        euler_product_average(loose, desc, standard_profiles())


def _label_descriptor(rng, m):
    """A level-3^m descriptor whose r >= 1 entries key "power", "square"
    and "nonsquare" with independently drawn orders."""
    summand = rng.choice([True, False])
    entries = [KappaEntry(0, "any", 1 if summand else 3, rng.choice([1, 3]))]
    for r in range(1, m + 1):
        for label in ("power", "square", "nonsquare"):
            entries.append(KappaEntry(r, label, rng.choice([1, 3, 9]), rng.choice([1, 3, 9])))
    return IsogenyDescriptor(m=m, global_summand_bit=summand, kappa_orders=tuple(entries))


def _symmetric_descriptor(m, key=None, orders=None):
    """A level-3^m descriptor with |kappa| = |kappa-hat| = 3 on every entry,
    so that every table-2 exponent is 0, except that the entry at `key`
    (an (r, unit class) pair) takes `orders`, or is left out when `orders`
    is None."""
    keys = [(0, "any")] + [(r, label) for r in range(1, m + 1) for label in ("power", "square", "nonsquare")]
    table = {k: (orders if k == key else (3, 3)) for k in keys}
    entries = tuple(KappaEntry(r, label, *kk) for (r, label), kk in table.items() if kk)
    return IsogenyDescriptor(m=m, global_summand_bit=table[(0, "any")][0] == 1, kappa_orders=entries)


_GOOD_PRIMES_BELOW_100 = [p for p in range(2, 100) if p != 3 and all(p % q for q in range(2, p))]


def _units(p):
    return (1, 3, 5, 7) if p == 2 else range(1, p)


def _brute_force_vanish(desc):
    """Every table-2 exponent 0 at every prime p < 100 other than 3, every
    unit residue and every even stratum 2 <= v(d) < 2n."""
    for p in _GOOD_PRIMES_BELOW_100:
        prof = LocalPlaceProfile(Place.finite(p))
        for u in _units(p):
            for j in range(2, 2 * desc.n, 2):
                try:
                    if local_exponent(prof, desc, build_twist_datum(p, u * p**j, desc.m)):
                        return False
                except IncompleteConfigError:
                    return False
    return True


def _vanish_descriptors():
    rng = random.Random(2107)
    descs = [_label_descriptor(rng, m) for m in (1, 2, 3) for _ in range(2)]
    descs += [_symmetric_descriptor(m) for m in (1, 2, 3)]
    # r = 1 is out of reach at level 3; "square" keys only the squares
    # that are not 3^r-th powers, which exist at p = 1 (mod 3) alone
    descs += [
        _symmetric_descriptor(1, (1, "power"), (1, 1)),
        _symmetric_descriptor(1, (0, "any"), (1, 3)),
        _symmetric_descriptor(2, (1, "square"), (9, 9)),
        _symmetric_descriptor(2, (1, "square"), (1, 3)),
        _symmetric_descriptor(2, (1, "square"), None),
        _symmetric_descriptor(3, (2, "square"), (9, 3)),
    ]
    return descs


def test_good_places_vanish_matches_every_prime_below_100():
    from selmer3.selmerratio import _good_places_vanish

    descs = _vanish_descriptors()
    got = [_good_places_vanish(TwistFamily(n=desc.n), desc) for desc in descs]
    assert got == [_brute_force_vanish(desc) for desc in descs]
    assert got[6:] == [True] * 4 + [False, True, False, False, False]


def _exponent_or_refusal(call):
    try:
        return call()
    except IncompleteConfigError:
        return "incomplete"


def _table2_from_square_classes(orders, datum, powers):
    """Table 2 read off the datum's own square classes of d and -3d, with
    kappa found by a label chain built from them and `powers`, the 3^r-th
    powers mod p, in `orders`, {(r, label): (|kappa|, |kappa-hat|)}."""
    p, r, sq = datum.place.p, datum.r, datum.squares
    unit = datum.u.numerator * pow(datum.u.denominator, -1, p) % p
    if not sq.d_is_square:
        chain = ("nonsquare", "any")
    elif p == 2 or unit in powers:
        chain = ("power", "square", "any")
    else:
        chain = ("square", "any")
    found = [orders[r, label] for label in chain if (r, label) in orders]
    if not found:
        return "incomplete"
    kappa, kappa_hat = ({1: 0, 3: 1, 9: 2}[k] for k in found[0])
    if p % 3 == 1:
        return kappa - kappa_hat if (sq.d_is_square or sq.minus3d_is_square) else 0
    if sq.d_is_square:
        return kappa - 1
    return 1 - kappa_hat if sq.minus3d_is_square else 0


def test_class_keyed_exponent_matches_the_twist_datum_at_every_residue():
    # the partition's memo keys each exponent by (p, v mod 2n, unit class);
    # at every good prime p < 100, every unit residue and every even
    # stratum 2 <= v < 2n it agrees with the exponent of the twist datum of
    # u p^v and with table 2 read off the datum's square classes, and all
    # three refuse exactly the same cells.  v + 2n reads the same exponent
    # (the unit is divided out with the unreduced v), and v = 2n reads 0.
    from selmer3.selmerratio import _PlaceExponents

    descs = _vanish_descriptors()
    rules = [_PlaceExponents(standard_profiles(), desc) for desc in descs]
    orders = [{(e.r, e.unit_class): (e.kappa, e.kappa_hat) for e in desc.kappa_orders} for desc in descs]
    refused = compared = 0
    for p in _GOOD_PRIMES_BELOW_100:
        prof = LocalPlaceProfile(Place.finite(p))
        powers = [{pow(x, 3**r, p) for x in range(1, p)} for r in range(3)]
        for u in _units(p):
            data = {(m, v): build_twist_datum(p, u * p**v, m) for m in (1, 2, 3) for v in range(2, 2 * 3**m, 2)}
            for desc, rule, table in zip(descs, rules, orders):
                two_n = 2 * desc.n
                assert rule.table2_exponent(p, two_n, u * p**two_n) == 0
                for v in range(2, two_n, 2):
                    datum = data[desc.m, v]
                    want = _exponent_or_refusal(lambda: local_exponent(prof, desc, datum))
                    assert _table2_from_square_classes(table, datum, powers[datum.r]) == want, (p, u, v)
                    for w in (v, v + two_n):
                        assert _exponent_or_refusal(lambda: rule.table2_exponent(p, w, u * p**w)) == want, (p, u, w)
                    refused += want == "incomplete"
                    compared += 1
    assert compared > 150_000 and refused > 300


def _complex_profiles():
    return [
        LocalPlaceProfile(Place.complex()),
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=1),
    ]


def test_complex_place_puts_every_member_in_one_cell():
    desc = trivial_kappa_descriptor()
    fam = family_preset("squarefree-n3")
    cells = tk_partition(fam, desc, _complex_profiles(), 100)
    assert list(cells) == [0]
    assert cells[0].count == 122
    assert cells[0].exact_density == 1
    assert euler_product_average(fam, desc, _complex_profiles()) == 2


def test_euler_product_refuses_what_the_scan_refuses():
    desc = trivial_kappa_descriptor()
    fam = family_preset("squarefree-n3")
    with pytest.raises(IncompleteConfigError):
        euler_product_average(fam, desc, standard_profiles()[1:])
    with pytest.raises(IncompleteConfigError):
        euler_product_average(fam, desc, standard_profiles()[:1])


def test_euler_product_counts_only_reachable_strata():
    # full-n3 has v(d) < 6, so r = 0 on every member: the level-9
    # descriptor's r = 1 orders, which would make exponents nonzero, are
    # out of reach, and the sign alone decides the cell
    desc = IsogenyDescriptor(
        m=2,
        global_summand_bit=False,
        kappa_orders=(KappaEntry(0, "any", 3, 3), KappaEntry(1, "any", 1, 1)),
    )
    fam = family_preset("full-n3")
    assert euler_product_average(fam, desc, standard_profiles()) == 1 + Fraction(2, 3)
    cells = tk_partition(fam, desc, standard_profiles(), 2000)
    assert {k: cell.exact_density for k, cell in cells.items()} == {-1: Fraction(1, 2), 0: Fraction(1, 2)}
    with pytest.raises(IncompleteConfigError):
        euler_product_average(TwistFamily(n=9), desc, standard_profiles())


_SYMMETRIC = IsogenyDescriptor(
    m=1,
    global_summand_bit=False,
    kappa_orders=(KappaEntry(0, "any", 3, 3), KappaEntry(1, "any", 3, 3)),
)


@pytest.mark.parametrize("preset", ["squarefree-n3", "full-n3", "sigma-36-2-11"])
@pytest.mark.parametrize(
    "desc, profiles",
    [
        (trivial_kappa_descriptor(kappa=1), standard_profiles()),
        (_SYMMETRIC, standard_profiles(three_exponent=2, bad=((2, -1),))),
    ],
    ids=["trivial", "symmetric"],
)
def test_densities_are_read_off_the_configuration(preset, desc, profiles):
    from selmer3.selmerratio import _PlaceExponents, _sign_densities

    fam = family_preset(preset)
    const = sum(prof.override_exponent or 0 for prof in profiles)
    densities = _sign_densities(fam, _PlaceExponents(profiles, desc))
    # |kappa| = 1 gives nonzero exponents at even positive v(d)
    assert (densities is None) == (preset == "full-n3" and desc is not _SYMMETRIC)
    if densities is not None:
        assert sum(densities.values()) == 1
    for height in [*range(2, 41), 2000]:
        cells = tk_partition(fam, desc, profiles, height)
        assert {k: cell.exact_density for k, cell in cells.items()} == {
            k: None if densities is None else densities.get(k) for k in cells
        }
        if densities is not None:
            for k, cell in cells.items():
                assert all(archimedean_exponent(desc, d) + const == k for d in cell.members)
