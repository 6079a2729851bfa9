"""The family scan against the per-member computations it replaces.

Enumerated classes carry their factorization from the sieve, exponents at
good places are memoized per (p, v(d) mod 2n, unit class) within one partition,
and the Prym report resolves its 3-adic input once.  These tests rebuild
the direct computations (sympy factorizations, a twist datum at every
relevant place, one assembly per member) and compare, and they count the
calls that the scan must no longer make.
"""

import json
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selmer3 import cli, localclass, localfield, prym, selmerratio, twistfamilies
from selmer3.cli import main
from selmer3.localclass import build_twist_datum
from selmer3.localfield import Place
from selmer3.prym import (
    PrymCurveConfig,
    ThreeAdicInput,
    assemble_local_exponents,
    family_report,
    load_preset,
)
from selmer3.selmerratio import (
    IsogenyDescriptor,
    KappaEntry,
    LocalPlaceProfile,
    archimedean_exponent,
    global_report,
    local_exponent,
    tk_partition,
)
from selmer3.twistfamilies import (
    CongruenceCondition,
    TwistClass,
    TwistFamily,
    enumerate_classes,
    family_preset,
    reduce_class,
)


# ----------------------------------------------------------------------
# Equivalence with the direct computations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["squarefree-n3", "full-n3", "sigma-36-2-11"])
def test_enumerated_factorizations_match_sympy(preset):
    factorint = pytest.importorskip("sympy").factorint
    members = enumerate_classes(family_preset(preset), 3000)
    assert members
    for tc in members:
        assert tc.factors is not None
        assert tc.factorization() == factorint(abs(tc.d0))


def _reference_entries(profiles, desc, d0, factorint):
    """The per-place loop the partition replaced: a twist datum and a
    local exponent at every profiled prime and every prime dividing d0."""
    by_prime = {prof.place.p: prof for prof in profiles if prof.place.is_finite}
    arch = next(prof for prof in profiles if not prof.place.is_finite)
    entries = [(arch.place.kind, archimedean_exponent(desc, d0), "archimedean")]
    for p in sorted(set(by_prime) | set(factorint(abs(d0)))):
        prof = by_prime.get(p) or LocalPlaceProfile(Place.finite(p))
        datum = build_twist_datum(p, d0, desc.m)
        k = local_exponent(prof, desc, datum)
        if prof.override_exponent is not None:
            prov = "override"
        elif datum.v_d == 0 or datum.v_d % 2 == 1:
            prov = "good"
        else:
            prov = "table2"
        entries.append((str(p), k, prov))
    return entries


def _unit_class_descriptor(m):
    # r >= 1 entries that differ by unit class, so that the memo key must
    # separate the unit residues; r = 0 entries are unit-independent
    entries = [KappaEntry(0, "any", 3, 1)]
    for r in range(1, m + 1):
        entries += [
            KappaEntry(r, "power", 1, 3),
            KappaEntry(r, "square", 3, 9),
            KappaEntry(r, "nonsquare", 9, 1),
        ]
    return IsogenyDescriptor(
        m=m, kernel_character=Fraction(-3), global_summand_bit=False, kappa_orders=tuple(entries)
    )


# the real place, the override at 3, a bad place with an override, and a
# good place (7 = 1 mod 3) profiled without one; 2 and the other primes
# are synthesized good places
PROFILES = [
    LocalPlaceProfile(Place.real()),
    LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=1),
    LocalPlaceProfile(Place.finite(5), reduction="bad", override_exponent=-1),
    LocalPlaceProfile(Place.finite(7)),
]


@pytest.mark.parametrize(
    "family, m",
    [
        # v(d) < 6 on full-n3, so r = 0 throughout
        (family_preset("full-n3"), 1),
        # level 9: v_2(d) = 6 at d = 64u puts r = 1 at p = 2
        (TwistFamily(n=9, name="full-n9"), 2),
    ],
)
def test_tk_partition_matches_per_place_reference(family, m):
    factorint = pytest.importorskip("sympy").factorint
    desc = _unit_class_descriptor(m)
    cells = tk_partition(family, desc, PROFILES, 3000)
    want: dict[int, list[int]] = {}
    provenances = set()
    for tc in enumerate_classes(family, 3000):
        entries = _reference_entries(PROFILES, desc, tc.d0, factorint)
        provenances |= {prov for _, _, prov in entries}
        want.setdefault(sum(k for _, k, _ in entries), []).append(tc.d0)
    assert provenances == {"archimedean", "override", "good", "table2"}
    assert {k: list(cell.members) for k, cell in cells.items()} == want
    assert all(cell.count == len(cell.members) for cell in cells.values())


_ORDERS = st.sampled_from([1, 3, 9])


@st.composite
def _partition_inputs(draw):
    """A family, a descriptor whose kappa orders depend on the unit class,
    profiles with or without overrides at 5 and 7, and a height bound.
    The family's level may differ from the descriptor's, and its
    congruence condition may sit at a prime with or without an override."""
    m = draw(st.integers(1, 2))
    bit = draw(st.booleans())
    entries = [KappaEntry(0, "any", 1 if bit else draw(st.sampled_from([3, 9])), draw(_ORDERS))]
    for r in range(1, m + 1):
        entries += [KappaEntry(r, label, draw(_ORDERS), draw(_ORDERS)) for label in ("power", "square", "nonsquare")]
    desc = IsogenyDescriptor(
        m=m,
        kernel_character=Fraction(draw(st.sampled_from([1, -1, -3, 2]))),
        global_summand_bit=bit,
        kappa_orders=tuple(entries),
    )
    profiles = [
        LocalPlaceProfile(Place.real()),
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=draw(st.integers(-2, 2))),
    ]
    for p in (5, 7):
        override = draw(st.sampled_from([None, "good", -1, 1, 2]))
        if override == "good":
            profiles.append(LocalPlaceProfile(Place.finite(p)))
        elif override is not None:
            profiles.append(LocalPlaceProfile(Place.finite(p), reduction="bad", override_exponent=override))
    conditions = ()
    modulus = draw(st.sampled_from([None, 8, 9, 25, 49, 35]))
    if modulus is not None:
        residues = draw(st.frozensets(st.integers(0, modulus - 1), min_size=1))
        conditions = (CongruenceCondition(modulus, residues),)
    family = TwistFamily(
        n=draw(st.sampled_from([3, 9, 27])),
        signs=draw(st.sampled_from([(1,), (-1,), (1, -1)])),
        conditions=conditions,
        squarefree=draw(st.booleans()),
    )
    return family, desc, profiles, draw(st.integers(1, 3000))


# Members +-256u of a level-9 family have v_2 = 8 >= 2n for a level-3
# descriptor: their unit class is that of u, not of 256u / 2^(8 mod 6).
_V_PAST_2N = (
    TwistFamily(n=9),
    IsogenyDescriptor(
        m=1,
        global_summand_bit=False,
        kappa_orders=(KappaEntry(0, "any", 9, 1),)
        + tuple(KappaEntry(1, label, 1, 1) for label in ("power", "square", "nonsquare")),
    ),
    [
        LocalPlaceProfile(Place.real()),
        LocalPlaceProfile(Place.finite(3), reduction="bad", override_exponent=0),
    ],
    3000,
)


@settings(max_examples=30, deadline=None)
@given(_partition_inputs())
@example(_V_PAST_2N)
def test_tk_partition_matches_per_member_reference_on_random_inputs(inputs):
    factorint = pytest.importorskip("sympy").factorint
    family, desc, profiles, height = inputs
    want: dict[int, list[int]] = {}
    for tc in enumerate_classes(family, height):
        # a family of another level is read at the descriptor's level
        d0 = reduce_class(tc.d0, desc.n).d0
        want.setdefault(sum(k for _, k, _ in _reference_entries(profiles, desc, d0, factorint)), []).append(tc.d0)
    cells = tk_partition(family, desc, profiles, height)
    assert {k: list(cell.members) for k, cell in cells.items()} == want


@pytest.mark.parametrize("height", [1, 2, 2500])
def test_tk_partition_walks_the_admitted_classes_and_sorts_no_base_run(monkeypatch, height):
    # under the scan's default config each sign's base run of a squarefree
    # family is a cell of its own, walked off the sign's classes in height
    # order, so no cell is sorted; a full family's mixed cells still are
    sorts, walks = [], []
    monkeypatch.setattr(selmerratio, "sorted", lambda xs, **kw: sorts.append(kw) or sorted(xs, **kw), raising=False)
    monkeypatch.setattr(selmerratio, "_walk", lambda *args: walks.append(args[1:]) or twistfamilies._walk(*args))
    config = cli._TRIVIAL_CONFIG
    sparse = TwistFamily(n=3, conditions=(CongruenceCondition(10**6, frozenset({1, 7, 999_983})),), squarefree=True)
    cells = tk_partition(sparse, config.descriptor, list(config.profiles), 10**6)
    assert [list(cell.members) for cell in cells.values()] == [[1, 7, 999_983], [-17, -999_993]]
    assert walks == [(1, 10**6, [1, 7, 999_983]), (-1, 10**6, [17, 999_993, 999_999])]
    for preset in ("squarefree-n3", "sigma-36-2-11"):
        family = family_preset(preset)
        cells = tk_partition(family, config.descriptor, list(config.profiles), height)
        assert [d0 for cell in cells.values() for d0 in cell.members] == sorted(
            (tc.d0 for tc in enumerate_classes(family, height)), key=lambda d0: (d0 < 0, abs(d0))
        )
    assert {"key": abs} not in sorts
    tk_partition(family_preset("full-n3"), config.descriptor, list(config.profiles), 50)
    assert {"key": abs} in sorts
    # at a complex place both signs' base runs share one cell, merged by the sort
    sorts.clear()
    complex_place = [LocalPlaceProfile(Place("complex")), *config.profiles[1:]]
    family = family_preset("squarefree-n3")
    want = [tc.d0 for tc in enumerate_classes(family, height)]
    cells = tk_partition(family, config.descriptor, complex_place, height)
    assert [list(cell.members) for cell in cells.values()] == ([want] if want else [])
    assert sorts.count({"key": abs}) == bool(want)


def test_global_report_matches_per_place_reference():
    factorint = pytest.importorskip("sympy").factorint
    # d = +-7^6 u: r = 1 at the profiled good place 7, where the units
    # 1, {2, 4} and {3, 5, 6} mod 7 are the power, square and nonsquare
    # classes; d = +-64u does the same at p = 2
    desc = _unit_class_descriptor(2)
    ds = [s * 7**6 * u for s in (1, -1) for u in range(1, 30) if u % 7]
    ds += [s * 64 * u for s in (1, -1) for u in range(1, 60, 2)]
    ds += [s * h for s in (1, -1) for h in range(1, 400)]
    for d in ds:
        report = global_report(PROFILES, desc, d)
        got = [(e.place_label, e.exponent, e.provenance) for e in report.entries]
        assert got == _reference_entries(PROFILES, desc, report.d0, factorint), d


@pytest.mark.parametrize("ordered", [None, {2: (1, 0)}])
def test_family_report_rows_match_single_assemblies(ordered):
    a4 = load_preset("prym-a4")
    config = PrymCurveConfig(
        a=a4.a,
        genus=a4.genus,
        dim_b=a4.dim_b,
        family=a4.family,
        three_adic=ThreeAdicInput(mode="unequal", product_exponent=2, ordered=ordered),
        kernel_characters=a4.kernel_characters,
        f_tilde=a4.f_tilde,
        trivial_points=a4.trivial_points,
        nontorsion_trivial_points=a4.nontorsion_trivial_points,
        name=a4.name,
    )
    report = family_report(config, 3000)
    assert [row.d0 for row in report.rows] == [tc.d0 for tc in enumerate_classes(config.family, 3000)]
    for row in report.rows:
        assert row == assemble_local_exponents(config, row.d0)


# ----------------------------------------------------------------------
# Work counts: deterministic, no wall clock
# ----------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a counting wrapper in every selmer3 module
    that holds it; returns the list of recorded argument tuples."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "selmer3" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _count_method_calls(monkeypatch, cls, name):
    """Replace the method cls.name by a counting wrapper; returns the list
    of recorded argument tuples, self first."""
    original = getattr(cls, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.fixture
def counts(monkeypatch):
    return {
        "factorize": _count_calls(monkeypatch, twistfamilies, "factorize"),
        "build_twist_datum": _count_calls(monkeypatch, localclass, "build_twist_datum"),
        "solve_three_adic": _count_calls(monkeypatch, prym, "solve_three_adic"),
        "is_square": _count_calls(monkeypatch, localfield, "is_square"),
        "is_prime": _count_calls(monkeypatch, localfield, "is_prime"),
        "enumerate_classes": _count_calls(monkeypatch, twistfamilies, "enumerate_classes"),
        "sieve_walk": _count_calls(monkeypatch, twistfamilies, "_sieve_walk"),
        "reduce_class": _count_calls(monkeypatch, twistfamilies, "reduce_class"),
        "admits": _count_method_calls(monkeypatch, TwistFamily, "admits"),
        "entries": _count_method_calls(monkeypatch, selmerratio._PlaceExponents, "entries"),
        "TwistClass": _count_method_calls(monkeypatch, TwistClass, "__post_init__"),
    }


def _run(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_scan_factors_nothing(counts, capsys):
    result = _run(capsys, "scan", "--family-preset", "squarefree-n3", "--height", "2500")
    assert result["member_count"] > 3000
    assert counts["factorize"] == []


def test_prym_report_factors_nothing_and_solves_once(counts, capsys):
    result = _run(capsys, "prym", "--preset", "prym-a4", "--height", "20000")
    assert result["member_count"] > 2000
    assert counts["factorize"] == []
    assert len(counts["solve_three_adic"]) == 1


def test_prym_request_builds_rows_straight_from_one_sieve_walk(counts, capsys):
    # no class object per member and no second enumeration: the rows come
    # from the family's one walk of its masks and factor sieve
    result = _run(capsys, "prym", "--preset", "prym-a4", "--height", "3000")
    assert result["member_count"] > 300
    assert counts["TwistClass"] == []
    assert counts["enumerate_classes"] == []
    assert len(counts["sieve_walk"]) == 1


def test_prym_request_writes_each_row_once_as_the_walk_yields_it(monkeypatch, counts, capsys):
    # a member's row is its text, made once from the walk: no row object, no
    # copy of the text, no per-row dispatch in the writer; the templates
    # build one row object and write its places once per skeleton, and one
    # good place per report
    assemblies = _count_method_calls(monkeypatch, prym.PrymLocalAssembly, "__new__")
    places = _count_method_calls(monkeypatch, prym.PlacePair, "to_json_obj")
    writes = _count_calls(monkeypatch, cli, "_write_json")
    reports = []
    report_of = cli.family_report
    monkeypatch.setattr(cli, "family_report", lambda *args: reports.append(report_of(*args)) or reports[-1])
    result = _run(capsys, "prym", "--preset", "prym-a4", "--height", "20000")
    (rows,) = [r.rows for r in reports]
    built = len(assemblies)
    assert result["member_count"] == len(rows) > 2000
    assert all(type(row) is str for row in rows)
    (texts,) = [args[0] for args in writes if type(args[0]) is cli._Texts]
    assert all(map(operator.is_, texts, rows)) and len(texts) == len(rows)
    assert len(writes) < 100  # the envelope's containers and the templates
    assert len(counts["sieve_walk"]) == 1 and len(counts["solve_three_adic"]) == 1
    skeletons = {id(r.skeleton) for r in family_report(load_preset("prym-a4"), 20000).rows}
    assert built <= len(skeletons)
    assert len(places) <= 3 * len(skeletons) + 1


def test_enumerate_classes_is_the_sieve_walk(counts):
    family = family_preset("full-n3")
    classes = enumerate_classes(family, 500)
    assert len(counts["sieve_walk"]) == 1 and len(counts["TwistClass"]) == len(classes)
    # each member as (d0, its factorization flat), from the walk's increasing primes
    makers = {s: lambda h, primes, s=s: (s * h, tuple(chain.from_iterable(Counter(primes).items()))) for s in (1, -1)}
    walk = twistfamilies._sieve_walk(*twistfamilies.admitted_masks(family, 500), makers)
    assert [(tc.d0, tc.factors) for tc in classes] == list(walk)


def test_prym_report_checks_no_member_again(counts, capsys):
    # the squarefree premise is checked when the config is built; the
    # members come from the family's sieve and 2 is decided by d mod 4
    result = _run(capsys, "prym", "--preset", "prym-a4", "--height", "20000")
    assert result["member_count"] > 2000
    assert counts["is_square"] == []
    assert counts["admits"] == []


def test_prym_report_resolves_each_skeleton_once(monkeypatch):
    # the real place is read once per sign and descriptor, and the
    # invariants once per skeleton, not per member
    arch = _count_calls(monkeypatch, selmerratio, "archimedean_exponent")
    checks = _count_calls(monkeypatch, prym, "_check_invariants")
    report = family_report(load_preset("prym-a4"), 20000)
    skeletons = {id(r.skeleton) for r in report.rows}
    assert len(report.rows) > 2000 and len(skeletons) == 2
    assert len(arch) <= 4
    assert len(checks) == len(skeletons)


def test_prym_envelope_writes_each_place_once(monkeypatch, capsys):
    # the skeleton's three places once per skeleton, and one good place per
    # report, whatever the number of distinct primes
    calls = _count_method_calls(monkeypatch, prym.PlacePair, "to_json_obj")
    result = _run(capsys, "prym", "--preset", "prym-a4", "--height", "20000")
    report = family_report(load_preset("prym-a4"), 20000)  # builds no JSON
    assert result["member_count"] == len(report.rows) > 2000
    assert len({p for r in report.rows for p in r.primes}) > 900
    assert len(calls) <= 3 * len({id(r.skeleton) for r in report.rows}) + 1


def test_full_scan_builds_no_member(counts, capsys):
    # the partition reads the family's masks and the additive sieve: no
    # class object, no per-member exponents, no reduction
    result = _run(capsys, "scan", "--family-preset", "full-n3", "--height", "2000")
    assert result["member_count"] > 3000
    assert counts["enumerate_classes"] == []
    assert counts["entries"] == []
    assert counts["reduce_class"] == []
    assert counts["TwistClass"] == []


def test_classify_proves_p_once(counts, capsys):
    result = _run(capsys, "classify", "--p", "7", "--d", "49")
    assert sum("representative" in row for row in result["classes"]) > 3
    assert len(counts["is_prime"]) == 1


def test_index_p_subrings_proves_p_once(counts):
    # one `Place` at entry, handed to every integrality check and every
    # subring's form_to_ring, however many zeros the form has mod p
    from selmer3.cubicforms import BinaryCubicForm, form_to_ring, index_p_subrings

    rng = random.Random(1700)
    sizes = set()
    for _ in range(200):
        p = rng.choice((5, 7, 11, 13))
        ring = form_to_ring(BinaryCubicForm(*(rng.randint(-30, 30) for _ in range(4))))
        counts["is_prime"].clear()
        sizes.add(len(index_p_subrings(ring, p)))
        assert counts["is_prime"] == [(p,)]
    assert sizes >= {0, 1, 2, 3}


def test_forms_request_on_one_place_proves_p_once(counts):
    # a caller holding the `Place` hands it to both steps of a forms
    # request; the answers are those of the int entry points
    from selmer3.cubicforms import BinaryCubicForm, form_to_ring, index_p_subrings, orbit_split

    rng = random.Random(1701)
    for _ in range(100):
        p = rng.choice((5, 7, 11, 13))
        f = BinaryCubicForm(*(rng.randint(-30, 30) for _ in range(4)))
        if f.discriminant() == 0:
            continue
        ring = form_to_ring(f)
        counts["is_prime"].clear()
        place = Place.finite(p)
        got = index_p_subrings(ring, place), orbit_split(f, place)
        assert counts["is_prime"] == [(p,)]
        assert got == (index_p_subrings(ring, p), orbit_split(f, p))


def test_norm_kernel_count_proves_p_once(counts):
    from selmer3.oracle import h1_counts_from_norm_kernel

    for p in (2, 5, 7, 11, 13):
        for d in (1, 2, 5, p, 3 * p, -7, Fraction(p, 4)):
            counts["is_prime"].clear()
            h1_counts_from_norm_kernel(p, d)
            assert counts["is_prime"] == [(p,)], (p, d)


def test_full_scan_proves_each_prime_at_most_once_per_datum(counts, capsys):
    # the primes come from the sieve and the table-2 exponents are keyed by
    # unit class: the scan builds no twist datum and proves no prime
    result = _run(capsys, "scan", "--family-preset", "full-n3", "--height", "2000")
    assert result["member_count"] > 3000
    assert counts["build_twist_datum"] == [] and counts["is_prime"] == []


def test_full_scan_builds_one_datum_per_memo_key(counts, capsys, monkeypatch):
    # no twist datum at all; the memo holds one exponent per unit class that
    # a member reaches: at most "nonsquare", "square" and "power" per odd
    # (p, v mod 2n), and the four unit residues mod 8 at p = 2
    rules = []
    init = selmerratio._PlaceExponents.__init__
    monkeypatch.setattr(selmerratio._PlaceExponents, "__init__", lambda self, *a: rules.append(self) or init(self, *a))
    result = _run(capsys, "scan", "--family-preset", "full-n3", "--height", "2000")
    assert result["member_count"] > 3000
    assert counts["build_twist_datum"] == []
    (rule,) = rules
    strata = Counter((p, v) for p, v, _ in rule.table2)
    assert strata[(2, 2)] == 4
    assert all(count <= (4 if p == 2 else 3) for (p, _), count in strata.items())


def test_point_requests_factor_once(counts, capsys, tmp_path):
    config = {
        "schema": 1,
        "descriptor": {"schema": 1, "m": 1, "kernel_character": "1",
                       "global_summand_bit": True, "name": "",
                       "kappa_orders": [{"r": 0, "unit_class": "any", "kappa": 1, "kappa_hat": 1}]},
        "profiles": [
            {"place": "real", "reduction": "good"},
            {"place": 3, "reduction": "bad", "override_exponent": 0},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    result = _run(capsys, "ratio", "--config", str(path), "--d", str(100003 * 999983))
    assert [e["place"] for e in result["places"]] == ["real", "3", "100003", "999983"]
    assert len(counts["factorize"]) == 1

    d = 2 * 100003 * 999007  # = 2 (mod 36), squarefree: a member of Sigma
    result = _run(capsys, "ratio", "--preset", "prym-a4", "--d", str(d))
    assert [e["place"] for e in result["pi"]["places"]] == ["real", "2", "3", "100003", "999007"]
    assert len(counts["factorize"]) == 2
    assert len(counts["solve_three_adic"]) == 1
