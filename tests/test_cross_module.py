"""Consistency checks that tie the layers together: representatives against
the oracle's algebra classifier, soluble classes against ratio exponents,
the classification grid against the truncated-ring witnesses, and the
package's exports against what its `__init__` imports."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import selmer3
from selmer3.localclass import (
    build_twist_datum,
    classify_integral,
    integral_representative,
    soluble_classes,
)
from selmer3.localfield import Place, least_nonresidue, unit_part, valuation
from selmer3.oracle import algebra_class_of_form
from selmer3.selmerratio import (
    IsogenyDescriptor,
    KappaEntry,
    LocalPlaceProfile,
    local_exponent,
)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("v", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("unit", ["square", "nonsquare"])
def test_every_integral_class_has_verified_representative(p, v, unit):
    u0 = 1 if unit == "square" else least_nonresidue(p)
    d = Fraction(u0) * Fraction(p) ** v
    for cls in classify_integral(p, d):
        if not cls.integral:
            continue
        form = integral_representative(p, d, cls)
        assert form.is_p_integral(p)
        disc = form.discriminant()
        assert valuation(disc, p) == v
        # the oracle's independent classifier agrees with the class kind
        algebra = algebra_class_of_form(form, p)
        if cls.kind == "trivial":
            assert algebra == "split"
        elif cls.kind.startswith("unram"):
            assert algebra == "unram"
        else:
            assert algebra.startswith("ram-")


def test_fractional_p_integral_twist_parameter():
    d = Fraction(25, 49)  # 5-integral, v_5 = 2, unit 1/49 a square at 5
    classes = classify_integral(5, d)
    assert {(c.kind, c.integral) for c in classes} == {
        ("trivial", True),
        ("unram-1", False),
        ("unram-2", False),
    }
    triv = next(c for c in classes if c.kind == "trivial")
    form = integral_representative(5, d, triv)
    assert form.discriminant() == d


def descriptor_with_kappa(kappa, kappa_hat):
    return IsogenyDescriptor(
        m=1,
        global_summand_bit=(kappa == 1),
        kappa_orders=(KappaEntry(0, "any", kappa, kappa_hat),),
    )


def test_summand_flag_matches_ratio_exponent():
    # p = 2 (mod 3), v(d) = 2, d square: the ratio is |kappa|/3 and the
    # soluble description says the image misses the unramified subgroup
    # exactly when the summand flag holds, i.e. when |kappa| = 1
    datum = build_twist_datum(5, 25)
    prof = LocalPlaceProfile(Place.finite(5))

    desc_split = descriptor_with_kappa(1, 1)
    k = local_exponent(prof, desc_split, datum)
    assert k == -1  # image is just the trivial class: 1/#kernel = 1/3
    sol = soluble_classes(datum, summand_flag=desc_split.summand_flag(5, datum.u, 0))
    assert sol.meets_unramified is False

    desc_nonsplit = descriptor_with_kappa(3, 3)
    k = local_exponent(prof, desc_nonsplit, datum)
    assert k == 0  # image has size 3: the full unramified subgroup
    sol = soluble_classes(datum, summand_flag=desc_nonsplit.summand_flag(5, datum.u, 0))
    assert sol.meets_unramified is True


def test_soluble_image_size_matches_exponent_at_v0():
    # v(d) = 0 good reduction: exponent 0 and image = unramified subgroup,
    # whose size is 3^dim_un; the kernel has matching size, so the ratio
    # is 1 whether or not d is a square
    desc = descriptor_with_kappa(1, 1)
    for p in (5, 7, 13):
        for d in (1, least_nonresidue(p), -3):
            datum = build_twist_datum(p, d)
            assert local_exponent(LocalPlaceProfile(Place.finite(p)), desc, datum) == 0
            sol = soluble_classes(datum, summand_flag=True)
            assert sol.case == "unramified"


def test_representative_unit_class_matches_stratum():
    for p in (5, 7):
        for v in (0, 2, 4):
            for u0 in (1, least_nonresidue(p), -3, -3 * least_nonresidue(p)):
                d = Fraction(u0) * Fraction(p) ** v
                for cls in classify_integral(p, d):
                    if not cls.integral:
                        continue
                    disc = integral_representative(p, d, cls).discriminant()
                    from selmer3.localfield import is_square

                    ratio = unit_part(disc, p) / unit_part(d, p)
                    assert is_square(ratio, Place.finite(p))


def test_package_exports_exactly_what_it_imports():
    # a name deleted from a module cannot linger in `__all__`, nor an
    # import stay unexported, and `from selmer3 import *` keeps working
    tree = ast.parse(Path(selmer3.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exports = selmer3.__all__
    assert len(exports) == len(set(exports))
    assert set(exports) == imported
    namespace: dict = {}
    exec("from selmer3 import *", namespace)
    assert all(namespace[name] is getattr(selmer3, name) for name in exports)
