"""The statistics of bench/pairs.py on fixed numbers: no perfbench run."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


@pytest.mark.parametrize(
    "lower, higher, p",
    [
        (10, 0, 2 / 1024),
        (0, 10, 2 / 1024),
        (9, 1, 22 / 1024),
        (8, 2, 112 / 1024),
        (5, 5, 1.0),  # the two tails overlap: capped at 1
        (6, 4, 772 / 1024),
        (3, 0, 0.25),
        (0, 0, 1.0),  # every pair tied
    ],
)
def test_sign_test_is_the_exact_two_sided_binomial(lower, higher, p):
    assert pairs.sign_test(lower, higher) == pytest.approx(p, rel=1e-12)


def test_alpha_needs_nine_of_ten():
    assert pairs.sign_test(9, 1) < pairs.ALPHA < pairs.sign_test(8, 2)


def test_compare_summarizes_each_side_and_counts_the_pairs():
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    tree = [9.0, 10.0, 10.5, 11.0, 14.0]  # lower in 4 pairs, tied in 1
    row = pairs.compare(base, tree)
    assert row["base"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "iqr": 2.0, "runs": base}
    assert (row["tree"]["median"], row["tree"]["q1"], row["tree"]["q3"]) == (10.5, 10.0, 11.0)
    assert row["ratio"] == 10.5 / 12.0 and row["shift"] == -1.5
    assert (row["pairs"], row["tree_lower"], row["tree_higher"]) == (5, 4, 0)
    assert row["sign_test_p"] == 2 / 16
    assert not row["resolved"]  # the shift is inside the base's IQR, and p > alpha


def test_resolved_needs_both_the_shift_and_the_sign_test():
    base = [100.0 + i % 3 for i in range(10)]  # IQR 2
    assert pairs.compare(base, [v - 5 for v in base])["resolved"]  # 10/10, shift 5
    assert not pairs.compare(base, [v - 1 for v in base])["resolved"]  # 10/10, shift 1 < IQR
    mixed = [v - 5 for v in base[:8]] + [v + 5 for v in base[8:]]  # 8/10 lower, shift 5
    row = pairs.compare(base, mixed)
    assert row["tree_lower"] == 8 and row["shift"] < -2 and not row["resolved"]
    up = pairs.compare(base, [v + 5 for v in base])  # either direction resolves
    assert up["resolved"] and up["tree_higher"] == 10


def test_null_pairs_are_not_resolved():
    base = [1.17, 1.19, 1.16, 1.21, 1.18, 1.20, 1.15, 1.22, 1.17, 1.19]
    tree = [1.18, 1.17, 1.19, 1.20, 1.16, 1.21, 1.18, 1.19, 1.20, 1.16]
    row = pairs.compare(base, tree)
    assert row["ratio"] == pytest.approx(1.0, abs=0.01) and not row["resolved"]


def test_compare_refuses_unpaired_values():
    with pytest.raises(ValueError):
        pairs.compare([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        pairs.compare([], [])
