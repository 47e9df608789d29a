"""Tests of the benchmark's independent reference.  Run: python3 -m pytest bench"""

import os
import sys
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as R  # noqa: E402


def test_known_rectangle():
    # (4,4,4) at n = 3: q^8 s[4] + (q^6 + q^4) s[3,1] + q^4 s[2,2] + q^2 s[2,1,1],
    # and f = 1, 3, 2, 3 for those shapes
    assert R.standard_spin_poly((4, 4, 4), (), 3) == {8: 1, 6: 3, 4: 5, 2: 3}


def test_one_ribbons_count_standard_tableaux():
    for m in range(1, 8):
        for nu in R.partitions(m):
            assert R.standard_spin_poly(nu, (), 1) == {0: R.standard_count(nu)}


def test_standard_count_small_cases():
    assert [R.standard_count(nu) for nu in R.partitions(4)] == [1, 3, 2, 3, 1]
    assert R.standard_count((3, 2, 1)) == 16
    assert sum(R.standard_count(nu) ** 2 for nu in R.partitions(7)) == 5040


def test_dominoes_on_a_two_by_two_square():
    # two vertical dominoes (spin 1 each) or two horizontal ones (spin 0)
    assert R.standard_spin_poly((2, 2), (), 2) == {2: 1, 0: 1}


def test_skew_and_untileable_shapes():
    assert R.standard_spin_poly((2, 2), (1,), 3) == {1: 1}
    assert R.standard_spin_poly((2, 1), (1,), 2) == {}
    assert R.standard_spin_poly((2, 1), (), 3) == {1: 1}
    assert R.standard_spin_poly((2, 1), (), 2) == {}
    assert R.standard_spin_poly((3, 3), (2,), 2) == {1: 1}


def test_rim_hooks():
    assert sorted(R.rim_hooks((2, 2), 2)) == [((1, 1), 2), ((2,), 1)]
    assert R.rim_hooks((3, 1, 1), 5) == [((), 3)]
    assert R.rim_hooks((3, 1, 1), 3) == []


def test_partition_counts_match_enumeration():
    assert [R.partition_count(m) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    for m in range(12):
        assert R.partition_count(m) == len(R.partitions(m)) == len(set(R.partitions(m)))


def test_subpartitions():
    assert sorted(R.subpartitions((2, 1))) == [(), (1,), (1, 1), (2,), (2, 1)]
    assert len(R.subpartitions((3, 3, 3))) == 20  # lattice paths in a 3x3 box


def test_catalan():
    assert [R.catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_h_at_q2():
    assert R.h_at_q2(0, 3) == {0: 1}
    assert R.h_at_q2(2, 3) == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    assert R.h_at_q2(3, 1) == {0: 1}
    for i in range(5):
        for n in range(1, 4):
            assert sum(R.h_at_q2(i, n).values()) == comb(n + i - 1, i)


def test_polynomial_helpers():
    assert R.poly_from_pairs([[0, 1], [2, 3], [2, -3]]) == {0: 1}
    assert R.poly_add_scaled({0: 1, 1: 2}, {1: 1}, -2) == {0: 1}
