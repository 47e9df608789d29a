from itertools import product

import pytest

from ribbonops.partitions import (
    core_and_quotient,
    from_core_and_quotient,
    partitions_of,
    partitions_up_to,
    subpartitions,
)
from ribbonops.qlr import (
    QLRTable,
    nonnegativity_scan,
    qlr_table_via_operators,
    qlr_via_expansion,
    qlr_via_operators,
)
from ribbonops.qpoly import QPoly
from oracles import kostka_foulkes_by_charge, lr_coefficient


def test_worked_rectangle_table():
    table = qlr_via_expansion((4, 4, 4), (), 3)
    assert table.coefficient((2, 1, 1)) == QPoly({2: 1})
    assert table.coefficient((3, 1)) == QPoly({4: 1, 6: 1})
    assert table.coefficient((2, 2)) == QPoly({4: 1})
    assert table.coefficient((4,)) == QPoly({8: 1})
    assert table.coefficient((1, 1, 1, 1)) == QPoly.zero()
    # dense: every partition of the degree is present
    assert set(table.entries) == set(partitions_of(4))


def test_both_routes_agree_on_a_grid():
    for n in (2, 3):
        for outer in partitions_up_to(8):
            for inner in subpartitions(outer):
                size = sum(outer) - sum(inner)
                if size == 0 or size % n:
                    continue
                a = qlr_table_via_operators(outer, inner, n)
                b = qlr_via_expansion(outer, inner, n)
                assert a.entries == b.entries, (outer, inner, n)


def _skew_shapes(max_size, ns=(2, 3)):
    """(outer, inner, n) with |outer| <= max_size and n dividing the skew size."""
    for n in ns:
        for outer in partitions_up_to(max_size):
            for inner in subpartitions(outer):
                if (sum(outer) - sum(inner)) % n == 0:
                    yield outer, inner, n


def _stacked(outers, inners):
    """One skew shape O/I holding each outers[j]/inners[j], every block north-east of the next."""
    big, small = [], []
    offset = sum(la[0] for la in outers if la)
    for la, mu in zip(outers, inners):
        if not la:
            continue
        offset -= la[0]
        big += [offset + p for p in la]
        small += [offset + p for p in mu + (0,) * (len(la) - len(mu))]
    while small and not small[-1]:
        small.pop()
    return tuple(big), tuple(small)


def test_tables_at_q1_count_littlewood_richardson_fillings_of_the_quotient():
    # c^nu(1) = <prod_j s_{la^(j)/mu^(j)}, s_nu> when la and mu share their
    # n-core and each quotient component of mu lies in la's, else 0; the
    # product is the skew schur function of the stacked quotient shapes.
    # Only core_and_quotient comes from the library: no symmetric functions.
    checked = nonzero = 0
    for outer, inner, n in _skew_shapes(11):
        core, quotient, _ = core_and_quotient(outer, n)
        inner_core, inner_quotient, _ = core_and_quotient(inner, n)
        tileable = core == inner_core and all(
            len(mu) <= len(la) and all(m <= l for m, l in zip(mu, la))
            for la, mu in zip(quotient, inner_quotient))
        big, small = _stacked(quotient, inner_quotient) if tileable else ((), ())
        tables = (qlr_table_via_operators(outer, inner, n), qlr_via_expansion(outer, inner, n))
        for nu in partitions_of(tables[0].degree):
            want = lr_coefficient(nu, big, small) if tileable else 0
            for table in tables:
                assert sum(table.entries[nu].coeffs.values()) == want, (outer, inner, n, nu)
            checked += 1
            nonzero += want != 0
    assert checked == 8814 and nonzero == 3010


def test_kostka_foulkes_by_charge_golden_values():
    assert kostka_foulkes_by_charge((2,), (1, 1)) == QPoly({1: 1})
    want = {(4,): {6: 1}, (3, 1): {3: 1, 4: 1, 5: 1}, (2, 2): {2: 1, 4: 1},
            (2, 1, 1): {1: 1, 2: 1, 3: 1}, (1, 1, 1, 1): {0: 1}}
    for nu, coeffs in want.items():
        assert kostka_foulkes_by_charge(nu, (1, 1, 1, 1)) == QPoly(coeffs), nu


def test_single_row_quotients_give_hall_littlewood_by_charge():
    # Lascoux-Leclerc-Thibon: for la with empty n-core and n-quotient
    # ((r_0), ..., (r_{n-1})), c^nu_{la/0}(q) = q^inv(r) K_{nu,sort(r)}(q^2).
    # The charge oracle shares no code with either route.
    shapes = checked = nonzero = 0
    for n, top in ((2, 12), (3, 9), (4, 7)):
        for r in product(range(top + 1), repeat=n):
            if sum(r) > top:
                continue
            la = from_core_and_quotient((), tuple((p,) if p else () for p in r), n)
            mu = tuple(sorted((p for p in r if p), reverse=True))
            inv = sum(r[i] > r[j] for i in range(n) for j in range(i + 1, n))
            tables = (qlr_table_via_operators(la, (), n), qlr_via_expansion(la, (), n))
            for nu in partitions_of(sum(r)):
                k = kostka_foulkes_by_charge(nu, mu)
                want = QPoly({inv + 2 * e: c for e, c in k.coeffs.items()})
                for table in tables:
                    assert table.entries[nu] == want, (r, n, nu)
                checked += 1
                nonzero += bool(want)
            shapes += 1
    assert (shapes, checked, nonzero) == (641, 10050, 2591)


def test_single_coefficient_equals_the_table_entry():
    for outer, inner, n in _skew_shapes(9):
        table = qlr_table_via_operators(outer, inner, n)
        for nu in partitions_of(table.degree):
            single = qlr_via_operators(nu, outer, inner, n)
            assert single == table.entries[nu], (outer, inner, nu, n)


def test_tables_hold_no_explicit_zero_coefficient():
    for outer, inner, n in _skew_shapes(10):
        tables = (qlr_table_via_operators(outer, inner, n), qlr_via_expansion(outer, inner, n))
        for table in tables:
            for poly in table.entries.values():
                assert all(poly.coeffs.values()), (outer, inner, n, poly)


def test_table_without_an_h_hit_lists_every_nu_as_zero():
    # (3,2,1) is its own 2-core and () has the empty one: no ribbon tableau
    for table in (qlr_table_via_operators((3, 2, 1), (), 2), qlr_via_expansion((3, 2, 1), (), 2)):
        assert list(table.entries) == list(partitions_of(3))
        assert not any(table.entries.values())
        assert [e["coeffs"] for e in table.to_json()["entries"]] == [[], [], []]


def test_single_coefficient_route_agreement():
    assert qlr_via_operators((2, 2), (4, 4, 4), (), 3) == QPoly({4: 1})
    assert qlr_via_expansion((4, 4, 4), (), 3).coefficient((2, 2)) == QPoly({4: 1})


def test_n1_reduces_to_classical_littlewood_richardson():
    for outer in partitions_up_to(6):
        for inner in subpartitions(outer):
            size = sum(outer) - sum(inner)
            for nu in partitions_of(size):
                got = qlr_via_operators(nu, outer, inner, 1)
                want = QPoly({0: lr_coefficient(nu, outer, inner)})
                assert got == want, (nu, outer, inner)


def test_size_mismatch_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert qlr_via_operators((1,), (2, 2), (), 3) == QPoly.zero()


@pytest.mark.parametrize("nu", [(1, 3), (4, 0)])
def test_single_coefficient_rejects_a_composition(nu):
    # the table has one entry per partition; a composition has none
    with pytest.raises(ValueError):
        qlr_via_operators(nu, (4, 4), (), 2)


def test_table_rejects_indivisible_size():
    with pytest.raises(ValueError):
        qlr_table_via_operators((2, 2), (1,), 2)


def test_text_rendering():
    table = qlr_via_expansion((4, 4, 4), (), 3)
    assert table.text() == (
        "q^8 s[4] + (q^6 + q^4) s[3,1] + q^4 s[2,2] + q^2 s[2,1,1]"
    )
    unit = qlr_via_expansion((3,), (), 3)
    assert unit.text() == "s[1]"


def test_latex_rendering_groups_by_power():
    table = qlr_via_expansion((4, 4, 4), (), 3)
    assert table.latex() == (
        "q^{2} s_{211} + q^{4}(s_{31} + s_{22}) + q^{6} s_{31} + q^{8} s_{4}"
    )


def test_json_is_dense_and_ordered():
    table = qlr_via_expansion((3, 3), (), 3)
    js = table.to_json()
    assert js["n"] == 3 and js["outer"] == [3, 3] and js["basis"] == "schur"
    assert [e["nu"] for e in js["entries"]] == [[2], [1, 1]]
    assert all(isinstance(e["coeffs"], list) for e in js["entries"])
    # zero entries appear with empty coefficient lists rather than vanishing
    assert len(js["entries"]) == len(partitions_of(table.degree))


def test_empty_skew_gives_unit_table():
    table = qlr_via_expansion((2, 1), (2, 1), 2)
    assert table.degree == 0
    assert table.coefficient(()) == QPoly.one()
    assert table.text() == "s[]"


def test_nonnegativity_scan_small():
    report = nonnegativity_scan(8, ns=(2, 3))
    assert report.ok
    assert report.shapes > 0 and report.entries > 0
    js = report.to_json()
    assert js["ok"] is True and js["violations"] == []
