"""Acceptance gate: twelve desk-scale criteria, one printed line each.

Every check is exact (integer polynomial equality, no tolerances); the time
budgets are wall-clock ceilings for a cold cache on ordinary hardware.  Runs
are kept memory-stable by clearing every memo table of the package between
the heavy criteria.
"""

import sys
import time
from itertools import combinations
from math import comb

from ribbonops.fock import FockVec
from ribbonops.operators import apply_schur, apply_word
from ribbonops.partitions import (
    add_ribbon,
    core_and_quotient,
    diagonal_window,
    from_core_and_quotient,
    is_core,
    partitions_of,
    partitions_up_to,
    ribbon_slots,
    subpartitions,
)
from ribbonops.positive import apply_formula
from ribbonops.qlr import (
    nonnegativity_scan,
    qlr_table_via_operators,
    qlr_via_expansion,
    qlr_via_operators,
)
from ribbonops.qpoly import QPoly
from ribbonops.tableaux import enumerate_tableaux, ribbon_function
from ribbonops.verify import (
    algebra_dimension,
    check_cauchy,
    check_heisenberg,
    check_relations,
)
from oracles import is_n_commuting, reading_word, schur_monomial_counts


from conftest import acceptance_lines


def _line(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    text = f"criterion {num:02d} {tag}: {detail}"
    acceptance_lines.append(text)
    print(text, flush=True)


def _fresh_caches():
    # every memo table of every loaded ribbonops module
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("ribbonops.") and mod is not None:
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == modname:
                    obj.cache_clear()


def test_criterion_01_rectangle_generating_function():
    budget = 5.0
    t0 = time.monotonic()
    table = qlr_via_expansion((4, 4, 4), (), 3)
    want = {
        (4,): QPoly({8: 1}),
        (3, 1): QPoly({4: 1, 6: 1}),
        (2, 2): QPoly({4: 1}),
        (2, 1, 1): QPoly({2: 1}),
        (1, 1, 1, 1): QPoly.zero(),
    }
    elapsed = time.monotonic() - t0
    ok = table.entries == want and elapsed < budget
    _line(1, ok, f"schur expansion of (4,4,4) at n=3 ({elapsed:.2f}s < {budget:.0f}s)")
    assert table.entries == want
    assert table.latex() == (
        "q^{2} s_{211} + q^{4}(s_{31} + s_{22}) + q^{6} s_{31} + q^{8} s_{4}"
    )
    assert elapsed < budget


def test_criterion_02_single_coefficient_both_routes():
    budget = 1.0
    t0 = time.monotonic()
    ops = qlr_via_operators((2, 2), (4, 4, 4), (), 3)
    exp = qlr_via_expansion((4, 4, 4), (), 3).coefficient((2, 2))
    elapsed = time.monotonic() - t0
    ok = ops == exp == QPoly({4: 1}) and elapsed < budget
    _line(2, ok, f"c^(2,2) of (4,4,4) is q^4 on both routes ({elapsed:.2f}s < {budget:.0f}s)")
    assert ops == QPoly({4: 1})
    assert exp == QPoly({4: 1})
    assert elapsed < budget


def test_criterion_03_worked_tableau_and_slot_spins():
    budget = 5.0
    t0 = time.monotonic()
    tabs = enumerate_tableaux((7, 6, 4, 3, 1), (), 3, (2, 1, 3, 1))
    target = ((), (5, 1), (5, 2, 2), (5, 5, 4, 3, 1), (7, 6, 4, 3, 1))
    hit = [t for t in tabs if t.chain == target]
    signed = [s.spin if s.kind == "add" else -s.spin
              for s in ribbon_slots((7, 6, 4, 3, 1), 3)]
    elapsed = time.monotonic() - t0
    ok = (len(hit) == 1 and hit[0].spin == 7
          and signed == [2, 1, -1, 1, -1, 1, 0] and elapsed < budget)
    _line(3, ok, f"spin-7 chain found, slot spins +2,+1,-1,+1,-1,+1,+0 ({elapsed:.2f}s < {budget:.0f}s)")
    assert len(hit) == 1 and hit[0].spin == 7
    assert signed == [2, 1, -1, 1, -1, 1, 0]
    assert elapsed < budget


def test_criterion_04_local_relations():
    budget = 60.0
    t0 = time.monotonic()
    reports = [check_relations(n, 10) for n in (2, 3, 4)]
    elapsed = time.monotonic() - t0
    cases = sum(r.cases for r in reports)
    ok = all(r.ok for r in reports) and elapsed < budget
    _line(4, ok, f"u_i relations, {cases} cases, size<=10, n=2,3,4 ({elapsed:.1f}s < {budget:.0f}s)")
    for r in reports:
        assert r.ok, r.summary()
    assert elapsed < budget


def test_criterion_05_cauchy_commutation():
    budget = 120.0
    _fresh_caches()
    t0 = time.monotonic()
    reports = [check_cauchy(n, 4, 4, 8) for n in (2, 3)]
    elapsed = time.monotonic() - t0
    cases = sum(r.cases for r in reports)
    ok = all(r.ok for r in reports) and elapsed < budget
    _line(5, ok, f"h/h-perp straightening, {cases} cases, a,b<=4, size<=8 ({elapsed:.1f}s < {budget:.0f}s)")
    for r in reports:
        assert r.ok, r.summary()
    assert elapsed < budget


def test_criterion_06_heisenberg_commutators():
    budget = 30.0
    _fresh_caches()
    t0 = time.monotonic()
    reports = [check_heisenberg(n, 3, 8) for n in (2, 3)]
    elapsed = time.monotonic() - t0
    cases = sum(r.cases for r in reports)
    ok = all(r.ok for r in reports) and elapsed < budget
    _line(6, ok, f"[B_k, B_l] values, {cases} cases, |k|,|l|<=3, size<=8 ({elapsed:.1f}s < {budget:.0f}s)")
    for r in reports:
        assert r.ok, r.summary()
    assert elapsed < budget


def test_criterion_07_route_cross_validation():
    budget = 30.0
    _fresh_caches()
    t0 = time.monotonic()
    mismatches = []
    pairs = 0
    for n in (2, 3):
        _fresh_caches()
        for outer in partitions_up_to(12):
            for inner in subpartitions(outer):
                size = sum(outer) - sum(inner)
                if size % n:
                    continue
                a = qlr_table_via_operators(outer, inner, n)
                b = qlr_via_expansion(outer, inner, n)
                pairs += 1
                if a.entries != b.entries:
                    mismatches.append((n, outer, inner))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < budget
    _line(7, ok, f"both routes agree on {pairs} skew shapes up to size 12 ({elapsed:.1f}s < {budget:.0f}s)")
    assert mismatches == []
    assert elapsed < budget


def test_criterion_08_positive_formulas():
    _fresh_caches()
    t0 = time.monotonic()
    hooks = [(a,) + (1,) * b for a in range(1, 5) for b in range(5 - a)]
    two_rows = [(2, 2), (3, 2)]
    bad = []
    for n in (2, 3):
        for la in partitions_up_to(9):
            v = FockVec.basis(la)
            for nu in hooks + two_rows:
                if apply_formula(nu, n, v) != apply_schur(nu, n, v):
                    bad.append((nu, la, n))
    fillings = []
    for top in combinations(range(4), 2):
        bottom = tuple(sorted(set(range(4)) - set(top)))
        if is_n_commuting((top, bottom), 3):
            fillings.append((top, bottom))
    dead = apply_word(reading_word(((0, 1), (2, 3))), 3, FockVec.basis(()))
    elapsed = time.monotonic() - t0
    ok = (not bad and fillings == [((0, 1), (2, 3)), ((1, 2), (0, 3))]
          and dead == FockVec.zero())
    _line(8, ok, f"hook and two-row formulas match the determinant, size<=9 ({elapsed:.1f}s)")
    assert bad == []
    assert fillings == [((0, 1), (2, 3)), ((1, 2), (0, 3))]
    assert dead == FockVec.zero()


def test_criterion_09_core_quotient_bijection():
    budget = 60.0
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        for la in partitions_up_to(12):
            core, quot, offsets = core_and_quotient(la, n)
            assert is_core(core, n)
            assert sum(la) == sum(core) + n * sum(map(sum, quot))
            assert from_core_and_quotient(core, quot, n) == la
    for n in (1, 2, 3):
        for la in partitions_up_to(10):
            core, quot, offsets = core_and_quotient(la, n)
            for j in range(n):
                lo, hi = diagonal_window(quot[j], 1, 1)
                for k in range(lo, hi + 1):
                    hit = add_ribbon(quot[j], k, 1)
                    big = add_ribbon(la, n * k + offsets[j], n)
                    if hit is None:
                        assert big is None, (la, n, j, k)
                        continue
                    assert big is not None, (la, n, j, k)
                    new_quot = quot[:j] + (hit[0],) + quot[j + 1:]
                    assert from_core_and_quotient(core, new_quot, n) == big[0]
    elapsed = time.monotonic() - t0
    ok = elapsed < budget
    _line(9, ok, f"core/quotient bijection and move relabeling ({elapsed:.1f}s < {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_10_classical_limit():
    t0 = time.monotonic()
    checked = 0
    for outer in partitions_up_to(6):
        for inner in subpartitions(outer):
            size = sum(outer) - sum(inner)
            f = ribbon_function(outer, inner, 1)
            counts = schur_monomial_counts(outer, inner, size)
            for nu in partitions_of(size):
                assert f.get(nu, QPoly.zero()) == QPoly({0: counts.get(nu, 0)}), (outer, inner, nu)
                checked += 1
    elapsed = time.monotonic() - t0
    _line(10, True, f"n=1 matches the tableau oracle on {checked} coefficients ({elapsed:.1f}s)")


def test_criterion_11_algebra_dimensions():
    budget = 30.0
    t0 = time.monotonic()
    ranks = {k: algebra_dimension(1, k).rank for k in (1, 2, 3, 4)}
    squares_hold = all(
        algebra_dimension(2, k).rank == ranks[k] ** 2 for k in (1, 2)
    )
    cube = algebra_dimension(3, 1).rank
    elapsed = time.monotonic() - t0
    # the Catalan numbers C_{k+1} = binom(2k+2, k+1) / (k+2)
    catalan = {k: comb(2 * k + 2, k + 1) // (k + 2) for k in (1, 2, 3, 4)}
    ok = (ranks == catalan == {1: 2, 2: 5, 3: 14, 4: 42} and squares_hold
          and cube == 8 and elapsed < budget)
    _line(11, ok, f"spans have ranks {ranks[1]}, {ranks[2]}, {ranks[3]}, {ranks[4]}, "
                  f"n=2 squares them, n=3 gives {cube} = {ranks[1]}^3 ({elapsed:.1f}s < {budget:.0f}s)")
    assert ranks == {1: 2, 2: 5, 3: 14, 4: 42}
    assert ranks == catalan
    assert squares_hold
    assert cube == ranks[1] ** 3 == 8
    assert elapsed < budget


def test_criterion_12_nonnegativity_scan():
    _fresh_caches()
    t0 = time.monotonic()
    report = nonnegativity_scan(12, ns=(2, 3))
    elapsed = time.monotonic() - t0
    ok = report.ok
    _line(12, ok, f"{report.entries} coefficients over {report.shapes} shapes, "
                  f"all in N[q] ({elapsed:.1f}s)")
    assert report.ok, report.to_json()
