from itertools import combinations

import pytest

from ribbonops.fock import FockVec
from ribbonops.operators import apply_schur, apply_word
from ribbonops.partitions import diagonal_window, partitions_up_to, ribbon_strips
from ribbonops.positive import (
    UnsupportedShapeError,
    _s2_ok,
    apply_formula,
    formula_words,
    hook_monomials,
    monomials_in_window,
    s2_monomials,
    yamanouchi_tableaux,
)
from ribbonops.qlr import qlr_via_operators
from ribbonops.qpoly import QPoly
from oracles import formula_polynomial, is_n_commuting, reading_word

SUPPORTED = [
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
    (2, 2), (3, 1), (2, 1, 1), (3, 2), (4, 2),
    (2, 2, 1), (2, 2, 1, 1),
]


def test_reading_word_runs_right_to_left_by_rows():
    assert reading_word(((0, 1), (2, 3))) == (1, 0, 3, 2)
    assert reading_word(((2, 5, 7),)) == (7, 5, 2)


def test_two_by_two_commuting_fillings_of_four_letters():
    good = []
    for top in combinations(range(4), 2):
        bottom = tuple(sorted(set(range(4)) - set(top)))
        if is_n_commuting((top, bottom), 3):
            good.append((top, bottom))
    assert good == [((0, 1), (2, 3)), ((1, 2), (0, 3))]


def test_the_commuting_pair_splits_on_the_vacuum():
    # of the two fillings above, one word dies on the empty shape and the
    # other builds the full rectangle
    dead = apply_word(reading_word(((0, 1), (2, 3))), 3, FockVec.basis(()))
    assert dead == FockVec.zero()
    alive = apply_word(reading_word(((1, 2), (0, 3))), 3, FockVec.basis(()))
    assert alive == FockVec.basis((4, 4, 4), QPoly({4: 1}))


def test_is_n_commuting_rejects_non_shapes_and_bad_rows():
    with pytest.raises(ValueError):
        is_n_commuting(((1,), (2, 3)), 2)
    assert not is_n_commuting(((2, 1),), 2)
    assert not is_n_commuting(((1, 1),), 2)


def test_is_n_commuting_column_rules():
    # second column is weak downward, first column weak only above a
    # single-cell row
    assert is_n_commuting(((0, 3), (2, 3)), 2)
    assert not is_n_commuting(((0, 3), (1, 2)), 9)
    assert is_n_commuting(((1, 2), (1,)), 9)
    assert not is_n_commuting(((2, 3), (1,)), 9)
    # a descent in the first column forces the lower letters n-close
    assert is_n_commuting(((1, 2), (0, 3)), 3)
    assert not is_n_commuting(((1, 2), (0, 3)), 2)
    # equal first-column letters never commute past each other
    assert not is_n_commuting(((1, 2), (1, 3)), 9)


def _is_n_commuting_written_out(rows, n):
    """is_n_commuting with its two-by-two block rule written out in place."""
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for x in range(len(rows) - 1):
        up, down = rows[x], rows[x + 1]
        for y in range(1, len(down)):
            if up[y] > down[y]:
                return False
        if len(down) == 1 and up[0] > down[0]:
            return False
        if len(down) >= 2:
            a, b = up[0], up[1]
            c, d = down[0], down[1]
            if a > c:
                if d - c > n:
                    return False
            elif a < c:
                if not (b <= c or d - a > n):
                    return False
            else:
                return False
    return True


def test_is_n_commuting_matches_the_written_out_block_rule():
    # rows of length 3 also reach the column check past the block
    cases = {}
    for width in (2, 3):
        for n in range(6):
            for top in combinations(range(-3, 5), width):
                for bottom in combinations(range(-3, 5), width):
                    rows = (top, bottom)
                    assert is_n_commuting(rows, n) == _is_n_commuting_written_out(rows, n), (rows, n)
                    cases[width] = cases.get(width, 0) + 1
    assert cases == {2: 4704, 3: 18816}


def test_s2_monomials_match_commuting_fillings_exactly():
    for s in (2, 3):
        for n in (1, 2, 3):
            window = (-2, 4)
            lo, hi = window
            wanted = set()
            for top in combinations(range(lo, hi + 1), s):
                for bottom in combinations(range(lo, hi + 1), 2):
                    if is_n_commuting((top, bottom), n):
                        wanted.add(reading_word((top, bottom)))
            assert set(s2_monomials(s, n, window)) == wanted, (s, n)


def test_hook_monomials_match_commuting_fillings_on_distinct_letters():
    for a, b in ((1, 1), (2, 1), (2, 2), (3, 1)):
        window = (-2, 3)
        lo, hi = window
        wanted = set()
        for top in combinations(range(lo, hi + 1), a):
            for col in combinations(range(lo, hi + 1), b):
                rows = (top,) + tuple((y,) for y in col)
                if set(top) & set(col):
                    continue  # repeated letters square to zero anyway
                if is_n_commuting(rows, 2):
                    wanted.add(reading_word(rows))
        got = {w for w in hook_monomials(a, b, window) if len(set(w)) == len(w)}
        assert got == wanted, (a, b)


def _filling_image(nu, n, la):
    """Sum of u_w . la over the reading words w of the n-commuting fillings of nu."""
    total = FockVec.zero()

    def rec(r, cur, rows):
        nonlocal total
        if r < 0:
            if is_n_commuting(rows, n):
                total = total + apply_word(reading_word(rows), n, FockVec.basis(la))
            return
        # the last row acts first; each row's letters act in ascending order
        for mu, _, heads in ribbon_strips(cur, n, nu[r], 1):
            rec(r - 1, mu, (heads,) + rows)

    rec(len(nu) - 1, la, ())
    return total


def test_the_filling_rule_holds_only_in_its_families():
    shapes = list(partitions_up_to(5))
    differ = {nu: sum(_filling_image(nu, 3, la) != apply_schur(nu, 3, FockVec.basis(la))
                      for la in shapes)
              for nu in ((3, 2), (2, 1, 1), (3, 3))}
    assert len(shapes) == 19 and differ == {(3, 2): 0, (2, 1, 1): 0, (3, 3): 15}


def test_monomial_argument_validation():
    with pytest.raises(ValueError):
        hook_monomials(0, 1, (0, 3))
    with pytest.raises(ValueError):
        s2_monomials(1, 2, (0, 3))


def test_formula_agrees_with_jacobi_trudi_operator():
    for n in (2, 3):
        for la in partitions_up_to(4):
            v = FockVec.basis(la)
            for nu in SUPPORTED:
                assert apply_formula(nu, n, v) == apply_schur(nu, n, v), (nu, la, n)


def test_formula_words_come_in_increasing_application_order():
    # yamanouchi prints the words in this order: their application-order
    # head tuples strictly increase
    cases = 0
    for n in (1, 2, 3):
        for la in partitions_up_to(6):
            for nu in SUPPORTED:
                heads = [tuple(reversed(w)) for w, _, _ in formula_words(nu, la, n)]
                assert all(a < b for a, b in zip(heads, heads[1:])), (nu, la, n)
                cases += 1
    assert cases == 1170


def _s2_words_filtered_after(la, s, n, sign):
    """(s,2) words built from every top-row s-strip, then filtered by _s2_ok."""
    out = []
    for mid, low_spin, (c, d) in ribbon_strips(la, n, 2, sign):
        for mu, spin, row in ribbon_strips(mid, n, s, sign):
            if _s2_ok(sign * row[0], sign * row[1], sign * c, sign * d, n):
                out.append((tuple(reversed((c, d) + row)), mu, low_spin + spin))
    return tuple(out)


def test_s2_words_pruned_early_match_the_filter_after_search():
    # (nu, s, sign): the (s,2) shapes up to (5,2) and their conjugates
    family = [((2, 2), 2, 1), ((3, 2), 3, 1), ((4, 2), 4, 1), ((5, 2), 5, 1),
              ((2, 2, 1), 3, -1), ((2, 2, 1, 1), 4, -1), ((2, 2, 1, 1, 1), 5, -1)]
    words = 0
    for n in (2, 3):
        for la in partitions_up_to(7):
            for nu, s, sign in family:
                got = formula_words(nu, la, n)
                assert got == _s2_words_filtered_after(la, s, n, sign), (nu, la, n)
                words += len(got)
    assert words == 89955


def test_formula_words_refuse_unsupported_shapes():
    # and the window words refuse them with the same message
    for nu in ((3, 3), (3, 2, 1), (4, 3)):
        with pytest.raises(UnsupportedShapeError) as on_partition:
            formula_words(nu, (), 2)
        with pytest.raises(UnsupportedShapeError) as in_window:
            monomials_in_window(nu, 2, (-3, 3))
        assert str(on_partition.value) == str(in_window.value)
        assert str(in_window.value) == f"no positive formula implemented for {nu}"


def test_window_enumeration_covers_the_formula():
    # summing u_w over all window monomials reproduces the operator action;
    # the window has to be wide enough for every word that acts nonzero
    cases = (
        ((2, 1), 2, ()),
        ((2, 1), 3, (2, 1)),
        ((2, 2), 2, (1,)),
        ((2, 2), 3, ()),
        ((3, 2), 2, ()),
        ((2, 2, 1), 2, ()),
    )
    for nu, n, la in cases:
        window = diagonal_window(la, n, sum(nu))
        total = FockVec.zero()
        for w in monomials_in_window(nu, n, window):
            total = total + apply_word(w, n, FockVec.basis(la))
        assert total == apply_formula(nu, n, FockVec.basis(la)), (nu, n, la)


def test_conjugate_words_are_negated_s2_words_on_the_negated_window():
    cases = 0
    for nu, s in (((2, 2, 1), 3), ((2, 2, 1, 1), 4), ((2, 2, 1, 1, 1), 5)):
        for n in (1, 2, 3):
            for lo, hi in ((-3, 3), (0, 4)):
                words = monomials_in_window(nu, n, (lo, hi))
                assert words == [tuple(-l for l in w) for w in s2_monomials(s, n, (-hi, -lo))]
                assert words and all(len(w) == sum(nu) for w in words), (nu, n, lo, hi)
                assert all(lo <= l <= hi for w in words for l in w)
                cases += 1
    assert cases == 18


def test_formula_polynomial_matches_pairing():
    for nu, outer, n in (
        ((2, 1), (3, 3, 3), 3),
        ((2, 2), (4, 4, 4), 3),
        ((2, 2), (4, 2, 1, 1), 2),
        ((3, 1), (4, 4), 2),
    ):
        assert formula_polynomial(nu, outer, (), n) == qlr_via_operators(
            nu, outer, (), n
        ), (nu, outer, n)


def test_yamanouchi_tableaux_recover_the_coefficient():
    for nu, outer, n in (
        ((2, 2), (4, 4, 4), 3),
        ((2, 1), (3, 3, 3), 3),
        ((3, 2), (4, 3, 2, 1), 2),
    ):
        tabs = yamanouchi_tableaux(nu, outer, (), n)
        total = QPoly.zero()
        for t in tabs:
            assert tuple(sorted(t.weight, reverse=True)) == nu
            assert t.chain[0] == () and t.chain[-1] == outer
            total = total + QPoly({t.spin: 1})
        assert total == qlr_via_operators(nu, outer, (), n), (nu, outer, n)


def test_yamanouchi_requires_a_primal_family():
    with pytest.raises(UnsupportedShapeError):
        yamanouchi_tableaux((2, 2, 1), (5, 4, 1), (), 2)


def test_skew_formula_action():
    # the formula also runs above a nonempty inner shape
    n = 2
    inner = (2, 1)
    for nu in ((2, 1), (2, 2)):
        got = apply_formula(nu, n, FockVec.basis(inner))
        want = apply_schur(nu, n, FockVec.basis(inner))
        assert got == want
