from itertools import permutations

import pytest

from ribbonops import tableaux
from ribbonops.fock import FockVec
from ribbonops.operators import apply_h
from ribbonops.partitions import contains, partitions_of, partitions_up_to, subpartitions
from ribbonops.qlr import qlr_via_expansion
from ribbonops.qpoly import QPoly
from ribbonops.symfunc import to_schur_basis
from ribbonops.tableaux import (
    RibbonTableau,
    enumerate_tableaux,
    horizontal_strips,
    ribbon_function,
)
from oracles import schur_monomial_counts, strip_heads, weight_poly, weight_poly_forward


def compositions(m):
    """Every composition of m into positive parts."""
    if m == 0:
        yield ()
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first,) + rest


def test_strips_agree_with_the_h_operator():
    for n in (1, 2, 3, 4):
        for mu in partitions_up_to(9 - n):
            for k in (1, 2, 3):
                v = apply_h(k, n, FockVec.basis(mu))
                strips = {}
                for la, spin in horizontal_strips(mu, n, k):
                    strips[la] = strips.get(la, QPoly.zero()) + QPoly({spin: 1})
                assert strips == v.terms, (mu, n, k)


def test_strip_heads_recovers_the_tiling():
    # (2,2,2)/() needs a descending head pair, (3,3)/() is a domino strip
    assert strip_heads((), (2, 2, 2), 2) is None
    heads = strip_heads((), (3, 3), 2)
    assert heads == (0, 1, 2)
    # stacked vertical ribbons still form a strip when heads ascend
    assert strip_heads((), (4, 4, 4), 3) == (0, 1, 2, 3)
    # a single ribbon: the head diagonal of (2,1) at n = 3
    assert strip_heads((), (2, 1), 3) == (1,)
    assert strip_heads((1,), (2, 2, 1), 2) == (-1, 1)


def test_strip_heads_rejects_bad_sizes():
    assert strip_heads((), (2, 1), 2) is None
    assert strip_heads((2,), (1,), 2) is None


def test_weight_poly_is_symmetric_in_the_weight():
    for outer, n in (((4, 4, 4), 3), ((3, 3, 2, 1, 1), 2), ((5, 4, 3), 3)):
        m = sum(outer) // n
        for nu in partitions_of(m):
            base = weight_poly(outer, (), n, nu)
            for w in set(permutations(nu)):
                assert weight_poly(outer, (), n, w) == base, (outer, n, w)


def test_chain_table_matches_the_forward_strip_search():
    # every composition, and again with a zero part after its first part
    cases = nonzero = 0
    for outer in partitions_up_to(8):
        for inner in subpartitions(outer):
            size = sum(outer) - sum(inner)
            for n in (1, 2, 3):
                if size % n:
                    continue
                for w in compositions(size // n):
                    for weight in (w, w[:1] + (0,) + w[1:]):
                        got = weight_poly(outer, inner, n, weight)
                        assert got == weight_poly_forward(outer, inner, n, weight), (
                            outer, inner, n, weight)
                        cases += 1
                        nonzero += bool(got)
    assert (cases, nonzero) == (24956, 16814)


def test_expansion_searches_only_inside_the_outer_shape(monkeypatch):
    outer, n = (8, 8, 6, 6, 4, 4), 2
    seen = []

    def spy(la, ribbon_size, k, remove=False):
        out = horizontal_strips(la, ribbon_size, k, remove)
        if ribbon_size == n:
            seen.append(la)
            seen.extend(mu for mu, _ in out)
        return out

    monkeypatch.setattr(tableaux, "horizontal_strips", spy)
    tableaux._chains_below.cache_clear()
    assert any(qlr_via_expansion(outer, (), n).entries.values())
    assert seen
    assert [la for la in seen if not contains(outer, la)] == []


def test_enumeration_walks_one_backward_pass():
    # the chains follow the removal strips of one backward pass from outer,
    # not the chain table, which they leave as it was; they come in the
    # forward order, by the heads of each strip as h_k adds them
    tableaux._chains_below.cache_clear()
    for outer, inner, n, weight in (
        ((8, 8, 6, 6, 4, 4), (), 2, (6, 5, 4, 3)),
        ((8, 8, 6, 6, 4, 4), (), 2, (3, 4, 5, 6)),
        ((7, 5, 3, 1), (2, 2), 2, (2, 0, 1, 3)),
        ((8, 6, 4, 2), (2,), 2, (2, 0, 3, 4)),
        ((7, 6, 4, 3, 1), (), 3, (2, 1, 3, 1)),
    ):
        tabs = enumerate_tableaux(outer, inner, n, weight)
        assert tableaux._chains_below.cache_info().currsize == 0
        assert len({t.chain for t in tabs}) == len(tabs) > 0
        for t in tabs:
            assert t.chain[0] == inner and t.chain[-1] == outer and t.weight == weight
        heads = [[d for _, d in t.tiles()] for t in tabs]
        assert heads == sorted(heads)
        total = QPoly.zero()
        for t in tabs:
            total = total + QPoly({t.spin: 1})
        assert total == weight_poly_forward(outer, inner, n, weight), (outer, inner, n, weight)


def test_tableau_heads_are_the_strip_tilings():
    # the heads a tableau is built with are those a removal strip search
    # finds for each strip, from enumerate_tableaux and yamanouchi_tableaux
    from ribbonops.positive import _classify, yamanouchi_tableaux

    tabs, yama = [], []
    for outer, inner, n in (((4, 4, 4), (), 3), ((6, 4, 2), (2,), 2), ((4, 4, 2, 2), (), 2)):
        m = (sum(outer) - sum(inner)) // n
        for weight in compositions(m):
            tabs += enumerate_tableaux(outer, inner, n, weight)
        for nu in partitions_of(m):
            if _classify(nu):
                yama += yamanouchi_tableaux(nu, outer, inner, n)
    assert (len(tabs), len(yama)) == (724, 14)
    for t in tabs + yama:
        want = tuple(strip_heads(a, b, t.n) for a, b in zip(t.chain, t.chain[1:]))
        assert t.heads == want, t.chain


def test_tableau_count_matches_weight_poly():
    outer, n = (4, 4, 4), 3
    for nu in partitions_of(4):
        tabs = enumerate_tableaux(outer, (), n, nu)
        total = QPoly.zero()
        for t in tabs:
            assert t.weight == nu
            assert t.chain[0] == () and t.chain[-1] == outer
            total = total + QPoly({t.spin: 1})
        assert total == weight_poly(outer, (), n, nu)


def test_skew_ascii_art_dots_the_inner_cells():
    found = tableaux.enumerate_tableaux((3, 3), (1, 1), 2, (1, 1))
    assert [(t.spin, t.ascii_art()) for t in found] == [
        (2, ". 1 2\n. 1 2"),
        (0, ". 1 1\n. 2 2"),
    ]


def test_worked_five_strip_tableau():
    chain = ((), (5, 1), (5, 2, 2), (5, 5, 4, 3, 1), (7, 6, 4, 3, 1))
    heads = tuple(strip_heads(a, b, 3) for a, b in zip(chain, chain[1:]))
    t = RibbonTableau((7, 6, 4, 3, 1), (), 3, chain, 7, heads)
    assert t.weight == (2, 1, 3, 1)
    tiles = [(1, 1), (1, 4), (2, 0), (3, -2), (3, 1), (3, 3), (4, 6)]
    assert t.tiles() == tiles
    # the enumeration carries the same heads from its own strip search
    (found,) = [u for u in enumerate_tableaux((7, 6, 4, 3, 1), (), 3, (2, 1, 3, 1))
                if u.chain == chain]
    assert found.heads == heads and found.tiles() == tiles
    assert t.ascii_art() == "\n".join([
        "1 1 1 1 1 4 4",
        "1 2 3 3 3 4",
        "2 2 3 3",
        "3 3 3",
        "3",
    ])
    js = t.to_json()
    assert js["spin"] == 7
    assert js["weight"] == [2, 1, 3, 1]
    assert js["chain"][3] == [5, 5, 4, 3, 1]
    assert js["tiles"][0] == {"ribbon_index": 1, "head_diagonal": 1}
    assert set(js) == {"outer", "inner", "n", "weight", "spin", "chain", "tiles"}


def test_enumeration_finds_the_worked_tableau_and_its_spins():
    tabs = enumerate_tableaux((7, 6, 4, 3, 1), (), 3, (2, 1, 3, 1))
    chains = {t.chain for t in tabs}
    assert ((), (5, 1), (5, 2, 2), (5, 5, 4, 3, 1), (7, 6, 4, 3, 1)) in chains
    assert sorted(t.spin for t in tabs) == [5, 7, 7, 7, 7, 9, 9, 9, 9]


def test_skew_enumeration_respects_inner_boundary():
    tabs = enumerate_tableaux((4, 2), (2,), 2, (1, 1))
    for t in tabs:
        assert t.chain[0] == (2,)
        labels = t.cell_labels()
        assert (1, 1) not in labels and (1, 2) not in labels


@pytest.mark.parametrize("weight", [(-1, 2), (-1, 3)])
def test_negative_weight_is_rejected_before_the_size_check(weight):
    # (-1, 2) fills the shape's two cells, (-1, 3) would not: both raise
    with pytest.raises(ValueError):
        enumerate_tableaux((2,), (), 2, weight)


def test_enumeration_rejects_an_inner_shape_outside_the_outer_one():
    with pytest.raises(ValueError, match="^inner partition not contained in outer$"):
        enumerate_tableaux((2, 2), (3,), 1, (1,))


def test_a_weight_of_the_wrong_size_has_no_tableaux():
    assert [t.chain for t in enumerate_tableaux((4,), (), 2, (2,))] == [((), (4,))]
    assert enumerate_tableaux((4,), (), 2, (1,)) == []


def test_ribbon_function_rejects_an_indivisible_size():
    with pytest.raises(ValueError, match="^skew size 3 is not a multiple of 2$"):
        ribbon_function((2, 1), (), 2)


def test_ribbon_function_degree_and_conservation():
    # coefficients of a fixed weight sum to the strip counts regardless of order
    f = ribbon_function((4, 4, 4), (), 3)
    assert set(f) <= set(partitions_of(4))
    g = to_schur_basis(f, 4)
    assert set(g) <= set(partitions_of(4))
    # evaluating the schur expansion at q = 1 must count all tableaux of
    # every standard weight: cross-check one entry against enumeration
    count = sum(len(enumerate_tableaux((4, 4, 4), (), 3, nu)) for nu in [(1, 1, 1, 1)])
    assert f[(1, 1, 1, 1)].evaluate(1) == count


def test_single_ribbons_give_q_spin():
    # weight (1): one ribbon, polynomial collects q^spin over single additions
    assert ribbon_function((2, 1), (), 3) == {(1,): QPoly({1: 1})}
    assert ribbon_function((3,), (), 3) == {(1,): QPoly.one()}


def test_n1_ribbon_functions_are_skew_schur():
    for outer in partitions_up_to(6):
        for inner in partitions_up_to(4):
            size = sum(outer) - sum(inner)
            if size < 0:
                continue
            try:
                f = ribbon_function(outer, inner, 1)
            except ValueError:
                continue
            counts = schur_monomial_counts(outer, inner, size)
            for nu in partitions_of(size):
                assert f.get(nu, QPoly.zero()) == QPoly({0: counts.get(nu, 0)}), (outer, inner, nu)
