from itertools import combinations_with_replacement, permutations

from ribbonops.partitions import (
    conjugate,
    contains,
    partitions_of,
    partitions_up_to,
    subpartitions,
)
from ribbonops.qpoly import QPoly
from ribbonops.symfunc import (
    elementary_in_h,
    h_eval_at_q2,
    schur_in_h,
    skew_schur_in_h,
    to_schur_basis,
)
from oracles import (
    _hadd,
    _hmul,
    _parity,
    jacobi_trudi_by_permutations,
    kostka_count,
    power_in_h,
    to_monomial_basis,
    weight_poly,
)


def test_schur_in_h_small_cases():
    assert schur_in_h((3,)) == {(3,): 1}
    assert schur_in_h((1, 1)) == {(1, 1): 1, (2,): -1}
    assert schur_in_h((2, 1)) == {(2, 1): 1, (3,): -1}
    assert schur_in_h((2, 2)) == {(2, 2): 1, (3, 1): -1}


def test_skew_schur_in_h_vanishes_without_containment():
    assert skew_schur_in_h((2, 1), (3,)) == {}
    assert skew_schur_in_h((2,), (1, 1)) == {}


def test_skew_schur_strip_cases():
    # a single row skewed by a single row: h_{a-b}
    assert skew_schur_in_h((4,), (1,)) == {(3,): 1}
    # s_{22/1} = h_2 h_1 - h_3
    assert skew_schur_in_h((2, 2), (1,)) == {(2, 1): 1, (3,): -1}


def test_skew_schur_in_h_matches_permutation_oracle():
    pairs = 0
    for outer in partitions_up_to(8):
        for inner in subpartitions(outer):
            assert skew_schur_in_h(outer, inner) == jacobi_trudi_by_permutations(outer, inner), (
                outer, inner)
            pairs += 1
    assert pairs == 862
    # inner not contained in outer: s_{outer/inner} = 0, a minor the
    # first-column recursion reaches
    small = list(partitions_up_to(6))
    pairs = 0
    for outer in small:
        for inner in small:
            if not contains(outer, inner):
                assert skew_schur_in_h(outer, inner) == jacobi_trudi_by_permutations(outer, inner) == {}, (
                    outer, inner)
                pairs += 1
    assert pairs == 670
    assert jacobi_trudi_by_permutations((3, 1), (2, 2)) == {}
    assert skew_schur_in_h((3, 1), (2, 2)) == {}
    # row i of the first column enters only where outer_i >= inner_0 + i, so
    # row 4 first does at degree 20; five rows keep the oracle at 5! terms
    pairs = 0
    for outer in partitions_of(20):
        if len(outer) <= 5:
            for inner in ((), (1,)):
                assert skew_schur_in_h(outer, inner) == jacobi_trudi_by_permutations(outer, inner), (
                    outer, inner)
                pairs += 1
    assert pairs == 384


def test_dual_jacobi_trudi_past_the_oracle():
    # s_{la'} = det(e_{la_i - i + j}); la has at most 3 rows, so la' has up to
    # 14 rows, where the l! permutations of the oracle are out of reach
    shapes = 0
    for m in range(15):
        for la in partitions_of(m):
            if len(la) > 3:
                continue
            det = {}
            for sigma in permutations(range(len(la))):
                term = {(): 1}
                for i, j in enumerate(sigma):
                    term = _hmul(term, elementary_in_h(la[i] - i + j))
                det = _hadd(det, term, scale=_parity(sigma))
            assert schur_in_h(conjugate(la)) == det, la
            shapes += 1
    assert shapes == 147  # the empty shape too: a 0 x 0 determinant is 1


def test_elementary_complete_duality():
    # sum_{i=0}^{k} (-1)^i e_i h_{k-i} = 0, far past where the oracle is affordable
    for k in range(1, 13):
        total = {}
        for i in range(k + 1):
            h = {(k - i,): 1} if k - i else {(): 1}
            total = _hadd(total, _hmul(elementary_in_h(i), h), scale=(-1) ** i)
        assert total == {}, k


def test_elementary_expansions():
    assert elementary_in_h(1) == {(1,): 1}
    assert elementary_in_h(2) == {(1, 1): 1, (2,): -1}
    assert elementary_in_h(3) == {(1, 1, 1): 1, (2, 1): -2, (3,): 1}


def test_elementary_of_negative_degree_is_zero():
    # e_k = 0 for k < 0, as h_k is; e_0 = 1
    assert elementary_in_h(0) == {(): 1}
    for k in (-1, -2, -5):
        assert elementary_in_h(k) == {}


def test_newton_power_sums():
    assert power_in_h(1) == {(1,): 1}
    assert power_in_h(2) == {(2,): 2, (1, 1): -1}
    assert power_in_h(3) == {(3,): 3, (2, 1): -3, (1, 1, 1): 1}


def chain_kostka(nu, rho):
    """K(nu, rho) as to_schur_basis reads it: n = 1 chains from nu down to (), all of spin 0."""
    return weight_poly(nu, (), 1, rho).coeffs.get(0, 0)


def test_kostka_against_filling_enumeration():
    # up to degree 9, the degree of the desk-query tables
    for m in range(10):
        for nu in partitions_of(m):
            for rho in partitions_of(m):
                assert chain_kostka(nu, rho) == kostka_count(nu, rho), (nu, rho)


def test_kostka_unitriangular():
    # K(nu, nu) = 1 and K(nu, rho) = 0 unless nu dominates rho
    for m in range(1, 8):
        order = partitions_of(m)
        for i, nu in enumerate(order):
            assert chain_kostka(nu, nu) == 1
            for rho in order[:i]:
                assert chain_kostka(nu, rho) == 0


def test_basis_change_roundtrip():
    one = QPoly.one()
    for m in range(7):
        for nu in partitions_of(m):
            f = {nu: one}
            assert to_monomial_basis(to_schur_basis(f, m), m) == f
            assert to_schur_basis(to_monomial_basis(f, m), m) == f


def test_schur_to_monomial_is_the_kostka_row():
    f = to_monomial_basis({(2, 1): QPoly.one()}, 3)
    assert f == {(2, 1): QPoly.one(), (1, 1, 1): QPoly({0: 2})}


def test_known_monomial_to_schur():
    # m_11 = s_11 and m_21 = s_21 - s_111... check via explicit Kostka data
    f = to_schur_basis({(1, 1): QPoly.one()}, 2)
    assert f == {(1, 1): QPoly.one()}
    g = to_schur_basis({(1, 1, 1): QPoly.one()}, 3)
    assert g[(1, 1, 1)] == QPoly.one()


def test_schur_coefficient_that_cancels_is_dropped():
    # m_2 + m_11 = s_2: the s_11 row cancels to exactly 0 and is not kept
    one_q = QPoly({0: 1, 1: 1})
    f = to_schur_basis({(2,): one_q, (1, 1): one_q}, 2)
    assert f == {(2,): one_q}
    # a row that cancels termwise keeps only its surviving exponents
    g = to_schur_basis({(2,): one_q, (1, 1): QPoly({0: 1, 1: 1, 2: 1})}, 2)
    assert g == {(2,): one_q, (1, 1): QPoly({2: 1})}
    assert g[(1, 1)].coeffs == {2: 1}


def test_h_eval_at_q2_matches_direct_expansion():
    for n in range(5):
        powers = [QPoly({2 * j: 1}) for j in range(n)]
        for i in range(5):
            direct = QPoly.zero()
            for combo in combinations_with_replacement(powers, i):
                term = QPoly.one()
                for f in combo:
                    term = term * f
                direct = direct + term
            assert h_eval_at_q2(i, n) == direct, (i, n)
