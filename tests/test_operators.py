from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ribbonops import operators, positive
from ribbonops.fock import FockVec
from ribbonops.operators import (
    apply_B,
    apply_d,
    apply_diag,
    apply_diag_sum_from,
    apply_e,
    apply_expr,
    apply_h,
    apply_expansion,
    apply_h_perp,
    apply_p,
    apply_schur,
    apply_skew_schur,
    apply_u,
    apply_word,
    heisenberg_scalar,
    parse_expr,
)
from ribbonops.partitions import diagonal_window, partitions_of, partitions_up_to, ribbon_slots
from ribbonops.qpoly import QPoly, qbracket, terms
from oracles import B_moves_by_hooks, apply_B_by_newton, coefficient


def basis(la):
    return FockVec.basis(la)


def test_single_ribbon_additions_to_the_vacuum():
    # n = 3 from the empty shape: heads 0, 1, 2 give the three hooks of size 3
    v = basis(())
    assert apply_u(2, 3, v) == basis((3,))
    assert apply_u(1, 3, v) == FockVec.basis((2, 1), QPoly({1: 1}))
    assert apply_u(0, 3, v) == FockVec.basis((1, 1, 1), QPoly({2: 1}))
    assert apply_u(5, 3, v) == FockVec.zero()


def test_u_squared_is_zero():
    for n in (1, 2, 3):
        for la in partitions_up_to(6):
            lo, hi = diagonal_window(la, n, 2)
            for i in range(lo, hi + 1):
                assert not apply_u(i, n, apply_u(i, n, basis(la)))


def test_h1_on_vacuum_n3():
    v = apply_h(1, 3, basis(()))
    assert v == (
        basis((3,))
        + FockVec.basis((2, 1), QPoly({1: 1}))
        + FockVec.basis((1, 1, 1), QPoly({2: 1}))
    )


def test_word_builds_a_rectangle():
    # u_2 u_1 u_3 u_0 applied to the vacuum lands on (4,4,4) with spin 4
    v = apply_word((2, 1, 3, 0), 3, basis(()))
    assert v == FockVec.basis((4, 4, 4), QPoly({4: 1}))


def test_adjointness_of_u_and_d():
    for n in (2, 3):
        for la in partitions_up_to(6):
            lo, hi = diagonal_window(la, n, 1)
            for mu in partitions_up_to(6):
                for i in range(lo, hi + 1):
                    lhs = apply_u(i, n, basis(la)).inner(basis(mu))
                    rhs = basis(la).inner(apply_d(i, n, basis(mu)))
                    assert lhs == rhs, (la, mu, i, n)


def test_h_and_h_perp_are_adjoint():
    n = 2
    for la in partitions_up_to(5):
        for mu in partitions_up_to(7):
            for k in (1, 2):
                lhs = apply_h(k, n, basis(la)).inner(basis(mu))
                rhs = basis(la).inner(apply_h_perp(k, n, basis(mu)))
                assert lhs == rhs


def test_h_operators_commute():
    n = 3
    for la in partitions_up_to(5):
        v = basis(la)
        ab = apply_h(2, n, apply_h(3, n, v))
        ba = apply_h(3, n, apply_h(2, n, v))
        assert ab == ba


def test_h_product_order_is_irrelevant():
    v = basis((1,))
    assert apply_expansion({(2, 1, 1): 1}, 2, v) == apply_expansion({(1, 2, 1): 1}, 2, v)


def test_memoized_h_vectors_match_the_public_h_chain():
    # _h_vector keeps flat int tuples and scatters the strips itself; decoded,
    # it is the FockVec that apply_h builds one factor at a time
    alphas = {a for m in range(5) for p in partitions_of(m) for a in permutations(p)}
    cases = nonzero = 0
    for inner in partitions_up_to(4):
        for n in (1, 2, 3):
            for alpha in sorted(alphas):
                want = basis(inner)
                for k in reversed(alpha):
                    want = apply_h(k, n, want)
                got = {mu: QPoly(dict(terms(flat)))
                       for mu, flat in operators._h_vector(inner, n, alpha).items()}
                assert got == want.terms, (inner, n, alpha)
                cases += 1
                nonzero += bool(got)
    assert len(alphas) == 16 and cases == 12 * 3 * 16 == 576
    assert nonzero == cases


def test_e_is_the_vertical_analogue():
    # e_k on the vacuum at n = 1 is the single column
    for k in range(1, 5):
        assert apply_e(k, 1, basis(())) == basis((1,) * k)


def test_p_in_terms_of_h_small():
    n = 2
    v = basis((1,))
    want = apply_h(2, n, v) * QPoly({0: 2}) - apply_h(1, n, apply_h(1, n, v))
    assert apply_p(2, n, v) == want


def test_schur_operator_on_vacuum_spans_ribbon_functions():
    # s_nu(u) . 0 pairs against mu to give the coefficient of s_nu in the
    # ribbon function of mu; sanity check the smallest nontrivial case
    v = apply_schur((2,), 2, basis(()))
    assert coefficient(v, (4,)) == QPoly.one()
    assert coefficient(v, (2, 2)) == QPoly({2: 1})


def test_skew_schur_operator_factors_through_jacobi_trudi():
    n = 2
    v = basis((2,))
    # det [[h_1, h_3], [h_0, h_2]] = h_2 h_1 - h_3
    want = apply_expansion({(2, 1): 1}, n, v) - apply_expansion({(3,): 1}, n, v)
    assert apply_skew_schur((2, 2), (1,), n, v) == want
    # skewing by the shape itself is the identity
    assert apply_skew_schur((2, 1), (2, 1), n, v) == v


def test_B_raising_and_lowering_are_adjoint():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for la in partitions_up_to(4):
                up = apply_B(-k, n, basis(la))
                for mu in partitions_up_to(4 + n * k):
                    lhs = up.inner(basis(mu))
                    rhs = basis(la).inner(apply_B(k, n, basis(mu)))
                    assert lhs == rhs


B_INDICES = (-3, -2, -1, 1, 2, 3)


def test_B_matches_newton_oracle_on_basis_vectors():
    cases = 0
    for n in (1, 2, 3):
        for la in partitions_up_to(7):
            for k in B_INDICES:
                assert apply_B(k, n, basis(la)) == apply_B_by_newton(k, n, basis(la)), (n, la, k)
                cases += 1
    assert cases == 810


def test_B_matches_newton_oracle_on_images():
    # vectors with many terms and mixed signs, as the Heisenberg check meets them
    for n in (1, 2, 3):
        for la in partitions_up_to(5):
            for l in B_INDICES:
                w = apply_B_by_newton(l, n, basis(la))
                for k in B_INDICES:
                    assert apply_B(k, n, w) == apply_B_by_newton(k, n, w), (n, la, l, k)


def test_B_moves_match_the_hook_by_hook_tally():
    # one descending run for every hook of a size, against one run per hook
    cases = 0
    for n in (1, 2, 3, 4):
        for la in partitions_up_to(9):
            for k in (-4, -3, -2, -1, 1, 2, 3, 4):
                moves = operators._B_moves(la, n, k)
                got = {pair: c for c, pairs in moves for pair in pairs}
                assert len(got) == sum(len(pairs) for _, pairs in moves)
                assert got == B_moves_by_hooks(la, n, k), (la, n, k)
                cases += 1
    assert cases == 3104


def test_B_raising_fills_no_hook_word_memo():
    # B_{-k} adds the positive hook formula's words as two strip searches and
    # memoizes only its merged moves, never a word table in positive
    operators._B_moves.cache_clear()
    for la in partitions_up_to(4):
        assert apply_B(-3, 2, basis(la))
    assert operators._B_moves.cache_info().currsize == len(list(partitions_up_to(4)))
    memos = [name for name, obj in vars(positive).items()
             if hasattr(obj, "cache_info") and obj.__module__ == positive.__name__]
    assert memos == []


def test_B_zero_rejected():
    with pytest.raises(ValueError):
        apply_B(0, 2, basis(()))


def test_heisenberg_scalar_values():
    assert heisenberg_scalar(1, 3) == qbracket(3, 2)
    assert heisenberg_scalar(2, 2) == qbracket(2, 4) * 2
    assert heisenberg_scalar(3, 1) == QPoly({0: 3})


def test_diag_weight_on_vacuum():
    # the vacuum is addable on diagonal 0 at n = 1 with spin 0
    v = apply_diag(0, 1, 1, basis(()))
    assert v == FockVec.basis((), QPoly({0: -1}))
    # nothing happens on a diagonal with no slot
    assert apply_diag(7, 1, 2, basis(())) == FockVec.zero()


def test_diag_full_line_is_minus_q_bracket():
    for n in (1, 2, 3):
        for j in (1, 2):
            for la in partitions_up_to(6):
                lo, _ = diagonal_window(la, n, 1)
                v = apply_diag_sum_from(lo, j, n, basis(la))
                assert v == FockVec.basis(la, -qbracket(n, 2 * j)), (la, n, j)


def test_diag_tail_from_each_slot():
    n, j = 3, 1
    la = (2, 1)
    for s in ribbon_slots(la, n):
        tail = apply_diag_sum_from(s.diagonal, j, n, basis(la))
        count = s.spin + 1 if s.kind == "add" else s.spin
        assert tail == FockVec.basis(la, -qbracket(count, 2 * j)), s


def test_parse_expr_grammar():
    assert parse_expr("u[2] d[-1]") == (("u", 2), ("d", -1))
    assert parse_expr("s[2,1]") == (("s", (2, 1)),)
    assert parse_expr("hperp[3]B[-2]") == (("hperp", 3), ("B", -2))
    assert parse_expr("sskew[2,1/1]") == (("sskew", ((2, 1), (1,))),)
    assert parse_expr("sskew[3/]") == (("sskew", ((3,), ())),)
    for bad in ("", "x[1]", "u[a]", "s[1,2]", "u[1] junk", "junk u[1]",
                "s[2/1]", "sskew[2,1]", "sskew[1,2/1]", "sskew[2/1/1]"):
        with pytest.raises(ValueError):
            parse_expr(bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sskew_with_empty_inner_is_schur(n):
    for nu in ((2, 1), (3,), (1, 1, 1), (2, 2)):
        text = ",".join(map(str, nu))
        for la in ((), (1,), (2, 1)):
            skew = apply_expr(parse_expr(f"sskew[{text}/]"), n, basis(la))
            assert skew == apply_expr(parse_expr(f"s[{text}]"), n, basis(la)), (nu, la)
            assert skew == apply_skew_schur(nu, (), n, basis(la))


def test_a_negative_strip_count_gives_zero():
    v = basis((2, 1))
    assert apply_h(-1, 2, v) == apply_h_perp(-1, 2, v) == FockVec.zero()


def test_apply_expr_stops_at_the_zero_vector(monkeypatch):
    def h(*args):
        raise AssertionError("no atom runs on the zero vector")

    monkeypatch.setitem(operators._ATOMS, "h", h)
    assert apply_expr(parse_expr("h[1] u[7]"), 2, basis(())) == FockVec.zero()


def test_apply_expr_matches_direct_composition():
    v = basis(())
    out = apply_expr(parse_expr("d[2] u[2]"), 3, v)
    # u_2 makes (3) with spin 0; d_2 takes it back
    assert out == basis(())
    assert apply_expr(parse_expr("u[0] u[1] u[2]"), 3, v) == apply_word((0, 1, 2), 3, v)


@given(st.integers(min_value=1, max_value=3), st.sampled_from(partitions_of(4)))
@settings(max_examples=30, deadline=None)
def test_operators_are_linear(n, la):
    v = FockVec.basis(la, QPoly({1: 2})) + FockVec.basis((), QPoly({0: -1}))
    direct = apply_h(2, n, v)
    split = apply_h(2, n, FockVec.basis(la, QPoly({1: 2}))) + apply_h(
        2, n, FockVec.basis((), QPoly({0: -1}))
    )
    assert direct == split
