from fractions import Fraction

from hypothesis import given, strategies as st

from ribbonops.fock import FockVec, signed_map
from ribbonops.partitions import add_ribbon, diagonal_window, partitions_of
from ribbonops.qpoly import QPoly
from oracles import coefficient


def poly(d):
    return QPoly(d)


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-5, max_value=5),
    max_size=4,
).map(poly)

shapes = st.sampled_from([la for m in range(5) for la in partitions_of(m)])

vectors = st.dictionaries(shapes, small_polys, max_size=5).map(FockVec)


@given(vectors, vectors, vectors)
def test_addition_is_a_group(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert u + FockVec.zero() == u
    assert u - u == FockVec.zero()


@given(vectors, vectors, small_polys)
def test_scalar_action_distributes(u, v, c):
    assert (u + v) * c == u * c + v * c
    assert c * u == u * c
    assert u * QPoly.one() == u


@given(vectors, vectors, vectors, small_polys)
def test_pairing_is_bilinear(u, v, w, c):
    assert (u + v).inner(w) == u.inner(w) + v.inner(w)
    assert (u * c).inner(w) == u.inner(w) * c
    assert u.inner(v) == v.inner(u)


@given(vectors)
def test_int_scalars_match_constant_polynomials(v):
    for c in (0, 1, -1, 3):
        assert v * c == v * QPoly({0: c})
        assert c * v == v * c
    one = v * 1
    assert one == v and one.terms is not v.terms


def test_basis_is_orthonormal():
    for la in partitions_of(4):
        for mu in partitions_of(4):
            want = QPoly.one() if la == mu else QPoly.zero()
            assert FockVec.basis(la).inner(FockVec.basis(mu)) == want


def test_zero_coefficients_are_dropped():
    v = FockVec.basis((2,)) - FockVec.basis((2,))
    assert not v
    assert v.terms == {}
    assert FockVec.basis((1,), QPoly.zero()) == FockVec.zero()


@given(vectors)
def test_pairs_roundtrip(v):
    assert FockVec.from_pairs(v.to_pairs()) == v


def test_str_formats():
    assert str(FockVec.zero()) == "0"
    v = FockVec.basis((2, 1), QPoly({2: 1, 0: 1})) + FockVec.basis((), QPoly({1: 3}))
    assert str(v) == "3q·(-) + (q^2 + 1)·(2,1)"


def test_linear_map_agrees_with_hand_expansion():
    n = 2

    def moves(la):
        lo, hi = diagonal_window(la, n, 1)
        for i in range(lo, hi + 1):
            hit = add_ribbon(la, i, n)
            if hit:
                yield hit

    v = FockVec.basis((), QPoly({1: 2})) + FockVec.basis((1,))
    out = signed_map(v, lambda la: ((1, moves(la)),))
    by_hand = FockVec.zero()
    for la, c in v.terms.items():
        for mu, spin in moves(la):
            by_hand = by_hand + FockVec.basis(mu, c * QPoly({spin: 1}))
    assert out == by_hand
    # domino additions to the empty shape: flat (2) and tall (1,1) with spin 1
    assert coefficient(out, (2,)) == QPoly({1: 2})
    assert coefficient(out, (1, 1)) == QPoly({2: 2})


@given(vectors)
def test_support_orders_by_size_then_shape(v):
    sizes = [sum(la) for la in v.support()]
    assert sizes == sorted(sizes)


def test_evaluation_commutes_with_pairing():
    # specializing q after pairing equals pairing the specialized values
    u = FockVec.basis((1,), QPoly({1: 1})) + FockVec.basis((2,), QPoly({0: 3}))
    w = FockVec.basis((1,), QPoly({2: -1})) + FockVec.basis((2,), QPoly({1: 1}))
    t = Fraction(3, 2)
    lhs = u.inner(w).evaluate(t)
    rhs = sum(
        (coefficient(u, la).evaluate(t) * coefficient(w, la).evaluate(t)
         for la in set(u.support()) | set(w.support())),
        Fraction(0),
    )
    assert lhs == rhs
