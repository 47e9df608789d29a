from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ribbonops.qpoly import QPoly, qbracket
from oracles import divexact


def poly(coeffs):
    return QPoly.from_pairs(list(coeffs.items()))


polys = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(poly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly.zero() == a
    assert a * QPoly.one() == a
    assert a - a == QPoly.zero()


@given(polys, polys)
def test_evaluation_is_a_homomorphism(a, b):
    x = Fraction(2, 3)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(polys, polys)
def test_divexact_inverts_multiplication(a, b):
    if not b:
        return
    assert divexact(a * b, b) == a


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        divexact(QPoly.q_power(1) + QPoly.one(), QPoly.q_power(1, 2))


@given(polys)
def test_pairs_roundtrip(a):
    assert QPoly.from_pairs(a.to_pairs()) == a


def test_integer_coercion_in_equality():
    assert QPoly.one() == 1
    assert QPoly.zero() == 0
    assert QPoly.q_power(0, 5) == 5
    assert QPoly.q_power(1) != 1


def test_a_constant_hashes_like_the_int_it_equals():
    # equal values must hash alike, or a set keeps both as distinct members
    for c in (0, 1, 3, -2):
        p = QPoly.q_power(0, c)
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1
    assert len({QPoly(), 0}) == 1
    assert {QPoly.q_power(1, 3): "x"}.get(QPoly({1: 3})) == "x"


def test_str_is_descending():
    p = QPoly.q_power(4) + QPoly.q_power(2, 2) + QPoly.one()
    assert str(p) == "q^4 + 2q^2 + 1"
    assert str(QPoly.zero()) == "0"
    assert str(QPoly.q_power(1, -1)) == "-q"


def test_qbracket_values():
    assert qbracket(3, 2) == QPoly.from_pairs([(0, 1), (2, 1), (4, 1)])
    assert qbracket(1, 2) == QPoly.one()
    assert qbracket(0, 2) == QPoly.zero()


def test_shift_and_degree():
    p = QPoly.q_power(3) + QPoly.one()
    assert p.shifted(2) == QPoly.q_power(5) + QPoly.q_power(2)
