from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import horizontal_strips_by_tiling, ribbon_additions
from ribbonops.partitions import (
    add_ribbon,
    conjugate,
    contains,
    core_and_quotient,
    diagonal_window,
    format_partition,
    from_core_and_quotient,
    horizontal_strips,
    is_core,
    parse_partition,
    partitions_of,
    partitions_up_to,
    remove_ribbon,
    ribbon_slots,
    ribbon_strips,
)


@st.composite
def partitions(draw, max_size=12):
    m = draw(st.integers(min_value=0, max_value=max_size))
    bins = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=m, max_size=m))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_partition_counts():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions_of(m)) for m in range(11)] == want


def test_partitions_of_is_dominance_compatible():
    # reverse-lex descending refines dominance: (m) first, (1^m) last
    for m in range(1, 9):
        order = partitions_of(m)
        assert order[0] == (m,)
        assert order[-1] == (1,) * m


@given(partitions())
def test_parse_format_roundtrip(la):
    assert parse_partition(format_partition(la)) == la


def test_parse_rejects_junk():
    for text in ("2,3", "1,-1", "a", "1,,2"):
        with pytest.raises(ValueError):
            parse_partition(text)


@given(partitions())
def test_conjugate_is_an_involution(la):
    assert conjugate(conjugate(la)) == la
    assert sum(conjugate(la)) == sum(la)


def test_ribbon_moves_match_cell_level_oracle():
    for n in (1, 2, 3, 4):
        for la in partitions_up_to(8):
            oracle = ribbon_additions(la, n)
            lo, hi = diagonal_window(la, n, 1)
            mine = {i: hit for i in range(lo, hi + 1)
                    if (hit := add_ribbon(la, i, n))}
            assert mine == oracle, (la, n)



def test_horizontal_strips_match_the_tiling_oracle():
    cases = 0
    for n in (1, 2, 3):
        for mu in partitions_up_to(5):
            for k in range(7 // n + 1):
                want = horizontal_strips_by_tiling(mu, n, k)
                assert sorted(horizontal_strips(mu, n, k)) == want, (mu, n, k)
                cases += 1
    assert cases == 285


def test_removing_a_strip_transposes_adding_it():
    for n in (1, 2, 3):
        for k in range(7 // n + 1):
            for m in range(6):
                added = {(mu, la, spin) for mu in partitions_of(m)
                         for la, spin in horizontal_strips(mu, n, k)}
                removed = {(mu, la, spin) for la in partitions_of(m + n * k)
                           for mu, spin in horizontal_strips(la, n, k, remove=True)}
                assert added == removed, (n, k, m)


@pytest.mark.parametrize("remove", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_strip_after_a_head_is_the_filtered_strip(remove, sign):
    for n in (1, 2, 3):
        for la in partitions_up_to(6):
            for k in (1, 2):
                strips = ribbon_strips(la, n, k, sign, remove)
                for after in range(-5, 6):
                    want = [hit for hit in strips if sign * hit[2][0] > sign * after]
                    assert ribbon_strips(la, n, k, sign, remove, after=after) == want


@pytest.mark.parametrize("remove", [False, True])
def test_a_strip_needs_a_nonnegative_count(remove):
    with pytest.raises(ValueError, match="k >= 0"):
        horizontal_strips((2, 1), 2, -1, remove)

def test_add_then_remove_is_identity():
    for n in (2, 3):
        for la in partitions_up_to(9):
            for s in ribbon_slots(la, n):
                if s.kind != "add":
                    continue
                mu, spin = add_ribbon(la, s.diagonal, n)
                assert remove_ribbon(mu, s.diagonal, n) == (la, spin)


def test_slots_are_the_window_probe():
    shapes = list(partitions_up_to(10))
    for n in range(1, 6):
        for la in shapes:
            lo, hi = diagonal_window(la, n, 1)
            probe = []
            for i in range(lo, hi + 1):
                for kind, move in (("add", add_ribbon), ("remove", remove_ribbon)):
                    if hit := move(la, i, n):
                        probe.append((i, kind, hit[1]))
            assert ribbon_slots(la, n) == tuple(probe), (la, n)
    assert len(shapes) == 139


@given(partitions(max_size=10), st.integers(min_value=2, max_value=4))
@settings(max_examples=60)
def test_slot_list_shape(la, n):
    slots = ribbon_slots(la, n)
    assert slots == tuple(sorted(slots))
    # spins live in [0, n); the extreme slots are always addable, the low
    # one fully vertical and the high one fully horizontal
    assert all(0 <= s.spin < n for s in slots)
    assert slots[0].kind == "add" and slots[0].spin == n - 1
    assert slots[-1].kind == "add" and slots[-1].spin == 0


def test_signed_spin_sequence_of_the_frozen_example():
    signed = [s.spin if s.kind == "add" else -s.spin
              for s in ribbon_slots((7, 6, 4, 3, 1), 3)]
    assert signed == [2, 1, -1, 1, -1, 1, 0]


def test_core_quotient_frozen_examples():
    # single row: 1-quotient is the shape itself
    assert core_and_quotient((4, 2, 1), 1) == ((), ((4, 2, 1),), (0,))
    core, quot, offsets = core_and_quotient((1,), 2)
    assert core == (1,) and quot == ((), ()) and offsets == (2, -1)
    # (3,) is one horizontal 3-ribbon, head diagonal 2, so it lands in
    # quotient component 2 mod 3
    core, quot, offsets = core_and_quotient((3,), 3)
    assert core == () and quot == ((), (), (1,))


def test_core_quotient_roundtrip_and_sizes():
    for n in (1, 2, 3, 4):
        for la in partitions_up_to(10):
            core, quot, offsets = core_and_quotient(la, n)
            assert is_core(core, n)
            assert sum(la) == sum(core) + n * sum(map(sum, quot))
            assert from_core_and_quotient(core, quot, n) == la
            assert len(offsets) == len(quot) == n


def test_offsets_relabel_quotient_moves():
    # u^(1) on component j of the quotient is u^(n) at n*k + offset_j upstairs
    for n in (2, 3):
        for la in partitions_up_to(8):
            core, quot, offsets = core_and_quotient(la, n)
            for j in range(n):
                lo, hi = diagonal_window(quot[j], 1, 1)
                for k in range(lo, hi + 1):
                    hit = add_ribbon(quot[j], k, 1)
                    big = add_ribbon(la, n * k + offsets[j], n)
                    if hit is None:
                        assert big is None
                        continue
                    assert big is not None
                    new_quot = list(quot)
                    new_quot[j] = hit[0]
                    assert from_core_and_quotient(core, tuple(new_quot), n) == big[0]


def test_every_core_has_empty_quotient():
    for n in (2, 3, 4):
        for la in partitions_up_to(9):
            if is_core(la, n):
                _, quot, _ = core_and_quotient(la, n)
                assert all(p == () for p in quot)


@given(partitions(max_size=9), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_no_moves_outside_the_window(la, n):
    lo, hi = diagonal_window(la, n, 1)
    for i in list(range(lo - 2 * n, lo)) + list(range(hi + 1, hi + 2 * n + 1)):
        assert add_ribbon(la, i, n) is None
        assert remove_ribbon(la, i, n) is None


def test_contains_is_cellwise():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))
    assert contains((3, 2), ())
