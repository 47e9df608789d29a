"""The package's memo tables, pinned by name.

Adding or dropping an @cache table changes what a long sweep keeps in
memory, so it should be a visible edit of EXPECTED, not a side effect.
"""

import gc
import importlib
import pkgutil

import ribbonops
from ribbonops import operators, partitions, qlr, symfunc, tableaux
from ribbonops.partitions import partitions_of, partitions_up_to
from ribbonops.qlr import qlr_table_via_operators, qlr_via_expansion
from ribbonops.verify import run_identity

EXPECTED = {
    ("partitions", "partitions_of"),
    ("partitions", "add_ribbon"),
    ("partitions", "remove_ribbon"),
    ("partitions", "ribbon_moves"),
    ("partitions", "horizontal_strips"),
    ("symfunc", "skew_schur_in_h"),
    ("symfunc", "h_eval_at_q2"),
    ("operators", "_h_vector"),
    ("operators", "_B_moves"),
    ("tableaux", "_chains_below"),
}


def memo_tables():
    """{(module, name): memoized function} over every ribbonops module, each imported."""
    out = {}
    for info in pkgutil.iter_modules(ribbonops.__path__):
        mod = importlib.import_module(f"ribbonops.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[info.name, name] = obj
    return out


def test_the_memo_tables_are_pinned():
    modules = {info.name for info in pkgutil.iter_modules(ribbonops.__path__)}
    assert {"cli", "positive", "verify"} <= modules
    assert set(memo_tables()) == EXPECTED
    assert len(EXPECTED) == 10


def test_jacobi_trudi_shares_one_table_across_a_degree():
    # the first-column minors of every nu |- 9 are skew shapes of one table
    table = symfunc.skew_schur_in_h
    table.cache_clear()
    shapes = partitions_of(9)
    assert len(shapes) == 30
    for nu in shapes:
        symfunc.schur_in_h(nu)
    assert table.cache_info().currsize == 89
    misses = table.cache_info().misses
    for nu in shapes:
        symfunc.schur_in_h(nu)
    assert table.cache_info().misses == misses


def test_operator_route_leaves_the_chain_table_empty():
    # the two q-LR routes stay independent: Jacobi-Trudi over h-strips only
    for fn in memo_tables().values():
        fn.cache_clear()
    tables = [qlr_table_via_operators(outer, inner, n)
              for outer, inner, n in (((4, 4, 4), (), 3), ((9, 5, 2, 1, 1), (), 2),
                                      ((5, 4, 3), (2, 1), 3), ((3, 3), (), 1))]
    assert all(any(t.entries.values()) for t in tables)
    assert operators._h_vector.cache_info().currsize > 0
    assert tableaux._chains_below.cache_info().currsize == 0


def test_operator_route_builds_no_vector_of_the_full_degree(monkeypatch):
    # h_alpha[0] comes off the outer shape, so h_alpha . inner is never built
    # for a whole alpha |- 9; the spy sees every key the table is asked for
    for fn in memo_tables().values():
        fn.cache_clear()
    asked = set()
    real = operators._h_vector

    def spy(la, n, alpha):
        asked.add((la, n, alpha))
        return real(la, n, alpha)

    monkeypatch.setattr(operators, "_h_vector", spy)
    monkeypatch.setattr(qlr, "_h_vector", spy)
    table = qlr_table_via_operators((9, 5, 2, 1, 1), (), 2)
    assert any(table.entries.values())
    assert real.cache_info().currsize == len(asked) > 0
    assert max(sum(alpha) for _, _, alpha in asked) == 8
    assert tableaux._chains_below.cache_info().currsize == 0


def _tracked(value):
    """Whether the collector walks value or anything nested in it."""
    if gc.is_tracked(value):
        return True
    if isinstance(value, dict):
        return any(_tracked(key) or _tracked(x) for key, x in value.items())
    return isinstance(value, tuple) and any(map(_tracked, value))


def test_the_big_tables_hold_nothing_the_collector_walks():
    # the two tables that grow through a long sweep keep flat int tuples,
    # which a collection untracks, not QPoly, FockVec or nested dicts; the
    # move, strip and B_k tables a verify sweep fills hold only tuples and
    # ints too (no RibbonSlot, whose class the collector always tracks)
    shapes = (((4, 4, 4), (), 3), ((6, 4, 2), (1, 1), 2), ((5, 4, 3), (2, 1), 3),
              ((3, 3), (), 1))
    for outer, inner, n in shapes:
        qlr_table_via_operators(outer, inner, n)
        qlr_via_expansion(outer, inner, n)
    for identity in ("heisenberg", "hcommute", "cauchy"):
        assert run_identity(identity, 2, 3).ok
    gc.collect()
    gc.collect()
    tables = (operators._h_vector, tableaux._chains_below, partitions.ribbon_moves,
              partitions.horizontal_strips, operators._B_moves)
    misses = [table.cache_info().misses for table in tables]
    values = 0
    for outer, inner, n in shapes:
        nus = partitions_of((sum(outer) - sum(inner)) // n)
        # the operator route fills h_alpha[1:] . inner for each alpha it pairs
        # (it removes alpha[0] from outer), the expansion route every chain table
        read = qlr._pairings(outer, inner, n, nus)
        tails = [operators._h_vector(inner, n, alpha[1:]) for alpha in read]
        for table in tails + [tableaux._chains_below(outer, n, alpha) for alpha in nus]:
            assert type(table) is dict and not gc.is_tracked(table)
            for key, flat in table.items():
                assert not gc.is_tracked(key) and not gc.is_tracked(flat)
                assert type(flat) is tuple and len(flat) % 2 == 0
                assert all(type(x) is int for x in flat)
                values += 1
    assert values > 100
    # a collection untracks a tuple only once all it holds is untracked, and
    # its list may visit an outer tuple before an inner one, so a value that
    # nests d tuples deep can take d collections; _B_moves nests five deep
    for _ in range(3):
        gc.collect()
    swept = 0
    for la in partitions_up_to(3):
        # every shape of the sweep took each B_k, h_k and h_k^perp (k <= 3),
        # read here with the arguments that apply_B, apply_h and apply_h_perp pass
        for value in ([partitions.ribbon_moves(la, 2, remove) for remove in (False, True)]
                      + [partitions.horizontal_strips(la, 2, k) for k in (1, 2, 3)]
                      + [partitions.horizontal_strips(la, 2, k, remove=True) for k in (1, 2, 3)]
                      + [operators._B_moves(la, 2, k) for k in (-3, -2, -1, 1, 2, 3)]):
            assert not _tracked(value), (la, value)
            swept += bool(value)
    assert swept == 61  # of the 98 values read, the nonempty ones
    # every read above was a hit, so it saw the values the routes left behind
    assert [table.cache_info().misses for table in tables] == misses
