"""The package's memo tables, pinned by name.

Adding or dropping an @cache table changes what a long sweep keeps in
memory, so it should be a visible edit of EXPECTED, not a side effect.
"""

import gc
import importlib
import pkgutil

import ribbonops
from ribbonops import operators, qlr, symfunc, tableaux
from ribbonops.partitions import partitions_of
from ribbonops.qlr import qlr_table_via_operators, qlr_via_expansion

EXPECTED = {
    ("partitions", "partitions_of"),
    ("partitions", "add_ribbon"),
    ("partitions", "remove_ribbon"),
    ("partitions", "ribbon_slots"),
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


def test_the_big_tables_hold_nothing_the_collector_walks():
    # the two tables that grow through a long sweep keep flat int tuples,
    # which a collection untracks, not QPoly, FockVec or nested dicts
    shapes = (((4, 4, 4), (), 3), ((6, 4, 2), (1, 1), 2), ((5, 4, 3), (2, 1), 3),
              ((3, 3), (), 1))
    for outer, inner, n in shapes:
        qlr_table_via_operators(outer, inner, n)
        qlr_via_expansion(outer, inner, n)
    gc.collect()
    gc.collect()
    misses = (operators._h_vector.cache_info().misses,
              tableaux._chains_below.cache_info().misses)
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
    # every read above was a hit, so it saw the values the routes left behind
    assert (operators._h_vector.cache_info().misses,
            tableaux._chains_below.cache_info().misses) == misses
    assert values > 100
