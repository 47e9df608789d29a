"""Per-layer numbers for the traced runs.

A traced round runs under cProfile; the statistics are aggregated here per
ribbonops module and function name, and the memo tables of the package are
read through cache_info().  Functions are looked up by (module file, name),
so a name that a later change removes reads as 0 and does not fail the run.
Times from a traced round include the profiler's own cost per call.
"""

from __future__ import annotations

import os
import pstats
import sys

# inclusive (cumulative) profiler time of these functions
_CUMTIME = {
    "cli.main_s": [("cli", "main")],
    "qlr.operator_route_s": [("qlr", "qlr_via_operators")],
    "qlr.expansion_route_s": [("qlr", "qlr_via_expansion")],
    "symfunc.jacobi_trudi_s": [("symfunc", "skew_schur_in_h")],
    "symfunc.schur_basis_s": [("symfunc", "to_schur_basis")],
    "tableaux.weight_poly_s": [("tableaux", "weight_poly")],
    "positive.formula_words_s": [("positive", "formula_words")],
    "operators.expansion_s": [("operators", "apply_expansion"),
                              ("operators", "apply_expansion_perp")],
    "fock.linear_map_s": [("fock", "linear_map")],
    "partitions.kernel_s": [("partitions", "add_ribbon"), ("partitions", "remove_ribbon"),
                            ("partitions", "ribbon_slots")],
    "verify.relations_s": [("verify", "check_relations")],
    "verify.hcommute_s": [("verify", "check_h_commute")],
    "verify.cauchy_s": [("verify", "check_cauchy")],
    "verify.heisenberg_s": [("verify", "check_heisenberg")],
    "verify.haction_s": [("verify", "check_haction")],
    "verify.word_matrices_s": [("verify", "_word_matrices")],
    "verify.rank_exact_s": [("verify", "_rank_bareiss")],
    "verify.rank_specialized_s": [("verify", "_rank_specialized")],
}

# number of calls the profiler saw (uncached functions only)
_CALLS = {
    "fock.linear_map.calls": [("fock", "linear_map")],
    "fock.vec_add.calls": [("fock", "__add__")],
    "qpoly.new.calls": [("qpoly", "__init__")],
    "qpoly.mul.calls": [("qpoly", "__mul__")],
    "qpoly.add.calls": [("qpoly", "__add__")],
    "verify.span_rank.calls": [("verify", "_span_rank")],
}

# memo-table misses (and hits + misses for .calls) from cache_info()
_MISSES = {
    "symfunc.jacobi_trudi.misses": [("symfunc", "skew_schur_in_h")],
    "tableaux.weight_poly.misses": [("tableaux", "weight_poly")],
    "tableaux.strips.misses": [("tableaux", "_strips_within"), ("tableaux", "_strips_last")],
    "operators.h_vector.misses": [("operators", "_h_vector")],
    "operators.h_moves.misses": [("operators", "_h_moves")],
    "partitions.add_ribbon.misses": [("partitions", "add_ribbon")],
    "partitions.ribbon_slots.misses": [("partitions", "ribbon_slots")],
}
_CACHE_CALLS = {"partitions.add_ribbon.calls": [("partitions", "add_ribbon")]}


def memo_tables():
    """{(module, name): cached function} over the loaded ribbonops modules."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("ribbonops.") or mod is None:
            continue
        short = modname.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                out[(short, name)] = obj
    return out


def cache_snapshot():
    """{(module, name): (hits, misses, currsize)} of every memo table."""
    out = {}
    for key, fn in memo_tables().items():
        info = fn.cache_info()
        out[key] = (info.hits, info.misses, info.currsize)
    return out


def _profile_table(profile):
    """{(module, function name): (calls, inclusive s, self s)} within ribbonops."""
    table = {}
    for (filename, _, func), (_, nc, tt, ct, _) in pstats.Stats(profile).stats.items():
        parent, base = os.path.split(filename)
        if os.path.basename(parent) != "ribbonops" or not base.endswith(".py"):
            continue
        key = (base[:-3], func)
        calls, cum, own = table.get(key, (0, 0.0, 0.0))
        table[key] = (calls + nc, cum + ct, own + tt)
    return table


def collect(profile, before, after):
    """Per-layer numbers of one traced call, from its profile and cache snapshots."""
    table = _profile_table(profile)
    zero = (0, 0, 0)

    def delta(key, idx):
        return after.get(key, zero)[idx] - before.get(key, zero)[idx]

    out = {}
    for metric, keys in _CUMTIME.items():
        out[metric] = sum(table.get(k, (0, 0.0, 0.0))[1] for k in keys)
    for metric, keys in _CALLS.items():
        out[metric] = sum(table.get(k, (0, 0.0, 0.0))[0] for k in keys)
    for metric, keys in _MISSES.items():
        out[metric] = sum(delta(k, 1) for k in keys)
    for metric, keys in _CACHE_CALLS.items():
        out[metric] = sum(delta(k, 0) + delta(k, 1) for k in keys)
    out["qpoly.self_s"] = sum(own for (mod, _), (_, _, own) in table.items() if mod == "qpoly")
    out["cache.entries"] = sum(v[2] for v in after.values())
    return out
