"""Command line front end.

Exit codes: 0 on success (including verifications with zero failures),
1 when a verification or cross-check fails or checks no case, 2 on usage
errors such as malformed partitions, indivisible sizes, or an unsupported
shape family, and when a computation runs out of memory.  A handler
reports a usage error by raising ValueError; main prints each one, and a
MemoryError, the same way: one "error: ..." line on stderr.
All output is deterministic for a fixed flag set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import repeat

from .fock import FockVec
from .operators import apply_expr, parse_expr
from .partitions import (
    contains,
    core_and_quotient,
    format_partition,
    parse_partition,
    partitions_up_to,
    ribbon_strips,
)
from .qlr import format_terms, qlr_table_via_operators, qlr_via_expansion, qlr_via_operators
from .qpoly import QPoly
from .tableaux import enumerate_tableaux, ribbon_function

# `positive` and `verify` are imported by the verbs that run them, so that a
# qlr query does not load (and, without bytecode caches, compile) them.


def _partition(text):
    try:
        return parse_partition(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _composition(text):
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad composition {text!r}")
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("composition entries must be >= 0")
    return parts


def _window(text):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like lo:hi, got {text!r}")


def _require_window(window):
    if window and window[0] > window[1]:
        raise ValueError(f"--window lo:hi needs lo <= hi, got {window[0]}:{window[1]}")


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _require_skew(outer, inner):
    if not contains(outer, inner):
        raise ValueError(
            f"inner {format_partition(inner)} is not contained in outer {format_partition(outer)}")
    return sum(outer) - sum(inner)


def _require_ribbon_skew(args):
    size = _require_skew(args.outer, args.inner)
    if size % args.n:
        raise ValueError(f"skew size {size} is not divisible by n={args.n}")
    return size


def _require_nu_size(args, size):
    if args.n * sum(args.nu) != size:
        raise ValueError(f"need n*|nu| = {size}, got {args.n}*{sum(args.nu)}")


def _print_table(table, fmt, **extra):
    if fmt == "json":
        _emit({**table.to_json(), **extra})
    elif fmt == "latex":
        print(table.latex())
    else:
        print(table.text())


def _cmd_qlr(args):
    size = _require_ribbon_skew(args)
    if args.nu is not None:
        _require_nu_size(args, size)
    table = qlr_table_via_operators(args.outer, args.inner, args.n)
    if table.entries != qlr_via_expansion(args.outer, args.inner, args.n).entries:
        print("route mismatch between operator and expansion tables", file=sys.stderr)
        return 1
    if args.nu is None:
        _print_table(table, args.format, routes_agree=True)
        return 0
    c = table.coefficient(args.nu)
    if args.format == "json":
        _emit({"n": args.n, "outer": list(args.outer), "inner": list(args.inner),
               "nu": list(args.nu), "coeffs": c.to_pairs(), "routes_agree": True})
    elif args.format == "latex":
        print(c.text(latex=True))
    else:
        print(c)
    return 0


def _cmd_ribbonfn(args):
    _require_ribbon_skew(args)
    if args.basis == "schur":
        _print_table(qlr_via_expansion(args.outer, args.inner, args.n), args.format)
        return 0
    if args.format == "latex":
        raise ValueError("latex output is only wired for the schur basis")
    f = ribbon_function(args.outer, args.inner, args.n)
    terms = sorted(f.items(), key=lambda t: (sum(t[0]), t[0]))
    if args.format == "json":
        _emit({"n": args.n, "outer": list(args.outer), "inner": list(args.inner),
               "basis": "monomial",
               "entries": [{"mu": list(mu), "coeffs": c.to_pairs()} for mu, c in terms]})
    else:
        print(format_terms(terms, "m"))
    return 0


def _cmd_tableaux(args):
    size = _require_skew(args.outer, args.inner)
    if args.n * sum(args.weight) != size:
        raise ValueError(
            f"weight {args.weight} fills {args.n}*{sum(args.weight)} cells, shape has {size}")
    found = enumerate_tableaux(args.outer, args.inner, args.n, args.weight)
    if args.format == "json":
        _emit([t.to_json() for t in found])
    else:
        print(f"{len(found)} tableaux of shape "
              f"{format_partition(args.outer)}/{format_partition(args.inner)} "
              f"weight {','.join(map(str, args.weight))} (n={args.n})")
        for t in found:
            print(f"spin {t.spin}")
            print(t.ascii_art())
    return 0


def _cmd_strips(args):
    if args.weight < 0:
        raise ValueError(f"--weight must be >= 0, got {args.weight}")
    _require_window(args.window)
    lo, hi = args.window or (float("-inf"), float("inf"))
    strips = ribbon_strips(args.inner, args.n, args.weight, -1 if args.remove else 1, args.remove)
    hits = [(la, spin) for la, spin, heads in strips
            if not heads or lo <= min(heads) and max(heads) <= hi]
    if args.remove:
        hits = sorted(hits)
    if args.format == "json":
        _emit({"n": args.n, "shape": list(args.inner), "count": args.weight,
               "direction": "remove" if args.remove else "add",
               "strips": [{"shape": list(la), "spin": s} for la, s in hits]})
    else:
        for la, spin in hits:
            print(f"{format_partition(la)}  spin {spin}")
    return 0


def _cmd_quotient(args):
    core, quot, offsets = core_and_quotient(args.shape, args.n)
    if args.format == "json":
        _emit({"n": args.n, "shape": list(args.shape), "core": list(core),
               "quotient": [list(p) for p in quot], "offsets": list(offsets)})
    else:
        print(f"core: {format_partition(core)}")
        for j, (p, s) in enumerate(zip(quot, offsets)):
            print(f"quotient[{j}]: {format_partition(p)}  offset {s}")
    return 0


def _cmd_apply(args):
    atoms = parse_expr(args.expr)
    vec = apply_expr(atoms, args.n, FockVec.basis(args.inner))
    if args.format == "json":
        _emit({"n": args.n, "expr": args.expr, "start": list(args.inner),
               "terms": [[la, coeffs] for la, coeffs in vec.to_pairs()]})
    else:
        print(vec)
    return 0


def _cmd_monomials(args):
    from .positive import monomials_in_window

    _require_window(args.window)
    words = monomials_in_window(args.nu, args.n, args.window)
    if args.format == "json":
        _emit({"n": args.n, "nu": list(args.nu), "window": list(args.window),
               "words": [list(w) for w in words]})
    else:
        for w in words:
            print(" ".join(f"u[{i}]" for i in w))
    return 0


def _cmd_yamanouchi(args):
    from .positive import yamanouchi_tableaux

    _require_nu_size(args, _require_skew(args.outer, args.inner))
    found = yamanouchi_tableaux(args.nu, args.outer, args.inner, args.n)
    total = QPoly.zero()
    for t in found:
        total = total + QPoly.q_power(t.spin)
    ops = qlr_via_operators(args.nu, args.outer, args.inner, args.n)
    agree = total == ops
    if args.format == "json":
        _emit({"n": args.n, "nu": list(args.nu), "outer": list(args.outer),
               "inner": list(args.inner), "tableaux": [t.to_json() for t in found],
               "coeffs": total.to_pairs(), "matches_operator_route": agree})
    else:
        for t in found:
            print(f"spin {t.spin}")
            print(t.ascii_art())
        print(f"c^nu = {total}")
        if not agree:
            print(f"operator route disagrees: {ops}", file=sys.stderr)
    return 0 if agree else 1


def _run_checker(name, n, max_size, jobs):
    from .verify import run_identity

    t0 = time.perf_counter()
    shapes = list(partitions_up_to(max_size))
    jobs = min(jobs, os.cpu_count() or 1, len(shapes))
    if jobs <= 1:
        return run_identity(name, n, max_size)
    from concurrent.futures import ProcessPoolExecutor

    chunks = [shapes[i::jobs] for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(run_identity, repeat(name), repeat(n), repeat(max_size), chunks))
    merged = parts[0]
    for p in parts[1:]:
        merged.cases += p.cases
        merged.failures.extend(p.failures)
    merged.elapsed = time.perf_counter() - t0
    merged.params["jobs"] = jobs
    merged.params["worker_elapsed"] = [round(p.elapsed, 3) for p in parts]
    return merged


def _cmd_verify(args):
    from .verify import CHECKERS, algebra_dimension

    max_size = 8 if args.max_size is None else args.max_size
    if max_size < 0 and args.identity != "dimension":
        raise ValueError(f"--max-size must be >= 0, got {max_size}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.identity == "dimension":
        rep = algebra_dimension(args.n, args.k, max_size=args.max_size,
                                residues=args.blocks, seed=args.seed)
        reports, ok = [rep], rep.stable
    else:
        names = tuple(CHECKERS) if args.identity == "all" else (args.identity,)
        reports = [_run_checker(name, args.n, max_size, args.jobs) for name in names]
        ok = all(r.ok for r in reports)
    if args.format == "text":
        for rep in reports:
            print(rep.summary())
    else:
        _emit([r.to_json() for r in reports] if len(reports) > 1 else reports[0].to_json())
    return 0 if ok else 1


class _IdentityChoices:
    """The `verify --identity` choices: (*verify.CHECKERS, "dimension", "all").

    argparse reads them only to check or print that option, so `verify` is
    imported there, and a parser that runs another verb never loads it.
    """

    def __iter__(self):
        from .verify import CHECKERS

        return iter((*CHECKERS, "dimension", "all"))

    def __contains__(self, name):
        return name in tuple(self)


def _add_common(p, *, outer=False, inner=False, nu=False):
    p.add_argument("--n", type=int, required=True, help="ribbon size")
    if outer:
        p.add_argument("--outer", type=_partition, required=True)
    if inner:
        p.add_argument("--inner", type=_partition, default=())
    if nu:
        p.add_argument("--nu", type=_partition, required=True)


def build_parser():
    top = argparse.ArgumentParser(
        prog="ribbonops",
        description="Exact ribbon Schur operator computations on partitions.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qlr", help="q-Littlewood-Richardson coefficients, both routes")
    _add_common(p, outer=True, inner=True)
    p.add_argument("--nu", type=_partition, default=None)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=_cmd_qlr)

    p = sub.add_parser("ribbonfn", help="ribbon tableaux spin generating function")
    _add_common(p, outer=True, inner=True)
    p.add_argument("--basis", choices=("schur", "monomial"), default="schur")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=_cmd_ribbonfn)

    p = sub.add_parser("tableaux", help="enumerate ribbon tableaux of one weight")
    _add_common(p, outer=True, inner=True)
    p.add_argument("--weight", type=_composition, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("strips", help="horizontal ribbon strips on a shape")
    _add_common(p, inner=True)
    p.add_argument("--weight", type=int, required=True, help="ribbons in the strip")
    p.add_argument("--remove", action="store_true")
    p.add_argument("--window", type=_window, default=None,
                   help="keep strips with all heads inside lo:hi "
                        "(write --window=-2:2 for a negative lo)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_strips)

    p = sub.add_parser("quotient", help="n-core and n-quotient with offsets")
    p.add_argument("shape", type=_partition)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("apply", help="apply an operator expression to a partition")
    p.add_argument("expr", help='e.g. "u[2] u[1] u[3] u[0]" or "h[2] hperp[1] s[2,1]"')
    _add_common(p, inner=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("monomials", help="positive-formula words over a window")
    _add_common(p, nu=True)
    p.add_argument("--window", type=_window, required=True,
                   help="head diagonals lo:hi (write --window=-2:2 for a negative lo)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_monomials)

    p = sub.add_parser("yamanouchi", help="tableaux carved from the positive formula")
    _add_common(p, outer=True, inner=True, nu=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_yamanouchi)

    p = sub.add_parser("verify", help="identity verification and dimension experiment")
    # set after add_argument, which would read the choices to check them
    p.add_argument("--identity", required=True).choices = _IdentityChoices()
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--k", type=int, default=2, help="generator count for dimension")
    p.add_argument("--blocks", type=_composition, default=None,
                   help="size residues mod n kept in the dimension basis")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dim", help="shorthand for verify --identity dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--blocks", type=_composition, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=_cmd_verify, identity="dimension", jobs=1)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
        return args.func(args)
    except ValueError as e:  # positive.UnsupportedShapeError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller size or cutoff", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
