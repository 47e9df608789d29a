"""Independent reference values for the benchmark's correctness checks.

Nothing here imports ribbonops.  Ribbons are removed from Young diagrams cell
by cell, and counts come from closed formulas or plain enumeration, so an
agreement with the program compares two different computations.
Polynomials in q are dicts {exponent: coefficient} without zero entries.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


def partitions(m, max_part=None):
    """All partitions of m with parts <= max_part, as tuples."""
    if max_part is None or max_part > m:
        max_part = m
    if m == 0:
        return [()]
    out = []
    for p in range(max_part, 0, -1):
        for rest in partitions(m - p, p):
            out.append((p,) + rest)
    return out


def partition_count(m):
    """p(m) by the coin-change recurrence, without listing partitions."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def subpartitions(la):
    """Every partition contained in la, the empty one first."""
    out = [()]

    def rec(row, cap, acc):
        if row == len(la):
            return
        for p in range(1, min(cap, la[row]) + 1):
            out.append(acc + (p,))
            rec(row + 1, p, acc + (p,))

    rec(0, la[0] if la else 0, ())
    return out


def standard_count(nu):
    """f^nu, the number of standard Young tableaux, by the hook length formula."""
    conj = [sum(1 for p in nu if p > c) for c in range(nu[0])] if nu else []
    hooks = 1
    for r, p in enumerate(nu):
        for c in range(p):
            hooks *= (p - c - 1) + (conj[c] - r - 1) + 1
    return factorial(sum(nu)) // hooks


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def h_at_q2(i, n):
    """h_i(1, q^2, ..., q^(2n-2)): multisets of i elements of {0..n-1} by their sum."""
    out = {}

    def rec(smallest, left, total):
        if left == 0:
            out[2 * total] = out.get(2 * total, 0) + 1
            return
        for v in range(smallest, n):
            rec(v, left - 1, total + v)

    if n >= 1:
        rec(0, i, 0)
    return out


def _cells(la):
    return {(r, c) for r, p in enumerate(la) for c in range(p)}


def _is_ribbon(cells):
    """Edge-connected and free of 2x2 blocks."""
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(cells):
        return False
    return not any({(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells for r, c in cells)


def rim_hooks(la, n):
    """[(kappa, rows)] for every n-cell ribbon la/kappa with kappa a partition.

    A row of kappa shorter than the next row of la minus one would leave a
    2x2 block behind, which bounds the search.
    """
    la = tuple(la)
    target = sum(la) - n
    if target < 0:
        return []
    found = []

    def rec(row, prev, acc, size):
        if row == len(la):
            if size == target:
                found.append(tuple(p for p in acc if p))
            return
        nxt = la[row + 1] if row + 1 < len(la) else 0
        for p in range(min(la[row], prev), max(nxt - 1, 0) - 1, -1):
            rec(row + 1, p, acc + (p,), size + p)

    rec(0, la[0] if la else 0, (), 0)
    out = []
    whole = _cells(la)
    for kappa in found:
        strip = whole - _cells(kappa)
        if _is_ribbon(strip):
            out.append((kappa, len({r for r, _ in strip})))
    return out


def contains(la, mu):
    """Cellwise containment mu <= la."""
    return len(mu) <= len(la) and all(m <= l for m, l in zip(mu, la))


@lru_cache(maxsize=None)
def standard_spin_poly(outer, inner, n):
    """Sum of q^spin over standard n-ribbon tableaux of outer/inner.

    A standard tableau removes one ribbon at a time from outer until inner is
    left; each ribbon contributes its number of rows minus one.
    """
    outer, inner = tuple(outer), tuple(inner)
    if outer == inner:
        return {0: 1}
    out = {}
    for kappa, rows in rim_hooks(outer, n):
        if not contains(kappa, inner):
            continue
        for e, c in standard_spin_poly(kappa, inner, n).items():
            out[e + rows - 1] = out.get(e + rows - 1, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_add_scaled(acc, poly, scale):
    """acc + scale * poly, as a new polynomial."""
    out = dict(acc)
    for e, c in poly.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def poly_from_pairs(pairs):
    """{exponent: coefficient} from the program's [[exponent, coefficient], ...]."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}
