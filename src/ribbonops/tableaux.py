"""Semistandard ribbon tableaux and spin generating functions.

A ribbon tableau of shape outer/inner and weight (w_1, ..., w_r) is a chain
of partitions from inner to outer whose t-th step adds a horizontal strip of
w_t n-ribbons; its spin is the total ribbon spin.  The generating function
collecting q^spin by weight is symmetric, so it is expanded over monomial
coefficients indexed by partitions, as a plain {partition: QPoly} dict;
symfunc.to_schur_basis converts it to the Schur basis.

Every strip search here stays inside the shape being filled.  The one memo
table, _chains_below(la, n, weight), runs top down: it holds the spin
counts of every chain that removes strips of weight[-1], weight[-2], ...
from la, by the partition the chain ends at, as a flat int tuple
(qpoly.frozen) that the garbage collector does not walk.  A prefix of a
partition is a partition, so the table a top-level call for la fills is
the table of every smaller outer shape as well.  At n = 1 every spin is 0
and the count of chains from mu down to () is the Kostka number
K(mu, weight).
enumerate_tableaux also removes strips: one backward pass from the outer
shape keeps each level's removal strips, and the chains are read forward
along them.
"""

from __future__ import annotations

from functools import cache

from .partitions import (
    added_cells,
    contains,
    horizontal_strips,
    partitions_of,
    require_ribbons,
    ribbon_strips,
)
from .qpoly import QPoly, frozen, terms


class RibbonTableau:
    def __init__(self, outer, inner, n, chain, spin, heads):
        self.outer = outer
        self.inner = inner
        self.n = n
        self.chain = chain  # partitions from inner to outer, one per strip
        self.spin = spin
        self.heads = heads  # per strip, the head diagonals in ascending order

    @property
    def weight(self):
        return tuple(
            (sum(b) - sum(a)) // self.n for a, b in zip(self.chain, self.chain[1:])
        )

    def tiles(self):
        """[(strip index, head diagonal)] with strips numbered from 1."""
        return [(t, d) for t, heads in enumerate(self.heads, start=1) for d in heads]

    def cell_labels(self):
        """{(row, col): strip index} over the cells of outer/inner."""
        labels = {}
        for t, (a, b) in enumerate(zip(self.chain, self.chain[1:]), start=1):
            for cell in added_cells(a, b):
                labels[cell] = t
        return labels

    def ascii_art(self):
        labels = self.cell_labels()
        rows = []
        for r, p in enumerate(self.outer, start=1):
            row = []
            for c in range(1, p + 1):
                if (r, c) in labels:
                    t = labels[(r, c)]
                    row.append(str(t) if t < 10 else f"({t})")
                else:
                    row.append(".")
            rows.append(" ".join(row))
        return "\n".join(rows)

    def to_json(self):
        return {
            "outer": list(self.outer),
            "inner": list(self.inner),
            "n": self.n,
            "weight": list(self.weight),
            "spin": self.spin,
            "chain": [list(p) for p in self.chain],
            "tiles": [{"ribbon_index": t, "head_diagonal": d} for t, d in self.tiles()],
        }


def enumerate_tableaux(outer, inner, n, weight):
    """All ribbon tableaux of shape outer/inner with the given weight composition."""
    require_ribbons(n)
    if any(w < 0 for w in weight):
        raise ValueError("weight entries must be >= 0")
    if not contains(outer, inner):
        raise ValueError("inner partition not contained in outer")
    if sum(outer) - sum(inner) != n * sum(weight):
        return []
    # One backward pass from outer: up[t][mu] holds (heads, la, spin) for
    # each strip la/mu of weight[t] ribbons whose la is outer or reached at
    # level t + 1, with its heads ascending, as they would be added to mu.
    # Every shape kept contains inner, so no chain from inner dead-ends.
    up = [None] * len(weight)
    level = (outer,)
    for t in range(len(weight) - 1, -1, -1):
        up[t] = {}
        for la in level:
            for mu, sp, heads in ribbon_strips(la, n, weight[t], -1, remove=True):
                if contains(mu, inner):
                    up[t].setdefault(mu, []).append((heads[::-1], la, sp))
        level = up[t]
    found = []

    def rec(cur, idx, chain, spin, heads):
        if idx == len(weight):
            found.append(RibbonTableau(outer, inner, n, chain, spin, heads))
            return
        # by heads: the order in which horizontal_strips adds the strips to cur
        for hs, la, sp in sorted(up[idx].get(cur, ())):
            rec(la, idx + 1, chain + (la,), spin + sp, heads + (hs,))

    rec(inner, 0, (inner,), 0, ())
    return found


@cache
def _chains_below(la, n, weight):
    """{inner: flat int tuple} over chains removing strips of weight[-1], weight[-2], ... from la.

    Each value is the spin generating polynomial of the chains that end at
    inner, as (e0, c0, e1, c1, ...) (see qpoly.frozen).
    """
    if not weight:
        return {la: (0, 1)}
    strips = horizontal_strips(la, n, weight[-1], remove=True)
    if len(weight) == 1:  # distinct strips end at distinct shapes
        return {mu: (sp, 1) for mu, sp in terms(strips)}
    out = {}
    rest = weight[:-1]
    for mu, sp in terms(strips):
        for inner, flat in _chains_below(mu, n, rest).items():
            acc = out.get(inner)
            if acc is None:
                out[inner] = acc = {}
            if len(flat) == 2:  # one spin, as at n = 1: no pair iterator
                e = flat[0] + sp
                acc[e] = acc.get(e, 0) + flat[1]
                continue
            it = iter(flat)  # terms(flat), inlined in the hottest loop of the route
            for e, x in zip(it, it):
                acc[e + sp] = acc.get(e + sp, 0) + x
    return {inner: frozen(acc) for inner, acc in out.items()}


def ribbon_function(outer, inner, n):
    """Spin generating function of outer/inner as {partition: QPoly} monomial coefficients."""
    require_ribbons(n)
    size = sum(outer) - sum(inner)
    if size % n:
        raise ValueError(f"skew size {size} is not a multiple of {n}")
    if not contains(outer, inner):
        raise ValueError("inner partition not contained in outer")
    coeffs = {}
    for nu in partitions_of(size // n):
        flat = _chains_below(outer, n, nu).get(inner)
        if flat:
            coeffs[nu] = QPoly(dict(terms(flat)))
    return coeffs
