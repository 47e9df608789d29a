"""Symmetric function bookkeeping over Z.

Everything here is classical combinatorics of symmetric functions: skew
schur and elementary functions expanded by Jacobi-Trudi into products of
complete homogeneous functions (so they can be pushed through any algebra
where the h_k commute), Kostka numbers, the unitriangular monomial -> Schur
basis change, and h_i at (1, q^2, ..., q^(2(n-1))).  Power sums are not
here: p_k(u) is the Heisenberg generator operators.apply_B.
h-products are recorded as dicts {sorted tuple of parts: int coefficient}.
Kostka numbers count the n = 1 strips of partitions.horizontal_strips, so
there is no strip search here; within the package only the expansion route
reads them, through to_schur_basis.
"""

from __future__ import annotations

from functools import cache

from .partitions import horizontal_strips, partitions_of
from .qpoly import QPoly


@cache
def skew_schur_in_h(outer, inner=()):
    """Jacobi-Trudi: s_{outer/inner} = det(h_{outer_i - inner_j - i + j}).

    Laplace expansion along the first remaining row, memoized on the bitmask
    of columns still free: the minor on free columns S uses the last |S|
    rows, so there are O(l 2^l) minors instead of l! permutations.
    """
    l = len(outer)
    if len(inner) > l or any((inner[i] if i < len(inner) else 0) > outer[i] for i in range(l)):
        return {}
    pad = tuple(inner) + (0,) * (l - len(inner))
    minors = {0: {(): 1}}

    def minor(free):
        if free in minors:
            return minors[free]
        r = l - free.bit_count()
        out = {}
        sign = 1
        for j in range(l):
            if not free >> j & 1:
                continue
            s = outer[r] - pad[j] - r + j
            if s >= 0:
                for key, c in minor(free & ~(1 << j)).items():
                    if s:
                        key = tuple(sorted(key + (s,), reverse=True))
                    c = out.get(key, 0) + sign * c
                    if c:
                        out[key] = c
                    else:
                        del out[key]
            sign = -sign
        minors[free] = out
        return out

    return minor((1 << l) - 1)


def schur_in_h(nu):
    return skew_schur_in_h(nu, ())


def elementary_in_h(k):
    """e_k = s_(1^k); e_k = 0 for k < 0."""
    return schur_in_h((1,) * k) if k >= 0 else {}


@cache
def kostka(nu, rho):
    """Number of semistandard tableaux of shape nu and content rho.

    The cells holding the largest letter form a horizontal strip: at n = 1 a
    ribbon is a box with spin 0, so these are the 1-ribbon strips that
    h_k^perp removes, each exactly once.
    """
    if sum(nu) != sum(rho):
        return 0
    if not rho:
        return 1 if not nu else 0
    return sum(kostka(mu, rho[:-1]) for mu, _ in horizontal_strips(nu, 1, rho[-1], remove=True))


class SymFunc:
    """Homogeneous symmetric function with QPoly coefficients, in basis 'm' or 's'."""

    def __init__(self, basis, degree, coeffs):
        if basis not in ("m", "s"):
            raise ValueError("basis must be 'm' or 's'")
        self.basis = basis
        self.degree = degree
        self.coeffs = {nu: c for nu, c in coeffs.items() if c}

    def coefficient(self, nu):
        return self.coeffs.get(nu, QPoly.zero())

    def to_pairs(self):
        order = partitions_of(self.degree)
        return [[list(nu), self.coeffs[nu].to_pairs()] for nu in order if nu in self.coeffs]

    def __eq__(self, other):
        return (
            isinstance(other, SymFunc)
            and self.basis == other.basis
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )


def to_schur_basis(f):
    """Invert the unitriangular Kostka matrix: basis 'm' -> basis 's'.

    partitions_of runs in reverse-lex order, a linear extension of dominance,
    and K(nu, rho) != 0 only when nu dominates rho, so plain forward
    substitution is exact over Z, run on raw {exponent: int} dicts.
    """
    if f.basis == "s":
        return f
    out = {}
    for nu in partitions_of(f.degree):
        acc = dict(f.coeffs[nu].coeffs) if nu in f.coeffs else {}
        for mu, cm in out.items():
            k = kostka(mu, nu)
            if k:
                for e, x in cm.coeffs.items():
                    acc[e] = acc.get(e, 0) - k * x
        c = QPoly(acc)
        if c:
            out[nu] = c
    return SymFunc("s", f.degree, out)


@cache
def h_eval_at_q2(i, n):
    """h_i(1, q^2, q^4, ..., q^(2(n-1))) as an exact polynomial."""
    if i == 0:
        return QPoly.one()
    if n == 0:
        return QPoly.zero()
    # h over one more variable: h_i(x_1..x_n) = h_i(x_1..x_{n-1}) + x_n h_{i-1}(x_1..x_n)
    return h_eval_at_q2(i, n - 1) + h_eval_at_q2(i - 1, n).shifted(2 * (n - 1))

