"""Symmetric function bookkeeping over Z.

Skew schur and elementary functions expanded by Jacobi-Trudi into products
of complete homogeneous functions (so they can be pushed through any
algebra where the h_k commute), and h_i at (1, q^2, ..., q^(2(n-1))).
Power sums are not here: p_k(u) is the Heisenberg generator
operators.apply_B.  h-products are recorded as dicts {sorted tuple of
parts: int coefficient}.  The determinant is expanded along its first
column, whose minors are again skew Jacobi-Trudi determinants, so the one
memo table of skew_schur_in_h holds them all, shared across shapes.

The one step of the expansion route kept here, to_schur_basis, works on
plain {partition: QPoly} dicts and reads its Kostka numbers from the chain
table of tableaux at n = 1, so there is no strip search here either.
"""

from __future__ import annotations

from functools import cache

from .partitions import contains, partitions_of
from .qpoly import QPoly
from .tableaux import _chains_below


@cache
def skew_schur_in_h(outer, inner=()):
    """Jacobi-Trudi: s_{outer/inner} = det(h_{outer_i - inner_j - i + j}).

    Expanded along the first column: deleting row i and column 0 leaves the
    Jacobi-Trudi matrix of outer^(i)/inner[1:], where outer^(i) adds one box
    to each of the first i rows and drops row i, so

        s_{outer/inner} = sum_i (-1)^i h_{outer_i - inner_0 - i} s_{outer^(i)/inner[1:]}

    with h_s = 0 for s < 0.  Each minor is read through this memo table, so
    every shape of a degree shares its sub-determinants.
    """
    if not contains(outer, inner):
        return {}
    if not outer:
        return {(): 1}
    first, rest = (inner[0], inner[1:]) if inner else (0, ())
    out = {}
    for i, part in enumerate(outer):
        s = part - first - i
        if s < 0:  # s falls with i
            break
        minor = tuple(p + 1 for p in outer[:i]) + outer[i + 1:]
        for key, c in skew_schur_in_h(minor, rest).items():
            if s:
                key = tuple(sorted(key + (s,), reverse=True))
            c = out.get(key, 0) + (-1) ** i * c
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def schur_in_h(nu):
    return skew_schur_in_h(nu, ())


def elementary_in_h(k):
    """e_k = s_(1^k); e_k = 0 for k < 0."""
    return schur_in_h((1,) * k) if k >= 0 else {}


def to_schur_basis(coeffs, degree):
    """{nu: QPoly} in the monomial basis -> {nu: QPoly} in the Schur basis.

    Inverts the unitriangular Kostka matrix.  K(mu, nu) counts the chains
    of n = 1 removal strips of sizes nu[-1], nu[-2], ... from mu down to the
    empty partition, each of spin 0, so it is read off the chain table of
    tableaux.  partitions_of runs in reverse-lex order, a linear extension
    of dominance, and K(mu, nu) != 0 only when mu dominates nu, so plain
    forward substitution is exact over Z, run on raw {exponent: int} dicts.
    Zero coefficients are dropped.
    """
    out = {}
    for nu in partitions_of(degree):
        acc = dict(coeffs[nu].coeffs) if nu in coeffs else {}
        for mu, cm in out.items():
            k = _chains_below(mu, 1, nu).get((), (0, 0))[1]  # (0, K): every spin is 0
            if k:
                for e, x in cm.coeffs.items():
                    acc[e] = acc.get(e, 0) - k * x
        c = QPoly(acc)
        if c:
            out[nu] = c
    return out


@cache
def h_eval_at_q2(i, n):
    """h_i(1, q^2, q^4, ..., q^(2(n-1))) as an exact polynomial."""
    if i == 0:
        return QPoly.one()
    if n == 0:
        return QPoly.zero()
    # h over one more variable: h_i(x_1..x_n) = h_i(x_1..x_{n-1}) + x_n h_{i-1}(x_1..x_n)
    return h_eval_at_q2(i, n - 1) + h_eval_at_q2(i - 1, n).shifted(2 * (n - 1))

