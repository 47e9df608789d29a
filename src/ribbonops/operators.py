"""Ribbon Schur operators and their compositions on the Fock space.

u_i adds an n-ribbon with head on diagonal i, weighted q^spin; d_i is its
adjoint.  h_k sums the ascending-head compositions u_{i_k}...u_{i_1}
(i_1 < ... < i_k), which is exactly "add a horizontal ribbon strip of k
ribbons"; e_k and (skew) schur operators are pushed through their
Jacobi-Trudi expansions into products of the commuting h_k, applied in one
signed pass.  p_k(u) is the Heisenberg generator B_{-k}, and neither it nor
B_k = p_k(u)^perp goes through an expansion: by Murnaghan-Nakayama, p_k is
the alternating sum of the hook schur functions s_{(k-b, 1^b)}, and the
paper's positive hook formula makes each B_{-k}, and its transpose B_k, one
pass of signed single-ribbon-word moves.  B_{-k} adds each hook word as two
ribbon strips, a descending run shared by all hooks of its size and an
ascending one; B_k removes the same strips in reverse.  The strips and the
diagonal operators, in one signed pass too, read partitions.ribbon_moves,
the one table of every single-ribbon move of a shape.

Words store letters in product order: apply_word((2, 1, 3, 0), n, v)
computes u_2 u_1 u_3 u_0 . v, so the rightmost letter acts first.
"""

from __future__ import annotations

import re
from functools import cache
from math import inf

from .fock import FockVec, _scatter, signed_map
from .partitions import (
    add_ribbon,
    horizontal_strips,
    parse_partition,
    remove_ribbon,
    ribbon_moves,
    ribbon_strips,
)
from .qpoly import frozen, qbracket, terms
from .symfunc import elementary_in_h, schur_in_h, skew_schur_in_h


def apply_u(i, n, v):
    def moves(la):
        hit = add_ribbon(la, i, n)
        return ((1, (hit,)),) if hit else ()

    return signed_map(v, moves)


def apply_d(i, n, v):
    def moves(la):
        hit = remove_ribbon(la, i, n)
        return ((1, (hit,)),) if hit else ()

    return signed_map(v, moves)


def apply_word(letters, n, v):
    """u_{letters[0]} ... u_{letters[-1]} . v (rightmost letter first)."""
    for i in reversed(letters):
        if not v:
            break
        v = apply_u(i, n, v)
    return v


def apply_h(k, n, v):
    if k < 0:
        return FockVec.zero()
    return signed_map(v, lambda la: ((1, horizontal_strips(la, n, k)),))


def apply_h_perp(k, n, v):
    if k < 0:
        return FockVec.zero()
    return signed_map(v, lambda la: ((1, horizontal_strips(la, n, k, remove=True)),))


@cache
def _h_vector(la, n, alpha):
    """h_alpha . la with the rightmost factor applied first, memoized per basis.

    The vector is a plain {mu: flat int tuple} dict (see qpoly.frozen), so
    the table holds nothing the garbage collector has to walk; each factor
    is one scatter over the strips of the vector before it.
    """
    if not alpha:
        return {la: (0, 1)}
    if len(alpha) == 1:  # distinct strips end at distinct shapes
        return {mu: (sp, 1) for mu, sp in horizontal_strips(la, n, alpha[0])}
    acc = {}
    for mu, flat in _h_vector(la, n, alpha[1:]).items():
        _scatter(acc, dict(terms(flat)), horizontal_strips(mu, n, alpha[0]))
    return {mu: frozen(d) for mu, d in acc.items()}


def _grouped(tally):
    """{(mu, spin): c} as signed_map groups ((c, ((mu, spin), ...)), ...), zeros dropped."""
    groups = {}
    for key, c in tally.items():
        if c:
            groups.setdefault(c, []).append(key)
    return tuple((c, tuple(pairs)) for c, pairs in groups.items())


def apply_expansion(expansion, n, v):
    """Apply sum_alpha c_alpha h_alpha given {alpha: c_alpha}.

    One signed pass: on each basis partition the memoized h_alpha . la are
    merged into integer moves before anything is scaled.
    """

    def moves(la):
        tally = {}
        for alpha, c in expansion.items():
            for mu, flat in _h_vector(la, n, alpha).items():
                for e, x in terms(flat):
                    tally[mu, e] = tally.get((mu, e), 0) + c * x
        return _grouped(tally)

    return signed_map(v, moves)


def apply_e(k, n, v):
    return apply_expansion(elementary_in_h(k), n, v)


def apply_p(k, n, v):
    """p_k(u) is the Heisenberg generator B_{-k}."""
    if k < 1:
        raise ValueError("power sum index must be >= 1")
    return apply_B(-k, n, v)


def apply_schur(nu, n, v):
    return apply_expansion(schur_in_h(tuple(nu)), n, v)


def apply_skew_schur(outer, inner, n, v):
    return apply_expansion(skew_schur_in_h(tuple(outer), tuple(inner)), n, v)


@cache
def _B_moves(la, n, k):
    """Signed moves of B_k on la as ((c, ((mu, spin), ...)), ...), c != 0.

    p_m = sum_{b<m} (-1)^b s_{(m-b, 1^b)} (Murnaghan-Nakayama).  Each hook
    term contributes the words of its positive formula (hook_strips): added
    to la for k = -m, removed from it, run backwards, for k = m.  A word
    opens with j descending heads, j = b + 1 for k = -m and m - b for k = m,
    and ends with m - j ascending ones, so one descending walk serves all m
    hooks: levels[j] holds its strips of j ribbons.  The hooks are tallied
    in the order of b; equal (mu, spin) merge and cancelled ones are dropped.
    """
    m, remove = abs(k), k > 0
    levels = [[(la, 0, inf)]]
    for _ in range(m):
        level = []
        for cur, spin, last in levels[-1]:
            for i, (low, sp) in ribbon_moves(cur, n, remove).items():
                if i >= last:
                    break  # the heads ascend: none later is below last
                level.append((low, spin + sp, i))
        levels.append(level)
    tally = {}
    for b in range(m):
        j = m - b if remove else b + 1
        sign = -1 if b % 2 else 1
        for low, low_spin, last in levels[j]:
            for mu, spin, _ in ribbon_strips(low, n, m - j, 1, remove, after=last):
                tally[mu, low_spin + spin] = tally.get((mu, low_spin + spin), 0) + sign
    return _grouped(tally)


def apply_B(k, n, v):
    """Heisenberg generators: B_{-k} = p_k(u) raises, B_k = p_k(u)^perp lowers (k > 0).

    Each is one signed pass of hook-formula ribbon words (see _B_moves), not
    an expansion into products of h_k.
    """
    if k == 0:
        raise ValueError("B_0 is not defined")
    return signed_map(v, lambda la: _B_moves(la, n, k))


def _diag_moves(la, n, j, keep):
    """Signed moves of (u_i d_i)^j - (d_i u_i)^j on la, summed over the
    ribbon_moves heads i that pass keep(i): -q^(2 j spin) for an addable
    ribbon, +q^(2 j spin) for a removable one."""
    return [(sign, ((la, 2 * j * spin),))
            for sign, remove in ((-1, False), (1, True))
            for i, (_, spin) in ribbon_moves(la, n, remove).items() if keep(i)]


def apply_diag(i, j, n, v):
    return signed_map(v, lambda la: _diag_moves(la, n, j, lambda d: d == i))


def apply_diag_sum_from(i, j, n, v):
    """Sum over k >= i of the diagonal operators, slotwise finite."""
    return signed_map(v, lambda la: _diag_moves(la, n, j, lambda d: d >= i))


_ATOM = re.compile(r"([A-Za-z]+)\[([-0-9,/\s]*)\]")

_ATOMS = {
    "u": apply_u,
    "d": apply_d,
    "h": apply_h,
    "hperp": apply_h_perp,
    "e": apply_e,
    "p": apply_p,
    "B": apply_B,
    "s": apply_schur,
    "sskew": lambda arg, n, v: apply_skew_schur(*arg, n, v),
}


def parse_expr(text):
    """Operator expressions: juxtaposed atoms, rightmost applied first.

    Grammar: u[i] d[i] h[k] hperp[k] e[k] p[k] B[k] s[nu] sskew[outer/inner]
    with i, k integers and nu a comma-separated partition.
    """
    atoms = []
    pos = 0
    for m in _ATOM.finditer(text):
        if text[pos : m.start()].strip():
            raise ValueError(f"cannot parse operator expression near {text[pos:m.start()]!r}")
        name, arg = m.group(1), m.group(2).strip()
        if name not in _ATOMS:
            raise ValueError(f"unknown operator {name!r}")
        if name == "s":
            atoms.append(("s", parse_partition(arg)))
        elif name == "sskew":
            outer, slash, inner = arg.partition("/")
            if not slash:
                raise ValueError(f"sskew[] wants outer/inner, got {arg!r}")
            atoms.append(("sskew", (parse_partition(outer), parse_partition(inner))))
        else:
            try:
                atoms.append((name, int(arg)))
            except ValueError:
                raise ValueError(f"{name}[] wants one integer, got {arg!r}") from None
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"cannot parse operator expression near {text[pos:]!r}")
    if not atoms:
        raise ValueError("empty operator expression")
    return tuple(atoms)


def apply_expr(atoms, n, v):
    for name, arg in reversed(atoms):
        if not v:
            break
        v = _ATOMS[name](arg, n, v)
    return v


def heisenberg_scalar(k, n):
    """[B_k, B_{-k}] acts by k (1 + q^(2k) + ... + q^(2k(n-1))) for k > 0."""
    return qbracket(n, 2 * abs(k)) * k
