"""Independent reference implementations for cross-checking.

Most of what is here works at the level of explicit cell sets and explicit
fillings, with none of the edge-sequence machinery the library uses, so an
agreement test actually compares two different computations.  The rest are
the library's earlier algorithms, kept as oracles for their replacements:
the Jacobi-Trudi determinant by permutations, the power sums and the
Heisenberg generators by Newton's identity, the Heisenberg moves tallied
one hook at a time (B_k for k > 0 as the transpose of B_{-k}), the rank
over Q(q) by Bareiss elimination, the ribbon tableau weight polynomials by
a forward strip search and the strip heads of a tableau by a removal strip
search; and helpers only tests read: the cells of a shape, Fock and
monomial coefficients (the latter through filling counts), the positive
formula's polynomial, the weight polynomial read off the library's chain
table, and the n-commuting filling test with its reading word.
"""

from collections import deque
from functools import cache
from itertools import permutations

from ribbonops.fock import FockVec
from ribbonops.operators import apply_expansion, apply_h_perp
from ribbonops.partitions import (
    contains,
    hook_strips,
    horizontal_strips,
    partitions_of,
    ribbon_strips,
)
from ribbonops.positive import _s2_ok, formula_words
from ribbonops.qpoly import QPoly, terms
from ribbonops.tableaux import _chains_below


def cells(la):
    """1-based (row, col) cells."""
    return [(r, c) for r, p in enumerate(la, start=1) for c in range(1, p + 1)]


def is_ribbon(cellset):
    """Connected, no 2x2 block."""
    cellset = set(cellset)
    start = next(iter(cellset))
    seen = {start}
    dq = deque([start])
    while dq:
        r, c = dq.popleft()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cellset and nb not in seen:
                seen.add(nb)
                dq.append(nb)
    if len(seen) != len(cellset):
        return False
    return not any({(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cellset
                   for r, c in cellset)


def ribbon_additions(la, n):
    """{head diagonal: (mu, spin)} by brute force over bigger partitions."""
    la = tuple(la)
    out = {}
    for mu in partitions_of(sum(la) + n):
        if not contains(mu, la):
            continue
        diff = sorted(set(cells(mu)) - set(cells(la)))
        if len(diff) != n or not is_ribbon(diff):
            continue
        head = max(c - r for r, c in diff)
        rows = len({r for r, _ in diff})
        assert head not in out, "two ribbons with one head diagonal"
        out[head] = (mu, rows - 1)
    return out


def horizontal_strips_by_tiling(mu, n, k):
    """Sorted (la, spin) with la/mu a horizontal strip of k n-ribbons.

    LLT's definition, cell by cell: tile la/mu with n-ribbons in every way,
    by k brute-force ribbon additions, and keep the tilings in which the
    cell above the top-right cell of each ribbon lies outside la/mu.  The
    spin sums rows - 1 over the ribbons.
    """
    mu = tuple(mu)
    base = set(cells(mu))
    tilings = {frozenset(): mu}  # set of ribbons -> partition they fill up to
    for _ in range(k):
        grown = {}
        for ribbons, cur in tilings.items():
            have = set(cells(cur))
            for nxt, _ in ribbon_additions(cur, n).values():
                ribbon = frozenset(set(cells(nxt)) - have)
                grown[ribbons | {ribbon}] = nxt
        tilings = grown
    out = []
    for ribbons, la in tilings.items():
        skew = set(cells(la)) - base
        spin = 0
        for ribbon in ribbons:
            r, c = max(ribbon, key=lambda rc: rc[1] - rc[0])
            if (r - 1, c) in skew:
                break
            spin += len({row for row, _ in ribbon}) - 1
        else:
            out.append((la, spin))
    return sorted(out)


def _skew_cells(outer, inner):
    return [(r, c) for r, c in cells(outer) if c > (inner[r - 1] if r <= len(inner) else 0)]


def skew_fillings(outer, inner, content):
    """All semistandard fillings with the exact content vector, as dicts."""
    order = sorted(_skew_cells(outer, inner))
    budget = list(content)
    filling = {}
    found = []

    def rec(idx):
        if idx == len(order):
            found.append(dict(filling))
            return
        r, c = order[idx]
        lo = 1
        if (r, c - 1) in filling:
            lo = filling[(r, c - 1)]
        hi = len(budget)
        above = filling.get((r - 1, c))
        for val in range(lo, hi + 1):
            if budget[val - 1] == 0:
                continue
            if above is not None and val <= above:
                continue
            budget[val - 1] -= 1
            filling[(r, c)] = val
            rec(idx + 1)
            del filling[(r, c)]
            budget[val - 1] += 1

    rec(0)
    return found


def ssyt_count(outer, inner, content):
    return len(skew_fillings(outer, inner, content))


def kostka_count(nu, content):
    return ssyt_count(nu, (), content)


def _is_lattice(word):
    tally = {}
    for x in word:
        tally[x] = tally.get(x, 0) + 1
        if x > 1 and tally[x] > tally.get(x - 1, 0):
            return False
    return True


def lr_coefficient(nu, outer, inner):
    """Littlewood-Richardson by counting lattice skew tableaux of content nu."""
    hits = 0
    for filling in skew_fillings(outer, inner, nu):
        word = [filling[cell]
                for cell in sorted(filling, key=lambda rc: (rc[0], -rc[1]))]
        if _is_lattice(word):
            hits += 1
    return hits


def charge(word):
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Peel off standard subwords: the rightmost 1, then the first 2 leftwards
    of it, reading cyclically, and so on.  Each letter's index is that of
    the one before, plus one when the search wrapped round; the charge sums
    the indices over every subword.
    """
    letters = list(word)
    total = 0
    while letters:
        picked, pos, index = [], len(letters), 0
        for x in range(1, max(letters) + 1):
            spots = [p for p, y in enumerate(letters) if y == x]
            if not spots:
                break
            left = [p for p in spots if p < pos]
            if not left:
                index += 1
            pos = max(left or spots)
            total += index
            picked.append(pos)
        if not picked:
            raise ValueError(f"the content of {word} is not a partition")
        letters = [y for p, y in enumerate(letters) if p not in picked]
    return total


@cache
def kostka_foulkes_by_charge(nu, mu):
    """K_{nu,mu}(q): q^charge summed over SSYT(nu, mu), rows read bottom up."""
    acc = {}
    for filling in skew_fillings(nu, (), mu):
        word = [filling[cell] for cell in sorted(filling, key=lambda rc: (-rc[0], rc[1]))]
        c = charge(word)
        acc[c] = acc.get(c, 0) + 1
    return QPoly(acc)


def schur_monomial_counts(outer, inner, size):
    """{mu: #SSYT of content mu} over partitions mu of the skew size."""
    return {mu: ssyt_count(outer, inner, mu) for mu in partitions_of(size)}


def _parity(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def jacobi_trudi_by_permutations(outer, inner=()):
    """Jacobi-Trudi: s_{outer/inner} = det(h_{outer_i - inner_j - i + j}).

    The determinant as a signed sum over all l! permutations, as
    {sorted tuple of h parts: int coefficient}.
    """
    l = len(outer)
    if len(inner) > l or any((inner[i] if i < len(inner) else 0) > outer[i] for i in range(l)):
        return {}
    pad = tuple(inner) + (0,) * (l - len(inner))
    out = {}
    for sigma in permutations(range(l)):
        subs = [outer[i] - pad[sigma[i]] - i + sigma[i] for i in range(l)]
        if any(s < 0 for s in subs):
            continue
        key = tuple(sorted((s for s in subs if s), reverse=True))
        c = out.get(key, 0) + _parity(sigma)
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _hmul(f, g):
    """Product of h-expansions {sorted tuple of parts: int coefficient}."""
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(sorted(a + b, reverse=True))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _hadd(f, g, scale=1):
    """f + scale * g on h-expansions."""
    out = dict(f)
    for a, c in g.items():
        nc = out.get(a, 0) + scale * c
        if nc:
            out[a] = nc
        else:
            del out[a]
    return out


@cache
def power_in_h(k):
    """Newton's identity: p_k = k h_k - sum_{i<k} p_i h_{k-i}."""
    if k < 1:
        raise ValueError("power sum index must be >= 1")
    out = {(k,): k}
    for i in range(1, k):
        out = _hadd(out, _hmul(power_in_h(i), {(k - i,): 1}), scale=-1)
    return out


def apply_expansion_perp(expansion, n, v):
    """Apply the adjoint sum_alpha c_alpha h_alpha^perp."""
    out = FockVec.zero()
    for alpha, c in expansion.items():
        w = v
        for part in alpha:
            w = apply_h_perp(part, n, w)
        out = out + w * c
    return out


def apply_B_by_newton(k, n, v):
    """Heisenberg generators: B_{-k} = p_k(u) raises, B_k = p_k(u)^perp lowers (k > 0).

    p_k goes through Newton's identity into products of h_k.
    """
    if k == 0:
        raise ValueError("B_0 is not defined")
    if k < 0:
        return apply_expansion(power_in_h(-k), n, v)
    return apply_expansion_perp(power_in_h(k), n, v)


@cache
def _hook_tally(la, n, m):
    """{(mu, spin): c}, c != 0, of B_{-m} on la, tallied one hook at a time.

    p_m = sum_{b<m} (-1)^b s_{(m-b, 1^b)}, and each hook term adds the words
    of its positive formula, partitions.hook_strips, to la; every hook walks
    its own descending run.
    """
    tally = {}
    for b in range(m):
        for mu, spin, _ in hook_strips(la, n, m - b, b):
            tally[mu, spin] = tally.get((mu, spin), 0) + (-1) ** b
    return {key: c for key, c in tally.items() if c}


def B_moves_by_hooks(la, n, k):
    """{(mu, spin): c}, c != 0, of B_k on la, from hook-by-hook additions.

    B_{-m} is _hook_tally itself.  B_m = p_m(u)^perp is its transpose for
    the orthonormal pairing: la -> q^spin mu with coefficient c whenever
    B_{-m} takes mu to q^spin la with c, over every mu of size |la| - n m.
    No ribbon is ever removed.
    """
    if k < 0:
        return _hook_tally(la, n, -k)
    size = sum(la) - n * k
    return {(mu, spin): c for mu in (partitions_of(size) if size >= 0 else ())
            for (nu, spin), c in _hook_tally(mu, n, k).items() if nu == la}


def divexact(a, b):
    """Quotient a/b of QPolys when the division is exact in Z[q]; raises otherwise."""
    if not b:
        raise ZeroDivisionError("QPoly division by zero")
    rem = dict(a.coeffs)
    de = max(b.coeffs)
    dc = b.coeffs[de]
    quo = {}
    while rem:
        e = max(rem)
        c = rem[e]
        if e < de or c % dc:
            raise ValueError("inexact QPoly division")
        qe, qc = e - de, c // dc
        quo[qe] = qc
        for oe, oc in b.coeffs.items():
            k = oe + qe
            nc = rem.get(k, 0) - oc * qc
            if nc:
                rem[k] = nc
            else:
                rem.pop(k, None)
    return QPoly(quo)


def rank_by_bareiss(rows, ncols):
    """Rank over Q(q) of sparse QPoly rows by fraction-free Bareiss elimination."""
    rows = [dict(r) for r in rows]
    prev = QPoly.one()
    rank = 0
    for col in range(ncols):
        pivot = None
        for idx in range(rank, len(rows)):
            if rows[idx].get(col):
                pivot = idx
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for idx in range(rank + 1, len(rows)):
            r = rows[idx]
            f = r.pop(col, None)
            if f is None and not r:
                continue
            new = {}
            for c in set(r) | set(prow):
                if c == col:
                    continue
                val = p * r.get(c, QPoly.zero()) - (f or QPoly.zero()) * prow.get(c, QPoly.zero())
                if val:
                    new[c] = divexact(val, prev)
            rows[idx] = new
        prev = p
        rank += 1
    return rank


def weight_poly(outer, inner, n, weight):
    """Sum of q^spin over ribbon tableaux of shape outer/inner and given
    weight, read off the library's chain table tableaux._chains_below."""
    return QPoly(dict(terms(_chains_below(outer, n, tuple(weight)).get(inner, ()))))


@cache
def weight_poly_forward(outer, inner, n, weight):
    """Sum of q^spin over ribbon tableaux of outer/inner and the given weight.

    Adds the strips from inner up, weight[0] first, and drops every strip
    that leaves outer.
    """
    if not weight:
        return QPoly.one() if outer == inner else QPoly.zero()
    acc = {}
    rest = weight[1:]
    for la, sp in horizontal_strips(inner, n, weight[0]):
        if contains(outer, la):
            for e, x in weight_poly_forward(outer, la, n, rest).coeffs.items():
                acc[e + sp] = acc.get(e + sp, 0) + x
    return QPoly(acc)


def coefficient(v, la):
    """The QPoly coefficient of the basis partition la in the FockVec v."""
    return v.terms.get(la, QPoly.zero())


def to_monomial_basis(coeffs, degree):
    """{nu: QPoly} in the Schur basis -> the monomial basis, by counting fillings."""
    out = {}
    for nu, c in coeffs.items():
        for rho in partitions_of(degree):
            k = kostka_count(nu, rho)
            if k:
                out[rho] = out.get(rho, QPoly.zero()) + c * k
    return {rho: c for rho, c in out.items() if c}


def strip_heads(mu, la, n):
    """Ascending head diagonals tiling la/mu as a horizontal strip, else None.

    Searches the removal strips of la, as RibbonTableau.tiles once did.
    """
    size = sum(la) - sum(mu)
    if size % n or not contains(la, mu):
        return None
    for nu, _, heads in ribbon_strips(la, n, size // n, -1, remove=True):
        if nu == mu:
            return heads[::-1]
    return None


def reading_word(rows):
    """Top row right to left, then downwards."""
    word = []
    for row in rows:
        word.extend(reversed(row))
    return tuple(word)


def is_n_commuting(rows, n):
    """Filling test for a straight shape, one row tuple per row.

    Rows must strictly increase.  Columns past the first weakly increase
    downward; the first column only does where the lower row has a single
    cell.  Where the lower row has two or more cells, the two-by-two block
    in the first two columns obeys the (s, 2) rule of positive._s2_ok.

    The rule holds only for hooks, (s, 2) shapes and their conjugates:
    there the reading words of these fillings sum to s_nu(u).  For other
    shapes they need not: for (3, 3) at n = 3 their sum differs from
    apply_schur on 15 of the 19 partitions of size <= 5.
    """
    shape = tuple(len(r) for r in rows)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError("rows must form a partition shape")
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for up, down in zip(rows, rows[1:]):
        if len(down) == 1 and up[0] > down[0]:
            return False
        if len(down) >= 2 and not _s2_ok(up[0], up[1], down[0], down[1], n):
            return False
        if any(up[y] > down[y] for y in range(2, len(down))):
            return False
    return True


def formula_polynomial(nu, outer, inner, n):
    """Sum of q^spin over the positive formula's words from inner to outer."""
    total = QPoly.zero()
    for _, mu, spin in formula_words(nu, inner, n):
        if mu == tuple(outer):
            total = total + QPoly.q_power(spin)
    return total
