"""Positive monomial formulas for schur functions in the u_i.

For hook shapes (a, 1^b) and two-row shapes (s, 2), the schur operator
s_nu(u) expands as a multiplicity-free sum of monomials u_w indexed by
fillings of nu whose rows strictly increase and whose reading word (top row
right to left, then the next rows) obeys the n-commuting constraints.  The
conjugate families (b+1, 1^(a-1)) and (2, 2, 1^(s-2)) come for free by
reversing the order on letter values, which swaps the roles of h and e.
Outside these families the filling rule does not give s_nu(u), so no
filling test for a general shape is offered: the words are generated per
family (hook_monomials, and s2_monomials with the block rule _s2_ok).
One lookup (_family) names the formula for nu and its letter order, for
the words acting on a partition (formula_words) and for the words over a
window of diagonals (monomials_in_window) alike.  The conjugate of a hook
is a hook, so only the (s, 2) words are ever read in reversed order.

Words are stored in product order (rightmost letter acts first), matching
apply_word.  The words acting on a partition are found as ribbon strips
(partitions.ribbon_strips and partitions.hook_strips).
"""

from __future__ import annotations

from itertools import combinations

from .fock import signed_map
from .partitions import add_ribbon, conjugate, hook_strips, ribbon_strips
from .tableaux import RibbonTableau


class UnsupportedShapeError(ValueError):
    """nu lies outside the implemented families {hooks, (s,2)} and their conjugates."""


def hook_monomials(a, b, window):
    """Product-order words of the hook (a, 1^b) formula over diagonals in window."""
    if a < 1 or b < 0:
        raise ValueError("hook needs a >= 1 arm and b >= 0 leg")
    lo, hi = window
    words = []
    for row in combinations(range(lo, hi + 1), a):
        for col in combinations(range(row[0] + 1, hi + 1), b):
            words.append(tuple(reversed(row)) + col)
    return words


def s2_monomials(s, n, window):
    """Product-order words of the (s, 2) formula over diagonals in window."""
    if s < 2:
        raise ValueError("(s,2) needs s >= 2")
    lo, hi = window
    words = []
    for c in range(lo, hi + 1):
        for d in range(c + 1, hi + 1):
            for row in combinations(range(lo, hi + 1), s):
                if _s2_ok(row[0], row[1], c, d, n):
                    words.append(tuple(reversed(row)) + (d, c))
    return words


def _s2_ok(x1, x2, c, d, n):
    """The two-by-two block (x1, x2) over (c, d) of an n-commuting filling.

    The second column weakly increases downward.  The block either descends
    in column one with the lower-row letters n-close (non-commuting), or
    ascends with the upper-right letter at most the lower-left one, or
    ascends with the upper-right letter larger and the corner letters far
    enough apart to commute.
    """
    if x2 > d:
        return False
    if x1 > c:
        return d - c <= n
    if x1 == c:
        return False
    return x2 <= c or d - x1 > n


def _s2_words(la, s, n, sign):
    """(product word, mu, spin) for (s,2)-formula words acting nonzero on la.

    The lower row (c, d) goes on as a 2-strip, then the top row: its first
    two heads as a 2-strip, kept only if _s2_ok passes (in the sign-adjusted
    order, the same rule s2_monomials uses), then its other s - 2 heads.
    Not memoized: formula_words reads every (la, nu) once.
    """
    out = []
    for mid, low_spin, (c, d) in ribbon_strips(la, n, 2, sign):
        for top, top_spin, (x1, x2) in ribbon_strips(mid, n, 2, sign):
            if _s2_ok(sign * x1, sign * x2, sign * c, sign * d, n):
                for mu, spin, rest in ribbon_strips(top, n, s - 2, sign, after=x2):
                    word = tuple(reversed((c, d, x1, x2) + rest))
                    out.append((word, mu, low_spin + top_spin + spin))
    return tuple(out)


def _classify(nu):
    nu = tuple(nu)
    if nu and all(p == 1 for p in nu[1:]):
        return ("hook", nu[0], len(nu) - 1)
    if len(nu) == 2 and nu[1] == 2:
        return ("s2", nu[0])
    return None


def _family(nu):
    """(kind, sign): the formula covering nu, and its order on letter values.

    sign is 1 when nu is a hook or (s,2) itself, and -1 when its conjugate
    is an (s,2) shape, whose words are then read with every letter negated.
    """
    kind = _classify(nu)
    if kind is not None:
        return kind, 1
    kind = _classify(conjugate(nu))
    if kind is None:
        raise UnsupportedShapeError(f"no positive formula implemented for {nu}")
    return kind, -1


def formula_words(nu, la, n):
    """All (product word, mu, spin) of the positive formula for s_nu(u) on la.

    Hook words are the hook strips of partitions.hook_strips: the leg goes
    first with strictly descending heads, then the arm with ascending heads
    starting below the last leg head.  (s,2) words and those of its
    conjugate come from _s2_words in the order _family gives.
    UnsupportedShapeError for any other nu.
    """
    kind, sign = _family(nu)
    if kind[0] == "hook":
        return tuple((heads[::-1], mu, spin) for mu, spin, heads in hook_strips(la, n, *kind[1:]))
    return _s2_words(la, kind[1], n, sign)


def apply_formula(nu, n, v):
    """Positive-formula action of s_nu(u) on a vector."""

    def moves(la):
        flat = []
        for _, mu, spin in formula_words(nu, la, n):
            flat += (mu, spin)
        return ((1, flat),)

    return signed_map(v, moves)


def monomials_in_window(nu, n, window):
    """Product-order words of the positive formula for nu over diagonals in window.

    For the conjugate of an (s,2) shape these are the (s,2) words over the
    negated window with every letter negated.  UnsupportedShapeError, with
    the message formula_words gives, for any other nu outside the families.
    """
    kind, sign = _family(nu)
    if kind[0] == "hook":
        return hook_monomials(*kind[1:], window)
    lo, hi = window if sign == 1 else (-window[1], -window[0])
    return [tuple(sign * l for l in w) for w in s2_monomials(kind[1], n, (lo, hi))]


def _increasing_runs(seq):
    runs = []
    for x in seq:
        if runs and x > runs[-1][-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    return runs


def yamanouchi_tableaux(nu, outer, inner, n):
    """Ribbon tableaux cut out of the positive formula's words.

    Each word with u_w . inner = q^spin outer is grouped into maximal
    strictly increasing runs of its application order; the runs are the
    strips of a ribbon tableau whose sorted weight must be nu.
    """
    nu = tuple(nu)
    if _classify(nu) is None:
        raise UnsupportedShapeError(f"yamanouchi extraction wants a hook or (s,2), got {nu}")
    found = []
    for word, mu, spin in formula_words(nu, inner, n):
        if mu != tuple(outer):
            continue
        runs = _increasing_runs(list(reversed(word)))
        profile = tuple(sorted((len(r) for r in runs), reverse=True))
        if profile != nu:
            raise AssertionError(f"word {word} groups as {profile}, expected {nu}")
        chain = [tuple(inner)]
        total = 0
        cur = tuple(inner)
        for run in runs:
            for i in run:
                cur, sp = add_ribbon(cur, i, n)
                total += sp
            chain.append(cur)
        assert cur == tuple(outer) and total == spin
        heads = tuple(map(tuple, runs))
        found.append(RibbonTableau(tuple(outer), tuple(inner), n, tuple(chain), spin, heads))
    return found
