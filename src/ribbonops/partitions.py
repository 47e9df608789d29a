"""Partitions, their edge sequences, and single n-ribbon moves.

Partitions are plain tuples of weakly decreasing positive ints, hashable so
everything downstream can memoize on them.  The n-ribbon calculus runs on
the edge (Maya) sequence S(la) = {la_k - k : k >= 1}, a co-finite downward
set of integers: a ribbon with head on diagonal i is addable iff i-n lies in
S and i does not, the move swaps those two members, and the spin (rows of
the ribbon minus one) counts the members of S strictly between i-n and i.
"""

from __future__ import annotations

from functools import cache
from operator import le
from typing import NamedTuple


class RibbonSlot(NamedTuple):
    diagonal: int
    kind: str  # "add" or "remove"
    spin: int


def is_partition(la):
    return (
        isinstance(la, tuple)
        and all(isinstance(p, int) and p > 0 for p in la)
        and all(la[i] >= la[i + 1] for i in range(len(la) - 1))
    )


def parse_partition(text):
    """Read "7,6,4,3,1"; "" and "-" denote the empty partition."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition {text!r}") from None
    if not is_partition(parts):
        raise ValueError(f"bad partition {text!r}")
    return parts


def format_partition(la):
    return ",".join(str(p) for p in la) if la else "-"


def conjugate(la):
    if not la:
        return ()
    return tuple(sum(1 for p in la if p >= c) for c in range(1, la[0] + 1))


def contains(la, mu):
    """Cellwise containment mu subseteq la."""
    return len(mu) <= len(la) and all(map(le, mu, la))


def cells(la):
    """1-based (row, col) cells."""
    return [(r, c) for r, p in enumerate(la, start=1) for c in range(1, p + 1)]


def added_cells(mu, la):
    """Cells of la/mu, sorted by row then column."""
    if not contains(la, mu):
        raise ValueError("inner partition not contained in outer")
    out = []
    for r, p in enumerate(la, start=1):
        lo = mu[r - 1] if r <= len(mu) else 0
        out.extend((r, c) for c in range(lo + 1, p + 1))
    return out


@cache
def partitions_of(m, max_part=None):
    """All partitions of m in reverse-lexicographic order, (m) first.

    This order is a linear extension of dominance, which the Kostka-matrix
    inversion relies on.
    """
    if max_part is None or max_part > m:
        max_part = m
    if m == 0:
        return ((),)
    out = []
    for p in range(max_part, 0, -1):
        for rest in partitions_of(m - p, p):
            out.append((p,) + rest)
    return tuple(out)


def partitions_up_to(m):
    """All partitions of size <= m, smallest sizes first."""
    for s in range(m + 1):
        yield from partitions_of(s)


def subpartitions(la):
    """Every partition contained in la."""

    def rec(row, cap):
        yield ()
        if row == len(la):
            return
        for p in range(1, min(cap, la[row]) + 1):
            for rest in rec(row + 1, p):
                yield (p,) + rest

    return rec(0, la[0] if la else 0)


def _beta(la, m):
    """First m members of S(la), largest first."""
    l = len(la)
    return [la[k] - k - 1 for k in range(l)] + [-k for k in range(l + 1, m + 1)]


def _from_beta(beta):
    """Rebuild the partition from a full initial segment of its edge sequence."""
    out = []
    for k, b in enumerate(sorted(beta, reverse=True), start=1):
        p = b + k
        if p:
            out.append(p)
    return tuple(out)


@cache
def add_ribbon(la, i, n):
    """(mu, spin) where mu = la plus an n-ribbon with head on diagonal i, else None."""
    m = max(len(la), n - i, 1)
    beta = _beta(la, m)
    bset = set(beta)
    if (i - n) not in bset or i in bset:
        return None
    spin = sum(1 for b in bset if i - n < b < i)
    bset.discard(i - n)
    bset.add(i)
    return _from_beta(bset), spin


@cache
def remove_ribbon(la, i, n):
    """(mu, spin) where la = mu plus an n-ribbon with head on diagonal i, else None.

    Exact inverse of add_ribbon: remove_ribbon(la, i, n) == (mu, s) iff
    add_ribbon(mu, i, n) == (la, s).
    """
    m = max(len(la), n - i, 1)
    beta = _beta(la, m)
    bset = set(beta)
    if i not in bset or (i - n) in bset:
        return None
    spin = sum(1 for b in bset if i - n < b < i)
    bset.discard(i)
    bset.add(i - n)
    return _from_beta(bset), spin


def diagonal_window(la, n, k=1):
    """(lo, hi) covering every head diagonal reachable by <= k n-ribbon moves."""
    rows = len(la)
    cols = la[0] if la else 0
    return -(rows + n * k), cols + n * k


@cache
def ribbon_slots(la, n):
    """All addable/removable n-ribbon slots, ascending by head diagonal.

    A slot moves a member b of S(la) to b + n (add) or b to b - n (remove).
    Every member above -len(la) - n - 1 lies among the first len(la) + n, so
    those hold both ends of every slot and every member between them.
    """
    bset = set(_beta(la, len(la) + n))
    out = []
    for b in bset:
        if b + n not in bset:
            out.append((b + n, "add"))
        # every integer below -len(la) is a member, listed here or not
        if b - n not in bset and b >= n - len(la):
            out.append((b, "remove"))
    return tuple(RibbonSlot(i, kind, sum(1 for c in range(i - n + 1, i) if c in bset))
                 for i, kind in sorted(out))


def ribbon_strips(la, n, k, sign=1, remove=False, after=None):
    """(mu, spin, heads) over k n-ribbon additions to la, or removals from it.

    The head diagonals strictly increase in sign * diagonal along the way,
    starting past `after` when it is given (a run that continues an earlier
    one); the total spin is the sum of the ribbon spins.  Results come in
    lexicographic order of the head tuples.  The strips grow one ribbon per
    level, without recursion, so k is not bounded by the recursion limit.
    Not memoized: callers that need no heads use horizontal_strips.
    """
    if k < 0:
        raise ValueError(f"a strip needs k >= 0 ribbons, got {k}")
    kind, move = ("remove", remove_ribbon) if remove else ("add", add_ribbon)
    level = [(la, 0, ())]
    for _ in range(k):
        # extending a lexicographic list head by head keeps it lexicographic
        grown = []
        for cur, spin, heads in level:
            last = heads[-1] if heads else after
            for s in ribbon_slots(cur, n):
                if s.kind == kind and (last is None or sign * s.diagonal > sign * last):
                    nxt, sp = move(cur, s.diagonal, n)
                    grown.append((nxt, spin + sp, heads + (s.diagonal,)))
        level = grown
    return level


@cache
def horizontal_strips(la, n, k, remove=False):
    """All (mu, spin) with mu/la a horizontal strip of k n-ribbons.

    The ribbons go in with ascending heads, as h_k adds them; with
    remove=True, la/mu is the strip and they come out with descending heads,
    as h_k^perp removes them.  Distinct head sequences give distinct mu
    (tilings of a horizontal strip are unique), so the pairs need no
    merging.  k must be >= 0.
    """
    strips = ribbon_strips(la, n, k, -1 if remove else 1, remove)
    return tuple((mu, spin) for mu, spin, _ in strips)


def _runner_charges(la, n, m):
    """Charge o_r of each residue runner, using the first m beta numbers (n | m).

    Runner r holds the members of S(la) congruent to r mod n, rewritten as
    c = b // n; each runner is again co-finite downward and o_r is its unique
    charge: runner r equals {P_k - k + o_r} for a partition P.
    """
    runners = [[] for _ in range(n)]
    for b in _beta(la, m):
        runners[b % n].append(b // n)
    charges = []
    for r in range(n):
        c_min = -((m + r) // n)  # smallest c with n*c + r >= -m
        charges.append(c_min + len(runners[r]))
    return runners, charges


def core_and_quotient(la, n):
    """(core, quotient, offsets) for the n-core / n-quotient bijection.

    offsets[j] is the smallest integer congruent to j mod n missing from the
    core's edge sequence; with that normalization every n-core has quotient
    ((), ..., ()) and adding a box with head diagonal k to quotient[j]
    matches adding an n-ribbon with head diagonal n*k + offsets[j] to la.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = len(la) + (-len(la)) % n
    m = max(m, n)
    runners, charges = _runner_charges(la, n, m)
    quot = []
    for r in range(n):
        o = charges[r]
        parts = []
        for k, c in enumerate(sorted(runners[r], reverse=True), start=1):
            p = c + k - o
            if p:
                parts.append(p)
        quot.append(tuple(parts))
    core_beta = []
    for r in range(n):
        c_min = -((m + r) // n)
        core_beta.extend(n * c + r for c in range(c_min, charges[r]))
    core = _from_beta(core_beta)
    offsets = tuple(n * charges[r] + r for r in range(n))
    return core, tuple(quot), offsets


def is_core(la, n):
    return all(s.kind != "remove" for s in ribbon_slots(la, n))


def from_core_and_quotient(core, quotient, n):
    """Inverse of core_and_quotient (the offsets are recomputed from the core)."""
    if len(quotient) != n:
        raise ValueError("quotient must have n components")
    if not is_core(core, n):
        raise ValueError(f"{core} is not a {n}-core")
    total = sum(map(sum, quotient))
    m = max(len(core), n) + n * total
    m += (-m) % n
    _, charges = _runner_charges(core, n, m)
    beta = []
    for r, part in enumerate(quotient):
        if not is_partition(part):
            raise ValueError(f"bad quotient component {part!r}")
        c_min = -((m + r) // n)
        o = charges[r]
        k = 0
        while True:
            k += 1
            c = (part[k - 1] if k <= len(part) else 0) - k + o
            if c < c_min:
                break
            beta.append(n * c + r)
    return _from_beta(beta)
