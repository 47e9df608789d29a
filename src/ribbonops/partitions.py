"""Partitions, their edge sequences, and single n-ribbon moves.

Partitions are plain tuples of weakly decreasing positive ints, hashable so
everything downstream can memoize on them.  The n-ribbon calculus runs on
the edge (Maya) sequence S(la) = {la_k - k : k >= 1}, a co-finite downward
set of integers: a ribbon with head on diagonal i is addable iff i-n lies in
S and i does not, the move swaps those two members, and the spin (rows of
the ribbon minus one) counts the members of S strictly between i-n and i.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _members(la, n):
    """The first len(la) + n members of S(la), ascending: every member from
    -len(la) - n up, so both ends of each n-ribbon move and all between."""
    return _beta(la, len(la) + n)[::-1]


def _spin(members, i, n):
    """Members strictly between i - n and i: the spin of a ribbon with head i."""
    return bisect_left(members, i) - bisect_right(members, i - n)


def _move(la, n, src, dst):
    """(mu, spin) with S(mu) = S(la) - {src} + {dst}, dst = src +- n, else None.

    The move needs src in S(la) and dst outside it; below -len(la) - n every
    integer is a member, so dst there gives no move.
    """
    if dst < -len(la) - n:
        return None
    members = _members(la, n)
    if src not in members or dst in members:
        return None
    spin = _spin(members, max(src, dst), n)
    members[members.index(src)] = dst
    return _from_beta(members), spin


@cache
def add_ribbon(la, i, n):
    """(mu, spin) where mu = la plus an n-ribbon with head on diagonal i, else None."""
    return _move(la, n, i - n, i)


@cache
def remove_ribbon(la, i, n):
    """(mu, spin) where la = mu plus an n-ribbon with head on diagonal i, else None.

    Exact inverse of add_ribbon: remove_ribbon(la, i, n) == (mu, s) iff
    add_ribbon(mu, i, n) == (la, s).
    """
    return _move(la, n, i, i - n)


def diagonal_window(la, n, k=1):
    """(lo, hi) covering every head diagonal reachable by <= k n-ribbon moves."""
    rows = len(la)
    cols = la[0] if la else 0
    return -(rows + n * k), cols + n * k


@cache
def ribbon_slots(la, n):
    """All addable/removable n-ribbon slots, ascending by head diagonal.

    A slot moves a member b of S(la) to b + n (add) or b to b - n (remove),
    the moves of add_ribbon and remove_ribbon; the members and the spin
    count are theirs too (_members, _spin).
    """
    members = _members(la, n)
    bset = set(members)
    out = []
    for b in members:
        if b + n not in bset:
            out.append((b + n, "add"))
        # every integer below -len(la) is a member, listed here or not
        if b - n not in bset and b >= n - len(la):
            out.append((b, "remove"))
    return tuple(RibbonSlot(i, kind, _spin(members, i, n)) for i, kind in sorted(out))


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


def hook_strips(la, n, a, b, remove=False):
    """(mu, spin, heads) over the hook-formula words of (a, 1^b) on la, a >= 1.

    The leg goes on first, b + 1 ribbons with descending heads, then the arm,
    a - 1 ribbons with ascending heads after the last leg head.  With
    remove=True the same words run backwards on la: the arm comes off first,
    a ribbons with descending heads, then the leg, b ribbons with heads
    ascending after the last arm head.  heads lists the ribbons in the order
    they move and spin is their total.  A generator: its callers read it
    once, and B_{-k} never holds all of its words at a time.
    """
    down, up = (a, b) if remove else (b + 1, a - 1)
    for low, low_spin, first in ribbon_strips(la, n, down, -1, remove):
        for mu, spin, then in ribbon_strips(low, n, up, 1, remove, after=first[-1]):
            yield mu, low_spin + spin, first + then


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


def _from_runners(parts, runners, charges, n):
    """The partition whose runner r is S(parts[r]) shifted by charges[r],
    cut to the len(runners[r]) members that the first m beta numbers hold."""
    return _from_beta([n * (b + o) + r
                       for r, (part, runner, o) in enumerate(zip(parts, runners, charges))
                       for b in _beta(part, len(runner))])


def core_and_quotient(la, n):
    """(core, quotient, offsets) for the n-core / n-quotient bijection.

    Runner r of S(la), shifted down by its charge, is S(quotient[r]); the
    core has the same charges and the runners of the empty partition.
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
    quot = tuple(_from_beta([c - o for c in runner]) for runner, o in zip(runners, charges))
    core = _from_runners(((),) * n, runners, charges, n)
    offsets = tuple(n * charges[r] + r for r in range(n))
    return core, quot, offsets


def is_core(la, n):
    return all(s.kind != "remove" for s in ribbon_slots(la, n))


def from_core_and_quotient(core, quotient, n):
    """Inverse of core_and_quotient (the offsets are recomputed from the core)."""
    if len(quotient) != n:
        raise ValueError("quotient must have n components")
    if not is_core(core, n):
        raise ValueError(f"{core} is not a {n}-core")
    for part in quotient:
        if not is_partition(part):
            raise ValueError(f"bad quotient component {part!r}")
    total = sum(map(sum, quotient))
    # a runner of the core then holds at least total >= len(part) members
    m = max(len(core), n) + n * total
    m += (-m) % n
    return _from_runners(quotient, *_runner_charges(core, n, m), n)
