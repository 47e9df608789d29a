"""Partitions, their edge sequences, and n-ribbon moves.

Partitions are plain tuples of weakly decreasing positive ints, hashable so
everything downstream can memoize on them.  The n-ribbon calculus runs on
the edge (Maya) sequence S(la) = {la_k - k : k >= 1}, a co-finite downward
set of integers: a ribbon with head on diagonal i is addable iff i-n lies in
S and i does not, the move swaps those two members, and the spin (rows of
the ribbon minus one) counts the members of S strictly between i-n and i.
Strips read all moves of a shape off one table, ribbon_moves.  Every move
passes through _slots or _single, which reject n < 1 with require_ribbons,
the one statement of that rule; entry points that divide by n call it
first.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from operator import le
from typing import NamedTuple


class RibbonSlot(NamedTuple):
    diagonal: int
    kind: str  # "add" or "remove"
    spin: int


def require_ribbons(n):
    """The one check that n-ribbons exist: n must be >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def is_partition(la):
    return (
        isinstance(la, tuple)
        and all(isinstance(p, int) and p > 0 for p in la)
        and all(map(le, la[1:], la))
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
    return ",".join(map(str, la)) if la else "-"


def conjugate(la):
    return tuple(sum(p >= c for p in la) for c in range(1, la[0] + 1)) if la else ()


def contains(la, mu):
    """Cellwise containment mu subseteq la."""
    return len(mu) <= len(la) and all(map(le, mu, la))


def added_cells(mu, la):
    """Cells of la/mu, sorted by row then column."""
    if not contains(la, mu):
        raise ValueError("inner partition not contained in outer")
    mu += (0,) * (len(la) - len(mu))
    return [(r, c) for r, (p, lo) in enumerate(zip(la, mu), 1) for c in range(lo + 1, p + 1)]


@cache
def partitions_of(m, max_part=None):
    """All partitions of m in reverse-lexicographic order, (m) first.

    This order is a linear extension of dominance, which the Kostka-matrix
    inversion relies on.
    """
    if m == 0:
        return ((),)
    top = m if max_part is None else min(max_part, m)
    return tuple((p,) + rest for p in range(top, 0, -1) for rest in partitions_of(m - p, p))


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
    """First max(m, len(la)) members of S(la), ascending."""
    l = len(la)
    return [-k for k in range(m, l, -1)] + [la[k] - k - 1 for k in range(l - 1, -1, -1)]


def _from_beta(beta):
    """Rebuild the partition from a full initial segment of its edge sequence."""
    return tuple(p for k, b in enumerate(sorted(beta, reverse=True), 1) if (p := b + k))


def _slot(members, j, p, n, remove):
    """(head, spin, t, r) moving b = members[j] by n, else None; p counts
    the members below b + n, or b - n + 1 on removal, and the ribbon fills
    rows t..r = t + spin."""
    b, top = members[j], len(members)
    if remove:
        if p and members[p - 1] != b - n:
            return b, j - p, top - j, top - p
    elif p == top or members[p] != b + n:
        return b + n, p - j - 1, top + 1 - p, top - j


def _slots(la, n, remove):
    """_slot of each move of la, heads ascending, in one pass over
    _beta(la, len(la) + n): p only moves up."""
    require_ribbons(n)
    members, p, reach = _beta(la, len(la) + n), 0, 1 - n if remove else n
    for j, b in enumerate(members):
        while p < len(members) and members[p] < b + reach:
            p += 1
        if slot := _slot(members, j, p, n, remove):
            yield slot


def _moved(la, n, slot, remove):
    """(mu, spin): adding puts i + t in row t and moves rows t..r-1 down a
    row, each a box longer; removing undoes that."""
    i, spin, t, r = slot
    if remove:
        run = tuple(p for p in (*(x - 1 for x in la[t:r]), i - n + r) if p)
    else:
        la += (0,) * (r - len(la))
        run = (i + t, *(x + 1 for x in la[t - 1 : r - 1]))
    return la[: t - 1] + run + la[r:], spin


def _single(la, i, n, remove):
    require_ribbons(n)
    members, b = _beta(la, len(la) + n), i if remove else i - n
    j = bisect_left(members, b)
    if members[j : j + 1] == [b]:
        p = bisect_left(members, b + (1 - n if remove else n))
        return (slot := _slot(members, j, p, n, remove)) and _moved(la, n, slot, remove)


@cache
def add_ribbon(la, i, n):
    """(mu, spin) where mu = la plus an n-ribbon with head on diagonal i, else None."""
    return _single(la, i, n, False)


@cache
def remove_ribbon(la, i, n):
    """(mu, spin) where la = mu plus an n-ribbon with head on diagonal i, else None.

    Exact inverse of add_ribbon: remove_ribbon(la, i, n) == (mu, s) iff
    add_ribbon(mu, i, n) == (la, s).
    """
    return _single(la, i, n, True)


def diagonal_window(la, n, k=1):
    """(lo, hi) covering every head diagonal reachable by <= k n-ribbon moves."""
    return -(len(la) + n * k), (la[0] if la else 0) + n * k


@cache
def ribbon_moves(la, n, remove=False):
    """{head: (mu, spin)} of each n-ribbon added to la (removed with
    remove=True), heads ascending."""
    return {slot[0]: _moved(la, n, slot, remove) for slot in _slots(la, n, remove)}


def ribbon_slots(la, n):
    """All addable/removable n-ribbon slots, ascending by head diagonal."""
    return tuple(sorted(RibbonSlot(slot[0], kind, slot[1]) for kind in ("add", "remove")
                        for slot in _slots(la, n, kind == "remove")))


def ribbon_strips(la, n, k, sign=1, remove=False, after=None):
    """(mu, spin, heads) over k n-ribbon additions to la, or removals from it.

    The heads strictly increase in sign * diagonal, past `after` when it is
    given (a run continuing an earlier one); spin is the total.  Results
    come in lexicographic order of the head tuples.  Each level reads
    ribbon_moves, without recursion, so k is not bounded by the recursion
    limit.  Not memoized: callers needing no heads use horizontal_strips.
    """
    if k < 0:
        raise ValueError(f"a strip needs k >= 0 ribbons, got {k}")
    level = [(la, 0, ())]
    for _ in range(k):
        # extending a lexicographic list head by head keeps it lexicographic
        grown = []
        for cur, spin, heads in level:
            last = heads[-1] if heads else after
            for i, (nxt, sp) in ribbon_moves(cur, n, remove).items():
                if last is None or sign * i > sign * last:
                    grown.append((nxt, spin + sp, heads + (i,)))
                elif sign < 0:
                    break  # the heads ascend: none later is below last
        level = grown
    return level


def hook_strips(la, n, a, b):
    """(mu, spin, heads) over the hook-formula words of (a, 1^b) added to la, a >= 1.

    The leg goes on first, b + 1 ribbons with descending heads, then the arm,
    a - 1 ribbons with ascending heads after the last leg head.  heads lists
    the ribbons in the order they go on and spin is their total.  The
    transpose, which takes the words off again, is operators._B_moves' own
    descending walk.
    """
    for low, low_spin, first in ribbon_strips(la, n, b + 1, -1):
        for mu, spin, then in ribbon_strips(low, n, a - 1, 1, after=first[-1]):
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
    # -((m + r) // n) is the smallest c with n*c + r >= -m
    return runners, [len(runners[r]) - (m + r) // n for r in range(n)]


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
    require_ribbons(n)
    m = max(len(la) + (-len(la)) % n, n)
    runners, charges = _runner_charges(la, n, m)
    quot = tuple(_from_beta([c - o for c in runner]) for runner, o in zip(runners, charges))
    core = _from_runners(((),) * n, runners, charges, n)
    offsets = tuple(n * charges[r] + r for r in range(n))
    return core, quot, offsets


def is_core(la, n):
    return not any(_slots(la, n, True))


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
