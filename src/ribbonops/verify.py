"""Exhaustive desk-scale checks of the operator identities.

Every checker sweeps all partitions up to a size bound, compares both sides
of an identity exactly, and returns a VerificationReport whose failures
carry enough data to replay one bad case by hand; a sweep with no cases is
not ok.  Each image of v is computed once per shape: a checker first builds,
for the basis vector v of a shape, every single-operator image and every
ordered product its rules read, and the rules then compare those images.

algebra_dimension measures the rank of the span of u-word matrices on a
truncated Fock space over the field Q(q) of rational functions in q, in one
loop over size cutoffs n apart: an explicit max_size is compared with
max_size - n, and without one the cutoff grows until three ranks in a row
agree or it passes 40 n.  The
rank is certified exactly, without floats or tolerances, by one sparse
elimination run at integer values of q.  Every entry is a power of q, and
setting q to a point (mod a prime or not) can only lower a rank, while no
rank exceeds min(rows, columns); so when one point mod 2^61 - 1 reaches that
bound, it is the rank.  Otherwise the exact ranks over Q at R D + 1 points
decide, where R is that bound and D the largest exponent: no nonzero minor
vanishes at all of them.
"""

from __future__ import annotations

import random
import time

from .fock import FockVec
from .operators import (
    apply_B,
    apply_d,
    apply_diag,
    apply_diag_sum_from,
    apply_h,
    apply_h_perp,
    apply_u,
    heisenberg_scalar,
)
from .partitions import (
    add_ribbon,
    diagonal_window,
    format_partition,
    partitions_up_to,
    require_ribbons,
    ribbon_slots,
)
from .qpoly import QPoly, qbracket
from .symfunc import h_eval_at_q2


class VerificationReport:
    def __init__(self, identity, n, params, cases=0, failures=None, elapsed=0.0):
        self.identity = identity
        self.n = n
        self.params = params
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

    @property
    def ok(self):
        return self.cases > 0 and not self.failures

    def tally(self, lhs, rhs, witness):
        self.cases += 1
        if lhs != rhs:
            self.failures.append(dict(witness, lhs=str(lhs), rhs=str(rhs)))

    def to_json(self):
        return {
            "identity": self.identity,
            "n": self.n,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
        }

    def summary(self):
        if self.ok:
            word = "ok"
        elif self.failures:
            word = f"{len(self.failures)} FAILED"
        else:
            word = "NOTHING CHECKED"
        return (f"{self.identity} n={self.n} {self.params}: "
                f"{self.cases} cases, {word} ({self.elapsed:.2f}s)")


def _sweep(identity, n, params, max_size, shapes, cases):
    """Tally every case of one identity over shapes, or all partitions up to max_size.

    cases(la, v) yields (lhs, rhs, witness) for the basis vector v = la; a
    failing case records its witness with the shape, lhs and rhs appended.
    """
    require_ribbons(n)
    t0 = time.perf_counter()
    rep = VerificationReport(identity, n, params)
    for la in (partitions_up_to(max_size) if shapes is None else shapes):
        shape = format_partition(la)
        for lhs, rhs, witness in cases(la, FockVec.basis(la)):
            witness["shape"] = shape
            rep.tally(lhs, rhs, witness)
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_relations(n, max_size, shapes=None):
    """Local relations of the u_i and the off-diagonal ud commutation."""
    zero = FockVec.zero()

    def cases(la, v):
        lo, hi = diagonal_window(la, n, 2)
        span = range(lo, hi + n + 1)
        up = {i: apply_u(i, n, v) for i in span}
        down = {i: apply_d(i, n, v) for i in range(lo, hi + 1)}
        # uu[a, b] = u_a u_b v for the letter pairs in the window and those n apart
        uu = {(a, b): apply_u(a, n, up[b]) for a in span for b in span
              if max(a, b) <= hi or abs(a - b) == n}
        for i in range(lo, hi + 1):
            yield uu[i, i], zero, {"rule": "u_i u_i = 0", "i": i}
            yield (apply_u(i + n, n, uu[i, i + n]), zero,
                   {"rule": "u_{i+n} u_i u_{i+n} = 0", "i": i})
            yield (apply_u(i, n, uu[i + n, i]), zero,
                   {"rule": "u_i u_{i+n} u_i = 0", "i": i})
            for j in range(lo, i):
                yield (apply_u(i, n, down[j]), apply_d(j, n, up[i]),
                       {"rule": "u_i d_j = d_j u_i", "i": i, "j": j})
                yield (apply_u(j, n, down[i]), apply_d(i, n, up[j]),
                       {"rule": "u_j d_i = d_i u_j", "i": i, "j": j})
                if i - j > n:
                    yield uu[i, j], uu[j, i], {"rule": "far letters commute", "i": i, "j": j}
                elif i - j < n:
                    yield (uu[i, j], uu[j, i] * QPoly.q_power(2),
                           {"rule": "u_i u_j = q^2 u_j u_i", "i": i, "j": j})

    return _sweep("relations", n, {"max_size": max_size}, max_size, shapes, cases)


def check_h_commute(n, kmax, max_size, shapes=None):
    """Horizontal strip operators commute pairwise."""
    def cases(la, v):
        h = {a: apply_h(a, n, v) for a in range(1, kmax + 1)}
        for a in range(1, kmax + 1):
            for b in range(a + 1, kmax + 1):
                yield apply_h(a, n, h[b]), apply_h(b, n, h[a]), {"a": a, "b": b}

    return _sweep("hcommute", n, {"kmax": kmax, "max_size": max_size},
                  max_size, shapes, cases)


def check_cauchy(n, amax, bmax, max_size, shapes=None):
    """h_b^perp h_a = sum_i h_i(1, q^2, ..., q^(2n-2)) h_{a-i} h_{b-i}^perp."""
    def cases(la, v):
        up = [apply_h(a, n, v) for a in range(amax + 1)]
        down = [apply_h_perp(b, n, v) for b in range(bmax + 1)]
        # lhs[a][b] = h_b^perp h_a v and rhs[a][b] = h_a h_b^perp v
        lhs = [[apply_h_perp(b, n, w) for b in range(bmax + 1)] for w in up]
        rhs = [[apply_h(a, n, w) for w in down] for a in range(amax + 1)]
        for a in range(amax + 1):
            for b in range(bmax + 1):
                total = FockVec.zero()
                for i in range(min(a, b) + 1):
                    total = total + rhs[a - i][b - i] * h_eval_at_q2(i, n)
                yield lhs[a][b], total, {"a": a, "b": b}

    return _sweep("cauchy", n, {"amax": amax, "bmax": bmax, "max_size": max_size},
                  max_size, shapes, cases)


def check_heisenberg(n, kmax, max_size, shapes=None):
    """[B_k, B_l] = delta_{k,-l} k [n]_{q^(2|k|)} as operators."""
    ks = [k for k in range(-kmax, kmax + 1) if k != 0]

    def cases(la, v):
        once = {l: apply_B(l, n, v) for l in ks}
        twice = {(k, l): apply_B(k, n, once[l]) for k in ks for l in ks}
        for k in ks:
            for l in ks:
                rhs = v * heisenberg_scalar(k, n) if k == -l else FockVec.zero()
                yield twice[k, l] - twice[l, k], rhs, {"k": k, "l": l}

    return _sweep("heisenberg", n, {"kmax": kmax, "max_size": max_size},
                  max_size, shapes, cases)


def check_haction(n, jmax, max_size, shapes=None):
    """Diagonal operators: closed form of (u_i d_i)^j - (d_i u_i)^j and the
    q-integer values of their tail sums along the diagonal line."""
    def cases(la, v):
        lo, hi = diagonal_window(la, n, 1)
        slots = ribbon_slots(la, n)
        # the j-th powers (d_i u_i)^j v and (u_i d_i)^j v, each one step on from the last
        ud = dict.fromkeys(range(lo, hi + 1), v)
        du = dict(ud)
        for j in range(1, jmax + 1):
            for i in range(lo, hi + 1):
                ud[i] = apply_d(i, n, apply_u(i, n, ud[i]))
                du[i] = apply_u(i, n, apply_d(i, n, du[i]))
                yield (du[i] - ud[i], apply_diag(i, j, n, v),
                       {"rule": "closed form", "i": i, "j": j})
            yield (apply_diag_sum_from(lo, j, n, v), v * (-qbracket(n, 2 * j)),
                   {"rule": "full line", "j": j})
            for s in slots:
                count = s.spin + 1 if s.kind == "add" else s.spin
                yield (apply_diag_sum_from(s.diagonal, j, n, v),
                       v * (-qbracket(count, 2 * j)),
                       {"rule": f"tail at {s.kind} slot", "i": s.diagonal, "j": j,
                        "spin": s.spin})

    return _sweep("haction", n, {"jmax": jmax, "max_size": max_size},
                  max_size, shapes, cases)


# Insertion order is the order of `ribbonops verify --identity all`.
CHECKERS = {
    "relations": lambda n, max_size, shapes=None: check_relations(n, max_size, shapes),
    "cauchy": lambda n, max_size, shapes=None: check_cauchy(n, 4, 4, max_size, shapes),
    "heisenberg": lambda n, max_size, shapes=None: check_heisenberg(n, 3, max_size, shapes),
    "haction": lambda n, max_size, shapes=None: check_haction(n, 2, max_size, shapes),
    "hcommute": lambda n, max_size, shapes=None: check_h_commute(n, 4, max_size, shapes),
}


def run_identity(name, n, max_size, shapes=None):
    try:
        checker = CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}; pick from {sorted(CHECKERS)}")
    return checker(n, max_size, shapes)


class DimensionReport:
    def __init__(self, n, k, max_size, residues, basis_size, words, rank,
                 rank_smaller, stable, specialization_ranks, certificate, elapsed):
        self.n = n
        self.k = k
        self.max_size = max_size
        self.residues = residues
        self.basis_size = basis_size
        self.words = words
        self.rank = rank
        self.rank_smaller = rank_smaller
        self.stable = stable
        self.specialization_ranks = specialization_ranks
        self.certificate = certificate
        self.elapsed = elapsed

    def to_json(self):
        return {
            "n": self.n, "k": self.k, "max_size": self.max_size,
            "residues": list(self.residues), "basis_size": self.basis_size,
            "words": self.words, "rank": self.rank,
            "rank_smaller": self.rank_smaller, "stable": self.stable,
            "specialization_ranks": list(self.specialization_ranks),
            "certificate": self.certificate,
            "elapsed": round(self.elapsed, 3),
        }

    def summary(self):
        tag = "stable" if self.stable else "UNSTABLE"
        return (f"dim n={self.n} k={self.k} max_size={self.max_size}: "
                f"rank {self.rank} over {self.words} word matrices "
                f"({tag}, smaller cutoff gives {self.rank_smaller}, "
                f"{self.elapsed:.2f}s)")


def _word_matrices(n, k, max_size, residues):
    """Basis size and sparse rows of the distinct u-word matrices on the truncated basis.

    Only the domain is cut off; images may outgrow it.  Each matrix is a
    monomial partial map la -> q^t mu, held as its sorted (la, mu, t)
    entries; q^c multiples are identified by shifting the minimum exponent
    to zero, which is harmless for the rank over rational functions in q.
    Returns (basis size, rows, ncols): one row {col: exponent} per distinct
    matrix, in breadth-first order, over the columns of its (la, mu) entries.
    """
    basis = [la for la in partitions_up_to(max_size)
             if sum(la) % n in residues]
    gens = range(1, k * n + 1)
    ident = _normalize({la: (la, 0) for la in basis})
    seen = {ident}
    frontier = [ident]
    coords = {}
    rows = []
    length = 0
    while frontier:
        length += 1
        if length > 64:
            raise RuntimeError("word length cap hit; algebra looks infinite here")
        nxt = []
        for mat in frontier:
            rows.append({coords.setdefault((la, mu), len(coords)): t for la, mu, t in mat})
            for g in gens:
                new = {}
                for la, mu, t in mat:
                    hit = add_ribbon(mu, g, n)
                    if hit is not None:
                        new[la] = (hit[0], t + hit[1])
                if not new:
                    continue
                key = _normalize(new)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return len(basis), rows, len(coords)


def _normalize(mat):
    base = min((t for _, t in mat.values()), default=0)
    return tuple(sorted((la, mu, t - base) for la, (mu, t) in mat.items()))


# A Mersenne prime: q = a mod P is the one point of the modular certificate.
_P = 2 ** 61 - 1


def _rank(rows, point, modulus=None):
    """Rank of sparse rows {col: exponent} with q set to an integer point.

    The entries are q^exponent.  With a modulus the elimination runs over
    that prime field, otherwise exactly over Q.  Each row is reduced by the
    pivot rows, keyed by their leading column and scaled to lead with 1,
    until it vanishes or leads a column of its own.
    """
    if modulus is None:
        from fractions import Fraction

        reduce, inverse = (lambda x: x), (lambda x: 1 / Fraction(x))
    else:
        reduce, inverse = (lambda x: x % modulus), (lambda x: pow(x, -1, modulus))
    powers = {t: reduce(point ** t) for row in rows for t in row.values()}
    pivots = {}
    for row in rows:
        r = {c: powers[t] for c, t in row.items() if powers[t]}
        while r:
            col = min(r)
            prow = pivots.get(col)
            if prow is None:
                scale = inverse(r[col])
                pivots[col] = {c: reduce(v * scale) for c, v in r.items()}
                break
            f = r.pop(col)
            for c, v in prow.items():
                if c != col:
                    nv = reduce(r.get(c, 0) - f * v)
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
    return len(pivots)


def _certified_rank(rows, ncols, point):
    """Exact rank over Q(q) of sparse rows {col: exponent}, with its certificate.

    Returns (rank, specialization ranks, certificate).  The rows are ranked
    once at q = point mod P; q -> point mod P is a ring map, so that rank is
    at most the rank over Q(q), and when it reaches min(rows, ncols) it is
    the rank (certificate "specialization").  Otherwise the rows are ranked
    exactly over Q at q = 0, 1, ..., R D, with R = min(rows, ncols) and D the
    largest exponent: a nonzero r x r minor is a polynomial of degree at most
    R D, so it is nonzero at one of those points, and the largest of those
    ranks is the rank (certificate "degree-bound").  It must reach the
    modular rank, else RuntimeError.
    """
    full = min(len(rows), ncols)
    modular = _rank(rows, point, _P)
    if modular == full:
        return full, (modular,), "specialization"
    top = max((t for row in rows for t in row.values()), default=0)
    rank = 0
    for x in range(full * top + 1):
        rank = max(rank, _rank(rows, x))
        if rank == full:
            break
    if rank < modular:
        raise RuntimeError(
            f"exact rank {rank} is below the modular rank {modular}; "
            f"the exact elimination is wrong")
    return rank, (modular,), "degree-bound"


def algebra_dimension(n, k, max_size=None, residues=None, seed=0):
    """Rank of the span of u_1..u_{kn} word matrices on a truncated basis.

    Truncating the Fock space can only collapse words, so the rank grows
    monotonically with the size cutoff towards the dimension of the algebra
    the words span.  One loop ranks cutoffs n apart.  Without an explicit
    max_size it starts at max(n (k + 1), n k^2) and stops when three
    consecutive cutoffs give the same rank, or unstable at the first cutoff
    past 40 n; a start too late for three cutoffs (k >= 7) is a ValueError
    before anything is built.  With an explicit max_size it ranks
    max_size - n and max_size and is stable when the two agree, and the
    40 n cap does not apply.  Either way "stable" means the rank stopped
    growing over the cutoffs tried: it is evidence of convergence, not a
    proof.

    Each rank is exact over Q(q).  It is computed once with q set to a
    seeded random integer modulo the prime 2^61 - 1; when that reaches the
    full min(words, matrix entries), it is the rank (certificate
    "specialization", the one entry of specialization_ranks).  Otherwise the
    exact ranks over Q at the points 0..R D decide (certificate
    "degree-bound", see _certified_rank) and must reach at least the modular
    rank, else RuntimeError.  The report's certificate is the one of its
    rank, the rank at the largest cutoff.
    """
    require_ribbons(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_size is not None and max_size < n:
        raise ValueError(
            f"max_size must be >= n={n}, so that the smaller cutoff max_size - n "
            f"is not negative; got {max_size}")
    t0 = time.perf_counter()
    residues = tuple(sorted({r % n for r in (range(n) if residues is None else residues)}))
    if not residues:
        raise ValueError("residues must keep at least one size class mod n")
    point = random.Random(seed).randrange(2, _P - 1)
    # rank cutoffs n apart until `need` ranks in a row agree or the cutoff reaches `last`
    if max_size is None:
        max_size, need, last = max(n * (k + 1), n * k * k), 3, 40 * n + 1
        if max_size + n >= last:  # k >= 7: the loop would stop before a third rank
            raise ValueError(
                f"automatic cutoffs for k={k} start at {max_size}, too close to the cap "
                f"40n={40 * n} for three ranks to agree; pass --max-size to choose one")
    else:
        max_size, need, last = max_size - n, 2, max_size
    history = []
    while True:
        basis_size, rows, ncols = _word_matrices(n, k, max_size, residues)
        rank, spec, certificate = _certified_rank(rows, ncols, point)
        history.append(rank)
        stable = history[-need:] == [rank] * need
        if stable or max_size >= last:
            break
        max_size += n
    rank_smaller = history[-2] if len(history) > 1 else rank
    return DimensionReport(
        n=n, k=k, max_size=max_size, residues=residues,
        basis_size=basis_size, words=len(rows), rank=rank,
        rank_smaller=rank_smaller, stable=stable,
        specialization_ranks=spec, certificate=certificate,
        elapsed=time.perf_counter() - t0)
