"""Exhaustive desk-scale checks of the operator identities.

Every checker sweeps all partitions up to a size bound, compares both sides
of an identity exactly, and returns a VerificationReport whose failures
carry enough data to replay one bad case by hand; a sweep with no cases is
not ok.

algebra_dimension measures the rank of the span of u-word matrices on a
truncated Fock space over the field Q(q) of rational functions in q.  The
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


def _require_ribbons(n):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _sweep(identity, n, params, max_size, shapes, cases):
    """Tally every case of one identity over shapes, or all partitions up to max_size.

    cases(la, v) yields (lhs, rhs, witness) for the basis vector v = la; a
    failing case records its witness with the shape, lhs and rhs appended.
    """
    _require_ribbons(n)
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
        for i in range(lo, hi + 1):
            yield (apply_u(i, n, apply_u(i, n, v)), zero,
                   {"rule": "u_i u_i = 0", "i": i})
            yield (apply_u(i + n, n, apply_u(i, n, apply_u(i + n, n, v))), zero,
                   {"rule": "u_{i+n} u_i u_{i+n} = 0", "i": i})
            yield (apply_u(i, n, apply_u(i + n, n, apply_u(i, n, v))), zero,
                   {"rule": "u_i u_{i+n} u_i = 0", "i": i})
            for j in range(lo, i):
                yield (apply_u(i, n, apply_d(j, n, v)), apply_d(j, n, apply_u(i, n, v)),
                       {"rule": "u_i d_j = d_j u_i", "i": i, "j": j})
                yield (apply_u(j, n, apply_d(i, n, v)), apply_d(i, n, apply_u(j, n, v)),
                       {"rule": "u_j d_i = d_i u_j", "i": i, "j": j})
                uij = apply_u(i, n, apply_u(j, n, v))
                uji = apply_u(j, n, apply_u(i, n, v))
                if i - j > n:
                    yield uij, uji, {"rule": "far letters commute", "i": i, "j": j}
                elif i - j < n:
                    yield (uij, uji * QPoly.q_power(2),
                           {"rule": "u_i u_j = q^2 u_j u_i", "i": i, "j": j})

    return _sweep("relations", n, {"max_size": max_size}, max_size, shapes, cases)


def check_h_commute(n, kmax, max_size, shapes=None):
    """Horizontal strip operators commute pairwise."""
    def cases(la, v):
        for a in range(1, kmax + 1):
            for b in range(a + 1, kmax + 1):
                yield (apply_h(a, n, apply_h(b, n, v)), apply_h(b, n, apply_h(a, n, v)),
                       {"a": a, "b": b})

    return _sweep("hcommute", n, {"kmax": kmax, "max_size": max_size},
                  max_size, shapes, cases)


def check_cauchy(n, amax, bmax, max_size, shapes=None):
    """h_b^perp h_a = sum_i h_i(1, q^2, ..., q^(2n-2)) h_{a-i} h_{b-i}^perp."""
    def cases(la, v):
        for a in range(amax + 1):
            for b in range(bmax + 1):
                rhs = FockVec.zero()
                for i in range(min(a, b) + 1):
                    term = apply_h(a - i, n, apply_h_perp(b - i, n, v))
                    rhs = rhs + term * h_eval_at_q2(i, n)
                yield apply_h_perp(b, n, apply_h(a, n, v)), rhs, {"a": a, "b": b}

    return _sweep("cauchy", n, {"amax": amax, "bmax": bmax, "max_size": max_size},
                  max_size, shapes, cases)


def check_heisenberg(n, kmax, max_size, shapes=None):
    """[B_k, B_l] = delta_{k,-l} k [n]_{q^(2|k|)} as operators."""
    ks = [k for k in range(-kmax, kmax + 1) if k != 0]

    def cases(la, v):
        for k in ks:
            for l in ks:
                lhs = apply_B(k, n, apply_B(l, n, v)) - apply_B(l, n, apply_B(k, n, v))
                rhs = v * heisenberg_scalar(k, n) if k == -l else FockVec.zero()
                yield lhs, rhs, {"k": k, "l": l}

    return _sweep("heisenberg", n, {"kmax": kmax, "max_size": max_size},
                  max_size, shapes, cases)


def check_haction(n, jmax, max_size, shapes=None):
    """Diagonal operators: closed form of (u_i d_i)^j - (d_i u_i)^j and the
    q-integer values of their tail sums along the diagonal line."""
    def cases(la, v):
        lo, hi = diagonal_window(la, n, 1)
        for j in range(1, jmax + 1):
            for i in range(lo, hi + 1):
                ud, du = v, v
                for _ in range(j):
                    ud = apply_d(i, n, apply_u(i, n, ud))
                    du = apply_u(i, n, apply_d(i, n, du))
                yield du - ud, apply_diag(i, j, n, v), {"rule": "closed form", "i": i, "j": j}
            yield (apply_diag_sum_from(lo, j, n, v), v * (-qbracket(n, 2 * j)),
                   {"rule": "full line", "j": j})
            for s in ribbon_slots(la, n):
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
    """Distinct matrices of u-words restricted to the truncated basis.

    Only the domain is cut off; images may outgrow it.  Each matrix is a
    monomial partial map {la: (mu, t)}; q^c multiples are identified by
    shifting the minimum exponent to zero, which is harmless for the rank
    over rational functions in q.
    """
    basis = [la for la in partitions_up_to(max_size)
             if sum(la) % n in residues]
    gens = range(1, k * n + 1)
    ident = {la: (la, 0) for la in basis}
    seen = {_normalize(ident)}
    frontier = [ident]
    length = 0
    while frontier:
        length += 1
        if length > 64:
            raise RuntimeError("word length cap hit; algebra looks infinite here")
        nxt = []
        for mat in frontier:
            for g in gens:
                new = {}
                for la, (mu, t) in mat.items():
                    hit = add_ribbon(mu, g, n)
                    if hit is not None:
                        new[la] = (hit[0], t + hit[1])
                if not new:
                    continue
                key = _normalize(new)
                if key not in seen:
                    seen.add(key)
                    nxt.append(new)
        frontier = nxt
    return basis, sorted(seen)


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


def _word_rows(mats):
    """Sparse rows {col: exponent} of the word matrices over their (la, mu) entries."""
    coords = {}
    rows = []
    for mat in mats:
        row = {}
        for la, mu, t in mat:
            row[coords.setdefault((la, mu), len(coords))] = t
        rows.append(row)
    return rows, len(coords)


def _span_rank(n, k, max_size, residues, point):
    basis, mats = _word_matrices(n, k, max_size, residues)
    rank, spec, certificate = _certified_rank(*_word_rows(mats), point)
    return len(basis), len(mats), rank, spec, certificate


def algebra_dimension(n, k, max_size=None, residues=None, seed=0):
    """Rank of the span of u_1..u_{kn} word matrices on a truncated basis.

    Truncating the Fock space can only collapse words, so the rank grows
    monotonically with the size cutoff towards the dimension of the algebra
    the words span.  Without an explicit max_size the cutoff grows by n
    until three consecutive cutoffs give the same rank; with one, the
    smaller-cutoff rerun reports whether that cutoff was already stable.
    Either way "stable" means the rank stopped growing over the cutoffs
    tried: it is evidence of convergence, not a proof.

    Each rank is exact over Q(q).  It is computed once with q set to a
    seeded random integer modulo the prime 2^61 - 1; when that reaches the
    full min(words, matrix entries), it is the rank (certificate
    "specialization", the one entry of specialization_ranks).  Otherwise the
    exact ranks over Q at the points 0..R D decide (certificate
    "degree-bound", see _certified_rank) and must reach at least the modular
    rank, else RuntimeError.  The report's certificate is the one of its
    rank, the rank at the largest cutoff.
    """
    _require_ribbons(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_size is not None and max_size < n:
        raise ValueError(
            f"max_size must be >= n={n}, so that the smaller cutoff max_size - n "
            f"is not negative; got {max_size}")
    t0 = time.perf_counter()
    if residues is None:
        residues = tuple(range(n))
    else:
        residues = tuple(sorted({r % n for r in residues}))
        if not residues:
            raise ValueError("residues must keep at least one size class mod n")
    point = random.Random(seed).randrange(2, _P - 1)
    if max_size is not None:
        basis_size, words, rank, spec, certificate = _span_rank(
            n, k, max_size, residues, point)
        rank_smaller = _span_rank(n, k, max_size - n, residues, point)[2]
        stable = rank == rank_smaller
    else:
        max_size = max(n * (k + 1), n * k * k)
        history = []
        while True:
            basis_size, words, rank, spec, certificate = _span_rank(
                n, k, max_size, residues, point)
            history.append(rank)
            if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
                stable = True
                break
            if max_size > 40 * n:
                stable = False
                break
            max_size += n
        rank_smaller = history[-2] if len(history) > 1 else rank
    return DimensionReport(
        n=n, k=k, max_size=max_size, residues=residues,
        basis_size=basis_size, words=words, rank=rank,
        rank_smaller=rank_smaller, stable=stable,
        specialization_ranks=spec, certificate=certificate,
        elapsed=time.perf_counter() - t0)
