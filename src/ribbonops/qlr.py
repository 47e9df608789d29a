"""q-Littlewood-Richardson coefficients by two independent routes.

c^nu_{outer/inner}(q) is simultaneously the coefficient of q^spin-weighted
schur operators, <s_nu(u) . inner, outer>, and the coefficient of s_nu in
the Schur expansion of the ribbon spin generating function.  The routes
share the single-ribbon kernel and the horizontal strip search
(partitions.horizontal_strips), which tests/oracles.py checks against a
cell-level tiling: the operator route adds strips to inner for every factor
of h_alpha but the top one, h_alpha[0], whose strip it removes from outer;
the expansion route removes every strip from outer.  Everything above that
differs (Jacobi-Trudi determinant signs vs tableau chains plus Kostka
inversion), which is what makes their agreement a real check.  Each route
computes the whole table of a skew shape, and a single coefficient is one
entry of it.  The operator route reads each pairing <h_alpha . inner, outer>
once per table, as the strips of alpha[0] ribbons removed from outer dotted
with h_alpha[1:] . inner, so it never builds a vector of the full degree; it
sums every nu's Jacobi-Trudi terms from those reads and never touches the
chain table.  The expansion route reads one chain table per outer shape and
weight, shared by every inner shape and every smaller outer shape, as a
plain {partition: QPoly} monomial dict, and converts it to the Schur basis
with Kostka numbers read from the same chain table at n = 1.  Both memo
tables, operators._h_vector and tableaux._chains_below, hold their
polynomials as flat int tuples (qpoly.frozen), which CPython's cyclic
garbage collector untracks, so a long sweep's tables neither lengthen
each collection nor trigger more of them; each route decodes a value once
per read.
"""

from __future__ import annotations

import warnings

from .operators import _h_vector
from .partitions import (
    contains,
    horizontal_strips,
    is_partition,
    partitions_of,
    partitions_up_to,
    require_ribbons,
    subpartitions,
)
from .qpoly import QPoly, poly_sum, power, signed_sum, terms
from .symfunc import schur_in_h, to_schur_basis
from .tableaux import ribbon_function


def qlr_via_operators(nu, outer, inner, n):
    """<s_nu(u) . inner, outer>: the nu entry of the operator-route table."""
    require_ribbons(n)
    nu = tuple(nu)
    if not is_partition(nu):
        raise ValueError(f"nu {nu} is not a partition")
    if sum(outer) - sum(inner) != n * sum(nu):
        warnings.warn(
            f"skew size {sum(outer) - sum(inner)} != {n}*|{nu}|; pairing is identically zero",
            stacklevel=2)
        return QPoly.zero()
    return qlr_table_via_operators(outer, inner, n).coefficient(nu)


def format_terms(terms, letter):
    """Text of a sum over (index, QPoly) pairs as "c letter[index] + ..."; zeros skipped."""
    return poly_sum(((c, ",".join(map(str, key))) for key, c in terms),
                    lambda c, name: f"{letter}[{name}]" if c == "1" else f"{c} {letter}[{name}]")


_ZERO = QPoly()


class QLRTable:
    """All q-Littlewood-Richardson coefficients of one skew shape."""

    def __init__(self, outer, inner, n, entries=None):
        self.outer = outer
        self.inner = inner
        self.n = n
        # {nu: QPoly}, dense over the nu of degree m in partitions_of order; other keys are
        # dropped, and every zero entry is the one shared _ZERO (a QPoly is never changed)
        given = entries or {}
        self.entries = {nu: given.get(nu) or _ZERO for nu in partitions_of(self.degree)}

    @property
    def degree(self):
        return (sum(self.outer) - sum(self.inner)) // self.n

    def coefficient(self, nu):
        return self.entries.get(tuple(nu), _ZERO)

    def to_json(self):
        return {
            "n": self.n,
            "outer": list(self.outer),
            "inner": list(self.inner),
            "basis": "schur",
            "entries": [
                {"nu": list(nu), "coeffs": self.entries[nu].to_pairs()}
                for nu in partitions_of(self.degree)
            ],
        }

    def text(self):
        return format_terms(self.entries.items(), "s")

    def latex(self):
        """Group the expansion by powers of q, smallest exponent first."""
        by_power = {}
        for nu, poly in self.entries.items():  # in partitions_of order
            sep = "," if any(p > 9 for p in nu) else ""
            for e, c in poly.coeffs.items():
                by_power.setdefault(e, []).append((c, f"s_{{{sep.join(map(str, nu))}}}"))
        groups = []
        for e in sorted(by_power):
            if len(by_power[e]) > 1:
                groups.append((1, f"{power(e, latex=True)}({signed_sum(by_power[e])})"))
            else:
                (c, body), = by_power[e]
                term = f"{power(e, latex=True)} {signed_sum([(abs(c), body)])}".lstrip()
                groups.append((1 if c > 0 else -1, term))
        return signed_sum(groups)


def qlr_via_expansion(outer, inner, n):
    """Schur expansion of the ribbon spin generating function, as a table."""
    monomial = ribbon_function(outer, inner, n)  # checks n divides the skew size
    degree = (sum(outer) - sum(inner)) // n
    return QLRTable(tuple(outer), tuple(inner), n, to_schur_basis(monomial, degree))


def _pairings(outer, inner, n, nus):
    """{alpha: ((exponent, coefficient), ...)} for the alpha in nus with
    <h_alpha . inner, outer> != 0, nus being the partitions of the degree.

    Each pairing is <h_alpha[1:] . inner, h_alpha[0]^perp . outer>: the
    strips removed from outer, dotted with the memoized h_alpha[1:] . inner,
    so no vector of the full degree is built.  The alpha go in lexicographic
    order, so alpha[0] never falls and its strips are fetched once.  The
    first alpha with alpha[0] = k is (k, 1^(m-k)).  A ribbon tableau of any
    later weight refines to one of that weight with the same spin (each
    strip but the top one splits into single ribbons, the top one into
    single ribbons and a last strip of k), and a pairing sums q^spin over
    tableaux, so a zero there ends the search: for k = 1, no standard
    ribbon tableau means no tableau at all.
    """
    hits, k = {}, None
    for alpha in reversed(nus):
        top = alpha[0] if alpha else 0  # m = 0 pairs outer with inner itself
        first = top != k
        if first:
            k, strips = top, horizontal_strips(outer, n, top, remove=True)
        tail = _h_vector(inner, n, alpha[1:])
        hit = {}
        it = iter(strips)  # terms(strips), inlined: most alphas read only a strip or two
        for mu, spin in zip(it, it):
            flat = tail.get(mu)
            if flat:
                for e, x in terms(flat):
                    hit[e + spin] = hit.get(e + spin, 0) + x
        if hit:
            hits[alpha] = tuple(hit.items())
        elif first:
            break
    return hits


def qlr_table_via_operators(outer, inner, n):
    """Every <s_nu(u) . inner, outer>, summed on raw {exponent: int} dicts.

    Each pairing <h_alpha . inner, outer> is read once (_pairings), with
    its top factor h_alpha[0] removed from the outer shape; the Jacobi-Trudi
    terms of a partition nu are partitions of the same size.  Like the
    expansion route it raises ValueError when n does not divide the skew
    size or inner is not contained in outer.
    """
    require_ribbons(n)
    size = sum(outer) - sum(inner)
    if size % n:
        raise ValueError(f"skew size {size} is not a multiple of {n}")
    nus = partitions_of(size // n)
    hits = _pairings(outer, inner, n, nus)
    # strips only add cells, so a hit already shows inner is inside outer
    if not hits and not contains(outer, inner):
        raise ValueError("inner partition not contained in outer")
    entries = {}
    for nu in nus if hits else ():
        acc = {}
        for alpha, c in schur_in_h(nu).items():
            for e, x in hits.get(alpha, ()):
                acc[e] = acc.get(e, 0) + c * x
        entries[nu] = QPoly(acc)
    return QLRTable(tuple(outer), tuple(inner), n, entries)


class ScanReport:
    def __init__(self, max_size, ns, shapes=0, entries=0, violations=None):
        self.max_size = max_size
        self.ns = ns
        self.shapes = shapes
        self.entries = entries
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "max_size": self.max_size,
            "n_values": list(self.ns),
            "shapes_scanned": self.shapes,
            "entries_checked": self.entries,
            "violations": [
                {
                    "n": n,
                    "outer": list(outer),
                    "inner": list(inner),
                    "nu": list(nu),
                    "coeffs": poly.to_pairs(),
                }
                for n, outer, inner, nu, poly in self.violations
            ],
            "ok": self.ok,
        }


def nonnegativity_scan(max_size, ns=(2, 3)):
    """Check every expansion-route coefficient for outer size <= max_size.

    Shapes run over all pairs inner <= outer cellwise with n dividing the
    skew size; a violation is any c^nu with a negative coefficient.
    """
    for n in ns:
        require_ribbons(n)
    report = ScanReport(max_size, tuple(ns))
    for outer in partitions_up_to(max_size):
        for inner in subpartitions(outer):
            size = sum(outer) - sum(inner)
            for n in ns:
                if size % n:
                    continue
                table = qlr_via_expansion(outer, inner, n)
                report.shapes += 1
                for nu, poly in table.entries.items():
                    report.entries += 1
                    if any(c < 0 for c in poly.coeffs.values()):
                        report.violations.append((n, outer, inner, nu, poly))
    return report
