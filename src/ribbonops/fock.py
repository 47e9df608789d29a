"""Vectors in the Fock space: finite Z[q]-combinations of partitions.

The standard basis is orthonormal for the q-bilinear pairing, so adjoints of
ribbon operators are computed by transposing single-ribbon moves, never by
conjugating coefficients.

A FockVec holds {partition: QPoly} with no zero coefficient.  __init__
filters zeros, and FockVec._raw wraps a dict that has none, as QPoly._raw
does for polynomials; nothing else sets the terms.  signed_map is the one
loop that extends a basis action linearly; an unsigned action hands it a
single (1, flat) group.  A group's moves are one flat tuple (see qpoly),
the form in which the memoized strip lists and B_k moves are kept, so a
memo value is handed over as it is.  A vector prints through
qpoly.poly_sum, the one sign rule for printed sums.
"""

from __future__ import annotations

from .qpoly import QPoly, poly_sum, terms


class FockVec:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {la: p for la, p in (terms or {}).items() if p}

    @classmethod
    def _raw(cls, terms):
        """The FockVec of a dict with no zero coefficient, taken as it is."""
        v = cls.__new__(cls)
        v.terms = terms
        return v

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, la, coeff=None):
        return cls({la: QPoly.one() if coeff is None else coeff})

    def support(self):
        """Basis partitions with nonzero coefficient, smallest and widest first."""
        return sorted(self.terms, key=lambda la: (sum(la), la))

    def inner(self, other):
        """Bilinear pairing with orthonormal partition basis."""
        if len(other.terms) < len(self.terms):
            self, other = other, self
        out = QPoly.zero()
        for la, c in self.terms.items():
            d = other.terms.get(la)
            if d is not None:
                out = out + c * d
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for la, c in other.terms.items():
            s = out.get(la)
            s = c if s is None else s + c
            if s:
                out[la] = s
            else:
                del out[la]
        return FockVec._raw(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FockVec._raw({la: -c for la, c in self.terms.items()})

    def __mul__(self, scalar):
        """Scale by an int or a QPoly; 1 copies and 0 gives the zero vector."""
        if not isinstance(scalar, (int, QPoly)):
            return NotImplemented
        if scalar == 1:
            return FockVec._raw(dict(self.terms))
        return FockVec._raw({la: c * scalar for la, c in self.terms.items()} if scalar else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FockVec):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def to_pairs(self):
        return [[list(la), self.terms[la].to_pairs()] for la in self.support()]

    @classmethod
    def from_pairs(cls, pairs):
        return cls({tuple(la): QPoly.from_pairs(coeffs) for la, coeffs in pairs})

    def __str__(self):
        return poly_sum(((self.terms[la], ",".join(map(str, la)) or "-") for la in self.support()),
                        "{}·({})".format)

    def __repr__(self):
        return f"FockVec({self.terms!r})"


def _scatter(acc, cc, flat):
    """acc[mu] += q^spin * cc for each mu, spin of the flat moves, on raw dicts."""
    for mu, spin in terms(flat):
        slot = acc.get(mu)
        if slot is None:
            slot = acc[mu] = {}
        for e, c in cc.items():
            e += spin
            nc = slot.get(e, 0) + c
            if nc:
                slot[e] = nc
            else:
                del slot[e]


def signed_map(v, moves):
    """Extend a signed basis action linearly.

    moves(la) yields (c, flat) groups, c a nonzero int and flat the moves
    (mu0, spin0, mu1, spin1, ...), meaning la -> c q^spin mu for each pair.
    Accumulation runs on raw coefficient dicts to keep the hot path cheap:
    each group scales the coefficient dict once (not at all for c = 1), and
    the sums that cancel are dropped at the end.
    """
    acc = {}
    for la, coeff in v.terms.items():
        cc = coeff.coeffs
        for c, flat in moves(la):
            _scatter(acc, cc if c == 1 else {e: x * c for e, x in cc.items()}, flat)
    return FockVec._raw({mu: QPoly._raw(d) for mu, d in acc.items() if d})
