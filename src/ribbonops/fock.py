"""Vectors in the Fock space: finite Z[q]-combinations of partitions.

The standard basis is orthonormal for the q-bilinear pairing, so adjoints of
ribbon operators are computed by transposing single-ribbon moves, never by
conjugating coefficients.
"""

from __future__ import annotations

from .qpoly import QPoly


class FockVec:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {la: p for la, p in (terms or {}).items() if p}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, la, coeff=None):
        v = cls()
        v.terms[la] = QPoly.one() if coeff is None else coeff
        if not v.terms[la]:
            v.terms = {}
        return v

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
        v = FockVec()
        v.terms = out
        return v

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        v = FockVec()
        v.terms = {la: -c for la, c in self.terms.items()}
        return v

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            v = FockVec()
            if scalar == 1:
                v.terms = dict(self.terms)
            elif scalar:
                v.terms = {la: c * scalar for la, c in self.terms.items()}
            return v
        if not isinstance(scalar, QPoly):
            return NotImplemented
        v = FockVec()
        if scalar:
            v.terms = {la: c * scalar for la, c in self.terms.items()}
        return v

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FockVec):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def to_pairs(self):
        return [[list(la), self.terms[la].to_pairs()] for la in self.support()]

    @classmethod
    def from_pairs(cls, pairs):
        v = cls()
        for la, coeffs in pairs:
            v.terms[tuple(la)] = QPoly.from_pairs(coeffs)
        v.terms = {la: c for la, c in v.terms.items() if c}
        return v

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for la in self.support():
            c = str(self.terms[la])
            if " " in c:
                c = f"({c})"
            name = ",".join(map(str, la)) if la else "-"
            bits.append(f"{c}·({name})")
        return " + ".join(bits)

    def __repr__(self):
        return f"FockVec({self.terms!r})"


def _scatter(acc, cc, moves):
    """acc[mu] += q^spin * cc for each (mu, spin) in moves, on raw dicts."""
    for mu, spin in moves:
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


def _collect(acc):
    out = FockVec()
    for mu, d in acc.items():
        if d:
            p = QPoly()
            p.coeffs = d
            out.terms[mu] = p
    return out


def linear_map(v, moves):
    """Extend a basis action linearly.

    moves(la) yields (mu, spin) pairs meaning la -> q^spin * mu; accumulation
    runs on raw coefficient dicts to keep the hot path cheap.
    """
    acc = {}
    for la, coeff in v.terms.items():
        _scatter(acc, coeff.coeffs, moves(la))
    return _collect(acc)


def signed_map(v, moves):
    """Extend a signed basis action linearly.

    moves(la) yields (c, pairs) groups, c a nonzero int and pairs a sequence
    of (mu, spin), meaning la -> c q^spin mu for each pair; each group scales
    the coefficient dict once and then runs linear_map's accumulation.
    """
    acc = {}
    for la, coeff in v.terms.items():
        cc = coeff.coeffs
        for c, pairs in moves(la):
            _scatter(acc, cc if c == 1 else {e: x * c for e, x in cc.items()}, pairs)
    return _collect(acc)
