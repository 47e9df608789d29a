"""Sparse integer polynomials in the variable q.

A QPoly is a map {exponent: coefficient} with int entries and no explicit
zeros.  Instances are treated as immutable values: every arithmetic
operation returns a fresh QPoly, and hashing is allowed; a constant equals,
and hashes like, its int.  Exponents may be any integers, although every
quantity produced by this library (spin weights, Heisenberg scalars) has
nonnegative exponents.  __init__ filters zeros and QPoly._raw wraps a dict
that has none; nothing else sets the coefficients.  _lift is the one way
an int enters arithmetic.  Printed sums have one rule: power writes q^e,
signed_sum puts the signs between terms, and poly_sum gives each one-term
coefficient's sign to that join.

The memo tables that grow through a long sweep hold flat tuples, one
format stated here for all of them.  A flat tuple lists its items' fields
one after another: a polynomial is (e0, c0, e1, c1, ...)
(operators._h_vector, tableaux._chains_below), a strip list and the moves
of a fock.signed_map group are (mu0, spin0, mu1, spin1, ...)
(partitions.horizontal_strips, operators._B_moves), and a move table is
(head0, mu0, spin0, head1, ...) (partitions.ribbon_moves).  A flat tuple
is one allocation where a tuple of pairs or a dict is one per item, and it
holds only ints and partitions (a _B_moves value only (c, flat) groups),
so CPython's cyclic garbage collector untracks it once a collection has
seen it: those tables take less memory than they would as pairs and add
nothing to the work of each collection.  frozen() writes a polynomial in
that form and terms() reads any of them.
"""

from __future__ import annotations


def power(e, latex=False):
    """Text of q^e: "" for e = 0, "q", "q^5", or "q^{5}" in LaTeX."""
    return "" if e == 0 else "q" if e == 1 else f"q^{{{e}}}" if latex else f"q^{e}"


def signed_sum(terms):
    """Text of a sum over (int coefficient, body) pairs, as "2q^2 - q - 3".

    Signs go between the terms, a coefficient of 1 or -1 is dropped before
    a nonempty body, and the empty sum is "0".
    """
    text = ""
    for c, body in terms:
        term = body if abs(c) == 1 and body else f"{abs(c)}{body}"
        text += (" - " if c < 0 else " + ") + term if text else ("-" if c < 0 else "") + term
    return text or "0"


def poly_sum(terms, write):
    """Text of a sum over (QPoly coefficient, name) pairs, zeros skipped.

    write(coefficient text, name) writes one term.  A one-term coefficient
    brings its own sign to the join; a longer one stays in parentheses.
    """
    return signed_sum((1, write(f"({p})", name)) if len(p.coeffs) > 1
                      else (-1, write(str(-p), name)) if min(p.coeffs.values()) < 0
                      else (1, write(str(p), name)) for p, name in terms if p)


class QPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def _raw(cls, coeffs):
        """The QPoly of a dict with no zero entries, taken as it is."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q_power(cls, e, c=1):
        """c * q^e."""
        return cls({e: c})

    @classmethod
    def from_pairs(cls, pairs):
        acc = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return cls(acc)

    def to_pairs(self):
        """[[exponent, coefficient], ...] sorted by exponent."""
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        """A constant hashes like the int it equals."""
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                del out[e]
        return QPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly._raw({e: c * other for e, c in self.coeffs.items()} if other else {})
        if not isinstance(other, QPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    del out[e]
        return QPoly._raw(out)

    __rmul__ = __mul__

    def shifted(self, e):
        """Multiply by q^e without a general product."""
        if not e:
            return self
        return QPoly._raw({k + e: c for k, c in self.coeffs.items()})

    def evaluate(self, x):
        """Value at x, exact when x is an int or Fraction."""
        from fractions import Fraction

        if not isinstance(x, (int, Fraction)):
            raise TypeError("evaluate wants an int or Fraction")
        return sum((c * Fraction(x) ** e for e, c in self.coeffs.items()), Fraction(0))

    def text(self, latex=False):
        """Descending powers of q, as "q^2 - q - 2", or "q^{2} - q - 2" in LaTeX."""
        return signed_sum((c, power(e, latex)) for e, c in sorted(self.coeffs.items(), reverse=True))

    __str__ = text

    def __repr__(self):
        return f"QPoly({self.coeffs!r})"


def _lift(other):
    """other as a QPoly: an int is a constant, and anything else is None."""
    if isinstance(other, QPoly):
        return other
    if isinstance(other, int):
        return QPoly._raw({0: other} if other else {})
    return None


def qbracket(count, step=1):
    """1 + q^step + q^(2 step) + ... with `count` terms."""
    return QPoly({i * step: 1 for i in range(count)})


def frozen(coeffs):
    """A raw {exponent: coefficient} dict with no zero entries as a flat int tuple."""
    return sum(coeffs.items(), ())  # quadratic, but fastest for a few exponents


def terms(flat, width=2):
    """The items of a flat tuple, width fields each, in its order: the
    (exponent, coefficient) or (mu, spin) pairs, or with width=3 the
    (head, mu, spin) moves of a move table."""
    it = iter(flat)
    return zip(*(it,) * width)
