"""Polynomials keyed by exponent tuples, the tests' reference for the
program's packed monomial keys: every term product builds a tuple with
``monomial_mul``, exact division is schoolbook long division, and the probe
value takes each exponent from its tuple.  The oracles that must not share
the packed arithmetic (``matrix_oracle``, ``parse_oracle``) compute with
these, and convert to and from ``qspin.poly.Poly`` only at their edges.
"""

from __future__ import annotations

from operator import add, sub

from qspin.poly import PROBE_POINT, Poly


def monomial_mul(a: tuple, b: tuple) -> tuple:
    """The product x^a x^b of two monomials."""
    return tuple(map(add, a, b))


def monomial_div(a: tuple, b: tuple):
    """x^a / x^b as an exponent tuple, or None when it is not a monomial."""
    out = tuple(map(sub, a, b))
    return None if min(out) < 0 else out


class TPoly(dict):
    """A polynomial as a map from exponent tuples to nonzero coefficients;
    the empty map is 0.  Values are never mutated after they are built."""

    @staticmethod
    def of(p: Poly) -> "TPoly":
        """The program's polynomial p with its keys unpacked."""
        return TPoly(p.terms())

    def to_program(self) -> Poly:
        return Poly.from_terms(self)

    def __neg__(self) -> "TPoly":
        return TPoly({m: -c for m, c in self.items()})

    def __add__(self, other: "TPoly") -> "TPoly":
        out = dict(self)
        for m, c in other.items():
            c = out.get(m, 0) + c
            if c:
                out[m] = c
            else:
                del out[m]
        return TPoly(out)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + -other

    def __mul__(self, other: "TPoly") -> "TPoly":
        out: dict = {}
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return TPoly({m: c for m, c in out.items() if c})


def exquo(p: TPoly, f: TPoly):
    """p / f if f (nonzero) divides p over Z, else None: divide the
    remainder's lex-largest term by f's until the remainder is 0."""
    fm = max(f)
    fc = f[fm]
    rem, quo = dict(p), {}
    while rem:
        m = max(rem)
        qm = monomial_div(m, fm)
        if qm is None or rem[m] % fc:
            return None
        t = rem[m] // fc
        quo[qm] = t
        for m2, c2 in f.items():
            k = monomial_mul(qm, m2)
            v = rem.get(k, 0) - t * c2
            if v:
                rem[k] = v
            else:
                del rem[k]
    return TPoly(quo)


def probe(p: TPoly) -> int:
    """p at ``poly.PROBE_POINT``."""
    total = 0
    for m, c in p.items():
        for x, e in zip(PROBE_POINT, m):
            c *= x**e
        total += c
    return total
