"""sympy as the tests' oracle: its fields of fractions, and conversions
between them and the program's polynomials and fractions.

``FIELD`` is sympy's Z(q, z, Delta, u, v) and ``CLASSICAL`` its
Q(delta, Delta); a program fraction converts into the field with its
generator names, a program polynomial into the ring with its number of
generators.  ``INTEGER_RINGS`` holds Z[x0, ..., x(n-1)] for n = 1..5, for
polynomials in any of those numbers of generators.  Conversions copy coefficients and never reduce, so a
converted fraction equals sympy's own exactly when the program's normal
form is sympy's.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ, ZZ
from sympy.polys.fields import FracElement, field
from sympy.polys.rings import ring as sympy_ring

from qspin import poly, scalar

FIELD = field("q,z,Delta,u,v", ZZ)[0]
CLASSICAL = field("delta,Delta", QQ)[0]

_SYMPY = {scalar.FIELD: FIELD, scalar.CLASSICAL_FIELD: CLASSICAL}
_PROGRAM = {FIELD: scalar.FIELD, CLASSICAL: scalar.CLASSICAL_FIELD}
_RINGS = {5: FIELD.ring, 2: CLASSICAL.ring}
INTEGER_RINGS = {n: sympy_ring([f"x{i}" for i in range(n)], ZZ)[0] for n in range(1, 6)}


def _coeff(domain, c):
    if domain == QQ:
        c = Fraction(c)
        return QQ(c.numerator, c.denominator)
    return ZZ(c)


def to_sympy(x, ngens: int | None = None, rings: dict = _RINGS):
    """A program fraction as an element of FIELD or CLASSICAL, or a program
    polynomial as an element of their rings, or of ``rings`` by number of
    generators (``ngens`` picks the ring of the zero polynomial)."""
    if isinstance(x, poly.Frac):
        fld = _SYMPY[x.field]
        ring = fld.ring
        return fld.raw_new(*(ring({m: _coeff(ring.domain, c) for m, c in p.terms()})
                             for p in (x.numer, x.denom)))
    ring = rings[ngens if ngens is not None else x.ngens]
    return ring({m: _coeff(ring.domain, c) for m, c in x.terms()})


def _from_coeff(c):
    c = Fraction(int(c.numerator), int(c.denominator))
    return c.numerator if c.denominator == 1 else c


def from_sympy(x):
    """A sympy field element of FIELD or CLASSICAL as a program fraction,
    taken as reduced, or a sympy polynomial as a program polynomial."""
    if isinstance(x, FracElement):
        return _PROGRAM[x.field].raw_new(from_sympy(x.numer), from_sympy(x.denom))
    return poly.ring(x.ring.ngens).from_terms({m: _from_coeff(c) for m, c in x.items()})
