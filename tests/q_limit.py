"""Test-side references for the specializations at q -> 1, sharing no code
with the classical image of ``qspin.scalar``.

``q_to_one_by_division`` takes the limit q -> 1 of a z-free value from its
normal form alone: while numerator and denominator both vanish at q = 1,
it divides both by (q - 1); then it evaluates them at q = 1.  ``at_delta``
puts delta -> n in an element of Q(delta, Delta).  Both compute in sympy
and return the program's fractions.
"""

from __future__ import annotations

from qspin import scalar
from sympy_bridge import CLASSICAL, from_sympy, to_sympy


class NoLimit(Exception):
    """The value involves z, u or v, or has a pole at q = 1."""


def q_to_one_by_division(x: scalar.ScalarK):
    """The limit q -> 1 of a z-free value, in Q(delta, Delta) with delta
    absent, by dividing out the common powers of (q - 1)."""
    nf = to_sympy(x.nf)
    num, den = nf.numer, nf.denom
    q = num.ring.gens[0]
    while not num.evaluate(q, 1) and not den.evaluate(q, 1):
        num, rn = divmod(num, q - 1)
        den, rd = divmod(den, q - 1)
        assert not rn and not rd
    num, den = num.evaluate(q, 1), den.evaluate(q, 1)
    if not den:
        raise NoLimit("pole at q = 1")
    return from_sympy(CLASSICAL.new(_at_q1(num), _at_q1(den)))


def _at_q1(poly):
    """A polynomial in (z, Delta, u, v) that holds only Delta, as a
    polynomial of CLASSICAL."""
    if any(z or u or v for z, _, u, v in poly.monoms()):
        raise NoLimit("the value involves z, u or v")
    return CLASSICAL.ring({(0, d): c for (_, d, _, _), c in poly.terms()})


def at_delta(cl, n: int):
    """An element of Q(delta, Delta) at delta = n, still in Q(delta, Delta)."""
    cl = to_sympy(cl)
    ring, fld = cl.numer.ring, cl.field
    d = ring.gens[0]
    # divide in the field: a ring quotient by a constant stays a PolyElement,
    # which never compares equal to a field element
    return from_sympy(fld(cl.numer.compose(d, ring(n))) / fld(cl.denom.compose(d, ring(n))))
