"""The normal form by one cancel, as the scalar layer built it before its
factors were split into cyclotomic keys: the factored value multiplied out
on each side and reduced by sympy's gcd.  It shares the factored value with
``qspin.scalar`` but not the reduction, so it checks ``_reduce`` and the
cancel-free normal form.
"""

from __future__ import annotations

from qspin import scalar
from qspin.poly import pack, poly_str
from sympy_bridge import FIELD, to_sympy


def cancel_nf(x: scalar.ScalarK):
    """sympy's ``FIELD.new`` of the multiplied-out numerator and denominator
    of x."""
    c = x._c
    if not c:
        return FIELD.zero
    num = {f: e for f, e in x._fac.items() if e > 0}
    den = {f: -e for f, e in x._fac.items() if e < 0}
    return FIELD.new(
        to_sympy(scalar._expand(c.numerator, pack(max(e, 0) for e in x._mono), num)),
        to_sympy(scalar._expand(c.denominator, pack(max(-e, 0) for e in x._mono), den)),
    )


def cancel_text(x: scalar.ScalarK) -> str:
    """The canonical text of ``cancel_nf(x)``."""
    nf = cancel_nf(x)
    ns = poly_str(nf.numer, scalar.FIELD.names, "^")
    if nf.denom == nf.denom.ring.one:
        return ns
    return f"({ns})/({poly_str(nf.denom, scalar.FIELD.names, '^')})"
