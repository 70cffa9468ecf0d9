"""The level specialization z -> q^n by the whole normal form: each side
multiplied out, z -> q^n composed into its terms, and one cancel of the
two.  ``scalar.integer_level`` maps the factor map key by key instead; this
is the reference it is held to, in its values and in its errors.

It shares no code with the key-by-key path: it reads only a value's
normal form and the field's cancel.
"""

from __future__ import annotations

from qspin.errors import DivisionByZero, UnsupportedSize
from qspin.poly import MAX_EXPONENT, Poly
from qspin.scalar import FIELD, ScalarK, scalar


def integer_level(x, n: int) -> ScalarK:
    """z -> q^n applied to x's normal form.  A denominator that vanishes
    raises DivisionByZero; a q exponent past MAX_EXPONENT on either side,
    once both sides are cleared of negative powers of q together, raises
    UnsupportedSize."""
    nf = scalar(x).nf
    num, den = _at_level(nf.numer, n), _at_level(nf.denom, n)
    if not den:
        raise DivisionByZero(f"denominator vanishes under z -> q^{n}")
    # q's exponents on both sides, a numerator 0 counted as q^0
    qs = [m[0] for m in num] or [0]
    qs += [m[0] for m in den]
    shift = min(*qs, 0)
    top = max(qs) - shift
    if top > MAX_EXPONENT:
        raise UnsupportedSize(f"z -> q^{n} gives q^{top}, past the field width {MAX_EXPONENT}")
    num, den = (Poly.from_terms({(m[0] - shift, *m[1:]): c for m, c in p.items()})
                for p in (num, den))
    return ScalarK.from_field_element(FIELD.new(num, den))


def _at_level(poly, n: int) -> dict:
    """The terms of poly, {exponent tuple: coefficient}, with z -> q^n."""
    out: dict = {}
    for (a, b, *rest), c in poly.terms():
        m = (a + n * b, 0, *rest)
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}
