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
from qspin.scalar import FIELD, ScalarK, _wrap, scalar


def integer_level(x, n: int) -> ScalarK:
    """z -> q^n applied to x's normal form.  A denominator that vanishes
    raises DivisionByZero.  Each side's power of q is then taken out and
    the two netted into one q^s on one side; a q exponent past MAX_EXPONENT
    on either side raises UnsupportedSize."""
    nf = scalar(x).nf
    num, den = _at_level(nf.numer, n), _at_level(nf.denom, n)
    if not den:
        raise DivisionByZero(f"denominator vanishes under z -> q^{n}")
    b = min(m[0] for m in den)
    a = min((m[0] for m in num), default=b)  # a numerator 0 counted as q^0
    num, den = _times_q(num, max(a - b, 0) - a), _times_q(den, max(b - a, 0) - b)
    top = max(m[0] for m in [*num, *den])
    if top > MAX_EXPONENT:
        raise UnsupportedSize(f"z -> q^{n} gives q^{top}, past the field width {MAX_EXPONENT}")
    return _wrap(FIELD.new(Poly.from_terms(num), Poly.from_terms(den)))


def _at_level(poly, n: int) -> dict:
    """The terms of poly, {exponent tuple: coefficient}, with z -> q^n."""
    out: dict = {}
    for (a, b, *rest), c in poly.terms():
        m = (a + n * b, 0, *rest)
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _times_q(terms: dict, k: int) -> dict:
    """The terms times q^k."""
    return {(m[0] + k, *m[1:]): c for m, c in terms.items()}
