"""The scalar text parser as it was before its token stream: a scanner that
reads one character at a time (``_Tok``), and a product rule that builds
every factor, and so every monomial of a canonical text, by ``ScalarK``
arithmetic.  Kept verbatim as the oracle of ``qspin.scalar.parse_scalar``:
the two must give the same factored value, or raise the same error, on
every text.  It shares the factored values and the bounds' constants with
``qspin.scalar``, not the scanner, the product rule or the size checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from qspin.errors import ParseError
from qspin.poly import Poly
from qspin.scalar import (
    DELTA,
    MAX_PARSE_DEGREE,
    MAX_PARSE_DEPTH,
    MAX_PARSE_EXPONENT,
    MAX_PARSE_SIZE,
    Q,
    SPIN_DELTA,
    U,
    V,
    Z,
    ZERO,
    ScalarK,
    _NO_FACTORS,
    _PHI,
    _cyclotomic_norm,
    _keys,
    _primitive,
)
from tuple_poly import monomial_div

_NAME_MAP = {
    "q": lambda: Q,
    "z": lambda: Z,
    "u": lambda: U,
    "v": lambda: V,
    "Delta": lambda: SPIN_DELTA,
    "delta": lambda: DELTA,
}


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            raise ParseError(
                f"nesting deeper than {MAX_PARSE_DEPTH} at position {self.pos}"
            )

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_op(self, chars) -> str | None:
        c = self.peek()
        if c is not None and c in chars:
            # '**' counts as '^'
            if c == "*" and self.text[self.pos : self.pos + 2] == "**":
                return None
            self.pos += 1
            return c
        return None

    def accept_power(self) -> bool:
        c = self.peek()
        if c == "^":
            self.pos += 1
            return True
        if c == "*" and self.text[self.pos : self.pos + 2] == "**":
            self.pos += 2
            return True
        return False

    def integer(self) -> int:
        c = self.peek()
        sign = 1
        if c == "-":
            self.pos += 1
            sign = -1
            c = self.peek()
        if c is None or not c.isdigit():
            raise ParseError(f"expected integer at position {self.pos}")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            return sign * int(self.text[start : self.pos])
        except ValueError:  # past int()'s digit limit, or a non-ASCII digit
            raise ParseError(f"unreadable integer at position {start}") from None

    def name(self) -> str | None:
        c = self.peek()
        if c is None or not (c.isalpha() or c == "_"):
            return None
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_scalar(text: str) -> ScalarK:
    """Parse the canonical textual form (q, z, Delta, u, v, delta; + - * / ^)."""
    tok = _Tok(text)
    val = _parse_sum(tok)
    if tok.peek() is not None:
        raise ParseError(f"trailing input at position {tok.pos}: {text[tok.pos:]!r}")
    _check_size(val)
    return val


def _check_size(x: ScalarK, e: int = 1) -> None:
    """Raise ParseError if x**e is beyond MAX_PARSE_DEGREE or MAX_PARSE_SIZE."""
    if not x._c:
        return
    e = abs(e)
    degs = ([max(m, 0) for m in x._mono], [max(-m, 0) for m in x._mono])
    # ceil(log2) of a bound on the coefficients: |c| times |f|_1^k per sum
    # key, and the 1-norm of the product of the cyclotomic keys in each t
    bits = [(abs(x._c.numerator) - 1).bit_length(), (x._c.denominator - 1).bit_length()]
    groups: dict = {}  # (side, t) -> {d: k}
    for f, k in x._fac.items():
        side = 0 if k > 0 else 1
        for i, d in enumerate(f.degrees()):
            degs[side][i] += abs(k) * d
        if f in _PHI:
            d, w = _PHI[f]
            groups.setdefault((side, w), {})[d] = abs(k)
        else:
            bits[side] += abs(k) * (sum(map(abs, f.values())) - 1).bit_length()
    # an expanded polynomial: one key, to the first power, in the numerator
    lone = e == 1 and len(x._fac) == 1 and list(x._fac.values()) == [1]
    for side, (deg, b) in enumerate(zip(degs, bits)):
        if max(deg) * e > MAX_PARSE_DEGREE:
            raise ParseError(
                f"degree {max(deg) * e} exceeds the parse bound {MAX_PARSE_DEGREE}"
            )
        if groups:  # after the degree check, which bounds the products
            b += sum((_cyclotomic_norm(orders) - 1).bit_length()
                     for (s, _), orders in groups.items() if s == side)
        size = b * e + 1
        if lone and side == 0:
            size *= len(next(iter(x._fac)))
        elif x._fac:  # a monomial is one term on each side, for any power
            for d in deg:
                size *= d * e + 1
        if size > MAX_PARSE_SIZE:
            raise ParseError(
                f"expansion size {size} exceeds the parse bound {MAX_PARSE_SIZE}"
            )


def _parse_sum(tok: _Tok) -> ScalarK:
    terms = [_parse_product(tok)]
    while (op := tok.next_op("+-")) is not None:
        rhs = _parse_product(tok)
        terms.append(rhs if op == "+" else -rhs)
    if len(terms) == 1:
        return terms[0]
    # A sum expands its terms.  The terms without factors (the monomials of
    # a canonical text) are collected into one polynomial, expanded once;
    # adding them one by one would expand the running sum for each.
    for t in terms:
        _check_size(t)
    acc = _monomial_sum([t for t in terms if not t._fac])
    for t in terms:
        if t._fac:
            _check_size(acc)
            acc = acc + t
    return acc


def _monomial_sum(terms: list) -> ScalarK:
    """The sum of factor-free values c * x^m as one factored value."""
    coeffs: dict = {}
    for t in terms:
        coeffs[t._mono] = coeffs.get(t._mono, 0) + t._c
    coeffs = {m: c for m, c in coeffs.items() if c}
    if not coeffs:
        return ZERO
    low = tuple(map(min, zip(*coeffs)))
    den = lcm(*(c.denominator for c in coeffs.values()))
    k, m, p = _primitive(
        Poly.from_terms({monomial_div(mono, low): int(c * den) for mono, c in coeffs.items()})
    )
    fac = _NO_FACTORS if p is None else _keys(p)
    return ScalarK(Fraction(k, den), tuple(a + b for a, b in zip(low, m)), fac)


def _parse_product(tok: _Tok) -> ScalarK:
    acc = _parse_factor(tok)
    while True:
        c = tok.peek()
        if c == "*" and tok.text[tok.pos : tok.pos + 2] != "**":
            tok.pos += 1
            acc = acc * _parse_factor(tok)
        elif c == "/":
            tok.pos += 1
            acc = acc / _parse_factor(tok)
        else:
            return acc


def _parse_factor(tok: _Tok) -> ScalarK:
    c = tok.peek()
    if c == "-":
        tok.pos += 1
        tok.descend()
        val = -_parse_factor(tok)
        tok.depth -= 1
        return val
    base = _parse_atom(tok)
    if tok.accept_power():
        e = _parse_exponent(tok)
        if abs(e) > MAX_PARSE_EXPONENT:
            raise ParseError(
                f"exponent {e} exceeds the parse bound {MAX_PARSE_EXPONENT}"
            )
        # the constant is raised at once; the factors only later, on expansion
        _check_size(base, e)
        base = base**e
    return base


def _parse_exponent(tok: _Tok) -> int:
    if tok.peek() == "(":
        tok.pos += 1
        e = tok.integer()
        if tok.peek() != ")":
            raise ParseError("expected ')' after exponent")
        tok.pos += 1
        return e
    return tok.integer()


def _parse_atom(tok: _Tok) -> ScalarK:
    c = tok.peek()
    if c is None:
        raise ParseError("unexpected end of input")
    if c == "(":
        tok.pos += 1
        tok.descend()
        val = _parse_sum(tok)
        if tok.peek() != ")":
            raise ParseError("expected ')'")
        tok.pos += 1
        tok.depth -= 1
        return val
    if c.isdigit():
        return ScalarK.from_rational(tok.integer())
    name = tok.name()
    if name is None:
        raise ParseError(f"unexpected character {c!r} at position {tok.pos}")
    if name not in _NAME_MAP:
        raise ParseError(f"unknown symbol {name!r}")
    return _NAME_MAP[name]()
