"""Exact arithmetic in the two-parameter coefficient field and its specializations.

The coefficient field is generated by q, z, delta, Delta (and two formal
spectral parameters u, v) subject to the single relation

    (q - q^-1) * delta = z - z^-1.

Values carry two coordinates:

* a factored value -- a rational constant, times a Laurent monomial in
  (q, z, Delta, u, v), times powers of primitive integer polynomials, the
  keys.  Products, quotients and powers only add exponents; a sum expands
  its two terms over their common factors and keeps the result as a new
  key.  A unit binomial x^a +- x^b, which every bracket and brace is, is
  kept as its cyclotomic keys Phi_d(t), t a primitive Laurent monomial;
  these are irreducible, so two of them share a factor only when equal.
  Brackets and braces are built by this arithmetic alone, in ``qcomb``,
  over ``QDIFF`` = q - q^-1, the one definition of their denominator.
* ``nf`` -- the normal form: the reduced fraction of two coprime
  integer-coefficient polynomials in (q, z, Delta, u, v), the denominator's
  leading coefficient positive, with delta rewritten as
  (z^2-1)q / ((q^2-1)z).  It is built when first read and then cached: the
  exponents of equal keys net out, every other key is trial-divided by the
  cyclotomic keys on the other side, and only other keys left on both
  sides go through a gcd (one cancel).  The two sides are then multiplied
  out.  Values built from brackets and braces need no gcd at all.
  Equality of values is decided by comparing normal forms.

Specializations, each a plain function of a value:

* ``integer_level(x, n)``: z -> q^n (delta becomes the ordinary q-integer [n]),
  mapped key by key over the reduced factor map, so that the level value
  of brackets and braces keeps cyclotomic keys and takes no gcd.
* ``classical(x)``: the limit q, z -> 1 along the curve
  z - z^-1 = delta (q - q^-1), with delta and Delta kept as free symbols,
  read off the factored value factor by factor.  Bracket atoms [b*n + a]
  map to b*delta + a and braces to 2.  The result lives in Q(delta, Delta)
  and depends only on the value, not on how it was built.
* ``q_to_one(x)``: the classical image of a z-free value, which does not
  depend on the curve along which q goes to 1.
* ``numeric_probe(x, q0, n, Delta0)``: integer_level(x, n) followed by exact
  evaluation at a rational q0 (not 0 or +-1) and Delta -> Delta0, each an
  int or a Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb, gcd, lcm, prod
from operator import add, sub

from .errors import (
    ArgumentOutOfRange,
    ClassicalSingular,
    DivisionByZero,
    ParseError,
    SpecializationError,
    UnsupportedSize,
    is_int,
)
from .poly import (
    FIELD_BITS,
    MAX_EXPONENT,
    Field,
    Poly,
    cancel,
    exquo,
    monomial_gcd,
    pack,
    poly_str,
    probe,
    rules_out,
)

# --------------------------------------------------------------------------
# Underlying rational-function fields.

_VAR_NAMES = ("q", "z", "Delta", "u", "v")

#: Fractions of integer polynomials in (q, z, Delta, u, v): a reduced
#: element is a coprime pair with a positive leading denominator coefficient.
FIELD = Field(_VAR_NAMES)

#: Classical coordinates: Q(delta, Delta), reduced the same way.
CLASSICAL_FIELD = Field(("delta", "Delta"))


# --------------------------------------------------------------------------
# Factored values.
#
# A nonzero value is c * x^m * prod f^e: a Fraction c, a Laurent monomial
# x^m in (q, z, Delta, u, v), and a map from primitive integer polynomials f
# (content 1, positive leading coefficient, no monomial factor, not
# constant) to nonzero exponents e.  The map is never mutated once built.
#
# Every new polynomial becomes keys through ``_keys``.  A unit binomial
# x^a +- x^b is stored as its cyclotomic keys (see ``_split_binomial``),
# which are irreducible, so two of them share a factor only when they are
# the same key.  Any other polynomial is one "sum" key, which may share
# factors with other keys; ``_reduce`` removes what the two sides share.

_NGENS = 5
_MONO1 = (0,) * _NGENS
_NO_FACTORS: dict = {}
#: The generators q, z, Delta, u, v as polynomials, in order: the keys of
#: a denominator (``_parts``) that belong in the monomial.
_GENS = dict.fromkeys(Poly({1 << FIELD_BITS * (_NGENS - 1 - i): 1}) for i in range(_NGENS))

# A monomial key (see ``poly``) holds q's exponent in its top field, then
# z's, Delta's, u's and v's; no field passes MAX_EXPONENT, so it is a mask.
_Q_SHIFT, _Z_SHIFT = 4 * FIELD_BITS, 3 * FIELD_BITS
#: A key's z field; its Delta, u and v fields; its u and v fields.
_Z_FIELD, _LOW_FIELDS = MAX_EXPONENT << _Z_SHIFT, (1 << _Z_SHIFT) - 1
_UV_FIELDS = (1 << 2 * FIELD_BITS) - 1


def _primitive(poly):
    """(k, m, p) with poly = k * x^m * p, k an int whose sign makes the
    leading coefficient of p positive, and p primitive without a monomial
    factor, or None when poly is a monomial; m is an exponent tuple."""
    k = gcd(*poly.values())
    if poly[max(poly)] < 0:
        k = -k
    low = monomial_gcd(poly)
    m = poly.exponents(low)
    if len(poly) == 1:
        return k, m, None
    return k, m, poly.div_term(low, k)


def _expand(k: int, m: int, fac: dict):
    """The polynomial k * x^m * prod f^e (m a key, every e positive); a
    lone key f with k = 1 and m = 0 is returned as it is."""
    out = None
    for f, e in fac.items():
        if e > 1:
            f = f**e
        out = f if out is None else out * f
    if out is None:
        return Poly({m: k})
    return out.mul_term(m, k)


def _fac_mul(a: dict, b: dict, sign: int = 1) -> dict:
    """Exponents of a * b^sign."""
    if not b:
        return a
    if not a and sign == 1:
        return b
    out = dict(a)
    for f, e in b.items():
        e = out.get(f, 0) + sign * e
        if e:
            out[f] = e
        else:
            del out[f]
    return out


# --------------------------------------------------------------------------
# Cyclotomic keys.
#
# Let x^a +- x^b be a unit binomial with no monomial factor, x^a its leading
# term.  Then a and b have disjoint supports, a - b = g*w with w primitive,
# and with t = x^w
#
#     x^a - x^b = x^(g w-) (t^g - 1) = x^(g w-) prod_{d | g} Phi_d(t),
#     x^a + x^b = x^(g w-) (t^g + 1) = x^(g w-) prod_{d | 2g, d !| g} Phi_d(t),
#
# where w = w+ - w- splits w into its positive and negative parts.  The key
# of Phi_d(t) is the polynomial x^(phi(d) w-) Phi_d(t), monic in the leading
# term t^phi(d).  A change of variables in GL_5(Z) maps the primitive
# monomial t to a single generator, so each key is irreducible.

#: Cyclotomic key Phi_d(x^w) -> (d, w); filled as ``_phi_key`` builds keys.
_PHI: dict = {}


@cache
def _cyclotomic(d: int) -> tuple:
    """The coefficients of the cyclotomic polynomial Phi_d, lowest degree
    first.  With r the product of d's primes, Phi_d(x) = Phi_r(x^(d/r)),
    and for r > 1 Phi_r(x) = prod_{e | r} (1 - x^e)^mu(r/e): each factor
    multiplies or divides the coefficients in one pass."""
    primes, m, p = [], d, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    r = prod(primes)
    if r == 1:
        phi = [-1, 1]
    else:
        divs = [(1, (-1) ** len(primes))]  # (e, mu(r/e)) over the e | r
        for p in primes:
            divs += [(e * p, -mu) for e, mu in divs]
        phi = [1]
        for e, mu in sorted(divs, key=lambda em: -em[1]):  # the products first
            if mu > 0:  # times 1 - x^e
                phi += [0] * e
                for i in range(len(phi) - 1, e - 1, -1):
                    phi[i] -= phi[i - e]
            else:  # divided by 1 - x^e, exactly
                for i in range(e, len(phi)):
                    phi[i] += phi[i - e]
                del phi[len(phi) - e:]
    k = d // r
    coeffs = [0] * ((len(phi) - 1) * k + 1)
    coeffs[::k] = phi
    return tuple(coeffs)


@cache
def _phi_key(d: int, w: tuple) -> Poly:
    """The cyclotomic key x^(phi(d) w-) Phi_d(x^w) of a primitive w whose
    first nonzero entry is positive, registered in ``_PHI``; phi(d) times
    each entry of w must fit a field."""
    coeffs = _cyclotomic(d)
    n = len(coeffs) - 1
    wp, wm = pack(max(e, 0) for e in w), pack(max(-e, 0) for e in w)
    key = Poly({i * wp + (n - i) * wm: c for i, c in enumerate(coeffs) if c})
    _PHI.setdefault(key, (d, w))
    return key


def _orders(d: int, g: int) -> list:
    """The e with Phi_d(t^g) = prod Phi_e(t), g > 0: the e | dg with
    e / gcd(e, g) = d, which are the d h over the divisors h of g with
    gcd(d, g / h) = 1."""
    return [d * h for h in range(1, g + 1) if g % h == 0 and gcd(d, g // h) == 1]


@cache
def _split_binomial(p) -> dict:
    """The keys of a binomial p = x^a + c x^b (x^a the leading term, the
    keys a and b of disjoint supports), each with exponent 1: its cyclotomic
    keys if c = +-1, with t^g = x^(a - b), t^g - 1 = Phi_1(t^g) and
    t^g + 1 = Phi_2(t^g); else p itself."""
    (a, ca), (b, c) = sorted(p.items(), reverse=True)
    if ca != 1 or c not in (1, -1):
        return {p: 1}
    ea, eb = Poly.exponents(a), Poly.exponents(b)
    g = gcd(*ea, *eb)
    w = tuple(s // g - t // g for s, t in zip(ea, eb))
    return {_phi_key(e, w): 1 for e in _orders(1 if c < 0 else 2, g)}


def _keys(p) -> dict:
    """The keys of a new primitive polynomial p (positive leading
    coefficient, no monomial factor, not constant), each with exponent 1:
    the cyclotomic keys of a unit binomial, else p itself."""
    return _split_binomial(p) if len(p) == 2 else {p: 1}


def _divide_once(fac: dict, phi: set, failed: set, values: dict):
    """(f, k, f / k) for the first sum key f of ``fac`` that a cyclotomic
    key k (one in ``phi``) of the opposite sign divides, or None; pairs
    found not to divide are added to ``failed`` and not tried again.  A
    pair whose values at the probe point (memoized in ``values``) rule the
    division out is not divided at all; on a hit both values are in
    ``values``.  Most pairs tried here do not divide, and dividing by a
    monic cyclotomic key fails only at the end, so the filter pays: without
    it ``fierz-table --max 5`` took 29% longer (0.0380 s to 0.0490 s,
    slower in 6 of 6 paired perfbench runs on 2-core x86)."""
    for f, e in fac.items():
        if f in phi:
            continue
        for k, ek in fac.items():
            if k in phi and (ek > 0) != (e > 0) and (f, k) not in failed:
                if not rules_out(_probe(k, values), _probe(f, values)):
                    quo = exquo(f, k)
                    if quo is not None:
                        return f, k, quo
                failed.add((f, k))
    return None


def _probe(p, values: dict) -> int:
    v = values.get(p)
    if v is None:
        v = values[p] = probe(p)
    return v


def _reduce(fac: dict) -> dict:
    """The factor map ``fac`` with whatever its two sides share cancelled,
    so that the expanded numerator and denominator are coprime.

    Cyclotomic keys on opposite sides are distinct irreducibles, so only
    sum keys can share a factor with the other side.  Each sum key is
    trial-divided by the cyclotomic keys of the opposite sign, and a
    quotient becomes keys again.  Sum keys left on both sides are passed,
    multiplied out, to one cancel.

    The values of keys at the probe point (``poly.probe``) are kept for the
    whole reduction.  A quotient's value is its dividend's divided by its
    divisor's, exactly, as evaluation is a ring homomorphism, so a
    quotient is not evaluated afresh unless its divisor's value is 0.

    A key counts as cyclotomic if it was in ``_PHI`` when met here; a
    polynomial another thread registers meanwhile stays a sum key, which
    is always safe.
    """
    phi = {f for f in fac if f in _PHI}
    if len(phi) == len(fac):
        return fac
    failed: set = set()  # (sum key, cyclotomic key) pairs that do not divide
    values: dict = {}
    while (hit := _divide_once(fac, phi, failed, values)) is not None:
        f, k, quo = hit
        if values[k]:
            values[quo] = values[f] // values[k]
        e = fac[f]
        # f^e = k^e * quo^e; k may change sides, so the scan starts over
        fac = _fac_mul(_fac_mul(fac, {f: e}, -1), {k: e})
        if len(quo) > 1:
            keys = _keys(quo)
            phi.update(g for g in keys if g in _PHI)
            fac = _fac_mul(fac, {g: e for g in keys})
    num = {f: e for f, e in fac.items() if e > 0 and f not in phi}
    den = {f: -e for f, e in fac.items() if e < 0 and f not in phi}
    if num and den:
        n, d = cancel(_expand(1, 0, num), _expand(1, 0, den))
        fac = {f: e for f, e in fac.items() if f in phi}
        for p, sign in ((n, 1), (d, -1)):
            if len(p) > 1:
                fac = _fac_mul(fac, _keys(p), sign)
    return fac


def _over(num, cont: int, keys: dict, nf=None) -> "ScalarK":
    """The factored value num / (cont * prod f^e over ``keys``) of a
    polynomial num, an int cont and keys f that are generators (``_GENS``)
    or primitive, built with no gcd: a generator's power goes into the
    monomial, and num's primitive part becomes keys over the others.  What
    the two sides share is cancelled by ``_reduce`` when the normal form is
    read; ``nf``, when given, is that form.  The inverse of ``_parts``."""
    if not num:
        return ScalarK(Fraction(0), _MONO1, _NO_FACTORS, nf)
    k, m, p = _primitive(num)
    mono = tuple(a - keys.get(g, 0) for a, g in zip(m, _GENS))
    den = {f: e for f, e in keys.items() if f not in _GENS}
    fac = _fac_mul(_NO_FACTORS if p is None else _keys(p), den, -1)
    return ScalarK(Fraction(k, cont), mono, fac, nf)


def _parts(x: "ScalarK") -> tuple:
    """(numerator, content, keys) of ``x.nf``, whose denominator is the
    content times prod f^e over the keys, read off the reduced factor map
    as it is: the constant's denominator, the generators of the monomial,
    and the cyclotomic and sum keys.  ``_over`` of the three is x."""
    keys = {g: -e for g, e in zip(_GENS, x._mono) if e < 0}
    keys.update((f, -e) for f, e in x._reduced().items() if e < 0)
    return x.nf.numer, x._c.denominator, keys


def _wrap(nf) -> "ScalarK":
    """A reduced field element as a factored value, ``nf`` cached."""
    k, m, p = _primitive(nf.denom)
    keys = {g: e for g, e in zip(_GENS, m) if e}
    if p is not None:
        keys.update(_keys(p))
    return _over(nf.numer, k, keys, nf)


# --------------------------------------------------------------------------
# ScalarK.


class ScalarK:
    """An exact element of the coefficient field.

    The value is kept factored, as ``c * x^m * prod f^e`` (see above), so
    products, quotients, powers and negation are exponent arithmetic.  A
    sum expands both terms over their factor-wise common part (the largest
    denominator exponent and the smallest numerator exponent of each
    factor, the smaller monomial, and the gcd of the constants) and keeps
    the keys of the primitive part of the result (``_keys``).  A value is
    zero exactly when its constant is 0.

    ``nf``, the reduced field element, is built on first use and cached;
    equality and hashing compare it.  It multiplies out the reduced factor
    map (``_reduce``, also cached), which needs a gcd only for keys other
    than cyclotomic ones left on both sides.  Everything else reads one of
    these coordinates: ``bar`` and ``to_text`` the normal form,
    ``classical`` and ``q_to_one`` the factors, and ``integer_level`` the
    reduced factor map, key by key, its result again a factored value.  So
    a value's images do not depend on how it was built: a matrix entry or
    a parsed canonical text behaves like the product of atoms that printed
    it.

    Immutable up to the cache, which any thread may fill with the same
    value; safe to share across threads.
    """

    __slots__ = ("_c", "_mono", "_fac", "_red", "_nf")

    def __init__(self, c: Fraction, mono: tuple, fac: dict, nf=None):
        """c * x^mono * prod f^e over ``fac``; ``nf``, when given, is its
        reduced field element, and ``fac`` was split from it."""
        self._c = c
        self._mono = mono
        self._fac = fac
        self._red = None if nf is None else fac
        self._nf = nf

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "ScalarK":
        return ScalarK(Fraction(x), _MONO1, _NO_FACTORS)

    # -- normal form ---------------------------------------------------------

    def _reduced(self) -> dict:
        """The factor map with the factors its two sides share cancelled
        (see ``_reduce``), built on first use and cached."""
        red = self._red
        if red is None:
            red = self._red = _reduce(self._fac)
        return red

    @property
    def nf(self):
        """The reduced field element: coprime integer numerator and
        denominator, the denominator's leading coefficient positive.

        It is the reduced factor map multiplied out on each side.  Keys are
        primitive with positive leading coefficients, so the content is the
        constant's and the denominator's leading coefficient is positive.
        """
        nf = self._nf
        if nf is None:
            c = self._c
            if not c:
                nf = FIELD.zero
            else:
                fac = self._reduced()
                num = {f: e for f, e in fac.items() if e > 0}
                den = {f: -e for f, e in fac.items() if e < 0}
                nf = FIELD.raw_new(
                    _expand(c.numerator, pack(max(e, 0) for e in self._mono), num),
                    _expand(c.denominator, pack(max(-e, 0) for e in self._mono), den),
                )
            self._nf = nf
        return nf

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ScalarK):
            return x
        if isinstance(x, (int, Fraction)):
            return ScalarK.from_rational(x)
        return NotImplemented

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ScalarK(*_add(self, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        c = self._c * o._c
        if not c:
            return ScalarK(c, _MONO1, _NO_FACTORS)
        mono = tuple(map(add, self._mono, o._mono))
        return ScalarK(c, mono, _fac_mul(self._fac, o._fac))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o._c:
            raise DivisionByZero("division by a scalar that normalizes to 0")
        c = self._c / o._c
        if not c:
            return ScalarK(c, _MONO1, _NO_FACTORS)
        mono = tuple(map(sub, self._mono, o._mono))
        return ScalarK(c, mono, _fac_mul(self._fac, o._fac, -1))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ScalarK(-self._c, self._mono, self._fac)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and not self._c:
            raise DivisionByZero("inverting a scalar that normalizes to 0")
        if e == 0 and not self._c:
            raise ArgumentOutOfRange("0^0 is undefined")
        if not self._c or e == 0:
            return ScalarK(self._c**e, _MONO1, _NO_FACTORS)
        mono = tuple(a * e for a in self._mono)
        fac = {f: k * e for f, k in self._fac.items()}
        return ScalarK(self._c**e, mono, fac)

    def inv(self) -> "ScalarK":
        return self**-1

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other):
        o = ScalarK._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.nf == o.nf

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as that
        nf = self.nf
        if nf.numer.keys() <= {0} and nf.denom.keys() == {0}:
            return hash(Fraction(nf.numer.get(0, 0), nf.denom[0]))
        return hash(nf)

    def __repr__(self):
        return f"ScalarK({to_text(self)})"


def _add(x: ScalarK, y: ScalarK) -> tuple:
    """(c, m, fac) of x + y."""
    if not x._c:
        return y._c, y._mono, y._fac
    if not y._c:
        return x._c, x._mono, x._fac
    fx, fy = x._fac, y._fac
    # the factor-wise minimum of the exponents (a missing factor counts 0)
    common = {}
    for f, e in fx.items():
        e = min(e, fy.get(f, 0))
        if e:
            common[f] = e
    for f, e in fy.items():
        if e < 0 and f not in fx:
            common[f] = e
    mono = tuple(map(min, x._mono, y._mono))
    cx, cy = x._c, y._c
    c = Fraction(gcd(cx.numerator, cy.numerator), lcm(cx.denominator, cy.denominator))
    # fx / common and fy / common: every exponent left is positive
    total = _expand(
        int(cx / c), pack(map(sub, x._mono, mono)), _fac_mul(fx, common, -1)
    ) + _expand(
        int(cy / c), pack(map(sub, y._mono, mono)), _fac_mul(fy, common, -1)
    )
    if not total:
        return Fraction(0), _MONO1, _NO_FACTORS
    k, m, p = _primitive(total)
    if p is not None:
        common = _fac_mul(common, _keys(p))
    return c * k, tuple(map(add, mono, m)), common


def scalar(x) -> ScalarK:
    """Coerce an int or Fraction (or ScalarK) to ScalarK."""
    s = ScalarK._coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to ScalarK")
    return s


#: Generators.
Q, Z, SPIN_DELTA, U, V = (_over(g, 1, _NO_FACTORS) for g in _GENS)
#: q - q^-1, the denominator of every bracket (see ``qcomb.qint``).
QDIFF = Q - Q**-1
DELTA = (Z - Z**-1) / QDIFF
ONE = ScalarK.from_rational(1)
ZERO = ScalarK.from_rational(0)


def equal(a: ScalarK, b: ScalarK) -> bool:
    """Exact equality of normal forms."""
    return scalar(a).nf == scalar(b).nf


def bar(x: ScalarK) -> ScalarK:
    """The bar involution q -> q^-1, z -> z^-1 (delta and Delta are fixed).

    The normal form is reflected directly: the q and z exponents of the
    numerator and the denominator are negated and the result is shifted
    back to polynomials.  Reflection is a ring automorphism of the Laurent
    polynomials and the shift leaves at most one side divisible by q or z,
    so the pair stays coprime and needs no cancel, only the sign that makes
    the denominator's leading coefficient positive.  The result is split
    into a factored value with the reflected normal form cached.
    """
    x = scalar(x)
    if not x:
        return x
    num, den = x.nf.numer, x.nf.denom
    # bar(x) = (q^a z^b num(1/q, 1/z)) / (q^a z^b den(1/q, 1/z)), with a and
    # b the largest q and z exponents on either side; q's field is the top
    # one, so the largest key has the largest q exponent
    a = max(max(num), max(den)) >> _Q_SHIFT
    b = max([m >> _Z_SHIFT & MAX_EXPONENT for p in (num, den) for m in p])
    num, den = _reflect(num, a, b), _reflect(den, a, b)
    if den.LC < 0:
        num, den = -num, -den
    return _wrap(FIELD.raw_new(num, den))


def _reflect(poly, a: int, b: int):
    """q^a z^b poly(1/q, 1/z), a polynomial when a and b are at least the
    largest q and z exponents of poly: each key's q and z fields are taken
    from those of q^a z^b, with no borrow."""
    top = pack((a, b, 0, 0, 0))
    return Poly({top - (m & ~_LOW_FIELDS) | m & _LOW_FIELDS: c for m, c in poly.items()})


# --------------------------------------------------------------------------
# Specializations.


def integer_level(x: ScalarK, n: int) -> ScalarK:
    """z -> q^n (delta becomes the ordinary q-integer [n]), applied key by
    key to the reduced factor map; the result is z-free (a function of q,
    Delta, u, v), a factored value whose normal form is built only when
    something reads it.

    The monomial and each sum key are re-keyed term by term, q^a z^b ...
    -> q^(a + n b) ..., and a sum key's image becomes the keys of its
    primitive part.  A cyclotomic key Phi_d(t) is mapped whole: t becomes
    s^g, s a primitive monomial, and Phi_d(s^g) is the product of the
    Phi_e(s) over e | dg with e / gcd(e, g) = d (through Phi_d's
    palindromy when g < 0), or the constant Phi_d(1) when t becomes 1.  So
    a value built from brackets and braces keeps cyclotomic keys, and its
    level value needs no gcd.  A factor that vanishes raises
    DivisionByZero in the denominator and makes the value 0 in the
    numerator.  The two sides, multiplied out, must keep q's exponents
    within MAX_EXPONENT once the powers of q the value and every key image
    carry are gathered into one q^s, counted on one side only: that is read
    off the keys' images, and UnsupportedSize is raised past it; a key too
    wide on its own is not built at all.
    """
    if not is_int(n):
        raise SpecializationError(f"the level n must be an int, not {type(n).__name__}")
    x = scalar(x)
    if not x:
        return x
    # the span of q's exponents on each side once the monomials of the key
    # images, whose q parts are their least exponents lo, are moved to mono
    mono, span = list(_sigma(x._mono, n)), [0, 0]
    vanishes = [False, False]
    c, fac = x._c, {}
    for f, e in x._reduced().items():
        side = 0 if e > 0 else 1
        lo, hi, k, m, keys = _phi_image(*_PHI[f], n) if f in _PHI else _sum_image(_at_level(f, n))
        if not k:
            vanishes[side] = True
            continue
        span[side] += abs(e) * (hi - lo)
        if keys is None:  # too wide to build: the value is refused below
            mono[0] += e * lo
            continue
        if k != 1:
            c *= Fraction(k) ** e
        for i, a in enumerate(m):
            mono[i] += e * a
        for g in keys:
            fac[g] = fac.get(g, 0) + e
    if vanishes[1]:
        raise DivisionByZero(f"denominator vanishes under z -> q^{n}")
    s = mono[0]  # the q^s of the value and of every key image, on one side
    # a numerator 0 multiplies out to no terms, counted as q^0
    top = span[1] if vanishes[0] else max(span[0] + max(s, 0), span[1] + max(-s, 0))
    if top > MAX_EXPONENT:
        raise UnsupportedSize(f"z -> q^{n} gives q^{top}, past the field width {MAX_EXPONENT}")
    if vanishes[0]:
        return ZERO
    return ScalarK(c, tuple(mono), {g: e for g, e in fac.items() if e})


def _sigma(m: tuple, n: int) -> tuple:
    """The exponent tuple m with z -> q^n."""
    return (m[0] + n * m[1], 0, *m[2:])


# The image of one key under z -> q^n, as (lo, hi, k, m, keys): the image is
# k * x^m * prod keys, its q exponents run from lo to hi, k is 0 when it
# vanishes, and keys is None when its own q exponents span more than
# MAX_EXPONENT, so that the whole value is refused before such keys are
# built.


@cache
def _phi_image(d: int, w: tuple, n: int) -> tuple:
    """The image of the cyclotomic key x^(phi(d) w-) Phi_d(x^w), which is
    x^base Phi_d(x^v) with base and v the images of phi(d) w- and w."""
    coeffs = _cyclotomic(d)
    phi = len(coeffs) - 1
    v = _sigma(w, n)
    base = _sigma(tuple(phi * max(-a, 0) for a in w), n)
    lo, hi = base[0] + min(0, phi * v[0]), base[0] + max(0, phi * v[0])
    if not any(v):
        return lo, hi, sum(coeffs), base, ()
    # Phi_e(x^s) = x^(-phi(e) s-) times its key, and the phi(e) add up to
    # phi(d) g; with v = -g s, Phi_d(1/t) = t^-phi(d) Phi_d(t), less for d = 1
    m = tuple(b - phi * max(-a, 0) for a, b in zip(v, base))
    if hi - lo > MAX_EXPONENT:
        return lo, hi, 1, m, None
    g = gcd(*v)
    s = tuple(a // g for a in v)
    k = 1
    if next(a for a in s if a) < 0:
        s = tuple(-a for a in s)
        k = -1 if d == 1 else 1
    return lo, hi, k, m, tuple(_phi_key(e, s) for e in _orders(d, g))


def _sum_image(terms: dict) -> tuple:
    """The image of a sum key, given as its terms with z -> q^n (whose q
    exponents may be negative): the keys of its primitive part."""
    if not terms:
        return 0, 0, 0, None, None
    lo, hi = min(terms) >> _Q_SHIFT, max(terms) >> _Q_SHIFT
    if hi - lo > MAX_EXPONENT:
        return lo, hi, 1, None, None
    k, m, p = _primitive(Poly({t - (lo << _Q_SHIFT): c for t, c in terms.items()}))
    return lo, hi, k, (m[0] + lo, *m[1:]), () if p is None else _keys(p)


def _at_level(poly, n: int) -> dict:
    """The terms of poly with z -> q^n, each key's z exponent times n added
    to its q field, which may pass the field width or go below 0."""
    out: dict = {}
    get = out.get
    # a z exponent b moves b * step: b off z's field, b * n onto q's
    step, z = (n << _Q_SHIFT) - (1 << _Z_SHIFT), _Z_SHIFT
    for m, c in poly.items():
        m += (m >> z & MAX_EXPONENT) * step
        out[m] = get(m, 0) + c
    return {m: c for m, c in out.items() if c}


# --------------------------------------------------------------------------
# The classical curve.
#
# The curve z - z^-1 = delta (q - q^-1) passes through q = z = 1, smoothly,
# with slope dz/dq = delta there; near that point z is a power series in
# h = q - 1 with y = z - 1 = delta h + O(h^2).  Write a polynomial as
# P = sum P_ij h^i y^j (its Taylor expansion at (1, 1)) and let mu be the
# least i + j with P_ij != 0.  Along the curve P = L(1, delta) h^mu + ...,
# where L = sum_{i+j=mu} P_ij h^i y^j is the lowest form; L(1, delta) is
# not the zero polynomial because delta is a free symbol.  So the order of
# P along the curve is its multiplicity mu at (1, 1), at most its degree,
# and its leading coefficient is sum_{i+j=mu} P_ij delta^j.


def _curve_lead(f) -> tuple:
    """(mu, lead): f = lead * h^mu + O(h^(mu+1)) along the curve, with
    ``lead`` a nonzero polynomial in (delta, Delta).

    f has no u or v; its terms with equal Delta exponent form one
    polynomial in (q, z), and the order of f is the least order of these.
    The Taylor coefficients P_ij = sum c_ab C(a, i) C(b, j) are built one
    total degree at a time, through the row sums sum_a c_ab C(a, i); for a
    z-free f, every factor of a level value, P_i0 is the row sum itself.
    """
    if not any(m & _Z_FIELD for m in f):
        rows: dict = {}  # Delta exponent -> [(q exponent, c)]
        for m, c in f.items():
            rows.setdefault(m >> 2 * FIELD_BITS & MAX_EXPONENT, []).append((m >> _Q_SHIFT, c))
        for mu in range((max(f) >> _Q_SHIFT) + 1):
            lead = {g: p for g, row in rows.items() if (p := sum([c * comb(a, mu) for a, c in row]))}
            if lead:
                return mu, CLASSICAL_FIELD.ring(lead)
    rows = {}  # Delta exponent -> z exponent -> [(q exponent, c)]
    top = 0
    for m, c in f.items():
        a, b, g, _, _ = Poly.exponents(m)
        rows.setdefault(g, {}).setdefault(b, []).append((a, c))
        top = max(top, a + b)
    shifted = {g: {b: [] for b in row} for g, row in rows.items()}
    for mu in range(top + 1):
        lead = {}
        for g, row in rows.items():
            cols = shifted[g]
            for b, terms in row.items():
                cols[b].append(sum(c * comb(a, mu) for a, c in terms))
            for j in range(mu + 1):
                p = sum(col[mu - j] * comb(b, j) for b, col in cols.items())
                if p:
                    lead[j << FIELD_BITS | g] = p
        if lead:
            return mu, CLASSICAL_FIELD.ring(lead)
    raise AssertionError("a nonzero polynomial vanishes to above its degree")


def _involves(fields: int, polys) -> bool:
    """Whether a key of one of ``polys`` has an exponent in ``fields``, a
    mask of key fields."""
    return any(m & fields for f in polys for m in f)


def classical(x: ScalarK):
    """The classical image in Q(delta, Delta): the limit q, z -> 1 along
    the curve z - z^-1 = delta (q - q^-1), delta and Delta held free.

    Read off the factored value c * x^m * prod f^e: the monomial tends to
    Delta^m_Delta and each factor f is lead * h^mu + ... along the curve,
    h = q - 1 (see :func:`_curve_lead`).  The image is 0 when sum e*mu is
    positive and c * Delta^m_Delta * prod lead^e when it is zero; a
    negative sum is a pole on the curve and raises
    :class:`ClassicalSingular`, as does a value whose normal form
    involves the spectral generators u or v, which have no classical image.
    """
    x = scalar(x)
    if not x:
        return CLASSICAL_FIELD.zero
    if x._mono[3] or x._mono[4] or _involves(_UV_FIELDS, x._fac):
        # u or v may still cancel between factors; the normal form decides
        nf = x.nf
        if _involves(_UV_FIELDS, (nf.numer, nf.denom)):
            raise ClassicalSingular("the spectral generators u, v have no classical image")
        x = _wrap(nf)
    fac, mono = x._fac, x._mono
    ring = CLASSICAL_FIELD.ring
    num = ring({pack((0, max(mono[2], 0))): x._c.numerator})
    den = ring({pack((0, max(-mono[2], 0))): x._c.denominator})
    order = 0
    for f, e in fac.items():
        mu, lead = _curve_lead(f)
        order += mu * e
        if e > 0:
            num *= lead**e
        else:
            den *= lead**-e
    if order > 0:
        return CLASSICAL_FIELD.zero
    if order < 0:
        raise ClassicalSingular("the value has a pole on the classical curve")
    return CLASSICAL_FIELD.new(num, den)


def q_to_one(x: ScalarK):
    """The limit q -> 1 of a z-free value, in Q(delta, Delta) with delta
    absent.  A z-free value does not depend on the curve along which q and
    z go to 1, so the limit is its classical image: a pole at q = 1, or a
    u or v left in the value, raises :class:`ClassicalSingular`.

    The factors are checked for z first, as :func:`classical` checks u and
    v, so a level value is read off its keys; the normal form is read only
    when z occurs in a factor, where it may still cancel."""
    x = scalar(x)
    if x._mono[1] or _involves(_Z_FIELD, x._fac):
        nf = x.nf
        if _involves(_Z_FIELD, (nf.numer, nf.denom)):
            raise SpecializationError("value still involves z; cannot specialize")
    return classical(x)


def numeric_probe(x: ScalarK, q0, n: int, Delta0) -> Fraction:
    """integer_level(x, n), then exact evaluation at a rational q = q0, not
    0 or +-1, and Delta = Delta0; each is an int (not a bool) or a
    Fraction."""
    if not all(is_int(v) or isinstance(v, Fraction) for v in (q0, Delta0)):
        raise SpecializationError(
            "numeric_probe requires an int or Fraction q0 and Delta0")
    q0, Delta0 = Fraction(q0), Fraction(Delta0)
    if q0 in (0, 1, -1):
        raise SpecializationError("numeric_probe requires q0 not in {0, 1, -1}")
    if not is_int(n) or n < 1:
        raise SpecializationError("numeric_probe requires a positive integer n")
    y = integer_level(x, n)
    num, den = y.nf.numer, y.nf.denom
    if _involves(_UV_FIELDS, (num, den)):
        raise SpecializationError(
            "value still involves the spectral generators u, v; cannot specialize")
    # z is already eliminated by the level specialization
    nv = Fraction(num(q0, 0, Delta0, 0, 0))
    dv = Fraction(den(q0, 0, Delta0, 0, 0))
    if not dv:
        raise DivisionByZero("denominator vanishes at the probe point")
    return nv / dv


# --------------------------------------------------------------------------
# Canonical text form.


def to_text(x: ScalarK) -> str:
    """Canonical textual form: reduced integer-coefficient numerator and
    denominator, terms in descending lexicographic monomial order."""
    x = scalar(x)
    num, den = x.nf.numer, x.nf.denom
    ns = poly_str(num, _VAR_NAMES, "^")
    if den == FIELD.one.denom:
        return ns
    ds = poly_str(den, _VAR_NAMES, "^")
    return f"({ns})/({ds})"


# --------------------------------------------------------------------------
# Parser for the canonical text form (and a superset: delta is accepted).

_NAME_MAP = {"q": Q, "z": Z, "Delta": SPIN_DELTA, "u": U, "v": V, "delta": DELTA}

#: Deepest nesting of parentheses and unary minus the parser accepts; the
#: recursive descent would otherwise exhaust the interpreter's stack.
MAX_PARSE_DEPTH = 100

#: Largest |exponent| the parser accepts.  Canonical texts use exponents up
#: to 78 in ``fierz-table --max 5`` and up to 216 at ``--max 8``.
MAX_PARSE_EXPONENT = 256

#: Largest degree in any one generator of a parsed value's numerator or
#: denominator, read off the factored form before anything is expanded.
#: ``fierz-table --max 8`` texts reach degree 216 in q.
MAX_PARSE_DEGREE = 256

#: Largest expansion size of a parsed value's numerator or denominator:
#: the number of monomials its degrees allow, prod(d + 1), times the bits
#: of a bound on its coefficients (from the constant and the 1-norms of the
#: factors).  Checked before a sum or a power expands anything, and on the
#: result.  The largest ``fierz-table --max 8`` text measures 0.18e6.
#: Reading ((q+z+1)^K + 1)/((q+z+2)^K + 1) and printing it takes 1.7 s at
#: K = 65, the largest K accepted: 0.4 s to parse, which expands the
#: powers, and 1.3 s for the one cancel.  Forced past the bound it took
#: 2.4 s at K = 70, 19 s at K = 100 and 122 s at K = 150, the cancel 84%
#: to 93% of it (2-core x86 machine, Python 3.11).
#: A polynomial already expanded, one key to the first power over a
#: monomial, is measured by its number of terms in place of prod(d + 1):
#: nothing is left to expand, and with no key below it there is no gcd to
#: take.  A canonical text of 9,045 characters, 387 terms of degrees
#: (18, 18, 9, 9), measures 8,514 by its terms and 794,200 by its
#: degrees; it reads back in 0.9 ms on the same machine (Python 3.11.7),
#: and its rewrite with '**', which only the descent reads, in 17 ms.  A
#: value with no key at all, a monomial, is one term on each side for any
#: power, so only its degrees and its coefficient's bits are bounded:
#: (1)/(q^244*z^78*Delta^30), 600,005 by its degrees, reads back.  A
#: lone key below 1 keeps the measure by degrees, as in
#: (1)/(q^99*z^99*Delta^59 + q): a sum multiplies it into every other
#: term, so its degrees are what that costs.
MAX_PARSE_SIZE = 600_000

#: The grammar's digits are those of str.isdigit(): the decimal digits of
#: \d and these others, superscripts, subscripts, circled and parenthesized
#: digits and a few scripts' digits.  int() reads none of the others, so a
#: run such as '2²' is one integer that cannot be read.
_DIGITS = (
    r"[\d"
    "\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    "\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    "\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    "\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a]"
)

#: One token: a run of digits, a word (a name, or a stray numeric
#: character and what follows it), '**', or any other character but
#: whitespace, which separates tokens.
_TOKEN = re.compile(rf"{_DIGITS}+|\w+|\*\*|\S")

#: The token after the last one.
_END = ""


class _ErrorAt(Exception):
    """A parse error at token ``index``, which ``parse_scalar`` raises as a
    ParseError giving the token's character position plus ``shift``."""

    def __init__(self, what: str, index: int, shift: int = 0):
        super().__init__(what)
        self.what, self.index, self.shift = what, index, shift


def _position(text: str, index: int) -> int:
    """Where token ``index`` of text starts (len(text) for the end)."""
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    return len(text) if match is None else match.start()


def parse_scalar(text: str) -> ScalarK:
    """Parse the canonical textual form (q, z, Delta, u, v, delta; + - * / ^).

    Two readers share the work, and give the same factored value.

    * ``_read_canonical`` takes the texts ``to_text`` prints, but 0: ``N``
      or ``(N)/(D)``, each side a sum of terms ``[c*]q^a*z^b*Delta^c*u^d*v^e``
      with its generators in that order.  One regex split of a side both
      checks its form and finds its terms, and each term's monomial key is
      packed from a table, so that a term costs no tokens, no exponent
      tuple and no ``ScalarK`` arithmetic.
    * A recursive descent over a token list, split once by one regex, takes
      every other text, and every error comes from it.  A sum collects its
      terms without factors into one polynomial, so that a long sum stays
      linear.  The tokens' character positions are worked out again, by the
      same regex, only when an error message needs one.  Every power, every
      sum term and the whole value is checked against the ``MAX_PARSE_*``
      bounds before anything is expanded.

    Both end in one check of the whole value against those bounds.
    """
    if not isinstance(text, str):
        raise ParseError(f"a scalar text must be a string, not {type(text).__name__}")
    val = _read_canonical(text)
    if val is None:
        val = _parse_tokens(text)
    _check_size(val)
    return val


#: int()'s default limit on the digits it reads; the canonical reader takes
#: no longer coefficient, whatever limit the interpreter sets.
_MAX_DIGITS = 4300

# So no check the descent makes of a canonical term can fail: its degree is
# at most MAX_PARSE_EXPONENT, each generator being there once, and its
# size is its coefficient's bits plus 1, under 4 bits a digit.
assert MAX_PARSE_EXPONENT <= MAX_PARSE_DEGREE
assert 4 * _MAX_DIGITS + 1 <= MAX_PARSE_SIZE


@cache
def _canonical_grammar() -> tuple:
    """(split, powers), built on first use.

    ``split`` is the ``re.split`` of one term of a canonical side: its sign
    ('' or '-' first, ' + ' or ' - ' after), then an optional coefficient
    and each generator's power, in the order q, z, Delta, u, v, joined by
    '*', each captured as text or None.  A side is a sum of such terms just
    when every piece of text between the matches is empty.  ``powers``
    maps each generator's power, 'q' to 'v^256', and None to its share of
    a monomial key; a power written with an exponent 1, a leading 0 or one
    past MAX_PARSE_EXPONENT has no entry.
    """
    end = r"(?= |\Z)"
    pattern = [r"(\A-?| [-+] )(?=[1-9qzDuv])",
               rf"(?:([1-9][0-9]{{0,{_MAX_DIGITS - 1}}})(?:\*(?=[qzDuv])|{end}))?"]
    powers = {None: 0}
    exponents = range(2, MAX_PARSE_EXPONENT + 1)
    for i, name in enumerate(_VAR_NAMES):
        later = "".join(other[0] for other in _VAR_NAMES[i + 1:])
        joint = rf"(?:\*(?=[{later}])|{end})" if later else end
        pattern.append(rf"(?:({name}(?:\^[0-9]+)?){joint})?")
        shift = (_NGENS - 1 - i) * FIELD_BITS
        powers[name] = 1 << shift
        powers.update(zip([f"{name}^{e}" for e in exponents], [e << shift for e in exponents]))
    return re.compile("".join(pattern)).split, powers


def _read_canonical(text: str):
    """The factored value of a text that ``to_text`` prints, or None for
    any other text: one outside its grammar, with an exponent past
    MAX_PARSE_EXPONENT, a coefficient past int()'s digit limit or a
    repeated monomial, or 0.  It never raises.

    Each side's terms become one polynomial, keyed by packed monomials
    (every exponent is in 0..MAX_PARSE_EXPONENT), whose value ``_over``
    builds as it builds a sum of the descent's monomials; the two sides are
    divided as there.  None of the descent's checks before the last can
    fail on such a text, so both readers give the same value."""
    split, powers = _canonical_grammar()
    if text[:1] == "(":
        cut = text.find(")/(")
        if cut < 0 or text[-1] != ")":
            return None
        sides = (text[1:cut], text[cut + 3:-1])
    else:
        sides = (text,)
    values = []
    for side in sides:
        pieces = split(side)  # the text before each term, then its 7 groups, ...
        if len(pieces) == 1 or any(pieces[::8]):
            return None
        cells = iter(pieces[1:])
        poly = {}
        try:
            for sign, c, a, b, d, u, v, _ in zip(*[cells] * 8):
                k = int(c) if c else 1
                poly[powers[a] + powers[b] + powers[d] + powers[u] + powers[v]] = (
                    -k if "-" in sign else k)
        except (KeyError, ValueError):  # a power without an entry; past int()'s limit
            return None
        if len(poly) < len(pieces) // 8:
            return None
        values.append(_over(Poly(poly), 1, _NO_FACTORS))
    return values[0] if len(values) == 1 else values[0] / values[1]


def _parse_tokens(text: str) -> ScalarK:
    """The value of any text by the recursive descent, before the check of
    the whole value."""
    toks = _TOKEN.findall(text)
    toks.append(_END)
    try:
        val, i = _parse_sum(toks, 0, 0)
    except _ErrorAt as exc:
        pos = _position(text, exc.index) + exc.shift
        raise ParseError(f"{exc.what} at position {pos}") from None
    if toks[i] != _END:
        pos = _position(text, i)
        raise ParseError(f"trailing input at position {pos}: {text[pos:]!r}")
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
    terms = [None, None]  # of a monomial or an expanded polynomial: see MAX_PARSE_SIZE
    if not x._fac:
        terms = [1, 1]
    elif e == 1 and len(x._fac) == 1:
        (f, k), = x._fac.items()
        if k == 1:
            terms[0] = len(f)
    for side, (deg, b) in enumerate(zip(degs, bits)):
        orders = [o for (s, _), o in groups.items() if s == side]
        _check_side(deg, b, e, orders, terms[side])


def _check_side(deg: list, bits: int, e: int, orders=(), terms=None) -> None:
    """The bounds on one side of a value raised to e: ``deg`` its degrees,
    ``bits`` its coefficient bits apart from its cyclotomic keys, and
    ``orders`` those keys as {d: k}, one map per t.  ``terms``, if given,
    is the side's number of monomials, in place of the count its degrees
    allow."""
    if max(deg) * e > MAX_PARSE_DEGREE:
        raise ParseError(f"degree {max(deg) * e} exceeds the parse bound {MAX_PARSE_DEGREE}")
    if orders:  # after the degree check, which bounds the products
        bits += sum((_cyclotomic_norm(o) - 1).bit_length() for o in orders)
    size = bits * e + 1
    if terms is not None:
        size *= terms
    else:
        for d in deg:
            size *= d * e + 1
    if size > MAX_PARSE_SIZE:
        raise ParseError(f"expansion size {size} exceeds the parse bound {MAX_PARSE_SIZE}")


def _cyclotomic_norm(orders: dict) -> int:
    """The 1-norm of prod Phi_d^k over {d: k}; for every divisor d of g
    with k = 1 it is that of t^g - 1, 2."""
    p = [1]
    for d, k in orders.items():
        f = _cyclotomic(d)
        for _ in range(k):
            out = [0] * (len(p) + len(f) - 1)
            for i, a in enumerate(p):
                for j, c in enumerate(f):
                    out[i + j] += a * c
            p = out
    return sum(map(abs, p))


# The recursive descent.  Each rule takes the token list, the index of its
# first token and the nesting depth, and returns its value, a ScalarK, and
# the index after its last token.


def _parse_sum(toks: list, i: int, depth: int):
    term, i = _parse_product(toks, i, depth)
    terms = [term]
    while (op := toks[i]) == "+" or op == "-":
        term, i = _parse_product(toks, i + 1, depth)
        terms.append(-term if op == "-" else term)
    if len(terms) == 1:
        return term, i
    # A sum expands its terms.  The terms without factors (monomials) are
    # collected into one polynomial, expanded once; adding them one by one
    # would expand the running sum for each.
    for t in terms:
        _check_size(t)
    acc = _monomial_sum([(t._c, t._mono) for t in terms if not t._fac])
    for t in terms:
        if t._fac:
            _check_size(acc)
            acc = acc + t
    return acc, i


def _monomial_sum(terms: list) -> ScalarK:
    """The sum of the monomials c * x^m, given as pairs (c, m), as one
    factored value."""
    coeffs: dict = {}
    for c, mono in terms:
        coeffs[mono] = coeffs.get(mono, 0) + c
    coeffs = {mono: c for mono, c in coeffs.items() if c}
    if not coeffs:
        return ZERO
    # The keys of the monomials over x^low, low the least exponent of each
    # generator.  A key is the linear form sum e_i 2^(w (4 - i)) of the
    # exponents, w = FIELD_BITS, which has a value for negative ones too; so
    # each key is one subtraction, once pack has checked that every
    # generator's exponents span at most a field.
    cols = list(zip(*coeffs))
    low = tuple(map(min, cols))
    pack(map(sub, map(max, cols), low))
    w = FIELD_BITS
    keys = [((((a << w) + b << w) + g << w) + u << w) + v for a, b, g, u, v in [*coeffs, low]]
    base = keys.pop()
    den = lcm(*(c.denominator for c in coeffs.values()))
    poly = Poly({k - base: int(c * den) for k, c in zip(keys, coeffs.values())})
    return _over(poly, den, {g: -e for g, e in zip(_GENS, low) if e})


def _parse_product(toks: list, i: int, depth: int):
    acc, i = _parse_factor(toks, i, depth)
    while (op := toks[i]) == "*" or op == "/":
        rhs, i = _parse_factor(toks, i + 1, depth)
        acc = acc * rhs if op == "*" else acc / rhs
    return acc, i


def _parse_factor(toks: list, i: int, depth: int):
    if toks[i] == "-":
        val, i = _parse_factor(toks, i + 1, _descend(depth, i))
        return -val, i
    base, i = _parse_atom(toks, i, depth)
    if toks[i] == "^" or toks[i] == "**":
        e, i = _parse_exponent(toks, i + 1)
        # the constant is raised at once; the factors only later, on expansion
        _check_size(base, e)
        base = base**e
    return base, i


def _descend(depth: int, i: int) -> int:
    """The nesting depth inside the '(' or unary minus at token i."""
    if depth >= MAX_PARSE_DEPTH:
        raise _ErrorAt(f"nesting deeper than {MAX_PARSE_DEPTH}", i, 1)
    return depth + 1


def _parse_exponent(toks: list, i: int):
    """The exponent after a '^' or '**', within its bound."""
    if toks[i] == "(":
        e, i = _parse_integer(toks, i + 1)
        if toks[i] != ")":
            raise ParseError("expected ')' after exponent")
        i += 1
    else:
        e, i = _parse_integer(toks, i)
    if abs(e) > MAX_PARSE_EXPONENT:
        raise ParseError(f"exponent {e} exceeds the parse bound {MAX_PARSE_EXPONENT}")
    return e, i


def _parse_integer(toks: list, i: int):
    sign = 1
    if toks[i] == "-":
        sign = -1
        i += 1
    t = toks[i]
    if not t[:1].isdigit():
        raise _ErrorAt("expected integer", i)
    try:
        return sign * int(t), i + 1
    except ValueError:  # past int()'s digit limit, or a digit it does not read
        raise _ErrorAt("unreadable integer", i) from None


def _parse_atom(toks: list, i: int, depth: int):
    t = toks[i]
    if t == _END:
        raise ParseError("unexpected end of input")
    if t == "(":
        val, i = _parse_sum(toks, i + 1, _descend(depth, i))
        if toks[i] != ")":
            raise ParseError("expected ')'")
        return val, i + 1
    if t[0].isdigit():
        n, i = _parse_integer(toks, i)
        return ScalarK.from_rational(n), i
    if not (t[0].isalpha() or t[0] == "_"):
        raise _ErrorAt(f"unexpected character {t[0]!r}", i)
    if t not in _NAME_MAP:
        raise ParseError(f"unknown symbol {t!r}")
    return _NAME_MAP[t], i + 1
