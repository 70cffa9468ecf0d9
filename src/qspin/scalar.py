"""Exact arithmetic in the two-parameter coefficient field and its specializations.

The coefficient field is generated by q, z, delta, Delta (and two formal
spectral parameters u, v) subject to the single relation

    (q - q^-1) * delta = z - z^-1.

Values carry three coordinates:

* a factored value -- a rational constant, times a Laurent monomial in
  (q, z, Delta, u, v), times powers of primitive integer polynomials.
  Products, quotients and powers only add exponents; a sum expands its two
  terms over their common factors and keeps the result as one new factor.
* ``nf`` -- the normal form: the reduced fraction of two coprime
  integer-coefficient polynomials in (q, z, Delta, u, v), the denominator's
  leading coefficient positive, with delta rewritten as
  (z^2-1)q / ((q^2-1)z).  It is built from the factored value with one
  cancel when first read and then cached.  Equality of values is decided
  by comparing normal forms.
* ``expr`` -- an expression DAG over the generators.  The DAG retains
  delta (and the extended bracket/brace atoms) as primitive symbols so the
  classical specialization q, z -> 1, delta -> delta is well defined even
  though it is a 0/0 point in rational-function coordinates.

Specializations:

* ``IntegerLevel(n)``: z -> q^n (delta becomes the ordinary q-integer [n]).
* ``Classical``: q, z -> 1 on the expression DAG; delta stays a free
  variable; bracket atoms [b*n + a] map to b*delta + a and braces to 2.
  The result lives in Q(delta, Delta).
* ``NumericProbe(q0, n, Delta0)``: IntegerLevel(n) followed by exact
  evaluation at a rational q0 (not 0 or +-1) and Delta -> Delta0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from sympy import QQ, ZZ
from sympy.polys.fields import field

from .errors import (
    ArgumentOutOfRange,
    ClassicalSingular,
    DivisionByZero,
    ParseError,
    SpecializationError,
)

# --------------------------------------------------------------------------
# Underlying rational-function fields.

_VAR_NAMES = ("q", "z", "Delta", "u", "v")

#: Fractions of integer polynomials: a reduced element is a coprime pair
#: with a positive leading denominator coefficient.
FIELD, _q, _z, _Dcap, _u, _v = field("q,z,Delta,u,v", ZZ)
_RING = FIELD.ring
_QG, _ZG, _DG, _UG, _VG = _RING.gens
#: The same polynomials over QQ, for evaluation at rational points.
_QRING = _RING.clone(domain=QQ)

#: Classical coordinates: Q(delta, Delta).
CLASSICAL_FIELD, _cd, _cD = field("delta,Delta", QQ)

# delta in rational-function coordinates: (z^2 - 1) q / ((q^2 - 1) z).
_DELTA_NF = (_z * _z - 1) * _q / ((_q * _q - 1) * _z)


def _fpow(base, e: int):
    """Integer power of a field element, allowing negative exponents."""
    if e >= 0:
        return base**e
    return 1 / (base ** (-e))


# --------------------------------------------------------------------------
# Expression DAG.
#
# Nodes are plain tuples; children are shared by reference so folds can
# memoize on object identity.
#
#   ("rat", Fraction)          rational constant
#   ("gen", name)              one of q, z, Delta, u, v
#   ("delta",)                 the blow-up generator delta
#   ("qint", b, a)             extended bracket [b*n + a]
#   ("brace", k)               brace symbol {k} = z q^-k + z^-1 q^k
#   ("add"|"mul"|"div", x, y)
#   ("neg", x)
#   ("pow", x, e)              integer e (may be negative)

_GEN_NF = {"q": _q, "z": _z, "Delta": _Dcap, "u": _u, "v": _v}


def _qint_nf(b: int, a: int):
    return (_fpow(_z, b) * _fpow(_q, a) - _fpow(_z, -b) * _fpow(_q, -a)) / (
        _q - 1 / _q
    )


def _brace_nf(k: int):
    return _z * _fpow(_q, -k) + _fpow(_q, k) / _z


def _fold(node, rat_fn, gen_fn, delta_fn, qint_fn, brace_fn, ops):
    """Iterative post-order fold over a DAG.

    ``ops`` maps each of "add", "mul", "div", "neg", "pow" to a combiner.
    Memoizes on node identity so shared subtrees are evaluated once.
    """
    memo: dict[int, object] = {}
    stack = [(node, False)]
    while stack:
        cur, ready = stack.pop()
        key = id(cur)
        if key in memo:
            continue
        kind = cur[0]
        if kind == "rat":
            memo[key] = rat_fn(cur[1])
        elif kind == "gen":
            memo[key] = gen_fn(cur[1])
        elif kind == "delta":
            memo[key] = delta_fn()
        elif kind == "qint":
            memo[key] = qint_fn(cur[1], cur[2])
        elif kind == "brace":
            memo[key] = brace_fn(cur[1])
        elif kind in ("add", "mul", "div"):
            if ready:
                memo[key] = ops[kind](memo[id(cur[1])], memo[id(cur[2])])
            else:
                stack.append((cur, True))
                stack.append((cur[1], False))
                stack.append((cur[2], False))
        elif kind == "neg":
            if ready:
                memo[key] = ops["neg"](memo[id(cur[1])])
            else:
                stack.append((cur, True))
                stack.append((cur[1], False))
        elif kind == "pow":
            if ready:
                memo[key] = ops["pow"](memo[id(cur[1])], cur[2])
            else:
                stack.append((cur, True))
                stack.append((cur[1], False))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown DAG node kind {kind!r}")
    return memo[id(node)]


def _map_dag(node, atom_fn):
    """Rebuild a DAG applying ``atom_fn`` to leaf nodes (returns a node)."""
    return _fold(
        node,
        rat_fn=lambda r: atom_fn(("rat", r)),
        gen_fn=lambda n: atom_fn(("gen", n)),
        delta_fn=lambda: atom_fn(("delta",)),
        qint_fn=lambda b, a: atom_fn(("qint", b, a)),
        brace_fn=lambda k: atom_fn(("brace", k)),
        ops={
            "add": lambda x, y: ("add", x, y),
            "mul": lambda x, y: ("mul", x, y),
            "div": lambda x, y: ("div", x, y),
            "neg": lambda x: ("neg", x),
            "pow": lambda x, e: ("pow", x, e),
        },
    )


# --------------------------------------------------------------------------
# Factored values.
#
# A nonzero value is c * x^m * prod f^e: a Fraction c, a Laurent monomial
# x^m in (q, z, Delta, u, v), and a map from primitive integer polynomials f
# (content 1, positive leading coefficient, no monomial factor, not
# constant) to nonzero exponents e.  The map is never mutated once built.
# Distinct keys need not be coprime; the one cancel that builds the normal
# form removes whatever they share.

_NGENS = 5
_MONO1 = (0,) * _NGENS
_NO_FACTORS: dict = {}
_poly = _RING.dtype
_mdiv = _RING.monomial_div


def _primitive(poly):
    """(k, m, p) with poly = k * x^m * p, k an int whose sign makes the
    leading coefficient of p positive, and p primitive without a monomial
    factor, or None when poly is a monomial."""
    k = gcd(*poly.values())
    if poly[max(poly)] < 0:
        k = -k
    m = tuple(map(min, zip(*poly)))
    if len(poly) == 1:
        return k, m, None
    return k, m, _poly({_mdiv(mon, m): c // k for mon, c in poly.items()})


def _expand(k: int, m: tuple, fac: dict):
    """The polynomial k * x^m * prod f^e (m and every e nonnegative)."""
    out = _poly({m: k})
    for f, e in fac.items():
        out = out * f**e
    return out


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


def _fac_over(fac: dict, common: dict) -> dict:
    """Exponents of fac / common; all positive when common is the
    factor-wise minimum of fac and another map."""
    out = {f: e - common.get(f, 0) for f, e in fac.items()}
    for f, e in common.items():
        if f not in fac:
            out[f] = -e
    return {f: e for f, e in out.items() if e}


def _wrap(nf, expr) -> "ScalarK":
    """A reduced field element as a factored value, ``nf`` cached."""
    if not nf:
        return ScalarK(Fraction(0), _MONO1, _NO_FACTORS, expr, nf)
    kn, mn, pn = _primitive(nf.numer)
    kd, md, pd = _primitive(nf.denom)
    fac = {}
    if pn is not None:
        fac[pn] = 1
    if pd is not None:
        fac[pd] = -1
    mono = tuple(a - b for a, b in zip(mn, md))
    return ScalarK(Fraction(kn, kd), mono, fac, expr, nf)


# --------------------------------------------------------------------------
# ScalarK.


class ScalarK:
    """An exact element of the coefficient field.

    The value is kept factored, as ``c * x^m * prod f^e`` (see above), so
    products, quotients, powers and negation are exponent arithmetic.  A
    sum expands both terms over their factor-wise common part (the largest
    denominator exponent and the smallest numerator exponent of each
    factor, the smaller monomial, and the gcd of the constants) and keeps
    the primitive part of the result as one new factor.  A value is zero
    exactly when its constant is 0.

    ``nf``, the reduced field element, is built on first use with one
    cancel and cached; equality and hashing compare it.  ``expr`` is the
    expression DAG, kept when both operands have one.  Values produced by
    bulk matrix computations drop the DAG; the classical specialization
    then falls back to rational coordinates and raises
    :class:`ClassicalSingular` if that route hits 0/0.

    Immutable up to the cache, which any thread may fill with the same
    value; safe to share across threads.
    """

    __slots__ = ("_c", "_mono", "_fac", "_expr", "_nf")

    def __init__(self, c: Fraction, mono: tuple, fac: dict, expr=None, nf=None):
        self._c = c
        self._mono = mono
        self._fac = fac
        self._expr = expr
        self._nf = nf

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "ScalarK":
        frac = Fraction(x)
        return ScalarK(frac, _MONO1, _NO_FACTORS, ("rat", frac))

    @staticmethod
    def from_field_element(nf) -> "ScalarK":
        """Wrap a reduced field element (no expression DAG)."""
        return _wrap(nf, None)

    # -- normal form ---------------------------------------------------------

    @property
    def nf(self):
        """The reduced field element: coprime integer numerator and
        denominator, the denominator's leading coefficient positive."""
        nf = self._nf
        if nf is None:
            c = self._c
            if not c:
                nf = FIELD.zero
            else:
                num = {f: e for f, e in self._fac.items() if e > 0}
                den = {f: -e for f, e in self._fac.items() if e < 0}
                nf = FIELD.new(
                    _expand(c.numerator, tuple(max(e, 0) for e in self._mono), num),
                    _expand(c.denominator, tuple(max(-e, 0) for e in self._mono), den),
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

    @property
    def expr(self):
        return self._expr

    def _pair(self, other):
        o = ScalarK._coerce(other)
        if o is NotImplemented:
            return None
        return o

    def _combine(self, other, kind, c, mono, fac):
        e = None
        if self._expr is not None and other._expr is not None:
            e = (kind, self._expr, other._expr)
        return ScalarK(c, mono, fac, e)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self._combine(o, "add", *_add(self, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        c = self._c * o._c
        if not c:
            return self._combine(o, "mul", c, _MONO1, _NO_FACTORS)
        mono = tuple(a + b for a, b in zip(self._mono, o._mono))
        return self._combine(o, "mul", c, mono, _fac_mul(self._fac, o._fac))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        if not o._c:
            raise DivisionByZero("division by a scalar that normalizes to 0")
        c = self._c / o._c
        if not c:
            return self._combine(o, "div", c, _MONO1, _NO_FACTORS)
        mono = tuple(a - b for a, b in zip(self._mono, o._mono))
        return self._combine(o, "div", c, mono, _fac_mul(self._fac, o._fac, -1))

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        e = ("neg", self._expr) if self._expr is not None else None
        return ScalarK(-self._c, self._mono, self._fac, e)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and not self._c:
            raise DivisionByZero("inverting a scalar that normalizes to 0")
        if e == 0 and not self._c:
            raise ArgumentOutOfRange("0^0 is undefined")
        ex = ("pow", self._expr, e) if self._expr is not None else None
        if not self._c or e == 0:
            return ScalarK(self._c**e, _MONO1, _NO_FACTORS, ex)
        mono = tuple(a * e for a in self._mono)
        fac = {f: k * e for f, k in self._fac.items()}
        return ScalarK(self._c**e, mono, fac, ex)

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
        return hash(self.nf)

    def __repr__(self):
        return f"ScalarK({to_text(self)})"

    # -- housekeeping ---------------------------------------------------------

    def compact(self) -> "ScalarK":
        """Drop the expression DAG (keeps the value)."""
        return ScalarK(self._c, self._mono, self._fac, None, self._nf)


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
    total = _expand(
        int(cx / c), tuple(a - b for a, b in zip(x._mono, mono)), _fac_over(fx, common)
    ) + _expand(
        int(cy / c), tuple(a - b for a, b in zip(y._mono, mono)), _fac_over(fy, common)
    )
    if not total:
        return Fraction(0), _MONO1, _NO_FACTORS
    k, m, p = _primitive(total)
    if p is not None:
        common = _fac_mul(common, {p: 1})
    return c * k, tuple(a + b for a, b in zip(mono, m)), common


def scalar(x) -> ScalarK:
    """Coerce an int or Fraction (or ScalarK) to ScalarK."""
    s = ScalarK._coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to ScalarK")
    return s


def _unit(i: int) -> tuple:
    return tuple(int(j == i) for j in range(_NGENS))


def _gen(name: str) -> ScalarK:
    mono = _unit(_VAR_NAMES.index(name))
    return ScalarK(Fraction(1), mono, _NO_FACTORS, ("gen", name))


def _binomial(a: tuple, b: tuple) -> ScalarK:
    """x^a - x^b as a value without DAG (a != b)."""
    m = tuple(map(min, a, b))
    k, _, p = _primitive(_poly({_mdiv(a, m): 1, _mdiv(b, m): -1}))
    return ScalarK(Fraction(k), m, {p: 1})


#: q - q^-1 = q^-1 (q^2 - 1), the denominator of every bracket.
_QDIFF = _binomial((1, 0, 0, 0, 0), (-1, 0, 0, 0, 0))


def _over_qdiff(a: tuple, node) -> ScalarK:
    """(x^a - x^-a) / (q - q^-1) with DAG node ``node``."""
    num = _binomial(a, tuple(-e for e in a))
    mono = tuple(s - t for s, t in zip(num._mono, _QDIFF._mono))
    return ScalarK(num._c, mono, _fac_mul(num._fac, _QDIFF._fac, -1), node)


#: Generators.
Q = _gen("q")
Z = _gen("z")
SPIN_DELTA = _gen("Delta")
U = _gen("u")
V = _gen("v")
DELTA = _over_qdiff((0, 1, 0, 0, 0), ("delta",))
ONE = ScalarK.from_rational(1)
ZERO = ScalarK.from_rational(0)

#: Bracket and brace atoms by DAG node, built on first use.
_ATOMS: dict = {}


def qint_atom(b: int, a: int) -> ScalarK:
    """The extended bracket [b*n + a] as a primitive DAG atom.

    Its classical image is b*delta + a.
    """
    node = ("qint", b, a)
    x = _ATOMS.get(node)
    if x is None:
        if b == 0 and a == 0:
            x = ScalarK(Fraction(0), _MONO1, _NO_FACTORS, node)
        else:
            x = _over_qdiff((a, b, 0, 0, 0), node)
        x = _ATOMS.setdefault(node, x)
    return x


def brace_atom(k: int) -> ScalarK:
    """The brace symbol {k} = z q^-k + z^-1 q^k as a primitive DAG atom.

    Its classical image is 2.
    """
    node = ("brace", k)
    x = _ATOMS.get(node)
    if x is None:
        # z q^-k + z^-1 q^k = z^-1 q^-|k| (q^(|k|-k) z^2 + q^(|k|+k))
        p = _poly({(abs(k) - k, 2, 0, 0, 0): 1, (abs(k) + k, 0, 0, 0, 0): 1})
        x = _ATOMS.setdefault(
            node, ScalarK(Fraction(1), (-abs(k), -1, 0, 0, 0), {p: 1}, node)
        )
    return x


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
    the denominator's leading coefficient positive.  Bracket and brace
    atoms are individually invariant, so the expression DAG, when present,
    is mapped generator-wise and kept for the classical specialization.
    """
    x = scalar(x)
    if not x:
        return x
    num, nq, nz = _reflect(x.nf.numer)
    den, dq, dz = _reflect(x.nf.denom)
    # bar(x) = (num q^-nq z^-nz) / (den q^-dq z^-dz)
    sq, sz = dq - nq, dz - nz
    num = num * _QG ** max(sq, 0) * _ZG ** max(sz, 0)
    den = den * _QG ** max(-sq, 0) * _ZG ** max(-sz, 0)
    if den.LC < 0:
        num, den = -num, -den
    nf = FIELD.raw_new(num, den)
    if x._expr is None:
        return _wrap(nf, None)

    def atom(node):
        if node[0] == "gen" and node[1] in ("q", "z"):
            return ("pow", node, -1)
        return node

    return _wrap(nf, _map_dag(x._expr, atom))


def _reflect(poly):
    """(p, a, b) with poly(1/q, 1/z) = p * q^-a * z^-b, p a polynomial."""
    if not poly:
        return poly, 0, 0
    a = max(m[0] for m in poly)
    b = max(m[1] for m in poly)
    p = poly.new({(a - m[0], b - m[1]) + m[2:]: c for m, c in poly.items()})
    return p, a, b


def _nf_of_expr(node):
    """The normal form of a DAG, folded through field arithmetic: the
    reference that factored values are tested against."""

    def div(xx, yy):
        if not yy:
            raise DivisionByZero("division by a scalar that normalizes to 0")
        return xx / yy

    return _fold(
        node,
        rat_fn=lambda r: FIELD.ground_new(QQ(r.numerator, r.denominator)),
        gen_fn=lambda n: _GEN_NF[n],
        delta_fn=lambda: _DELTA_NF,
        qint_fn=_qint_nf,
        brace_fn=_brace_nf,
        ops={
            "add": lambda a, b: a + b,
            "mul": lambda a, b: a * b,
            "div": div,
            "neg": lambda a: -a,
            "pow": lambda a, e: _fpow(a, e),
        },
    )


# --------------------------------------------------------------------------
# Specialization targets.


@dataclass(frozen=True)
class IntegerLevel:
    """z -> q^n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise SpecializationError("IntegerLevel requires a positive integer")


@dataclass(frozen=True)
class Classical:
    """q, z -> 1; delta -> delta; Delta -> Delta (in Q(delta, Delta))."""


@dataclass(frozen=True)
class NumericProbe:
    """IntegerLevel(n), then exact evaluation at q = q0, Delta = Delta0."""

    q0: Fraction
    n: int
    Delta0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q0", Fraction(self.q0))
        object.__setattr__(self, "Delta0", Fraction(self.Delta0))
        if self.q0 in (0, 1, -1):
            raise SpecializationError("NumericProbe requires q0 not in {0, 1, -1}")
        if not isinstance(self.n, int) or self.n < 1:
            raise SpecializationError("NumericProbe requires a positive integer n")


def _expr_integer_level(node, n: int):
    qn = ("pow", ("gen", "q"), n)

    def atom(nd):
        k = nd[0]
        if k == "gen" and nd[1] == "z":
            return qn
        if k == "delta":
            return ("qint", 0, n)
        if k == "qint":
            return ("qint", 0, nd[1] * n + nd[2])
        if k == "brace":
            return (
                "add",
                ("pow", ("gen", "q"), n - nd[1]),
                ("pow", ("gen", "q"), nd[1] - n),
            )
        return nd

    return _map_dag(node, atom)


def integer_level(x: ScalarK, n: int) -> ScalarK:
    """Apply z -> q^n; the result is z-free (a function of q, Delta, u, v)."""
    x = scalar(x)
    qn = _QG**n
    num = x.nf.numer.compose(_ZG, qn)
    den = x.nf.denom.compose(_ZG, qn)
    if not den:
        raise DivisionByZero(f"denominator vanishes under z -> q^{n}")
    e = _expr_integer_level(x._expr, n) if x._expr is not None else None
    return _wrap(FIELD.new(num, den), e)


def classical(x: ScalarK):
    """The classical image in Q(delta, Delta), via the expression DAG.

    Raises :class:`ClassicalSingular` if a division has a zero classical
    image (or if the value only exists in rational coordinates where the
    limit is 0/0), and for the spectral generators u, v, which have no
    classical image.
    """
    x = scalar(x)
    if x._expr is None:
        return _classical_of_nf(x.nf)

    def gen_fn(name):
        if name in ("q", "z"):
            return CLASSICAL_FIELD.one
        if name == "Delta":
            return _cD
        raise ClassicalSingular(f"generator {name} has no classical image")

    def div(a, b):
        if not b:
            raise ClassicalSingular(
                "division by a subexpression with classical image 0"
            )
        return a / b

    def pw(a, e):
        if e < 0 and not a:
            raise ClassicalSingular(
                "inverting a subexpression with classical image 0"
            )
        return a**e if e >= 0 else 1 / (a ** (-e))

    return _fold(
        x._expr,
        rat_fn=lambda r: CLASSICAL_FIELD.ground_new(QQ(r.numerator, r.denominator)),
        gen_fn=gen_fn,
        delta_fn=lambda: _cd,
        # the constant must be a field element: sympy's zero + int returns
        # the bare int, so [0*n + a] would otherwise escape Q(delta, Delta)
        qint_fn=lambda b, a: b * _cd + CLASSICAL_FIELD.ground_new(QQ(a)),
        brace_fn=lambda k: CLASSICAL_FIELD.ground_new(QQ(2)),
        ops={
            "add": lambda a, b: a + b,
            "mul": lambda a, b: a * b,
            "div": div,
            "neg": lambda a: -a,
            "pow": pw,
        },
    )


def _classical_of_nf(nf):
    """q, z -> 1 directly on a normal form (no delta blow-up available)."""
    num = _poly_q1z1(nf.numer)
    den = _poly_q1z1(nf.denom)
    if not den:
        raise ClassicalSingular(
            "classical image is 0/0 in rational coordinates and no "
            "expression DAG is available"
        )
    return num / den


def _poly_q1z1(poly):
    """Map a (q, z, Delta, u, v) polynomial to Q(delta, Delta) at q=z=1."""
    out = CLASSICAL_FIELD.zero
    for monom, coeff in poly.terms():
        if monom[3] or monom[4]:
            raise ClassicalSingular("spectral generators have no classical image")
        out = out + CLASSICAL_FIELD.ground_new(QQ(coeff)) * _cD ** monom[2]
    return out


def _require_gens_absent(poly, positions, what):
    for monom, _ in poly.terms():
        for p in positions:
            if monom[p]:
                raise SpecializationError(
                    f"value still involves {what}; cannot specialize"
                )


def q_to_one(x: ScalarK):
    """Exact limit q -> 1 of a z-free value; result lives in Q(delta, Delta)
    (with delta absent).  Cancels matching powers of (q - 1) first."""
    x = scalar(x)
    num, den = x.nf.numer, x.nf.denom
    _require_gens_absent(num, (1,), "z")
    _require_gens_absent(den, (1,), "z")
    qm1 = _QG - 1
    while True:
        n1 = num.evaluate(_QG, 1)
        d1 = den.evaluate(_QG, 1)
        n_zero = not n1
        d_zero = not d1
        if not (n_zero and d_zero):
            break
        num, rn = divmod(num, qm1)
        den, rd = divmod(den, qm1)
        if rn or rd:  # pragma: no cover - defensive
            raise SpecializationError("(q - 1) cancellation failed")
    if d_zero:
        raise DivisionByZero("pole at q = 1")
    return _ground_or_poly_to_classical(n1) / _ground_or_poly_to_classical(d1)


def _ground_or_poly_to_classical(val):
    """Convert the result of evaluating away q (poly in z,Delta,u,v or ground)."""
    if not hasattr(val, "terms"):
        return CLASSICAL_FIELD.ground_new(QQ(val))
    out = CLASSICAL_FIELD.zero
    for monom, coeff in val.terms():
        # remaining gens: (z, Delta, u, v); z was required absent upstream
        if monom[0] or monom[2] or monom[3]:
            raise SpecializationError(
                "value still involves z, u or v after the q -> 1 limit"
            )
        out = out + CLASSICAL_FIELD.ground_new(QQ(coeff)) * _cD ** monom[1]
    return out


def numeric_probe(x: ScalarK, q0, n: int, Delta0) -> Fraction:
    """IntegerLevel(n) then exact rational evaluation."""
    t = NumericProbe(Fraction(q0), n, Fraction(Delta0))
    y = integer_level(x, t.n)
    num, den = y.nf.numer, y.nf.denom
    _require_gens_absent(num, (3, 4), "the spectral generators u, v")
    _require_gens_absent(den, (3, 4), "the spectral generators u, v")
    # q0 and Delta0 are rationals: evaluate over QQ
    num, den = num.set_ring(_QRING), den.set_ring(_QRING)
    qg, zg, dg, ug, vg = _QRING.gens
    subs = [
        (qg, QQ(t.q0.numerator, t.q0.denominator)),
        (zg, QQ(0)),  # z is already eliminated by the level specialization
        (dg, QQ(t.Delta0.numerator, t.Delta0.denominator)),
        (ug, QQ(0)),
        (vg, QQ(0)),
    ]
    nv = num.evaluate(subs)
    dv = den.evaluate(subs)
    if not dv:
        raise DivisionByZero("denominator vanishes at the probe point")
    res = QQ(nv) / QQ(dv)
    return Fraction(int(res.numerator), int(res.denominator))


def classical_limit(x: ScalarK, n: int, Delta0=None):
    """IntegerLevel(n) followed by the exact q -> 1 limit.

    Returns an element of Q(Delta), or a Fraction if ``Delta0`` is given.
    """
    val = q_to_one(integer_level(x, n))
    if Delta0 is None:
        return val
    D0 = Fraction(Delta0)
    ring = val.numer.ring
    for monom, _ in list(val.numer.terms()) + list(val.denom.terms()):
        if monom[0]:
            raise SpecializationError("value still involves delta")
    subs = [(ring.gens[0], QQ(0)), (ring.gens[1], QQ(D0.numerator, D0.denominator))]
    num = val.numer.evaluate(subs)
    den = val.denom.evaluate(subs)
    if not den:
        raise DivisionByZero("denominator vanishes at Delta0")
    res = QQ(num) / QQ(den)
    return Fraction(int(res.numerator), int(res.denominator))


def specialize(x: ScalarK, target):
    """Apply a specialization target.

    * IntegerLevel(n) -> ScalarK (z eliminated)
    * Classical       -> element of Q(delta, Delta)
    * NumericProbe    -> Fraction
    """
    if isinstance(target, IntegerLevel):
        return integer_level(x, target.n)
    if isinstance(target, Classical):
        return classical(x)
    if isinstance(target, NumericProbe):
        return numeric_probe(x, target.q0, target.n, target.Delta0)
    raise SpecializationError(f"unknown specialization target {target!r}")


def classical_poly_coeffs(val) -> dict[int, Fraction]:
    """Coefficients {degree: coeff} of a delta-polynomial in Q(delta, Delta).

    Raises if the value is not a polynomial in delta alone.
    """
    num, den = val.numer, val.denom
    out: dict[int, Fraction] = {}
    for monom, coeff in num.terms():
        if monom[1]:
            raise SpecializationError("classical value involves Delta")
        c = Fraction(int(coeff.numerator), int(coeff.denominator))
        out[monom[0]] = out.get(monom[0], Fraction(0)) + c
    dterms = den.terms()
    if len(dterms) != 1 or dterms[0][0] != (0, 0):
        raise SpecializationError("classical value is not a delta-polynomial")
    dc = Fraction(int(dterms[0][1].numerator), int(dterms[0][1].denominator))
    return {k: v / dc for k, v in out.items() if v}


# --------------------------------------------------------------------------
# Canonical text form.


def _render_poly(poly) -> str:
    terms = sorted(poly.terms(), key=lambda t: t[0], reverse=True)
    if not terms:
        return "0"
    parts = []
    for monom, coeff in terms:
        c = int(coeff)
        factors = []
        for name, e in zip(_VAR_NAMES, monom):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if mono:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        else:
            body = str(abs(c))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def to_text(x: ScalarK) -> str:
    """Canonical textual form: reduced integer-coefficient numerator and
    denominator, terms in descending lexicographic monomial order."""
    x = scalar(x)
    num, den = x.nf.numer, x.nf.denom
    ns = _render_poly(num)
    if den == den.ring.one:
        return ns
    ds = _render_poly(den)
    return f"({ns})/({ds})"


# --------------------------------------------------------------------------
# Parser for the canonical text form (and a superset: delta is accepted).

_NAME_MAP = {
    "q": lambda: Q,
    "z": lambda: Z,
    "u": lambda: U,
    "v": lambda: V,
    "Delta": lambda: SPIN_DELTA,
    "delta": lambda: DELTA,
}


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
#: Reading ((q+z+1)^K + 1)/((q+z+2)^K + 1), nearly all of it the one
#: cancel, takes 2.2 s at K = 65, the largest K accepted; forced past the
#: bound it took 3.4 s at K = 70, 20 s at K = 100 and 215 s at K = 150
#: (2-core x86 machine, Python 3.11, sympy 1.14, no gmpy2).
MAX_PARSE_SIZE = 600_000


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
    # ceil(log2) of a bound on the coefficients: |c| times |f|_1^k per factor
    bits = [(abs(x._c.numerator) - 1).bit_length(), (x._c.denominator - 1).bit_length()]
    for f, k in x._fac.items():
        side = 0 if k > 0 else 1
        for i, d in enumerate(f.degrees()):
            degs[side][i] += abs(k) * d
        bits[side] += abs(k) * (sum(map(abs, f.values())) - 1).bit_length()
    for deg, b in zip(degs, bits):
        if max(deg) * e > MAX_PARSE_DEGREE:
            raise ParseError(
                f"degree {max(deg) * e} exceeds the parse bound {MAX_PARSE_DEGREE}"
            )
        size = b * e + 1
        for d in deg:
            size *= d * e + 1
        if size > MAX_PARSE_SIZE:
            raise ParseError(
                f"expansion size {size} exceeds the parse bound {MAX_PARSE_SIZE}"
            )


def _parse_sum(tok: _Tok) -> ScalarK:
    acc = _parse_product(tok)
    summed = False
    while True:
        op = tok.next_op("+-")
        if op is None:
            return acc
        rhs = _parse_product(tok)
        # A sum expands both terms.  Once acc is a sum its numerator is
        # expanded, so a term without factors (a monomial of a canonical
        # text) adds in time linear in acc, which is not measured again.
        _check_size(rhs)
        if rhs._fac or not summed:
            _check_size(acc)
        acc = acc + rhs if op == "+" else acc - rhs
        summed = True


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
