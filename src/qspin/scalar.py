"""Exact arithmetic in the two-parameter coefficient field and its specializations.

The coefficient field is generated by q, z, delta, Delta (and two formal
spectral parameters u, v) subject to the single relation

    (q - q^-1) * delta = z - z^-1.

Values carry two coordinates:

* ``normal`` -- a reduced rational function over the rationals in
  (q, z, Delta, u, v), with delta rewritten as (z^2-1)q / ((q^2-1)z).
  Equality of values is decided by comparing normal forms.
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

from sympy import QQ
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

FIELD, _q, _z, _Dcap, _u, _v = field("q,z,Delta,u,v", QQ)
_RING = FIELD.ring
_QG, _ZG, _DG, _UG, _VG = _RING.gens

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
# ScalarK.


class ScalarK:
    """An exact element of the coefficient field.

    Immutable; safe to share across threads.  Arithmetic keeps both the
    normal form and (when available on both operands) the expression DAG.
    Values produced by bulk matrix computations may drop the DAG; the
    classical specialization then falls back to rational coordinates and
    raises :class:`ClassicalSingular` if that route hits 0/0.
    """

    __slots__ = ("nf", "_expr")

    def __init__(self, nf, expr=None):
        self.nf = nf
        self._expr = expr

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "ScalarK":
        frac = Fraction(x)
        nf = FIELD.ground_new(QQ(frac.numerator, frac.denominator))
        return ScalarK(nf, ("rat", frac))

    @staticmethod
    def from_field_element(nf) -> "ScalarK":
        """Wrap a raw field element (no expression DAG)."""
        return ScalarK(nf, None)

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

    def _combine(self, other, kind, nf):
        e = None
        if self._expr is not None and other._expr is not None:
            e = (kind, self._expr, other._expr)
        return ScalarK(nf, e)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self._combine(o, "add", self.nf + o.nf)

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
        return self._combine(o, "mul", self.nf * o.nf)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        if not o.nf:
            raise DivisionByZero("division by a scalar that normalizes to 0")
        return self._combine(o, "div", self.nf / o.nf)

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        e = ("neg", self._expr) if self._expr is not None else None
        return ScalarK(-self.nf, e)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and not self.nf:
            raise DivisionByZero("inverting a scalar that normalizes to 0")
        if e == 0 and not self.nf:
            raise ArgumentOutOfRange("0^0 is undefined")
        nf = self.nf**e if e >= 0 else 1 / (self.nf ** (-e))
        ex = ("pow", self._expr, e) if self._expr is not None else None
        return ScalarK(nf, ex)

    def inv(self) -> "ScalarK":
        return self**-1

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nf

    def __bool__(self) -> bool:
        return bool(self.nf)

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
        """Drop the expression DAG (keeps only the normal form)."""
        return ScalarK(self.nf, None)


def scalar(x) -> ScalarK:
    """Coerce an int or Fraction (or ScalarK) to ScalarK."""
    s = ScalarK._coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to ScalarK")
    return s


def _gen(name: str) -> ScalarK:
    return ScalarK(_GEN_NF[name], ("gen", name))


#: Generators.
Q = _gen("q")
Z = _gen("z")
SPIN_DELTA = _gen("Delta")
U = _gen("u")
V = _gen("v")
DELTA = ScalarK(_DELTA_NF, ("delta",))
ONE = ScalarK.from_rational(1)
ZERO = ScalarK.from_rational(0)


def qint_atom(b: int, a: int) -> ScalarK:
    """The extended bracket [b*n + a] as a primitive DAG atom.

    Its classical image is b*delta + a.
    """
    return ScalarK(_qint_nf(b, a), ("qint", b, a))


def brace_atom(k: int) -> ScalarK:
    """The brace symbol {k} = z q^-k + z^-1 q^k as a primitive DAG atom.

    Its classical image is 2.
    """
    return ScalarK(_brace_nf(k), ("brace", k))


def equal(a: ScalarK, b: ScalarK) -> bool:
    """Exact equality of normal forms."""
    return scalar(a).nf == scalar(b).nf


def bar(x: ScalarK) -> ScalarK:
    """The bar involution q -> q^-1, z -> z^-1 (delta and Delta are fixed).

    The normal form is reflected directly: the q and z exponents of the
    numerator and the denominator are negated and the result is shifted
    back to polynomials, with one cancel.  Bracket and brace atoms are
    individually invariant, so the expression DAG, when present, is mapped
    generator-wise and kept for the classical specialization.
    """
    x = scalar(x)
    num, nq, nz = _reflect(x.nf.numer)
    den, dq, dz = _reflect(x.nf.denom)
    # bar(x) = (num q^-nq z^-nz) / (den q^-dq z^-dz)
    sq, sz = dq - nq, dz - nz
    num = num * _QG ** max(sq, 0) * _ZG ** max(sz, 0)
    den = den * _QG ** max(-sq, 0) * _ZG ** max(-sz, 0)
    nf = FIELD.new(num, den)
    if x._expr is None:
        return ScalarK.from_field_element(nf)

    def atom(node):
        if node[0] == "gen" and node[1] in ("q", "z"):
            return ("pow", node, -1)
        return node

    return ScalarK(nf, _map_dag(x._expr, atom))


def _reflect(poly):
    """(p, a, b) with poly(1/q, 1/z) = p * q^-a * z^-b, p a polynomial."""
    if not poly:
        return poly, 0, 0
    a = max(m[0] for m in poly)
    b = max(m[1] for m in poly)
    p = poly.new({(a - m[0], b - m[1]) + m[2:]: c for m, c in poly.items()})
    return p, a, b


def _nf_of_expr(node):
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
    nf = FIELD.new(num, den)
    e = _expr_integer_level(x._expr, n) if x._expr is not None else None
    return ScalarK(nf, e)


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
        c = Fraction(int(coeff.numerator), int(coeff.denominator))
        out = out + CLASSICAL_FIELD.ground_new(
            QQ(c.numerator, c.denominator)
        ) * _cD ** monom[2]
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
        n1 = num.evaluate([(_QG, QQ(1))])
        d1 = den.evaluate([(_QG, QQ(1))])
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
        c = Fraction(int(val.numerator), int(val.denominator))
        return CLASSICAL_FIELD.ground_new(QQ(c.numerator, c.denominator))
    out = CLASSICAL_FIELD.zero
    for monom, coeff in val.terms():
        # remaining gens: (z, Delta, u, v); z was required absent upstream
        if monom[0] or monom[2] or monom[3]:
            raise SpecializationError(
                "value still involves z, u or v after the q -> 1 limit"
            )
        c = Fraction(int(coeff.numerator), int(coeff.denominator))
        out = out + CLASSICAL_FIELD.ground_new(
            QQ(c.numerator, c.denominator)
        ) * _cD ** monom[1]
    return out


def numeric_probe(x: ScalarK, q0, n: int, Delta0) -> Fraction:
    """IntegerLevel(n) then exact rational evaluation."""
    t = NumericProbe(Fraction(q0), n, Fraction(Delta0))
    y = integer_level(x, t.n)
    num, den = y.nf.numer, y.nf.denom
    _require_gens_absent(num, (3, 4), "the spectral generators u, v")
    _require_gens_absent(den, (3, 4), "the spectral generators u, v")
    subs = [
        (_QG, QQ(t.q0.numerator, t.q0.denominator)),
        (_ZG, QQ(0)),  # z is already eliminated by the level specialization
        (_DG, QQ(t.Delta0.numerator, t.Delta0.denominator)),
        (_UG, QQ(0)),
        (_VG, QQ(0)),
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

_VAR_NAMES = ("q", "z", "Delta", "u", "v")


def _canonical_int_pair(nf):
    """Scale numer/denom to coprime integer-coefficient polynomials with a
    positive leading denominator coefficient."""
    from math import gcd

    num, den = nf.numer, nf.denom
    lc = den.LC
    if lc != 1:
        num = num.quo_ground(lc)
        den = den.quo_ground(lc)

    def denoms(p):
        out = 1
        for _, c in p.terms():
            fr = Fraction(int(c.numerator), int(c.denominator))
            out = out * fr.denominator // gcd(out, fr.denominator)
        return out

    L = denoms(num)
    L2 = denoms(den)
    L = L * L2 // gcd(L, L2)
    num = num.mul_ground(QQ(L))
    den = den.mul_ground(QQ(L))

    def intgcd(p, g):
        for _, c in p.terms():
            g = gcd(g, int(Fraction(int(c.numerator), int(c.denominator))))
        return g

    g = intgcd(num, 0)
    g = intgcd(den, g)
    if g > 1:
        num = num.quo_ground(QQ(g))
        den = den.quo_ground(QQ(g))
    return num, den


def _render_poly(poly) -> str:
    terms = sorted(poly.terms(), key=lambda t: t[0], reverse=True)
    if not terms:
        return "0"
    parts = []
    for monom, coeff in terms:
        c = int(Fraction(int(coeff.numerator), int(coeff.denominator)))
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
    num, den = _canonical_int_pair(x.nf)
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
        return sign * int(self.text[start : self.pos])

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
    return val


def _parse_sum(tok: _Tok) -> ScalarK:
    acc = _parse_product(tok)
    while True:
        op = tok.next_op("+-")
        if op is None:
            return acc
        rhs = _parse_product(tok)
        acc = acc + rhs if op == "+" else acc - rhs


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
