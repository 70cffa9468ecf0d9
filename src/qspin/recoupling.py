"""Closed-form evaluations of the spinor/vector network families:
loop and curl values, tadpole chains, vertex collapses, theta and
three-vertex networks, and the two-parameter Fierz coefficients.

Conventions:

* ``Delta`` (the generator SPIN_DELTA) is the spinor loop value; ``delta``
  is the vector loop's bracket [n].
* ``ffact_ext(a)`` stands for every ratio "[2n]! / [2n-a]!": the product
  [2n][2n-1]...[2n-a+1].  Full extended factorials are never materialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from math import prod

from .errors import ArgumentOutOfRange, InadmissibleTriple
from .qcomb import brace, brace_shifted, ffact_ext, qbinom, qfact, qint
from .scalar import (
    ONE,
    Q,
    SPIN_DELTA,
    Z,
    ScalarK,
    bar,
    equal,
    parse_scalar,
    scalar,
    to_text,
)


def _check_nonneg(**kwargs):
    for name, val in kwargs.items():
        if not isinstance(val, int) or val < 0:
            raise ArgumentOutOfRange(f"{name} must be a nonnegative integer")


@dataclass(frozen=True)
class AdmissibleTriple:
    """External edge labels (a, b, c) of a trivalent vertex, with the
    internal strand counts (r, s, t) given by a = r+t, b = r+s, c = s+t."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        _check_nonneg(a=self.a, b=self.b, c=self.c)
        if (self.a + self.b + self.c) % 2:
            raise InadmissibleTriple(f"{(self.a, self.b, self.c)}: odd total")
        if (
            self.a + self.b < self.c
            or self.b + self.c < self.a
            or self.c + self.a < self.b
        ):
            raise InadmissibleTriple(
                f"{(self.a, self.b, self.c)}: triangle inequality fails"
            )

    @property
    def rst(self) -> tuple[int, int, int]:
        s = (self.b + self.c - self.a) // 2
        t = (self.c + self.a - self.b) // 2
        r = (self.a + self.b - self.c) // 2
        return (r, s, t)

    @staticmethod
    def from_rst(r: int, s: int, t: int) -> "AdmissibleTriple":
        _check_nonneg(r=r, s=s, t=t)
        return AdmissibleTriple(r + t, r + s, s + t)


# --------------------------------------------------------------------------
# Loop, curl and twist values.


def dimq_vector(a: int) -> ScalarK:
    """Quantum dimension of the a-th symmetric label: ({1}/{0}) [2n choose a]
    for a >= 1, and 1 for a = 0 (the empty diagram)."""
    _check_nonneg(a=a)
    if a == 0:
        return ONE
    return dimq_vector_raw(a)


def dimq_vector_raw(a: int) -> ScalarK:
    """The closed form ({1}/{0}) [2n choose a] applied verbatim, including
    at a = 0 where it gives {1}/{0} rather than 1."""
    _check_nonneg(a=a)
    num = ONE
    for k in range(a):
        num = num * qint(2, -k)
    return (brace(1) / brace(0)) * num / qfact(a)


def dimq_vector_recurrence_consistent(a: int) -> ScalarK:
    """The variant ({a... } closed form) ({p}/{0}) [2n choose p] at p = a,
    which satisfies the two-term recurrence

        {p} [p+1] dim(p+1) = {p+1} [2n-p] dim(p)

    and matches quantum traces of the antisymmetric idempotents.  The
    verbatim closed form above does not (see check_dimq_recurrence)."""
    _check_nonneg(a=a)
    if a == 0:
        return ONE
    num = ONE
    for k in range(a):
        num = num * qint(2, -k)
    return (brace(a) / brace(0)) * num / qfact(a)


def check_dimq_recurrence(p: int, printed: bool = False) -> bool:
    """Test {p}[p+1]·dim(p+1) = {p+1}[2n-p]·dim(p), stated equivalently as

        ([2n-2p-2]/[n-p-1])·[2n-p]·dim(p) = ([2n-2p]/[n-p])·[p+1]·dim(p+1).

    It holds for dimq_vector_recurrence_consistent; the printed closed form
    (dimq_vector) FAILS it for p >= 1.
    """
    _check_nonneg(p=p)
    fn = dimq_vector if printed else dimq_vector_recurrence_consistent
    lhs = (qint(2, -2 * p - 2) / qint(1, -p - 1)) * qint(2, -p) * fn(p)
    rhs = (qint(2, -2 * p) / qint(1, -p)) * qint(0, p + 1) * fn(p + 1)
    return equal(lhs, rhs)


def curl(a: int) -> ScalarK:
    """Curl (positive kink) value on an a-labelled strand: z^{2a} q^{-a^2}."""
    _check_nonneg(a=a)
    return Z ** (2 * a) * Q ** (-a * a)


def twist(r: int, s: int, t: int) -> ScalarK:
    """Half-twist value at a vertex with internal counts (r, s, t):
    (-1)^{st+rs+rt} z^{-2s} q^{(s+t)(s+r)-2rt}."""
    _check_nonneg(r=r, s=s, t=t)
    sign = -1 if (s * t + r * s + r * t) % 2 else 1
    return scalar(sign) * Z ** (-2 * s) * Q ** ((s + t) * (s + r) - 2 * r * t)


def tadpole_chain(a: int) -> ScalarK:
    """Delta * prod_{k=1}^{a} [k]/{k}."""
    _check_nonneg(a=a)
    out = SPIN_DELTA
    for k in range(1, a + 1):
        out = out * qint(0, k) / brace(k)
    return out


def projector_loop(a: int) -> ScalarK:
    """(prod_{k=1}^{a} 1/{k}) [a]! dimq_vector(a)."""
    _check_nonneg(a=a)
    out = qfact(a) * dimq_vector(a)
    for k in range(1, a + 1):
        out = out / brace(k)
    return out


def vertex_collapse(t: AdmissibleTriple) -> ScalarK:
    """Delta * (prod_{k=1}^{r+s+t} 1/{k}) * [a]![b]![c]! / ([r]![s]![t]!)."""
    r, s, tt = t.rst
    out = SPIN_DELTA * qfact(t.a) * qfact(t.b) * qfact(t.c)
    out = out / (qfact(r) * qfact(s) * qfact(tt))
    for k in range(1, r + s + tt + 1):
        out = out / brace(k)
    return out


def gamma_cross_coeff(p: int) -> ScalarK:
    """The subtraction coefficient [p+1]/{p+1} (= [p+1][n-p-1]/[2n-2p-2])."""
    _check_nonneg(p=p)
    return qint(0, p + 1) / brace(p + 1)


def leg_hop(r: int) -> ScalarK:
    """({r}/{r+1}) ([r+1]/[r+2])."""
    _check_nonneg(r=r)
    return (brace(r) / brace(r + 1)) * (qint(0, r + 1) / qint(0, r + 2))


def leg_hop_iter(a: int, r: int) -> ScalarK:
    """({a}/{a+r+1}) ([a+1]/[a+r+2]); telescoped iterate of leg_hop."""
    _check_nonneg(a=a, r=r)
    return (brace(a) / brace(a + r + 1)) * (qint(0, a + 1) / qint(0, a + r + 2))


def bubble(a: int, b: int, m: int) -> ScalarK:
    """prod_{k=0}^{m-1} ({k} / ({a+k}{b+k})) [2n-a-b-k]."""
    _check_nonneg(a=a, b=b, m=m)
    out = ONE
    for k in range(m):
        out = out * brace(k) * qint(2, -a - b - k) / (brace(a + k) * brace(b + k))
    return out


def check_bubble_identity(a: int, b: int, m: int) -> bool:
    """Verify [2n-b-m]{a+m} - [a]{b} = [2n-a-b-m]{m}."""
    lhs = qint(2, -b - m) * brace(a + m) - qint(0, a) * brace(b)
    rhs = qint(2, -a - b - m) * brace(m)
    return equal(lhs, rhs)


# --------------------------------------------------------------------------
# Theta and three-vertex networks.


def theta_spinor(a: int) -> ScalarK:
    """Delta * (prod_{k=1}^{a} 1/{k}) * ({1}/{0}) * [2n][2n-1]...[2n-a+1].

    Note the verbatim formula gives Delta*{1}/{0} at a = 0, not Delta; the
    intended domain is a >= 1 and the raw value is returned unchanged.
    """
    _check_nonneg(a=a)
    out = SPIN_DELTA * (brace(1) / brace(0)) * ffact_ext(a)
    for k in range(1, a + 1):
        out = out / brace(k)
    return out


def check_theta_spinor_empty(printed: bool = False) -> bool:
    """The spinor theta on no strands is the bare spinor loop Delta, the
    empty spinor 3j.  The verbatim formula, theta_spinor(0), gives
    Delta {1}/{0}."""
    value = theta_spinor(0) if printed else SPIN_DELTA
    return equal(value, threej_spinor(0, 0, 0))


def x_coeff(r: int, s: int, t: int) -> ScalarK:
    """X(r,s,t): brace products over r, s, t divided by those over the
    pairwise sums."""
    _check_nonneg(r=r, s=s, t=t)
    out = ONE
    for m in (r, s, t):
        for k in range(m):
            out = out * brace(k)
    for m in (r + s, r + t, s + t):
        for k in range(m):
            out = out / brace(k)
    return out


def threej_spinor(r: int, s: int, t: int) -> ScalarK:
    """Delta * X(r,s,t) * [2n][2n-1]...[2n-(r+s+t)+1]."""
    _check_nonneg(r=r, s=s, t=t)
    return SPIN_DELTA * x_coeff(r, s, t) * ffact_ext(r + s + t)


def theta_vector(r: int, s: int, t: int) -> ScalarK:
    """X(r,s,t) * (prod_{k=1}^{r+s+t} {k}) * [r]![s]![t]! /
    ([r+s]![r+t]![s+t]!) * [2n]...[2n-(r+s+t)+1]."""
    _check_nonneg(r=r, s=s, t=t)
    out = x_coeff(r, s, t) * ffact_ext(r + s + t)
    for k in range(1, r + s + t + 1):
        out = out * brace(k)
    out = out * qfact(r) * qfact(s) * qfact(t)
    out = out / (qfact(r + s) * qfact(r + t) * qfact(s + t))
    return out


def threej_double(r: int, s: int, t: int) -> ScalarK:
    """Delta^2 * (prod_{k=0}^{r+s+t-1} 1/{k}) * X(r,s,t) *
    [a]![b]![c]!/([r]![s]![t]!) * [2n]...[2n-(r+s+t)+1],
    with (a,b,c) = (r+t, r+s, s+t)."""
    _check_nonneg(r=r, s=s, t=t)
    a, b, c = r + t, r + s, s + t
    out = SPIN_DELTA**2 * x_coeff(r, s, t) * ffact_ext(r + s + t)
    out = out * qfact(a) * qfact(b) * qfact(c)
    out = out / (qfact(r) * qfact(s) * qfact(t))
    for k in range(r + s + t):
        out = out / brace(k)
    return out


def check_threej_double(r: int, s: int, t: int) -> bool:
    """Verify double 3j = spinor 3j * vertex_collapse * {m}/{0}, m = r+s+t."""
    factor = vertex_collapse(AdmissibleTriple.from_rst(r, s, t)) * brace(r + s + t)
    return equal(threej_double(r, s, t), threej_spinor(r, s, t) * factor / brace(0))


def check_theta_vector(r: int, s: int, t: int) -> bool:
    """Verify theta_vector = (threej_spinor / Delta) * prod_{k=1}^{r+s+t} {k}
    * [r]![s]![t]! / ([r+s]![r+t]![s+t]!)."""
    factor = qfact(r) * qfact(s) * qfact(t)
    factor = factor / (qfact(r + s) * qfact(r + t) * qfact(s + t))
    for k in range(1, r + s + t + 1):
        factor = factor * brace(k)
    return equal(theta_vector(r, s, t), threej_spinor(r, s, t) / SPIN_DELTA * factor)


# --------------------------------------------------------------------------
# Fierz coefficients.


def completeness_C(a: int, b: int, m: int) -> ScalarK:
    """(prod_{k=a+b-2m+1}^{a+b-m} 1/{k}) [a choose m][b choose m][m]!."""
    _check_nonneg(a=a, b=b, m=m)
    if m > min(a, b):
        raise ArgumentOutOfRange("completeness_C requires m <= min(a, b)")
    out = qbinom(a, m) * qbinom(b, m) * qfact(m)
    for k in range(a + b - 2 * m + 1, a + b - m + 1):
        out = out / brace(k)
    return out


def fierz(a: int, b: int) -> ScalarK:
    """The Fierz coefficient F(a, b) from the completeness sum:

        sum_{m=0}^{min(a,b)} C(a,b,m) (-1)^{ab-m^2} z^{-2m}
                             q^{ab-2(a-m)(b-m)} X(a-m,b-m,m)
                             [2n][2n-1]...[2n-(a+b-m)+1].
    """
    _check_nonneg(a=a, b=b)
    out = scalar(0)
    for m in range(min(a, b) + 1):
        sign = -1 if (a * b - m * m) % 2 else 1
        term = completeness_C(a, b, m) * scalar(sign)
        term = term * Z ** (-2 * m) * Q ** (a * b - 2 * (a - m) * (b - m))
        term = term * x_coeff(a - m, b - m, m) * ffact_ext(a + b - m)
        out = out + term
    return out


def fierz_a0(a: int) -> ScalarK:
    """The quarantined closed form prod_{k=0}^{a-1} 1/(q^k + q^-k).

    This disagrees with fierz(a, 0) already at a = 1: it gives 1/2, where
    the completeness sum gives F(1,0) = [2n]/{0} = delta.  It is kept only
    so the discrepancy stays pinned (see check_fierz_a0).
    """
    _check_nonneg(a=a)
    out = ONE
    for k in range(a):
        out = out / brace_shifted(k)
    return out


def check_fierz_a0(a: int, printed: bool = False) -> bool:
    """Verify F(a,0) = prod_{k=0}^{a-1} [2n-k]/{k}, the one term of the
    completeness sum at b = 0.  The printed closed form (fierz_a0) fails
    for a >= 1."""
    closed = fierz_a0(a) if printed else ffact_ext(a) / prod(map(brace, range(a)))
    return equal(fierz(a, 0), closed)


def fierz_a1(a: int) -> ScalarK:
    """(-1)^a (prod_{k=0}^{a} 1/{k}) [2n-2a] [2n][2n-1]...[2n-a+1]."""
    if not isinstance(a, int) or a < 1:
        raise ArgumentOutOfRange("fierz_a1 requires a >= 1")
    out = scalar(-1 if a % 2 else 1) * qint(2, -2 * a) * ffact_ext(a)
    for k in range(a + 1):
        out = out / brace(k)
    return out


def fierz_recurrence_check(a: int, b: int, printed: bool = False) -> bool:
    """Verify F(a+2,b) = (-1)^b [n-b] F(a+1,b)
    - ([a+1][2n-a]/({a+1}{a})) F(a,b).

    The first coefficient (-1)^b [n-b] was solved for from the
    completeness-sum values.  The printed coefficient [2n-b]/{b} agrees
    with it exactly at b = 0, so the printed recurrence fails for b >= 1.
    """
    _check_nonneg(a=a, b=b)
    if printed:
        coeff = qint(2, -b) / brace(b)
    else:
        coeff = scalar(-1 if b % 2 else 1) * qint(1, -b)
    rhs = coeff * fierz(a + 1, b)
    rhs = rhs - (qint(0, a + 1) * qint(2, -a) / (brace(a + 1) * brace(a))) * fierz(
        a, b
    )
    return equal(fierz(a + 2, b), rhs)


def check_fierz_symmetry(a: int, b: int) -> bool:
    return equal(fierz(a, b), fierz(b, a))


def check_fierz_bar_invariance(a: int, b: int) -> bool:
    f = fierz(a, b)
    return equal(f, bar(f))


# --------------------------------------------------------------------------
# Expansion coefficient of the exponential-type rewriting.


def exp_coeff(p: int) -> ScalarK:
    """The strand-expansion coefficient z / (z^2 q^-1 - (-q)^{p+1}),
    taken as the definition for every p (it needs no half-integer powers)."""
    _check_nonneg(p=p)
    sign = -1 if (p + 1) % 2 else 1
    return Z / (Z**2 * Q**-1 - scalar(sign) * Q ** (p + 1))


def check_exp_coeff_half_form(p: int) -> bool:
    """For even p, the half-power form q^{-p/2}/(z q^{-p/2-1} + z^-1 q^{p/2+1})
    is field-expressible and must agree with exp_coeff(p)."""
    if p % 2:
        raise ArgumentOutOfRange("the half-power form needs p even")
    h = p // 2
    alt = Q**-h / (Z * Q ** (-h - 1) + Z**-1 * Q ** (h + 1))
    return equal(exp_coeff(p), alt)


# --------------------------------------------------------------------------
# Fierz table.

TABLE_FORMAT_VERSION = 1


@dataclass
class FierzTable:
    """Symmetric table of Fierz coefficients F(a, b), 0 <= a, b <= max."""

    max_a: int
    max_b: int
    entries: dict = dc_field(default_factory=dict)

    @staticmethod
    def generate(max_a: int, max_b: int) -> "FierzTable":
        _check_nonneg(max_a=max_a, max_b=max_b)
        grid = [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]
        keys = sorted({(min(a, b), max(a, b)) for a, b in grid})
        vals = {ab: fierz(*ab) for ab in keys}
        table = FierzTable(max_a, max_b)
        for a, b in grid:
            table.entries[(a, b)] = vals[(min(a, b), max(a, b))]
        return table

    def entry(self, a: int, b: int) -> ScalarK:
        return self.entries[(a, b)]

    def to_json(self) -> str:
        items = [
            {"a": a, "b": b, "value": to_text(v)}
            for (a, b), v in sorted(self.entries.items())
        ]
        return json.dumps(
            {
                "format_version": TABLE_FORMAT_VERSION,
                "max_a": self.max_a,
                "max_b": self.max_b,
                "entries": items,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "FierzTable":
        doc = json.loads(text)
        table = FierzTable(doc["max_a"], doc["max_b"])
        for item in doc["entries"]:
            table.entries[(item["a"], item["b"])] = parse_scalar(item["value"])
        return table
