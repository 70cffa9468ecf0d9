"""Closed-form evaluations of the spinor/vector network families:
loop values, vertex collapses, theta and three-vertex networks,
and the two-parameter Fierz coefficients.

Conventions:

* ``Delta`` (the generator SPIN_DELTA) is the spinor loop value; ``delta``
  is the vector loop's bracket [n].
* ``ffact_ext(a)`` stands for every ratio "[2n]! / [2n-a]!": the product
  [2n][2n-1]...[2n-a+1].  Full extended factorials are never materialized.
"""

from __future__ import annotations

import json
from math import prod

from .errors import (
    ArgumentOutOfRange,
    InadmissibleTriple,
    check_counts,
    expect,
    is_int,
    json_object,
)
from .qcomb import brace, brace_prod, brace_shifted, ffact_ext, qbinom, qfact, qint
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


class AdmissibleTriple:
    """External edge labels (a, b, c) of a trivalent vertex, with the
    internal strand counts (r, s, t) given by a = r+t, b = r+s, c = s+t."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        check_counts(a=a, b=b, c=c)
        if (a + b + c) % 2:
            raise InadmissibleTriple(f"{(a, b, c)}: odd total")
        if a + b < c or b + c < a or c + a < b:
            raise InadmissibleTriple(f"{(a, b, c)}: triangle inequality fails")
        self.a, self.b, self.c = a, b, c

    @property
    def rst(self) -> tuple[int, int, int]:
        s = (self.b + self.c - self.a) // 2
        t = (self.c + self.a - self.b) // 2
        r = (self.a + self.b - self.c) // 2
        return (r, s, t)

    @staticmethod
    def from_rst(r: int, s: int, t: int) -> "AdmissibleTriple":
        check_counts(r=r, s=s, t=t)
        return AdmissibleTriple(r + t, r + s, s + t)


# --------------------------------------------------------------------------
# Loop values.


def dimq_vector(a: int) -> ScalarK:
    """Quantum dimension of the a-th symmetric label: ({1}/{0}) [2n choose a]
    for a >= 1, and 1 for a = 0 (the empty diagram)."""
    check_counts(a=a)
    if a == 0:
        return ONE
    return (brace(1) / brace(0)) * ffact_ext(a) / qfact(a)


def dimq_vector_recurrence_consistent(a: int) -> ScalarK:
    """The variant ({a... } closed form) ({p}/{0}) [2n choose p] at p = a,
    which satisfies the two-term recurrence

        {p} [p+1] dim(p+1) = {p+1} [2n-p] dim(p)

    and matches quantum traces of the antisymmetric idempotents.  The
    verbatim closed form above does not (see check_dimq_recurrence)."""
    check_counts(a=a)
    if a == 0:
        return ONE
    return (brace(a) / brace(0)) * ffact_ext(a) / qfact(a)


def check_dimq_recurrence(p: int, printed: bool = False) -> bool:
    """Test {p}[p+1]·dim(p+1) = {p+1}[2n-p]·dim(p), stated equivalently as

        ([2n-2p-2]/[n-p-1])·[2n-p]·dim(p) = ([2n-2p]/[n-p])·[p+1]·dim(p+1).

    It holds for dimq_vector_recurrence_consistent; the printed closed form
    (dimq_vector) FAILS it for p >= 1.
    """
    check_counts(p=p)
    fn = dimq_vector if printed else dimq_vector_recurrence_consistent
    lhs = (qint(2, -2 * p - 2) / qint(1, -p - 1)) * qint(2, -p) * fn(p)
    rhs = (qint(2, -2 * p) / qint(1, -p)) * qint(0, p + 1) * fn(p + 1)
    return equal(lhs, rhs)


def vertex_collapse(t: AdmissibleTriple) -> ScalarK:
    """Delta * (prod_{k=1}^{r+s+t} 1/{k}) * [a]![b]![c]! / ([r]![s]![t]!)."""
    r, s, tt = t.rst
    return (SPIN_DELTA / brace_prod(1, r + s + tt + 1)
            * qfact(t.a) * qfact(t.b) * qfact(t.c) / (qfact(r) * qfact(s) * qfact(tt)))


def gamma_cross_coeff(p: int) -> ScalarK:
    """The subtraction coefficient [p+1]/{p+1} (= [p+1][n-p-1]/[2n-2p-2])."""
    check_counts(p=p)
    return qint(0, p + 1) / brace(p + 1)


def check_gamma_cross_coeff(p: int) -> bool:
    """gamma_cross_coeff(p) equals its second form [p+1][n-p-1]/[2n-2p-2]."""
    return equal(gamma_cross_coeff(p), qint(0, p + 1) * qint(1, -p - 1) / qint(2, -2 * p - 2))


def leg_hop(r: int) -> ScalarK:
    """({r}/{r+1}) ([r+1]/[r+2])."""
    check_counts(r=r)
    return (brace(r) / brace(r + 1)) * (qint(0, r + 1) / qint(0, r + 2))


def leg_hop_iter(a: int, r: int) -> ScalarK:
    """({a}/{a+r+1}) ([a+1]/[a+r+2]); telescoped iterate of leg_hop."""
    check_counts(a=a, r=r)
    return (brace(a) / brace(a + r + 1)) * (qint(0, a + 1) / qint(0, a + r + 2))


def check_leg_hop_iter(a: int, r: int) -> bool:
    """leg_hop_iter(a, r) is the product of leg_hop(a + j), j = 0, ..., r."""
    return equal(leg_hop_iter(a, r), prod((leg_hop(a + j) for j in range(r + 1)), start=ONE))


# --------------------------------------------------------------------------
# Theta and three-vertex networks.


def theta_spinor(a: int) -> ScalarK:
    """Delta * (prod_{k=1}^{a} 1/{k}) * ({1}/{0}) * [2n][2n-1]...[2n-a+1].

    Note the verbatim formula gives Delta*{1}/{0} at a = 0, not Delta; the
    intended domain is a >= 1 and the raw value is returned unchanged.
    """
    check_counts(a=a)
    return SPIN_DELTA / brace_prod(1, a + 1) * (brace(1) / brace(0)) * ffact_ext(a)


def check_theta_spinor_empty(printed: bool = False) -> bool:
    """The spinor theta on no strands is the bare spinor loop Delta, the
    empty spinor 3j.  The verbatim formula, theta_spinor(0), gives
    Delta {1}/{0}."""
    value = theta_spinor(0) if printed else SPIN_DELTA
    return equal(value, threej_spinor(0, 0, 0))


def x_coeff(r: int, s: int, t: int) -> ScalarK:
    """X(r,s,t): the brace products {0}...{m-1} over m = r, s, t divided by
    those over the pairwise sums, which cancel to

        1 / ({r}...{r+s-1} {s}...{s+t-1} {t}...{t+r-1}).
    """
    check_counts(r=r, s=s, t=t)
    return ONE / (brace_prod(r, r + s) * brace_prod(s, s + t) * brace_prod(t, t + r))


def threej_spinor(r: int, s: int, t: int) -> ScalarK:
    """Delta * X(r,s,t) * [2n][2n-1]...[2n-(r+s+t)+1]."""
    check_counts(r=r, s=s, t=t)
    return SPIN_DELTA * x_coeff(r, s, t) * ffact_ext(r + s + t)


def theta_vector(r: int, s: int, t: int) -> ScalarK:
    """X(r,s,t) * (prod_{k=1}^{r+s+t} {k}) * [r]![s]![t]! /
    ([r+s]![r+t]![s+t]!) * [2n]...[2n-(r+s+t)+1]."""
    check_counts(r=r, s=s, t=t)
    return (x_coeff(r, s, t) * brace_prod(1, r + s + t + 1)
            * qfact(r) * qfact(s) * qfact(t) / (qfact(r + s) * qfact(r + t) * qfact(s + t))
            * ffact_ext(r + s + t))


def threej_double(r: int, s: int, t: int) -> ScalarK:
    """Delta^2 * (prod_{k=0}^{r+s+t-1} 1/{k}) * X(r,s,t) *
    [a]![b]![c]!/([r]![s]![t]!) * [2n]...[2n-(r+s+t)+1],
    with (a,b,c) = (r+t, r+s, s+t)."""
    check_counts(r=r, s=s, t=t)
    a, b, c = r + t, r + s, s + t
    return (SPIN_DELTA**2 / brace_prod(0, r + s + t) * x_coeff(r, s, t)
            * qfact(a) * qfact(b) * qfact(c) / (qfact(r) * qfact(s) * qfact(t))
            * ffact_ext(r + s + t))


def check_threej_double(r: int, s: int, t: int) -> bool:
    """Verify double 3j = spinor 3j * vertex_collapse * {m}/{0}, m = r+s+t."""
    factor = vertex_collapse(AdmissibleTriple.from_rst(r, s, t)) * brace(r + s + t)
    return equal(threej_double(r, s, t), threej_spinor(r, s, t) * factor / brace(0))


def check_theta_vector(r: int, s: int, t: int) -> bool:
    """Verify theta_vector = (threej_spinor / Delta) * prod_{k=1}^{r+s+t} {k}
    * [r]![s]![t]! / ([r+s]![r+t]![s+t]!)."""
    rhs = (threej_spinor(r, s, t) / SPIN_DELTA * brace_prod(1, r + s + t + 1)
           * qfact(r) * qfact(s) * qfact(t) / (qfact(r + s) * qfact(r + t) * qfact(s + t)))
    return equal(theta_vector(r, s, t), rhs)


# --------------------------------------------------------------------------
# Fierz coefficients.


def completeness_C(a: int, b: int, m: int) -> ScalarK:
    """(prod_{k=a+b-2m+1}^{a+b-m} 1/{k}) [a choose m][b choose m][m]!."""
    check_counts(a=a, b=b, m=m)
    if m > min(a, b):
        raise ArgumentOutOfRange("completeness_C requires m <= min(a, b)")
    return (qbinom(a, m) * qbinom(b, m) * qfact(m)
            / brace_prod(a + b - 2 * m + 1, a + b - m + 1))


def fierz(a: int, b: int) -> ScalarK:
    """The Fierz coefficient F(a, b) from the completeness sum:

        sum_{m=0}^{min(a,b)} C(a,b,m) (-1)^{ab-m^2} z^{-2m}
                             q^{ab-2(a-m)(b-m)} X(a-m,b-m,m)
                             [2n][2n-1]...[2n-(a+b-m)+1].
    """
    check_counts(a=a, b=b)
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
    check_counts(a=a)
    out = ONE
    for k in range(a):
        out = out / brace_shifted(k)
    return out


def check_fierz_a0(a: int, printed: bool = False) -> bool:
    """Verify F(a,0) = prod_{k=0}^{a-1} [2n-k]/{k}, the one term of the
    completeness sum at b = 0.  The printed closed form (fierz_a0) fails
    for a >= 1."""
    closed = fierz_a0(a) if printed else ffact_ext(a) / brace_prod(0, a)
    return equal(fierz(a, 0), closed)


def fierz_a1(a: int) -> ScalarK:
    """(-1)^a (prod_{k=0}^{a} 1/{k}) [2n-2a] [2n][2n-1]...[2n-a+1]."""
    if not is_int(a) or a < 1:
        raise ArgumentOutOfRange("fierz_a1 requires a >= 1")
    return scalar(-1 if a % 2 else 1) / brace_prod(0, a + 1) * qint(2, -2 * a) * ffact_ext(a)


def check_fierz_a1(a: int) -> bool:
    """The closed form fierz_a1(a) equals the completeness sum F(a, 1)."""
    return equal(fierz(a, 1), fierz_a1(a))


def fierz_recurrence_check(a: int, b: int, printed: bool = False) -> bool:
    """Verify F(a+2,b) = (-1)^b [n-b] F(a+1,b)
    - ([a+1][2n-a]/({a+1}{a})) F(a,b).

    The first coefficient (-1)^b [n-b] was solved for from the
    completeness-sum values.  The printed coefficient [2n-b]/{b} agrees
    with it exactly at b = 0, so the printed recurrence fails for b >= 1.
    """
    check_counts(a=a, b=b)
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
    check_counts(p=p)
    sign = -1 if (p + 1) % 2 else 1
    return Z / (Z**2 * Q**-1 - scalar(sign) * Q ** (p + 1))


def check_exp_coeff_half_form(p: int) -> bool:
    """For even p, the half-power form q^{-p/2}/(z q^{-p/2-1} + z^-1 q^{p/2+1})
    is field-expressible and must agree with exp_coeff(p)."""
    check_counts(p=p)
    if p % 2:
        raise ArgumentOutOfRange("the half-power form needs p even")
    h = p // 2
    alt = Q**-h / (Z * Q ** (-h - 1) + Z**-1 * Q ** (h + 1))
    return equal(exp_coeff(p), alt)


# --------------------------------------------------------------------------
# Fierz table.

TABLE_FORMAT_VERSION = 1
_TABLE = "Fierz table"


class FierzTable:
    """Symmetric table of Fierz coefficients F(a, b), 0 <= a, b <= max.

    ``entries`` maps (a, b) to F(a, b), and callers read it directly: an
    accessor would only rename the lookup, and nothing in the program
    reads single entries."""

    __slots__ = ("max_a", "max_b", "entries")

    def __init__(self, max_a: int, max_b: int, entries: dict | None = None):
        self.max_a = max_a
        self.max_b = max_b
        self.entries = {} if entries is None else entries

    @staticmethod
    def generate(max_a: int, max_b: int) -> "FierzTable":
        check_counts(max_a=max_a, max_b=max_b)
        grid = [(a, b) for a in range(max_a + 1) for b in range(max_b + 1)]
        keys = sorted({(min(a, b), max(a, b)) for a, b in grid})
        vals = {ab: fierz(*ab) for ab in keys}
        table = FierzTable(max_a, max_b)
        for a, b in grid:
            table.entries[(a, b)] = vals[(min(a, b), max(a, b))]
        return table

    def to_json(self) -> str:
        # F(a, b) and F(b, a) of a generated table are one value: render it once
        texts: dict = {}
        items = []
        for (a, b), v in sorted(self.entries.items()):
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = to_text(v)
            items.append({"a": a, "b": b, "value": text})
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
        """The table of a ``to_json`` document; a malformed one raises
        ParseError, and so does one that misses an entry of the grid or
        holds F(a, b) and F(b, a) unequal."""
        doc = json_object(text, _TABLE, ("max_a", "max_b", "entries"))
        version = doc.get("format_version", 1)
        expect(type(version) is int and version == TABLE_FORMAT_VERSION, _TABLE,
               f"unsupported format_version {version!r}")
        max_a, max_b = doc["max_a"], doc["max_b"]
        expect(is_int(max_a) and is_int(max_b) and min(max_a, max_b) >= 0, _TABLE,
               "'max_a' and 'max_b' must be integers >= 0")
        expect(isinstance(doc["entries"], list), _TABLE, "'entries' must be a list")
        table = FierzTable(max_a, max_b)
        for item in doc["entries"]:
            expect(isinstance(item, dict), _TABLE, f"an entry must be an object, not {item!r}")
            a, b, value = item.get("a"), item.get("b"), item.get("value")
            expect(is_int(a) and is_int(b), _TABLE,
                   f"entry ({a!r}, {b!r}) needs integers a and b")
            expect(0 <= a <= max_a and 0 <= b <= max_b, _TABLE,
                   f"entry ({a}, {b}) lies outside the table")
            expect((a, b) not in table.entries, _TABLE, f"entry ({a}, {b}) is given twice")
            expect(isinstance(value, str), _TABLE,
                   f"the value of entry ({a}, {b}) must be a string")
            table.entries[(a, b)] = parse_scalar(value)
        entries = table.entries
        # the entries lie in the grid, so this scan ends within len + 1 cells
        missing = next(((a, b) for a in range(max_a + 1) for b in range(max_b + 1)
                        if (a, b) not in entries), None)
        expect(missing is None, _TABLE, f"entry {missing} is missing")
        for (a, b), value in entries.items():
            if a < b and (b, a) in entries:
                expect(equal(value, entries[b, a]), _TABLE,
                       f"entries ({a}, {b}) and ({b}, {a}) differ")
        return table
