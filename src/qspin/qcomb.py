"""Extended q-integers, brace symbols, factorials, binomials, and the
identity suite that the recoupling formulas rely on.

An *extended bracket* [b*n + a] treats the level n as a formal symbol:

    [b*n + a] = (z^b q^a - z^-b q^-a) / (q - q^-1),

where z stands for q^n.  The case b = 0 recovers the ordinary q-integer
[a]; (b, a) = (1, 0) recovers delta.  Brace symbols are

    {k}          = z q^-k + z^-1 q^k      ( = [2n - 2k] / [n - k] )
    brace_shifted(k) = q^k + q^-k         (the symbol {n - k})

``qint`` and ``brace`` build each one by the field's own arithmetic, once
per argument value and type, so that qint(True, 0) is refused as not an int
(``errors.check_ints``), not served [n].  ``qint_falling`` and ``brace_prod``
are their products over runs of arguments, of which the factorials,
binomials and closed forms are built; each is cached the same way and
folded left from 1 in argument order, the order in which the product's keys
are later multiplied out.  Every count argument is an int >= 0
(``errors.check_counts``).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import ArgumentOutOfRange, check_counts, check_ints
from .scalar import DELTA, ONE, QDIFF, SPIN_DELTA, U, V, Q, Z, ScalarK, equal


def _bracket(x: ScalarK) -> ScalarK:
    """(x - x^-1) / (q - q^-1), the bracket of the symbol x = z^b q^a."""
    return (x - x.inv()) / QDIFF


@lru_cache(maxsize=None, typed=True)
def qint(b: int, a: int) -> ScalarK:
    """The extended q-integer [b*n + a] = (z^b q^a - z^-b q^-a) / (q - q^-1).

    Its classical image is b*delta + a.
    """
    check_ints(b=b, a=a)
    return _bracket(Z**b * Q**a)


@lru_cache(maxsize=None, typed=True)
def brace(k: int) -> ScalarK:
    """The brace symbol {k} = z q^-k + z^-1 q^k.

    Its classical image is 2.
    """
    check_ints(k=k)
    return Z * Q**-k + Z**-1 * Q**k


def brace_shifted(k: int) -> ScalarK:
    """The shifted brace {n - k} = q^k + q^-k (z replaced by q^n formally)."""
    check_ints(k=k)
    return Q**k + Q**-k


@lru_cache(maxsize=None, typed=True)
def qint_falling(b: int, a: int, m: int) -> ScalarK:
    """The m-term falling product [b*n + a][b*n + a - 1]...[b*n + a - m + 1];
    1 at m = 0."""
    check_ints(b=b, a=a)
    check_counts(m=m)
    return prod((qint(b, a - k) for k in range(m)), start=ONE)


@lru_cache(maxsize=None, typed=True)
def brace_prod(lo: int, hi: int) -> ScalarK:
    """{lo}{lo + 1}...{hi - 1}; 1 when hi <= lo."""
    check_counts(lo=lo, hi=hi)
    return prod(map(brace, range(lo, hi)), start=ONE)


def qfact(a: int) -> ScalarK:
    """[a]! = [a][a-1]...[1]."""
    check_counts(a=a)
    return qint_falling(0, a, a)


def qbinom(a: int, m: int) -> ScalarK:
    """Ordinary Gaussian binomial [a choose m]."""
    check_counts(a=a, m=m)
    if m > a:
        raise ArgumentOutOfRange("qbinom requires 0 <= m <= a")
    return qfact(a) / (qfact(m) * qfact(a - m))


def qbinom_ext(b: int, a: int, m: int) -> ScalarK:
    """Extended binomial [b*n + a choose m] = prod_{k=0}^{m-1} [b*n + a - k] / [m]!."""
    return qint_falling(b, a, m) / qfact(m)


def ffact_ext(a: int) -> ScalarK:
    """Falling-factorial product prod_{k=0}^{a-1} [2n - k]."""
    check_counts(a=a)
    return qint_falling(2, 0, a)


def check_addition(printed: bool = False) -> bool:
    """Verify the addition identity [A+B][C] = [A][B+C] + [B][C-A] for
    every triple of extended symbols A, B, C.

    [b*n + a] is the bracket of z^b q^a, and (b, a) -> z^b q^a carries a
    sum of symbols to a product.  So the identity among the brackets of
    the free generators X_A, X_B, X_C = u, v, Delta, which no bracket
    uses, is one field equality that proves it for every triple.  Since
    [x] is odd in x, the last factor must be [C-A]; the printed [A-C]
    fails.
    """
    xa, xb, xc = U, V, SPIN_DELTA
    last = xa / xc if printed else xc / xa
    lhs = _bracket(xa * xb) * _bracket(xc)
    rhs = _bracket(xa) * _bracket(xb * xc) + _bracket(xb) * _bracket(last)
    return equal(lhs, rhs)


def check_qbinom_recurrence(a: int, b: int) -> bool:
    """Verify [a+b+1 choose a] = q^a [a+b choose a] + q^{-b-1} [a+b choose a-1]."""
    check_counts(a=a, b=b)
    lhs = qbinom(a + b + 1, a)
    rhs = Q**a * qbinom(a + b, a)
    if a >= 1:
        rhs = rhs + Q ** (-b - 1) * qbinom(a + b, a - 1)
    return equal(lhs, rhs)


def check_cac_identities(a: int, printed: bool = False) -> bool:
    """Verify the upper-trace identity [a] + z^-1 [n-a] = z^-1 q^a [n].

    It is printed with an ambiguous z^{+-1}; the z^{+1} reading fails for
    a != 0.
    """
    zs = Z if printed else Z**-1
    return equal(qint(0, a) + zs * qint(1, -a), zs * Q**a * qint(1, 0))


def hecke_dim_F(p: int) -> ScalarK:
    """[n+p-1 choose p], the graded dimension on the symmetric side."""
    return qbinom_ext(1, p - 1, p)


def hecke_dim_E(p: int) -> ScalarK:
    """[n choose p], the graded dimension on the antisymmetric side."""
    return qbinom_ext(1, 0, p)


def check_hecke_dim_recurrences(p: int) -> bool:
    """Verify [p+1] D_F(p+1) = [n+p] D_F(p) and [p+1] D_E(p+1) = [n-p] D_E(p)."""
    check_counts(p=p)
    f_ok = equal(
        qint(0, p + 1) * hecke_dim_F(p + 1), qint(1, p) * hecke_dim_F(p)
    )
    e_ok = equal(
        qint(0, p + 1) * hecke_dim_E(p + 1), qint(1, -p) * hecke_dim_E(p)
    )
    return f_ok and e_ok


def ext_bracket_shift_identity(a: int) -> bool:
    """Verify [n+a] = z[a] + q^-a delta = z^-1[a] + q^a delta."""
    x = qint(1, a)
    return equal(x, Z * qint(0, a) + Q**-a * DELTA) and equal(
        x, Z**-1 * qint(0, a) + Q**a * DELTA
    )


def check_double_shift(a: int, printed: bool = False) -> bool:
    """Verify [2n+a] = z^2 [a] + q^-a (z + z^-1) delta.  The printed form
    has z [a] for z^2 [a] and fails for a != 0."""
    zk = Z if printed else Z**2
    return equal(qint(2, a), zk * qint(0, a) + Q**-a * (Z + Z**-1) * DELTA)
