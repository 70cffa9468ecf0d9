"""Extended q-combinatorics: brackets, braces, factorials, identities."""

import pytest

from qspin.errors import ArgumentOutOfRange
from qspin.qcomb import (
    _bracket,
    brace,
    brace_prod,
    brace_shifted,
    check_addition,
    check_double_shift,
    ffact_ext,
    hecke_dim_E,
    hecke_dim_F,
    qbinom,
    qbinom_ext,
    qfact,
    qint,
    qint_falling,
)
from qspin.scalar import ONE, QDIFF, Q, Z, equal, integer_level


def test_qint_oddness():
    for b in range(-2, 3):
        for a in range(-4, 5):
            assert equal(qint(-b, -a), -qint(b, a))


def test_brace_vs_bracket_ratio():
    # {k} = [2n - 2k]/[n - k] as a z-identity
    for k in range(-2, 3):
        lhs = brace(k) * qint(1, -k)
        rhs = qint(2, -2 * k)
        assert equal(lhs, rhs)


def test_brace_shifted_specializes():
    # {k} at level n equals q^(n-k) + q^(k-n)
    for n in (1, 2, 3):
        for k in range(0, 4):
            assert equal(integer_level(brace(k), n), integer_level(
                Q ** (n - k) + Q ** (k - n), n))
    assert equal(brace_shifted(0), 2 * ONE)


def test_qint_is_the_bracket_of_its_monomial():
    # the addition rows decide the identity in _bracket; this is what
    # carries their proof to every qint.  The two-monomial quotient is the
    # form qint was written in before _bracket: the same fields mean the
    # same keys and printed texts
    for b in range(-3, 4):
        for a in range(-5, 6):
            x, y = qint(b, a), _bracket(Z**b * Q**a)
            w = (Z**b * Q**a - Z**-b * Q**-a) / QDIFF
            assert (x._c, x._mono, x._fac) == (y._c, y._mono, y._fac) == (w._c, w._mono, w._fac)
    assert check_addition() and not check_addition(printed=True)


def test_qfact_and_qbinom():
    assert equal(qfact(0), ONE)
    assert equal(qfact(3), qint(0, 1) * qint(0, 2) * qint(0, 3))
    assert equal(qbinom(4, 2), qfact(4) / (qfact(2) * qfact(2)))
    with pytest.raises(ArgumentOutOfRange):
        qfact(-1)


@pytest.mark.parametrize("b", [0, 1, 2])
def test_products_equal_their_explicit_factors(b):
    for a in range(-3, 4):
        out = ONE
        assert equal(qint_falling(b, a, 0), ONE)
        for m in range(1, 5):
            out = out * qint(b, a - m + 1)
            assert equal(qint_falling(b, a, m), out)
    for lo in range(4):
        out = ONE
        assert equal(brace_prod(lo, lo), ONE) and equal(brace_prod(lo + 2, lo), ONE)
        for hi in range(lo + 1, lo + 5):
            out = out * brace(hi - 1)
            assert equal(brace_prod(lo, hi), out)


# a count is an int >= 0: a bool, a float or a negative int is refused,
# also once the equal int is cached
@pytest.mark.parametrize("bad", [True, 1.0, 2.5, -1], ids=repr)
@pytest.mark.parametrize("call", [
    qfact, ffact_ext, lambda m: qint_falling(1, 2, m), lambda m: qbinom_ext(2, 0, m),
    lambda a: qbinom(a, 0), lambda m: qbinom(3, m), lambda lo: brace_prod(lo, 3),
    lambda hi: brace_prod(0, hi), hecke_dim_F, hecke_dim_E,
], ids=["qfact", "ffact_ext", "qint_falling", "qbinom_ext", "qbinom-a", "qbinom-m",
        "brace_prod-lo", "brace_prod-hi", "hecke_dim_F", "hecke_dim_E"])
def test_counts_refuse_non_counts(call, bad):
    if bad == int(bad) >= 0:
        call(int(bad))
    with pytest.raises(ArgumentOutOfRange):
        call(bad)


def test_products_are_built_once():
    assert qint_falling(1, 2, 3) is qint_falling(1, 2, 3)
    assert brace_prod(1, 4) is brace_prod(1, 4)


# a bracket or brace argument is an int of either sign: a bool or a float
# is refused, also once the int of equal value is cached, and also by the
# products of brackets at m = 0, where no bracket is built
@pytest.mark.parametrize("bad", [True, False, 1.0, -2.0, 2.5], ids=repr)
@pytest.mark.parametrize("call", [
    lambda b: qint(b, 0), lambda a: qint(0, a), brace, brace_shifted,
    lambda b: qint_falling(b, 0, 0), lambda a: qint_falling(0, a, 0),
    lambda b: qbinom_ext(b, 0, 0), lambda a: qbinom_ext(0, a, 0),
], ids=["qint-b", "qint-a", "brace", "brace_shifted", "qint_falling-b", "qint_falling-a",
        "qbinom_ext-b", "qbinom_ext-a"])
def test_bracket_arguments_refuse_non_ints(call, bad):
    call(int(bad))
    call(-int(bad))
    with pytest.raises(ArgumentOutOfRange, match="must be an integer$"):
        call(bad)


def test_falling_factorial_extended():
    assert equal(ffact_ext(0), ONE)
    assert equal(ffact_ext(2), qint(2, 0) * qint(2, -1))


def test_hecke_dims():
    # the recurrences are the registry's hecke-dims rows; these are the seeds
    assert equal(hecke_dim_F(0), ONE)
    assert equal(hecke_dim_E(0), ONE)


def test_printed_double_shift_is_wrong_but_corrected_matches():
    # the printed [2n+a] = z[a] + q^{-a}(z + z^{-1})delta fails for a != 0
    # while z^2[a] + q^{-a}(z + z^{-1})delta holds (the registry's
    # double-shift rows); at a = 0 both agree
    assert check_double_shift(0) and check_double_shift(0, printed=True)
