"""Extended q-combinatorics: brackets, braces, factorials, identities."""

import pytest
from hypothesis import given, settings, strategies as st

from qspin.errors import ArgumentOutOfRange
from qspin.qcomb import (
    ExtSymbol,
    brace,
    brace_shifted,
    check_addition,
    check_double_shift,
    check_qbinom_recurrence,
    ffact_ext,
    hecke_dim_E,
    hecke_dim_F,
    qbinom,
    qfact,
    qint,
)
from qspin.scalar import ONE, Q, equal, integer_level


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


_symbols = st.builds(
    ExtSymbol, st.integers(-3, 3), st.integers(-5, 5)
)


@given(_symbols, _symbols, _symbols)
@settings(max_examples=60, deadline=None)
def test_addition_identity(A, B, C):
    assert check_addition(A, B, C)


def test_qfact_and_qbinom():
    assert equal(qfact(0), ONE)
    assert equal(qfact(3), qint(0, 1) * qint(0, 2) * qint(0, 3))
    assert equal(qbinom(4, 2), qfact(4) / (qfact(2) * qfact(2)))
    with pytest.raises(ArgumentOutOfRange):
        qfact(-1)


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_qbinom_recurrence(a, b):
    assert check_qbinom_recurrence(a, b)


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
