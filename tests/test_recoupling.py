"""Closed recoupling values: triples, dims, theta/3j, Fierz, tables."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qspin.errors import ArgumentOutOfRange, InadmissibleTriple
from qspin.qcomb import brace, ffact_ext, qfact, qint
from qspin.recoupling import (
    AdmissibleTriple,
    FierzTable,
    check_exp_coeff_half_form,
    completeness_C,
    curl,
    dimq_vector,
    exp_coeff,
    fierz,
    fierz_a0,
    fierz_a1,
    fierz_recurrence_check,
    gamma_cross_coeff,
    leg_hop,
    leg_hop_iter,
    projector_loop,
    tadpole_chain,
    theta_spinor,
    twist,
)
from qspin.scalar import DELTA, ONE, SPIN_DELTA, bar, equal


def test_admissible_triple_validation():
    t = AdmissibleTriple(3, 2, 1)
    assert t.rst == (0, 2, 1) or sum(t.rst) * 2 == (3 + 2 + 1)
    with pytest.raises(InadmissibleTriple):
        AdmissibleTriple(1, 1, 1)  # odd sum
    with pytest.raises(InadmissibleTriple):
        AdmissibleTriple(4, 1, 1)  # triangle fails
    r, s, t2 = AdmissibleTriple(2, 2, 2).rst
    assert (lambda u: (u.a, u.b, u.c))(AdmissibleTriple.from_rst(r, s, t2)) == (2, 2, 2)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_rst_parametrization(r, s, t):
    tri = AdmissibleTriple.from_rst(r, s, t)
    a, b, c = tri.a, tri.b, tri.c
    assert (a + b + c) % 2 == 0
    assert abs(a - b) <= c <= a + b


def test_dimq_base_cases():
    assert equal(dimq_vector(0), ONE)
    assert equal(dimq_vector(1), brace(1) * DELTA)


def test_curl_twist_tadpole():
    # bar inverts a curl (it is a monomial in q, z)
    for a in range(0, 4):
        assert equal(curl(a) * bar(curl(a)), ONE)
    assert equal(tadpole_chain(0), SPIN_DELTA)
    assert equal(tadpole_chain(2), SPIN_DELTA * qint(0, 1) * qint(0, 2)
                 / (brace(1) * brace(2)))
    assert equal(twist(0, 0, 0), ONE)


def test_projector_loop_vs_dim():
    for a in range(0, 4):
        braces = ONE
        for k in range(1, a + 1):
            braces = braces * brace(k)
        assert equal(projector_loop(a), dimq_vector(a) * qfact(a) / braces)


def test_theta_spinor_zero_strand_anomaly():
    # the verbatim a = 0 value carries a spurious {1}/{0} factor; this is
    # documented and pinned rather than silently patched (the registry's
    # theta-spinor-empty row checks the corrected value).
    assert equal(theta_spinor(0), SPIN_DELTA * brace(1) / brace(0))


def test_leg_hop_telescopes():
    for a in range(0, 4):
        for r in range(0, 4):
            prod = ONE
            for j in range(r + 1):
                prod = prod * leg_hop(a + j)
            assert equal(prod, leg_hop_iter(a, r))


def test_gamma_cross_coeff():
    for p in range(0, 4):
        assert equal(gamma_cross_coeff(p), qint(0, p + 1) / brace(p + 1))


def test_fierz_first_column():
    # F(a,1) closed form agrees with the completeness sum for a <= 6
    for a in range(1, 7):
        assert equal(fierz(a, 1), fierz_a1(a))
    # analytic anchor: F(1,1) = -[2n-2][2n]/({0}{1})
    assert equal(fierz(1, 1), -(qint(2, -2) * qint(2, 0)) / (brace(0) * brace(1)))


def test_fierz_a0_printed_form_quarantined():
    # the printed F(a,0) closed form disagrees with the completeness sum
    # from a = 1 on (constant 1/2 where F(1,0) = [2n]/{0} = delta: the
    # registry's fierz-a0 rows); at a = 0 they agree
    assert equal(fierz(0, 0), fierz_a0(0))


def test_fierz_recurrence_printed_vs_corrected():
    # the printed three-term recurrence fails for every column b >= 1
    # and with first coefficient (-1)^b [n-b] it holds (the registry's
    # fierz-recurrence rows); the two coefficients agree at b = 0
    assert all(fierz_recurrence_check(a, 0, printed=True) for a in range(4))


def test_completeness_C_baseline():
    assert equal(completeness_C(0, 0, 0), ONE)
    assert equal(completeness_C(1, 1, 1), qfact(1) / brace(1))


def test_exp_coeff():
    # c(p) = z / (z^2 q^{-1} - (-q)^{p+1}); the half-power product form
    # agrees only at even p (the registry's exp-coeff-half-form rows) and
    # refuses odd p.
    from qspin.scalar import Q, Z

    for p in range(0, 6):
        want = Z / (Z**2 * Q.inv() - scalar_sign(p + 1) * Q ** (p + 1))
        assert equal(exp_coeff(p), want)
        if p % 2:
            with pytest.raises(ArgumentOutOfRange):
                check_exp_coeff_half_form(p)


def scalar_sign(k: int):
    from qspin.scalar import scalar

    return scalar(-1 if k % 2 else 1)


def test_fierz_table_json_round_trip():
    table = FierzTable.generate(2, 2)
    doc = json.loads(table.to_json())
    assert doc["format_version"] == 1
    assert doc["max_a"] == 2 and doc["max_b"] == 2
    keys = {(e["a"], e["b"]) for e in doc["entries"]}
    assert keys == {(a, b) for a in range(3) for b in range(3)}
    back = FierzTable.from_json(table.to_json())
    for a in range(3):
        for b in range(3):
            assert equal(back.entry(a, b), fierz(a, b))


def test_ffact_consistency():
    assert equal(ffact_ext(1), qint(2, 0))
