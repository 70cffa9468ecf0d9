"""Closed recoupling values: triples, dims, theta/3j, Fierz, tables."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from counting import counting
from registry_rows import rows_hold
from qspin import recoupling
from qspin.errors import ArgumentOutOfRange, InadmissibleTriple, ParseError
from qspin.qcomb import brace, brace_prod, ffact_ext, qfact, qint
from qspin.recoupling import (
    AdmissibleTriple,
    FierzTable,
    check_exp_coeff_half_form,
    completeness_C,
    dimq_vector,
    exp_coeff,
    fierz,
    fierz_a0,
    fierz_recurrence_check,
    theta_spinor,
)
from qspin.scalar import DELTA, ONE, SPIN_DELTA, equal


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


def test_theta_spinor_zero_strand_anomaly():
    # the verbatim a = 0 value carries a spurious {1}/{0} factor; this is
    # documented and pinned rather than silently patched (the registry's
    # theta-spinor-empty row checks the corrected value).
    assert equal(theta_spinor(0), SPIN_DELTA * brace(1) / brace(0))


def test_leg_hop_telescopes():
    # leg_hop_iter(a, r) against the product of leg_hop for a, r <= 3
    assert rows_hold("leg-hop")


def test_gamma_cross_coeff():
    # [p+1]/{p+1} against [p+1][n-p-1]/[2n-2p-2] for p <= 3
    assert rows_hold("gamma-cross-coeff")


def test_fierz_first_column():
    # F(a,1) closed form agrees with the completeness sum for a <= 6
    assert rows_hold("fierz-a1")


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


def test_x_coeff_is_its_uncancelled_quotient():
    # X(r,s,t) against the six brace products it is defined by
    for r in range(4):
        for s in range(4):
            for t in range(4):
                full = (brace_prod(0, r) * brace_prod(0, s) * brace_prod(0, t)
                        / (brace_prod(0, r + s) * brace_prod(0, r + t) * brace_prod(0, s + t)))
                assert equal(recoupling.x_coeff(r, s, t), full)


def test_completeness_C_baseline():
    assert equal(completeness_C(0, 0, 0), ONE)
    assert equal(completeness_C(1, 1, 1), qfact(1) / brace(1))
    with pytest.raises(ArgumentOutOfRange, match="completeness_C requires m <= min"):
        completeness_C(1, 2, 2)


# a count is an int >= 0: a bool, a float or a negative int is refused
# (fierz_a1 takes a >= 1, which refuses them too)
@pytest.mark.parametrize("bad", [True, 1.0, 2.5, -1], ids=repr)
@pytest.mark.parametrize("call", [
    lambda a: fierz(a, 1), lambda b: fierz(1, b), recoupling.fierz_a1, fierz_a0,
    lambda m: completeness_C(2, 2, m), lambda r: recoupling.x_coeff(r, 1, 1),
    lambda r: recoupling.theta_vector(r, 1, 1), lambda t: recoupling.threej_double(1, 1, t),
    theta_spinor, dimq_vector, lambda a: AdmissibleTriple(a, 1, 1),
    lambda s: AdmissibleTriple.from_rst(1, s, 1), recoupling.leg_hop,
    lambda a: FierzTable.generate(a, 1),
], ids=["fierz-a", "fierz-b", "fierz_a1", "fierz_a0", "completeness_C", "x_coeff",
        "theta_vector", "threej_double", "theta_spinor", "dimq_vector",
        "AdmissibleTriple", "from_rst", "leg_hop", "FierzTable.generate"])
def test_counts_refuse_non_counts(call, bad):
    with pytest.raises(ArgumentOutOfRange):
        call(bad)


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
            assert equal(back.entries[a, b], fierz(a, b))


def test_fierz_table_json_round_trip_is_byte_identical():
    text = FierzTable.generate(3, 2).to_json()
    assert FierzTable.from_json(text).to_json() == text


def test_fierz_table_renders_each_value_once():
    # F(a, b) and F(b, a) are one value: 21 distinct values in 36 cells
    table = FierzTable.generate(5, 5)
    with counting(recoupling, "to_text") as renders:
        table.to_json()
    assert renders.count == 21


_TABLE = json.loads(FierzTable.generate(1, 1).to_json())


@pytest.mark.parametrize(
    "text, message",
    [
        ("{max_a: 1}", "not JSON"),
        ("[]", "the top level must be a JSON object"),
        (json.dumps({k: v for k, v in _TABLE.items() if k != "max_a"}), "missing 'max_a'"),
        (json.dumps({k: v for k, v in _TABLE.items() if k != "max_b"}), "missing 'max_b'"),
        (json.dumps({k: v for k, v in _TABLE.items() if k != "entries"}),
         "missing 'entries'"),
        (json.dumps({**_TABLE, "max_a": "1"}), "'max_a' and 'max_b' must be integers"),
        (json.dumps({**_TABLE, "entries": {"a": 0}}), "'entries' must be a list"),
        (json.dumps({**_TABLE, "entries": [[0, 0, "1"]]}), "an entry must be an object"),
        (json.dumps({**_TABLE, "entries": [{"a": "0", "b": 0, "value": "1"}]}),
         r"entry \('0', 0\) needs integers a and b"),
        (json.dumps({**_TABLE, "entries": [{"a": 0, "b": 1.0, "value": "1"}]}),
         r"entry \(0, 1.0\) needs integers a and b"),
        (json.dumps({**_TABLE, "entries": [{"a": 0, "b": 0, "value": 1}]}),
         r"the value of entry \(0, 0\) must be a string"),
        (3, "not JSON .*not int"),
        (b"\xff", "not JSON .*can't decode"),
        (json.dumps({**_TABLE, "format_version": 99}), "unsupported format_version 99"),
        (json.dumps({**_TABLE, "max_a": -1}), "'max_a' and 'max_b' must be integers >= 0"),
        (json.dumps({**_TABLE, "max_a": 0, "max_b": 0,
                     "entries": [{"a": 5, "b": -3, "value": "1"}]}),
         r"entry \(5, -3\) lies outside the table"),
        (json.dumps({**_TABLE, "entries": _TABLE["entries"] + _TABLE["entries"][:1]}),
         r"entry \(0, 0\) is given twice"),
        (json.dumps({"max_a": 3, "max_b": 3, "entries": []}), r"entry \(0, 0\) is missing"),
        (json.dumps({**_TABLE, "entries": _TABLE["entries"][:3]}),
         r"entry \(1, 1\) is missing"),
        (json.dumps({**_TABLE, "entries": [
            {**e, "value": {(0, 1): "7", (1, 0): "5"}.get((e["a"], e["b"]), e["value"])}
            for e in _TABLE["entries"]]}),
         r"entries \(0, 1\) and \(1, 0\) differ"),
    ],
    ids=["not-json", "list", "no-max_a", "no-max_b", "no-entries", "str-max_a",
         "dict-entries", "list-entry", "str-a", "float-b", "int-value", "int",
         "not-utf8", "format_version-99", "negative-max_a", "entry-outside",
         "entry-twice", "no-entries-listed", "entry-missing", "asymmetric"],
)
def test_fierz_table_from_malformed_json_is_a_parse_error(text, message):
    with pytest.raises(ParseError, match="^Fierz table: " + message):
        FierzTable.from_json(text)


def test_ffact_consistency():
    assert equal(ffact_ext(1), qint(2, 0))
