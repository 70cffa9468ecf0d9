"""Coefficient field: normal forms, text round-trip, bar, specializations."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ

from exprtree import (
    Undefined,
    bar_tree,
    braces,
    classical_fold,
    field_fold,
    gens,
    key_atoms,
    qints,
    rat,
    rationals,
    trees,
    value,
)
from counting import counting
import level_oracle
from nf_oracle import cancel_nf, cancel_text
import parse_oracle
from q_limit import at_delta, q_to_one_by_division
from qspin import poly, scalar
from qspin.errors import (
    ArgumentOutOfRange,
    ClassicalSingular,
    DivisionByZero,
    GcdFailed,
    ParseError,
    QspinError,
    SpecializationError,
    UnsupportedSize,
)
from qspin.poly import MAX_EXPONENT, Frac
from qspin.qcomb import brace, qint
from qspin.scalar import (
    CLASSICAL_FIELD,
    DELTA,
    ONE,
    Q,
    SPIN_DELTA,
    U,
    V,
    Z,
    ZERO,
    ScalarK,
    bar,
    classical,
    equal,
    integer_level,
    numeric_probe,
    parse_scalar,
    q_to_one,
    scalar as mk,
    to_text,
)
from sympy_bridge import CLASSICAL, FIELD, from_sympy, to_sympy


def test_defining_relation():
    # (q - 1/q) * delta = z - 1/z
    assert equal((Q - Q.inv()) * DELTA, Z - Z.inv())


def test_field_arithmetic_basics():
    x = Q + Z
    assert equal(x - Z, Q)
    assert equal(x * x, Q * Q + 2 * Q * Z + Z * Z)
    assert equal((x / Z) * Z, x)
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    # an int or a Fraction on the left; a str is no scalar
    assert to_text(1 - Q) == "-q + 1"
    assert to_text(Fraction(1, 2) / Q) == "(1)/(2*q)"
    with pytest.raises(TypeError, match="cannot coerce str to ScalarK"):
        mk("x")


def test_qint_and_brace_atoms():
    # [b n + a] = (z^b q^a - z^-b q^-a)/(q - q^-1)
    for b in range(-2, 3):
        for a in range(-3, 4):
            lhs = qint(b, a)
            rhs = (Z**b * Q**a - Z**-b * Q**-a) / (Q - Q.inv())
            assert equal(lhs, rhs)
    for k in range(-3, 4):
        assert equal(brace(k), Z * Q**-k + Z.inv() * Q**k)
    # built once, and held as cyclotomic keys only, so that values built
    # from them need no gcd (see test_fierz_cancels_once)
    atoms = [(qint, (b, a)) for b in range(-2, 3) for a in range(-6, 7)]
    atoms += [(brace, (k,)) for k in range(-6, 7)]
    for make, args in atoms:
        x = make(*args)
        assert all(f in scalar._PHI for f in x._fac)
        assert make(*args) is x


def test_bar_is_involution_and_ring_map():
    vals = [Q, Z, DELTA, SPIN_DELTA, qint(2, -1), brace(3), Q + Z * DELTA]
    for x in vals:
        assert equal(bar(bar(x)), x)
    a, b = Q + DELTA, Z - qint(1, 1)
    assert equal(bar(a * b), bar(a) * bar(b))
    assert equal(bar(a + b), bar(a) + bar(b))


def test_bar_fixes_qints_and_braces():
    # the extended bracket and brace are bar-invariant
    assert equal(bar(qint(2, -3)), qint(2, -3))
    assert equal(bar(brace(2)), brace(2))
    assert equal(bar(DELTA), DELTA)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_integer_level_of_qint(b, a, n):
    # [b n + a] at level n is the ordinary q-integer [b*n + a]
    got = integer_level(qint(b, a), n)
    want = integer_level(qint(0, b * n + a), n)
    assert equal(got, want)


def test_integer_level_past_the_field_width_is_refused():
    # z -> q^n multiplies z's exponent into q's field: z^2000 at n = 16
    # fills it to q^32000, and at n = 17 it would pass it
    x = Z**2000 / (Z + Q)
    assert equal(integer_level(x, 16), Q**32000 / (Q**16 + Q))
    for y in (x, Z**2000):
        for n in (17, 10**6):
            with pytest.raises(UnsupportedSize):
                integer_level(y, n)
    # n < 0 clears the negative powers of q from both sides
    assert integer_level(Z, -1) == Q**-1
    assert integer_level(x, -2) == Q**-4000 / (Q**-2 + Q)
    with pytest.raises(UnsupportedSize):
        integer_level(x, -17)
    # the sides' powers of q are netted before they are bounded: z^2000
    # over q^2000 at n = 17 is q^32000, not q^34000 over q^2000
    assert integer_level(Z**2000 / Q**2000, 17) == Q**32000
    assert integer_level(Q**2000 / Z**2000, 17) == Q**-32000
    assert integer_level((Z**1800 + Q**2000) / Q**2000, 19) == Q**32200 + 1
    with pytest.raises(UnsupportedSize):
        integer_level(Z**2000 / Q**1000, 17)


def _level_outcome(level, x, n):
    """level(x, n), or the type and the message of the QspinError it
    raises: a refused size names the q exponent it reached."""
    try:
        return level(x, n)
    except QspinError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("x, n", [
    # the powers of q of the two sides are netted: q^32000, not q^34000
    # over q^2000, and q^32200 + 1, not (q^34200 + q^2000) / q^2000
    (lambda: Z**2000 / Q**2000, 17),
    (lambda: Z**2000 / Q**2000, 16),
    (lambda: Q**1000 / Z**1850, 18),
    (lambda: (Z - Q) * Z**1060 / Q**1000, 31),
    (lambda: (Z**1800 + Q**2000) / Q**2000, 19),
    # 0 over q^3000 (q^31000 + 1)
    (lambda: (Z - Q**2) / (Z**17000 + Q**3000), 2),
    (lambda: Q**-3000 * Z**2000, -15),
    (lambda: Q**-3000 * Z**2000, -16),
    # a numerator that vanishes, over a denominator past the width
    (lambda: (Z - Q) / (Z**2000 + 1), 1),
    (lambda: (Z - Q) / (Z**2000 + 1), -17),
    # Phi_d(z) for d | 1000 at q^32000, and past it
    (lambda: (Z**1000 - 1) * Q**-7, 32),
    (lambda: (Z**1000 - 1) / (Z**1000 + Q), 33),
    (lambda: (Q + Z * Q**-5) / (Z**1000 - 1), -32),
    # a key of three terms whose own image is too wide: q^34000, q^33984
    # (named, so that the ids of the cases above stay as they were)
    pytest.param(lambda: Z**2000 + Q + 1, 17, id="wide-sum-key-17"),
    pytest.param(lambda: 1 / (Z**2000 + Q + 1), 17, id="wide-sum-key-inverse-17"),
    pytest.param(lambda: Z**1999 + Z + Q, -17, id="wide-sum-key--17"),
])
def test_integer_level_at_the_field_width_matches_the_oracle(x, n):
    x = x()
    want = _level_outcome(level_oracle.integer_level, x, n)
    got = _level_outcome(integer_level, x, n)
    assert got == want


@pytest.mark.parametrize("n", [2.0, True, False, "2", None, Fraction(2)])
def test_integer_level_refuses_a_level_that_is_not_an_int(n):
    # refused before any work: the factor map is not even reduced
    x = qint(1, 1) * (Q + Z + 1) / (Z + 2)
    with pytest.raises(SpecializationError, match="the level n must be an int"):
        integer_level(x, n)
    assert x._red is None and x._nf is None


#: Products and quotients of brackets and braces alone, as in the closed
#: forms: every key is cyclotomic.
_bracket_trees = trees(st.one_of(qints(st.integers(-2, 2), st.integers(-6, 6)),
                                 braces(st.integers(-4, 4)), rationals.map(rat)),
                       ops=("mul", "div", "pow"), depth=4)


@given(st.one_of(trees(key_atoms, depth=4), _bracket_trees), st.integers(-3, 4))
@settings(max_examples=200, deadline=None)
def test_integer_level_matches_the_oracle(tree, n):
    # key by key against the whole normal form composed and cancelled
    x = value(tree)
    want = _level_outcome(level_oracle.integer_level, x, n)
    with counting(poly, "cofactors") as gcds:
        got = _level_outcome(integer_level, x, n)
        if isinstance(got, ScalarK):
            got.nf
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, ScalarK) and got == want
    assert not any(m & scalar._Z_FIELD for f in got._fac for m in f) and not got._mono[1]
    if all(f in scalar._PHI for f in x._reduced()):
        # cyclotomic keys map to cyclotomic keys, whose normal form needs no gcd
        assert all(f in scalar._PHI for f in got._fac)
        assert gcds.count == 0


def test_cyclotomic_keys_at_level_match_substitution():
    # Phi_d(t) with t -> s^g: the cyclotomic keys of prod Phi_e(s), e | dg
    # with e / gcd(e, g) = d, against the key substituted term by term,
    # in the numerator and in the denominator
    directions = [
        ((0, 1, 0, 0, 0), lambda g: g),  # t = z, t -> q^g at n = g
        ((1, -1, 0, 0, 0), lambda g: 1 - g),  # t = q/z, t -> q^g at n = 1 - g
        ((0, 3, 2, 0, 0), lambda g: g),  # t = z^3 Delta^2 -> q^3g Delta^2
    ]
    for d in range(1, 31):
        for w, level in directions:
            key = scalar._phi_key(d, w)
            for g in range(-10, 11):
                n = level(g)
                for e in (1, -1):
                    x = ScalarK(Fraction(1), scalar._MONO1, {key: e})
                    want = _level_outcome(level_oracle.integer_level, x, n)
                    got = _level_outcome(integer_level, x, n)
                    if isinstance(want, tuple):
                        assert got == want, (d, w, g, e)
                        continue
                    assert got == want, (d, w, g, e)
                    assert all(f in scalar._PHI for f in got._fac), (d, w, g, e)


def test_parse_bounds_fit_the_field_width():
    # a parsed value's degree in each generator is at most MAX_PARSE_DEGREE;
    # z -> q^n at a level the CLI accepts adds n times z's degree to q's
    from qspin.cli import MAX_LEVEL

    assert scalar.MAX_PARSE_EXPONENT <= scalar.MAX_PARSE_DEGREE
    assert scalar.MAX_PARSE_DEGREE * (1 + MAX_LEVEL) <= MAX_EXPONENT == 2**15 - 1


def test_classical_images():
    assert str(classical(DELTA)) == "delta"
    assert str(classical(brace(5))) == "2"
    # [b n + a] -> b*delta + a
    assert str(classical(qint(2, -1))) == "2*delta - 1"
    # exact rationals, not Python floats: [3]/[2] -> 3/2 and [3]^-2 -> 1/9
    for x, want in [
        (qint(0, 3) / qint(0, 2), QQ(3, 2)),
        (qint(0, 3) ** -2, QQ(1, 9)),
    ]:
        cl = classical(x)
        assert isinstance(cl, Frac) and cl.field is CLASSICAL_FIELD
        assert to_sympy(cl) == CLASSICAL.ground_new(want)
    with pytest.raises(ClassicalSingular):
        classical(scalar.U)
    # u and v raise wherever they stay in the value, and only there
    for text in ["u", "v*q", "(u + q)/(q - 1)", "(q - 1)/(q + v)"]:
        with pytest.raises(ClassicalSingular):
            classical(parse_scalar(text))
    assert not classical(scalar.U - scalar.U)
    x = parse_scalar("(u*q + u - q - 1)/(u - 1)")  # u cancels between two factors
    assert classical(x) == classical(parse_scalar(to_text(x)))
    assert to_sympy(classical(x)) == CLASSICAL(2)
    # a pole on the classical curve
    with pytest.raises(ClassicalSingular):
        classical(parse_scalar("1/(q - 1)"))


# atoms whose classical image is nonzero; their products are safe divisors
_unit_atom = st.one_of(
    st.builds(qint, st.just(0), st.integers(-4, 4).filter(bool)),
    st.builds(qint, st.integers(1, 2), st.integers(-4, 4)),
    st.builds(brace, st.integers(-3, 3)),
    st.just(DELTA),
    rationals.filter(bool).map(mk),
)
_unit = st.lists(_unit_atom, min_size=1, max_size=3).map(lambda xs: reduce(mul, xs))
# plus the two atoms with classical image 0, [0] and the rational 0
_classical_atom = st.one_of(_unit_atom, st.just(qint(0, 0)), st.just(mk(0)))


@st.composite
def _classical_exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_classical_atom)
    op = draw(st.sampled_from(["add", "mul", "div", "pow"]))
    if op == "pow":
        e = draw(st.integers(-3, 3).filter(bool))
        base = draw(_unit) if e < 0 else draw(_classical_exprs(depth=depth - 1))
        return base**e
    a = draw(_classical_exprs(depth=depth - 1))
    if op == "div":
        return a / draw(_unit)
    b = draw(_classical_exprs(depth=depth - 1))
    return a + b if op == "add" else a * b


@given(_classical_exprs())
@settings(max_examples=60, deadline=None)
def test_classical_stays_in_classical_field(x):
    # every atom, and so every sum, product, quotient and power, maps into
    # Q(delta, Delta), including a bracket [0*n + a], never a bare int/float
    cl = classical(x)
    assert isinstance(cl, Frac) and cl.field is CLASSICAL_FIELD


def test_q_to_one_cancels_poles():
    # [3]/[1] -> 3 exactly
    x = qint(0, 3) / qint(0, 1)
    assert str(q_to_one(x)) == "3"
    with pytest.raises(SpecializationError):
        q_to_one(Z)  # still involves z
    # a pole at q = 1 and the spectral generators have no classical image
    for text in ["1/(q - 1)", "u", "v*q/(q + 1)"]:
        with pytest.raises(ClassicalSingular):
            q_to_one(parse_scalar(text))


def test_numeric_probe_consistency():
    x = qint(1, 1) * SPIN_DELTA
    v = numeric_probe(x, Fraction(3, 2), 2, Fraction(4))
    q0 = Fraction(3, 2)
    # [n + 1] at z = q^n, n = 2: (q^3 - q^-3)/(q - q^-1)
    expect = (q0**3 - q0**-3) / (q0 - q0**-1) * 4
    assert v == expect
    assert numeric_probe(DELTA, 2, 1, 1) == 1
    for q0, n in [(0, 1), (1, 1), (-1, 2), (2, 0), (2, 1.5), (2, True)]:
        with pytest.raises(SpecializationError):
            numeric_probe(x, q0, n, 4)
    # the point is exact: a float, a text or a bool is refused, not read
    # through Fraction()
    for bad in [0.5, 2.0, "1/3", True]:
        for q0, Delta0 in [(bad, 4), (2, bad)]:
            with pytest.raises(SpecializationError, match="int or Fraction"):
                numeric_probe(x, q0, 2, Delta0)
    # the level leaves u; q - 2 vanishes at q = 2
    with pytest.raises(SpecializationError, match="spectral generators"):
        numeric_probe(U, 2, 1, 1)
    with pytest.raises(DivisionByZero, match="denominator vanishes"):
        numeric_probe(1 / (Q - 2), 2, 1, 1)


def test_classical_limit_matches_delta_substitution():
    # q->1 of level-n [n+1] equals n+1
    for n in (1, 2, 3):
        v = q_to_one(integer_level(qint(1, 1), n))
        assert str(v) == str(n + 1)
        assert to_sympy(v) == CLASSICAL(n + 1)


def test_specialization_square_on_atoms():
    # level n then q -> 1  ==  classical then delta -> n
    for n in (1, 2, 3):
        for x in [qint(1, 1), qint(2, -1), brace(2), DELTA * DELTA]:
            assert q_to_one(integer_level(x, n)) == at_delta(classical(x), n)


def test_canonical_text_examples():
    assert to_text(ONE) == "1"
    assert to_text(ZERO) == "0"
    assert to_text(Q + Z) == "q + z"
    assert to_text((Q * Q + Z * Z) / (Q * Z)) == "(q^2 + z^2)/(q*z)"
    assert to_text(DELTA) == "(q*z^2 - q)/(q^2*z - z)"


def test_parse_round_trip_basics():
    for text in ["1", "0", "q + z", "(q^2 + z^2)/(q*z)", "delta", "Delta*u - v"]:
        assert equal(parse_scalar(to_text(parse_scalar(text))), parse_scalar(text))


_PARSE_ERRORS = [
    ("", ParseError, "unexpected end of input"),
    ("q +", ParseError, "unexpected end of input"),
    ("(q", ParseError, "expected ')'"),
    ("q ** ", ParseError, "expected integer at position 5"),
    ("w + 1", ParseError, "unknown symbol 'w'"),
    ("1 / / 2", ParseError, "unexpected character '/' at position 4"),
    ("q^\u00b2", ParseError, "unreadable integer at position 2"),
    ("q^(-3", ParseError, "expected ')' after exponent"),
    ("q^x", ParseError, "expected integer at position 2"),
    ("q z", ParseError, "trailing input at position 2: 'z'"),
    ("2**3**2", ParseError, "trailing input at position 4: '**2'"),
    ("q#", ParseError, "trailing input at position 1: '#'"),
    (")", ParseError, "unexpected character ')' at position 0"),
    ("(q)(z)", ParseError, "trailing input at position 3: '(z)'"),
    ("1" * 5000, ParseError, "unreadable integer at position 0"),
    ("0^0", ArgumentOutOfRange, "0^0 is undefined"),
    ("0^(-1)", DivisionByZero, "inverting a scalar that normalizes to 0"),
    ("1/0", DivisionByZero, "division by a scalar that normalizes to 0"),
]


def test_parse_errors():
    for bad, kind, message in _PARSE_ERRORS:
        with pytest.raises(kind) as info:
            parse_scalar(bad)
        assert (type(info.value), str(info.value)) == (kind, message), bad[:20]


def test_parse_accepts():
    # a non-ASCII decimal exponent, bare negative exponents, unary minus
    # on a parenthesis, and any whitespace between tokens
    for text, want in [("q^\u0663", "q^3"), ("q^-1", "(1)/(q)"), ("q**-2", "(1)/(q^2)"),
                       ("-(-q)", "q"), ("q\t*\nz", "q*z")]:
        assert to_text(parse_scalar(text)) == want, text


def test_parse_of_a_non_string_is_a_parse_error():
    for bad in [None, 3, b"q", ["q"]]:
        with pytest.raises(ParseError, match="must be a string"):
            parse_scalar(bad)


def test_parse_depth_is_capped():
    depth = scalar.MAX_PARSE_DEPTH
    assert equal(parse_scalar("(" * depth + "q" + ")" * depth), Q)
    assert equal(parse_scalar("-" * depth + "q"), Q if depth % 2 == 0 else -Q)
    for bad in ["(" * (depth + 1) + "q" + ")" * (depth + 1), "-" * (depth + 1) + "q"]:
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_zero_to_the_zero_is_typed():
    with pytest.raises(ArgumentOutOfRange):
        ZERO**0
    assert equal(Q**0, ONE)


_atom = st.sampled_from(
    [Q, Z, DELTA, SPIN_DELTA, scalar.U, scalar.V, ONE, mk(Fraction(3, 7))]
)


@st.composite
def _exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_atom)
    op = draw(st.sampled_from(["add", "mul", "sub"]))
    a = draw(_exprs(depth=depth - 1))
    b = draw(_exprs(depth=depth - 1))
    return {"add": a + b, "mul": a * b, "sub": a - b}[op]


@given(_exprs())
@settings(max_examples=60, deadline=None)
def test_text_round_trip_random(x):
    assert equal(parse_scalar(to_text(x)), x)


# --------------------------------------------------------------------------
# The factored representation against the test-side expression tree.

# every atom is nonzero, so any integer power of one is defined
_bar_atom = st.one_of(
    gens("q", "z", "Delta", "u"),
    st.sampled_from([("delta",), rat(1), rat(Fraction(-3, 7)), ("qint", 1, -1),
                     ("qint", 2, 1), ("brace", 2)]),
)
_bar_trees = trees(
    st.one_of(_bar_atom, st.builds(lambda x, e: ("pow", x, e), _bar_atom,
                                   st.integers(-2, 2))),
    ops=("add", "sub", "mul", "div"),
)


@given(_bar_trees)
@settings(max_examples=60, deadline=None)
def test_bar_on_normal_form_matches_dag(tree):
    x = value(tree)
    y = bar(x)
    # the reflected normal form is the field fold of the reflected tree
    assert to_sympy(y.nf) == field_fold(bar_tree(tree))
    assert bar(y) == x


_any_atom = st.one_of(
    qints(st.integers(-2, 2), st.integers(-4, 4)),
    braces(st.integers(-3, 3)),
    gens("q", "z", "Delta", "u", "v"),
    st.just(("delta",)),
    rationals.map(rat),
)
_field_trees = trees(_any_atom)
_field_exprs = _field_trees.map(value)


@given(_field_trees)
@settings(max_examples=80, deadline=None)
def test_factored_value_matches_field_fold(tree):
    x = value(tree)
    nf = x.nf
    # the independent fold of the tree through field arithmetic
    assert to_sympy(nf) == field_fold(tree)
    # canonical over ZZ: coprime, content included, denominator LC positive
    num, den = to_sympy(nf).numer, to_sympy(nf).denom
    assert den.LC > 0
    assert num.gcd(den) == 1 or not num
    # zero is decided by the constant alone, never by building nf
    assert bool(x) == bool(nf) == (not x.is_zero())
    # a value split from its normal form has the same normal form
    assert scalar._wrap(nf).nf == nf
    assert to_text(parse_scalar(to_text(x))) == to_text(x)


@given(_field_trees, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_integer_level_matches_compose(tree, n):
    # z -> q^n re-keys the monomials of the normal form; sympy composes
    # and cancels the field fold of the tree
    ring = FIELD.ring
    q, z = ring.gens[:2]
    want = field_fold(tree)
    num, den = want.numer.compose(z, q**n), want.denom.compose(z, q**n)
    if not den:
        with pytest.raises(DivisionByZero):
            integer_level(value(tree), n)
        return
    assert to_sympy(integer_level(value(tree), n).nf) == FIELD.new(num, den)


@given(_field_exprs, _field_exprs, _field_exprs)
@settings(max_examples=40, deadline=None)
def test_equal_values_along_different_factorizations(a, b, c):
    for x, y in [((a + b) * c, a * c + b * c), (a - a, ZERO), (a * c - c * a, ZERO)]:
        assert x == y and hash(x) == hash(y)
    if c:
        assert (a * c) / c == a and hash((a * c) / c) == hash(a)


def test_atoms_with_equal_values_compare_and_hash_equal():
    # [2n] = delta {0}, [b n + a] = z^b [a] + ... (two factorizations each)
    pairs = [
        (qint(2, 0), DELTA * brace(0)),
        (qint(1, 0), DELTA),
        (qint(-1, -2), -qint(1, 2)),
        (qint(0, 4), qint(0, 2) * (Q**2 + Q**-2)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert to_text(x) == to_text(y)


def test_constants_hash_as_their_int_or_fraction():
    # a value equal to an int or a Fraction hashes as it, so a set or a
    # dict finds it by either
    for x, c in [(mk(0), 0), (ONE, 1), (mk(-3), -3), (mk(Fraction(-3, 4)), Fraction(-3, 4)),
                 ((Q - 1) / (Q - 1), 1), (parse_scalar("(2)/(3)"), Fraction(2, 3))]:
        assert x == c and hash(x) == hash(c)
    assert 1 in {ONE} and {1: "one"}.get(ONE) == "one"


#: A tree the hypothesis test of the field fold once drew: its printed text,
#: 252 characters, reads back, but the heuristic gcd gives up on the read
#: value's normal form, (q^2 - 1)^4 (q^2 z^2 - 1)^2 against (z^2 - 1)^6.
GCD_FAILING_TREE = ("pow", ("mul", ("qint", 1, 1), ("pow", ("qint", 1, 0), -3)), 2)


@pytest.mark.xfail(raises=GcdFailed, strict=True,
                   reason="poly.cofactors has no fallback when GCDHEU gives up")
def test_read_back_text_specializes_like_its_value():
    x = value(GCD_FAILING_TREE)
    text = to_text(x)
    assert len(text) == 252
    assert to_text(integer_level(x, 1)) == "(q^4 + 2*q^2 + 1)/(q^2)"
    assert to_text(integer_level(parse_scalar(text), 1)) == to_text(integer_level(x, 1))


def test_zero_from_a_sum_round_trips():
    x = qint(1, 1) * brace(2)
    zero = x - brace(2) * qint(1, 1)
    assert not zero and zero.is_zero()
    assert zero.nf == scalar.FIELD.zero
    assert to_text(zero) == "0"
    back = parse_scalar(to_text(zero))
    assert back == ZERO and not back
    with pytest.raises(DivisionByZero):
        ONE / zero
    with pytest.raises(DivisionByZero):
        zero**-1


def test_fierz_cancels_once():
    # every factor of a Fierz coefficient is a cyclotomic key, so its
    # normal form is multiplied out with no gcd at all
    from qspin.recoupling import FierzTable, fierz

    with counting(poly, "cofactors") as gcds:
        f = fierz(5, 5)
        f.nf
        FierzTable.generate(5, 5).to_json()
    assert gcds.count == 0


#: poly.cofactors calls, each one gcd: per readback pass of the stored
#: texts (parse, z -> q^n and q -> 1 for n = 1, 2, 3, to_text, bar), per
#: ``qspin check --all``, and per ``eval-3j`` at the caps with n = 16.
#: They were 197, 20 and 1 when integer_level cancelled the whole normal
#: form at the level; the readback's 124 are the 44 gcds of the texts' own
#: normal forms and the 80 of their classical images.  ``check --all``
#: took 7 while a matrix entry or trace was read through one cancel.
GCD_COUNTS = {"readback": 124, "check-all": 0, "eval-3j-cap": 0}


def test_gcd_counts_pinned():
    # in a fresh interpreter, where no tower is built yet
    script = """
import contextlib, io, json, sys
from counting import counting
from qspin import cli, poly, scalar
counts = {}
with counting(poly, "cofactors") as gcds:
    for text in json.loads(sys.stdin.read()):
        x = scalar.parse_scalar(text)
        for n in (1, 2, 3):
            scalar.q_to_one(scalar.integer_level(x, n))
        scalar.to_text(x)
        scalar.bar(x)
counts["readback"] = gcds.count
for name, argv in (("check-all", ["check", "--all"]),
                   ("eval-3j-cap", ["eval-3j", "--kind", "double", "--r", "8", "--s", "8",
                                    "--t", "8", "--specialize", "n=16"])):
    with counting(poly, "cofactors") as gcds, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    counts[name] = gcds.count
print(json.dumps(counts))
"""
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(_stored_texts()),
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == GCD_COUNTS


# --------------------------------------------------------------------------
# Cyclotomic keys and the cancel-free normal form.


@given(trees(key_atoms, depth=4))
@settings(max_examples=150, deadline=None)
# a polynomial whose canonical text, 387 terms, the degrees alone measured
# past MAX_PARSE_SIZE
@example(("add", ("pow", ("pow", ("add", ("brace", 1), ("add", ("add", ("gen", "Delta"),
          ("gen", "u")), rat(1))), 3), 3), ("brace", 0)))
# canonical texts past the parse bounds: an exponent 270 at k = 3, an
# expansion size 601,958 at k = 0
@example(("pow", ("pow", ("add", ("div", ("qint", 0, 1), ("brace", 3)),
          ("pow", ("brace", 4), 3)), 3), 3))
@example(("pow", ("pow", ("add", ("div", ("qint", 0, 1), ("brace", 0)),
          ("pow", ("brace", 4), 3)), 3), 3))
def test_normal_form_matches_cancel_oracle(tree):
    x = value(tree)
    want = cancel_nf(x)
    got = to_sympy(x.nf)
    assert (got.numer, got.denom) == (want.numer, want.denom)
    text = to_text(x)
    assert text == cancel_text(x)
    try:
        back = parse_scalar(text)
    except ParseError as exc:
        # the bounds promise no round trip past them: the refusal is a
        # bound's, and the character scanner refuses the text alike
        assert "exceeds the parse bound" in str(exc)
        assert _outcome(parse_oracle.parse_scalar, text) == (ParseError, str(exc))
        return
    back = to_sympy(back.nf)
    assert (back.numer, back.denom) == (want.numer, want.denom)


@pytest.mark.parametrize(
    "x, text",
    [
        # Phi_1 on both sides, with opposite signs
        (lambda: (ONE - Q) / (Q - 1), "-1"),
        (lambda: (Z - Q) * (Q + 1) / ((Q - Z) * (Q**2 - 1)), "(-1)/(q - 1)"),
        # a sum key divided by a cyclotomic key of the other side: Phi_3 Phi_6
        (lambda: parse_scalar("q^3 + 2*q^2 + 2*q + 1") / qint(0, 3),
         "(q^3 + q^2)/(q^2 - q + 1)"),
        # the quotient of a sum key is a unit binomial, split again
        (lambda: parse_scalar("q^4 + q^3 - q - 1") / (Q**2 + Q + 1), "q^2 - 1"),
        # sum keys on both sides, sharing (q + z + 1)
        (lambda: (Q + Z + 1) * (Q + 2) / ((Q + Z + 1) * (Z + 3)), "(q + 2)/(z + 3)"),
        (lambda: brace(2) / (Q**4 + Z**2), "(1)/(q^2*z)"),
    ],
    ids=["phi1-flip", "phi1-flip-and-binomial", "sum-over-phi", "quotient-resplit",
         "sum-over-sum", "brace-over-its-expansion"],
)
def test_normal_form_cases(x, text):
    x = x()
    with counting(poly, "cofactors") as gcds:
        x.nf
    # only sum keys left on both sides need a gcd
    assert gcds.count == (1 if text == "(q + 2)/(z + 3)" else 0)
    want = cancel_nf(x)
    got = to_sympy(x.nf)
    assert (got.numer, got.denom) == (want.numer, want.denom)
    assert to_text(x) == text


def test_unit_binomials_split_into_cyclotomic_keys():
    from sympy import cyclotomic_poly, divisors, symbols

    q, z = symbols("q z")
    # the orders a level reaches too: Phi_d(q^16) has keys up to 16 d
    for d in [*range(1, 61), 210, 256, 1155, 3600, 4096]:
        assert scalar._cyclotomic(d) == tuple(cyclotomic_poly(d, q, polys=True).all_coeffs()[::-1])

    def keys(x):
        assert all(f in scalar._PHI for f in x._fac)
        return set(x._fac)

    def ring(expr):
        return from_sympy(FIELD.ring.from_expr(expr))

    # q^12 - 1 = Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 Phi_12 (q)
    assert keys(Q**12 - 1) == {ring(cyclotomic_poly(d, q)) for d in divisors(12)}
    # z^3 q^-6 + 1 = q^-6 z^3 (t^3 + 1) with t = q^2 z^-1: Phi_2 Phi_6 (t)
    assert keys(Z**3 * Q**-6 + 1) == {ring(z + q**2), ring(z**2 - z * q**2 + q**4)}
    # a binomial with a coefficient other than +-1 stays one sum key
    (key,) = (Q**2 - 4)._fac
    assert key not in scalar._PHI


def test_normal_forms_from_threads():
    # threads splitting binomials no other value has met yet, into the
    # shared key tables, each get the cancel oracle's normal form
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def build(i):
        x = (Q ** (60 + i) - Z**7) * (Q + Z + i) / ((Q ** (120 + 2 * i) - Z**14) * (Z**3 - i))
        return x, to_sympy(x.nf)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(build, range(1, 25), timeout=60))
    finally:
        sys.setswitchinterval(old)
    for x, got in results:
        want = cancel_nf(x)
        assert (got.numer, got.denom) == (want.numer, want.denom)


# --------------------------------------------------------------------------
# Parser bounds.


def test_parse_exponent_bound():
    cap = scalar.MAX_PARSE_EXPONENT
    assert equal(parse_scalar(f"q^{cap}"), Q**cap)
    assert equal(parse_scalar(f"q^(-{cap})"), Q**-cap)
    for bad in [f"q^{cap + 1}", f"q^(-{cap + 1})", f"(q+z+1)^{4 * cap}"]:
        with pytest.raises(ParseError, match="exponent"):
            parse_scalar(bad)


def test_parse_degree_bound():
    cap = scalar.MAX_PARSE_DEGREE
    assert equal(parse_scalar(f"q^{cap}*z^{cap} + 1"), Q**cap * Z**cap + 1)
    for bad in [f"q^{cap}*q + 1", f"(q^{cap}*q)", f"1/(q^{cap}*q)", f"(q^{cap})^2"]:
        with pytest.raises(ParseError, match="degree"):
            parse_scalar(bad)


def test_parse_size_bound():
    # K = 65 is the largest accepted K of this family; its cancel takes
    # over a second, so only its size is checked here
    def text(k):
        return f"((q+z+1)^{k}+1)/((q+z+2)^{k}+1)"

    scalar._check_size(((Q + Z + 1) ** 65 + 1) / ((Q + Z + 2) ** 65 + 1))
    # a unit binomial is measured by the 1-norm of its cyclotomic keys'
    # product, 2, not by the product of their 1-norms (2^8 at t^128 - 1)
    assert equal(parse_scalar("(q^128*z^128 - 1)^2 + 1"), (Q**128 * Z**128 - 1) ** 2 + 1)
    # a product is only measured when a sum or power would expand it
    product = "*".join(["(q+z+Delta+u+v+1)^6"] * 40)
    # an expanded polynomial by its 2 terms, not the 1.2e6 its degrees
    # allow; by them again over a key, under 1, squared or times a key
    sparse = "q^99*z^99*Delta^59 + q"
    assert equal(parse_scalar(sparse), Q**99 * Z**99 * SPIN_DELTA**59 + Q)
    for bad in [text(66), "((q+z+1)^200)^200", "((9^200)^200)^200",
                "(q+z+Delta+u+v+1)^8 + 1", "1" * 5000, product + " + 1",
                "1 + " + product, product, f"({sparse})/(q + 2)", f"1/({sparse})",
                f"({sparse})^2", f"({sparse})*(z + 1)"]:
        with pytest.raises(ParseError):
            parse_scalar(bad)


@pytest.mark.parametrize("x, text", [
    (Q**-244 * Z**-78 * SPIN_DELTA**-30, "(1)/(q^244*z^78*Delta^30)"),
    (Q**99 * Z**99 * SPIN_DELTA**59 * U, "q^99*z^99*Delta^59*u"),
    (Q**200 * Z**200 * SPIN_DELTA**200 * U**200 * V**200, "q^200*z^200*Delta^200*u^200*v^200"),
])
def test_printed_monomials_read_back(x, text):
    # a monomial is one term on each side; by the monomials its degrees
    # allow these measure 600,005, 1,200,000 and 328,080,401,001
    assert to_text(x) == text
    back = parse_scalar(text)
    assert equal(back, x) and to_text(back) == text


def test_parse_collects_the_monomials_of_a_sum(monkeypatch):
    # the 1,681 monomials of the expanded text become one polynomial with
    # one primitive part, in the canonical reader and in the descent, which
    # reads the text written with '**'; adding them one by one took one per
    # term
    text = to_text(parse_scalar("(q-1)^40*(z-1)^40"))
    primitive = scalar._primitive
    for power in ("^", "**"):
        calls = []
        monkeypatch.setattr(scalar, "_primitive", lambda p: calls.append(p) or primitive(p))
        x = parse_scalar(text.replace("^", power))
        monkeypatch.undo()
        assert len(calls) == 1, power
        assert to_text(x) == text


def _stored_texts() -> list:
    path = Path(__file__).resolve().parent.parent / "perfbench/data/readback_texts.json"
    return [item["text"] for item in json.loads(path.read_text())["texts"]]


def test_stored_texts_still_parse():
    texts = _stored_texts()
    assert len(texts) == 51
    for text in texts:
        assert to_text(parse_scalar(text)) == text


def test_parse_reads_monomials_without_scalar_arithmetic(monkeypatch):
    # the canonical reader packs a text's monomials into keys; only the one
    # '/' of (N)/(D) is ScalarK arithmetic
    calls = []
    for name in ("__mul__", "__pow__", "__truediv__"):
        method = getattr(ScalarK, name)
        monkeypatch.setattr(ScalarK, name, lambda self, other, _m=method, _n=name:
                            calls.append(_n) or _m(self, other))
    texts = _stored_texts()
    for text in texts:
        calls.clear()
        parse_scalar(text)
        assert calls == (["__truediv__"] if text.startswith("(") else []), text
    assert sum(text.startswith("(") for text in texts) == 48


def test_digit_tokens_are_the_isdigit_runs():
    # the parser's digit class is str.isdigit(), which int() reads only in part
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(scalar._DIGITS, every) == [c for c in every if c.isdigit()]


def _outcome(parse, text):
    """The factored value a parser reads, or the type and message of the
    error it raises."""
    try:
        x = parse(text)
    except QspinError as exc:
        return type(exc), str(exc)
    return x._c, x._mono, x._fac


_GAPS = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
_NAMES = st.sampled_from(["q", "z", "Delta", "u", "v", "delta"])
_INTEGERS = st.one_of(st.integers(0, 12), st.integers(0, 10**30)).map(str)


@st.composite
def _scalar_texts(draw, depth=2):
    """Texts of the parser's grammar: sums and products of generators and
    integers, powers by '^' or '**' with bare or parenthesized, signed
    exponents, unary minus chains and parentheses, with whitespace between
    tokens."""
    def gap():
        return draw(_GAPS)

    def factor(depth):
        minus = draw(st.sampled_from(["", "", "", "-", "- ", "--"]))
        kinds = ["name", "integer"] + (["paren"] if depth else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "name":
            atom = draw(_NAMES)
        elif kind == "integer":
            atom = draw(_INTEGERS)
        else:
            atom = "(" + gap() + total(depth - 1) + gap() + ")"
        if draw(st.integers(0, 2)) == 0:
            e = str(draw(st.integers(-3, 4))).replace("-", draw(st.sampled_from(["-", "- "])))
            if draw(st.booleans()):
                e = "(" + gap() + e + gap() + ")"
            atom += gap() + draw(st.sampled_from(["^", "**"])) + gap() + e
        return minus + atom

    def product(depth):
        out = factor(depth)
        for _ in range(draw(st.integers(0, 2))):
            out += gap() + draw(st.sampled_from(["*", "*", "/"])) + gap() + factor(depth)
        return out

    def total(depth):
        out = product(depth)
        for _ in range(draw(st.integers(0, 2))):
            out += gap() + draw(st.sampled_from(["+", "-"])) + gap() + product(depth)
        return out

    return gap() + total(depth) + gap()


#: Characters that single-character corruptions put in a text.
_CORRUPTIONS = "+-*/^() \t_#.qzDuvw0129\u00b2\u0663\u00bd\u2460"


@st.composite
def _corrupted(draw, texts):
    """A text with one character replaced, inserted or deleted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(_CORRUPTIONS))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + (c if edit == "replace" else "") + text[i + 1:]


@given(st.one_of(_scalar_texts(), _corrupted(_scalar_texts())))
@settings(max_examples=200, deadline=None)
def test_parse_matches_the_character_scanner(text):
    assert _outcome(parse_scalar, text) == _outcome(parse_oracle.parse_scalar, text)


def _twos(count: int, rest: str):
    """The case of a run of ``count`` factors 2^256, a coefficient of
    256 * count bits, followed by ``rest``; its id names the run."""
    return pytest.param("*".join(["2^256"] * count) + rest, id=f"(2^256)x{count}{rest}")


def _coefficient(digits: int, *rest):
    """The case of a sum whose coefficient has ``digits`` digits, followed
    by ``rest``; int()'s default limit is 4,300 digits."""
    return pytest.param("9" * digits + "*q + 1", *rest, id=f"{digits}-digit-coefficient")


@pytest.mark.parametrize("text", [
    "2\u00b2", "2q", "q^2q", "(2q)", "q^(2q)", "\u00bd", "q*\u00bd", "q\u00b2",
    "\u2460", "q^\u2460", "_x", "Delta2", "q*-z", "q*--z", "q*-(z)", "2^-1*q",
    "-2^2*q", "0*q + z + 1", "0^2*q", "2^0*q", "q^ - 2", "q ^ ( - 2 )", "9^256*q",
    "9^300", "q/0", "q^256*q + 1", "-" * 101 + "q", "q*" + "-" * 101 + "z",
    "(" * 101 + "q", "(" * 100 + "-q" + ")" * 100, "1" * 5000 + "*q",
    # terms past a bound in a sum that is not, and an integer's power
    "q^256*q - q^256*q", "q^-256*q^-1 - q^-256*q^-1", "1" + "0" * 800 + "^256",
    "9^200*q^200*z^200 - 9^200*q^200*z^200", "q^" + "1" * 5000, "3*q^2*z - q^-3*u/2 + delta*q",
    # a monomial term at and past each bound, on each side: degree 256 and
    # 257; a monomial is one term, so its size is its coefficient bits + 1:
    # 2,343 factors 2^256 make 599,809, within the bound, and 2,344 make
    # 600,065, past it; a denominator has no coefficient bits
    "q^256 + z - z", "q^256*q + z - z", "z^-256 + q - q", "z^-256*z^-1 + q - q",
    _twos(2343, "*q + z - z"), _twos(2344, "*q + z - z"), _twos(2344, "*q"),
    # sizes the degrees would allow, 100 * 100 * 60 = 600,000 and
    # (1372 coefficient bits + 1) * 19 * 23 = 600,001, and below 1
    # 245 * 79 * 31 = 600,005: a monomial has one term, so all read
    "q^99*z^99*Delta^59 + q - q", str(2**1372) + "*q^18*z^22 + q - q",
    "q^-99*z^-99*Delta^-59 + q - q", "q^-244*z^-78*Delta^-30 + q - q",
    # both sides past a bound: the numerator's degree, then its size, then
    # the denominator's degree
    "q^256*q*z^-256*z^-2 + 1", _twos(2344, "*q^256*q + 1"), _twos(2344, "*u^-256*u^-2 + 1"),
    str(2**1372) + "*q^18*z^22*u^-256*u^-2 + 1", "q^-244*z^-78*Delta^-30*u^-256*u^-1 + 1",
    # an expanded polynomial, measured by its terms, and the same below 1
    "q^99*z^99*Delta^59 + q", "1/(q^99*z^99*Delta^59 + q)",
    # at the edges of the canonical reader's grammar (see the next test)
    "0", "-1", "(1)/(2)", "(-3)/(2)", "(1)/(q^244*z^78*Delta^30)", "q + q", "z*q",
    "q^256", "q^257", "q^01", " q", "(q)/(0)", _coefficient(4300), _coefficient(4301),
])
def test_parse_matches_the_character_scanner_on_edge_cases(text):
    assert _outcome(parse_scalar, text) == _outcome(parse_oracle.parse_scalar, text)


@pytest.mark.parametrize("text, read", [
    ("-1", True), ("(1)/(2)", True), ("(-3)/(2)", True), ("(1)/(q^244*z^78*Delta^30)", True),
    ("q^256", True), ("-2*q^3*z*Delta^2*u*v^5 + 3 - u*v", True),
    _coefficient(4300, True), _coefficient(4301, False),
    # 0, repeated monomials, generators out of order or repeated, exponents
    # past the bound, written as 1 or with a leading 0, whitespace, a zero
    # denominator and what is not one side or two
    ("0", False), ("q + q", False), ("z*q", False), ("q*q", False), ("q^257", False),
    ("q^1", False), ("q^01", False), ("0*q", False), (" q", False), ("q ", False),
    ("q+z", False), ("q  + z", False), ("q + -z", False), ("q\n", False), ("2q", False),
    ("q*", False), ("*q", False), ("-", False), ("", False), ("(q)/(0)", False),
    ("(q)/()", False), ("(q)", False), ("(q)/(z)/(u)", False), ("q**2", False),
    ("(q)*(z)", False), ("delta", False),
])
def test_the_canonical_reader_takes_the_printed_grammar(text, read):
    # every text the canonical reader does not take goes to the descent
    # unchanged, so that every error comes from the descent
    assert (scalar._read_canonical(text) is not None) == read


def _descent(text):
    """The value the recursive descent alone reads, checked as
    ``parse_scalar`` checks it."""
    x = scalar._parse_tokens(text)
    scalar._check_size(x)
    return x


@given(trees(key_atoms, depth=4))
@settings(max_examples=100, deadline=None)
@example(("pow", ("pow", ("add", ("div", ("qint", 0, 1), ("brace", 0)),
          ("pow", ("brace", 4), 3)), 3), 3))
def test_printed_texts_are_read_without_the_descent(tree):
    x = value(tree)
    text = to_text(x)
    want = _outcome(_descent, text)
    if x.is_zero() or want[0] is ParseError and want[1].startswith("exponent"):
        # 0, and a text with an exponent past MAX_PARSE_EXPONENT, are the
        # descent's to read or refuse
        assert scalar._read_canonical(text) is None
        return
    with counting(scalar, "_parse_sum") as descent:
        got = _outcome(parse_scalar, text)
    assert descent.count == 0
    assert got == want


# --------------------------------------------------------------------------
# The classical image is a function of the value.

_classical_tree_atom = st.one_of(
    qints(st.integers(-2, 2), st.integers(-4, 4)),
    braces(st.integers(-3, 3)),
    gens("q", "z", "Delta"),
    st.just(("delta",)),
    rationals.map(rat),
)


@given(trees(_classical_tree_atom))
@settings(max_examples=80, deadline=None)
def test_classical_matches_tree_fold(tree):
    # where the atom-by-atom fold divides by no zero image, it is the limit
    try:
        want = classical_fold(tree)
    except Undefined:
        return
    x = value(tree)
    assert to_sympy(classical(x)) == want
    assert to_sympy(classical(parse_scalar(to_text(x)))) == want


def test_classical_of_fierz_texts():
    from qspin.recoupling import FierzTable

    table = FierzTable.generate(5, 5)
    for (a, b), x in table.entries.items():
        assert classical(parse_scalar(to_text(x))) == classical(x), (a, b)


def test_classical_square_on_stored_texts():
    # classical then delta -> n  ==  level n then q -> 1, read from text
    for text in _stored_texts():
        x = parse_scalar(text)
        cl = classical(x)
        for n in (1, 2, 3):
            assert at_delta(cl, n) == q_to_one(integer_level(x, n)), (text, n)


# --------------------------------------------------------------------------
# q -> 1 against the (q - 1)-division reference.


def _z_free_values():
    """The stored texts, every Fierz coefficient with a, b <= 5, both
    dimension towers to p = 10 and the thetas with r + s + t <= 4, each at
    levels 1, 2 and 3."""
    from qspin.matrixlab import dimq_sym_recursive
    from qspin.recoupling import (
        FierzTable,
        dimq_vector_recurrence_consistent,
        theta_vector,
    )

    values = [parse_scalar(text) for text in _stored_texts()]
    values += FierzTable.generate(5, 5).entries.values()
    for p in range(11):
        values += [dimq_vector_recurrence_consistent(p), dimq_sym_recursive(p)]
    values += [theta_vector(r, s, t) for r in range(5) for s in range(5)
               for t in range(5) if r + s + t <= 4]
    return [integer_level(x, n) for x in values for n in (1, 2, 3)]


def test_q_to_one_matches_division_reference():
    values = _z_free_values()
    assert len(values) == 3 * (51 + 36 + 22 + 35)
    # z-free values whose factors hold z, cancelling between them
    values += [parse_scalar("(z^2 - 1)/((z - 1)*(z + 1))*q"),
               parse_scalar("(z^3 - 1)*(q^2 - 1)/((z - 1)*(z^2 + z + 1)*(q - 1))")]
    for x in values:
        assert q_to_one(x) == q_to_one_by_division(x), to_text(x)
