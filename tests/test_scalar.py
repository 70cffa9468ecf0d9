"""Coefficient field: normal forms, text round-trip, bar, specializations."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.fields import FracElement

from exprtree import (
    Undefined,
    bar_tree,
    braces,
    classical_fold,
    field_fold,
    gens,
    qints,
    rat,
    rationals,
    trees,
    value,
)
from q_limit import at_delta, q_to_one_by_division
from qspin import scalar
from qspin.errors import (
    ArgumentOutOfRange,
    ClassicalSingular,
    DivisionByZero,
    ParseError,
    SpecializationError,
)
from qspin.scalar import (
    CLASSICAL_FIELD,
    DELTA,
    ONE,
    Q,
    SPIN_DELTA,
    Z,
    ZERO,
    ScalarK,
    bar,
    brace_atom,
    classical,
    equal,
    integer_level,
    numeric_probe,
    parse_scalar,
    q_to_one,
    qint_atom,
    scalar as mk,
    to_text,
)


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


def test_qint_and_brace_atoms():
    # [b n + a] = (z^b q^a - z^-b q^-a)/(q - q^-1)
    for b in range(-2, 3):
        for a in range(-3, 4):
            lhs = qint_atom(b, a)
            rhs = (Z**b * Q**a - Z**-b * Q**-a) / (Q - Q.inv())
            assert equal(lhs, rhs)
    for k in range(-3, 4):
        assert equal(brace_atom(k), Z * Q**-k + Z.inv() * Q**k)


def test_bar_is_involution_and_ring_map():
    vals = [Q, Z, DELTA, SPIN_DELTA, qint_atom(2, -1), brace_atom(3), Q + Z * DELTA]
    for x in vals:
        assert equal(bar(bar(x)), x)
    a, b = Q + DELTA, Z - qint_atom(1, 1)
    assert equal(bar(a * b), bar(a) * bar(b))
    assert equal(bar(a + b), bar(a) + bar(b))


def test_bar_fixes_qints_and_braces():
    # the extended bracket and brace are bar-invariant
    assert equal(bar(qint_atom(2, -3)), qint_atom(2, -3))
    assert equal(bar(brace_atom(2)), brace_atom(2))
    assert equal(bar(DELTA), DELTA)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_integer_level_of_qint(b, a, n):
    # [b n + a] at level n is the ordinary q-integer [b*n + a]
    got = integer_level(qint_atom(b, a), n)
    want = integer_level(qint_atom(0, b * n + a), n)
    assert equal(got, want)


def test_classical_images():
    assert str(classical(DELTA)) == "delta"
    assert str(classical(brace_atom(5))) == "2"
    # [b n + a] -> b*delta + a
    assert str(classical(qint_atom(2, -1))) == "2*delta - 1"
    # exact rationals, not Python floats: [3]/[2] -> 3/2 and [3]^-2 -> 1/9
    for x, want in [
        (qint_atom(0, 3) / qint_atom(0, 2), QQ(3, 2)),
        (qint_atom(0, 3) ** -2, QQ(1, 9)),
    ]:
        cl = classical(x)
        assert isinstance(cl, FracElement) and cl.field == CLASSICAL_FIELD
        assert cl == CLASSICAL_FIELD.ground_new(want)
    with pytest.raises(ClassicalSingular):
        classical(scalar.U)
    # u and v raise wherever they stay in the value, and only there
    for text in ["u", "v*q", "(u + q)/(q - 1)", "(q - 1)/(q + v)"]:
        with pytest.raises(ClassicalSingular):
            classical(parse_scalar(text))
    assert not classical(scalar.U - scalar.U)
    x = parse_scalar("(u*q + u - q - 1)/(u - 1)")  # u cancels between two factors
    assert classical(x) == classical(parse_scalar(to_text(x))) == CLASSICAL_FIELD(2)
    # a pole on the classical curve
    with pytest.raises(ClassicalSingular):
        classical(parse_scalar("1/(q - 1)"))


# atoms whose classical image is nonzero; their products are safe divisors
_unit_atom = st.one_of(
    st.builds(qint_atom, st.just(0), st.integers(-4, 4).filter(bool)),
    st.builds(qint_atom, st.integers(1, 2), st.integers(-4, 4)),
    st.builds(brace_atom, st.integers(-3, 3)),
    st.just(DELTA),
    rationals.filter(bool).map(mk),
)
_unit = st.lists(_unit_atom, min_size=1, max_size=3).map(lambda xs: reduce(mul, xs))
# plus the two atoms with classical image 0, [0] and the rational 0
_classical_atom = st.one_of(_unit_atom, st.just(qint_atom(0, 0)), st.just(mk(0)))


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
    assert isinstance(cl, FracElement) and cl.field == CLASSICAL_FIELD


def test_q_to_one_cancels_poles():
    # [3]/[1] -> 3 exactly
    x = qint_atom(0, 3) / qint_atom(0, 1)
    assert str(q_to_one(x)) == "3"
    with pytest.raises(SpecializationError):
        q_to_one(Z)  # still involves z
    # a pole at q = 1 and the spectral generators have no classical image
    for text in ["1/(q - 1)", "u", "v*q/(q + 1)"]:
        with pytest.raises(ClassicalSingular):
            q_to_one(parse_scalar(text))


def test_numeric_probe_consistency():
    x = qint_atom(1, 1) * SPIN_DELTA
    v = numeric_probe(x, Fraction(3, 2), 2, Fraction(4))
    q0 = Fraction(3, 2)
    # [n + 1] at z = q^n, n = 2: (q^3 - q^-3)/(q - q^-1)
    expect = (q0**3 - q0**-3) / (q0 - q0**-1) * 4
    assert v == expect
    assert numeric_probe(DELTA, 2, 1, 1) == 1
    for q0, n in [(0, 1), (1, 1), (-1, 2), (2, 0), (2, 1.5)]:
        with pytest.raises(SpecializationError):
            numeric_probe(x, q0, n, 4)


def test_classical_limit_matches_delta_substitution():
    # q->1 of level-n [n+1] equals n+1
    for n in (1, 2, 3):
        v = q_to_one(integer_level(qint_atom(1, 1), n))
        assert str(v) == str(n + 1)
        assert v == CLASSICAL_FIELD(n + 1)


def test_specialization_square_on_atoms():
    # level n then q -> 1  ==  classical then delta -> n
    for n in (1, 2, 3):
        for x in [qint_atom(1, 1), qint_atom(2, -1), brace_atom(2), DELTA * DELTA]:
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


def test_parse_errors():
    for bad in ["", "q +", "(q", "q ** ", "w + 1", "1 / / 2"]:
        with pytest.raises(ParseError):
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
    assert y.nf == field_fold(bar_tree(tree))
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
    assert nf == field_fold(tree)
    # canonical over ZZ: coprime, content included, denominator LC positive
    num, den = nf.numer, nf.denom
    assert den.LC > 0
    assert num.gcd(den) == 1 or not num
    # zero is decided by the constant alone, never by building nf
    assert bool(x) == bool(nf) == (not x.is_zero())
    # a value split from its normal form has the same normal form
    assert ScalarK.from_field_element(nf).nf == nf
    assert to_text(parse_scalar(to_text(x))) == to_text(x)


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
        (qint_atom(2, 0), DELTA * brace_atom(0)),
        (qint_atom(1, 0), DELTA),
        (qint_atom(-1, -2), -qint_atom(1, 2)),
        (qint_atom(0, 4), qint_atom(0, 2) * (Q**2 + Q**-2)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert to_text(x) == to_text(y)


def test_zero_from_a_sum_round_trips():
    x = qint_atom(1, 1) * brace_atom(2)
    zero = x - brace_atom(2) * qint_atom(1, 1)
    assert not zero and zero.is_zero()
    assert zero.nf == scalar.FIELD.zero
    assert to_text(zero) == "0"
    back = parse_scalar(to_text(zero))
    assert back == ZERO and not back
    with pytest.raises(DivisionByZero):
        ONE / zero
    with pytest.raises(DivisionByZero):
        zero**-1


def test_fierz_cancels_once(monkeypatch):
    from sympy.polys.rings import PolyElement

    from qspin.recoupling import FierzTable, fierz

    calls = []
    cancel = PolyElement.cancel

    def counting(self, g):
        calls.append(1)
        return cancel(self, g)

    monkeypatch.setattr(PolyElement, "cancel", counting)
    f = fierz(5, 5)
    assert len(calls) == 0
    f.nf
    f.nf
    assert len(calls) == 1
    del calls[:]
    FierzTable.generate(5, 5).to_json()
    # one cancel per distinct entry F(a, b), a <= b <= 5
    assert len(calls) <= 21


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
    # about 2 s, so only its size is checked here
    def text(k):
        return f"((q+z+1)^{k}+1)/((q+z+2)^{k}+1)"

    scalar._check_size(((Q + Z + 1) ** 65 + 1) / ((Q + Z + 2) ** 65 + 1))
    # a product is only measured when a sum or power would expand it
    product = "*".join(["(q+z+Delta+u+v+1)^6"] * 40)
    for bad in [text(66), "((q+z+1)^200)^200", "((9^200)^200)^200",
                "(q+z+Delta+u+v+1)^8 + 1", "1" * 5000, product + " + 1",
                "1 + " + product, product]:
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_parse_collects_the_monomials_of_a_sum(monkeypatch):
    # the 1,681 monomials of the expanded text become one polynomial with
    # one primitive part; adding them one by one took one per term
    text = to_text(parse_scalar("(q-1)^40*(z-1)^40"))
    calls = []
    primitive = scalar._primitive
    monkeypatch.setattr(scalar, "_primitive", lambda p: calls.append(p) or primitive(p))
    x = parse_scalar(text)
    monkeypatch.undo()
    assert len(calls) == 1
    assert to_text(x) == text


def _stored_texts() -> list:
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench/data/readback_texts.json"
    return [item["text"] for item in json.loads(path.read_text())["texts"]]


def test_stored_texts_still_parse():
    texts = _stored_texts()
    assert len(texts) == 51
    for text in texts:
        assert to_text(parse_scalar(text)) == text


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
    assert classical(x) == want
    assert classical(parse_scalar(to_text(x))) == want


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
