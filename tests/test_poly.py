"""The in-repo polynomials against sympy: exact division, the heuristic
gcd, cancel, the probe test before a trial division, and the reduced
fractions of Q(delta, Delta) with their text."""

from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from counting import counting
from exprtree import key_atoms, sum_atoms, trees, value
from qspin import poly, scalar
from qspin.errors import ArgumentOutOfRange, GcdFailed, QspinError, UnsupportedSize
from qspin.poly import MAX_EXPONENT, Poly, cancel, cofactors, exquo, probe, rules_out
from qspin.scalar import CLASSICAL_FIELD, classical
from sympy_bridge import CLASSICAL, INTEGER_RINGS, to_sympy


def _numerator(tree):
    x = value(tree)
    return x.nf.numer if x else Poly.from_terms({(0,) * 5: 1})


@st.composite
def _pairs(draw):
    """(f, g) = (a c, b c): a, b and c numerators of key_atoms values, c
    with a sum key, and a sum key in a or b too."""
    small = trees(key_atoms, depth=2)
    a = ("mul", draw(small), draw(sum_atoms))
    b = draw(small)
    if draw(st.booleans()):
        a, b = b, a
    c = ("mul", draw(small), draw(sum_atoms))
    f, g, common = _numerator(a), _numerator(b), _numerator(c)
    return f * common, g * common


@st.composite
def _divisions(draw):
    """(n, f, g, r): polynomials in n = 1..5 generators, g any polynomial,
    a constant, a monomial or a binomial t^k +- 1 with t a monomial, and
    r 0 or a polynomial to add to f g."""
    n = draw(st.integers(1, 5))
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.integers(-9, 9).filter(bool)
    polys = st.dictionaries(monomials, coeffs, min_size=1, max_size=6).map(Poly.from_terms)
    f = draw(polys)
    g = draw(st.one_of(
        polys,
        coeffs.map(lambda c: Poly.from_terms({(0,) * n: c})),
        st.builds(lambda m, c: Poly.from_terms({m: c}), monomials, coeffs),
        st.builds(
            lambda w, k, sign: Poly.from_terms({tuple(k * e for e in w): 1, (0,) * n: sign}),
            monomials.filter(any), st.integers(1, 4), st.sampled_from([1, -1]),
        ),
    ))
    r = draw(st.one_of(st.just(Poly()), polys))
    return n, f, g, r


@given(_divisions())
@settings(max_examples=300, deadline=None)
def test_exact_division_matches_sympy(division):
    n, f, g, r = division
    assert exquo(f * g, g) == f
    p = f * g + r
    quo, rem = to_sympy(p, n, INTEGER_RINGS).div(to_sympy(g, n, INTEGER_RINGS))
    got = exquo(p, g)
    assert (got is None) == bool(rem)
    if got is not None:
        assert to_sympy(got, n, INTEGER_RINGS) == quo


#: f and g = q^2 - z of the binomial divisions below, in (q, z).
_F2 = Poly.from_terms({(3, 1): 1, (1, 2): 2, (0, 0): -3})
_G2 = Poly.from_terms({(2, 0): 1, (0, 1): -1})


@pytest.mark.parametrize("p, g", [
    # divides: the quotient is f
    (_F2 * _G2, _G2),
    # fails only at the last remainder term, the constant 1: each term
    # before it divides
    (_F2 * _G2 + Poly.from_terms({(0, 0): 1}), _G2),
    # g's tail term, times the quotient's q, cancels p's -q z
    (Poly.from_terms({(3, 0): 1, (1, 1): -1}), _G2),
    # q^4 - z^2: the division adds q^2 z, and g's tail term times the
    # quotient's z then cancels p's -z^2
    (Poly.from_terms({(4, 0): 1, (0, 2): -1}), _G2),
], ids=["divides", "fails-at-the-last-term", "tail-cancels", "tail-cancels-after-an-added-term"])
def test_binomial_divisions_match_sympy(p, g):
    quo, rem = to_sympy(p, 2, INTEGER_RINGS).div(to_sympy(g, 2, INTEGER_RINGS))
    got = exquo(p, g)
    assert (got is None) == bool(rem)
    if got is None:
        # the remainder is p's last term alone
        assert to_sympy(type(p)({min(p): p[min(p)]}), 2, INTEGER_RINGS) == rem
    else:
        assert to_sympy(got, 2, INTEGER_RINGS) == quo


def test_exact_division_stops_past_the_degrees(monkeypatch):
    # x^3 y^3 + y^2 over x + y: the quotient's first monomial, x^2 y^3,
    # already passes y's degree 3 - 1, which ends the division
    x, y = Poly.from_terms({(1, 0): 1}), Poly.from_terms({(0, 1): 1})
    assert exquo(x**3 * y**3 + y**2, x + y) is None
    assert exquo((x + y) * (x**2 * y**2 - y**3), x + y) == x**2 * y**2 - y**3
    # x^200 over x - y: the second quotient monomial, x^198 y, passes p's
    # degree 0 in y; run on, the division would add 200 remainder terms
    pushes = []
    monkeypatch.setattr(poly, "heappush", lambda heap, k: pushes.append(k) or heap.append(k))
    assert exquo(x**200, x - y) is None
    assert len(pushes) == 1


@given(_pairs())
@settings(max_examples=150, deadline=None)
def test_gcd_and_cancel_match_sympy(pair):
    f, g = pair
    sf, sg = to_sympy(f), to_sympy(g)
    h, qf, qg = cofactors(f, g)
    assert to_sympy(h) * to_sympy(qf) == sf
    assert to_sympy(h) * to_sympy(qg) == sg
    want = sf.gcd(sg)
    assert to_sympy(h) in (want, -want)
    n, d = cancel(f, g)
    assert (to_sympy(n), to_sympy(d)) == sf.cancel(sg)


def test_gcd_cases():
    q, z = Poly.from_terms({(1, 0, 0, 0, 0): 1}), Poly.from_terms({(0, 1, 0, 0, 0): 1})
    one = Poly.from_terms({(0,) * 5: 1})
    two = Poly.from_terms({(0,) * 5: 2})
    f = (q + one) * (q + z) * q * two
    for g, h in [
        (f, f),                                 # equal
        (q * q * z, q),                         # a monomial
        (two + two, two),                       # a constant
        ((q + one) * (q - one) * z, (q + one)),  # a sum key and a monomial
        (-(q + z) * two, (q + z) * two),        # a sign
    ]:
        got, qf, qg = cofactors(f, g)
        assert got in (h, -h)
        assert got * qf == f and got * qg == g
    assert cancel(Poly(), q) == (Poly(), one)
    assert cancel(q, -q * q) == (-one, q)


def test_gcd_never_returns_an_unchecked_candidate(monkeypatch):
    # a lift that divides neither polynomial, at every evaluation point
    def wrong(h, xi, shift):
        return {1 << shift: 2, 0: 3}

    monkeypatch.setattr(poly, "_interpolate", wrong)
    q = Poly.from_terms({(1, 0, 0, 0, 0): 1})
    one = Poly.from_terms({(0,) * 5: 1})
    f, g = (q + one) * (q + one + one), (q + one) * (q - one - one)
    with pytest.raises(GcdFailed) as err:
        cofactors(f, g)
    assert isinstance(err.value, QspinError)


def test_exponents_stop_at_the_field_width():
    # each generator's field holds exponents up to 2^15 - 1; a product or a
    # power that reaches it is exact, one past it raises
    assert MAX_EXPONENT == 2**15 - 1
    x, y = Poly.from_terms({(1, 0): 1}), Poly.from_terms({(0, 1): 1})
    one = Poly.from_terms({(0, 0): 1})
    top = x ** (MAX_EXPONENT - 1) * x
    assert top.terms() == [((MAX_EXPONENT, 0), 1)]
    wide = (x ** 2**14 + y) * (x ** (2**14 - 1) + one)
    assert wide.degrees() == (MAX_EXPONENT, 1)
    assert (y ** (2**14) * (y ** (2**14 - 1) + x)).degrees() == (1, MAX_EXPONENT)
    for op in (lambda: top * x, lambda: top.mul_term(next(iter(x)), 3),
               lambda: (x ** 2**14 + y) * (x ** 2**14 + one),
               lambda: (y ** 2**14 + x) * y ** 2**14, lambda: x ** 2**15,
               lambda: Poly.from_terms({(2**15, 0): 1})):
        with pytest.raises(UnsupportedSize):
            op()
    with pytest.raises(ArgumentOutOfRange):
        Poly.from_terms({(-1, 0): 1})
    # and a key has a field for at most five generators
    with pytest.raises(ArgumentOutOfRange, match="a polynomial has 1 to 5 generators"):
        poly.ring(6)


def test_polynomials_are_immutable_values():
    p = Poly.from_terms({(1, 0): 2, (0, 0): -1})
    same = Poly.from_terms({(0, 0): -1, (1, 0): 2})
    assert p == same and hash(p) == hash(same)
    for mutate in (lambda: p.__setitem__((2, 0), 1), lambda: p.pop((1, 0)),
                   lambda: p.update({}), lambda: p.clear()):
        with pytest.raises(TypeError):
            mutate()
    assert p == same
    assert p.terms() == [((1, 0), 2), ((0, 0), -1)] and p.LC == 2
    assert (p**3).terms()[0] == ((3, 0), 8)
    assert p(Fraction(1, 2), 7) == 0
    # a point has one value per generator
    for point in ((2,), (Fraction(1, 2), 7, 0)):
        with pytest.raises(ArgumentOutOfRange):
            p(*point)
    with pytest.raises(ArgumentOutOfRange):
        Poly.from_terms({(1, 1, 0, 0, 0): 1})(2)


@given(_pairs())
@settings(max_examples=60, deadline=None)
def test_probe_never_rules_out_a_true_divisor(pair):
    f, g = pair
    h, qf, _ = cofactors(f, g)
    assert not rules_out(probe(h), probe(f))
    assert not rules_out(probe(qf), probe(f))
    if rules_out(probe(g), probe(f)):
        assert exquo(f, g) is None


#: Sum keys: primitive polynomials in the five generators with three
#: terms or more, no monomial factor and a positive leading coefficient.
_sum_keys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 5), st.integers(-9, 9).filter(bool), min_size=3, max_size=6,
).map(lambda t: scalar._primitive(Poly.from_terms(t))[2])

#: Cyclotomic keys Phi_d(x^w), w primitive with its first nonzero entry
#: positive.
_phi_keys = st.builds(
    scalar._phi_key, st.integers(1, 12),
    st.tuples(*[st.integers(-2, 2)] * 5).filter(
        lambda w: any(w) and gcd(*w) == 1 and next(e for e in w if e) > 0),
)


@given(st.one_of(_sum_keys, _phi_keys), st.one_of(_sum_keys, _phi_keys))
@settings(max_examples=150, deadline=None)
def test_probe_is_multiplicative(f, g):
    assert probe(f * g) == probe(f) * probe(g)


@given(_sum_keys, _phi_keys)
@settings(max_examples=100, deadline=None)
def test_reduce_derives_the_quotient_probe(f, k):
    # (f k) / k: the trial division's quotient f takes its value from those
    # of f k and k, and probe evaluates those two alone
    with (mock.patch.object(scalar, "_divide_once", wraps=scalar._divide_once) as divide,
          counting(scalar, "probe") as probes):
        assert scalar._reduce({f * k: 1, k: -1}) == {f: 1}
    values = divide.call_args.args[3]
    assert set(values) == {f * k, k, f}
    assert all(v == probe(p) for p, v in values.items())
    assert probes.count == 2


# --------------------------------------------------------------------------
# Q(delta, Delta).

_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    max_size=4,
).map(lambda d: {m: c for m, c in d.items() if c})


def _integral(terms: dict, scale: int) -> Poly:
    return CLASSICAL_FIELD.ring.from_terms({m: int(c * scale) for m, c in terms.items()})


@given(_terms, _terms.filter(bool), _terms.filter(bool), st.integers(-5, 5).filter(bool))
@settings(max_examples=200, deadline=None)
def test_classical_normal_form_and_text_match_sympy(num, den, common, k):
    want = CLASSICAL(to_sympy(Poly.from_terms(num), 2)) / CLASSICAL(to_sympy(Poly.from_terms(den), 2))
    # the same quotient as an integer pair sharing a factor and a constant
    scale = lcm(*(c.denominator for t in (num, den, common) for c in t.values()))
    c = _integral(common, scale) * Poly.from_terms({(0, 0): k})
    got = CLASSICAL_FIELD.new(_integral(num, scale) * c, _integral(den, scale) * c)
    assert to_sympy(got) == want
    assert (to_sympy(got.numer, 2), to_sympy(got.denom, 2)) == (want.numer, want.denom)
    assert str(got) == str(want)


@given(trees(key_atoms, depth=3))
@settings(max_examples=80, deadline=None)
def test_classical_images_print_as_sympy(tree):
    try:
        cl = classical(value(tree))
    except QspinError:
        return
    assert str(cl) == str(to_sympy(cl))


def test_classical_text_examples():
    d, D = CLASSICAL.gens
    for x in [(6 * d**2 * D + 2 * d - 1) / (4 * d + 8), -d**3 / 5, d / (2 * D),
              3 / (d * D), CLASSICAL(0), CLASSICAL(Fraction(-3, 2)), -d + 1]:
        num = Poly.from_terms({m: int(c) for m, c in x.numer.items()})
        den = Poly.from_terms({m: int(c) for m, c in x.denom.items()})
        assert str(CLASSICAL_FIELD.raw_new(num, den)) == str(x)
