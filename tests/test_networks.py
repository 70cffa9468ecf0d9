"""Network oracles: medial state sum, tetrahedra, gamma matrices."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from chromatic_oracle import brute_force_chromatic, strand_networks
from qspin.errors import (
    ConstraintViolated,
    InadmissibleLabel,
    InadmissibleTriple,
    ParseError,
    StateSpaceTooLarge,
    UnsupportedSize,
)
from qspin.networks import (
    MAX_TOTAL_LINES,
    LabelledNetwork,
    StrandNetwork,
    TetrahedronSymbol,
    cabled_unknot,
    chromatic_eval,
    gamma_matrices,
    gamma_metric,
    gamma_oracle_trace,
    chromatic_classical,
    medial,
    tetrahedron_check,
    tetrahedron_chromatic,
    tetrahedron_edge_labels,
    theta_network,
    unknot,
)
from qspin.matrixlab import CHECKS
from qspin.poly import Poly, poly_str
from qspin.recoupling import AdmissibleTriple, dimq_vector_recurrence_consistent, theta_vector
from qspin.scalar import classical
from sympy_bridge import CLASSICAL, from_sympy, to_sympy
from zero_edge import delete_zero_edge

_R = CLASSICAL.ring
_d = _R.gens[0]


def _falling(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


def _at(poly, x):
    """A polynomial in delta at delta = x, a rational."""
    return poly(x, 0)


def test_delta_poly_basics():
    # chromatic values are polynomials in delta, printed by poly_str
    p = from_sympy(_d**2 - 3)
    assert _at(p, 2) == 1
    assert poly_str(p, ("delta", "Delta"), "^") == "delta^2 - 3"
    q = from_sympy((_d**2 - 3) * _d / 2)
    assert q == Poly.from_terms({(3, 0): Fraction(1, 2), (1, 0): Fraction(-3, 2)})
    assert poly_str(q, ("delta", "Delta"), "^") == "1/2*delta^3 - 3/2*delta"
    assert poly_str(Poly(), ("delta", "Delta"), "^") == "0"


def test_network_validation():
    with pytest.raises(InadmissibleTriple):
        theta_network(1, 1, 1)  # odd vertex sum
    with pytest.raises(InadmissibleTriple):
        theta_network(4, 1, 1)  # triangle fails
    with pytest.raises(InadmissibleLabel):
        unknot(-1)


_theta_triples = [
    (a, b, c)
    for a in range(4)
    for b in range(4)
    for c in range(4)
    if (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b
]


@pytest.mark.parametrize("a,b,c", _theta_triples)
def test_theta_closed_form(a, b, c):
    # normalized theta state sum equals
    # r!s!t!/((r+s)!(r+t)!(s+t)!) * falling(delta, r+s+t) -- verified by
    # evaluating both polynomials at several integer points
    r = (b + c - a) // 2
    s = (a + c - b) // 2
    t = (a + b - c) // 2
    m = r + s + t
    poly = chromatic_eval(medial(theta_network(a, b, c)), "ProjectorNormalized")
    coef = Fraction(
        factorial(r) * factorial(s) * factorial(t),
        factorial(r + s) * factorial(r + t) * factorial(s + t),
    )
    for x in (-2, 0, 1, 5, 11):
        assert _at(poly, x) == coef * _falling(Fraction(x), m)


def test_unknot_values():
    # plain cable: delta^a; through one projector: falling factorial / a!
    assert to_sympy(chromatic_eval(cabled_unknot(3, False))) == _d**3
    for a in range(4):
        poly = chromatic_eval(medial(unknot(a)), "ProjectorNormalized")
        for x in (-2, 3, 7):
            assert _at(poly, x) == _falling(Fraction(x), a) / factorial(a)
    assert chromatic_eval(cabled_unknot(2, True))(-2, 0) == 6


def test_chromatic_rows_match_sympy():
    # the rows compare in CLASSICAL_FIELD; sympy's delta -> 2 delta
    # composition is the oracle of that comparison, on each unknot and theta
    # row and on each closed form paired with the next row's value
    rows = [(dimq_vector_recurrence_consistent(p["a"]), unknot(p["a"]))
            for p in CHECKS["unknot-chromatic"].grid]
    for p in CHECKS["theta-chromatic"].grid:
        tri = AdmissibleTriple.from_rst(**p)
        rows.append((theta_vector(**p), theta_network(tri.a, tri.b, tri.c)))
    values = [chromatic_eval(medial(net), "ProjectorNormalized") for _, net in rows]
    for (closed, _), chrom, other in zip(rows, values, values[1:] + values[:1]):
        for value in (chrom, other):
            image = CLASSICAL(to_sympy(value, 2).compose(_d, 2 * _d))
            assert to_sympy(chromatic_classical(value)) == image
            assert (chromatic_classical(value) == classical(closed)) == (
                to_sympy(classical(closed)) == image)


def test_tetrahedron_all_ones_golden():
    t = TetrahedronSymbol.from_grid([[1] * 4, [1] * 4, [1] * 4])
    tetrahedron_check(t)
    assert tetrahedron_edge_labels(t) == [2] * 6
    raw = to_sympy(tetrahedron_chromatic(t, "Raw"))
    assert raw == _d**4 - 5 * _d**3 + 8 * _d**2 - 4 * _d
    normed = to_sympy(tetrahedron_chromatic(t, "ProjectorNormalized"))
    assert normed == raw / 64


def test_tetrahedron_trivial_and_invalid():
    t0 = TetrahedronSymbol.from_grid([[0] * 4] * 3)
    for normalization in ("Raw", "ProjectorNormalized"):
        assert to_sympy(tetrahedron_chromatic(t0, normalization)) == 1
    with pytest.raises(ConstraintViolated):
        TetrahedronSymbol.from_grid([[1, 2], [3, 4]])
    with pytest.raises(ConstraintViolated):
        tetrahedron_check(TetrahedronSymbol.from_grid([[-1] + [0] * 3] + [[0] * 4] * 2))
    # inconsistent side sums
    bad = TetrahedronSymbol.from_grid([[1, 0, 0, 0], [0] * 4, [0] * 4])
    with pytest.raises(ConstraintViolated):
        tetrahedron_edge_labels(bad)


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=12, deadline=None)
def test_zero_edge_deletion_invariance(r, s):
    # theta(a, a, 0) with a 0-labelled third edge: deleting it must not
    # change the normalized chromatic value
    a = r + s
    net = theta_network(a, a, 0)
    before = chromatic_eval(medial(net), "ProjectorNormalized")
    after = chromatic_eval(medial(delete_zero_edge(net, 2)), "ProjectorNormalized")
    assert before == after


def test_state_space_budget():
    # theta(9, 9, 8) needs more live matching states than the budget; a
    # network over the line budget is refused before any join
    with pytest.raises(StateSpaceTooLarge):
        chromatic_eval(medial(theta_network(9, 9, 8)))
    with pytest.raises(StateSpaceTooLarge):
        chromatic_eval(cabled_unknot(MAX_TOTAL_LINES + 1, True))


@given(strand_networks())
@settings(max_examples=150, deadline=None)
def test_contraction_equals_brute_force(sn):
    for norm in ("Raw", "ProjectorNormalized"):
        assert to_sympy(chromatic_eval(sn, norm), 2) == brute_force_chromatic(sn, norm)


def _falling_coefficients(a: int) -> list:
    """The coefficients of delta(delta - 1)...(delta - a + 1), lowest
    degree first, by integer polynomial products."""
    coeffs = [1]
    for i in range(a):
        # times (delta - i)
        coeffs = [lo - i * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@pytest.mark.parametrize("a", range(1, 13))
def test_cable_is_the_falling_factorial(a):
    # past the brute-force cap: coefficients are Stirling numbers of both
    # signs, up to about 1.2e8 at a = 12, decoded from one packed weight
    coeffs = _falling_coefficients(a)
    for normalization, norm in (("Raw", 1), ("ProjectorNormalized", factorial(a))):
        assert chromatic_eval(cabled_unknot(a, True), normalization).terms() == [
            ((k, 0), Fraction(c, norm)) for k, c in reversed(list(enumerate(coeffs))) if c
        ]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_degree_one_rectangles_meet_the_coefficient_bound(data):
    # every rectangle has only the identity, so the value is delta^loops
    # with coefficient 1 = prod d_r!: the bound on a coefficient is met
    n = data.draw(st.integers(1, MAX_TOTAL_LINES))
    ports = [(f"r{i}", side, 0) for i in range(n) for side in (0, 1)]
    order = data.draw(st.permutations(ports))
    link = {}
    for a, b in zip(order[::2], order[1::2]):
        link[a] = b
        link[b] = a
    sn = StrandNetwork({f"r{i}": 1 for i in range(n)}, link)
    for norm in ("Raw", "ProjectorNormalized"):
        value = chromatic_eval(sn, norm)
        assert len(value) == 1 and list(value.values()) == [1]
        assert to_sympy(value, 2) == brute_force_chromatic(sn, norm)


def test_network_json_round_trip():
    net = theta_network(2, 1, 1)
    back = LabelledNetwork.from_json(net.to_json())
    assert back.edges == net.edges
    assert back.rotation == net.rotation
    sn = medial(net)
    sn2 = StrandNetwork.from_json(sn.to_json())
    assert chromatic_eval(sn2) == chromatic_eval(sn)
    # byte-identical reproducibility
    assert net.to_json() == LabelledNetwork.from_json(net.to_json()).to_json()


@pytest.mark.parametrize("load", [LabelledNetwork.from_json, StrandNetwork.from_json],
                         ids=["labelled", "strand"])
@pytest.mark.parametrize(
    "text,message",
    [("[1", r"not JSON \(Expecting ',' delimiter"), ("", "not JSON"),
     (3, "not JSON .*not int"), (None, "not JSON .*not NoneType"),
     (b"\xff", "not JSON .*can't decode")],
    ids=["truncated", "empty", "int", "none", "not-utf8"],
)
def test_network_from_malformed_json_is_a_parse_error(load, text, message):
    with pytest.raises(ParseError, match="^network file: " + message):
        load(text)


def test_strand_network_validation():
    with pytest.raises(ConstraintViolated):
        StrandNetwork({"r": 1}, {}).validate()


def test_gamma_clifford_relations():
    for k in (1, 2, 3):
        g = gamma_metric(k)
        assert g == [1, -1] * k
        # squares match the metric
        mats = gamma_matrices(k)
        dim = 2**k
        for mu, m in enumerate(mats):
            sq = [
                [sum(m[i][l] * m[l][j] for l in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]
            assert sq == [
                [g[mu] if i == j else 0 for j in range(dim)] for i in range(dim)
            ]
    with pytest.raises(UnsupportedSize):
        gamma_matrices(4)


def test_gamma_trace_contractions():
    # adjacent pairs: (2k)^m * 2^k; crossing pair: 2k(2-2k) * 2^k
    for k in (1, 2, 3):
        dim = 2**k
        assert gamma_oracle_trace(k, [0, 0], [(0, 1)]) == 2 * k * dim
        assert gamma_oracle_trace(
            k, [0, 0, 1, 1], [(0, 1), (2, 3)]
        ) == (2 * k) ** 2 * dim
        assert gamma_oracle_trace(
            k, [0, 1, 1, 0], [(0, 3), (1, 2)]
        ) == (2 * k) ** 2 * dim
        assert gamma_oracle_trace(
            k, [0, 1, 0, 1], [(0, 2), (1, 3)]
        ) == 2 * k * (2 - 2 * k) * dim


def test_gamma_trace_validation():
    with pytest.raises(UnsupportedSize):
        gamma_oracle_trace(1, [0] * 10, [(i, i + 1) for i in range(0, 10, 2)])
    with pytest.raises(ConstraintViolated):
        gamma_oracle_trace(1, [0, 0], [(0, 0)])
    # equal slot ids name exactly the matched pairs: unequal ids in one pair
    # (traced as [0, 0] once), and one id shared by two pairs
    for word, matching in (([0, 1], [(0, 1)]), ([5, 7, 9, 9], [(0, 2), (1, 3)])):
        with pytest.raises(ConstraintViolated, match="share a slot id"):
            gamma_oracle_trace(1, word, matching)
