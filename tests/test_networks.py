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
    delete_zero_edge,
    gamma_matrices,
    gamma_metric,
    gamma_oracle_trace,
    medial,
    penrose_eval,
    tetrahedron_check,
    tetrahedron_chromatic,
    tetrahedron_edge_labels,
    tetrahedron_network,
    theta_network,
    unknot,
)
from qspin.scalar import CLASSICAL_FIELD, _render_poly

_R = CLASSICAL_FIELD.ring
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
    # chromatic values are polynomials in delta, printed by the scalar renderer
    p = _d**2 - 3
    assert _at(p, 2) == 1
    assert _render_poly(p, ("delta", "Delta")) == "delta^2 - 3"
    q = p * _d / 2
    assert q == _R({(3, 0): Fraction(1, 2), (1, 0): Fraction(-3, 2)})
    assert _render_poly(q, ("delta", "Delta")) == "1/2*delta^3 - 3/2*delta"
    assert _render_poly(_R.zero, ("delta", "Delta")) == "0"


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
    assert chromatic_eval(cabled_unknot(3, False)) == _d**3
    for a in range(4):
        poly = chromatic_eval(medial(unknot(a)), "ProjectorNormalized")
        for x in (-2, 3, 7):
            assert _at(poly, x) == _falling(Fraction(x), a) / factorial(a)
    assert penrose_eval(cabled_unknot(2, True)) == 6


def test_tetrahedron_all_ones_golden():
    t = TetrahedronSymbol.from_grid([[1] * 4, [1] * 4, [1] * 4])
    assert tetrahedron_check(t)
    assert tetrahedron_edge_labels(t) == [2] * 6
    raw = tetrahedron_chromatic(t, "Raw")
    assert raw == _d**4 - 5 * _d**3 + 8 * _d**2 - 4 * _d
    normed = tetrahedron_chromatic(t, "ProjectorNormalized")
    assert normed == raw / 64


def test_tetrahedron_trivial_and_invalid():
    t0 = TetrahedronSymbol.from_grid([[0] * 4] * 3)
    assert tetrahedron_chromatic(t0) == 1
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
        assert chromatic_eval(sn, norm) == brute_force_chromatic(sn, norm)


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
