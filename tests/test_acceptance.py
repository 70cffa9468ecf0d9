"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

All comparisons are exact (normal-form equality of rational functions, or
exact rational arithmetic); there are no tolerances.  Criteria touching a
documented formula slip in the source material assert the direction of
the discrepancy (failing-by-design), so a silent "fix" breaks the suite.
"""

import random
from fractions import Fraction
from itertools import permutations, product

from q_limit import at_delta
from registry_rows import rows_hold
from sympy_bridge import CLASSICAL, to_sympy

from qspin import scalar
from qspin.matrixlab import (
    CHECKS,
    check_quantum_dims,
    check_tower,
    check_unitarity,
    check_ybe,
)
from qspin.networks import (
    TetrahedronSymbol,
    chromatic_eval,
    gamma_oracle_trace,
    medial,
    tetrahedron_chromatic,
    tetrahedron_network,
    theta_network,
    unknot,
)
from qspin.qcomb import brace, qint
from qspin.recoupling import (
    AdmissibleTriple,
    dimq_vector_recurrence_consistent,
    fierz,
    fierz_a0,
    fierz_a1,
    fierz_recurrence_check,
    theta_vector,
)
from qspin.scalar import (
    DELTA,
    Q,
    SPIN_DELTA,
    Z,
    classical,
    equal,
    integer_level,
    q_to_one,
)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# 1 ------------------------------------------------------------------------


def test_acceptance_01_ring_consistency():
    ok = equal((Q - Q.inv()) * DELTA, Z - Z.inv())
    for a in range(-8, 9):
        lhs = Z * qint(0, a) + Q ** (-a) * DELTA
        rhs = Z.inv() * qint(0, a) + Q**a * DELTA
        ok = ok and equal(lhs, rhs)
    # addition identity, 200 random extended triples (the printed sign of
    # the final bracket is corrected; see the regression in criterion 10)
    ok = ok and rows_hold("addition")
    _report(1, "ring consistency", ok)


# 2 ------------------------------------------------------------------------


def test_acceptance_02_specialization_square():
    rng = random.Random(7)
    pool = []
    for _ in range(30):
        pool.append(qint(rng.randint(-3, 3), rng.randint(-5, 5)))
        pool.append(brace(rng.randint(-3, 3)))
    for p in range(4):
        pool.append(dimq_vector_recurrence_consistent(p))
    for _ in range(10):
        r, s, t = (rng.randint(0, 2) for _ in range(3))
        pool.append(theta_vector(r, s, t))
    ok = True
    for x in pool:
        for n in (1, 2, 3):
            left = q_to_one(integer_level(x, n))
            right = at_delta(classical(x), n)
            ok = ok and (left == right)
    _report(2, "specialization square", ok)


# 3 ------------------------------------------------------------------------


def test_acceptance_03_yang_baxter():
    ok = True
    for kind in ("HeckeF", "HeckeE"):
        ok = ok and check_ybe(kind, "hecke2") and check_unitarity(kind, "hecke2")
    for kind in ("BMW_D", "BMW_A"):
        ok = ok and check_ybe(kind, "bmw3") and check_unitarity(kind, "bmw3")
        for n in (1, 2):
            ok = ok and check_ybe(kind, "tensor", n)
    _report(3, "yang-baxter + unitarity", ok)


# 4 ------------------------------------------------------------------------


def test_acceptance_04_idempotent_towers():
    ok = all(check_tower(kind, n, 4) for n in (1, 2) for kind in ("E", "F"))
    _report(4, "idempotent towers", ok)


# 5 ------------------------------------------------------------------------


def test_acceptance_05_quantum_dimensions():
    ok = all(check_quantum_dims(n=n, p_max=3) for n in (1, 2, 3))
    _report(5, "quantum dimensions", ok)


# 6 ------------------------------------------------------------------------


def test_acceptance_06_recoupling_coherence():
    rows = ("threej-double", "theta-vector", "bubble", "dimq-recurrence")
    _report(6, "recoupling coherence", all(rows_hold(name) for name in rows))


# 7 ------------------------------------------------------------------------


def test_acceptance_07_fierz_suite():
    ok = rows_hold("fierz-symmetry") and rows_hold("fierz-bar")
    for a in range(1, 7):
        ok = ok and equal(fierz(a, 1), fierz_a1(a))
    ok = ok and equal(
        fierz(1, 1), -(qint(2, -2) * qint(2, 0)) / (brace(0) * brace(1))
    )
    # the corrected recurrence holds for a, b <= 4; the printed one fails
    # exactly for b >= 1 (a slip row each) and holds at b = 0
    ok = ok and rows_hold("fierz-recurrence")
    ok = ok and rows_hold("fierz-recurrence-coefficient")
    ok = ok and all(fierz_recurrence_check(a, 0, printed=True) for a in range(5))
    _report(7, "fierz suite", ok)


# 8 ------------------------------------------------------------------------


_delta = CLASSICAL.ring.gens[0]


def _matches_chromatic(closed, chrom) -> bool:
    """Frozen calibration: delta_chromatic = 2 * delta_classical, factor 1.
    The comparison is in the field: a polynomial never equals a fraction
    whose denominator is not 1."""
    return to_sympy(classical(closed)) == CLASSICAL(to_sympy(chrom, 2).compose(_delta, 2 * _delta))


_K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _admissible(a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def test_acceptance_08_chromatic_oracle():
    ok = True
    # unknot(a <= 8) against the loop/projector closed forms
    for a in range(9):
        closed = dimq_vector_recurrence_consistent(a)
        chrom = chromatic_eval(medial(unknot(a)), "ProjectorNormalized")
        ok = ok and _matches_chromatic(closed, chrom)
    # every admissible theta with labels <= 6
    for a, b, c in product(range(7), repeat=3):
        if not _admissible(a, b, c):
            continue
        r, s, t = AdmissibleTriple(a, b, c).rst
        closed = theta_vector(r, s, t)
        chrom = chromatic_eval(medial(theta_network(a, b, c)), "ProjectorNormalized")
        ok = ok and _matches_chromatic(closed, chrom)
    # every admissible tetrahedron with labels <= 4 evaluates like every
    # relabelling of it by a vertex permutation of K4
    orbits: dict = {}
    for labels in product(range(5), repeat=6):
        label = dict(zip(_K4_EDGES, labels))
        if not all(
            _admissible(*(label[e] for e in _K4_EDGES if v in e)) for v in range(1, 5)
        ):
            continue
        orbit = min(
            tuple(label[tuple(sorted((p[v0 - 1], p[v1 - 1])))] for v0, v1 in _K4_EDGES)
            for p in permutations((1, 2, 3, 4))
        )
        raw = chromatic_eval(medial(tetrahedron_network(list(labels))), "Raw")
        ok = ok and orbits.setdefault(orbit, raw) == raw
    # tetrahedron, all-1 grid: frozen golden value (brute-force derived)
    t1 = TetrahedronSymbol.from_grid([[1] * 4, [1] * 4, [1] * 4])
    raw = to_sympy(tetrahedron_chromatic(t1, "Raw"))
    ok = ok and raw == _delta**4 - 5 * _delta**3 + 8 * _delta**2 - 4 * _delta
    _report(8, "chromatic oracle", ok)


# 9 ------------------------------------------------------------------------


def _q1_at(x, k: int, Delta0: int):
    """The limit q -> 1 of x at level k, at Delta = Delta0, a rational."""
    val = to_sympy(q_to_one(integer_level(x, k)))
    assert not any(d for d, _ in val.numer.monoms() + val.denom.monoms())  # in Q(Delta)
    return val.numer(0, Delta0) / val.denom(0, Delta0)


def test_acceptance_09_gamma_oracle():
    ok = True
    crossing = SPIN_DELTA * fierz(1, 1)
    cases = [
        # (word, matching, closed form, m)
        ([0, 0], [(0, 1)], SPIN_DELTA * DELTA, 1),
        ([0, 0, 1, 1], [(0, 1), (2, 3)], SPIN_DELTA * DELTA**2, 2),
        ([0, 1, 1, 0], [(0, 3), (1, 2)], SPIN_DELTA * DELTA**2, 2),
        ([0, 1, 0, 1], [(0, 2), (1, 3)], crossing, 2),
        ([0, 0, 1, 1, 2, 2], [(0, 1), (2, 3), (4, 5)], SPIN_DELTA * DELTA**3, 3),
        ([0, 1, 2, 2, 1, 0], [(0, 5), (1, 4), (2, 3)], SPIN_DELTA * DELTA**3, 3),
        ([0, 0, 1, 2, 1, 2], [(0, 1), (2, 4), (3, 5)], DELTA * crossing, 3),
    ]
    long_cases = [
        ([0, 0, 1, 1, 2, 2, 3, 3],
         [(0, 1), (2, 3), (4, 5), (6, 7)], SPIN_DELTA * DELTA**4, 4),
    ]
    for k in (1, 2, 3):
        D0 = 2**k
        todo = cases + (long_cases if k <= 2 else [])
        for word, matching, closed, m in todo:
            g = gamma_oracle_trace(k, word, matching)
            c = _q1_at(closed, k, D0)
            # frozen rescaling: one factor of 2 per contracted pair
            ok = ok and (g == c * 2**m)
    _report(9, "gamma oracle", ok)


# 10 -----------------------------------------------------------------------


def test_acceptance_10_regression_ledger():
    # (i) every slip row of the registry: the printed form is wrong and the
    # corrected form right.  Direction pinned.
    ok = all(rows_hold(name) for name, check in CHECKS.items() if check.group == "slip")
    # (ii) printed F(a,0) closed form: disagrees with the completeness sum
    # at a = 1 (constant 1/2 where F(1,0) = [2n]/{0} = delta is required);
    # direction pinned by the exact ratio F(1,0) = 2 delta * printed.
    ok = ok and not equal(fierz(1, 0), fierz_a0(1))
    ok = ok and equal(fierz(1, 0), 2 * DELTA * fierz_a0(1))
    ok = ok and equal(fierz(1, 0) * brace(0), qint(2, 0))
    ok = ok and equal(fierz_a0(1), scalar.scalar(Fraction(1, 2)))
    _report(10, "regression ledger", ok)
