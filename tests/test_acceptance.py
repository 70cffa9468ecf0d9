"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

All comparisons are exact (normal-form equality of rational functions, or
exact rational arithmetic); there are no tolerances.  Criteria touching a
documented formula slip in the source material assert the direction of
the discrepancy (failing-by-design), so a silent "fix" breaks the suite.
"""

import random
from fractions import Fraction

from q_limit import at_delta
from registry_rows import rows_hold

from qspin import scalar
from qspin.matrixlab import (
    CHECKS,
    check_quantum_dims,
    check_tower,
    check_unitarity,
    check_ybe,
)
from qspin.qcomb import brace, qint
from qspin.recoupling import (
    dimq_vector_recurrence_consistent,
    fierz,
    fierz_a0,
    fierz_recurrence_check,
    theta_vector,
)
from qspin.scalar import (
    DELTA,
    Q,
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
    # F(a, 1) against its closed form for a <= 6; at a = 1 that form is the
    # analytic anchor -[2n-2][2n]/({0}{1})
    ok = ok and rows_hold("fierz-a1")
    # the corrected recurrence holds for a, b <= 4; the printed one fails
    # exactly for b >= 1 (a slip row each) and holds at b = 0
    ok = ok and rows_hold("fierz-recurrence")
    ok = ok and rows_hold("fierz-recurrence-coefficient")
    ok = ok and all(fierz_recurrence_check(a, 0, printed=True) for a in range(5))
    _report(7, "fierz suite", ok)


# 8 ------------------------------------------------------------------------


def test_acceptance_08_chromatic_oracle():
    # unknots with a <= 8 and every admissible theta with labels <= 6 against
    # the loop and theta closed forms (delta_chromatic = 2 delta_classical),
    # and every admissible tetrahedron with labels <= 4 against each of its
    # relabellings by a vertex permutation of K4
    rows = ("unknot-chromatic", "theta-chromatic", "tetrahedron-relabelling")
    _report(8, "chromatic oracle", all(rows_hold(name) for name in rows))


# 9 ------------------------------------------------------------------------


def test_acceptance_09_gamma_oracle():
    # each word's trace, contracted per its matching, against the closed form
    # at q -> 1 and Delta = 2^k, one factor of 2 per contracted pair; k = 1,
    # 2, 3, the 8-letter word at k <= 2
    _report(9, "gamma oracle", rows_hold("gamma-trace"))


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
