"""Braid matrices, spectral R-matrices, idempotent towers, quantum traces,
and the check registry."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from registry_rows import NAMED, OTHER_ROWS, row_id, rows_hold

from qspin import matrixlab
from qspin.errors import ParseError
from qspin.matrixlab import (
    CHECKS,
    R_KINDS,
    SquareMatrixK,
    build_braid_data,
    check_hecke_quotient,
    default_manifest,
    dimq_sym_closed,
    dimq_sym_recursive,
    idempotent_tower,
    quantum_trace,
    run_manifest,
)
from qspin.scalar import FIELD, ONE, Q, U, Z, equal, integer_level, scalar


def test_sparse_matrix_algebra():
    I = SquareMatrixK.identity(3)
    z = SquareMatrixK.zero(3)
    assert (I @ I) == I
    assert (I + z) == I
    assert (I - I).is_zero()
    assert I.kron(I) == SquareMatrixK.identity(9)
    assert equal(I.trace(), 3 * ONE)
    a = SquareMatrixK.zero(2)
    a.add_to(0, 1, Q)
    b = SquareMatrixK.zero(2)
    b.add_to(1, 0, Q)
    assert equal((a @ b).entry(0, 0), Q * Q)
    assert (b @ a).entry(0, 0).is_zero()


@pytest.mark.parametrize("name,params", OTHER_ROWS,
                         ids=[row_id(*r) for r in OTHER_ROWS])
def test_registry_row(name, params):
    # the rows no named test runs.  A slip row holds while the printed form
    # fails and the corrected form holds, so a silent "fix" turns it red
    assert CHECKS[name].fn(**params)


@pytest.mark.parametrize("n", [1, 2])
def test_braid_invariants(n):
    assert rows_hold("braid-invariants", n=n)


def test_sigma_inverse_display_mismatch_documented():
    assert rows_hold("sigma-inverse-display")


@pytest.mark.parametrize("kind", sorted(R_KINDS))
def test_ybe_in_small_reps(kind):
    rep = "bmw3" if kind.startswith("BMW") else "hecke2"
    assert rows_hold("ybe", kind=kind, rep=rep)
    assert rows_hold("unitarity", kind=kind, rep=rep)


@pytest.mark.parametrize("kind", ["BMW_D", "BMW_A"])
def test_ybe_in_tensor_rep(kind):
    assert rows_hold("ybe", kind=kind, rep="tensor")


@pytest.mark.parametrize("kind", ["E", "F"])
@pytest.mark.parametrize("n", [1, 2])
def test_towers(kind, n):
    assert rows_hold("tower", kind=kind, n=n)


@pytest.mark.parametrize("n", [1, 2])
def test_quantum_dims(n):
    assert rows_hold("quantum-dims", n=n)


def test_dimq_sym_closed_vs_recursive():
    # the closed form is singular at level 1 but matches the telescoped
    # product generically (checked at level n = 2, 3 after specialization)
    for p in range(1, 4):
        for n in (2, 3):
            lhs = integer_level(dimq_sym_closed(p), n)
            rhs = integer_level(dimq_sym_recursive(p), n)
            assert equal(lhs, rhs)


def test_hecke_tower_and_quotient():
    assert rows_hold("hecke-tower")
    assert rows_hold("hecke-quotient")
    # the registry's quotient row reads the 3-dim rep; this is the 2-dim one
    assert check_hecke_quotient("hecke2")


def test_crossing_symmetry_report():
    assert rows_hold("crossing-symmetry-D")
    assert rows_hold("crossing-prefactor")


def test_manifest_runner():
    doc = {  # no format_version: it reads as 1
        "checks": [
            {"name": "braid-invariants", "params": {"n": 1}},
            {"name": "quantum-dims", "params": {"n": 3, "p_max": 2}},
            {"name": "fierz-a0", "params": {"a": 1}},
            {"name": "ybe", "params": {"kind": "nope", "rep": "bmw3"}},
            {"name": "hecke-tower", "params": {"kind": "X"}},
            {"name": "tower", "params": {"kind": "X", "n": 1, "p_max": 2}},
            {"name": "fierz-recurrence", "params": {"a": 500, "b": 0}},
            {"name": "no-such-check"},
        ],
    }
    out = run_manifest(doc)
    assert not out["all_passed"]
    passed = [r["passed"] for r in out["results"]]
    assert passed == [True, True, True, False, False, False, False, False]
    for row in out["results"][3:6]:
        assert row["error"].startswith("ArgumentOutOfRange")
    # an identity row runs only on its grid: it has no size budget
    assert out["results"][6]["error"] == "params outside the registry grid"
    assert out["results"][7] == {
        "name": "no-such-check", "params": {}, "passed": False, "error": "unknown check"
    }
    with pytest.raises(ParseError):
        run_manifest({"format_version": 2, "checks": []})


def test_default_manifest_shape():
    doc = default_manifest()
    assert doc["format_version"] == matrixlab.MANIFEST_FORMAT_VERSION
    assert len(doc["checks"]) == 22
    assert {c["name"] for c in doc["checks"]} == {
        name for name, check in CHECKS.items() if check.group == "matrix"
    }
    assert {check.group for check in CHECKS.values()} == {"matrix", "identity", "slip"}
    assert NAMED <= CHECKS.keys()


def test_braid_data_and_towers_built_once():
    data = build_braid_data(2)
    assert build_braid_data(2) is data
    again = matrixlab._build_braid_data(2)
    for name in ("sigma", "sigma_inv", "u_mat"):
        assert getattr(again, name) == getattr(data, name)
    assert again.mu == data.mu
    assert len(build_braid_data(1).sigma_inv_display_mismatches) == 2
    assert len(data.sigma_inv_display_mismatches) == 4

    long = idempotent_tower("F", data, 3)
    short = idempotent_tower("F", data, 2)
    assert sorted(short) == [1, 2]
    assert short[2] is long[2]
    assert idempotent_tower("F", data, 3) is not long  # a fresh dict
    short[2] = None  # changing the returned dict leaves the cache alone
    assert idempotent_tower("F", data, 2)[2] is long[2]
    # a tower built from scratch is the same
    matrixlab._TOWERS.pop(("F", id(data)))
    rebuilt = idempotent_tower("F", data, 3)
    assert all(rebuilt[p] == long[p] for p in (1, 2, 3))


def test_cached_builds_are_shared_across_threads():
    # more threads than cores and a short switch interval: an unguarded
    # check-then-build would hand different threads different objects
    matrixlab._BRAID_DATA.pop(1, None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(lambda: idempotent_tower("E", build_braid_data(1), 3))
                for _ in range(16)
            ]
            towers = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(old)
    data = build_braid_data(1)
    assert all(t[3] is towers[0][3] for t in towers)
    assert idempotent_tower("E", data, 3)[3] is towers[0][3]


# --------------------------------------------------------------------------
# The fraction-free matrix layer against the same computation entry by
# entry in the field.

_GENS = (Q, Z, U)


@st.composite
def _laurent_monomials(draw):
    c = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]))
    out = scalar(c)
    for g in _GENS:
        out = out * g ** draw(st.integers(-2, 2))
    return out


#: Binomial denominators.  The program's matrices share a few denominator
#: factors and a small pool keeps that shape: with sixteen unrelated
#: binomials per matrix one example costs seconds, mostly in the field
#: reference and in reading the entries back.
_DENOMINATORS = [Q + 1, Q - Z, Z * U + 2, Q**2 - U]


def _entries():
    """Zero, constants, Laurent monomials and binomials, and monomials over
    binomials, so that entries have differing denominators."""
    return st.one_of(
        st.just(scalar(0)),
        st.sampled_from([scalar(1), scalar(-1), scalar(Fraction(3, 5))]),
        _laurent_monomials(),
        st.builds(lambda a, b: a + b, _laurent_monomials(), _laurent_monomials()),
        st.builds(lambda a, b: a / b, _laurent_monomials(),
                  st.sampled_from(_DENOMINATORS)),
    )


@st.composite
def _matrices(draw, dim):
    return [[draw(_entries()).nf for _ in range(dim)] for _ in range(dim)]


def _mat(ref):
    return SquareMatrixK.from_rows(ref)


def _assert_matches(m, ref):
    """Entries equal the field reference, and the form is canonical."""
    dim = len(ref)
    assert m.dim == dim
    for i in range(dim):
        for j in range(dim):
            assert m.entry(i, j).nf == ref[i][j]
            assert (j in m.rows.get(i, {})) == bool(ref[i][j])
    assert m.den.LC > 0
    g = m.den
    for row in m.rows.values():
        for num in row.values():
            g = g.gcd(num)
    assert g == 1  # no nonunit factor, integer or polynomial, is common


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(_matrices(d), _matrices(d))),
       st.integers(1, 2).flatmap(_matrices), _entries())
@settings(max_examples=25, deadline=None)
def test_matrix_algebra_matches_field(pair, rk, c):
    ra, rb = pair
    a, b, small = _mat(ra), _mat(rb), _mat(rk)
    dim = len(ra)
    rng = range(dim)
    _assert_matches(a, ra)
    _assert_matches(
        a @ b,
        [[sum((ra[i][k] * rb[k][j] for k in rng), FIELD.zero) for j in rng]
         for i in rng],
    )
    _assert_matches(a + b, [[ra[i][j] + rb[i][j] for j in rng] for i in rng])
    _assert_matches(a - b, [[ra[i][j] - rb[i][j] for j in rng] for i in rng])
    _assert_matches(a.scale(c), [[ra[i][j] * c.nf for j in rng] for i in rng])
    dk = len(rk)
    _assert_matches(
        a.kron(small),
        [[ra[i // dk][j // dk] * rk[i % dk][j % dk] for j in range(dim * dk)]
         for i in range(dim * dk)],
    )
    assert a.trace().nf == sum((ra[i][i] for i in rng), FIELD.zero)


@given(st.integers(1, 2).flatmap(lambda p: _matrices(2**p)))
@settings(max_examples=30, deadline=None)
def test_quantum_trace_matches_field(ref):
    data = build_braid_data(1)  # dim V = 2
    dim = len(ref)
    p = dim.bit_length() - 1
    mu = [data.mu[a].nf for a in data.indices]
    want = FIELD.zero
    for i in range(dim):
        w, t = FIELD.one, i
        for _ in range(p):
            w, t = w * mu[t % 2], t // 2
        want += ref[i][i] * w
    assert quantum_trace(_mat(ref), data).nf == want


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_matrices(d), _matrices(d))),
       _laurent_monomials())
@settings(max_examples=30, deadline=None)
def test_matrix_equality_is_exact(pair, c):
    ra, rb = pair
    a, b = _mat(ra), _mat(rb)
    # the same matrix reached through larger unreduced denominators
    assert (a + b) - b == a
    assert a.scale(c).scale(c.inv()) == a
    assert a.kron(SquareMatrixK.identity(1)) == a
    changed = a.copy()
    changed.add_to(0, 0, c)
    assert changed != a
    assert changed - a == SquareMatrixK.from_rows(
        [[c if (i, j) == (0, 0) else 0 for j in range(a.dim)] for i in range(a.dim)]
    )
