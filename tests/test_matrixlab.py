"""Braid matrices, spectral R-matrices, idempotent towers, quantum traces,
and the check registry."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exprtree import key_atoms, trees, value
from qspin import matrixlab
from qspin.errors import ParseError
from qspin.matrixlab import (
    CHECKS,
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
from qspin.scalar import FIELD, ONE, Q, U, Z, ScalarK, equal, integer_level, scalar


def test_sparse_matrix_algebra():
    I = SquareMatrixK.identity(3)
    z = SquareMatrixK.from_entries(3, ())
    assert (I @ I) == I
    assert (I + z) == I
    assert (I - I).is_zero()
    assert I.kron(I) == SquareMatrixK.identity(9)
    assert equal(I.trace(), 3 * ONE)
    a = SquareMatrixK.from_entries(2, [(0, 1, Q)])
    b = SquareMatrixK.from_entries(2, [(1, 0, Q)])
    assert equal((a @ b).entry(0, 0), Q * Q)
    assert (b @ a).entry(0, 0).is_zero()
    # scalars given for one position are summed; a sum of zero is no entry
    c = SquareMatrixK.from_entries(2, [(0, 1, Q), (0, 1, Q**-1), (1, 1, Q), (1, 1, -Q)])
    assert equal(c.entry(0, 1), Q + Q**-1)
    assert c.nnz() == 1
    with pytest.raises(TypeError):
        hash(I)


#: Every row of the registry, once.
ROWS = [(name, params) for name, check in CHECKS.items() for params in check.grid]


@pytest.mark.parametrize(
    "name,params", ROWS,
    ids=["-".join([name, *(f"{k}={v}" for k, v in params.items())])
         for name, params in ROWS],
)
def test_registry_row(name, params):
    # a slip row holds while the printed form fails and the corrected form
    # holds, so a silent "fix" of either turns it red
    assert CHECKS[name].fn(**params)


def test_dimq_sym_closed_vs_recursive():
    # the closed form is singular at level 1 but matches the telescoped
    # product generically (checked at level n = 2, 3 after specialization)
    for p in range(1, 4):
        for n in (2, 3):
            lhs = integer_level(dimq_sym_closed(p), n)
            rhs = integer_level(dimq_sym_recursive(p), n)
            assert equal(lhs, rhs)


def test_hecke_tower_and_quotient():
    # the registry's quotient row reads the 3-dim rep; this is the 2-dim one
    assert check_hecke_quotient("hecke2")


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
            # unhashable params fail validation before any memo lookup
            {"name": "ybe", "params": {"kind": "BMW_D", "rep": "tensor", "n": [1]}},
            {"name": "tower", "params": {"kind": ["E"], "n": 1, "p_max": 2}},
            # p_max must be a positive integer; 0 used to pass vacuously
            {"name": "tower", "params": {"kind": "E", "n": 1, "p_max": [2]}},
            {"name": "tower", "params": {"kind": "F", "n": 1, "p_max": "3"}},
            {"name": "tower", "params": {"kind": "E", "n": 1, "p_max": 0}},
            {"name": "quantum-dims", "params": {"n": 1, "p_max": [2]}},
            {"name": "quantum-dims", "params": {"n": 2, "p_max": "3"}},
            {"name": "quantum-dims", "params": {"n": 1, "p_max": 0}},
            {"name": "quantum-dims", "params": {"n": 1, "p_max": 2.0}},
        ],
    }
    out = run_manifest(doc)
    assert not out["all_passed"]
    passed = [r["passed"] for r in out["results"]]
    assert passed == [True, True, True] + [False] * 14
    for row in out["results"][3:6]:
        assert row["error"].startswith("ArgumentOutOfRange")
    # an identity row runs only on its grid: it has no size budget
    assert out["results"][6]["error"] == "params outside the registry grid"
    assert out["results"][7] == {
        "name": "no-such-check", "params": {}, "passed": False, "error": "unknown check"
    }
    assert out["results"][8]["error"].startswith("UnsupportedSize")
    for row in out["results"][9:]:
        assert row["error"].startswith("ArgumentOutOfRange"), row
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


def test_braid_data_and_towers_built_once():
    data = build_braid_data(2)
    assert build_braid_data(2) is data
    again = matrixlab._build_braid_data.__wrapped__(2)  # built afresh
    assert again is not data
    for name in ("sigma", "sigma_inv", "u_mat"):
        assert getattr(again, name) == getattr(data, name)
    assert again.mu == data.mu
    # the printed sigma^-1 display differs from the true inverse in 2n entries
    for n in (1, 2, 3):
        true_inv = build_braid_data(n).sigma_inv
        assert (matrixlab._sigma_inv_display(n, True) - true_inv).nnz() == 2 * n
        assert (matrixlab._sigma_inv_display(n, False) - true_inv).nnz() == 0

    long = idempotent_tower("F", data, 3)
    short = idempotent_tower("F", data, 2)
    assert sorted(short) == [1, 2]
    assert short[2] is long[2]
    assert idempotent_tower("F", data, 3) is not long  # a fresh dict
    short[2] = None  # changing the returned dict leaves the cache alone
    assert idempotent_tower("F", data, 2)[2] is long[2]
    # a tower built from scratch is the same
    matrixlab._tower.cache_clear()
    rebuilt = idempotent_tower("F", data, 3)
    assert rebuilt[3] is not long[3]
    assert all(rebuilt[p] == long[p] for p in (1, 2, 3))


def _assert_den_factors(x):
    """The content and keys _den_factors reads off x multiply out to the
    denominator of x's normal form."""
    cont, fac = matrixlab._den_factors(x)
    den = FIELD.ring(cont)
    for f, e in fac.items():
        den *= f**e
    assert den == x.nf.denom, x


def test_denominator_factors_of_check_all(monkeypatch):
    # every scalar a check-all pass puts into a matrix
    from qspin import cli

    seen = []
    den_factors = matrixlab._den_factors
    monkeypatch.setattr(
        matrixlab, "_den_factors", lambda x: seen.append(x) or den_factors(x)
    )
    for built in vars(matrixlab).values():
        if hasattr(built, "cache_clear"):
            built.cache_clear()
    assert cli.main(["check", "--all"]) == 0
    dens = {x.nf.denom: x for x in seen}
    assert len(dens) > 25
    for x in dens.values():
        _assert_den_factors(x)


@given(trees(key_atoms, depth=4))
@settings(max_examples=100, deadline=None)
def test_denominator_factors_of_random_values(tree):
    x = value(tree)
    if x:
        _assert_den_factors(x)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["E", "F"])
def test_kept_towers_are_reduced(kind, n):
    # each X(p) feeds X(p+1) = X(p) R X(p): a factor it kept in its
    # denominator and every numerator would be squared at the next level
    for p in (1, 2, 3):
        x = matrixlab._tower(kind, n, p)
        g = x.den
        for row in x.rows.values():
            for num in row.values():
                g = g.gcd(num)
        assert g == 1, (kind, n, p)


def test_cached_builds_are_shared_across_threads():
    # more threads than cores and a short switch interval: an unguarded
    # check-then-build would hand different threads different objects
    matrixlab._build_braid_data.cache_clear()
    matrixlab._tower.cache_clear()
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
    return SquareMatrixK.from_entries(len(ref), [
        (i, j, ScalarK.from_field_element(v))
        for i, row in enumerate(ref) for j, v in enumerate(row)
    ])


def _assert_matches(m, ref):
    """Entries equal the field reference, only nonzero entries are stored,
    and m equals the matrix built from the reference."""
    dim = len(ref)
    assert m.dim == dim
    for i in range(dim):
        for j in range(dim):
            assert m.entry(i, j).nf == ref[i][j]
            assert (j in m.rows.get(i, {})) == bool(ref[i][j])
    assert m.den.LC > 0
    assert m == _mat(ref)


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
    assert (a == b) == (ra == rb)


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
    single = SquareMatrixK.from_entries(a.dim, [(0, 0, c)])
    changed = a + single
    assert changed != a
    assert changed - a == single
