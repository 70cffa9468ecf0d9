"""Braid matrices, spectral R-matrices, idempotent towers, quantum traces,
and the check registry."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import matrix_oracle
import tuple_poly
from exprtree import key_atoms, trees, value
from registry_rows import row_holds
from qspin import matrixlab
from qspin.poly import MAX_EXPONENT, Poly, exquo, probe
from qspin.errors import (
    ArgumentOutOfRange,
    DivisorVanishes,
    ParseError,
    UnsupportedSize,
)
from qspin.matrixlab import (
    CHECKS,
    SquareMatrixK,
    build_braid_data,
    check_hecke_quotient,
    default_manifest,
    dimq_sym_closed,
    dimq_sym_recursive,
    idempotent_tower,
    manifest,
    quantum_trace,
    run_manifest,
)
from qspin.scalar import ONE, Q, U, V, Z, equal, scalar
from qspin.scalar import _expand, _over, _parts, _wrap
from sympy_bridge import FIELD, from_sympy, to_sympy


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
    assert row_holds(name, params)


@pytest.mark.parametrize("n", [1, 2])
def test_tensor_rep_generators_act_on_two_digits(n):
    # generator i of V^(x)p, lifted to the whole space, is X on the base-d
    # digits (i, i+1) of row and column, the most significant first, and 0
    # unless all other digits agree
    data = build_braid_data(n)
    d = data.d
    for p in (1, 2, 3, 4):
        rep = matrixlab._tensor_rep(n, p)
        dim = d**p
        assert rep.dim == dim and rep.zval == Q**n
        digits = [[k // d ** (p - 1 - t) % d for t in range(p)] for k in range(dim)]
        for mats, x in ((rep.sigmas, data.sigma), (rep.sigma_invs, data.sigma_inv),
                        (rep.u_mats, data.u_mat)):
            assert len(mats) == p - 1
            want = {}  # an entry of x by its position, read once
            for i, local in enumerate(mats):
                m = rep.lift(i, local)
                for r, dr in enumerate(digits):
                    row = m.rows.get(r, {})
                    for c, dc in enumerate(digits):
                        a, b = dr[i] * d + dr[i + 1], dc[i] * d + dc[i + 1]
                        outer = dr[:i] + dr[i + 2:] == dc[:i] + dc[i + 2:]
                        if not outer or b not in x.rows.get(a, {}):
                            assert c not in row, (n, p, i, r, c)
                            continue
                        if (a, b) not in want:
                            want[a, b] = x.entry(a, b)
                        assert equal(m.entry(r, c), want[a, b]), (n, p, i, r, c)


def _direct_R(rep, kind, i, w, d, p):
    """The oracle of R_i(w) on the tensor power V^(x)p, dim V = d, summed on
    the whole space: the coefficients of spectral_coeffs times sigma_i,
    sigma_i^-1 and u_i, each lifted to the whole space first."""
    cs, csi, cu, den = matrixlab.spectral_coeffs(kind, w, rep.zval)
    if den.is_zero():
        raise DivisorVanishes(f"{kind} denominator vanishes at this parameter")
    s, si, u = (SquareMatrixK.identity(d**i).kron(x)
                .kron(SquareMatrixK.identity(d ** (p - 2 - i)))
                for x in (rep.sigmas[i], rep.sigma_invs[i], rep.u_mats[i]))
    out = s.scale(cs / den) + si.scale(csi / den)
    if not cu.is_zero():
        out = out + u.scale(cu / den)
    return out


_KINDS = ("HeckeF", "HeckeE", "BMW_D", "BMW_A")


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_lifted_R_matches_the_direct_sum(n, p):
    rep = matrixlab._tensor_rep(n, p)
    d = build_braid_data(n).d
    for kind in _KINDS:
        for i in range(p - 1):
            for w in (U, U * V, Q ** (p - 1)):
                r = rep.R(kind, i, w)
                assert r.dim == d**p
                assert r == _direct_R(rep, kind, i, w, d, p), (kind, i, w)
    if n != 2:
        return
    # at z = q^2 the BMW_D u coefficient is (q - q^-1)^2, not 0: R of a rep
    # whose u_i are replaced reads the replacement, never the old u_i
    no_u = rep._replace(u_mats=tuple(SquareMatrixK.from_entries(u.dim, ())
                                     for u in rep.u_mats))
    for i in range(p - 1):
        for w in (U, U * V, Q ** (p - 1)):
            r = no_u.R("BMW_D", i, w)
            assert r == _direct_R(no_u, "BMW_D", i, w, d, p)
            assert r != rep.R("BMW_D", i, w)


def test_vanishing_spectral_denominator_is_refused():
    # w q - w^-1 q^-1 vanishes at w = q^-1; so does the BMW_D factor
    # w z q^-1 - w^-1 z^-1 q at z = q^2.  A refusal is not kept in the
    # coefficient table, so a repeated call is refused again.
    cases = [(matrixlab.hecke_two_dim_rep(), "HeckeF", 0),
             (matrixlab._tensor_rep(2, 3), "BMW_D", 1),
             (matrixlab._tensor_rep(1, 4), "HeckeE", 2)]
    for rep, kind, i in cases:
        for _ in range(2):
            with pytest.raises(DivisorVanishes, match=f"{kind} denominator vanishes"):
                rep.R(kind, i, Q**-1)
    with pytest.raises(ArgumentOutOfRange, match="unknown spectral kind"):
        matrixlab._tensor_rep(1, 3).R(["BMW_D"], 0, U)


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
            # True == 1 and 2.0 == 2: equal to a grid row, but not of its types
            {"name": "qbinom-recurrence", "params": {"a": True, "b": 0}},
            {"name": "hecke-dims", "params": {"p": 2.0}},
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
            {"name": "ybe", "params": {"kind": "BMW_D", "rep": "bogus"}},
            # [False, False] == [0, 0]: the grid compares the types in a list too
            {"name": "gamma-trace", "params": {"k": 1, "word": [False, False],
                                               "matching": [[0, 1]]}},
        ],
    }
    out = run_manifest(doc)
    assert not out["all_passed"]
    passed = [r["passed"] for r in out["results"]]
    assert passed == [True, True, True] + [False] * 18
    for row in out["results"][3:6]:
        assert row["error"].startswith("ArgumentOutOfRange")
    # an identity row runs only on its grid: it has no size budget
    for row in out["results"][6:9]:
        assert row["error"] == "params outside the registry grid"
    assert out["results"][9] == {
        "name": "no-such-check", "params": {}, "passed": False, "error": "unknown check"
    }
    for row in out["results"][10:-1]:
        assert row["error"].startswith("ArgumentOutOfRange"), row
    assert out["results"][-2]["error"] == "ArgumentOutOfRange: unknown representation 'bogus'"
    assert out["results"][-1]["error"] == "params outside the registry grid"
    with pytest.raises(ParseError):
        run_manifest({"format_version": 2, "checks": []})


def test_manifest_refuses_a_level_that_is_not_an_int():
    # True == 1 and 1.0 == 1, so a membership test alone took True for
    # level 1 and passed 1.0 and 2.0 on to a raw TypeError
    rows = [("braid-invariants", {"n": True}), ("braid-invariants", {"n": 1.0}),
            ("ybe", {"kind": "BMW_D", "rep": "tensor", "n": 2.0}),
            ("tower", {"kind": "E", "n": False, "p_max": 2}),
            ("quantum-dims", {"n": "2", "p_max": 2})]
    out = run_manifest({"checks": [{"name": k, "params": p} for k, p in rows]})
    for row in out["results"]:
        assert not row["passed"]
        assert row["error"] == (
            f"ArgumentOutOfRange: n must be an integer, not {row['params']['n']!r}")
    # {"n": True} equals a row of the slip entry's grid, but is not one
    out = run_manifest({"checks": [{"name": "sigma-inverse-display", "params": {"n": True}}]})
    assert out["results"][0]["error"] == "params outside the registry grid"
    # an integer level past 3 is a size
    out = run_manifest({"checks": [{"name": "braid-invariants", "params": {"n": 4}}]})
    assert out["results"][0]["error"] == (
        "UnsupportedSize: build_braid_data supports n in {1, 2, 3}")
    with pytest.raises(ArgumentOutOfRange):
        build_braid_data(True)


def test_printed_reps_refuse_a_level():
    # hecke2 and bmw3 have no level: a row that gives them one reported
    # PASS for whatever n it named
    rows = [{"kind": "HeckeF", "rep": "hecke2", "n": 99},
            {"kind": "HeckeF", "rep": "hecke2", "n": True},
            {"kind": "BMW_D", "rep": "bmw3", "n": 1}]
    out = run_manifest({"checks": [{"name": "ybe", "params": p} for p in rows]})
    for row in out["results"]:
        assert not row["passed"]
        assert row["error"] == (f"ArgumentOutOfRange: representation "
                                f"{row['params']['rep']!r} has no level n; "
                                f"got {row['params']['n']!r}")
    # the tensor rep still reads its level; the printed reps pass without one
    out = run_manifest({"checks": [
        {"name": "ybe", "params": {"kind": "BMW_D", "rep": "tensor", "n": 99}},
        {"name": "ybe", "params": {"kind": "HeckeF", "rep": "hecke2"}},
    ]})
    assert out["results"][0]["error"] == (
        "UnsupportedSize: build_braid_data supports n in {1, 2, 3}")
    assert out["results"][1]["passed"]
    assert not any("n" in row["params"] for row in default_manifest()["checks"]
                   if row["name"] == "ybe" and row["params"]["rep"] != "tensor")


def test_default_manifest_shape():
    doc = default_manifest()
    assert doc["format_version"] == matrixlab.MANIFEST_FORMAT_VERSION
    assert len(doc["checks"]) == 22
    assert {c["name"] for c in doc["checks"]} == {
        name for name, check in CHECKS.items() if check.group == "matrix"
    }
    assert {check.group for check in CHECKS.values()} == {"matrix", "identity", "slip"}


def test_rows_survive_a_manifest_file():
    # a manifest file holds JSON lists where a grid may hold tuples, and the
    # runner refuses identity and slip params that are not on the grid
    for name, check in CHECKS.items():
        items = json.loads(json.dumps(manifest([name])))["checks"]
        assert len(items) == len(check.grid)
        assert all(item["params"] in check.grid for item in items), name


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, -1], ids=repr)
@pytest.mark.parametrize("dim", [dimq_sym_recursive, dimq_sym_closed],
                         ids=["recursive", "closed"])
def test_symmetric_dims_refuse_non_counts(dim, bad):
    with pytest.raises(ArgumentOutOfRange, match="^p must be a nonnegative integer$"):
        dim(bad)
    # p = 0, below the registry grid, is the empty product of either form
    assert equal(dim(0), ONE)


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


def test_shared_braid_data_is_read_only():
    # build_braid_data hands every caller one cached object, and a tensor
    # rep holds its matrices: neither takes an assignment
    with pytest.raises(AttributeError):
        build_braid_data(1).mu = {}
    with pytest.raises(AttributeError):
        matrixlab._tensor_rep(1, 3).u_mats = ()


def _assert_den_factors(x):
    """The content and keys _parts reads off x multiply out to the
    denominator of x's normal form."""
    _, cont, fac = _parts(x)
    den = FIELD.ring(cont)
    for f, e in fac.items():
        den *= to_sympy(f) ** e
    assert den == to_sympy(x.nf).denom, x


def test_denominator_factors_of_check_all(monkeypatch):
    # every scalar a check-all pass puts into a matrix
    from qspin import cli

    seen = []
    parts = matrixlab._parts
    monkeypatch.setattr(matrixlab, "_parts", lambda x: seen.append(x) or parts(x))
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
        g = to_sympy(_expand(x._cont, 0, x._dfac))
        for row in x.rows.values():
            for num in row.values():
                g = g.gcd(to_sympy(num))
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
    return [[to_sympy(draw(_entries()).nf) for _ in range(dim)] for _ in range(dim)]


def _mat(ref):
    return SquareMatrixK.from_entries(len(ref), [
        (i, j, _wrap(from_sympy(v)))
        for i, row in enumerate(ref) for j, v in enumerate(row)
    ])


@given(st.one_of(_entries(), trees(key_atoms, depth=4).map(value)))
@settings(max_examples=100, deadline=None)
def test_parts_and_over_are_inverse(x):
    # both directions of the scalar/matrix boundary: a value's numerator,
    # content and denominator keys, and the value over them
    num, cont, keys = _parts(x)
    assert num == x.nf.numer
    _assert_den_factors(x)
    assert _over(num, cont, keys) == x


def _assert_matches(m, ref):
    """Entries equal the field reference, only nonzero entries are stored,
    and m equals the matrix built from the reference."""
    dim = len(ref)
    assert m.dim == dim
    for i in range(dim):
        for j in range(dim):
            assert to_sympy(m.entry(i, j).nf) == ref[i][j]
            assert (j in m.rows.get(i, {})) == bool(ref[i][j])
    assert _expand(m._cont, 0, m._dfac).LC > 0
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
    _assert_matches(a.scale(c), [[ra[i][j] * to_sympy(c.nf) for j in rng] for i in rng])
    dk = len(rk)
    _assert_matches(
        a.kron(small),
        [[ra[i // dk][j // dk] * rk[i % dk][j % dk] for j in range(dim * dk)]
         for i in range(dim * dk)],
    )
    assert to_sympy(a.trace().nf) == sum((ra[i][i] for i in rng), FIELD.zero)
    assert (a == b) == (ra == rb)


@given(st.integers(1, 3).flatmap(lambda p: _sparse(2**p)))
@settings(max_examples=30, deadline=None)
def test_quantum_trace_matches_field(sparse):
    # most drawn positions are off the diagonal, and must not reach the trace
    dim, entries = sparse
    data = build_braid_data(1)  # dim V = 2
    p = dim.bit_length() - 1
    mu = [to_sympy(data.mu[a].nf) for a in data.indices]
    want = FIELD.zero
    for i, j, v in entries:
        if i == j:
            w, t = FIELD.one, i
            for _ in range(p):
                w, t = w * mu[t % 2], t // 2
            want += to_sympy(v.nf) * w
    m = SquareMatrixK.from_entries(dim, entries)
    assert to_sympy(quantum_trace(m, data).nf) == want


def test_tower_budget_and_trace_dimension_are_typed_errors():
    with pytest.raises(UnsupportedSize, match="exceeds the dimension budget"):
        idempotent_tower("E", build_braid_data(3), 4)
    with pytest.raises(ArgumentOutOfRange, match="not a power of dim V"):
        quantum_trace(SquareMatrixK.identity(3), build_braid_data(1))


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


# --------------------------------------------------------------------------
# Packed numerators against the tuple-keyed arithmetic of matrix_oracle.


@st.composite
def _sparse(draw, dim):
    """dim and (i, j, value) entries of a dim x dim matrix: a position may
    be given more than once, most are left empty, and the values are
    exprtree values."""
    cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                     trees(key_atoms, depth=1))
    return dim, [(i, j, value(t)) for i, j, t in draw(st.lists(cell, max_size=dim + 2))]


def _same(m, o):
    """The packed matrix m holds what the oracle's matrix o holds: the same
    numerators and denominator keys, the same entries, and m.deg bounds
    every exponent."""
    assert m.dim == o.dim
    rows = {i: {j: dict(v.terms()) for j, v in row.items()}
            for i, row in m.rows.items()}
    assert rows == o.rows
    assert all(type(v) is Poly for row in m.rows.values() for v in row.values())
    assert (m._cont, m._dfac) == (o._cont, o._dfac)
    assert all(max(map(max, num)) <= m.deg for row in rows.values() for num in row.values())
    for i in range(m.dim):
        for j in range(m.dim):
            assert m.entry(i, j).nf == o.entry(i, j).nf


@pytest.mark.parametrize("kind", ["E", "F"])
def test_tower_entries_and_traces_match_the_oracle(kind):
    # entry and trace read a tower at n = 2 over its keys, with no gcd; the
    # oracle builds each field element by one cancel
    for p in (1, 2, 3):
        m = matrixlab._tower(kind, 2, p)
        orows = {i: {j: tuple_poly.TPoly.of(v) for j, v in row.items()}
                 for i, row in m.rows.items()}
        o = matrix_oracle.SquareMatrixK(m.dim, orows, m._cont, dict(m._dfac))
        _same(m, o)
        assert m.trace().nf == o.trace().nf


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_sparse(d), _sparse(d))),
       st.integers(1, 2).flatmap(_sparse), trees(key_atoms, depth=1))
@settings(max_examples=40, deadline=None)
def test_packed_matrices_match_the_oracle(pair, small, c):
    c = value(c)
    (dim, ea), (_, eb) = pair
    a, b = (SquareMatrixK.from_entries(dim, e) for e in (ea, eb))
    oa, ob = (matrix_oracle.SquareMatrixK.from_entries(dim, e) for e in (ea, eb))
    sk, ok = (cls.from_entries(*small)
              for cls in (SquareMatrixK, matrix_oracle.SquareMatrixK))
    _same(a, oa)
    _same(a @ b, oa @ ob)
    _same(a + b, oa + ob)
    _same(a - b, oa - ob)
    _same(a.scale(c), oa.scale(c))
    _same(a.kron(sk), oa.kron(ok))
    _same(matrixlab._reduce(a @ b), matrix_oracle._reduce(oa @ ob))
    assert (a == b) == (oa == ob)
    assert (a @ b == b @ a) == (oa @ ob == ob @ oa)
    assert a.trace().nf == oa.trace().nf
    # the n-ary sum over the common denominator that chained scalings and
    # sums reach; a zero scalar and a zero matrix add nothing to it, though
    # the first scales, and the second is scaled by, a fresh key's inverse
    w = (Q + 3).inv()
    zero, wide, ozero, owide = (
        m for cls in (SquareMatrixK, matrix_oracle.SquareMatrixK)
        for m in (cls.from_entries(dim, ()), cls.from_entries(dim, [(0, 0, w)])))
    _same(matrixlab._combination(dim, [(a, c), (wide, 0), (zero, w), (b, ONE), (a @ b, -c)]),
          oa.scale(c) + owide.scale(0) + ozero.scale(w) + ob.scale(ONE) + (oa @ ob).scale(-c))


@st.composite
def _repeated(draw, dim):
    """dim, a pool of one to three exprtree values, and two patterns of a
    dim x dim matrix over the pool: each position holds nothing, or a pool
    value's numerator itself (one Poly object at every position that holds
    it this way) or a copy of it built apart."""
    pool = [value(t) for t in draw(st.lists(trees(key_atoms, depth=1), min_size=1,
                                            max_size=3))]
    cell = st.one_of(st.none(), st.tuples(st.integers(0, len(pool) - 1), st.booleans()))
    patterns = [draw(st.lists(cell, min_size=dim * dim, max_size=dim * dim))
                for _ in range(2)]
    return dim, pool, patterns


def _from_pool(dim, base, pattern):
    """The program's and the oracle's matrix of a pattern of ``_repeated``:
    pool value k is the numerator at (k, 0) of base, over base's
    denominator."""
    rows = {}
    for at, cell in enumerate(pattern):
        num = cell and base.rows.get(cell[0], {}).get(0)
        if num:
            i, j = divmod(at, dim)
            rows.setdefault(i, {})[j] = Poly(num) if cell[1] else num
    orows = {i: {j: tuple_poly.TPoly.of(v) for j, v in row.items()}
             for i, row in rows.items()}
    return (SquareMatrixK(dim, rows, base._cont, dict(base._dfac), base.deg),
            matrix_oracle.SquareMatrixK(dim, orows, base._cont, dict(base._dfac)))


@given(st.integers(1, 3).flatmap(_repeated), trees(key_atoms, depth=1))
@settings(max_examples=40, deadline=None)
def test_repeated_numerators_match_the_oracle(drawn, c):
    # the kernels map each distinct numerator once and share the result
    # among the entries equal to it; the oracle maps every entry on its own
    dim, pool, patterns = drawn
    c = value(c)
    base = SquareMatrixK.from_entries(len(pool), [(k, 0, v) for k, v in enumerate(pool)])
    (a, oa), (b, ob) = (_from_pool(dim, base, p) for p in patterns)
    pairs = [(a @ b, oa @ ob), (a @ a, oa @ oa), (a + b, oa + ob), (a - b, oa - ob),
             (a.scale(c), oa.scale(c))]
    for m, o in pairs:
        _same(m, o)
    for m, o in [(a, oa), *pairs]:
        _same(matrixlab._reduce(m), matrix_oracle._reduce(o))
    assert (a == b) == (oa == ob)
    assert (a.scale(c) == b.scale(c)) == (oa.scale(c) == ob.scale(c))
    assert (a + b) - b == a


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(_sparse(d), _sparse(d))),
       trees(key_atoms, depth=1), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_entrywise_equality_matches_the_zero_test(pair, c, at, off):
    # each pair is built alike in the program and in the oracle; == agrees
    # with the zero test of the difference and with the oracle's ==
    c = value(c) or ONE
    (dim, ea), (_, eb) = pair
    i, j = divmod(at % (dim * dim), dim)
    k, l = divmod(off % (dim * dim), dim)
    verdicts = []
    for cls in (SquareMatrixK, matrix_oracle.SquareMatrixK):
        a, b = (cls.from_entries(dim, e) for e in (ea, eb))
        pairs = [
            (a, b),
            # equal, over larger unreduced denominators
            (a, (a + b) - b), (a.scale(c).scale(c.inv()), (a + b) - b),
            # one side lacks the entry (i, j), or has one more at (k, l)
            (a, a - cls.from_entries(dim, [(i, j, a.entry(i, j))])),
            (a, a + cls.from_entries(dim, [(k, l, c)])),
        ]
        verdicts.append([x == y for x, y in pairs])
        assert verdicts[-1] == [(x - y).is_zero() for x, y in pairs]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][1:3] == [True, True]
    assert not verdicts[0][4]
    assert verdicts[0][3] == a.entry(i, j).is_zero()


#: Integer polynomials in the five generators with exponents up to 40, as
#: {exponent tuple: coefficient} maps.
_wide_terms = st.dictionaries(st.tuples(*[st.integers(0, 40)] * 5),
                              st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=6)


@given(st.lists(_wide_terms, min_size=1, max_size=7))
@settings(max_examples=100, deadline=None)
def test_packed_probes_match_probe(terms):
    # probe reads each exponent off its field of the packed key; the
    # reference takes it from the exponent tuple
    for t in terms:
        assert probe(Poly.from_terms(t)) == tuple_poly.probe(tuple_poly.TPoly(t))


def test_degree_bound_past_the_field_width_is_refused():
    assert MAX_EXPONENT == 2**15 - 1
    big = Q ** 2**14
    a = SquareMatrixK.from_entries(2, [(0, 0, big), (0, 1, ONE), (1, 0, Q)])
    assert a.deg == 2**14
    # a bound at the largest exponent a field holds is still exact
    top = a @ SquareMatrixK.from_entries(2, [(0, 0, Q ** (2**14 - 1))])
    assert top.deg == 2**15 - 1
    assert equal(top.entry(0, 0), Q ** (2**15 - 1))
    for op in (lambda: a @ a, lambda: a.kron(a), lambda: a.scale(big),
               lambda: a - a.scale(big.inv()), lambda: a == a.scale(big.inv()),
               lambda: a.scale(Q ** 2**15),
               lambda: SquareMatrixK.from_entries(1, [(0, 0, Q ** 2**15)])):
        with pytest.raises(UnsupportedSize):
            op()
    assert equal(a.entry(0, 0), big) and equal(a.entry(1, 0), Q)


def test_product_at_the_field_width_keeps_its_column():
    # row i of a product sums its terms in one map, keyed by monomial and
    # column together; an exponent at the largest a field holds must leave
    # the column bits above it as they are, so the entry stays at (1, 2)
    a = SquareMatrixK.from_entries(3, [(1, 1, Q ** 2**14), (1, 0, Z)])
    b = SquareMatrixK.from_entries(3, [(1, 2, Q ** (2**14 - 1)), (0, 2, Q), (2, 0, ONE)])
    top = a @ b
    assert top.deg == MAX_EXPONENT
    want = Q**MAX_EXPONENT + Z * Q
    assert top.rows == {1: {2: want.nf.numer}}
    assert equal(top.entry(1, 2), want)


#: The poly.exquo calls of one ``qspin check --all``: _reduce divides each
#: distinct numerator of a kept tower matrix once per power it tries
#: (2,554 calls when it divided every entry).
CHECK_ALL_EXQUO_CALLS = 242


def test_check_all_divides_each_distinct_numerator_once():
    # in a fresh interpreter, where no tower is built yet
    script = """
import contextlib, io
from counting import counting
from qspin import cli, matrixlab
with counting(matrixlab, "exquo") as exquo, contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", "--all"]) == 0
print(exquo.count)
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(matrixlab.__file__).resolve().parent.parent),
                                         str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) == CHECK_ALL_EXQUO_CALLS


#: Integer polynomials in the five generators with small exponents, keyed
#: by exponent tuples.
_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 5), st.integers(-3, 3).filter(bool),
                         min_size=1, max_size=4).map(tuple_poly.TPoly)


def _packed_quotient(p, f):
    """p / f by the program's exquo on packed keys, unpacked, or None."""
    quo = exquo(p.to_program(), f.to_program())
    return quo if quo is None else tuple_poly.TPoly.of(quo)


@given(_polys, _polys, _polys)
@settings(max_examples=200, deadline=None)
def test_packed_division_matches_exquo(f, g, r):
    # against the schoolbook division of tuple-keyed polynomials
    for p in (f * g, f * g + r):
        if p:
            assert _packed_quotient(p, f) == tuple_poly.exquo(p, f)


def test_packed_division_stops_at_a_guard_bit():
    # dividing q^3 + z^27232 by q + z^20000: the quotient's second monomial
    # q z^20000 passes the room z^7232 that p leaves over f, which ends the
    # division before the remainder term q z^40000, past the field width
    # and read without its guard bit as q z^7232, could be formed
    tp = tuple_poly.TPoly
    q = (1, 0, 0, 0, 0)
    f = tp({q: 1, (0, 20000, 0, 0, 0): 1})
    p = tp({(3, 0, 0, 0, 0): 1, (0, 27232, 0, 0, 0): 1})
    assert _packed_quotient(p, f) is None
    assert tuple_poly.exquo(p, f) is None
    # below the bound the same division is exact
    f, g = (tp({q: 1, (0, 12000, 0, 0, 0): s}) for s in (1, -1))
    assert _packed_quotient(f * g, f) == g
    # q^4 - q^3 z^15046 - q^2 z^30092 over q - z^15046 meets the remainder
    # term q z^45138, past the bound; read without its guard bit as
    # q z^12370, the division would end in a wrong quotient
    f = tp({q: 1, (0, 15046, 0, 0, 0): -1})
    p = tp({(4, 0, 0, 0, 0): 1, (3, 15046, 0, 0, 0): -1, (2, 30092, 0, 0, 0): -1})
    assert _packed_quotient(p, f) is None
    assert tuple_poly.exquo(p, f) is None


def _in_q(coeffs: dict) -> Poly:
    """The polynomial in q with {exponent: coefficient} ``coeffs``."""
    return Poly.from_terms({(e, 0, 0, 0, 0): c for e, c in coeffs.items()})


def test_reduce_counts_each_key_down_to_the_power_that_divides():
    # how often a key cancels is decided by counting its power down from
    # its multiplicity until a pass divides: each case against the oracle
    # and against its pinned (content, keys, numerators)
    f, g = _in_q({1: 1, 0: 1}), _in_q({2: 1, 1: 1, 0: 1})
    a, b = _in_q({1: 1, 0: 2}), _in_q({1: 1})
    cases = [
        # f^3 below, and numerators that share only f^2
        ((1, {f: 3}, [f**2 * a, f**2 * b]), (1, {f: 1}, [a, b])),
        # a key that divides no numerator
        ((1, {g: 2}, [a, b]), (1, {g: 2}, [a, b])),
        # a key that cancels fully
        ((1, {f: 2}, [f**2 * b, f**3]), (1, {}, [b, f])),
        # a content every numerator shares
        ((6, {}, [_in_q({1: 4, 0: 2}), _in_q({0: 6})]),
         (3, {}, [_in_q({1: 2, 0: 1}), _in_q({0: 3})])),
    ]
    for (cont, dfac, nums), (rcont, rdfac, rnums) in cases:
        deg = max(num.degree() for num in nums)
        m = SquareMatrixK(2, {0: dict(enumerate(nums))}, cont, dict(dfac), deg)
        o = matrix_oracle.SquareMatrixK(
            2, {0: {j: tuple_poly.TPoly.of(num) for j, num in enumerate(nums)}},
            cont, dict(dfac))
        r = matrixlab._reduce(m)
        _same(r, matrix_oracle._reduce(o))
        assert (r.rows, r._cont, r._dfac) == ({0: dict(enumerate(rnums))}, rcont, rdfac)


def test_reduce_cancels_a_key_of_the_bound_degree():
    # (q + 1) / (q + 1) cancels though the key's degree equals the
    # matrix's degree bound: no bound on the power is read, only trial
    # division decides it
    m = SquareMatrixK.from_entries(1, [(0, 0, 1 / (Q + 1))]).scale(Q + 1)
    assert m.deg == 1 and m._dfac
    r = matrixlab._reduce(m)
    assert (r.rows, r._cont, r._dfac) == ({0: {0: {0: 1}}}, 1, {})
