"""Explicit matrices for the braid generators and all four spectral
R-matrix families, Yang-Baxter / unitarity / crossing checks, the
idempotent towers E(p) and F(p), and quantum traces at z = q^n.

Conventions:

* V has basis e_i, i in {-n, ..., -1, 1, ..., n}.  The displayed weight
  q^{(i+j)/2} is realized with the integer weight rho(i) = sign(i)(|i|-1)
  in place of i/2, so no square root of q is ever adjoined.  The registry
  rows verify the structure invariants for this choice: braid-invariants
  checks sigma sigma^-1 = 1, loop absorption, the twist eigenvalues and the
  braid relation, and quantum-dims, whose p = 1 case is tr mu = loop,
  checks the trace calibration.
* Matrices are sparse and fraction-free: rows[i][j] holds a nonzero
  integer-coefficient polynomial numerator and one denominator ``den`` is
  shared by all entries, kept as the keys of the scalars' reduced factor
  maps (generators, cyclotomic keys and sum keys).  A numerator is a
  ``poly.Poly``, whose monomial keys are one int each, q's exponent in the
  top field.  ``@`` builds each row of a product in one map of ints: the
  column sits above the monomial fields of a key, so a term product is one
  int addition (Gustavson's row-wise product, ACM TOMS 4(3), 1978).  Each
  matrix carries a bound ``deg`` on its exponents, and one past
  ``poly.MAX_EXPONENT`` raises UnsupportedSize, so that addition never
  carries a field into the next or into the column; every other product,
  and exact division, is ``poly``'s own.  Products and sums multiply and
  add polynomials only and divide nothing.  A map over every entry
  (scaling, exact division, content) works on each distinct numerator
  once and shares the result among the entries equal to it (``_mapped``):
  the tower matrices hold few distinct numerators in many places.
  ``a == b`` compares entry by entry over a common denominator: the same
  positions, and equal numerators once each side is brought to it.  Only
  the tower matrices X(p), which are kept and feed X(p+1), are reduced, by
  trial division alone (``_reduce``).  A field element is built (one
  cancel) only when an entry is read.
* Inside BraidData, z is specialized to q^n throughout.
"""

from __future__ import annotations

import threading
from functools import cache, wraps
from itertools import product
from math import gcd
from time import perf_counter
from typing import Callable, NamedTuple

from . import networks, qcomb, recoupling
from .errors import (
    ArgumentOutOfRange,
    DivisorVanishes,
    ParseError,
    UnsupportedSize,
    check_counts,
)
from .poly import FIELD_BITS, MAX_EXPONENT, MAX_GENS, Poly, exquo, pack
from .qcomb import brace, qbinom_ext, qint
from .recoupling import dimq_vector_recurrence_consistent
from .scalar import FIELD, ONE, QDIFF, Q, U, V, Z, ScalarK, equal, integer_level, scalar
from .scalar import _expand, _fac_mul

#: Guards every _built_once cache: library callers may build from threads.
_CACHE_LOCK = threading.RLock()


def _built_once(build):
    """``functools.cache`` of ``build`` entered under _CACHE_LOCK: every call
    after the first, from any thread, gets the object the first built, which
    callers must not mutate.  ``__wrapped__`` builds afresh.  Arguments are
    cache keys: callers validate them first."""
    cached = cache(build)

    @wraps(build)
    def once(*args):
        with _CACHE_LOCK:
            return cached(*args)

    once.cache_clear = cached.cache_clear
    return once


# --------------------------------------------------------------------------
# Integer polynomials in (q, z, Delta, u, v): numerators and denominators.

#: The generators q, z, Delta, u, v, as keys of a denominator.
_GENS = tuple(Poly({pack(tuple(int(j == i) for j in range(5))): 1}) for i in range(5))
#: The polynomial 1.
_ONE = Poly({0: 1})
#: The shift of the column above the monomial key in a product's row
#: accumulator (``SquareMatrixK.__matmul__``), and the mask of the key.
_COL = MAX_GENS * FIELD_BITS
_MONO = (1 << _COL) - 1


def _bounded(deg: int) -> int:
    """deg, if a field of a monomial key holds it."""
    if deg > MAX_EXPONENT:
        raise UnsupportedSize(f"matrix entries of degree up to {deg} exceed {MAX_EXPONENT}")
    return deg


def _den_factors(x: ScalarK) -> tuple[int, dict]:
    """(content, {key: multiplicity}) of the denominator of ``x.nf``, read
    off the reduced factor map as it is: the constant's denominator, the
    generators of the monomial, and the cyclotomic and sum keys."""
    fac = {g: -e for g, e in zip(_GENS, x._mono) if e < 0}
    fac.update((f, -e) for f, e in x._reduced().items() if e < 0)
    return x._c.denominator, fac


def _common_den(dens: list) -> tuple[int, dict, list]:
    """A common multiple of denominators given as (content, keys): the lcm
    of the contents times each key to its largest exponent, as (content,
    keys), and for each denominator the polynomial multiple / denominator.
    Sum keys may share factors, so the multiple need not be the least."""
    cont, fac = 1, {}
    for c, f in dens:
        cont = cont * c // gcd(cont, c)
        for p, e in f.items():
            fac[p] = max(fac.get(p, 0), e)
    mults = [_expand(cont // c, 0, _fac_mul(fac, f, -1)) for c, f in dens]
    return cont, fac, mults


def _add_into(rows: dict, i: int, j: int, num: Poly) -> None:
    """rows[i][j] += num, dropping an entry (and a row) that sums to zero."""
    row = rows.setdefault(i, {})
    num = row[j] + num if j in row else num
    if num:
        row[j] = num
    else:
        row.pop(j, None)
        if not row:
            del rows[i]


def _mapped(rows: dict, fn) -> dict | None:
    """New row dicts with fn(v) for every numerator v, or None as soon as
    fn gives None.  fn is called once per distinct numerator: an entry
    equal to one already mapped shares its result."""
    memo: dict = {}
    out = {}
    for i, row in rows.items():
        orow = {}
        for j, v in row.items():
            r = memo.get(v)
            if r is None:
                r = memo[v] = fn(v)
                if r is None:
                    return None
            orow[j] = r
        out[i] = orow
    return out


def _scaled(rows: dict, m: Poly) -> dict:
    """Row dicts with every numerator times m: ``rows`` itself when m is
    1, which callers must not mutate."""
    return rows if m == _ONE else _mapped(rows, lambda v: v * m)


def _combination(dim: int, terms) -> "SquareMatrixK":
    """The sum of c m over the (matrix m, scalar c) terms, every m of
    dimension dim, over one common denominator (``_common_den``) of each
    term's m.den times the denominator of c.  Each term's distinct
    numerators are multiplied once, by its multiple times the numerator of
    c; a zero scalar or a zero matrix adds nothing.  Entries, sums,
    scalings, R-matrices and the skein relations are all built here."""
    live = []
    for m, c in terms:
        if m.dim != dim:
            raise ArgumentOutOfRange("dimension mismatch in matrix sum")
        c = scalar(c)
        if c and m.rows:
            live.append((m, c))
    cont, dfac, mults = _common_den([_den_product(m, c) for m, c in live])
    rows: dict = {}
    deg = 0
    for (m, c), mult in zip(live, mults):
        k = mult * c.nf.numer
        deg = max(deg, m.deg + k.degree())
        for i, row in _scaled(m.rows, k).items():
            for j, v in row.items():
                _add_into(rows, i, j, v)
    return SquareMatrixK(dim, rows, cont, dfac, deg)


class SquareMatrixK:
    """Sparse square matrix over the coefficient field, an immutable value.

    ``rows[i][j]`` is the numerator of a nonzero entry, a ``poly.Poly``,
    and ``den`` the one denominator of all entries, kept as a content and
    a map of ``Poly`` keys to multiplicities (``_den_factors``).  ``deg``
    bounds every exponent of every numerator: a product or a Kronecker
    product adds its operands' bounds, a linear combination takes the
    largest of each term's bound plus the degree of the factor that scales
    it (``_combination``), and a bound past ``poly.MAX_EXPONENT`` raises
    UnsupportedSize, so the row accumulator of ``@``, which adds monomial
    keys with the column above them, never carries a field into its guard
    bit or the column.  Products and sums take numerators and keys as
    they come, with no division, so the form is not unique: equality is
    decided entry by entry over a common denominator, and only the kept
    tower matrices are reduced (``_reduce``).  ``entry`` wraps an entry
    as ScalarK, split from its reduced fraction; every specialization,
    the classical one included, reads it like any other value.
    Numerators are shared between matrices, and between the entries of
    one matrix that hold equal ones (``_mapped``), and never mutated.

    Build matrices with ``from_entries`` or ``identity``; the operations
    return new matrices.  Sums, differences, scalings and entries are
    linear combinations, each one call of ``_combination``.
    """

    __slots__ = ("dim", "rows", "deg", "_cont", "_dfac", "_den")

    def __init__(self, dim: int, rows: dict, cont: int, dfac: dict, deg: int):
        """rows over the denominator cont * prod(f^e) over ``dfac``, every
        exponent of a numerator at most ``deg``.  ``rows`` and ``dfac`` are
        taken over and never changed."""
        if dim < 1:
            raise ArgumentOutOfRange("matrix dimension must be positive")
        self.deg = _bounded(deg)
        if not rows:
            cont, dfac = 1, {}
        self.dim = dim
        self.rows: dict[int, dict[int, Poly]] = rows
        self._cont = cont
        self._dfac = dfac
        self._den = None

    @property
    def den(self):
        """The denominator multiplied out, on first use."""
        if self._den is None:
            self._den = _expand(self._cont, 0, self._dfac)
        return self._den

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_entries(dim: int, entries) -> "SquareMatrixK":
        """The matrix whose (i, j) entry is the sum of the scalars (ScalarK
        or int) given for it in ``entries``, an iterable of (i, j, value);
        positions not given are zero.  It is the combination of the unit
        matrices E_ij with the values."""
        return _combination(dim, [(SquareMatrixK(dim, {i: {j: _ONE}}, 1, {}, 0), val)
                                  for i, j, val in entries])

    @staticmethod
    def identity(dim: int) -> "SquareMatrixK":
        return SquareMatrixK(dim, {i: {i: _ONE} for i in range(dim)}, 1, {}, 0)

    # -- entry access --------------------------------------------------------

    def entry(self, i: int, j: int) -> ScalarK:
        """Entry (i, j) as a field element.  Besides the tests, the
        benchmark's numeric tower check reads entries through it."""
        num = self.rows.get(i, {}).get(j)
        if num is None:
            return ScalarK.from_field_element(FIELD.zero)
        return ScalarK.from_field_element(FIELD.new(num, self.den))

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "SquareMatrixK") -> "SquareMatrixK":
        if self.dim != other.dim:
            raise ArgumentOutOfRange("dimension mismatch in matrix product")
        deg = _bounded(self.deg + other.deg)
        # each row of other as one list of terms: c x^m of entry (k, j) as
        # (m + (j << _COL), c), so that row i of the product sums in one
        # map, a_ik times row k for each k; deg keeps every key's fields
        # below _COL, so no sum carries into the column
        flat = {k: [(m + (j << _COL), c) for j, bval in brow.items() for m, c in bval.items()]
                for k, brow in other.rows.items()}
        rows = {}
        for i, arow in self.rows.items():
            acc: dict[int, int] = {}
            get = acc.get
            for k, aval in arow.items():
                bterms = flat.get(k)
                if bterms:
                    for ma, ca in aval.items():
                        for m, cb in bterms:
                            m += ma
                            acc[m] = get(m, 0) + ca * cb
            row: dict[int, dict] = {}
            for m, c in acc.items():
                if c:
                    j = m >> _COL
                    t = row.get(j)
                    if t is None:
                        t = row[j] = {}
                    t[m & _MONO] = c
            if row:
                rows[i] = {j: Poly(t) for j, t in row.items()}
        return SquareMatrixK(self.dim, rows, *_den_product(self, other), deg)

    def __add__(self, other: "SquareMatrixK") -> "SquareMatrixK":
        return _combination(self.dim, [(self, 1), (other, 1)])

    def __sub__(self, other: "SquareMatrixK") -> "SquareMatrixK":
        return _combination(self.dim, [(self, 1), (other, -1)])

    def scale(self, c) -> "SquareMatrixK":
        return _combination(self.dim, [(self, c)])

    def __eq__(self, other) -> bool:
        """Whether both sides hold the same entries, decided entry by entry
        over their common denominator: the same positions hold an entry,
        and num_a m_a == num_b m_b at each, m_a and m_b the multiples that
        bring each side's denominator to the common one (a side whose
        multiple is 1 is compared as it is).  Nothing is subtracted."""
        if not isinstance(other, SquareMatrixK):
            return NotImplemented
        if self.dim != other.dim:
            return False
        *_, (ma, mb) = _common_den([(self._cont, self._dfac), (other._cont, other._dfac)])
        return _scaled(self.rows, ma) == _scaled(other.rows, mb)

    def is_zero(self) -> bool:
        return not self.rows

    def kron(self, other: "SquareMatrixK") -> "SquareMatrixK":
        d2 = other.dim
        rows = {}
        for i, arow in self.rows.items():
            for k, brow in other.rows.items():
                orow = rows.setdefault(i * d2 + k, {})
                for j, aval in arow.items():
                    for l, bval in brow.items():
                        orow[j * d2 + l] = aval * bval
        return SquareMatrixK(self.dim * d2, rows, *_den_product(self, other),
                            self.deg + other.deg)

    def trace(self) -> ScalarK:
        acc = Poly()
        for i, row in self.rows.items():
            v = row.get(i)
            if v is not None:
                acc = acc + v
        return ScalarK.from_field_element(FIELD.new(acc, self.den))


def _den_product(a: SquareMatrixK, b) -> tuple[int, dict]:
    """(content, keys) of a.den times the denominator of b, a matrix or a
    ScalarK."""
    if isinstance(b, SquareMatrixK):
        bcont, bfac = b._cont, b._dfac
    else:
        bcont, bfac = _den_factors(b)
    return a._cont * bcont, _fac_mul(a._dfac, bfac)


def _reduce(m: SquareMatrixK) -> SquareMatrixK:
    """m with each key of its denominator cancelled as often as it divides
    every numerator, and then the content all numerators share.

    A key f of multiplicity e divides out as f^k in one pass over the
    distinct numerators (F(3) at n = 2 has 400 entries and 22 distinct
    numerators), k the largest power, counting down from e, for which
    that pass succeeds.  No probe value guides k: the tower keys nearly
    always divide out whole, so the numerators' values at a probe point,
    which would rule out a failing pass, cost more than the passes they
    save (679 values to save 10 of 37 passes in one ``check --all``)."""
    rows, left = m.rows, {}
    for f, e in m._dfac.items():
        k = e
        while k:
            fk = f**k
            quo = _mapped(rows, lambda num: exquo(num, fk))
            if quo is not None:
                rows = quo
                break
            k -= 1
        if e > k:
            left[f] = e - k
    cont = m._cont
    g = gcd(cont, *(c for row in rows.values() for num in row.values()
                    for c in num.values()))
    if g != 1:
        cont //= g
        rows = _mapped(rows, lambda num: num.div_term(0, g))
    return SquareMatrixK(m.dim, rows, cont, left, m.deg)


# --------------------------------------------------------------------------
# Braid data on V (x) V at z = q^n.


def _rho(i: int) -> int:
    return (abs(i) - 1) * (1 if i > 0 else -1)


class BraidData(NamedTuple):
    """Braid matrices on V (x) V with z specialized to q^n.

    ``indices`` orders the basis of V; ``mu`` is the quantum-trace weight
    mu_a = w(-a, -a)^-1 (see _basis and quantum_trace), with which both
    partial closures of u_mat are the identity.
    """

    n: int
    indices: list
    sigma: SquareMatrixK
    sigma_inv: SquareMatrixK
    u_mat: SquareMatrixK
    mu: dict

    @property
    def d(self) -> int:
        return 2 * self.n

    @property
    def loop(self) -> ScalarK:
        return integer_level(brace(1) * qint(1, 0), self.n)


def _level(n) -> int:
    """n, if braid data exists at level n."""
    if type(n) is not int:
        raise ArgumentOutOfRange(f"n must be an integer, not {n!r}")
    if n not in (1, 2, 3):
        raise UnsupportedSize("build_braid_data supports n in {1, 2, 3}")
    return n


def build_braid_data(n: int) -> BraidData:
    """Construct sigma, sigma^-1, u on V (x) V for n in {1, 2, 3}.

    The skein relation sigma^-1 = sigma - (q - q^-1)(1 - u) defines
    sigma^-1; the braid-invariants rows check that it is a true inverse
    (its printed display is not: see check_sigma_inv_display).  The data
    is built once per n per process and shared: callers must not mutate it.
    """
    return _build_braid_data(_level(n))


@_built_once
def _basis(n: int):
    """The basis order of V; P(a, c), the position of e_a (x) e_c in
    V (x) V; and the weights w(i, j) = q^(rho(i) + rho(j))."""
    idx = [*range(-n, 0), *range(1, n + 1)]
    pos = {i: k for k, i in enumerate(idx)}
    w = {(i, j): Q ** (_rho(i) + _rho(j)) for i in idx for j in idx}
    return idx, lambda a, c: pos[a] * 2 * n + pos[c], w


@_built_once
def _build_braid_data(n: int) -> BraidData:
    idx, P, w = _basis(n)
    qi = Q**-1

    def sigma_entries():
        for i in idx:
            yield P(i, i), P(i, i), Q
            yield P(i, -i), P(-i, i), qi
            for j in idx:
                if j != i and j != -i:
                    yield P(i, j), P(j, i), ONE
                if i < j:
                    yield P(i, j), P(i, j), QDIFF
                if j < -i:
                    yield P(i, -i), P(j, -j), -(QDIFF * w[i, j])

    dim = 4 * n * n
    u_mat = SquareMatrixK.from_entries(
        dim, ((P(i, -i), P(j, -j), w[i, j]) for i in idx for j in idx)
    )
    sigma = SquareMatrixK.from_entries(dim, sigma_entries())
    one = SquareMatrixK.identity(dim)
    sigma_inv = _combination(dim, [(sigma, 1), (one, -QDIFF), (u_mat, QDIFF)])
    mu = {a: w[-a, -a].inv() for a in idx}
    return BraidData(n=n, indices=idx, sigma=sigma, sigma_inv=sigma_inv, u_mat=u_mat,
                     mu=mu)


def _sigma_inv_display(n: int, printed: bool) -> SquareMatrixK:
    """The displayed sum for sigma^-1 on V (x) V.  Its E_(-i,i) (x) E_(i,-i)
    terms are printed as -q; the true inverse has +q there."""
    idx, P, w = _basis(n)

    def entries():
        for i in idx:
            yield P(i, i), P(i, i), Q**-1
            yield P(-i, i), P(i, -i), -Q if printed else Q
            for j in idx:
                if j != i and j != -i:
                    yield P(i, j), P(j, i), ONE
                if i > j:
                    yield P(i, j), P(i, j), -QDIFF
                if j > -i:
                    yield P(i, -i), P(j, -j), QDIFF * w[i, j]

    return SquareMatrixK.from_entries(4 * n * n, entries())


def check_sigma_inv_display(n: int, printed: bool = False) -> bool:
    """The displayed sum for sigma^-1 equals the true inverse (with the
    printed sign of its q terms: it does not)."""
    data = build_braid_data(n)
    return _sigma_inv_display(n, printed) == data.sigma_inv


def check_braid_invariants(n: int) -> bool:
    """sigma sigma^-1 = 1, loop absorption, twist eigenvalues and braid
    relation."""
    data = build_braid_data(n)
    d2 = data.d * data.d
    one = SquareMatrixK.identity(d2)
    zq = Q**data.n
    lp = data.loop
    ok = data.sigma @ data.sigma_inv == one
    ok = ok and data.u_mat @ data.u_mat == data.u_mat.scale(lp)
    ok = ok and data.sigma @ data.u_mat == data.u_mat.scale(zq**-2 * Q)
    ok = ok and data.sigma_inv @ data.u_mat == data.u_mat.scale(zq**2 * Q**-1)
    r = _tensor_rep(data.n, 3)
    s1, s2 = (r.lift(i, r.sigmas[i]) for i in (0, 1))
    return ok and s1 @ s2 @ s1 == s2 @ s1 @ s2


# --------------------------------------------------------------------------
# Strand representations: the generators of the k-strand algebra on one
# space, and their spectral R-matrices.


class StrandRep(NamedTuple):
    """The generators sigma_1, ..., sigma_{k-1}, their inverses and
    u_1, ..., u_{k-1} on a space of dimension ``dim``; the tuples are
    indexed from 0, so ``sigmas[i]`` is sigma_{i+1}.  Each tuple holds its
    generator X on the strands it acts on, and on the whole space
    generator i is 1_a (x) X (x) 1_b with (a, b) = ``pads[i]`` (``lift``);
    a and b are 1 where X already acts on the whole space."""

    dim: int
    sigmas: tuple
    sigma_invs: tuple
    u_mats: tuple
    zval: ScalarK  # the value of z in this representation
    pads: tuple

    def lift(self, i: int, x: SquareMatrixK) -> SquareMatrixK:
        """x, given on the strands of generator i, on the whole space:
        1_a (x) x (x) 1_b with (a, b) = pads[i]."""
        left, right = self.pads[i]
        if left > 1:
            x = SquareMatrixK.identity(left).kron(x)
        if right > 1:
            x = x.kron(SquareMatrixK.identity(right))
        return x

    def R(self, kind: str, i: int, w: ScalarK) -> SquareMatrixK:
        """The spectral R-matrix of the given kind on generator i at
        parameter w (see spectral_coeffs).  The rep's own sigma_i,
        sigma_i^-1 and u_i are summed where it holds them, on V (x) V for a
        tensor power, and the sum is lifted to the whole space.  The
        coefficients over the denominator come from a table built once per
        (kind, w, z); a denominator that vanishes raises DivisorVanishes
        and is not kept."""
        cs, csi, cu = _spectral_scales(_kind(kind), w, self.zval)
        s = self.sigmas[i]
        return self.lift(i, _combination(s.dim, [(s, cs), (self.sigma_invs[i], csi),
                                                 (self.u_mats[i], cu)]))


def _tensor_rep(n: int, p: int) -> StrandRep:
    """V^(x)p at level n: generator i is 1^(x)i (x) X (x) 1^(x)(p-2-i) for X
    = sigma, sigma^-1 or u on V (x) V, acting on strands (i+1, i+2).
    Callers validate n (``_level`` or ``build_braid_data``) and p."""
    data = _build_braid_data(n)
    d, k = data.d, p - 1
    return StrandRep(d**p, (data.sigma,) * k, (data.sigma_inv,) * k, (data.u_mat,) * k,
                     Q**n, tuple((d**i, d ** (p - 2 - i)) for i in range(k)))


def _generator_pair(dim: int, entries: list) -> tuple:
    """A generator of index 1 (sigma_1 or sigma_1^-1) with the given
    (i, j, value) entries, and the same generator of index 2: its conjugate
    by the basis reversal e_k -> e_(dim-1-k), as in both displays below."""
    rev = [(dim - 1 - i, dim - 1 - j, v) for i, j, v in entries]
    return tuple(SquareMatrixK.from_entries(dim, e) for e in (entries, rev))


@_built_once
def hecke_two_dim_rep() -> StrandRep:
    """The printed 2-dimensional representation of the 3-strand Hecke
    algebra: sigma_1 -> [[q,0],[1,-q^-1]], sigma_2 -> [[-q^-1,1],[0,q]]."""
    qi = Q**-1
    s1, s2 = _generator_pair(2, [(0, 0, Q), (1, 0, ONE), (1, 1, -qi)])
    s1i, s2i = _generator_pair(2, [(0, 0, qi), (1, 0, ONE), (1, 1, -Q)])
    zero = SquareMatrixK.from_entries(2, ())
    return StrandRep(2, (s1, s2), (s1i, s2i), (zero, zero), Z, ((1, 1),) * 2)


@_built_once
def bmw_three_dim_rep() -> StrandRep:
    """The 3-dimensional representation of the 3-strand algebra at generic
    z; u_i is recovered from the skein relation.  The bmw3-exponent rows
    check its relations."""
    s1, s1i, s2, s2i = _bmw3(False)
    one, c = SquareMatrixK.identity(3), QDIFF.inv()
    u1, u2 = (_combination(3, [(one, 1), (s, -c), (si, c)]) for s, si in ((s1, s1i), (s2, s2i)))
    return StrandRep(3, (s1, s2), (s1i, s2i), (u1, u2), Z, ((1, 1),) * 2)


@_built_once
def _bmw3(printed: bool) -> tuple:
    """sigma_1, sigma_1^-1, sigma_2, sigma_2^-1 of the 3-dim rep.

    sigma_1 is displayed as [[z^-2 q, 0, 0], [-z^e c, -q^-1, 0],
    [q^-1, 1, q]] and sigma_1^-1 as [[z^2 q^-1, 0, 0], [-z^-e c, -q, 0],
    [q, 1, q^-1]], with c = z q^-2 + z^-1 q^2.  The display has e = 1, and
    with it all three relations of ``check_bmw3_relation`` fail; solving
    the braid relation shows e = -1.  Every other entry is as displayed.
    """
    e = 1 if printed else -1
    c = Z * Q**-2 + Z**-1 * Q**2
    qi = Q**-1
    s1, s2 = _generator_pair(3, [(0, 0, Z**-2 * Q), (1, 0, -(Z**e) * c),
                                 (1, 1, -qi), (2, 0, qi), (2, 1, ONE), (2, 2, Q)])
    s1i, s2i = _generator_pair(3, [(0, 0, Z**2 * qi), (1, 0, -(Z**-e) * c),
                                   (1, 1, -Q), (2, 0, Q), (2, 1, ONE), (2, 2, qi)])
    return s1, s1i, s2, s2i


def check_bmw3_relation(relation: str, printed: bool = False) -> bool:
    """One relation of the 3-dim rep (see _bmw3): "sigma1-inverse" or
    "sigma2-inverse" (the displayed sigma_i^-1 inverts sigma_i) or "braid"."""
    s1, s1i, s2, s2i = _bmw3(printed)
    if relation == "braid":
        return s1 @ s2 @ s1 == s2 @ s1 @ s2
    s, si = {"sigma1-inverse": (s1, s1i), "sigma2-inverse": (s2, s2i)}[relation]
    return s @ si == SquareMatrixK.identity(3)


# --------------------------------------------------------------------------
# Spectral R-matrices.


def _kind(kind) -> str:
    """kind, if it names a spectral family."""
    if kind not in ("HeckeF", "HeckeE", "BMW_D", "BMW_A"):
        raise ArgumentOutOfRange(f"unknown spectral kind {kind!r}")
    return kind


def spectral_coeffs(kind: str, w: ScalarK, zval: ScalarK):
    """Return (c_sigma, c_sigma_inv, c_u, denominator) for the kind, so that

        R(w) = (c_sigma sigma + c_sigma_inv sigma^-1 + c_u u) / denominator.
    """
    kind = _kind(kind)
    if kind == "HeckeF":
        return w, -(w.inv()), scalar(0), w * Q - w.inv() * Q**-1
    if kind == "HeckeE":
        return w.inv(), -w, scalar(0), w * Q - w.inv() * Q**-1
    if kind == "BMW_D":
        c = w * zval * Q**-1 - w.inv() * zval.inv() * Q
        cu = (zval * Q**-1 - zval.inv() * Q) * QDIFF
        return c * w, -(c * w.inv()), cu, c * (w * Q - w.inv() * Q**-1)
    c = w * zval.inv() + w.inv() * zval  # BMW_A
    cu = (zval + zval.inv()) * QDIFF
    return c * w.inv(), -(c * w), cu, c * (w * Q - w.inv() * Q**-1)


@_built_once
def _spectral_scales(kind: str, w: ScalarK, zval: ScalarK) -> tuple:
    """(c_sigma, c_sigma_inv, c_u) / denominator of spectral_coeffs, built
    once per (kind, w, z)."""
    cs, csi, cu, den = spectral_coeffs(kind, w, zval)
    if den.is_zero():
        raise DivisorVanishes(f"{kind} denominator vanishes at this parameter")
    # each coefficient is divided as a scalar, whose factors cancel there
    return cs / den, csi / den, cu / den


def _strand_rep(rep: str, n=None) -> StrandRep:
    """A 3-strand representation by name: "hecke2" or "bmw3", which have
    no level and refuse an n, or "tensor", V^(x)3 at level n (1 when n is
    not given)."""
    if rep in ("hecke2", "bmw3"):
        if n is not None:
            raise ArgumentOutOfRange(f"representation {rep!r} has no level n; got {n!r}")
        return hecke_two_dim_rep() if rep == "hecke2" else bmw_three_dim_rep()
    if rep != "tensor":
        raise ArgumentOutOfRange(f"unknown representation {rep!r}")
    return _tensor_rep(_level(1 if n is None else n), 3)


def check_ybe(kind: str, rep: str, n=None) -> bool:
    """R_1(u) R_2(uv) R_1(v) = R_2(v) R_1(uv) R_2(u) with FORMAL u, v, on
    the representation ``rep`` (see ``_strand_rep``)."""
    r = _strand_rep(rep, n)
    r1u, r2uv, r1v = r.R(kind, 0, U), r.R(kind, 1, U * V), r.R(kind, 0, V)
    r2u, r1uv, r2v = r.R(kind, 1, U), r.R(kind, 0, U * V), r.R(kind, 1, V)
    return r1u @ r2uv @ r1v == r2v @ r1uv @ r2u


def check_unitarity(kind: str, rep: str) -> bool:
    """R(u) R(u^-1) = 1 with formal u, and R(1) = 1."""
    r = _strand_rep(rep)
    one = SquareMatrixK.identity(r.dim)
    return r.R(kind, 0, U) @ r.R(kind, 0, U.inv()) == one and r.R(kind, 0, ONE) == one


def check_hecke_quotient(rep: str = "bmw3") -> bool:
    """Imposing u = 0 in the BMW_D combination reproduces the HeckeF matrix."""
    r = _strand_rep(rep)
    quotient = r._replace(u_mats=tuple(SquareMatrixK.from_entries(u.dim, ())
                                       for u in r.u_mats))
    return quotient.R("BMW_D", 0, U) == r.R("HeckeF", 0, U)


# --------------------------------------------------------------------------
# Idempotent towers.

#: kind -> (BMW kind, Hecke kind, eigenvalue of sigma_i on X(p)).
_TOWER_SPEC = {
    "F": ("BMW_D", "HeckeF", Q),
    "E": ("BMW_A", "HeckeE", -(Q**-1)),
}


def idempotent_tower(kind: str, data: BraidData, p_max: int) -> dict:
    """E(p) or F(p) on V^(x)p for p = 1..p_max, via
    X(p+1) = X(p) R_p(q^p) X(p) with X(1) = 1.

    Each matrix is built once per process; the returned dict is fresh, the
    matrices in it are shared.
    """
    if kind not in ("E", "F"):
        raise ArgumentOutOfRange("tower kind must be 'E' or 'F'")
    if type(p_max) is not int or p_max < 1:
        raise ArgumentOutOfRange(f"p_max must be a positive integer, not {p_max!r}")
    # measured at p = 4 (2-core x86, Python 3.11), from a cold start, E
    # then F: at n = 1 each tower builds and passes check_tower in 0.01 s;
    # at n = 2 E(4) builds in 0.04 s and checks in 0.08 s, F(4) builds in
    # 0.16 s and checks in 1.4 s.  At n = 3 (d^p = 1296), with this budget
    # raised, each in its own cold process, E(4) builds in 0.3-0.6 s and
    # checks in 1.7-2.9 s, F(4) (nnz 44,730) builds in 1.5-1.8 s and
    # checks in 16-19 s, at a peak RSS of 216 MB: the products of the F(4)
    # check keep the budget at 3.
    budget = 4 if data.n <= 2 else 3
    if p_max > budget:
        raise UnsupportedSize(
            f"p_max {p_max} exceeds the dimension budget for n = {data.n}"
        )
    return {p: _tower(kind, data.n, p) for p in range(1, p_max + 1)}


@_built_once
def _tower(kind: str, n: int, p: int) -> SquareMatrixK:
    """X(p) of idempotent_tower at level n, reduced: it is kept, and it is
    a factor of X(p+1) twice."""
    idm = SquareMatrixK.identity(_build_braid_data(n).d)
    if p == 1:
        return idm
    lifted = _tower(kind, n, p - 1).kron(idm)
    r_p = _tensor_rep(n, p).R(_TOWER_SPEC[kind][0], p - 2, Q ** (p - 1))
    return _reduce(lifted @ r_p @ lifted)


def _is_tower_idempotent(x: SquareMatrixK, rep: StrandRep, p: int, rkind: str,
                         eig: ScalarK) -> bool:
    """For X = X(p) on rep, whose generators sigma_1, ..., sigma_{p-1} act
    on it: idempotency, u_i X = 0 = X u_i, sigma_i X = eig X = X sigma_i,
    and R_i(u) X = X = X R_i(u) of kind rkind with FORMAL u."""
    if x @ x != x:
        return False
    x_eig = x.scale(eig)
    for i in range(p - 1):
        ui, si = rep.lift(i, rep.u_mats[i]), rep.lift(i, rep.sigmas[i])
        if not (ui @ x).is_zero() or not (x @ ui).is_zero():
            return False
        # the two products share their denominator, so they compare with
        # no scaling, and only one is brought to X's
        sx = si @ x
        if sx != x @ si or sx != x_eig:
            return False
        r = rep.R(rkind, i, U)
        rx = r @ x
        if rx != x @ r or rx != x:
            return False
    return True


def check_tower(kind: str, n: int, p_max: int) -> bool:
    """For X = E(p) or F(p), 2 <= p <= p_max, at level n: idempotency,
    u_i X = 0 = X u_i, sigma_i X = eig X = X sigma_i, and
    R_i(u) X = X = X R_i(u) with FORMAL u."""
    data = build_braid_data(n)
    tower = idempotent_tower(kind, data, p_max)  # it checks the kind and p_max
    rkind, _, eig = _TOWER_SPEC[kind]
    return all(_is_tower_idempotent(tower[p], _tensor_rep(data.n, p), p, rkind, eig)
               for p in range(2, p_max + 1))


def check_hecke_tower(kind: str) -> bool:
    """In the 2-dim representation, the idempotents X(p+1) = X(p) R_p(q^p) X(p),
    X(1) = 1, of the Hecke spectral matrices (HeckeF for kind F, HeckeE for
    E) pass the tower test of check_tower for p = 2, 3, with eig = q (F)
    or -q^-1 (E); u_i is 0 there."""
    if kind not in ("F", "E"):
        raise ArgumentOutOfRange("tower kind must be 'E' or 'F'")
    _, rkind, eig = _TOWER_SPEC[kind]
    rep = hecke_two_dim_rep()
    x = SquareMatrixK.identity(rep.dim)
    for p in (2, 3):
        x = x @ rep.R(rkind, p - 2, Q ** (p - 1)) @ x
        if not _is_tower_idempotent(x, rep, p, rkind, eig):
            return False
    return True


# --------------------------------------------------------------------------
# Quantum trace.


def quantum_trace(x: SquareMatrixK, data: BraidData) -> ScalarK:
    """tr(x mu^(x)p), with p determined from the matrix dimension."""
    mu = SquareMatrixK.from_entries(
        data.d, ((k, k, data.mu[a]) for k, a in enumerate(data.indices)))
    weight = SquareMatrixK.identity(1)
    while weight.dim < x.dim:
        weight = weight.kron(mu)
    if weight.dim != x.dim:
        raise ArgumentOutOfRange("matrix dimension is not a power of dim V")
    return (x @ weight).trace()


def dimq_sym_recursive(p: int) -> ScalarK:
    """Graded dimension of the p-th symmetric-type idempotent from the
    two-term recurrence [n+p-1][p+1] dim(p+1) = [2n+p-2][n+p] dim(p),
    seeded with dim(1) = {1} delta.  (The telescoped product stays finite
    at every integer level, unlike the closed form's [n-1] denominator.)
    """
    check_counts(p=p)
    if p == 0:
        return ONE
    out = brace(1) * qint(1, 0)
    for j in range(1, p):
        out = out * qint(2, j - 2) * qint(1, j) / (qint(1, j - 1) * qint(0, j + 1))
    return out


def dimq_sym_closed(p: int) -> ScalarK:
    """Closed form [n+p-1]/[n-1] * [2n+p-3 choose p] (generic z; the [n-1]
    denominator vanishes at integer level n = 1, where the recursive form
    must be used)."""
    check_counts(p=p)
    return qint(1, p - 1) / qint(1, -1) * qbinom_ext(2, p - 3, p)


def check_dimq_sym_closed(p: int, n: int) -> bool:
    """The closed form dimq_sym_closed(p) equals the telescoped product
    dimq_sym_recursive(p) at level n >= 2, where its [n-1] denominator does
    not vanish."""
    closed = integer_level(dimq_sym_closed(p), n)
    return equal(closed, integer_level(dimq_sym_recursive(p), n))


def check_quantum_dims(n: int, p_max: int) -> bool:
    """quantum_trace(E(p)) and quantum_trace(F(p)) match the recurrence-
    normative graded dimensions at z = q^n, for p <= p_max."""
    data = build_braid_data(n)
    towers = {k: idempotent_tower(k, data, p_max) for k in ("E", "F")}
    for p in range(1, p_max + 1):
        te = quantum_trace(towers["E"][p], data)
        tf = quantum_trace(towers["F"][p], data)
        if not equal(te, integer_level(dimq_vector_recurrence_consistent(p), n)):
            return False
        if not equal(tf, integer_level(dimq_sym_recursive(p), n)):
            return False
    return True


# --------------------------------------------------------------------------
# Crossing symmetry (scalar check on formal coefficients).


def _canonical_skein_coeffs(c1, cs, csi, cu):
    """Rewrite a formal combination a*1 + b*sigma + c*sigma^-1 + d*u in the
    canonical gauge with zero coefficient on 1, using
    1 = (sigma - sigma^-1)/(q - q^-1) + u."""
    return (cs + c1 / QDIFF, csi - c1 / QDIFF, cu + c1)


def check_crossing_symmetry_D(printed: bool = False) -> bool:
    """Quarter-turn symmetry of the BMW_D numerator.

    The quarter turn swaps 1 <-> u and sigma <-> sigma^-1.  Applying it to
    the numerator N(u) of R(u) and reducing to the canonical skein gauge
    must give a scalar multiple lambda of N(u^-1 z^-1 q); lambda is solved
    from the sigma coefficient and asserted on the others, and it must
    equal the prefactor (u - u^-1)(u z q^-2 - u^-1 z^-1 q^2) / D(u^-1 z^-1 q).
    The printed prefactor has q^-2 for the last q^2 and does not.
    """
    cs, csi, cu, _ = spectral_coeffs("BMW_D", U, Z)
    # quarter turn: 1 <-> u, sigma <-> sigma^-1
    ts, tsi, tu = _canonical_skein_coeffs(cu, csi, cs, scalar(0))
    bs, bsi, bu, bden = spectral_coeffs("BMW_D", U.inv() * Z.inv() * Q, Z)
    bs, bsi, bu = _canonical_skein_coeffs(scalar(0), bs, bsi, bu)
    lam = ts / bs
    ok = equal(tsi, lam * bsi) and equal(tu, lam * bu)
    last = Q**-2 if printed else Q**2
    prefactor = (U - U.inv()) * (U * Z * Q**-2 - U.inv() * Z.inv() * last) / bden
    return ok and equal(lam, prefactor)


# --------------------------------------------------------------------------
# The check registry: every verification the program knows, by name.  The
# check-runner manifest, `qspin check` and the tests all read this table.

MANIFEST_FORMAT_VERSION = 1


class Check(NamedTuple):
    """``fn(**params)`` is True when the check holds, for each params dict
    of ``grid``.  ``group`` is "matrix" (the suite ``qspin check --all``
    runs), "identity" (the closed-form identities of qcomb, recoupling and
    the gamma matrices, and the closed forms against the chromatic and
    gamma-trace oracles of ``networks``) or "slip" (a documented formula
    slip in the source: the row holds exactly while the printed form is
    wrong and the corrected form right)."""

    fn: Callable[..., bool]
    grid: tuple
    group: str


def _grid(**axes) -> tuple:
    """Every combination of the axes' values, as params dicts."""
    return tuple(dict(zip(axes, vals)) for vals in product(*axes.values()))


def _slip(check: Callable[..., bool]) -> Callable[..., bool]:
    """A slip's row function: ``check`` fails on the printed reading and
    holds on the corrected one."""
    return lambda **params: not check(**params, printed=True) and check(**params)


#: The gamma-trace words, each with the matching that contracts it.  The
#: 8-letter word is traced at k <= 2 only: at k = 3 its trace would sum
#: 6^4 products of eight 8 x 8 matrices.
_GAMMA_WORDS = (
    ([0, 0], [[0, 1]]),
    ([0, 0, 1, 1], [[0, 1], [2, 3]]),
    ([0, 1, 1, 0], [[0, 3], [1, 2]]),
    ([0, 1, 0, 1], [[0, 2], [1, 3]]),
    ([0, 0, 1, 1, 2, 2], [[0, 1], [2, 3], [4, 5]]),
    ([0, 1, 2, 2, 1, 0], [[0, 5], [1, 4], [2, 3]]),
    ([0, 0, 1, 2, 1, 2], [[0, 1], [2, 4], [3, 5]]),
    ([0, 0, 1, 1, 2, 2, 3, 3], [[0, 1], [2, 3], [4, 5], [6, 7]]),
)

CHECKS = {
    "braid-invariants": Check(check_braid_invariants, _grid(n=(1, 2)), "matrix"),
    "ybe": Check(check_ybe, _grid(kind=("HeckeF", "HeckeE"), rep=("hecke2",))
                 + _grid(kind=("BMW_D", "BMW_A"), rep=("bmw3",))
                 + _grid(kind=("BMW_D", "BMW_A"), rep=("tensor",), n=(1,)), "matrix"),
    "unitarity": Check(check_unitarity, _grid(kind=("BMW_D", "BMW_A"), rep=("bmw3",))
                       + _grid(kind=("HeckeF", "HeckeE"), rep=("hecke2",)), "matrix"),
    "tower": Check(check_tower, tuple({"kind": k, "n": n, "p_max": 3}
                                      for n in (1, 2) for k in "EF"), "matrix"),
    "quantum-dims": Check(check_quantum_dims, _grid(n=(1, 2), p_max=(3,)), "matrix"),
    "crossing-symmetry-D": Check(check_crossing_symmetry_D, ({},), "matrix"),
    "hecke-tower": Check(check_hecke_tower, _grid(kind=("F", "E")), "matrix"),
    "hecke-quotient": Check(check_hecke_quotient, ({},), "matrix"),
    "addition": Check(qcomb.check_addition, ({},), "identity"),
    "cac": Check(qcomb.check_cac_identities, _grid(a=range(6)), "identity"),
    "bracket-shift": Check(qcomb.ext_bracket_shift_identity, _grid(a=range(5)),
                           "identity"),
    "hecke-dims": Check(qcomb.check_hecke_dim_recurrences, _grid(p=range(5)),
                        "identity"),
    "qbinom-recurrence": Check(qcomb.check_qbinom_recurrence,
                               _grid(a=range(7), b=range(7)), "identity"),
    "dimq-recurrence": Check(recoupling.check_dimq_recurrence, _grid(p=range(1, 5)),
                             "identity"),
    "dimq-sym-closed": Check(check_dimq_sym_closed, _grid(p=range(1, 4), n=(2, 3)),
                             "identity"),
    "threej-double": Check(recoupling.check_threej_double,
                           _grid(r=range(3), s=range(3), t=range(3)), "identity"),
    "theta-vector": Check(recoupling.check_theta_vector,
                          _grid(r=range(3), s=range(3), t=range(3)), "identity"),
    "bubble": Check(recoupling.check_bubble_identity, tuple(
        {"a": a, "b": b, "m": m} for a in range(4) for b in range(4)
        for m in range(min(a, b) + 1)), "identity"),
    "fierz-symmetry": Check(recoupling.check_fierz_symmetry,
                            _grid(a=range(6), b=range(6)), "identity"),
    "fierz-bar": Check(recoupling.check_fierz_bar_invariance,
                       _grid(a=range(6), b=range(6)), "identity"),
    "fierz-recurrence": Check(recoupling.fierz_recurrence_check,
                              _grid(a=range(5), b=range(5)), "identity"),
    "exp-coeff-half-form": Check(recoupling.check_exp_coeff_half_form,
                                 _grid(p=(0, 2, 4)), "identity"),
    "clifford": Check(networks.check_clifford, _grid(k=(1, 2, 3)), "identity"),
    "gamma-trace": Check(networks.check_gamma_trace, tuple(
        {"k": k, "word": word, "matching": matching} for k in (1, 2, 3)
        for word, matching in _GAMMA_WORDS if len(word) < 8 or k <= 2), "identity"),
    "unknot-chromatic": Check(networks.check_unknot_chromatic, _grid(a=range(9)),
                              "identity"),
    "theta-chromatic": Check(networks.check_theta_chromatic, tuple(
        {"r": r, "s": s, "t": t} for r, s, t in product(range(7), repeat=3)
        if max(r + s, r + t, s + t) <= 6), "identity"),
    "tetrahedron-relabelling": Check(networks.check_tetrahedron_relabelling,
                                     _grid(max_label=(4,)), "identity"),
    "fierz-a1": Check(recoupling.check_fierz_a1, _grid(a=range(1, 7)), "identity"),
    "leg-hop": Check(recoupling.check_leg_hop_iter, _grid(a=range(4), r=range(4)),
                     "identity"),
    "gamma-cross-coeff": Check(recoupling.check_gamma_cross_coeff, _grid(p=range(4)),
                               "identity"),
    "addition-sign": Check(_slip(qcomb.check_addition), ({},), "slip"),
    "cac-sign": Check(_slip(qcomb.check_cac_identities), _grid(a=(1, 2, 3)), "slip"),
    "double-shift": Check(_slip(qcomb.check_double_shift),
                          _grid(a=(-3, -2, -1, 1, 2, 3)), "slip"),
    "dimq-closed-form": Check(_slip(recoupling.check_dimq_recurrence),
                              _grid(p=(1, 2, 3)), "slip"),
    "fierz-a0": Check(_slip(recoupling.check_fierz_a0), _grid(a=(1, 2, 3)), "slip"),
    "fierz-recurrence-coefficient": Check(_slip(recoupling.fierz_recurrence_check),
                                          _grid(a=range(5), b=range(1, 5)), "slip"),
    "theta-spinor-empty": Check(_slip(recoupling.check_theta_spinor_empty), ({},),
                                "slip"),
    "crossing-prefactor": Check(_slip(check_crossing_symmetry_D), ({},), "slip"),
    "sigma-inverse-display": Check(_slip(check_sigma_inv_display), _grid(n=(1, 2)),
                                   "slip"),
    "bmw3-exponent": Check(_slip(check_bmw3_relation), _grid(
        relation=("sigma1-inverse", "sigma2-inverse", "braid")), "slip"),
}


def manifest(names) -> dict:
    """A check-runner manifest document with every row of the named
    registry entries."""
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "checks": [{"name": name, "params": dict(params)}
                   for name in names for params in CHECKS[name].grid],
    }


def suite(name: str) -> list:
    """The registry entries ``qspin check --suite name`` runs: the entry of
    that name, or every entry of the group of that name, in registry order
    (none when it is neither)."""
    if name in CHECKS:
        return [name]
    return [entry for entry, check in CHECKS.items() if check.group == name]


def default_manifest() -> dict:
    """The matrix group, the suite ``qspin check --all`` runs."""
    return manifest(suite("matrix"))


def run_manifest(doc, stats: bool = False) -> dict:
    """Run a manifest document; returns a machine-readable pass/fail table.

    A malformed document raises ParseError.  An unknown check name, params
    off the grid of an identity or slip entry, or a check that raises, give
    a failed row that carries the error.  With ``stats`` each row also
    carries its wall time as "seconds".
    """
    results = []
    for item in _manifest_items(doc):
        if stats:
            start = perf_counter()
        row = _run_row(item["name"], item.get("params", {}))
        if stats:
            row["seconds"] = perf_counter() - start
        results.append(row)
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "results": results,
        "all_passed": all(r["passed"] for r in results),
    }


def _manifest_items(doc) -> list:
    """The "checks" of a manifest document, each validated."""
    if not isinstance(doc, dict):
        raise ParseError("a manifest must be a JSON object")
    version = doc.get("format_version", 1)
    if type(version) is not int or version != MANIFEST_FORMAT_VERSION:
        raise ParseError(f"unsupported manifest format_version {version!r}")
    items = doc.get("checks")
    if not isinstance(items, list):
        raise ParseError('a manifest needs a "checks" list')
    for item in items:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise ParseError('each manifest check needs a string "name"')
        if not isinstance(item.get("params", {}), dict):
            raise ParseError(f'"params" of check {item["name"]!r} must be an object')
    return items


def _typed(x):
    """x with the type beside each value, in dicts and lists, so that the
    values True, 1 and 1.0, which are equal, compare unequal."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_typed(v) for v in x]
    return type(x), x


def _run_row(name: str, params: dict) -> dict:
    row = {"name": name, "params": params, "passed": False}
    check = CHECKS.get(name)
    if check is None:
        row["error"] = "unknown check"
        return row
    # the matrix checks refuse sizes past their budget themselves; the
    # identity and slip checks have no budget, so they run only on their grid
    if check.group != "matrix" and not any(
            params == p and _typed(params) == _typed(p) for p in check.grid):
        row["error"] = "params outside the registry grid"
        return row
    try:
        row["passed"] = bool(check.fn(**params))
    except Exception as exc:  # surfaced in the table
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row
