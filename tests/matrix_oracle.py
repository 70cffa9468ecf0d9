"""The fraction-free matrix arithmetic as it was before packed monomials:
numerators are ``tuple_poly.TPoly`` values keyed by exponent tuples, and
every term product builds a tuple with ``monomial_mul``.  Kept as the
oracle of ``qspin.matrixlab.SquareMatrixK``: the two must give the same
entries, the same equality and the same reduced towers.  It shares the
scalar values and the denominator keys with the program, not the packed
monomials, the polynomial arithmetic, the exact division, the probe or
the degree bound: program polynomials are unpacked where they come in
and packed again only to build an entry's field element.
"""

from __future__ import annotations

from math import gcd

from qspin.errors import ArgumentOutOfRange
from qspin.poly import Poly, rules_out
from qspin.scalar import FIELD, ScalarK, scalar
from qspin.scalar import _expand, _fac_mul, _wrap
from tuple_poly import TPoly, exquo, monomial_mul, probe

# --------------------------------------------------------------------------
# Integer polynomials in (q, z, Delta, u, v): numerators and denominators.

_PONE = TPoly({(0,) * 5: 1})
#: The generators q, z, Delta, u, v, as keys of a denominator.
_GENS = tuple(Poly.from_terms({tuple(int(j == i) for j in range(5)): 1}) for i in range(5))


def _split(x) -> tuple:
    """(numerator, denominator) of a ScalarK or int as integer polynomials,
    the denominator with a positive leading coefficient."""
    nf = scalar(x).nf
    return nf.numer, nf.denom


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
    mults = [TPoly.of(_expand(cont // c, 0, _fac_mul(fac, f, -1))) for c, f in dens]
    return cont, fac, mults


def _add_into(rows: dict, i: int, j: int, num) -> None:
    """rows[i][j] += num, dropping an entry (and a row) that sums to zero."""
    row = rows.setdefault(i, {})
    num = row[j] + num if j in row else num
    if num:
        row[j] = num
    else:
        row.pop(j, None)
        if not row:
            del rows[i]


def _scaled(rows: dict, m) -> dict:
    """New row dicts with every numerator times m; when m is 1, the
    numerators themselves are shared."""
    if m == _PONE:
        return {i: dict(row) for i, row in rows.items()}
    return {i: {j: v * m for j, v in row.items()} for i, row in rows.items()}


class SquareMatrixK:
    """Sparse square matrix over the coefficient field, an immutable value.

    ``rows[i][j]`` is the integer-polynomial numerator of a nonzero entry
    and ``den`` the one denominator of all entries, kept as a content and
    a map of keys to multiplicities (``_den_factors``).  Products and sums
    take numerators and keys as they come, with no division, so the form
    is not unique: equality is decided by subtracting, and only the kept
    tower matrices are reduced (``_reduce``).
    ``entry`` wraps an entry as ScalarK, split from its reduced fraction;
    every specialization, the classical one included, reads it like any
    other value.  Numerators are shared between matrices and never mutated.

    Build matrices with ``from_entries`` or ``identity``; the operations
    return new matrices.
    """

    __slots__ = ("dim", "rows", "_cont", "_dfac", "_den")

    def __init__(self, dim: int, rows: dict, cont: int, dfac: dict):
        """rows over the denominator cont * prod(f^e) over ``dfac``.
        ``rows`` and ``dfac`` are taken over and never changed."""
        if dim < 1:
            raise ArgumentOutOfRange("matrix dimension must be positive")
        if not rows:
            cont, dfac = 1, {}
        self.dim = dim
        self.rows: dict[int, dict[int, object]] = rows
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
        positions not given are zero.  The sum is taken over one common
        denominator."""
        split = [(i, j, scalar(val)) for i, j, val in entries]
        dens: dict = {}  # each denominator -> a value with it
        for *_, x in split:
            dens.setdefault(x.nf.denom, x)
        cont, dfac, mults = _common_den([_den_factors(x) for x in dens.values()])
        mult = dict(zip(dens, mults))
        rows: dict = {}
        for i, j, x in split:
            if x:
                _add_into(rows, i, j, TPoly.of(x.nf.numer) * mult[x.nf.denom])
        return SquareMatrixK(dim, rows, cont, dfac)

    @staticmethod
    def identity(dim: int) -> "SquareMatrixK":
        return SquareMatrixK(dim, {i: {i: _PONE} for i in range(dim)}, 1, {})

    # -- entry access --------------------------------------------------------

    def entry(self, i: int, j: int) -> ScalarK:
        num = self.rows.get(i, {}).get(j)
        if num is None:
            return _wrap(FIELD.zero)
        return _wrap(FIELD.new(num.to_program(), self.den))

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "SquareMatrixK") -> "SquareMatrixK":
        if self.dim != other.dim:
            raise ArgumentOutOfRange("dimension mismatch in matrix product")
        rows = {}
        orows = other.rows
        for i, arow in self.rows.items():
            acc: dict[int, dict] = {}
            for k, aval in arow.items():
                brow = orows.get(k)
                if not brow:
                    continue
                aterms = list(aval.items())
                for j, bval in brow.items():
                    t = acc.get(j)
                    if t is None:
                        t = acc[j] = {}
                    get = t.get
                    for mb, cb in bval.items():
                        for ma, ca in aterms:
                            m = monomial_mul(ma, mb)
                            t[m] = get(m, 0) + ca * cb
            row = {}
            for j, t in acc.items():
                t = {m: c for m, c in t.items() if c}
                if t:
                    row[j] = TPoly(t)
            if row:
                rows[i] = row
        return SquareMatrixK(self.dim, rows, *_den_product(self, other))

    def __add__(self, other: "SquareMatrixK") -> "SquareMatrixK":
        return self._lincomb(other, 1)

    def __sub__(self, other: "SquareMatrixK") -> "SquareMatrixK":
        return self._lincomb(other, -1)

    def _lincomb(self, other: "SquareMatrixK", sign: int) -> "SquareMatrixK":
        if self.dim != other.dim:
            raise ArgumentOutOfRange("dimension mismatch in matrix sum")
        cont, dfac, (ma, mb) = _common_den(
            [(self._cont, self._dfac), (other._cont, other._dfac)]
        )
        if sign < 0:
            mb = -mb
        rows = _scaled(self.rows, ma)
        for i, row in _scaled(other.rows, mb).items():
            for j, v in row.items():
                _add_into(rows, i, j, v)
        return SquareMatrixK(self.dim, rows, cont, dfac)

    def scale(self, c) -> "SquareMatrixK":
        c = scalar(c)
        if not c:
            return SquareMatrixK(self.dim, {}, 1, {})
        cnum = TPoly.of(c.nf.numer)
        rows = {i: {j: v * cnum for j, v in row.items()}
                for i, row in self.rows.items()}
        return SquareMatrixK(self.dim, rows, *_den_product(self, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrixK):
            return NotImplemented
        return self.dim == other.dim and self._lincomb(other, -1).is_zero()

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
        return SquareMatrixK(self.dim * d2, rows, *_den_product(self, other))

    def trace(self) -> ScalarK:
        acc = TPoly()
        for i, row in self.rows.items():
            v = row.get(i)
            if v is not None:
                acc = acc + v
        return _wrap(FIELD.new(acc.to_program(), self.den))


def _den_product(a: SquareMatrixK, b) -> tuple[int, dict]:
    """(content, keys) of a.den times the denominator of b, a matrix or a
    ScalarK."""
    if isinstance(b, SquareMatrixK):
        bcont, bfac = b._cont, b._dfac
    else:
        bcont, bfac = _den_factors(b)
    return a._cont * bcont, _fac_mul(a._dfac, bfac)


def _divide_all(rows: dict, f):
    """rows with every numerator divided by f, or None if f misses one."""
    out = {}
    for i, row in rows.items():
        orow = {}
        for j, num in row.items():
            quo = exquo(num, f)
            if quo is None:
                return None
            orow[j] = quo
        out[i] = orow
    return out


def _reduce(m: SquareMatrixK) -> SquareMatrixK:
    """m with each key of its denominator cancelled as often as it divides
    every numerator, and then the content all numerators share.

    The numerators' values at the probe point are taken once and divided
    along with them; a key whose value rules out one of theirs is not
    tried (see ``poly.rules_out``)."""
    rows, left = m.rows, {}
    values = [probe(num) for row in rows.values() for num in row.values()]
    for key, e in m._dfac.items():
        f = TPoly.of(key)
        fv = probe(f)
        while e and not any(rules_out(fv, v) for v in values):
            quo = _divide_all(rows, f)
            if quo is None:
                break
            rows = quo
            e -= 1
            values = ([v // fv for v in values] if fv else
                      [probe(num) for row in rows.values() for num in row.values()])
        if e:
            left[key] = e
    cont = m._cont
    g = gcd(cont, *(c for row in rows.values() for num in row.values()
                    for c in num.values()))
    if g != 1:
        cont //= g
        rows = {
            i: {j: TPoly({e: c // g for e, c in num.items()}) for j, num in row.items()}
            for i, row in rows.items()
        }
    return SquareMatrixK(m.dim, rows, cont, left)

