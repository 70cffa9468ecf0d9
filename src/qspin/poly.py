"""Sparse polynomials over the integers and the rationals, their gcd, and
the two fields of fractions the program computes in.

A polynomial is a :class:`Poly`: an immutable, hashable map from monomial
keys to nonzero coefficients, ``int`` over Z and ``Fraction`` over Q.  A
key is one int with a field of ``FIELD_BITS`` bits per generator, the
first generator in the top field, so int order is lex order, a polynomial's
leading monomial is its largest key, and a term product is one int
addition.  The top bit of each field is a guard bit: an exponent holds at
most ``MAX_EXPONENT``, a product that would pass it raises
:class:`~qspin.errors.UnsupportedSize`, and exact division reads the guard
bits to see that an exponent of the divisor exceeds one of the dividend.
Keys are unpacked to exponent tuples only to print or to hand out
(:meth:`Poly.terms`).

The gcd over Z is the heuristic algorithm of Char, Geddes and Gonnet
("GCDHEU: heuristic polynomial GCD algorithm based on integer GCD
computation", J. Symbolic Comput. 7, 1989): evaluate both polynomials at a
large integer, one generator at a time, take the integer gcd, and read the
polynomial gcd back from its digits.  Every candidate is checked by exact
division; when no evaluation point gives one that divides, the gcd raises
:class:`~qspin.errors.GcdFailed`.

A :class:`Field` keeps each fraction reduced: an integer numerator and
denominator, coprime with the content included, the denominator's leading
coefficient positive.  That form is unique, so equal fractions have equal
parts.
"""

from __future__ import annotations

from functools import cache, reduce
from heapq import heappop, heappush
from math import gcd, isqrt
from operator import or_
from struct import Struct, unpack

from .errors import ArgumentOutOfRange, GcdFailed, UnsupportedSize

#: Bits per generator in a monomial key.  The top bit of each field is a
#: guard bit, so two exponents of a field add without carrying into the next.
FIELD_BITS = 16
#: The largest exponent a field holds.
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
#: The most generators a polynomial has.
MAX_GENS = 5
_MASK = (1 << FIELD_BITS) - 1
#: The guard bits of all MAX_GENS fields; a ring with fewer generators
#: leaves its top fields 0.
_GUARD = sum(1 << (FIELD_BITS - 1 + FIELD_BITS * i) for i in range(MAX_GENS))
#: MAX_EXPONENT in every field.
_FULL = _GUARD // (1 << (FIELD_BITS - 1)) * MAX_EXPONENT


def pack(exponents) -> int:
    """The key of the monomial with these exponents, the first generator's
    in the top field."""
    key = 0
    for e in exponents:
        if not 0 <= e <= MAX_EXPONENT:
            error = ArgumentOutOfRange if e < 0 else UnsupportedSize
            raise error(f"a monomial exponent {e} is outside 0..{MAX_EXPONENT}")
        key = key << FIELD_BITS | e
    return key


def _past_width(what: str) -> UnsupportedSize:
    return UnsupportedSize(f"{what} has an exponent past the field width {MAX_EXPONENT}")


def monomial_gcd(p) -> int:
    """The key of the largest monomial dividing every term of p (nonzero):
    each generator's least exponent."""
    if 0 in p:
        return 0
    used = reduce(or_, p)
    low = 0
    for s in range(0, used.bit_length(), FIELD_BITS):
        if used >> s & _MASK:
            col = [k >> s & _MASK for k in p]
            if 0 not in col:
                low |= min(col) << s
    return low


class Poly(dict):
    """A sparse polynomial in ``ngens`` generators, an immutable map from
    monomial keys to nonzero coefficients.  The empty map is 0.

    ``Poly`` itself has the five generators (q, z, Delta, u, v) of the
    coefficient field; :func:`ring` gives the class for another number.
    Only operands of one class mix in ``+``, ``-`` and ``*``; a ground
    factor goes through :meth:`mul_term`.  Build a polynomial from
    exponent tuples with :meth:`from_terms`.
    """

    __slots__ = ("_hash",)

    ngens = MAX_GENS
    #: The bytes of a key, and their reading as an exponent tuple: 16-bit
    #: fields as big-endian unsigned shorts.
    _nbytes = 2 * MAX_GENS
    _fields = Struct(f">{MAX_GENS}H").unpack

    @classmethod
    def from_terms(cls, terms: dict) -> "Poly":
        """The polynomial with these {exponent tuple: nonzero coefficient}
        terms, in as many generators as the tuples have (``cls.ngens`` when
        there are none)."""
        if not terms:
            return cls()
        return ring(len(next(iter(terms))))({pack(m): c for m, c in terms.items()})

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.items()))
            return h

    def _immutable(self, *args, **kwargs):
        raise TypeError("a Poly is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __repr__(self):
        return f"{type(self).__name__}.from_terms({dict(self.terms())})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "Poly":
        return type(self)({m: -c for m, c in self.items()})

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other.items()) if other else self

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus((m, -c) for m, c in other.items()) if other else self

    def _plus(self, terms) -> "Poly":
        out = dict(self)
        get = out.get
        for m, c in terms:
            c = get(m, 0) + c
            if c:
                out[m] = c
            else:
                del out[m]
        return type(self)(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if len(other) > len(self):
            self, other = other, self
        if len(other) == 1:
            ((m2, c2),) = other.items()
            if not m2:
                return self if c2 == 1 else type(self)({m: c * c2 for m, c in self.items()})
            out = {m + m2: c * c2 for m, c in self.items()}
        elif not other:
            return other
        else:
            out = {}
            get = out.get
            terms = list(self.items())
            for m2, c2 in other.items():
                for m1, c1 in terms:
                    m = m1 + m2
                    out[m] = get(m, 0) + c1 * c2
            out = {m: c for m, c in out.items() if c}
        # a sum of two keys carries at most into a guard bit
        if reduce(or_, out, 0) & _GUARD:
            raise _past_width("a product")
        return type(self)(out)

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if len(self) == 1:
            ((m, c),) = self.items()
            if m and max(self.exponents(m)) * e > MAX_EXPONENT:
                raise _past_width("a power")
            return type(self)({m * e: c**e})
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                break
            base = base * base
        return type(self)({0: 1}) if out is None else out

    def mul_term(self, m: int, c) -> "Poly":
        """self * c x^m, m a key."""
        return self * type(self)({m: c})

    def div_term(self, m: int, c) -> "Poly":
        """self / (c x^m), for c x^m dividing every term; self when it is
        1."""
        if m:
            if c == 1:
                return type(self)({k - m: v for k, v in self.items()})
            return type(self)({k - m: v // c for k, v in self.items()})
        return self if c == 1 else type(self)({k: v // c for k, v in self.items()})

    def __call__(self, *values):
        """The value at the point ``values``, one per generator."""
        if len(values) != self.ngens:
            raise ArgumentOutOfRange(
                f"a polynomial in {self.ngens} generators takes {self.ngens} values, not {len(values)}")
        total = 0
        for m, c in self.items():
            for x, e in zip(values, self.exponents(m)):
                if e:
                    c *= x**e
            total += c
        return total

    # -- reading -------------------------------------------------------------

    @classmethod
    def exponents(cls, m: int) -> tuple:
        """The exponent tuple of the key m."""
        return cls._fields(m.to_bytes(cls._nbytes, "big"))

    @property
    def LC(self):
        """The coefficient of the largest monomial in lex order (0 for 0)."""
        return self[max(self)] if self else 0

    def terms(self) -> list:
        """(exponent tuple, coefficient) pairs, monomials in descending lex
        order."""
        fields, n = self._fields, self._nbytes
        return [(fields(m.to_bytes(n, "big")), c) for m, c in sorted(self.items(), reverse=True)]

    def degrees(self) -> tuple:
        """The largest exponent of each generator (0 for 0), each read
        off its field of the keys, and none for a field no key uses."""
        used = reduce(or_, self, 0)
        return tuple(max([m >> s & _MASK for m in self]) if used >> s & _MASK else 0
                     for s in range(FIELD_BITS * (self.ngens - 1), -1, -FIELD_BITS))

    def degree(self) -> int:
        """The largest exponent of any generator (0 for 0), read off all
        the keys' fields at once."""
        n = self._nbytes
        data = b"".join([m.to_bytes(n, "big") for m in self])
        return max(unpack(f">{len(data) // 2}H", data), default=0)


@cache
def ring(ngens: int) -> type:
    """The :class:`Poly` class of polynomials in ``ngens`` generators, 1 to
    MAX_GENS; ``Poly`` itself for MAX_GENS."""
    if ngens == MAX_GENS:
        return Poly
    if type(ngens) is not int or not 1 <= ngens < MAX_GENS:
        raise ArgumentOutOfRange(f"a polynomial has 1 to {MAX_GENS} generators, not {ngens!r}")
    return type(f"Poly{ngens}", (Poly,), {
        "__slots__": (), "ngens": ngens, "_nbytes": 2 * ngens,
        "_fields": Struct(f">{ngens}H").unpack,
    })


# --------------------------------------------------------------------------
# Exact division over Z.


def exquo(p, f):
    """p / f if f divides p in Z[x], else None; p and f are polynomials of
    one class, or plain maps of keys (inside the gcd), and so is the
    quotient.

    A one-term divisor c x^m divides p term by term.  Otherwise each step
    divides the leading term of the remainder by that of f, and stops at
    the first one that does not divide.  The leading term is the larger of
    p's next and the top of a heap of the terms the division adds
    (Monagan and Pearce, "Sparse polynomial division using a heap",
    J. Symbolic Comput. 46(7), 2011).  The step's multiple of f cancels
    that term exactly, so the term is dropped and only f's other terms,
    listed once, are subtracted from the remainder.
    With the guard bits G, the quotient's key is (m | G) - fm less G, and
    a guard bit cleared by the subtraction means fm does not divide m.
    Were f to divide p, each remainder monomial would have p's degrees or
    less, and the quotient's degree in each generator would be at most
    p's less that of f's leading monomial.  The division bounds p's
    degrees by the OR of its keys, at least p's degree in each field and
    within the field width, and ends at a quotient monomial past that
    bound less f's leading monomial, and at a remainder monomial, a
    quotient monomial times one of f, with a guard bit set; such a sum of
    two keys carries no further, so no field carries into the next."""
    if len(f) == 1:
        ((fm, fc),) = f.items()
        if fc == 1 and not fm:
            return p
        quo = {}
        for m, c in p.items():
            qm = (m | _GUARD) - fm
            if qm & _GUARD != _GUARD:
                return None
            t, r = divmod(c, fc)
            if r:
                return None
            quo[qm ^ _GUARD] = t
        return type(p)(quo)
    if not p:
        return p
    fm = max(f)
    fc = f[fm]
    room = (reduce(or_, p) | _GUARD) - fm
    if room & _GUARD != _GUARD:  # f's leading monomial is past p's degrees
        return None
    # per field, MAX_EXPONENT less the room: a quotient exponent past the
    # room carries into the guard bit
    slack = _FULL - (room ^ _GUARD)
    rem = dict(p)
    tail = [(k, c) for k, c in f.items() if k != fm]
    # the remainder's keys, largest first: p's in order, -1 after them,
    # merged with a heap of the keys the division adds
    order = sorted(p, reverse=True)
    order.append(-1)
    i = 0
    heap: list = []
    quo = {}
    while True:
        if heap and -heap[0] > order[i]:
            k = -heappop(heap)
        elif (k := order[i]) < 0:
            break
        else:
            i += 1
        c = rem.get(k)
        if c is None:  # cancelled since it was reached
            continue
        qk = (k | _GUARD) - fm
        if qk & _GUARD != _GUARD:
            return None
        qk ^= _GUARD
        if (qk + slack) & _GUARD:
            return None
        t, r = divmod(c, fc)
        if r:
            return None
        quo[qk] = t
        # t x^qk f: its leading term cancels the remainder's, c x^k, and
        # the rest is subtracted
        del rem[k]
        for k2, c2 in tail:
            k2 += qk
            if k2 & _GUARD:
                return None
            v = rem.get(k2)
            if v is None:
                rem[k2] = -t * c2
                heappush(heap, -k2)
            elif v == t * c2:
                del rem[k2]
            else:
                rem[k2] = v - t * c2
    return type(p)(quo)


#: The integer point at which :func:`probe` evaluates a polynomial in
#: (q, z, Delta, u, v).  Its coordinates are far apart, so that the small
#: keys q - 1, q - z, z + 1, u - q, ... take large values there.
PROBE_POINT = (1009, 31, 5, 7919, 97)
#: The fields of a key below q's.
_LOW = (1 << 4 * FIELD_BITS) - 1


def probe(p: Poly) -> int:
    """p at PROBE_POINT, p in the five generators.  If f divides p in
    Z[x], the quotient has an integer value there too, so probe(f) divides
    probe(p); see :func:`rules_out`.  Evaluation at a point is a ring
    homomorphism, so probe(f * g) = probe(f) * probe(g), and the value of
    an exact quotient is the quotient of the values.

    Each term's value at the lower generators is summed into the
    coefficient of its power of q, the top field, and the coefficients are
    combined by Horner's rule in q, from the largest power down."""
    x0, x1, x2, x3, x4 = PROBE_POINT
    w, f = FIELD_BITS, _MASK
    shift = 4 * w
    coeffs: dict = {}
    for m, v in p.items():
        if m & _LOW:
            if e := m >> 3 * w & f:
                v *= x1**e
            if e := m >> 2 * w & f:
                v *= x2**e
            if e := m >> w & f:
                v *= x3**e
            if e := m & f:
                v *= x4**e
        e = m >> shift
        coeffs[e] = coeffs.get(e, 0) + v
    total = 0
    top = max(coeffs, default=0)
    for e in sorted(coeffs, reverse=True):
        total = total * x0 ** (top - e) + coeffs[e]
        top = e
    return total * x0**top


def rules_out(fv: int, pv: int) -> bool:
    """Whether the values fv = probe(f) and pv = probe(p) show that f does
    not divide p, so that a trial division can be skipped.  A zero fv
    shows nothing."""
    return fv != 0 and pv % fv != 0


# --------------------------------------------------------------------------
# The gcd over Z.

#: Evaluation points the heuristic gcd tries before it gives up.
HEU_GCD_TRIES = 6


def _content(p: dict) -> int:
    """The gcd of p's coefficients, signed like its leading coefficient."""
    c = gcd(*p.values())
    return -c if p[max(p)] < 0 else c


def cofactors(f: Poly, g: Poly) -> tuple:
    """(h, f / h, g / h) with h = gcd(f, g) over Z, content included, for
    nonzero f and g of one class."""
    cf, cg = _content(f), _content(g)
    c = gcd(cf, cg)
    mf, mg = monomial_gcd(f), monomial_gcd(g)
    m = monomial_gcd((mf, mg))
    pf, pg = f.div_term(mf, cf), g.div_term(mg, cg)
    if len(pf) == 1 or len(pg) == 1:  # a primitive monomial-free term is 1
        h, qf, qg = {0: 1}, pf, pg
    elif pf == pg:
        h, qf, qg = pf, {0: 1}, {0: 1}
    else:
        h, qf, qg = _heugcd(pf, pg)
    cls = type(f)
    return (
        _as_poly(h, cls).mul_term(m, c),
        _as_poly(qf, cls).mul_term(mf - m, cf // c),
        _as_poly(qg, cls).mul_term(mg - m, cg // c),
    )


def _as_poly(p: dict, cls: type) -> Poly:
    """p as a polynomial of class cls, p itself when it is one: a cofactor
    1 then returns the very polynomial given, its hash already taken."""
    return p if type(p) is cls else cls(p)


def cancel(num: Poly, den: Poly) -> tuple:
    """num / den over Z as a reduced pair (n, d): coprime, the content
    included, d's leading coefficient positive.  den is nonzero."""
    if not num:
        return num, type(den)({0: 1})
    _, n, d = cofactors(num, den)
    if d.LC < 0:
        n, d = -n, -d
    return n, d


def _heugcd(f: dict, g: dict) -> tuple:
    """(h, f / h, g / h), h = gcd(f, g), for nonzero f and g, by GCDHEU:
    the top generator either uses is evaluated at an integer xi, the gcd of
    the images (polynomials in the lower generators, by recursion, down to
    the integer gcd of constants) is lifted back through the balanced
    xi-adic digits of its coefficients, and a candidate is kept only if it
    divides both f and g exactly.  The candidates are that lift's
    primitive part, and f or g divided by the lift of its image's
    cofactor.  With xi at least 2 min(|f|, |g|) + 2 (|.| the largest
    coefficient), a candidate that divides both is the gcd (Char, Geddes
    and Gonnet); a larger xi keeps that, so each retry grows xi.
    """
    top = (reduce(or_, f) | reduce(or_, g)).bit_length()
    if not top:  # two constants
        a, b = f[0], g[0]
        h = gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    shift = (top - 1) // FIELD_BITS * FIELD_BITS
    c = gcd(gcd(*f.values()), gcd(*g.values()))
    if c != 1:
        f = {k: v // c for k, v in f.items()}
        g = {k: v // c for k, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(HEU_GCD_TRIES):
        ff = _evaluate_first(f, xi, shift)
        gg = _evaluate_first(g, xi, shift)
        if ff and gg:
            h, cff, cfg = _heugcd(ff, gg)
            h = _primitive_part(_interpolate(h, xi, shift))
            if (qf := exquo(f, h)) is not None and (qg := exquo(g, h)) is not None:
                return _times(h, c), qf, qg
            qf = _interpolate(cff, xi, shift)
            if (h := exquo(f, qf)) is not None and (qg := exquo(g, h)) is not None:
                return _times(h, c), qf, qg
            qg = _interpolate(cfg, xi, shift)
            if (h := exquo(g, qg)) is not None and (qf := exquo(f, h)) is not None:
                return _times(h, c), qf, qg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    raise GcdFailed(f"the heuristic gcd found no gcd in {HEU_GCD_TRIES} evaluation points")


def _times(p: dict, c: int) -> dict:
    return p if c == 1 else {k: v * c for k, v in p.items()}


def _evaluate_first(p: dict, xi: int, shift: int) -> dict:
    """p with the generator of the field at ``shift``, its top one, set to
    xi: a map of the lower fields' keys to integers."""
    if not shift:  # the last field: one integer
        value = sum(v * xi**k for k, v in p.items())
        return {0: value} if value else {}
    out: dict = {}
    powers: dict = {}
    low = (1 << shift) - 1
    for k, v in p.items():
        e = k >> shift
        x = powers.get(e)
        if x is None:
            x = powers[e] = xi**e
        rest = k & low
        out[rest] = out.get(rest, 0) + v * x
    return {k: v for k, v in out.items() if v}


def _interpolate(h: dict, xi: int, shift: int) -> dict:
    """The polynomial whose coefficients in the generator of the field at
    ``shift`` are the balanced xi-adic digits of h's, a map of the lower
    fields' keys to integers, its leading coefficient made positive."""
    half = xi // 2
    out = {}
    i = 0
    while h:
        if i > MAX_EXPONENT:
            raise UnsupportedSize(f"a gcd candidate has an exponent past {MAX_EXPONENT}")
        nxt = {}
        for k, v in h.items():
            d = v % xi
            if d > half:
                d -= xi
            if d:
                out[i << shift | k] = d
            v = (v - d) // xi
            if v:
                nxt[k] = v
        h = nxt
        i += 1
    if out[max(out)] < 0:
        out = {k: -v for k, v in out.items()}
    return out


def _primitive_part(p: dict) -> dict:
    c = _content(p)
    return p if c == 1 else {k: v // c for k, v in p.items()}


# --------------------------------------------------------------------------
# Fields of fractions.


class Field:
    """The fractions of integer polynomials in the named generators.

    ``new`` reduces a pair (one gcd); ``raw_new`` takes a pair that is
    already reduced.  ``ring`` is the :class:`Poly` class of the pairs'
    polynomials.  Elements are :class:`Frac` values; ``zero`` and ``one``
    are the fractions 0 and 1.
    """

    def __init__(self, names: tuple):
        self.names = names
        self.ring = ring(len(names))
        one = self.ring({0: 1})
        self.zero = Frac(self, self.ring(), one)
        self.one = Frac(self, one, one)

    def new(self, num: Poly, den: Poly) -> "Frac":
        """num / den reduced; both have integer coefficients, den != 0."""
        if den == self.one.denom:
            return Frac(self, num, den)
        return Frac(self, *cancel(num, den))

    def raw_new(self, num: Poly, den: Poly) -> "Frac":
        """The fraction of a pair that is already reduced."""
        return Frac(self, num, den)


class Frac:
    """A reduced fraction numer / denom of a :class:`Field`.  Equal
    fractions have equal parts, so equality and hashing compare them.

    ``str`` writes ``numer/denom`` with ``**`` for powers, the numerator
    in parentheses when it is a sum and the denominator unless it is a
    constant or a generator: ``(6*delta**2*Delta + 2*delta - 1)/(4*delta
    + 8)``, ``-delta**3/5``; a denominator 1 is left out.
    """

    __slots__ = ("field", "numer", "denom")

    def __init__(self, field: Field, numer: Poly, denom: Poly):
        self.field = field
        self.numer = numer
        self.denom = denom

    def __eq__(self, other):
        if not isinstance(other, Frac):
            return NotImplemented
        return (self.field is other.field and self.numer == other.numer
                and self.denom == other.denom)

    def __hash__(self):
        return hash((self.numer, self.denom))

    def __bool__(self) -> bool:
        return bool(self.numer)

    def __repr__(self):
        return f"Frac({self})"

    def __str__(self):
        names = self.field.names
        num = poly_str(self.numer, names, "**")
        if self.denom == self.field.one.denom:
            return num
        if len(self.numer) > 1:
            num = f"({num})"
        den = poly_str(self.denom, names, "**")
        if not _is_atom(self.denom):
            den = f"({den})"
        return f"{num}/{den}"


def _is_atom(p: Poly) -> bool:
    """Whether p is a constant or a generator, which stands bare as a
    denominator."""
    if len(p) != 1:
        return False
    ((m, c),) = p.items()
    return not m or (c == 1 and sum(p.exponents(m)) == 1)


def poly_str(p, names: tuple, power: str) -> str:
    """p as text: terms in descending lex order, ``power`` between a
    generator and its exponent, ``*`` between a coefficient and the
    generators, and a coefficient of 1 omitted.  ``p`` may be any
    polynomial with ``terms()`` in that order."""
    if not p:
        return "0"
    parts = []
    for m, c in p.terms():
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        factors = [name if e == 1 else f"{name}{power}{e}" for name, e in zip(names, m) if e]
        if c != 1 or not factors:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    head = parts.pop(0)
    if head == " - ":
        parts.insert(0, "-")
    return "".join(parts)
