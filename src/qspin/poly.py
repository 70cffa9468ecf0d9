"""Sparse polynomials over the integers and the rationals, their gcd, and
the two fields of fractions the program computes in.

A polynomial is a :class:`Poly`: an immutable, hashable map from exponent
tuples (one entry per generator) to nonzero coefficients, ``int`` over Z
and ``Fraction`` over Q.  Monomials are ordered lexicographically, so a
polynomial's leading monomial is its largest exponent tuple.

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

from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from operator import add, itemgetter, lshift, sub

from .errors import GcdFailed


def monomial_mul(a: tuple, b: tuple) -> tuple:
    """The product x^a x^b of two monomials in five generators."""
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)


def _monomial_mul_any(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def monomial_div(a: tuple, b: tuple):
    """x^a / x^b as an exponent tuple, or None when it is not a monomial."""
    out = tuple(map(sub, a, b))
    return None if min(out) < 0 else out


class Poly(dict):
    """A sparse polynomial, an immutable map from exponent tuples to
    nonzero coefficients.  The empty map is 0.

    Only ``Poly`` operands mix in ``+``, ``-`` and ``*``; a ground factor
    goes through :meth:`mul_term`.
    """

    __slots__ = ("_hash",)

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
        return f"Poly({dict.__repr__(self)})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.items()})

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
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if len(other) > len(self):
            self, other = other, self
        if not other:
            return other
        if len(other) == 1:
            ((m, c),) = other.items()
            return self.mul_term(m, c)
        mul = monomial_mul if len(next(iter(self))) == 5 else _monomial_mul_any
        out: dict = {}
        get = out.get
        terms = list(self.items())
        for m2, c2 in other.items():
            for m1, c1 in terms:
                m = mul(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        return Poly({m: c for m, c in out.items() if c})

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if len(self) == 1:
            ((m, c),) = self.items()
            return Poly({tuple(a * e for a in m): c**e})
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                break
            base = base * base
        return constant(1, self.ngens) if out is None else out

    def mul_term(self, m: tuple, c) -> "Poly":
        """self * c x^m."""
        if not any(m):
            if c == 1:
                return self
            return Poly({k: v * c for k, v in self.items()})
        mul = monomial_mul if len(m) == 5 else _monomial_mul_any
        return Poly({mul(k, m): v * c for k, v in self.items()})

    def div_term(self, m: tuple, c) -> "Poly":
        """self / (c x^m), for c x^m dividing every term; self when it is
        1."""
        if any(m):
            if c == 1:
                return Poly({tuple(map(sub, k, m)): v for k, v in self.items()})
            return Poly({tuple(map(sub, k, m)): v // c for k, v in self.items()})
        return self if c == 1 else Poly({k: v // c for k, v in self.items()})

    def __call__(self, *values):
        """The value at the point ``values``, one per generator."""
        total = 0
        for m, c in self.items():
            for x, e in zip(values, m):
                if e:
                    c *= x**e
            total += c
        return total

    # -- reading -------------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(next(iter(self))) if self else 0

    @property
    def LC(self):
        """The coefficient of the largest monomial in lex order (0 for 0)."""
        return self[max(self)] if self else 0

    def terms(self) -> list:
        """(monomial, coefficient) pairs, monomials in descending lex order."""
        return sorted(self.items(), reverse=True)

    def degrees(self) -> tuple:
        """The largest exponent of each generator."""
        return tuple(map(max, zip(*self)))


def constant(c, ngens: int) -> Poly:
    """The constant c as a polynomial in ``ngens`` generators."""
    return Poly({(0,) * ngens: c}) if c else Poly()


# --------------------------------------------------------------------------
# Exact division over Z.


def exquo(p: Poly, f: Poly):
    """p / f if f divides p in Z[x], else None.

    A one-term divisor c x^m divides p term by term.  Otherwise each step
    divides the leading term of the remainder by that of f and stops at
    the first one that does not divide.  The remainder's monomials are
    packed into ints, one bit field per generator wide enough for p's
    degree in it and a guard bit above, so that int order is lex order
    and a heap yields each leading term.  Were f to divide p, the
    quotient's degree in each generator would be p's less f's; so a
    quotient monomial past that ends the division too, and a remainder
    monomial, p's or a quotient monomial times one of f, never passes p's
    degrees, so no field carries into the next."""
    if len(f) == 1:
        ((fm, fc),) = f.items()
        if fc == 1 and not any(fm):
            return Poly(p)
        quo = {}
        for m, c in p.items():
            qm = monomial_div(m, fm)
            if qm is None:
                return None
            t, r = divmod(c, fc)
            if r:
                return None
            quo[qm] = t
        return Poly(quo)
    if not p:
        return Poly()
    top = tuple(map(max, zip(*p)))
    room = tuple(map(sub, top, map(max, zip(*f))))
    if min(room) < 0:
        return None
    # the first generator's field is the highest; w bits hold the exponents
    # up to p's degree d
    fields = []
    guard = slack = shift = 0
    for d, most in zip(reversed(top), reversed(room)):
        w = d.bit_length()
        fields.append((shift, (1 << w) - 1))
        guard |= 1 << (shift + w)
        slack |= ((1 << w) - 1 - most) << shift  # carries into the guard past ``most``
        shift += w + 1
    fields.reverse()
    shifts = [s for s, _ in fields]
    fm = max(f)
    fc = f[fm]
    fk = sum(map(lshift, fm, shifts))
    rest = [(sum(map(lshift, m, shifts)), c) for m, c in f.items() if m != fm]
    rem = {sum(map(lshift, m, shifts)): c for m, c in p.items()}
    heap = [-k for k in rem]
    heapify(heap)
    quo = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:  # cancelled after it was pushed
            continue
        # a guard bit cleared: fm does not divide k; set: past ``room``
        qk = (k | guard) - fk
        if qk & guard != guard:
            return None
        qk ^= guard
        if (qk + slack) & guard:
            return None
        t, r = divmod(c, fc)
        if r:
            return None
        quo[qk] = t
        for k2, c2 in rest:
            k2 += qk
            v = rem.get(k2)
            if v is None:
                rem[k2] = -t * c2
                heappush(heap, -k2)
            elif v == t * c2:
                del rem[k2]
            else:
                rem[k2] = v - t * c2
    return Poly({tuple(k >> s & mask for s, mask in fields): t for k, t in quo.items()})


#: The integer point at which :func:`probe` evaluates a polynomial in
#: (q, z, Delta, u, v).  Its coordinates are far apart, so that the small
#: keys q - 1, q - z, z + 1, u - q, ... take large values there.
PROBE_POINT = (1009, 31, 5, 7919, 97)


def probe(p: Poly) -> int:
    """p at PROBE_POINT.  If f divides p in Z[x], the quotient has an
    integer value there too, so probe(f) divides probe(p); see
    :func:`rules_out`."""
    x0, x1, x2, x3, x4 = PROBE_POINT
    total = 0
    for (a, b, c, d, e), v in p.items():
        if a:
            v *= x0**a
        if b:
            v *= x1**b
        if c:
            v *= x2**c
        if d:
            v *= x3**d
        if e:
            v *= x4**e
        total += v
    return total


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
    nonzero f and g in the same generators."""
    cf, cg = _content(f), _content(g)
    c = gcd(cf, cg)
    mf = tuple(map(min, zip(*f)))
    mg = tuple(map(min, zip(*g)))
    m = tuple(map(min, mf, mg))
    pf, pg = f.div_term(mf, cf), g.div_term(mg, cg)
    zero = (0,) * len(m)
    if len(pf) == 1 or len(pg) == 1:  # a primitive monomial-free term is 1
        h, qf, qg = {zero: 1}, pf, pg
    elif pf == pg:
        h, qf, qg = pf, {zero: 1}, {zero: 1}
    else:
        h, qf, qg = _gcd_primitive(pf, pg)
    return (
        _as_poly(h).mul_term(m, c),
        _as_poly(qf).mul_term(tuple(map(sub, mf, m)), cf // c),
        _as_poly(qg).mul_term(tuple(map(sub, mg, m)), cg // c),
    )


def _as_poly(p: dict) -> Poly:
    """p as a Poly, p itself when it is one: a cofactor 1 then returns the
    very polynomial given, its hash already taken."""
    return p if type(p) is Poly else Poly(p)


def cancel(num: Poly, den: Poly) -> tuple:
    """num / den over Z as a reduced pair (n, d): coprime, the content
    included, d's leading coefficient positive.  den is nonzero."""
    if not num:
        return num, constant(1, len(next(iter(den))))
    _, n, d = cofactors(num, den)
    if d.LC < 0:
        n, d = -n, -d
    return n, d


def _gcd_primitive(f: dict, g: dict) -> tuple:
    """cofactors of primitive f and g with no monomial factor, run on the
    generators that occur in either."""
    used = [i for i, (a, b) in enumerate(zip(map(max, zip(*f)), map(max, zip(*g))))
            if a or b]
    n = len(next(iter(f)))
    if len(used) == n:
        return _heugcd(f, g, n)
    h, qf, qg = _heugcd(_select(f, used), _select(g, used), len(used))
    if len(h) == 1:  # primitive, positive and monomial-free: 1
        return {(0,) * n: 1}, f, g
    return _spread(h, used, n), _spread(qf, used, n), _spread(qg, used, n)


def _select(p: dict, used: list) -> dict:
    """p's exponents of the generators ``used`` only."""
    if len(used) == 1:
        (i,) = used
        return {(k[i],): v for k, v in p.items()}
    pick = itemgetter(*used)
    return {pick(k): v for k, v in p.items()}


def _spread(p: dict, used: list, n: int) -> dict:
    """The inverse of _select: exponents back in n generators."""
    out = {}
    for k, v in p.items():
        full = [0] * n
        for i, e in zip(used, k):
            full[i] = e
        out[tuple(full)] = v
    return out


def _heugcd(f: dict, g: dict, n: int) -> tuple:
    """(h, f / h, g / h), h = gcd(f, g), for nonzero f and g in n >= 1
    generators, by GCDHEU: the first generator is evaluated at an integer
    xi, the gcd of the images (integers when n = 1, else polynomials in
    the other generators, by recursion) is lifted back through the
    balanced xi-adic digits of its coefficients, and a candidate is kept
    only if it divides both f and g exactly.  The candidates are that
    lift's primitive part, and f or g divided by the lift of its image's
    cofactor.  With xi at least 2 min(|f|, |g|) + 2 (|.| the largest
    coefficient), a candidate that divides both is the gcd (Char, Geddes
    and Gonnet); a larger xi keeps that, so each retry grows xi.
    """
    c = gcd(gcd(*f.values()), gcd(*g.values()))
    if c != 1:
        f = {k: v // c for k, v in f.items()}
        g = {k: v // c for k, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(HEU_GCD_TRIES):
        ff = _evaluate_first(f, xi, n)
        gg = _evaluate_first(g, xi, n)
        if ff and gg:
            if n == 1:
                h = gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg, n - 1)
            h = _primitive_part(_interpolate(h, xi, n))
            if (qf := exquo(f, h)) is not None and (qg := exquo(g, h)) is not None:
                return _times(h, c), qf, qg
            qf = _interpolate(cff, xi, n)
            if (h := exquo(f, qf)) is not None and (qg := exquo(g, h)) is not None:
                return _times(h, c), qf, qg
            qg = _interpolate(cfg, xi, n)
            if (h := exquo(g, qg)) is not None and (qf := exquo(f, h)) is not None:
                return _times(h, c), qf, qg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    raise GcdFailed(f"the heuristic gcd found no gcd in {HEU_GCD_TRIES} evaluation points")


def _times(p: dict, c: int) -> dict:
    return p if c == 1 else {k: v * c for k, v in p.items()}


def _evaluate_first(p: dict, xi: int, n: int):
    """p with its first generator set to xi: an integer when n = 1, else a
    map of the other generators' exponents to integers."""
    if n == 1:
        return sum(v * xi**k[0] for k, v in p.items())
    out: dict = {}
    powers: dict = {}
    for k, v in p.items():
        e = k[0]
        x = powers.get(e)
        if x is None:
            x = powers[e] = xi**e
        rest = k[1:]
        out[rest] = out.get(rest, 0) + v * x
    return {k: v for k, v in out.items() if v}


def _interpolate(h, xi: int, n: int) -> dict:
    """The polynomial whose first generator's coefficients are the
    balanced xi-adic digits of h (an integer when n = 1, else a map of
    the other generators' exponents to integers), its leading
    coefficient made positive."""
    half = xi // 2
    out = {}
    i = 0
    if n == 1:
        while h:
            d = h % xi
            if d > half:
                d -= xi
            h = (h - d) // xi
            if d:
                out[(i,)] = d
            i += 1
    else:
        while h:
            nxt = {}
            for k, v in h.items():
                d = v % xi
                if d > half:
                    d -= xi
                if d:
                    out[(i,) + k] = d
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
    already reduced.  Elements are :class:`Frac` values; ``zero`` and
    ``one`` are the fractions 0 and 1.
    """

    def __init__(self, names: tuple):
        self.names = names
        one = constant(1, len(names))
        self.zero = Frac(self, Poly(), one)
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
    return not any(m) or (c == 1 and sum(m) == 1)


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
