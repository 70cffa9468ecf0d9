"""A test-side expression tree over the generators and atoms of the field,
with folds that share no code with the factored values of ``qspin.scalar``.

Nodes are tuples:

    ("rat", Fraction)          rational constant
    ("gen", name)              one of q, z, Delta, u, v
    ("delta",)                 delta
    ("qint", b, a)             extended bracket [b*n + a]
    ("brace", k)               brace symbol {k} = z q^-k + z^-1 q^k
    ("add"|"sub"|"mul"|"div", x, y)
    ("pow", x, e)              integer e (may be negative)

``value`` builds the program's value through its own arithmetic;
``field_fold`` evaluates the tree in sympy's field of fractions, from the
atoms' defining formulas; ``classical_fold`` evaluates it at q = z = 1 atom
by atom, with [b*n + a] -> b*delta + a and {k} -> 2, and raises
:class:`Undefined` where it would divide by a zero image, raise one to a
power e <= 0, or meet u or v.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st
from sympy import QQ

from qspin import qcomb, scalar
from sympy_bridge import CLASSICAL, FIELD

_q, _z, _D, _u, _v = FIELD.gens
_cd, _cD = CLASSICAL.gens


class Undefined(Exception):
    """The classical fold has no value: see the module docstring."""


def _binary(node, fold, ops):
    if node[0] == "pow":
        return ops["pow"](fold(node[1]), node[2])
    return ops[node[0]](fold(node[1]), fold(node[2]))


def value(node) -> scalar.ScalarK:
    """The program's value, built with its arithmetic from its atoms."""
    kind = node[0]
    if kind == "rat":
        return scalar.scalar(node[1])
    if kind == "gen":
        return {"q": scalar.Q, "z": scalar.Z, "Delta": scalar.SPIN_DELTA,
                "u": scalar.U, "v": scalar.V}[node[1]]
    if kind == "delta":
        return scalar.DELTA
    if kind == "qint":
        return qcomb.qint(node[1], node[2])
    if kind == "brace":
        return qcomb.brace(node[1])
    return _binary(node, value, {
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
        "pow": lambda a, e: a**e,
    })


def _fpow(x, e: int):
    return x**e if e >= 0 else 1 / x ** (-e)


def field_fold(node):
    """The tree's element of Q(q, z, Delta, u, v)."""
    kind = node[0]
    if kind == "rat":
        return FIELD(QQ(node[1].numerator, node[1].denominator))
    if kind == "gen":
        return {"q": _q, "z": _z, "Delta": _D, "u": _u, "v": _v}[node[1]]
    if kind == "delta":
        return (_z - 1 / _z) / (_q - 1 / _q)
    if kind == "qint":
        b, a = node[1], node[2]
        return (_fpow(_z, b) * _fpow(_q, a) - _fpow(_z, -b) * _fpow(_q, -a)) / (_q - 1 / _q)
    if kind == "brace":
        k = node[1]
        return _z * _fpow(_q, -k) + _fpow(_q, k) / _z
    return _binary(node, field_fold, {
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "div": lambda a, b: a / b, "pow": _fpow,
    })


def _cdiv(a, b):
    if not b:
        raise Undefined("division by a zero classical image")
    return a / b


def _cpow(a, e: int):
    if e <= 0 and not a:
        raise Undefined("a zero classical image to a power e <= 0")
    return _fpow(a, e)


def classical_fold(node):
    """The tree's image in Q(delta, Delta), atom by atom."""
    kind = node[0]
    if kind == "rat":
        return CLASSICAL(QQ(node[1].numerator, node[1].denominator))
    if kind == "gen":
        if node[1] in ("u", "v"):
            raise Undefined(f"{node[1]} has no classical image")
        return _cD if node[1] == "Delta" else CLASSICAL.one
    if kind == "delta":
        return _cd
    if kind == "qint":
        return node[1] * _cd + CLASSICAL(node[2])
    if kind == "brace":
        return CLASSICAL(2)
    return _binary(node, classical_fold, {
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "div": _cdiv, "pow": _cpow,
    })


def bar_tree(node):
    """The tree with q -> q^-1 and z -> z^-1 (atoms are bar-invariant)."""
    if node[0] == "gen" and node[1] in ("q", "z"):
        return ("pow", node, -1)
    if node[0] in ("add", "sub", "mul", "div"):
        return (node[0], bar_tree(node[1]), bar_tree(node[2]))
    if node[0] == "pow":
        return ("pow", bar_tree(node[1]), node[2])
    return node


# --------------------------------------------------------------------------
# Strategies.

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def rat(x) -> tuple:
    return ("rat", Fraction(x))


def gens(*names) -> st.SearchStrategy:
    return st.sampled_from([("gen", n) for n in names])


def qints(b, a) -> st.SearchStrategy:
    return st.builds(lambda b, a: ("qint", b, a), b, a)


def braces(k) -> st.SearchStrategy:
    return st.builds(lambda k: ("brace", k), k)


@st.composite
def trees(draw, atoms, ops=("add", "sub", "mul", "div", "pow"), exps=(-3, 3), depth=3):
    """Trees over ``atoms`` that never divide by zero in the field."""
    if depth == 0 or draw(st.booleans()):
        return draw(atoms)
    op = draw(st.sampled_from(ops))
    a = draw(trees(atoms, ops, exps, depth - 1))
    if op == "pow":
        e = draw(st.integers(*exps))
        if e <= 0 and not field_fold(a):
            return a
        return ("pow", a, e)
    b = draw(trees(atoms, ops, exps, depth - 1))
    if op == "div" and not field_fold(b):
        return a
    return (op, a, b)


def _shifted_brace(k: int) -> tuple:
    """Q**k + Q**-k as a tree."""
    q = ("gen", "q")
    return ("add", ("pow", q, k), ("pow", q, -k))


def _flip(name: str) -> st.SearchStrategy:
    """x - 1 or 1 - x: the two signs of the cyclotomic key Phi_1(x)."""
    g = ("gen", name)
    return st.sampled_from([("sub", g, rat(1)), ("sub", rat(1), g)])


#: Sums of generators and constants, which no split applies to: sum keys.
sum_atoms = st.builds(
    lambda a, b, c: ("add", ("add", ("gen", a), ("gen", b)), rat(c)),
    st.sampled_from(["q", "z", "Delta"]), st.sampled_from(["q", "z", "u"]),
    st.integers(1, 3),
)

#: Atoms that give a value every kind of key: the cyclotomic keys of
#: brackets, braces, shifted braces and x -+ 1, and sum keys.
key_atoms = st.one_of(
    qints(st.integers(-2, 2), st.integers(-6, 6)),
    braces(st.integers(-4, 4)),
    gens("q", "z", "Delta", "u", "v"),
    st.integers(1, 4).map(_shifted_brace),
    st.sampled_from(["q", "z", "Delta", "u"]).flatmap(_flip),
    sum_atoms,
    rationals.map(rat),
)
