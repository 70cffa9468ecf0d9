"""Counting the calls of a program function, for the tests that pin how
often a path runs: the gcds of a command, the exact divisions of
``check --all``, the checks of a network.

    with counting(poly, "cofactors") as gcds:
        ...
    assert gcds.count == 0

Inside the block ``owner.name`` is a wrapper that counts each call and
passes it on; after it, the attribute is what it was.  A function set on
a class is a method, so a method of a class can be counted the same way.
A ``weight`` function of the call's arguments adds up a size as well:

    with counting(Poly, "__mul__", lambda a, b: len(a) * len(b)) as muls:
        ...
    print(muls.count, muls.weight)
"""

from __future__ import annotations

from contextlib import contextmanager


class Calls:
    """The number of calls made through one wrapper, and the sum of their
    weights."""

    __slots__ = ("count", "weight")

    def __init__(self):
        self.count = 0
        self.weight = 0


@contextmanager
def counting(owner, name: str, weight=None):
    """Count the calls of ``owner.name`` (a module's function or a class's
    method) while the block runs, into the :class:`Calls` it yields, and
    sum ``weight(*args, **kwargs)`` over them if it is given."""
    own = name in vars(owner)
    original = getattr(owner, name)
    calls = Calls()

    def counted(*args, **kwargs):
        calls.count += 1
        if weight is not None:
            calls.weight += weight(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        if own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)
