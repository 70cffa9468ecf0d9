"""Counting the calls of a program function, for the tests that pin how
often a path runs: the gcds of a command, the exact divisions of
``check --all``, the checks of a network.

    with counting(poly, "cofactors") as gcds:
        ...
    assert gcds.count == 0

Inside the block ``owner.name`` is a wrapper that counts each call and
passes it on; after it, the attribute is what it was.  A function set on
a class is a method, so a method of a class can be counted the same way.
"""

from __future__ import annotations

from contextlib import contextmanager


class Calls:
    """The number of calls made through one wrapper."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


@contextmanager
def counting(owner, name: str):
    """Count the calls of ``owner.name`` (a module's function or a class's
    method) while the block runs, into the :class:`Calls` it yields."""
    own = name in vars(owner)
    original = getattr(owner, name)
    calls = Calls()

    def counted(*args, **kwargs):
        calls.count += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        if own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)
