"""Every public function of the numeric modules whose required arguments
are all ints refuses a bool and a float in each of them with a typed
error, never a value or a raw TypeError."""

import inspect

import pytest

from qspin import matrixlab, networks, qcomb, recoupling, scalar
from qspin.errors import QspinError

MODULES = (qcomb, recoupling, matrixlab, networks, scalar)


def _int_functions() -> list:
    """(name, function, count of required arguments) for each public
    function defined in ``MODULES`` whose required arguments are all
    annotated ``int``."""
    out = []
    for mod in MODULES:
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(inspect.unwrap(fn)):
                continue
            if fn.__module__ != mod.__name__:
                continue
            required = [p for p in inspect.signature(fn).parameters.values()
                        if p.default is p.empty]
            if required and all(p.annotation in (int, "int") for p in required):
                out.append((f"{mod.__name__}.{name}", fn, len(required)))
    return out


FUNCTIONS = _int_functions()


def test_the_sweep_finds_the_int_functions():
    names = {name for name, _, _ in FUNCTIONS}
    assert {"qspin.qcomb.qint", "qspin.qcomb.qint_falling", "qspin.recoupling.theta_vector",
            "qspin.matrixlab.dimq_sym_closed", "qspin.networks.gamma_metric"} <= names
    assert len(FUNCTIONS) >= 50


def test_int_arguments_refuse_bools_and_floats():
    # each argument in turn is True, then 1.5, with 1 in the others
    untyped = []
    for name, fn, arity in FUNCTIONS:
        for i in range(arity):
            for bad in (True, 1.5):
                args = [1] * arity
                args[i] = bad
                try:
                    result = fn(*args)
                except QspinError:
                    continue
                except Exception as exc:  # an untyped error: reported below
                    result = exc
                untyped.append((name, args, result))
    assert untyped == []
