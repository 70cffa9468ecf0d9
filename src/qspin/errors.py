"""Exception hierarchy shared by all qspin modules, and the reader of the
JSON documents they load, which raises ParseError."""

import json


class QspinError(Exception):
    """Base class for all qspin errors."""


class DivisionByZero(QspinError):
    """A divisor normalized to the zero rational function."""


class ClassicalSingular(QspinError):
    """A value has no classical image: it has a pole on the classical curve
    z - z^-1 = delta (q - q^-1) at q = z = 1, or u or v is present in it."""


class SpecializationError(QspinError):
    """A specialization request was malformed or undefined for the value."""


class ArgumentOutOfRange(QspinError):
    """An integer argument violated a documented precondition."""


class InadmissibleTriple(QspinError):
    """An (a, b, c) triple fails the parity or triangle conditions."""


class UnsupportedSize(QspinError):
    """A matrix computation exceeds the supported desk-scale budget."""


class DivisorVanishes(QspinError):
    """A spectral denominator normalizes to zero after specialization."""


class InadmissibleLabel(QspinError):
    """A network labelling violates admissibility at a vertex."""


class StateSpaceTooLarge(QspinError):
    """The chromatic state sum exceeds its line or live-state budget."""


class ConstraintViolated(QspinError):
    """An input violates a structural constraint: a network's vertices,
    edges, label types or port linking, the name of a normalization, or
    a gamma trace's slot ids or matching."""


class ParseError(QspinError):
    """A scalar expression or document failed to parse."""


class GcdFailed(QspinError):
    """The heuristic polynomial gcd found no evaluation point whose
    candidate divides both polynomials."""


def is_int(x) -> bool:
    """Whether x is an int and not a bool: a JSON integer."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_ints(**values) -> None:
    """Raise ArgumentOutOfRange unless every value is an int (not a bool)."""
    for name, value in values.items():
        if not is_int(value):
            raise ArgumentOutOfRange(f"{name} must be an integer")


def check_counts(**counts) -> None:
    """Raise ArgumentOutOfRange unless every count is an int (not a bool)
    and >= 0."""
    for name, value in counts.items():
        if not is_int(value) or value < 0:
            raise ArgumentOutOfRange(f"{name} must be a nonnegative integer")


def expect(ok: bool, doc: str, what: str) -> None:
    """Raise ParseError "<doc>: <what>" unless ``ok``."""
    if not ok:
        raise ParseError(f"{doc}: {what}")


def json_object(text, doc: str, required: tuple) -> dict:
    """The JSON object of a ``doc`` document, its ``required`` keys present.
    Text that is not JSON, an argument that is not str or bytes, bytes
    that are not UTF-8, or a top level that is not an object raise
    ParseError "<doc>: ..."."""
    try:
        obj = json.loads(text)
    except (TypeError, ValueError) as exc:  # UnicodeDecodeError included
        raise ParseError(f"{doc}: not JSON ({exc})") from None
    expect(isinstance(obj, dict), doc, "the top level must be a JSON object")
    for key in required:
        expect(key in obj, doc, f"missing {key!r}")
    return obj
