"""Exception hierarchy shared by all qspin modules."""


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


class CalibrationFailed(QspinError):
    """No diagonal trace weight reproduces the loop value on both closures."""


class InadmissibleLabel(QspinError):
    """A network labelling violates admissibility at a vertex."""


class StateSpaceTooLarge(QspinError):
    """The chromatic state sum exceeds its line or live-state budget."""


class ConstraintViolated(QspinError):
    """A tetrahedron grid violates its row/column or side-sum constraints."""


class ParseError(QspinError):
    """A scalar expression or document failed to parse."""


class GcdFailed(QspinError):
    """The heuristic polynomial gcd found no evaluation point whose
    candidate divides both polynomials."""
