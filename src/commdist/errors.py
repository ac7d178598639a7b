"""Exception types shared across the library."""


class CommdistError(Exception):
    """Base class for all library errors."""


class ParseError(CommdistError):
    """Malformed field-spec string, matrix JSON, or certificate JSON."""


class NotPrime(ParseError):
    """Field characteristic failed the Miller-Rabin primality check."""


class ReducibleModulus(ParseError):
    """Extension modulus has a proper divisor over the base prime field."""


class UnsupportedDegree(ParseError):
    """Extension degree outside the supported range (2..4)."""


class DivisionByZero(CommdistError, ZeroDivisionError):
    """Division or inversion by the zero field element."""


class FieldMismatch(CommdistError):
    """Operands belong to different field specs."""


class DimMismatch(CommdistError):
    """Matrix dimensions incompatible with the requested operation."""


class CapExceeded(CommdistError):
    """State space or enumeration size exceeds the configured cap."""


class ScalarVertex(CommdistError):
    """A scalar matrix was used where a commuting-graph vertex is required."""


class BadWitness(CommdistError):
    """A supplied witness violates one of its defining conditions.

    The message names the first violated condition.
    """

    def __init__(self, condition: str):
        super().__init__(f"witness violates condition: {condition}")
        self.condition = condition
