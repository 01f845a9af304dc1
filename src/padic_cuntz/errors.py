"""Exception types shared across the package."""


class PadicCuntzError(Exception):
    """Base class for all package-specific errors."""


class InvalidDigitError(PadicCuntzError, ValueError):
    """A disk digit or word letter is outside [0, p)."""


class InvalidLetterError(InvalidDigitError):
    """A ladder-operator letter is outside [0, p)."""


class NotPrimeError(PadicCuntzError, ValueError):
    """The modulus p failed the primality check."""


class ParameterError(PadicCuntzError, ValueError):
    """A size parameter (depth, truncation, basis length) is out of range."""


class CapExceededError(PadicCuntzError, RuntimeError):
    """A refinement or creation chain would exceed the value-count cap."""


class SelfCheckError(PadicCuntzError, ArithmeticError):
    """Two independent computation paths of the same quantity disagree.

    Raised by the operations that are contractually self-checking
    (state values via integration vs. closed form, truncated expansions
    vs. generator coefficients).  Always indicates an implementation bug,
    never bad user input.
    """


class NotStabilizedError(PadicCuntzError, ArithmeticError):
    """A per-length pairing series did not reach a constant tail."""


class OperatorParseError(PadicCuntzError, ValueError):
    """An operator-word string could not be parsed.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
