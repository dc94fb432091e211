"""Exception types shared across the package."""


class PcglError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatch(PcglError):
    """Operands live over different variable tables."""


class ParseError(PcglError):
    """Syntax error in a polynomial expression, with position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    pass


class NegativeExponent(ParseError):
    """Negative exponent on a variable that is not Laurent."""


class MissingImage(PcglError):
    """A derivation was applied to a variable it has no image for."""


class NotWithinBound(PcglError):
    """Derivation iterates did not reach zero within the iteration bound."""


class TriangularityError(PcglError):
    """A bracket entry violates the Ore triangularity shape."""


class NonDiagonalSigma(PcglError):
    """The extracted sigma is not diagonal on earlier generators."""


class PreconditionError(PcglError):
    """A documented operation precondition failed."""


class StepBudgetExceeded(PcglError):
    """Groebner computation exceeded its reduction-step budget."""


class UnitIdeal(PcglError):
    """Operation requires a proper ideal but received the unit ideal."""


class NotAPoissonAffineSpace(PcglError):
    """A bracket entry is not a scalar multiple of x_i * x_j."""


class SecondLiftError(PcglError):
    """Saturation or validation of a second lift failed (invalid d)."""
