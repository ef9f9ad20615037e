"""Exception types shared across the toolkit."""


class GbfanError(Exception):
    """Base class for all toolkit errors."""


class ModulusMismatch(GbfanError):
    """Operands live over different prime moduli."""


class DimensionMismatch(GbfanError):
    """Operands have incompatible ambient dimensions."""


class SingularMatrix(GbfanError):
    """Linear solve requested on a matrix of deficient rank."""


class InconsistentMarking(GbfanError):
    """A marked leading term is not maximal under the active order."""


class PolySyntaxError(GbfanError):
    """Polynomial text could not be parsed."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyStaircase(GbfanError):
    """Operation requires a nonempty order ideal."""


class EmptyPointSet(GbfanError):
    """Operation requires a nonempty point set."""


class BudgetExceeded(GbfanError):
    """Requested computation exceeds the configured budget."""


class NotBasic(GbfanError):
    """Monomial set is not a quotient basis for the given points."""
