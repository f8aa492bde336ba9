"""Exception types shared across the package."""


class SubspaceEstError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SubspaceEstError):
    """Operands have incompatible shapes or ambient dimensions."""


class RankDeficient(SubspaceEstError):
    """A matrix that must have full column rank does not."""


class ConstraintViolation(SubspaceEstError):
    """A frame that must belong to a constraint set does not."""


class NotPositiveDefinite(SubspaceEstError):
    """A covariance argument is not positive definite."""


class TooFewRows(SubspaceEstError):
    """A sample matrix has too few rows for the requested statistic."""


class DegenerateInput(SubspaceEstError):
    """No feasible output exists for the given input."""


class TooLarge(SubspaceEstError):
    """An exhaustive enumeration was requested beyond the supported size."""


class InfeasibleParameters(SubspaceEstError):
    """Construction parameters violate a feasibility condition."""


class BudgetExhausted(SubspaceEstError):
    """A randomized search ran out of draws before reaching its target."""


class BoundViolated(SubspaceEstError):
    """A computed value breaks a bound that holds in exact arithmetic."""
