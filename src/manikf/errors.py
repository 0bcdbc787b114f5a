"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An argument's length does not match the manifold contract."""


class ContractViolationError(ValueError):
    """A point does not satisfy its manifold invariants."""


class CutLocusError(ArithmeticError):
    """boxminus is undefined: the two points are (numerically) antipodal."""


class UpdateSolverError(RuntimeError):
    """The innovation system could not be solved.

    Carries the condition-number estimate of the innovation matrix so the
    caller can tell ill-conditioning from outright rank loss.
    """

    def __init__(self, message, condition=float("inf")):
        super().__init__(f"{message} (cond ~ {condition:.3e})")
        self.condition = condition
