"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An argument's length does not match the manifold contract."""


class ContractViolationError(ValueError):
    """A point does not satisfy its manifold invariants."""


class CutLocusError(ArithmeticError):
    """boxminus is undefined: the two points are (numerically) antipodal."""


class UpdateSolverError(RuntimeError):
    """The update's prior covariance P has no Cholesky factor (``condition``
    is cond(P), infinite if P is singular), or h returned non-finite values."""

    def __init__(self, message, condition=float("inf")):
        super().__init__(f"{message} (cond ~ {condition:.3e})")
        self.condition = condition
