"""Exception types shared across the package."""


class WalkdimError(Exception):
    """Base class for all package errors."""


class ValidationError(WalkdimError):
    """A self-similar system description failed a structural check."""


class BudgetExceeded(WalkdimError):
    """A requested computation would exceed the configured size budget."""

    def __init__(self, requested: int, budget: int, what: str, remedy: str):
        self.requested = requested
        self.budget = budget
        self.what = what
        super().__init__(
            f"refusing to build {requested} {what} (budget {budget}); {remedy}"
        )


class ReductionError(WalkdimError):
    """Network reduction cannot proceed (disconnected interior, bad terminals)."""


class ConvergenceError(WalkdimError):
    """An iterative procedure failed to stabilize within its budget."""


class FitError(WalkdimError):
    """A slope fit has too few usable points or a degenerate window."""
