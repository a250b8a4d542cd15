"""Exception types shared across the package."""


class SingularPointError(ValueError):
    """A quantile-side quantity is evaluated where it is undefined (e.g. F^{-1}(u)=0)."""


class NonconvergenceError(RuntimeError):
    """A quadrature or extrapolation failed to reach its tolerance.

    Raised both for exhausted subdivision budgets and for integrals whose tail
    mass is detected as non-decaying (the integral is infinite or barely finite).
    """


class HypothesisGateError(NonconvergenceError):
    """The paper's tail hypothesis fails for this cost and pair of marginals.

    ``assumptions.tail_gate`` finds the cost's slope growing too fast against
    the heavier tail and a marginal's quantile: lambda + delta reaches 1/2.
    The asymptotic variance may then be infinite, or it may be finite while the
    normal limit does not hold; the gate cannot tell which.  ``verdict`` is the
    gate's ``GateVerdict``: side, marginal, margin and rule.
    """

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class UnsupportedCostError(ValueError):
    """The requested operation is not defined for this cost kind."""


class DegenerateSampleError(ValueError):
    """A sample column is constant and rank/density machinery cannot proceed."""
