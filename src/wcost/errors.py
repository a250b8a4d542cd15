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

    The guard integral of the cost's radial slope against a quantile density
    does not converge to a finite value.  The asymptotic variance may then be
    infinite, or it may be finite while the normal limit does not hold; the gate
    cannot tell which.
    """


class UnsupportedCostError(ValueError):
    """The requested operation is not defined for this cost kind."""


class DegenerateSampleError(ValueError):
    """A sample column is constant and rank/density machinery cannot proceed."""
