"""Cost functions c(x,y) on the line, their tail representation, and gradients.

The estimation theory works with costs of the form c(x,y) = rho(|x-y|) where
rho(t) = exp(l(t)) up to bounded terms, l is increasing and slowly/regularly
varying, and rho'(t) = l'(t) exp(l(t)).  Three parametric kinds are provided
plus the asymmetric quantile (pinball) cost, which supports estimation but has
no smooth tail representation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from ._model import _as_array, _fmt, _numeric_args, _parse_call, _scalar_like
from .errors import UnsupportedCostError

__all__ = [
    "Cost",
    "PowerCost",
    "LogPowerCost",
    "ExpPowerCost",
    "QuantileCost",
    "check_measure_property",
    "parse_cost",
    "format_cost",
]

class Cost:
    """Base cost.  Symmetric kinds implement the rho/l tail machinery."""

    def evaluate(self, x, y):
        raise NotImplementedError

    def gradient(self, x, y):
        """Partial derivatives (d/dx c, d/dy c); zero on the diagonal."""
        raise UnsupportedCostError(f"{type(self).__name__} has no gradient")

    # tail representation ----------------------------------------------------

    def rho(self, t):
        raise UnsupportedCostError(f"{type(self).__name__} has no radial profile")

    def rho_prime(self, t):
        raise UnsupportedCostError(f"{type(self).__name__} has no radial profile")

    def l(self, t):
        raise UnsupportedCostError(f"{type(self).__name__} has no tail representation")

    def l_prime(self, t):
        raise UnsupportedCostError(f"{type(self).__name__} has no tail representation")

    def l_inverse(self, s):
        raise UnsupportedCostError(f"{type(self).__name__} has no tail representation")

    def theta1(self) -> float:
        """Growth correction exponent in [0,1] entering the tail condition."""
        raise NotImplementedError


class _RadialCost(Cost):
    """Costs of the form c(x,y) = rho(|x-y|) with rho' = l' exp(l)."""

    def evaluate(self, x, y):
        t = np.abs(_as_array(x) - _as_array(y))
        return _scalar_like(self.rho(t), x, y)

    def gradient(self, x, y):
        d = _as_array(x) - _as_array(y)
        t = np.abs(d)
        g = np.where(t == 0.0, 0.0, self.rho_prime(np.where(t == 0.0, 1.0, t)) * np.sign(d))
        return (_scalar_like(g, x, y), _scalar_like(-g, x, y))

    def rho_prime(self, t):
        ta = _as_array(t)
        return _scalar_like(self.l_prime(ta) * np.exp(self.l(ta)), t)


@dataclass(frozen=True)
class PowerCost(_RadialCost):
    """c(x,y) = |x-y|^alpha, alpha > 1."""

    alpha: float

    def __post_init__(self):
        if not 1 < self.alpha < math.inf:
            raise ValueError(
                f"power cost requires finite alpha > 1 (alpha=1 lacks a vanishing diagonal contraction), got {self.alpha}"
            )

    def rho(self, t):
        return _scalar_like(_as_array(t) ** self.alpha, t)

    def rho_prime(self, t):
        return _scalar_like(self.alpha * _as_array(t) ** (self.alpha - 1.0), t)

    def l(self, t):
        return _scalar_like(self.alpha * np.log(_as_array(t)), t)

    def l_prime(self, t):
        return _scalar_like(self.alpha / _as_array(t), t)

    def l_inverse(self, s):
        return _scalar_like(np.exp(_as_array(s) / self.alpha), s)

    def theta1(self):
        return 0.0


@dataclass(frozen=True)
class LogPowerCost(_RadialCost):
    """c(x,y) = exp((log(1+|x-y|))^{1+beta}) - 1, beta > 0."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"log-power cost requires finite beta > 0, got {self.beta}")

    def rho(self, t):
        return _scalar_like(np.expm1(self.l(_as_array(t))), t)

    def l(self, t):
        return _scalar_like(np.log1p(_as_array(t)) ** (1.0 + self.beta), t)

    def l_prime(self, t):
        ta = _as_array(t)
        return _scalar_like((1.0 + self.beta) * np.log1p(ta) ** self.beta / (1.0 + ta), t)

    def l_inverse(self, s):
        return _scalar_like(np.expm1(_as_array(s) ** (1.0 / (1.0 + self.beta))), s)

    def theta1(self):
        # l(t) = (log(1+t))^{1+beta} gives t l'(t) of order (log t)^beta, so
        # log(t l'(t)) / log(l(t)) tends to beta / (1+beta).
        return self.beta / (1.0 + self.beta)


@dataclass(frozen=True)
class ExpPowerCost(_RadialCost):
    """c(x,y) = exp(|x-y|^beta) - 1, beta > 0."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"exp-power cost requires finite beta > 0, got {self.beta}")

    def rho(self, t):
        return _scalar_like(np.expm1(_as_array(t) ** self.beta), t)

    def l(self, t):
        return _scalar_like(_as_array(t) ** self.beta, t)

    def l_prime(self, t):
        return _scalar_like(self.beta * _as_array(t) ** (self.beta - 1.0), t)

    def l_inverse(self, s):
        return _scalar_like(_as_array(s) ** (1.0 / self.beta), s)

    def theta1(self):
        return 1.0


@dataclass(frozen=True)
class QuantileCost(Cost):
    """Pinball loss c(x,y) = (x-y)(alpha - 1_{x-y<0}), alpha in (0,1).

    A valid cost for estimation (its rectangle increments are nonpositive)
    but asymmetric and kinked on the diagonal, so it carries no gradient,
    no radial profile, and no diagonal contraction.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"quantile cost requires alpha in (0,1), got {self.alpha}")

    def evaluate(self, x, y):
        d = _as_array(x) - _as_array(y)
        return _scalar_like(d * (self.alpha - (d < 0.0)), x, y)

    def theta1(self):
        # Linear growth: same correction exponent as the power family.
        return 0.0


# --- checks -------------------------------------------------------------------


def _evaluate_any(c, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
    """Evaluate a Cost or a plain callable on a meshgrid of values."""
    fn = c.evaluate if isinstance(c, Cost) else c
    return np.asarray(fn(xg[:, None], yg[None, :]), dtype=float)


def check_measure_property(c, grid) -> tuple[bool, float, tuple[float, float, float, float]]:
    """Check that every rectangle increment of c on the grid is <= 1e-12.

    The increment over [x,x'] x [y,y'] is c(x',y')-c(x',y)-c(x,y')+c(x,y); the
    cost induces a negative measure exactly when all of these are nonpositive.
    Returns (ok, worst_increment, (x, x', y, y')) for the maximizing rectangle.

    ``c`` may be a Cost or any callable (x, y) -> value, the latter intended
    for testing the checker itself.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must contain at least two points")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")

    C = _evaluate_any(c, g, g)
    # Increments over adjacent cells; any rectangle increment is a contiguous
    # 2-D sum of these, so the worst rectangle is the max-sum submatrix.
    D = C[1:, 1:] - C[1:, :-1] - C[:-1, 1:] + C[:-1, :-1]
    m = D.shape[0]

    best = -math.inf
    best_rect = (g[0], g[1], g[0], g[1])
    for i0 in range(m):
        t = np.zeros(m)
        for i1 in range(i0, m):
            t += D[i1]
            p = np.concatenate(([0.0], np.cumsum(t)))
            run_min = np.minimum.accumulate(p[:-1])
            gains = p[1:] - run_min
            j1 = int(np.argmax(gains))
            if gains[j1] > best:
                j0 = int(np.argmin(p[: j1 + 1]))
                best = float(gains[j1])
                best_rect = (float(g[i0]), float(g[i1 + 1]), float(g[j0]), float(g[j1 + 1]))
    return best <= 1e-12, best, best_rect


# --- descriptors --------------------------------------------------------------


_KINDS = {"power": PowerCost, "logpower": LogPowerCost, "exppower": ExpPowerCost, "quantile": QuantileCost}


def parse_cost(text: str) -> Cost:
    """Parse a descriptor: power(2), logpower(0.5), exppower(1), quantile(0.3)."""
    name, args = _parse_call(text)
    if name not in _KINDS:
        raise ValueError(f"unknown cost kind {name!r}")
    return _KINDS[name](*_numeric_args(name, args, "value"))


def format_cost(c: Cost) -> str:
    for name, kind in _KINDS.items():
        if isinstance(c, kind):
            return f"{name}({_fmt(*astuple(c))})"
    raise ValueError(f"cannot format cost of type {type(c).__name__}")
