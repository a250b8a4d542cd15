"""Parametric univariate distributions and their quantile-side machinery.

Every law exposes the cdf F, the quantile F^{-1}, the density f, and the three
derived quantities the estimation theory is phrased in:

* the density quantile function ``h(u) = f(F^{-1}(u))``,
* its companion ``H(u) = (1-u) / (F^{-1}(u) h(u))``,
* the tail exponent ``psi(x) = -log P(X > x)`` together with its inverse.

Derived quantities are always computed through the composition above, never
re-derived per family, so a family only has to get cdf/quantile/pdf right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import SingularPointError

__all__ = [
    "Distribution",
    "Gaussian",
    "Pareto",
    "Weibull",
    "Exponential",
    "LocationScale",
    "Reflected",
    "cdf",
    "quantile",
    "density_quantile",
    "companion",
    "tail_exponent",
    "psi_inverse",
    "reflect",
    "parse_distribution",
    "format_distribution",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


def _scalar_like(value, template):
    """Return a float when the input was scalar, else the array unchanged."""
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(value)
    return value


def _check_prob_open(u) -> np.ndarray:
    ua = _as_array(u)
    # written so that NaN fails the test; an empty array passes
    if ua.size and not (ua.min() > 0.0 and ua.max() < 1.0):
        raise ValueError(f"probability level must lie in the open interval (0,1), got {u!r}")
    return ua


class Distribution:
    """Base class; families implement cdf/sf/pdf/quantile and tail metadata."""

    # --- family primitives -------------------------------------------------

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - cdf, computed without cancellation."""
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def tail_class(self) -> float | None:
        """Regular-variation index of psi at +inf, or None when unclassified."""
        return None

    # --- derived quantile-side machinery -----------------------------------

    def density_quantile(self, u):
        """h(u) = f(F^{-1}(u))."""
        ua = _check_prob_open(u)
        return _scalar_like(self.pdf(self.quantile(ua)), u)

    def companion(self, u):
        """H(u) = (1-u) / (F^{-1}(u) h(u)); undefined where the quantile is 0."""
        ua = _check_prob_open(u)
        q = _as_array(self.quantile(ua))
        if np.any(q == 0.0):
            raise SingularPointError("companion function is singular where the quantile vanishes")
        h = _as_array(self.pdf(q))
        return _scalar_like((1.0 - ua) / (q * h), u)

    def tail_exponent(self, x):
        """psi(x) = -log P(X > x); infinite beyond the support."""
        s = _as_array(self.sf(x))
        with np.errstate(divide="ignore"):
            return _scalar_like(-np.log(s), x)

    def psi_inverse(self, y):
        """Inverse of the tail exponent on the right tail: sf(psi_inverse(y)) = e^{-y}."""
        ya = _as_array(y)
        if np.any(ya < 0):
            raise ValueError("tail exponent values are nonnegative")
        return _scalar_like(self.quantile(-np.expm1(-ya)), y)


@dataclass(frozen=True)
class Gaussian(Distribution):
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"sd must be positive, got {self.sd}")

    def _z(self, x):
        return (_as_array(x) - self.mean) / self.sd

    def cdf(self, x):
        return _scalar_like(special.ndtr(self._z(x)), x)

    def sf(self, x):
        return _scalar_like(special.ndtr(-self._z(x)), x)

    def pdf(self, x):
        z = self._z(x)
        return _scalar_like(np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi)), x)

    def quantile(self, u):
        ua = _check_prob_open(u)
        return _scalar_like(self.mean + self.sd * special.ndtri(ua), u)

    def tail_exponent(self, x):
        # -log(sf) straight from the log-cdf, stable far beyond sf underflow.
        return _scalar_like(-special.log_ndtr(-self._z(x)), x)

    def psi_inverse(self, y):
        ya = _as_array(y)
        if np.any(ya < 0):
            raise ValueError("tail exponent values are nonnegative")
        return _scalar_like(self.mean - self.sd * special.ndtri_exp(-ya), y)

    def tail_class(self):
        return 2.0


@dataclass(frozen=True)
class Pareto(Distribution):
    """Standard Pareto on (1, inf): F(x) = 1 - x^{-p}."""

    p: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"shape p must be positive, got {self.p}")

    def cdf(self, x):
        xa = _as_array(x)
        with np.errstate(invalid="ignore"):
            v = np.where(xa <= 1.0, 0.0, -np.expm1(-self.p * np.log(np.maximum(xa, 1.0))))
        return _scalar_like(v, x)

    def sf(self, x):
        xa = _as_array(x)
        v = np.where(xa <= 1.0, 1.0, np.maximum(xa, 1.0) ** (-self.p))
        return _scalar_like(v, x)

    def pdf(self, x):
        xa = _as_array(x)
        v = np.where(xa < 1.0, 0.0, self.p * np.maximum(xa, 1.0) ** (-self.p - 1.0))
        return _scalar_like(v, x)

    def quantile(self, u):
        ua = _check_prob_open(u)
        return _scalar_like((1.0 - ua) ** (-1.0 / self.p), u)

    def tail_exponent(self, x):
        xa = _as_array(x)
        v = np.where(xa <= 1.0, 0.0, self.p * np.log(np.maximum(xa, 1.0)))
        return _scalar_like(v, x)

    def psi_inverse(self, y):
        ya = _as_array(y)
        if np.any(ya < 0):
            raise ValueError("tail exponent values are nonnegative")
        return _scalar_like(np.exp(ya / self.p), y)

    def support(self):
        return (1.0, math.inf)

    def tail_class(self):
        return 0.0


@dataclass(frozen=True)
class Weibull(Distribution):
    """Standard Weibull on (0, inf): F(x) = 1 - exp(-x^q)."""

    q: float

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError(f"shape q must be positive, got {self.q}")

    def cdf(self, x):
        xa = _as_array(x)
        v = np.where(xa <= 0.0, 0.0, -np.expm1(-np.maximum(xa, 0.0) ** self.q))
        return _scalar_like(v, x)

    def sf(self, x):
        xa = _as_array(x)
        v = np.where(xa <= 0.0, 1.0, np.exp(-np.maximum(xa, 0.0) ** self.q))
        return _scalar_like(v, x)

    def pdf(self, x):
        xa = _as_array(x)
        xp = np.maximum(xa, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(xa <= 0.0, 0.0, self.q * xp ** (self.q - 1.0) * np.exp(-(xp**self.q)))
        return _scalar_like(v, x)

    def quantile(self, u):
        ua = _check_prob_open(u)
        return _scalar_like((-np.log1p(-ua)) ** (1.0 / self.q), u)

    def tail_exponent(self, x):
        xa = _as_array(x)
        return _scalar_like(np.where(xa <= 0.0, 0.0, np.maximum(xa, 0.0) ** self.q), x)

    def psi_inverse(self, y):
        ya = _as_array(y)
        if np.any(ya < 0):
            raise ValueError("tail exponent values are nonnegative")
        return _scalar_like(ya ** (1.0 / self.q), y)

    def support(self):
        return (0.0, math.inf)

    def tail_class(self):
        return self.q


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def cdf(self, x):
        xa = _as_array(x)
        return _scalar_like(np.where(xa <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(xa, 0.0))), x)

    def sf(self, x):
        xa = _as_array(x)
        return _scalar_like(np.where(xa <= 0.0, 1.0, np.exp(-self.rate * np.maximum(xa, 0.0))), x)

    def pdf(self, x):
        xa = _as_array(x)
        return _scalar_like(np.where(xa < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(xa, 0.0))), x)

    def quantile(self, u):
        ua = _check_prob_open(u)
        return _scalar_like(-np.log1p(-ua) / self.rate, u)

    def tail_exponent(self, x):
        xa = _as_array(x)
        return _scalar_like(np.where(xa <= 0.0, 0.0, self.rate * np.maximum(xa, 0.0)), x)

    def psi_inverse(self, y):
        ya = _as_array(y)
        if np.any(ya < 0):
            raise ValueError("tail exponent values are nonnegative")
        return _scalar_like(ya / self.rate, y)

    def support(self):
        return (0.0, math.inf)

    def tail_class(self):
        return 1.0


@dataclass(frozen=True)
class LocationScale(Distribution):
    """Law of a*X + b for X ~ base: F_{a,b}(x) = F((x-b)/a), a > 0."""

    base: Distribution
    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"scale a must be positive, got {self.a}")

    def _z(self, x):
        return (_as_array(x) - self.b) / self.a

    def cdf(self, x):
        return _scalar_like(self.base.cdf(self._z(x)), x)

    def sf(self, x):
        return _scalar_like(self.base.sf(self._z(x)), x)

    def pdf(self, x):
        return _scalar_like(_as_array(self.base.pdf(self._z(x))) / self.a, x)

    def quantile(self, u):
        return _scalar_like(self.a * _as_array(self.base.quantile(u)) + self.b, u)

    def tail_exponent(self, x):
        return _scalar_like(self.base.tail_exponent(self._z(x)), x)

    def psi_inverse(self, y):
        return _scalar_like(self.a * _as_array(self.base.psi_inverse(y)) + self.b, y)

    def support(self):
        lo, hi = self.base.support()
        return (self.a * lo + self.b, self.a * hi + self.b)

    def tail_class(self):
        return self.base.tail_class()


@dataclass(frozen=True)
class Reflected(Distribution):
    """Law of -X for X ~ base (used for left-tail checks)."""

    base: Distribution

    def cdf(self, x):
        return _scalar_like(self.base.sf(-_as_array(x)), x)

    def sf(self, x):
        return _scalar_like(self.base.cdf(-_as_array(x)), x)

    def pdf(self, x):
        return _scalar_like(self.base.pdf(-_as_array(x)), x)

    def quantile(self, u):
        ua = _check_prob_open(u)
        return _scalar_like(-_as_array(self.base.quantile(1.0 - ua)), u)

    def psi_inverse(self, y):
        ya = _as_array(y)
        if np.any(ya < 0):
            raise ValueError("tail exponent values are nonnegative")
        # Solve base.cdf(-x) = exp(-y).
        return _scalar_like(-_as_array(self.base.quantile(np.exp(-ya))), y)

    def support(self):
        lo, hi = self.base.support()
        return (-hi, -lo)

    def tail_class(self):
        # The right tail of -X is the left tail of X; only classified when that
        # tail is a known reflection-symmetric case (handled by reflect()).
        return None


def reflect(d: Distribution) -> Distribution:
    """Return the law of -X, in closed form where the family permits."""
    if isinstance(d, Gaussian):
        return Gaussian(-d.mean, d.sd)
    if isinstance(d, LocationScale):
        return LocationScale(reflect(d.base), d.a, -d.b)
    if isinstance(d, Reflected):
        return d.base
    return Reflected(d)


# --- module-level operation wrappers ---------------------------------------


def cdf(d: Distribution, x):
    return d.cdf(x)


def quantile(d: Distribution, u):
    return d.quantile(u)


def density_quantile(d: Distribution, u):
    return d.density_quantile(u)


def companion(d: Distribution, u):
    return d.companion(u)


def tail_exponent(d: Distribution, x):
    return d.tail_exponent(x)


def psi_inverse(d: Distribution, y):
    return d.psi_inverse(y)


# --- descriptors --------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _split_args(body: str) -> list[str]:
    """Split a descriptor argument list on top-level commas."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in descriptor arguments {body!r}")
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in descriptor arguments {body!r}")
    parts.append(body[start:])
    return [p.strip() for p in parts]


def _parse_call(text: str) -> tuple[str, list[str]]:
    text = text.strip()
    open_idx = text.find("(")
    if open_idx < 0 or not text.endswith(")"):
        raise ValueError(f"malformed descriptor {text!r}; expected name(arg,...)")
    name = text[:open_idx].strip().lower()
    body = text[open_idx + 1 : -1]
    args = _split_args(body) if body.strip() else []
    return name, args


def _float_arg(args: list[str], idx: int, what: str) -> float:
    try:
        return float(args[idx])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"descriptor {what}: expected numeric argument #{idx + 1}") from exc


def parse_distribution(text: str) -> Distribution:
    """Parse a compact descriptor such as ``gaussian(0,1)`` or ``locscale(pareto(3),1,1)``."""
    name, args = _parse_call(text)
    if name == "gaussian":
        if len(args) != 2:
            raise ValueError("gaussian descriptor takes (mean, sd)")
        return Gaussian(_float_arg(args, 0, name), _float_arg(args, 1, name))
    if name == "pareto":
        if len(args) != 1:
            raise ValueError("pareto descriptor takes (shape)")
        return Pareto(_float_arg(args, 0, name))
    if name == "weibull":
        if len(args) != 1:
            raise ValueError("weibull descriptor takes (shape)")
        return Weibull(_float_arg(args, 0, name))
    if name == "exponential":
        if len(args) != 1:
            raise ValueError("exponential descriptor takes (rate)")
        return Exponential(_float_arg(args, 0, name))
    if name == "locscale":
        if len(args) != 3:
            raise ValueError("locscale descriptor takes (base, scale, shift)")
        return LocationScale(parse_distribution(args[0]), _float_arg(args, 1, name), _float_arg(args, 2, name))
    if name == "reflect":
        if len(args) != 1:
            raise ValueError("reflect descriptor takes (base)")
        return reflect(parse_distribution(args[0]))
    raise ValueError(f"unknown distribution family {name!r}")


def format_distribution(d: Distribution) -> str:
    if isinstance(d, Gaussian):
        return f"gaussian({_fmt(d.mean)},{_fmt(d.sd)})"
    if isinstance(d, Pareto):
        return f"pareto({_fmt(d.p)})"
    if isinstance(d, Weibull):
        return f"weibull({_fmt(d.q)})"
    if isinstance(d, Exponential):
        return f"exponential({_fmt(d.rate)})"
    if isinstance(d, LocationScale):
        return f"locscale({format_distribution(d.base)},{_fmt(d.a)},{_fmt(d.b)})"
    if isinstance(d, Reflected):
        return f"reflect({format_distribution(d.base)})"
    raise ValueError(f"cannot format distribution of type {type(d).__name__}")
