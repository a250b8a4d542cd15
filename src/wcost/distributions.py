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
from dataclasses import astuple, dataclass

import numpy as np
from scipy import special

from ._model import _as_array, _fmt, _numeric_args, _parse_call, _scalar_like
from .errors import SingularPointError

__all__ = [
    "Distribution",
    "Gaussian",
    "Pareto",
    "Weibull",
    "Exponential",
    "LocationScale",
    "Reflected",
    "reflect",
    "parse_distribution",
    "format_distribution",
]


def _check_prob_open(u) -> np.ndarray:
    ua = _as_array(u)
    # written so that NaN fails the test; an empty array passes
    if ua.size and not (ua.min() > 0.0 and ua.max() < 1.0):
        raise ValueError(f"probability level must lie in the open interval (0,1), got {u!r}")
    return ua


def _declared(gamma: float, C: float) -> tuple[float, float] | None:
    """The tail constants (gamma, C), or None unless C is a finite positive float."""
    return (gamma, C) if 0.0 < C < math.inf else None


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

    def tail_constants(self) -> tuple[float, float] | None:
        """(gamma, C) with psi(x) ~ C x^gamma at +inf, or ~ C log x for gamma = 0.

        None if undeclared, or if C is not a finite positive float, as when a
        scale near the float range makes it under- or overflow.
        """
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
        return _scalar_like(self._psi_inverse(ya), y)

    def _psi_inverse(self, ya):
        """psi_inverse on a checked array; families override it with a closed form."""
        return self.quantile(-np.expm1(-ya))


@dataclass(frozen=True)
class Gaussian(Distribution):
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.sd < math.inf:
            raise ValueError(f"sd must be positive and finite, got {self.sd}")

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

    def _psi_inverse(self, ya):
        return self.mean - self.sd * special.ndtri_exp(-ya)

    def tail_constants(self):
        twice_var = 2.0 * self.sd * self.sd
        return _declared(2.0, 1.0 / twice_var) if twice_var > 0.0 else None


@dataclass(frozen=True)
class Pareto(Distribution):
    """Standard Pareto on (1, inf): F(x) = 1 - x^{-p}."""

    p: float

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ValueError(f"shape p must be positive and finite, got {self.p}")

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

    def _psi_inverse(self, ya):
        return np.exp(ya / self.p)

    def support(self):
        return (1.0, math.inf)

    def tail_constants(self):
        return (0.0, self.p)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Standard Weibull on (0, inf): F(x) = 1 - exp(-x^q)."""

    q: float

    def __post_init__(self):
        if not 0 < self.q < math.inf:
            raise ValueError(f"shape q must be positive and finite, got {self.q}")

    def cdf(self, x):
        xa = _as_array(x)
        v = np.where(xa <= 0.0, 0.0, -np.expm1(-np.maximum(xa, 0.0) ** self.q))
        return _scalar_like(v, x)

    def sf(self, x):
        xa = _as_array(x)
        v = np.where(xa <= 0.0, 1.0, np.exp(-np.maximum(xa, 0.0) ** self.q))
        return _scalar_like(v, x)

    def pdf(self, x):
        # at x = 0 the right limit: +inf for q < 1, 1 for q = 1, 0 for q > 1
        xa = _as_array(x)
        xp = np.maximum(xa, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(xa < 0.0, 0.0, self.q * xp ** (self.q - 1.0) * np.exp(-(xp**self.q)))
        return _scalar_like(v, x)

    def quantile(self, u):
        ua = _check_prob_open(u)
        return _scalar_like((-np.log1p(-ua)) ** (1.0 / self.q), u)

    def tail_exponent(self, x):
        xa = _as_array(x)
        return _scalar_like(np.where(xa <= 0.0, 0.0, np.maximum(xa, 0.0) ** self.q), x)

    def _psi_inverse(self, ya):
        return ya ** (1.0 / self.q)

    def support(self):
        return (0.0, math.inf)

    def tail_constants(self):
        return (self.q, 1.0)


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float = 1.0

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

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

    def _psi_inverse(self, ya):
        return ya / self.rate

    def support(self):
        return (0.0, math.inf)

    def tail_constants(self):
        return (1.0, self.rate)


@dataclass(frozen=True)
class LocationScale(Distribution):
    """Law of a*X + b for X ~ base: F_{a,b}(x) = F((x-b)/a), a > 0."""

    base: Distribution
    a: float
    b: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"scale a must be positive and finite, got {self.a}")
        if not math.isfinite(self.b):
            raise ValueError(f"shift b must be finite, got {self.b}")

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

    def _psi_inverse(self, ya):
        return self.a * _as_array(self.base.psi_inverse(ya)) + self.b

    def support(self):
        lo, hi = self.base.support()
        return (self.a * lo + self.b, self.a * hi + self.b)

    def tail_constants(self):
        # psi(x) = psi_base((x - b) / a): C scales by a^-gamma (by 1 in the log class)
        tail = self.base.tail_constants()
        try:
            return None if tail is None else _declared(tail[0], tail[1] * self.a ** -tail[0])
        except OverflowError:  # a ** -gamma at a scale near the float range
            return None


@dataclass(frozen=True)
class Reflected(Distribution):
    """Law of -X for X ~ base (used for left-tail checks); it declares no tail constants."""

    base: Distribution

    def cdf(self, x):
        return _scalar_like(self.base.sf(-_as_array(x)), x)

    def sf(self, x):
        return _scalar_like(self.base.cdf(-_as_array(x)), x)

    def pdf(self, x):
        return _scalar_like(self.base.pdf(-_as_array(x)), x)

    def quantile(self, u):
        # 1 - u is exact for u >= 1/2; below, it rounds away the digits of a
        # small u, which the base's psi_inverse at -log(u) keeps.
        ua = _check_prob_open(u)
        low = ua < 0.5
        x = self.base.quantile(1.0 - np.where(low, 0.5, ua))
        if np.any(low):
            x = np.where(low, self.base.psi_inverse(-np.log(np.where(low, ua, 0.5))), x)
        return _scalar_like(-_as_array(x), u)

    def _psi_inverse(self, ya):
        # Solve base.cdf(-x) = exp(-y) directly.  The base formula goes through
        # 1 + expm1(-y), which rounds away the digits of a small exp(-y).
        return -_as_array(self.base.quantile(np.exp(-ya)))

    def support(self):
        lo, hi = self.base.support()
        return (-hi, -lo)


def reflect(d: Distribution) -> Distribution:
    """Return the law of -X, in closed form where the family permits."""
    if isinstance(d, Gaussian):
        return Gaussian(-d.mean, d.sd)
    if isinstance(d, LocationScale):
        return LocationScale(reflect(d.base), d.a, -d.b)
    if isinstance(d, Reflected):
        return d.base
    return Reflected(d)


# --- descriptors --------------------------------------------------------------

_FAMILIES = {
    "gaussian": (Gaussian, "mean, sd"),
    "pareto": (Pareto, "shape"),
    "weibull": (Weibull, "shape"),
    "exponential": (Exponential, "rate"),
}


def parse_distribution(text: str) -> Distribution:
    """Parse a compact descriptor such as ``gaussian(0,1)`` or ``locscale(pareto(3),1,1)``."""
    name, args = _parse_call(text)
    if name in _FAMILIES:
        family, usage = _FAMILIES[name]
        return family(*_numeric_args(name, args, usage))
    if name == "locscale":
        if len(args) != 3:
            raise ValueError("locscale descriptor takes (base, scale, shift)")
        return LocationScale(parse_distribution(args[0]), *_numeric_args(name, args[1:], "scale, shift"))
    if name == "reflect":
        if len(args) != 1:
            raise ValueError("reflect descriptor takes (base)")
        return reflect(parse_distribution(args[0]))
    raise ValueError(f"unknown distribution family {name!r}")


def format_distribution(d: Distribution) -> str:
    if isinstance(d, LocationScale):
        return f"locscale({format_distribution(d.base)},{_fmt(d.a)},{_fmt(d.b)})"
    if isinstance(d, Reflected):
        return f"reflect({format_distribution(d.base)})"
    for name, (family, _) in _FAMILIES.items():
        if isinstance(d, family):
            return f"{name}({','.join(map(_fmt, astuple(d)))})"
    raise ValueError(f"cannot format distribution of type {type(d).__name__}")
