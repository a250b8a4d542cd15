"""Dependence structures between the two samples.

A coupling fixes the joint law of the pair of uniforms (U, V) driving the
quantile transforms X = F^{-1}(U), Y = G^{-1}(V).  Four kinds are provided:
independent, the two Frechet extremes, and the Gaussian copula.  The Gaussian
copula draws its pairs through normal scores, X = F^{-1}(Phi(Z1)), so a law
affine in the score (a Gaussian) never round-trips through Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from ._model import _as_array, _numeric_args, _parse_call, _scalar_like
from .distributions import _BELOW_ONE, Distribution, _score_level
from .estimate import PairedSample

__all__ = [
    "Coupling",
    "Independent",
    "Comonotone",
    "Countermonotone",
    "GaussianCopula",
    "sample_pairs",
    "bvn_cdf",
    "parse_coupling",
]

_HALF_STEP = 2.0**-54


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms strictly inside (0,1): (k + 1/2) / 2^53 for one 53-bit draw k.

    ``rng.random`` returns k / 2^53 with k the top 53 bits of one 64-bit draw,
    the same k that ``rng.integers(0, 2**53)`` returns, so the values equal
    the integer formula bit for bit at a lower cost.  The fixed consumption
    (exactly one draw per uniform) keeps streams reproducible regardless of
    how callers batch their draws.  The top draw, 2^53 - 1, would round to
    exactly 1.0 (k + 0.5 rounds half to even), so values are clamped to the
    largest double below 1; no other draw moves.
    """
    u = rng.random(n)
    u += _HALF_STEP
    return np.minimum(u, _BELOW_ONE, out=u)


class Coupling:
    """Joint law of the driving uniform pair (U, V)."""

    def copula_cdf(self, u, v):
        raise NotImplementedError

    def sample_uniforms(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _draw(self, F: Distribution, G: Distribution, n: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n pairs (F^{-1}(U), G^{-1}(V)) from the quantiles of ``sample_uniforms``."""
        us, vs = self.sample_uniforms(n, rng)
        return np.asarray(F.quantile(us), dtype=float), np.asarray(G.quantile(vs), dtype=float)


def _check_unit(u, v):
    ua, va = _as_array(u), _as_array(v)
    # written so that NaN fails the test; an empty array passes
    for a in (ua, va):
        if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
            raise ValueError("copula arguments must lie in [0, 1]")
    return ua, va


@dataclass(frozen=True)
class Independent(Coupling):
    def copula_cdf(self, u, v):
        ua, va = _check_unit(u, v)
        return _scalar_like(ua * va, u, v)

    def sample_uniforms(self, n, rng):
        return _uniform_open(rng, n), _uniform_open(rng, n)


@dataclass(frozen=True)
class Comonotone(Coupling):
    def copula_cdf(self, u, v):
        ua, va = _check_unit(u, v)
        return _scalar_like(np.minimum(ua, va), u, v)

    def sample_uniforms(self, n, rng):
        us = _uniform_open(rng, n)
        return us, us.copy()


@dataclass(frozen=True)
class Countermonotone(Coupling):
    def copula_cdf(self, u, v):
        ua, va = _check_unit(u, v)
        return _scalar_like(np.maximum(ua + va - 1.0, 0.0), u, v)

    def sample_uniforms(self, n, rng):
        us = _uniform_open(rng, n)
        # 1 - 2^-54 (the bottom draw) rounds to 1.0; no other draw moves
        vs = 1.0 - us
        return us, np.minimum(vs, _BELOW_ONE, out=vs)


@dataclass(frozen=True)
class GaussianCopula(Coupling):
    """The copula of a standard bivariate normal pair with correlation r.

    A draw is the pair of normal scores (Z1, r Z1 + sqrt(1 - r^2) Z2).
    ``sample_uniforms`` returns their levels Phi(Z); ``sample_pairs`` maps the
    scores through each law's ``_score_quantile``, which for a Gaussian or a
    location-scale Gaussian is affine in the score and skips Phi and its
    inverse.  Any other law reads the same levels as ``sample_uniforms``.
    """

    r: float

    def __post_init__(self):
        if not -1.0 < self.r < 1.0:
            raise ValueError(f"Gaussian copula correlation must lie in (-1, 1), got {self.r}")

    def copula_cdf(self, u, v):
        ua, va = _check_unit(u, v)
        # ndtri maps 0 and 1 to -inf and +inf, where bvn_cdf takes the exact limits
        return _scalar_like(bvn_cdf(special.ndtri(ua), special.ndtri(va), self.r), u, v)

    def _scores(self, n, rng):
        """n correlated pairs of standard normal scores from two uniform draws."""
        z1 = special.ndtri(_uniform_open(rng, n))
        z2 = special.ndtri(_uniform_open(rng, n))
        return z1, self.r * z1 + math.sqrt(1.0 - self.r * self.r) * z2

    def sample_uniforms(self, n, rng):
        # ndtr returns 1.0 from about 8.29 on, and r z1 + s z2 gets there when
        # both draws are near the top (z1, z2 <= 8.21).  ndtr(z1) stays below
        # 1 with scipy 1.17; its clamp keeps that so on any build.  Neither
        # level can reach 0: the normal scores stay above -12.
        z1, z2 = self._scores(n, rng)
        return _score_level(z1), _score_level(z2)

    def _draw(self, F, G, n, rng):
        z1, z2 = self._scores(n, rng)
        return (np.asarray(F._score_quantile(z1), dtype=float),
                np.asarray(G._score_quantile(z2), dtype=float))


# --- bivariate normal cdf -----------------------------------------------------


def bvn_cdf(x, y, r: float):
    """Standard bivariate normal cdf P(X <= x, Y <= y) with correlation r in (-1, 1).

    Owen's (1956) closed form through his T function,
    (Phi(x) + Phi(y))/2 - T(x, a_x) - T(y, a_y) - beta, with
    a_x = (y/x - r)/sqrt(1 - r^2), a_y likewise and beta = 1/2 when exactly one
    of x, y is negative, else 0; ``special.owens_t`` gives T to rounding.
    An infinite argument gives the exact limit: Phi of the other argument at
    +inf, 0 at -inf.
    """
    if not -1.0 < r < 1.0:
        raise ValueError(f"correlation must lie in (-1, 1), got {r}")
    # -0.0 would put a_x and beta on opposite sides of zero
    xa, ya = np.broadcast_arrays(_as_array(x) + 0.0, _as_array(y) + 0.0)
    s = math.sqrt((1.0 - r) * (1.0 + r))
    with np.errstate(all="ignore"):
        # the ratio y/x stays right where the product x s would be subnormal
        ax = (ya / xa - r) / s
        ay = (xa / ya - r) / s
    # 0/0 at the origin: take the limit along the diagonal
    origin = (xa == 0.0) & (ya == 0.0)
    ax[origin] = ay[origin] = (1.0 - r) / s
    beta = np.where((xa < 0.0) != (ya < 0.0), 0.5, 0.0)
    p = (0.5 * (special.ndtr(xa) + special.ndtr(ya))
         - special.owens_t(xa, ax) - special.owens_t(ya, ay) - beta)
    # an infinite argument leaves Phi of the other one, or 0 at -inf (inf/inf
    # would make the ratio NaN)
    edge = np.isinf(xa) | np.isinf(ya)
    if np.any(edge):
        lim = np.where(np.minimum(xa, ya) == -np.inf, 0.0, special.ndtr(np.minimum(xa, ya)))
        p = np.where(edge, lim, p)
    return _scalar_like(np.clip(p, 0.0, 1.0), x, y)


# --- sampling -----------------------------------------------------------------


def sample_pairs(cp: Coupling, F: Distribution, G: Distribution, n: int, seed: int) -> PairedSample:
    """n i.i.d. pairs with marginals F, G and dependence cp, via quantile transform.

    Each pair is (F^{-1}(U), G^{-1}(V)) for (U, V) from ``cp.sample_uniforms``
    on the same stream, bit for bit, except that under the Gaussian copula a
    Gaussian or location-scale Gaussian marginal is mean + sd Z, taken
    straight from the normal score Z with U = Phi(Z).  That skips the round
    trip through Phi and its inverse, and its rounding.  Identical
    (cp, F, G, n, seed) give bit-identical output.
    """
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return PairedSample(*cp._draw(F, G, n, rng))


# --- descriptors --------------------------------------------------------------


_BARE = {"independent": Independent, "comonotone": Comonotone, "countermonotone": Countermonotone}


def parse_coupling(text: str) -> Coupling:
    """Parse a descriptor: independent, comonotone, countermonotone or gauss(r)."""
    bare = text.strip().lower()
    if bare in _BARE:
        return _BARE[bare]()
    name, args = _parse_call(text)
    if name != "gauss":
        raise ValueError(f"unknown coupling descriptor {text!r}")
    return GaussianCopula(*_numeric_args(name, args, "correlation"))

