"""Dependence structures between the two samples.

A coupling fixes the joint law of the pair of uniforms (U, V) driving the
quantile transforms X = F^{-1}(U), Y = G^{-1}(V).  Four kinds are provided:
independent, the two Frechet extremes, and the Gaussian copula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import Distribution
from .estimate import PairedSample

__all__ = [
    "Coupling",
    "Independent",
    "Comonotone",
    "Countermonotone",
    "GaussianCopula",
    "copula_cdf",
    "sample_pairs",
    "bvn_cdf",
    "parse_coupling",
    "format_coupling",
]

_HALF_STEP = 2.0**-54
_BELOW_ONE = 1.0 - 2.0**-53


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


def _check_unit(u, v):
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    # written so that NaN fails the test; an empty array passes
    for a in (ua, va):
        if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
            raise ValueError("copula arguments must lie in [0, 1]")
    return ua, va


def _scalar_like(value, *templates):
    if all(np.isscalar(t) or getattr(t, "ndim", 1) == 0 for t in templates):
        return float(value)
    return value


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
    r: float

    def __post_init__(self):
        if not -1.0 < self.r < 1.0:
            raise ValueError(f"Gaussian copula correlation must lie in (-1, 1), got {self.r}")

    def copula_cdf(self, u, v):
        ua, va = _check_unit(u, v)
        # Boundary values first: the copula is 0/identity there and ndtri
        # would produce infinities inside bvn_cdf.
        ua = np.atleast_1d(ua)
        va = np.atleast_1d(va)
        out = np.empty(np.broadcast(ua, va).shape)
        ub, vb = np.broadcast_arrays(ua, va)
        interior = (ub > 0) & (ub < 1) & (vb > 0) & (vb < 1)
        out[~interior] = np.where(
            (ub == 0) | (vb == 0), 0.0, np.where(ub == 1, vb, ub)
        )[~interior]
        if np.any(interior):
            x = special.ndtri(ub[interior])
            y = special.ndtri(vb[interior])
            out[interior] = bvn_cdf(x, y, self.r)
        return _scalar_like(out.reshape(np.broadcast(np.asarray(u), np.asarray(v)).shape), u, v)

    def sample_uniforms(self, n, rng):
        z1 = special.ndtri(_uniform_open(rng, n))
        z2 = special.ndtri(_uniform_open(rng, n))
        us = special.ndtr(z1)
        vs = special.ndtr(self.r * z1 + math.sqrt(1.0 - self.r * self.r) * z2)
        # ndtr returns 1.0 from about 8.29 on, and r z1 + s z2 gets there when
        # both draws are near the top (z1, z2 <= 8.21).  ndtr(z1) stays below
        # 1 with scipy 1.17; its clamp keeps that so on any build.  Neither
        # value can reach 0: the normal scores stay above -12.
        np.minimum(us, _BELOW_ONE, out=us)
        return us, np.minimum(vs, _BELOW_ONE, out=vs)


# --- bivariate normal cdf -----------------------------------------------------

# Gauss--Legendre nodes/weights (half rules) for the three accuracy tiers.
_GL = {
    6: (
        np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
        np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970]),
    ),
    12: (
        np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
                  0.2031674267230659, 0.2334925365383547, 0.2491470458134029]),
        np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
                  0.5873179542866171, 0.3678314989981802, 0.1252334085114692]),
    ),
    20: (
        np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
                  0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
                  0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                  0.1527533871307259]),
        np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                  0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                  0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                  0.07652652113349733]),
    ),
}


def _phi(z):
    return special.ndtr(z)


def bvn_cdf(x, y, r: float):
    """Standard bivariate normal cdf P(X <= x, Y <= y) with correlation r.

    Gauss--Legendre quadrature of the tetrachoric integral, with the
    transformed near-singular treatment when |r| is close to 1; absolute
    error below 5e-8 across the plane.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    xa, ya = np.broadcast_arrays(xa, ya)
    p = _bvnu(-xa, -ya, float(r))
    out = np.clip(p, 0.0, 1.0)
    if np.isscalar(x) and np.isscalar(y):
        return float(out[0] if out.ndim else out)
    return out.reshape(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def _bvnu(dh, dk, r: float) -> np.ndarray:
    """Upper-quadrant probability P(X > dh, Y > dk) for standard bivariate normal."""
    if abs(r) < 0.3:
        w, xg = _GL[6]
    elif abs(r) < 0.75:
        w, xg = _GL[12]
    else:
        w, xg = _GL[20]
    h = np.asarray(dh, dtype=float)
    k = np.asarray(dk, dtype=float)
    hk = h * k
    if abs(r) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(r)
        # both half-nodes of the symmetric rule
        sn = np.sin(0.5 * asr * (np.concatenate((xg, -xg)) + 1.0))
        ws = np.concatenate((w, w))
        expo = (sn[:, None] * hk.ravel()[None, :] - hs.ravel()[None, :]) / (1.0 - sn[:, None] ** 2)
        bvn = (ws[:, None] * np.exp(expo)).sum(axis=0).reshape(h.shape)
        return bvn * asr / (4.0 * math.pi) + _phi(-h) * _phi(-k)

    # |r| >= 0.925: Drezner--Wesolowsky expansion about |r| = 1.
    if r < 0:
        k = -k
        hk = -hk
    bvn = np.zeros_like(h, dtype=float)
    if abs(r) < 1.0:
        a_s = (1.0 - r) * (1.0 + r)
        a = math.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr0 = -0.5 * (bs / a_s + hk)
        m = asr0 > -100.0
        bvn = np.where(
            m,
            a * np.exp(np.where(m, asr0, 0.0))
            * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_s * a_s / 5.0),
            0.0,
        )
        m = -hk < 100.0
        b = np.sqrt(bs)
        sp = math.sqrt(2.0 * math.pi) * _phi(-b / a)
        bvn = bvn - np.where(
            m,
            np.exp(np.where(m, -0.5 * hk, 0.0)) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0,
        )
        a *= 0.5
        for xs_node, w_node in zip(np.concatenate((xg, -xg)), np.concatenate((w, w))):
            xs2 = (a * (xs_node + 1.0)) ** 2
            rs = np.sqrt(1.0 - xs2)
            asr1 = -0.5 * (bs / xs2 + hk)
            m = asr1 > -100.0
            sp1 = 1.0 + c * xs2 * (1.0 + d * xs2)
            ep = np.exp(-0.5 * hk * (1.0 - rs) / (1.0 + rs)) / rs
            bvn = bvn + np.where(m, a * w_node * np.exp(np.where(m, asr1, 0.0)) * (ep - sp1), 0.0)
        bvn = -bvn / (2.0 * math.pi)
    if r > 0:
        return bvn + _phi(-np.maximum(h, k))
    out = -bvn
    corr = np.where(k > h, _phi(k) - _phi(h), 0.0)
    return out + corr


# --- operations ---------------------------------------------------------------


def copula_cdf(cp: Coupling, u, v):
    return cp.copula_cdf(u, v)


def sample_pairs(cp: Coupling, F: Distribution, G: Distribution, n: int, seed: int) -> PairedSample:
    """n i.i.d. pairs with marginals F, G and dependence cp, via quantile transform.

    Identical (cp, F, G, n, seed) give bit-identical output.
    """
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    us, vs = cp.sample_uniforms(n, rng)
    return PairedSample(np.asarray(F.quantile(us), dtype=float),
                        np.asarray(G.quantile(vs), dtype=float))


# --- descriptors --------------------------------------------------------------


def parse_coupling(text: str) -> Coupling:
    t = text.strip().lower()
    if t == "independent":
        return Independent()
    if t == "comonotone":
        return Comonotone()
    if t == "countermonotone":
        return Countermonotone()
    if t.startswith("gauss(") and t.endswith(")"):
        body = t[len("gauss("):-1]
        try:
            return GaussianCopula(float(body))
        except ValueError as exc:
            raise ValueError(f"gauss coupling: bad correlation {body!r}") from exc
    raise ValueError(f"unknown coupling descriptor {text!r}")


def format_coupling(cp: Coupling) -> str:
    if isinstance(cp, Independent):
        return "independent"
    if isinstance(cp, Comonotone):
        return "comonotone"
    if isinstance(cp, Countermonotone):
        return "countermonotone"
    if isinstance(cp, GaussianCopula):
        return f"gauss({format(cp.r, '.17g')})"
    raise ValueError(f"cannot format coupling of type {type(cp).__name__}")
