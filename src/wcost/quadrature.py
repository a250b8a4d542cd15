"""Deterministic adaptive quadrature on 15-point Gauss--Kronrod panels.

``CumulativeMesh`` carries the variances' running integrals on a finite
range; they map each tail onto it themselves.  The open-interval integrals of
``exact_cost`` and the location-scale moments are computed as: adaptive
Gauss--Kronrod on the domain truncated at 1e-6 from each edge, plus a tail
correction obtained by halving that truncation level eight times and
accelerating the resulting sequence (Aitken's delta-squared, i.e. Richardson
with estimated ratio).  The strip masses added by each halving also power
their divergence test: if they stop shrinking geometrically the integral is
declared nonconvergent rather than silently truncated.

Everything is deterministic: panels are summed in domain order with
compensated summation, never in refinement order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import eval_legendre

from .errors import NonconvergenceError

__all__ = ["QuadratureConfig", "CumulativeMesh", "gk15_fixed", "graded_breaks", "integrate_1d",
           "integrate_open01"]

# 15-point Kronrod extension of 7-point Gauss (positive half, descending).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node arrays on [-1, 1].
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
# Gauss nodes sit at the odd positions of the Kronrod set.
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))
_W_DIFF = _W_KRONROD - _W_GAUSS

# Cumulative integrals inside a panel come from the degree-14 Legendre
# interpolant of the 15 node samples: _FIT maps samples to its coefficients
# and _ANTI maps those to the coefficients (degree 15) of the antiderivative
# from -1, using int_{-1}^x P_k = (P_{k+1} - P_{k-1}) / (2k + 1), P_{-1} := -1.
_DEGREES = np.arange(_NODES.size + 1)
_FIT = np.linalg.inv(eval_legendre(_DEGREES[None, :-1], _NODES[:, None]))
_ANTI = np.zeros((_NODES.size + 1, _NODES.size))
_ANTI[0, 0] = 1.0
for _k in range(_NODES.size):
    _ANTI[_k + 1, _k] = 1.0 / (2 * _k + 1)
    if _k:
        _ANTI[_k - 1, _k] = -1.0 / (2 * _k + 1)
_ANTI_FIT = _ANTI @ _FIT
# Row j: samples -> integral of the interpolant from -1 to node j.
_CUMULATIVE = eval_legendre(_DEGREES[None, :], _NODES[:, None]) @ _ANTI_FIT

_DIVERGENCE_RATIO = 0.98
# Twice the unit roundoff: one addition's rounding is at most this times its result.
_ULP = 2.0 ** -52
# The open-domain wrappers drive the panel integrals this much below the
# requested tolerance so that the summed error estimate still meets it.
_INNER_TIGHTENING = 20.0
# Their truncation level, and the number of times they halve it.
_EDGE_EPSILON = 1e-6
_EXTRAPOLATION_LEVELS = 8


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and the panel budget of the adaptive integrators."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_subdivisions: int = 6000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("the panel budget must be positive")


def gk15_fixed(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss--Kronrod panel on [a, b]; returns (value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    ik = half * float(np.dot(_W_KRONROD, y))
    ig = half * float(np.dot(_W_GAUSS, y))
    return ik, abs(ik - ig)


def _tolerance(cfg: QuadratureConfig, value: float, scale: float = 0.0) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * max(abs(value), abs(scale)))


def graded_breaks(lo: float, hi: float) -> list[float]:
    """Breakpoints geometrically refined toward 0 and 1 inside (lo, hi).

    Power-type endpoint singularities are nearly scale-free on each decade
    cell, so a decade-graded initial mesh makes the embedded rule accurate
    per cell where uniform bisection would grind.
    """
    pts = {lo, hi}
    t = lo
    while t < 0.1:
        t *= 10.0
        if lo < t < hi:
            pts.add(t)
    s = 1.0 - hi
    while s < 0.1:
        s *= 10.0
        if lo < 1.0 - s < hi:
            pts.add(1.0 - s)
    return sorted(pts)


def _refine(heap: list, split, cfg: QuadratureConfig, scale: float) -> list:
    """Bisect the worst panel until the summed error estimate meets the tolerance.

    ``heap`` entries are ``(-error, *bounds, value)``; ``split(entry)`` returns
    the children's entries, or None when the panel is at floating-point
    resolution.  Running totals are kept per split; the exact compensated sums
    decide the stop and are formed only once the running error, less the bound
    on its own rounding, is within the tolerance.  Returns the final panels.
    """
    heapq.heapify(heap)
    val = math.fsum(p[-1] for p in heap)
    err = math.fsum(-p[0] for p in heap)
    drift = 0.0  # bounds the rounding both running totals have picked up
    while len(heap) < cfg.max_subdivisions:
        if err - drift <= _tolerance(cfg, abs(val) + drift, scale):
            val = math.fsum(p[-1] for p in heap)
            err = math.fsum(-p[0] for p in heap)
            drift = 0.0
            if err <= _tolerance(cfg, val, scale):
                break
        worst = heapq.heappop(heap)
        children = split(worst)
        if children is None:
            heapq.heappush(heap, worst)
            break
        for child in children:
            heapq.heappush(heap, child)
            val += child[-1]
            err -= child[0]
            drift += _ULP * (abs(val) + abs(err))
        val -= worst[-1]
        err += worst[0]
        drift += _ULP * (abs(val) + abs(err))
    return heap


def integrate_1d(f, a: float, b: float, cfg: QuadratureConfig, scale: float = 0.0,
                 breaks=None, raise_on_stall: bool = True) -> tuple[float, float]:
    """Adaptive panel-bisection integral of a vectorized integrand on [a, b].

    ``scale`` loosens the relative tolerance for pieces of a larger integral:
    the error target is max(abs_tol, rel_tol * max(|value|, scale)).
    ``breaks`` seeds the initial partition (must start at a and end at b).
    With ``raise_on_stall`` off, a budget-exhausted result is returned with
    its (honest) error estimate instead of raising; callers that extrapolate
    apply their own final tolerance check.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"bad interval [{a}, {b}]")
    if breaks is None:
        breaks = [a, b]

    def split(entry):
        _, pa, pb, _ = entry
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:  # interval at floating-point resolution
            return None
        (v1, e1), (v2, e2) = gk15_fixed(f, pa, pm), gk15_fixed(f, pm, pb)
        return (-e1, pa, pm, v1), (-e2, pm, pb, v2)

    # heap of (-error, left, right, value); floats give a deterministic order
    heap = [(-err, pa, pb, val) for pa, pb in zip(breaks, breaks[1:])
            for val, err in [gk15_fixed(f, pa, pb)]]
    panels = sorted(_refine(heap, split, cfg, scale), key=lambda p: p[1])
    value = math.fsum(p[3] for p in panels)
    error = math.fsum(-p[0] for p in panels)
    if raise_on_stall and not error <= _tolerance(cfg, value, scale):
        raise NonconvergenceError(
            f"1-D quadrature on [{a}, {b}] stalled at error {error:.3e} "
            f"after {len(panels)} panels (tolerance {_tolerance(cfg, value, scale):.3e})"
        )
    return value, error


def _aitken_last(seq: list[float]) -> tuple[float, float]:
    """Accelerate a convergent sequence; return (limit estimate, residual estimate)."""
    cur = list(seq)
    residual = abs(cur[-1] - cur[-2]) if len(cur) >= 2 else 0.0
    while len(cur) >= 3:
        nxt = []
        for i in range(len(cur) - 2):
            d2 = cur[i + 2] - 2.0 * cur[i + 1] + cur[i]
            d1 = cur[i + 2] - cur[i + 1]
            if abs(d2) <= 1e-300 or not math.isfinite(d2):
                nxt.append(cur[i + 2])
            else:
                nxt.append(cur[i + 2] - d1 * d1 / d2)
        residual = abs(nxt[-1] - cur[-1]) if nxt else residual
        if len(nxt) >= 2:
            residual = min(residual, abs(nxt[-1] - nxt[-2]))
        cur = nxt
    return cur[-1], residual


def _tail_limit(strips: list[float], floor: float, what: str) -> tuple[float, float]:
    """Total mass of one endpoint tail from its successive halving strips.

    Each halving of the truncation level contributes a strip; for a tail with
    an integrable power/slow singularity the strips shrink geometrically, so
    the cumulative sums are accelerated to their limit.  A shrink factor at or
    above the divergence threshold raises instead.  Strips that have changed
    sign by then are not a divergent tail, whose strips keep one sign, so
    that error says the tail is not resolved rather than divergent.  A
    non-finite strip that gets past the ratio test (NaN compares false there)
    raises too, rather than turn the limit into NaN.  Returns (limit of the
    remaining tail mass, residual estimate).
    """
    if all(abs(s) <= floor for s in strips):
        return math.fsum(strips), abs(strips[-1])
    for k, (prev, cur) in enumerate(zip(strips, strips[1:])):
        if abs(cur) <= floor:
            continue  # shrunk into the noise: converged
        if abs(prev) > 0 and abs(cur) / abs(prev) >= _DIVERGENCE_RATIO:
            ratio = f"{abs(cur) / abs(prev):.4f} >= {_DIVERGENCE_RATIO}"
            seen = strips[:k + 2]
            if min(seen) < 0.0 < max(seen):
                flip = max(i for i, s in enumerate(seen) if s * cur < 0.0)
                shown = ", ".join(f"{s:.2g}" for s in seen[flip:])
                raise NonconvergenceError(
                    f"{what}: successive endpoint strips change sign ({shown}) and "
                    f"then stop shrinking (factor {ratio}); the tail is not resolved "
                    "at this tolerance")
            raise NonconvergenceError(
                f"{what}: successive endpoint strips shrink by factor {ratio}; the "
                "tail integral is divergent or too close to divergence to resolve"
            )
    for k, s in enumerate(strips):
        if not math.isfinite(s):
            raise NonconvergenceError(
                f"{what}: endpoint strip {k} is {s}; the tail integral is not finite")
    partial = 0.0
    seq = [0.0]
    for s in strips:
        partial += s
        seq.append(partial)
    return _aitken_last(seq)


def integrate_open01(f, cfg: QuadratureConfig) -> tuple[float, float]:
    """Integral of a vectorized integrand over the open interval (0, 1).

    The integrand may blow up (integrably) at either endpoint: the adaptive
    core runs on the truncated interval and each endpoint's remaining mass is
    extrapolated separately from truncation-halving strips.  Raises when a
    tail looks divergent or the final error estimate misses the tolerance.
    Returns (value, estimated error).
    """
    eps = _EDGE_EPSILON
    inner = replace(cfg, abs_tol=cfg.abs_tol / _INNER_TIGHTENING, rel_tol=cfg.rel_tol / _INNER_TIGHTENING)
    base, quad_err = integrate_1d(f, eps, 1.0 - eps, inner,
                                  breaks=graded_breaks(eps, 1.0 - eps), raise_on_stall=False)
    lefts, rights = [], []
    for _ in range(_EXTRAPOLATION_LEVELS):
        nxt = eps * 0.5
        left, le = integrate_1d(f, nxt, eps, inner, scale=base, raise_on_stall=False)
        right, re_ = integrate_1d(f, 1.0 - eps, 1.0 - nxt, inner, scale=base, raise_on_stall=False)
        lefts.append(left)
        rights.append(right)
        quad_err += le + re_
        eps = nxt
    floor = 0.01 * _tolerance(cfg, base)
    left_tail, left_res = _tail_limit(lefts, floor, "lower endpoint of (0,1)")
    right_tail, right_res = _tail_limit(rights, floor, "upper endpoint of (0,1)")
    value = base + left_tail + right_tail
    est_error = quad_err + left_res + right_res
    if not est_error <= _tolerance(cfg, value):
        raise NonconvergenceError(
            f"open-interval integral: error estimate {est_error:.3e} exceeds "
            f"tolerance {_tolerance(cfg, value):.3e} after {_EXTRAPOLATION_LEVELS} "
            "truncation halvings"
        )
    return value, est_error


class CumulativeMesh:
    """Running integrals Q_i(x) = -int_0^x p_i of a vector integrand on [breaks[0], breaks[-1]].

    ``f`` maps an array of n points to an (m, n) array of the components p_i;
    ``breaks`` are the initial panel ends and hold 0.  Each 15-point
    Gauss--Kronrod panel carries the node samples; Q at a node is the panel
    sums accumulated outward from 0 plus the integral of the panel's
    interpolant up to the node.
    """

    def __init__(self, f, breaks):
        self.f = f
        self.evaluations = 0
        self.breaks = np.asarray(breaks, dtype=float)
        self.p = self._sample(self.breaks[:-1], self.breaks[1:])
        self._update()

    @property
    def panels(self) -> int:
        return self.breaks.size - 1

    def nodes(self) -> np.ndarray:
        """The node abscissae, shape (panels, 15)."""
        return self.mid[:, None] + self.half[:, None] * _NODES

    def _sample(self, lo, hi):
        x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES
        vals = np.asarray(self.f(x.ravel()), dtype=float)
        self.evaluations += vals.shape[-1]
        return vals.reshape((vals.shape[0],) + x.shape)

    def _update(self) -> None:
        lo, hi = self.breaks[:-1], self.breaks[1:]
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        sums = self.half * (self.p @ _W_KRONROD)
        #: per panel, the Kronrod-minus-Gauss discrepancy of int p_i
        self.ep = self.half * np.abs(self.p @ _W_DIFF)
        k0 = int(np.searchsorted(lo, 0.0))
        #: Q_i at each break, summed outward from 0 on both sides, shape (m, panels + 1)
        self.q_breaks = np.concatenate((np.cumsum(sums[:, k0 - 1::-1], axis=1)[:, ::-1],
                                        np.zeros((sums.shape[0], 1)),
                                        -np.cumsum(sums[:, k0:], axis=1)), axis=1)
        #: Q_i at the nodes, shape (m, panels, 15)
        self.Q = self.q_breaks[:, :-1, None] - self.half[:, None] * (self.p @ _CUMULATIVE.T)

    def split(self, mask) -> bool:
        """Bisect the masked panels; False when none can be split any more."""
        lo, hi, mid = self.breaks[:-1], self.breaks[1:], self.mid
        mask = mask & (mid > lo) & (mid < hi)
        if not mask.any():
            return False
        kids = self._sample(np.concatenate((lo[mask], mid[mask])), np.concatenate((mid[mask], hi[mask])))
        order = np.argsort(np.concatenate((lo[~mask], lo[mask], mid[mask])))
        self.p = np.concatenate((self.p[:, ~mask], kids), axis=1)[:, order]
        self.breaks = np.sort(np.concatenate((self.breaks, mid[mask])))
        self._update()
        return True

    def panel_sums(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Per-panel Kronrod integrals of node values and their Kronrod-minus-Gauss gaps."""
        return self.half * (values @ _W_KRONROD), self.half * np.abs(values @ _W_DIFF)


# Name-only stubs: two separate functions, because the benchmark's span table
# rebinds every module attribute that is the object it looked up.


def integrate_2d(*args, **kwargs):
    """Removed.  The name exists only because ``perfbench/spans.py`` looks it up;
    ROADMAP item 17 deletes it together with its span entries."""
    raise NotImplementedError("integrate_2d is removed; the variances are one-dimensional")


def integrate_square_open(*args, **kwargs):
    """Removed.  The name exists only because ``perfbench/spans.py`` looks it up;
    ROADMAP item 17 deletes it together with its span entries."""
    raise NotImplementedError("integrate_square_open is removed; the variances are one-dimensional")
