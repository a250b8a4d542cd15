"""Deterministic adaptive quadrature on 15-point Gauss--Kronrod panels.

Each half of (0, 1) is taken along its own tail coordinate, s = -log u below
1/2 and s = -log(1 - u) above, an infinite range as in QUADPACK's QAGI, cut
where the rest is below the tolerance: an integrand of the quantiles times
du/ds = e^{-s} decays like e^{-r s}, r set by the tail constants (del Barrio,
Gine & Utzet 2005).  ``CumulativeMesh`` is the one adaptive engine: it
starts from panels graded at s = 1, 2, 4, ... and bisects, worst first, the
panels that hold more than their share of the error.  It carries the
variances' running integrals, and ``integrate_1d`` sums its panels for
``integrate_open01``, which takes each half as one range for ``exact_cost``
and the location-scale moments.  A window inside (0, 1) is a finite range on
the same coordinate, so its ends are exact; no integral here is taken in u
itself.

Everything is deterministic: panels are summed in domain order with
compensated summation, never in refinement order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import eval_legendre

from .errors import NonconvergenceError

__all__ = ["QuadratureConfig", "CumulativeMesh", "integrate_1d", "integrate_open01"]

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

# The open-interval integrals drive their panels and end terms this much below
# the requested tolerance so that the summed error estimate still meets it.
_INNER_TIGHTENING = 20.0
_LOG2 = math.log(2.0)
_HALVES = ("left", "right")
#: The deepest mesh end in s: e^{-s} stays a normal double to s = 708.
_DEPTH_CAP = 700.0
#: Added to the log of the relative tolerance in a depth: room for a tail's constant.
_DEPTH_SLACK = 4.0


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


def _tolerance(cfg: QuadratureConfig, value: float, scale: float = 0.0) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * max(abs(value), abs(scale)))


def integrate_1d(f, breaks, cfg: QuadratureConfig) -> tuple[float, float]:
    """Adaptive integral of a vectorized integrand over the panels ``breaks``; (value, error estimate).

    A ``CumulativeMesh`` starts from the panels between consecutive breaks,
    which need not hold 0, and ``CumulativeMesh.refine`` splits them, as it
    does for the variances, until the compensated sum of the panels'
    Kronrod-minus-Gauss gaps meets the tolerance, the budget is spent or no
    panel above its share can be split.  The value is the compensated sum
    of the panels' Kronrod values.  ``f`` is called once per panel, on its
    15 ascending nodes.  A result that misses the tolerance is returned with
    its (honest) error estimate: the caller applies the final tolerance
    check.
    """
    breaks = np.asarray(breaks, dtype=float)
    if not (breaks.size > 1 and np.all(np.isfinite(breaks)) and np.all(np.diff(breaks) > 0.0)):
        raise ValueError(f"bad panel breaks {breaks}")
    # f is called once per 15-node panel: the benchmark counts integrand calls as panels
    mesh = CumulativeMesh(lambda x: np.concatenate([f(t) for t in x.reshape(-1, _NODES.size)])[None], breaks)
    while True:
        value, err = math.fsum(mesh.sums[0]), math.fsum(mesh.ep[0])
        target = _tolerance(cfg, value)
        if err <= target or not mesh.refine(mesh.ep[0], target, cfg.max_subdivisions):
            return value, err


def _graded(start: float, stop: float) -> list[float]:
    """[start, stop] in |sigma|, cut at |sigma| = s - log 2 for s = 1, 2, 4, ... inside it."""
    cuts = [s - _LOG2 for s in 2.0 ** np.arange(max(int(math.log2(stop + _LOG2)), 0) + 1)
            if start < s - _LOG2 < stop]
    return [start] + cuts + [stop]


def _breaks(depths) -> np.ndarray:
    """The first mesh on sigma: each half from 0 to its depth's |sigma| = d - log 2, graded by ``_graded``."""
    left, right = (_graded(0.0, d - _LOG2) for d in depths)
    return np.array([-x for x in reversed(left[1:])] + right)


def _deep_enough(depth: float, what: str, side: str, decay: str) -> float:
    """``depth``, or NonconvergenceError past ``_DEPTH_CAP``, where e^{-s} leaves the doubles."""
    if depth > _DEPTH_CAP:
        raise NonconvergenceError(
            f"{what}: the {side} tail decays like {decay}; its tail bound needs depth "
            f"s = {depth:.4g} > {_DEPTH_CAP:g}, where e^(-s) leaves the doubles: too near "
            "the tail frontier to resolve")
    return depth


def _sigma(w: float) -> float:
    """|sigma| = -log(2 w) at the level w = e^{-s} of a half, 0 <= w <= 1/2; inf at w = 0."""
    if w == 0.0:
        return math.inf
    return -math.log(2.0 * w) if w < 0.5 else 0.0


def integrate_open01(halves, rates, cfg: QuadratureConfig, what: str = "open-interval integral",
                     window: tuple[float, float] = (0.0, 1.0)) -> tuple[float, float]:
    """Integral over ``window``, each half along its tail coordinate; (value, error estimate).

    ``halves`` holds, left then right, the integrand times du/ds = e^{-s} as
    a function of |sigma| = s - log 2 >= 0, u = e^{-s} on the left and
    1 - u = e^{-s} on the right.  The window (lo, hi), (0, 1) or strictly
    inside it, is each half's range in |sigma|: [-log(2 min(hi, 1/2)),
    -log(2 lo)] on the left, [-log(2 min(1 - lo, 1/2)), -log(2 (1 - hi))] on
    the right; a half with an empty range is skipped, and an end inside
    (0, 1) is exact.  Each range is one ``integrate_1d`` call that starts on
    the s = 1, 2, 4, ... grading of the variances' mesh.  An open end, lo = 0
    or hi = 1, reads its half's rate r from ``rates`` (unread on a closed
    half): where the integrand decays like e^{-r s}, its mass beyond a depth
    is at most its value there over r, the end term, read at the outermost
    node.  That half runs from 0 to the depth where a unit end term meets the
    tolerance, or to the cap, deepened while its end term exceeds its share
    of the tolerance.  Raises NonconvergenceError for an open end's
    rate <= 0 ("divergent"), at a non-finite sample, and when the error
    estimate, the panels' plus the end terms, misses the tolerance taken
    against |left| + |right|.
    """
    lo, hi = window
    ranges = ((_sigma(min(hi, 0.5)), _sigma(lo)), (_sigma(min(1.0 - lo, 0.5)), _sigma(1.0 - hi)))
    inner = replace(cfg, abs_tol=cfg.abs_tol / _INNER_TIGHTENING, rel_tol=cfg.rel_tol / _INNER_TIGHTENING)
    decades = math.log(2.0 * _INNER_TIGHTENING / cfg.rel_tol) + _DEPTH_SLACK
    values, errors = [], []
    for g, rate, (start, stop), side in zip(halves, rates, ranges, _HALVES):
        if not start < stop:
            continue
        outer = [0.0, 0.0]  # |sigma| and |value| of the outermost node sampled

        def sampled(t, g=g, side=side, outer=outer):
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.asarray(g(t), dtype=float)
            if not np.all(np.isfinite(v)):
                raise NonconvergenceError(f"{what}: the integrand is not finite near s = "
                                          f"{t[~np.isfinite(v)][0] + _LOG2:.4g} on the {side} tail")
            if t[-1] > outer[0]:  # a panel's nodes ascend
                outer[:] = float(t[-1]), abs(float(v[-1]))
            return v

        if stop < math.inf:  # an end inside (0, 1): exact, no end term
            (value, err), end = integrate_1d(sampled, _graded(start, stop), inner), 0.0
        elif not rate > 0.0:
            raise NonconvergenceError(
                f"{what}: the {side} tail decays at rate r = {rate:.4g} <= 0 along its coordinate "
                "s, so the integral may be divergent: no depth bounds its tail")
        else:
            # where a unit end term meets the tolerance; the end term read at the cap decides past it
            depth = min(_LOG2 + (decades - math.log(rate)) / rate, _DEPTH_CAP)
            while True:
                value, err = integrate_1d(sampled, _graded(start, depth - _LOG2), inner)
                end, target = outer[1] / rate, _tolerance(inner, value)
                if end <= target:
                    break
                depth = _deep_enough(depth + math.log(end / target) / rate + 1.0, what, side,
                                     f"e^(-r s) with rate r = {rate:.3g}")
        values.append(value)
        errors += [err, end]
    value, est_error = math.fsum(values), math.fsum(errors)
    tol = _tolerance(cfg, value, math.fsum(map(abs, values)))
    if not est_error <= tol:
        raise NonconvergenceError(
            f"{what}: error estimate {est_error:.3e} exceeds tolerance {tol:.3e}")
    return value, est_error


class CumulativeMesh:
    """Running integrals Q_i(x) = -int_0^x p_i of a vector integrand on [breaks[0], breaks[-1]].

    ``f`` maps an array of n points to an (m, n) array of the components p_i;
    ``breaks`` are the initial panel ends.  Each 15-point Gauss--Kronrod
    panel carries the node samples; Q at a node is the panel sums
    accumulated outward from 0 plus the integral of the panel's interpolant
    up to the node.  On breaks that do not hold 0, Q is taken from the end
    nearest it instead.
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
        #: per panel, the Kronrod integral of p_i and its Kronrod-minus-Gauss discrepancy
        self.sums, self.ep = self.panel_sums(self.p)
        for running in ("q_breaks", "Q"):  # formed again on the next read
            self.__dict__.pop(running, None)

    @cached_property
    def q_breaks(self) -> np.ndarray:
        """Q_i at each break, summed outward from 0 (or the end nearest it), shape (m, panels + 1)."""
        k0 = int(np.searchsorted(self.breaks[:-1], 0.0))
        return np.concatenate((np.cumsum(self.sums[:, :k0][:, ::-1], axis=1)[:, ::-1],
                               np.zeros((self.sums.shape[0], 1)),
                               -np.cumsum(self.sums[:, k0:], axis=1)), axis=1)

    @cached_property
    def Q(self) -> np.ndarray:
        """Q_i at the nodes, shape (m, panels, 15)."""
        return self.q_breaks[:, :-1, None] - self.half[:, None] * (self.p @ _CUMULATIVE.T)

    def refine(self, shares, target, budget: int) -> bool:
        """Bisect, worst first, the panels whose error share exceeds ``target`` over the panel count.

        At most ``budget`` panels result; False when none can be split.
        """
        worst = np.argsort(-shares, kind="stable")[:max(budget - self.panels, 0)]
        mask = np.zeros(self.panels, dtype=bool)
        mask[worst] = shares[worst] > target / self.panels
        return self.split(mask)

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
