"""Deterministic adaptive quadrature on 15-point Gauss--Kronrod panels.

Every integral here is taken along the tail coordinate sigma, |sigma| = s -
log 2, with s = -log u below u = 1/2 (sigma < 0) and s = -log(1 - u) above:
an infinite range as in QUADPACK's QAGI, cut where the rest is below the
tolerance, since an integrand of the quantiles times du/ds = e^{-s} decays
like e^{-r s}, r set by the tail constants (del Barrio, Gine & Utzet 2005).
``CumulativeMesh`` is the one adaptive engine, on one signed-sigma range: it
starts from panels cut at 0 and graded at s = 1, 2, 4, ... and bisects,
worst first, the panels that hold more than their share of the error.  It
carries the variances' running integrals, and ``integrate_1d`` sums its
panels for ``integrate_open01``, the one range of ``exact_cost`` and the
location-scale moments.  A window inside (0, 1) is a finite range on the
same coordinate, so its ends are exact; no integral is taken in u itself.

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
#: The most panels one adaptive mesh may hold.
_MAX_SUBDIVISIONS = 6000


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the adaptive integrators; their panel budget is ``_MAX_SUBDIVISIONS``."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


def _tolerance(cfg: QuadratureConfig, value: float) -> float:
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


def integrate_1d(f, breaks, cfg: QuadratureConfig) -> tuple[float, float, float, CumulativeMesh]:
    """Adaptive integral of a vectorized integrand over the panels ``breaks``; (value, error estimate,
    int |f|, final mesh).

    A ``CumulativeMesh`` starts from the panels between consecutive breaks,
    which need not hold 0, and ``CumulativeMesh.refine`` splits them, as it
    does for the variances, until the compensated sum of the panels'
    Kronrod-minus-Gauss gaps meets the tolerance, the budget is spent or no
    panel above its share can be split.  The value is the compensated sum
    of the panels' Kronrod values, int |f| that of their absolute values,
    and the tolerance is taken against int |f|, so an integrand whose parts
    cancel is not driven below its own rounding.  ``f`` is called once per
    panel, on its 15 ascending nodes, and the final mesh holds every sample
    it returned, in domain order: ``mesh.p[0, 0, 0]`` is f at the first node
    and ``mesh.p[0, -1, -1]`` at the last.  A result that misses the
    tolerance is returned with its (honest) error estimate: the caller
    applies the final tolerance check.
    """
    breaks = np.asarray(breaks, dtype=float)
    if not (breaks.size > 1 and np.all(np.isfinite(breaks)) and np.all(np.diff(breaks) > 0.0)):
        raise ValueError(f"bad panel breaks {breaks}")
    # f is called once per 15-node panel: the benchmark counts integrand calls as panels
    mesh = CumulativeMesh(lambda x: np.concatenate([f(t) for t in x.reshape(-1, _NODES.size)])[None], breaks)
    while True:
        value, err, scale = (math.fsum(x) for x in (mesh.sums[0], mesh.ep[0], np.abs(mesh.sums[0])))
        target = _tolerance(cfg, scale)  # scale >= |value|
        if err <= target or not mesh.refine(mesh.ep[0], target):
            return value, err, scale, mesh


def _graded(start: float, stop: float) -> list[float]:
    """[start, stop] in sigma, cut at 0 and at sigma = +-(s - log 2) for s = 1, 2, 4, ... inside it."""
    steps = [s - _LOG2 for s in 2.0 ** np.arange(max(int(math.log2(max(-start, stop) + _LOG2)), 0) + 1)]
    cuts = [-x for x in reversed(steps)] + [0.0] + steps
    return [start] + [x for x in cuts if start < x < stop] + [stop]


def _deep_enough(depth: float, what: str, side: str, decay: str) -> float:
    """``depth``, or NonconvergenceError past ``_DEPTH_CAP``, where e^{-s} leaves the doubles."""
    if depth > _DEPTH_CAP:
        raise NonconvergenceError(
            f"{what}: the {side} tail decays like {decay}; its tail bound needs depth "
            f"s = {depth:.4g} > {_DEPTH_CAP:g}, where e^(-s) leaves the doubles: too near "
            "the tail frontier to resolve")
    return depth


def _deepen(depths, tails, target: float, rates, what: str, decay: str) -> bool:
    """Take each side (left, right) whose tail bound exceeds half ``target`` as much deeper as its
    finite rate says, through ``_deep_enough`` with ``decay`` formatted by the rate; False for none."""
    deeper = [h for h, tail in enumerate(tails) if tail > 0.5 * target and math.isfinite(rates[h])]
    for h in deeper:
        depths[h] = _deep_enough(depths[h] + math.log(2.0 * tails[h] / target) / rates[h] + 1.0,
                                 what, _HALVES[h], decay.format(rates[h]))
    return bool(deeper)


def _finite(f, what: str, noun: str):
    """``f`` (a row or rows of samples) on points sigma, raising NonconvergenceError at a non-finite sample."""
    def sampled(t):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = np.asarray(f(t), dtype=float)
        bad = t[~np.all(np.isfinite(v.reshape(-1, t.size)), axis=0)]
        if bad.size:
            raise NonconvergenceError(
                f"{what}: {noun} not finite near s = {abs(bad[0]) + _LOG2:.4g} "
                f"on the {_HALVES[int(bad[0] >= 0.0)]} tail")
        return v
    return sampled


def integrate_open01(f, rates, cfg: QuadratureConfig, what: str = "open-interval integral",
                     window: tuple[float, float] = (0.0, 1.0)) -> tuple[float, float]:
    """Integral over ``window`` along the tail coordinate sigma; (value, error estimate).

    ``f`` is the integrand times du/ds = e^{-s} as a function of the signed
    sigma, |sigma| = s - log 2, u = e^{-s} below sigma = 0 and 1 - u = e^{-s}
    above it.  It is called on the 15 ascending nodes of one panel at a
    time, and a panel lies on one side of sigma = 0.  The window (lo, hi) is
    the full interval or strictly interior, 0 < lo < hi < 1; any other
    raises ValueError.  An interior window is one range [sigma(lo),
    sigma(hi)], sigma(u) = log 2u below 1/2 and -log 2(1 - u) above, whose
    ends are exact; one whose ends round to one sigma returns (0.0, 0.0).
    On the full interval each side reads its rate r from ``rates`` (left,
    right; unread for an interior window): where the integrand decays like
    e^{-r s}, its mass beyond a depth is at most its value there over r, the
    end term.  That end sits at -+(depth - log 2), first where a unit end
    term meets the tolerance, or at the cap.  Each round is one
    ``integrate_1d`` call on the s = 1, 2, 4, ... grading of the variances'
    mesh; its final mesh gives the end terms at its first and last node, and
    a side goes deeper (``_deepen``) while its end term exceeds half the
    target.  The tolerance is taken against int |f| on the mesh, which is
    |value| for an integrand of one sign.  Raises NonconvergenceError for a rate <= 0 ("divergent"), at a
    non-finite sample, and when the error estimate, the panels' plus the end
    terms, misses the tolerance.
    """
    lo, hi = window
    if not (0.0 < lo < hi < 1.0 or (lo, hi) == (0.0, 1.0)):
        raise ValueError(f"bad integration window {window}: the full interval or strictly interior")
    inner = replace(cfg, abs_tol=cfg.abs_tol / _INNER_TIGHTENING, rel_tol=cfg.rel_tol / _INNER_TIGHTENING)
    sampled = _finite(f, what, "the integrand is")
    tails = []  # each side's end term on the full interval
    if lo > 0.0:
        start, stop = (math.log(2.0 * u) if u < 0.5 else -math.log(2.0 * (1.0 - u)) for u in window)
        if not start < stop:
            return 0.0, 0.0
        value, err, scale, _ = integrate_1d(sampled, _graded(start, stop), inner)
    else:
        for rate, side in zip(rates, _HALVES):
            if not rate > 0.0:
                raise NonconvergenceError(
                    f"{what}: the {side} tail decays at rate r = {rate:.4g} <= 0 along its coordinate "
                    "s, so the integral may be divergent: no depth bounds its tail")
        decades = math.log(2.0 * _INNER_TIGHTENING / cfg.rel_tol) + _DEPTH_SLACK
        # where a unit end term meets the tolerance; the end term read at the cap decides past it
        depths = [min(_LOG2 + (decades - math.log(rate)) / rate, _DEPTH_CAP) for rate in rates]
        while True:
            value, err, scale, mesh = integrate_1d(sampled, _graded(_LOG2 - depths[0], depths[1] - _LOG2),
                                                   inner)
            target = _tolerance(inner, scale)
            tails = [abs(float(mesh.p[0, 0, 0])) / rates[0], abs(float(mesh.p[0, -1, -1])) / rates[1]]
            if not _deepen(depths, tails, target, rates, what, "e^(-r s) with rate r = {:.3g}"):
                break
    est_error, tol = math.fsum([err, *tails]), _tolerance(cfg, scale)
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

    def refine(self, shares, target) -> bool:
        """Bisect, worst first, the panels whose error share exceeds ``target`` over the panel count.

        At most ``_MAX_SUBDIVISIONS`` panels result, read at each call; False when none can be split.
        """
        worst = np.argsort(-shares, kind="stable")[:max(_MAX_SUBDIVISIONS - self.panels, 0)]
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
