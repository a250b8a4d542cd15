"""Asymptotic variance of the paired-sample cost estimator, with confidence intervals.

Standardized by sqrt(n), the estimation error of the matched-pairs cost converges
to a centred normal law.  The paper derives its variance as a double integral
over the unit square of the cost gradient along the quantile diagonal against
the covariance of the joint quantile bridge.  Integrated by parts that becomes
the variance of a one-dimensional influence function, the classical L-statistic
form, which is all this module computes:

    sigma^2 = Var[Q_x(U) + Q_y(V)],   Q_x(t) = -int_{1/2}^t partial_x c(F^{-1}, G^{-1}) / h_X,

Q_y likewise, with h_X = f o F^{-1}, h_Y = g o G^{-1} the quantile densities and
(U, V) drawn from the coupling's copula.  ``sigma2`` builds Q_x and Q_y as running
Gauss--Kronrod sums on one mesh (``quadrature.CumulativeMesh``), after
``assumptions.tail_gate`` has checked the paper's tail hypothesis in closed form
from the growth of the cost slope against each quantile; only the covariance
of Q_x and Q_y depends on the coupling.  Under a Gaussian copula that covariance
is Mehler's series sum_k r^k alpha_k beta_k in the Hermite coefficients of Q_x
and Q_y, which are panel sums on the same mesh.  Each half of (0, 1) lies along
its own tail coordinate, s = -log(1 - u) above 1/2 and s = -log u below, as a
mapped infinite range (QUADPACK's QAGI): there the variance integrand decays
like e^{-2 m s}, m the gate's margin (del Barrio, Gine & Utzet 2005), which
sets the mesh's depth and bounds what holding Q constant beyond it misses.
``sigma2_one_sample`` and the trimmed ``sigma2_window`` use the same route.
Closed forms cover location-scale families and Gaussian marginals.
``plug_in_sigma2`` estimates the untrimmed variance from one paired sample
alone, as the sample variance of the empirical influence values: the same Q_x
and Q_y with the order-statistic spacings in place of du / h; its ``eps``
windows them like ``sigma2_window``.  ``confidence_interval`` turns any of these
into a normal-theory interval.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtri

from .assumptions import _power_growth, _side_verdicts, _unsizable, _worst
from .costs import Cost, QuantileCost
from .coupling import Comonotone, Countermonotone, Coupling, GaussianCopula, Independent
from .distributions import Distribution, Gaussian, reflect
from .errors import (DegenerateSampleError, HypothesisGateError, NonconvergenceError,
                     UnsupportedCostError)
from .estimate import PairedSample, _finite_sorted_columns, _quantile_integral
from .quadrature import (_DEPTH_SLACK, _HALVES, _INNER_TIGHTENING, _LOG2, _W_DIFF, _W_KRONROD,
                         CumulativeMesh, QuadratureConfig, _deep_enough, _deepen, _finite, _graded, _tolerance)

__all__ = [
    "DEFAULT_VARIANCE_CONFIG",
    "VarianceResult",
    "sigma2",
    "sigma2_one_sample",
    "sigma2_window",
    "sigma2_location_scale",
    "sigma2_gaussian",
    "plug_in_sigma2",
    "confidence_interval",
]

#: Looser than the quadrature defaults: the influence functions carry endpoint
#: singularities through the 1/h factors, and the downstream uses (CI widths,
#: cross-checks against replicate variances) never need more than ~1e-4 relative.
DEFAULT_VARIANCE_CONFIG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-5)

_METHODS = frozenset({
    "quadrature",
    "closed_form_gaussian",
    "closed_form_location_scale",
    "plug_in",
})

#: Negative totals larger than this cannot be blamed on roundoff: a variance is a
#: covariance quadratic form, so a materially negative integral means the
#: quadrature failed.
_CLAMP_LIMIT = 1e-8

#: Most terms the Mehler series of a Gaussian copula's cross term may take.
#: Its truncation bound shrinks like |r|^K, and the kinks of a window leave
#: coefficients that decay like a power of k, so a window at |r| near 1 needs
#: the most: about 9000 terms at r = 0.9999.
_SERIES_CAP = 20000
#: The share of the tolerance that the series' truncation bound may take.
_SERIES_SHARE = 0.25
#: Terms in the series' first block, and the most in any block; each block
#: after the first has twice as many as the last.
_SERIES_BLOCKS = (16, 512)

#: Relative size, against |Q_x| + |Q_y|, below which Q_x + Q_y is taken as an
#: exact cancellation (a pair that moves in lockstep) rather than a variance to
#: integrate.  Translation pairs leave about 1e-16; a true difference below the
#: threshold adds at most its square to the variance, which goes into est_error.
_CANCELLATION = 1e-12

_SEPARATION_PROBES = (1e-6, 1e-4, 1e-2, 1.0 - 1e-2, 1.0 - 1e-4, 1.0 - 1e-6)

_STANDARD = Gaussian(0.0, 1.0)


@dataclass(frozen=True)
class VarianceResult:
    """An asymptotic-variance value with its provenance and error estimate."""

    value: float
    est_error: float
    method: str
    diagnostics: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValueError(f"a variance is nonnegative, got {self.value}")
        if not (self.est_error >= 0.0):
            raise ValueError(f"error estimate must be nonnegative, got {self.est_error}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {sorted(_METHODS)}")

    def to_dict(self) -> dict:
        return asdict(self)


# --- tail-hypothesis gate and degeneracy warning -------------------------------


def _gate(F: Distribution, G: Distribution, c: Cost, which: tuple[str, ...]):
    """``tail_gate``'s verdict as a diagnostics block, and the margins of the left and right tails.

    Raises HypothesisGateError if the gate fails; no influence-function work
    is spent then: the variance may be infinite, or the normal limit may not
    hold.  A bounded side's margin is 1/2, as Q tends to a limit there.  A
    side the gate cannot size has no margin, and so no depth: it raises
    ValueError naming a law that declares no tail constants, or
    UnsupportedCostError for a cost outside the gate's table.
    """
    sides = _side_verdicts(F, G, c, which)
    verdict = _worst(sides)
    if verdict.failed:
        raise HypothesisGateError(
            f"the paper's tail hypothesis fails on the {verdict.side} side, marginal "
            f"{verdict.marginal}: {verdict.rule}, margin {verdict.margin:.3g}; the asymptotic "
            "variance may be infinite, or the normal limit may not hold", verdict)
    for v in sides.values():
        if v.margin is None:
            raise _unsizable(v)
    return asdict(verdict), [sides[side].margin if side in sides else 0.5 for side in _HALVES]


def _warn_if_tails_meet(F: Distribution, G: Distribution) -> None:
    """Warn when the quantile gap vanishes somewhere in the tails.

    The first-order theory needs the marginals to stay apart in the tails; as they
    coalesce the normal limit degenerates (for F = G both influence functions vanish
    and the fluctuation lives at a different scale entirely).  At each probe the gap
    is measured against the two quantiles' own size, so a common scale of the two laws
    does not move the verdict; two quantiles that are both zero coincide.
    """
    us = np.asarray(_SEPARATION_PROBES)
    fq = np.asarray(F.quantile(us), dtype=float)
    gq = np.asarray(G.quantile(us), dtype=float)
    if np.any(np.abs(fq - gq) <= 1e-8 * (np.abs(fq) + np.abs(gq))):
        warnings.warn(
            "marginals nearly coincide in a tail; the asymptotic variance degenerates "
            "and the normal approximation is unreliable near F = G",
            UserWarning,
            stacklevel=3,
        )


def _require_gradient(c: Cost) -> None:
    if isinstance(c, QuantileCost):
        raise UnsupportedCostError(
            "the quantile (pinball) cost has no gradient off the diagonal, so the "
            "normal-limit variance is not defined for it"
        )


def _clamped(total: float, err: float, what: str) -> tuple[float, float, float]:
    """Enforce nonnegativity: tiny negatives are roundoff, large ones are failures."""
    if total < -_CLAMP_LIMIT:
        raise NonconvergenceError(
            f"{what} came out {total:.3e} < -{_CLAMP_LIMIT:.0e}; a variance is a "
            "covariance form, so a negative of this size means the quadrature failed"
        )
    if total < 0.0:
        return 0.0, err - total, -total
    return total, err, 0.0


# --- influence functions -------------------------------------------------------


def _tail_slopes(F: Distribution, G: Distribution, c: Cost, sigma):
    """(partial_x c / h_X, partial_y c / h_Y) at u(sigma), times du/dsigma = e^{-s}, stacked.

    The gradient is taken along the quantile diagonal.  sigma = s - log 2
    with s = -log(1 - u) on the right half and sigma = log 2 - s with
    s = -log u on the left, so sigma = 0 is u = 1/2.
    The quantiles are closed forms exact in each tail: psi_inverse(s) of the
    law on the right half, and of its reflection, negated, on the left.
    """
    s = np.abs(sigma) + _LOG2
    right = sigma >= 0.0
    x, y = np.empty_like(s), np.empty_like(s)
    for D, out in ((F, x), (G, y)):
        out[right] = D.psi_inverse(s[right])
        out[~right] = -np.asarray(reflect(D).psi_inverse(s[~right]))
    gx, gy = c.gradient(x, y)
    w = np.exp(-s)
    return np.stack((gx * (w / np.asarray(F.pdf(x))), gy * (w / np.asarray(G.pdf(y)))))


def _weights(sigma):
    """du/dsigma = e^{-s} at points sigma."""
    return np.exp(-(np.abs(sigma) + _LOG2))


def _var_term(mesh: CumulativeMesh, X, Xb, e, margins, what: str):
    """Var X(U) for U uniform on (0, 1), from X at the nodes and ``Xb`` at the breaks.

    Beyond each half's depth S, X is held at its end value X_S: X_S^2 e^{-S}
    joins E X^2.  As X^2 e^{-s} decays like e^{-2 m s} (m from ``margins``),
    that and the true tail are both at most X_S^2 e^{-S} / m, and |X| e^{-s}
    decays faster: the half's tail bound.  A panel's error share is its
    Kronrod-minus-Gauss gaps plus its slope-integral discrepancy ``e`` times
    twice the integral of |X| + |E X| from the panel outward.  Returns
    (variance, per-panel shares, per-half tail bounds, 0.0 for no other
    part); raises NonconvergenceError where E X^2 overflows the doubles.
    """
    w = _weights(mesh.nodes())
    lo, hi = mesh.breaks[:-1], mesh.breaks[1:]
    end, depth = Xb[[0, -1]], np.abs(mesh.breaks[[0, -1]]) + _LOG2
    mass = np.exp(-depth)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        (s2, d2), (s1, d1), (a, _) = (mesh.panel_sums(v * w) for v in (X * X, X, np.abs(X)))
        held = end * end * mass
    if not (np.all(np.isfinite(s2)) and np.all(np.isfinite(held))):
        raise NonconvergenceError(f"{what}: the variance overflows the doubles")
    i2 = math.fsum(s2.tolist()) + float(np.sum(held))
    i1 = math.fsum(s1.tolist()) + float(np.sum(end * mass))
    tails = (end * end + 2.0 * abs(i1) * np.abs(end)) * mass / np.asarray(margins)
    k0 = int(np.searchsorted(lo, 0.0))
    beyond = np.concatenate((np.cumsum(a[:k0]) + abs(end[0]) * mass[0],
                             np.cumsum(a[k0:][::-1])[::-1] + abs(end[1]) * mass[1]))
    beyond += abs(i1) * 0.5 * np.exp(-np.maximum(lo, -hi))
    return i2 - i1 * i1, d2 + 2.0 * abs(i1) * d1 + 2.0 * e * beyond, tails, 0.0


def _influence_terms(mesh: CumulativeMesh, cp: Coupling | None, margins):
    """The variances whose weighted sum is sigma^2, but a Gaussian copula's cross term.

    Returns [(name, weight, variance, per-panel error shares, per-half tail
    bounds, the rest of the error bound)].
    """
    Q, Qb, ep = mesh.Q, mesh.q_breaks, mesh.ep
    if cp is None or isinstance(cp, (Comonotone, Countermonotone)):
        # one influence function: Q_x + Q_y, the y part reflected for countermonotone
        name = "x+y" if Q.shape[0] == 2 else "x"
        return [(name, 1.0, *_var_term(mesh, Q.sum(axis=0), Qb.sum(axis=0), ep.sum(axis=0),
                                       margins, "influence"))]
    if not isinstance(cp, (Independent, GaussianCopula)):
        raise TypeError(f"no influence-function variance for coupling {cp!r}")
    return [(name, 1.0, *_var_term(mesh, X, Xb, e, margins, f"influence {name}"))
            for name, X, Xb, e in zip(("x", "y"), Q, Qb, ep)]


def _hermite_blocks(z):
    """The normalized Hermite polynomials h_0, h_1, ... at the points ``z``, in blocks.

    Yields (k, H) with H[j] = h_{k[j] - 1}(z), from the three-term recurrence
    h_m = (z h_{m-1} - sqrt(m - 1) h_{m-2}) / sqrt(m).  The first block has
    ``_SERIES_BLOCKS[0]`` rows and each later one twice as many as the last,
    up to ``_SERIES_BLOCKS[1]``.
    """
    size, largest = _SERIES_BLOCKS
    before = last = np.zeros_like(z)
    m = 0  # the order of the next row
    while True:
        H = np.empty((size,) + z.shape)
        for row in H:
            if m == 0:
                row[...] = 1.0
            else:
                np.multiply(z, last, out=row)
                row -= math.sqrt(m - 1) * before
                row *= 1.0 / math.sqrt(m)
            before, last, m = last, row, m + 1
        yield np.arange(m - size + 1, m + 1), H
        size = min(2 * size, largest)


def _cross_term(mesh: CumulativeMesh, r: float, q: QuadratureConfig, x, y, margins):
    """A Gaussian copula's cross term 2 Cov(Q_x(U), Q_y(V)) by Mehler's formula.

    With U = Phi(Z_1), V = Phi(r Z_1 + s Z_2) the covariance is
    sum_k r^k alpha_k beta_k over the Hermite coefficients
    alpha_k = E[Q_x(Phi(Z)) h_k(Z)] of Q_x and beta_k of Q_y.  As
    h_k phi = -(h_{k-1} phi)' / sqrt(k), integration by parts gives
    alpha_k = -int p_x phi(z) h_{k-1}(z) du / sqrt(k), z = Phi^{-1}(u) =
    +-psi_inverse(s) of the standard normal law: a panel sum of the mesh's
    slopes times phi at the nodes' scores, against h_{k-1} from
    ``_hermite_blocks``, for a block of k at a time.  These are the
    coefficients of Q_x and Q_y held constant beyond the meshed range.  ``x``
    and ``y`` are the variance terms on the same mesh.

    Clamping does not increase a variance, so with R_x = Var Q_x + its error
    - sum_{k <= K} alpha_k^2 the rest of the series is at most
    |r|^{K+1} sqrt(R_x R_y).  That shrinks slowly as r -> 1, where sigma^2 may
    be tiny, so for r > 0, once the first block of terms has not met the
    tolerance, the series is also read as
    sigma^2 = Var(Q_x + Q_y) + 2 sum_k (r^k - 1) alpha_k beta_k: as
    1 - r^k <= k (1 - r) and sum_k k alpha_k^2 = int p_x^2 phi^2 du, its rest
    is at most 2 (1 - r) sqrt(D_x D_y), D_x being that integral (plus its
    error) less sum_{k <= K} k alpha_k^2.  Terms are added until the smaller
    bound meets its share of the tolerance, or until what a form has left of
    its sums lies within their error; more than ``_SERIES_CAP`` terms raise.
    A panel's error share is its gap in each coefficient times |r^k| (or
    |r^k - 1|) and the other coefficient.  Holding Q_x and Q_y constant beyond
    the mesh moves the covariance by at most sd(D_x) (sd(Q_y) + sd(D_y))
    + sd(Q_x) sd(D_y) (Cauchy--Schwarz), D_x being Q_x less its clamped form,
    whose second moment is at most 4 times the x term's tail bound on each
    half: the cross term's tail bound (twice it in the second reading).
    Returns the form with the smaller error estimate, as an entry of
    ``_influence_terms``, and its diagnostics.
    """
    sigma = mesh.nodes()
    z = np.where(sigma >= 0.0, 1.0, -1.0) * _STANDARD.psi_inverse(np.abs(sigma) + _LOG2)
    weighted = mesh.p * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    v = weighted * mesh.half[:, None]
    # per node: the Kronrod weights of alpha and beta, then the Kronrod-minus-Gauss ones
    rule = np.stack((v[0] * _W_KRONROD, v[1] * _W_KRONROD, v[0] * _W_DIFF, v[1] * _W_DIFF), -1)
    (vx, ex), (vy, ey) = ((cov, float(np.sum(sh) + np.sum(t))) for _, _, cov, sh, t, _ in (x, y))
    # sd(D_x) per half, and the Cauchy--Schwarz tail bound of the covariance per half
    dx, dy = np.sqrt(4.0 * x[4]), np.sqrt(4.0 * y[4])
    sx, sy = math.sqrt(max(vx, 0.0)), math.sqrt(max(vy, 0.0))
    cs = dx * (sy + float(np.sum(dy))) + sx * dy
    # per form, r^k and (r > 0) r^k - 1: the sum and the per-panel shares
    forms = [[0.0, np.zeros(mesh.panels)]]
    seen = np.zeros(4)  # sum_k alpha_k^2, beta_k^2, k alpha_k^2, k beta_k^2 so far
    one = None
    blocks = _hermite_blocks(z)
    k, H = next(blocks)
    while True:
        res = np.matmul(H.transpose(1, 0, 2), rule).transpose(1, 2, 0)
        scale = (1.0 / np.sqrt(k))[:, None, None]
        sums, gaps = -scale * res[:, :2], scale * np.abs(res[:, 2:])
        a, b = sums[:, 0].sum(axis=1), sums[:, 1].sum(axis=1)
        squares = seen + np.cumsum(np.stack((a * a, b * b, k * a * a, k * b * b), 1), axis=0)
        rk = r ** k
        weights = (rk, rk - 1.0)[:len(forms)]
        running = [form[0] + np.cumsum(wk * a * b) for form, wk in zip(forms, weights)]
        tx, ty = vx - squares[:, 0], vy - squares[:, 1]
        # a product of square roots: the product of two variances may underflow
        bounds = [np.abs(rk * r) * np.sqrt(np.maximum(tx + ex, 0.0))
                  * np.sqrt(np.maximum(ty + ey, 0.0))]
        done = (tx <= ex) & (ty <= ey)
        value = vx + vy + 2.0 * running[0]
        if one:
            rx, ry = d[0] - squares[:, 2], d[1] - squares[:, 3]
            bounds.append((1.0 - r) * np.sqrt(np.maximum(rx + d[2], 0.0))
                          * np.sqrt(np.maximum(ry + d[3], 0.0)))
            done |= (rx <= d[2]) & (ry <= d[3])
            value = np.where(bounds[0] <= bounds[1], value, one[0] + 2.0 * running[1])
        tight = np.minimum.reduce(bounds)
        stop = (done | ~(2.0 * tight > _SERIES_SHARE * np.maximum(
            q.abs_tol, q.rel_tol * np.abs(value)))) & (k <= _SERIES_CAP)
        if k[0] == 1 and r > 0.0 and one is None and not stop.any():
            one = _var_term(mesh, mesh.Q.sum(axis=0), mesh.q_breaks.sum(axis=0),
                            mesh.ep.sum(axis=0), margins, "influence x+y")
            d_sums, d_gaps = mesh.panel_sums(weighted * weighted / _weights(sigma))
            d = d_sums.sum(axis=1).tolist() + d_gaps.sum(axis=1).tolist()
            forms.append([0.0, np.zeros(mesh.panels)])
            continue  # read the first block again, in both forms
        n = int(np.argmax(stop)) + 1 if stop.any() else k.size
        for form, wk, total in zip(forms, weights, running):
            form[0] = float(total[n - 1])
            form[1] = (form[1] + np.abs(wk[:n] * b[:n]) @ gaps[:n, 0]
                       + np.abs(wk[:n] * a[:n]) @ gaps[:n, 1])
        seen = squares[n - 1]
        if stop.any():
            break
        if k[-1] >= _SERIES_CAP:
            raise NonconvergenceError(
                f"influence cross: series truncation bound "
                f"{2.0 * tight[_SERIES_CAP - k[0]]:.3e} still exceeds its share of the "
                f"tolerance after {_SERIES_CAP} terms (r = {r})")
        k, H = next(blocks)
    bound = [float(b[n - 1]) for b in bounds]
    # (covariance, per-half tail bounds, per-panel shares, truncation bound) of each form
    found = [(forms[0][0], cs, forms[0][1], bound[0])]
    if one:
        # Var(Q_x + Q_y) enters sigma^2 once, so half of it, and of its error, here
        found.append((0.5 * (one[0] - vx - vy) + forms[1][0], 0.5 * one[2] + 2.0 * cs,
                      forms[1][1] + 0.5 * one[1], bound[1]))
    cov, tails, shares, bound = min(found, key=lambda f: float(np.sum(f[1])) + f[3]
                                    + float(np.sum(f[2])))
    return (("cross", 2.0, cov, shares, tails, bound),
            {"series_terms": int(k[n - 1]), "truncation_bound": 2.0 * bound})


def _depth(margin: float, q: QuadratureConfig, side: str) -> float:
    """The depth in s where e^{-2 m s} / m of a tail of margin m meets the tolerance squared.

    The square is for the cross term's Cauchy--Schwarz tail bound, the square
    root of the variances' ones.
    """
    decades = 2.0 * (math.log(2.0 * _INNER_TIGHTENING / q.rel_tol) + _DEPTH_SLACK)
    return _deep_enough(_LOG2 + (decades - math.log(margin)) / (2.0 * margin), "influence", side,
                        f"e^(-2 m s) with margin m = {margin:.3g}")


def _influence_sigma2(f, cp: Coupling | None, q: QuadratureConfig, margins,
                      depth: float | None = None) -> tuple[float, float, dict]:
    """Variance of the summed influence functions of the slopes ``f``, under coupling ``cp``.

    ``f`` maps points sigma to the stacked slopes times du/dsigma (one row and
    ``cp`` None for a single influence function; two rows, x then y,
    otherwise).  ``margins`` holds the gate's tail margin m > 0 of each half
    (left, right): inf where holding Q constant beyond the mesh is exact (a
    window ``depth`` deep); ``_depth`` sets the depth of the others.  The
    mesh starts on ``_graded`` from sigma = log 2 - d_left to d_right -
    log 2, the samples pass ``quadrature._finite``, the guard that
    ``integrate_open01`` uses, and it is bisected where the error shares
    concentrate, worst first, until they total at most the tolerance over the
    inner tightening, or the panel budget is spent; a Gaussian copula's cross
    term joins once the others meet it.  A half whose tail bound takes more
    than half that target goes as much deeper as its margin says, and the
    mesh starts again.
    Returns (value, est_error, per-term diagnostics) before clamping; raises
    NonconvergenceError, naming the largest part of the error, when the error
    bound misses the tolerance, at the first point where a sampled slope is
    not finite, and where a variance overflows the doubles.
    """
    depths = [depth or _depth(m, q, side) for m, side in zip(margins, _HALVES)]
    while True:
        mesh = CumulativeMesh(_finite(f, "influence", "the cost slopes are"),
                              _graded(_LOG2 - depths[0], depths[1] - _LOG2))
        kept, series, exhausted = None, {}, False  # kept: (panel count, terms) of the last round
        for cross in (False, True) if isinstance(cp, GaussianCopula) else (False,):
            while True:
                # A split always adds panels, so the first cross round, on the mesh
                # that the last round without it measured, reuses that round's terms.
                if kept is None or kept[0] != mesh.panels:
                    kept = (mesh.panels, _influence_terms(mesh, cp, margins))
                terms = kept[1]
                if cross:
                    term, series = _cross_term(mesh, cp.r, q, *terms, margins)
                    terms = terms + [term]
                value = math.fsum(weight * cov for _, weight, cov, _, _, _ in terms)
                shares = sum(weight * sh for _, weight, _, sh, _, _ in terms)
                target = _tolerance(q, value) / _INNER_TIGHTENING
                if float(np.sum(shares)) <= target:
                    break
                if not mesh.refine(shares, target):
                    exhausted = True
                    break
        tails = sum(weight * t for _, weight, _, _, t, _ in terms)
        if not _deepen(depths, tails, target, margins, "influence", "e^(-2 m s) with margin m = {:.3g}"):
            break
    parts = {}  # the parts of each term's error bound
    for name, weight, _, sh, t, rest in terms:
        parts[name] = {"panels": weight * float(np.sum(sh)), "left tail": weight * float(t[0]),
                       "right tail": weight * float(t[1]), "series truncation": weight * rest}
    err = math.fsum(bound for part in parts.values() for bound in part.values())
    if isinstance(cp, (Comonotone, Countermonotone)):
        # Q_x + Q_y at rounding level next to |Q_x| + |Q_y|: an exact cancellation
        floor = _CANCELLATION * float(np.max(np.abs(mesh.Q).sum(axis=0)))
        if float(np.max(np.abs(mesh.Q.sum(axis=0)))) <= floor:
            value, err = 0.0, err + abs(value) + floor * floor
    if not err <= _tolerance(q, value):
        raise NonconvergenceError(
            f"influence-function variance: error estimate {err:.3e} exceeds tolerance "
            f"{_tolerance(q, value):.3e} with {mesh.panels} panels"
            + (" (panel budget exhausted)" if exhausted else "")
            + "; the largest part is the " + max(
                (bound, f"{name} {key}") for name, part in parts.items()
                for key, bound in part.items())[1])
    common = {"panels": mesh.panels, "evaluations": mesh.evaluations,
              "depth_left": depths[0], "depth_right": depths[1], "budget_exhausted": exhausted}
    diag = {name: {"value": weight * cov, "est_error": math.fsum(parts[name].values()),
                   "tail_bound_left": parts[name]["left tail"],
                   "tail_bound_right": parts[name]["right tail"], **common}
            for name, weight, cov, _, _, _ in terms}
    if "cross" in diag:
        diag["cross"].update(series)
    return value, err, diag


def _two_sample_slopes(F: Distribution, G: Distribution, c: Cost, cp: Coupling):
    if isinstance(cp, Countermonotone):
        # Q_y(1 - u) is the influence function of -p_y(1 - u); u -> 1 - u is sigma -> -sigma
        return lambda t: np.stack((_tail_slopes(F, G, c, t)[0], -_tail_slopes(F, G, c, -t)[1]))
    return lambda t: _tail_slopes(F, G, c, t)


# --- population variances -----------------------------------------------------


def sigma2(F: Distribution, G: Distribution, c: Cost, cp: Coupling,
           q: QuadratureConfig | None = None) -> VarianceResult:
    """Asymptotic variance of sqrt(n) times the estimation error of the paired cost.

    Once ``assumptions.tail_gate`` passes, evaluates Var[Q_x(U) + Q_y(V)] for
    (U, V) drawn from the coupling, with Q_x(t) = -int_{1/2}^t
    partial_x c(F^{-1}, G^{-1}) / h_X and Q_y likewise.  This is the paper's
    double integral over the unit square, integrated by parts, so it needs
    only one-dimensional quadrature: independent pairs add Var Q_x and
    Var Q_y, the Frechet extremes take the variance of Q_x(u) + Q_y(u) or
    Q_x(u) + Q_y(1 - u), and the Gaussian copula adds twice the covariance,
    summed as Mehler's series in the Hermite coefficients of Q_x and Q_y.  ``est_error`` sums the
    Kronrod-minus-Gauss gaps, their propagation through the running sums, each
    half's tail bound and, for the Gaussian copula, the series' truncation
    bound.  When Q_x + Q_y cancels to rounding (a pair that moves in lockstep)
    the value is exactly 0.0.

    ``diagnostics["gate"]`` holds the gate's verdict and witness.  Raises
    HypothesisGateError (a NonconvergenceError) when the gate finds the
    paper's tail hypothesis false, NonconvergenceError when the quadrature
    misses its tolerance, naming the largest part of its error (or the side
    and margin of a tail too near the frontier to reach, or a variance past
    the doubles), UnsupportedCostError for costs without the gradient or
    outside the gate's table, and ValueError naming a law that declares no
    tail constants: no tail depth is guessed where the gate has no margin.
    """
    if q is None:
        q = DEFAULT_VARIANCE_CONFIG
    _require_gradient(c)
    _warn_if_tails_meet(F, G)
    gate, margins = _gate(F, G, c, ("x", "y"))
    if isinstance(cp, Countermonotone):
        # each half pairs x's tail on one side with y's on the other
        margins = [min(margins)] * 2
    v, e, terms = _influence_sigma2(_two_sample_slopes(F, G, c, cp), cp, q, margins)
    value, err, clamp = _clamped(v, e, "variance integral")
    return VarianceResult(value, err, "quadrature",
                          {"influence": terms, "gate": gate, "clamp": clamp})


def sigma2_window(F: Distribution, G: Distribution, c: Cost, cp: Coupling, eps: float,
                  q: QuadratureConfig | None = None) -> VarianceResult:
    """Asymptotic variance of the estimator trimmed to the window (eps, 1 - eps).

    The influence functions are held constant outside the window, which is
    the meshed range, so the tails beyond it are exact.  The window excludes
    both tails, so this exists even when the full-interval variance
    diverges; no tail gate runs.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"window trim must lie in (0, 1/2), got {eps}")
    if q is None:
        q = DEFAULT_VARIANCE_CONFIG
    _require_gradient(c)
    v, e, terms = _influence_sigma2(_two_sample_slopes(F, G, c, cp), cp, q, [math.inf] * 2,
                                    -math.log(eps))
    value, err, clamp = _clamped(v, e, "window variance integral")
    return VarianceResult(value, err, "quadrature", {"influence": terms, "clamp": clamp})


def sigma2_one_sample(F: Distribution, G: Distribution, c: Cost, side: str = "x",
                      q: QuadratureConfig | None = None) -> VarianceResult:
    """Variance when only one sample is random and the other marginal is known.

    For side "x" the limit of sqrt(n)(W(F_n, G) - W(F, G)) is centred normal with
    variance Var Q_x(U), U uniform, where Q_x is the running integral of the
    matching partial slope of the cost along the quantile diagonal over the same
    marginal's quantile density (see ``sigma2``).  Under independent pairing the
    two sides add up to the two-sample value.  The tail gate reads only this
    side's marginal, and its margins set the depth, raising as in ``sigma2``.
    """
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    if q is None:
        q = DEFAULT_VARIANCE_CONFIG
    _require_gradient(c)
    _warn_if_tails_meet(F, G)
    gate, margins = _gate(F, G, c, (side,))
    row = 0 if side == "x" else 1
    v, e, terms = _influence_sigma2(lambda t: _tail_slopes(F, G, c, t)[row:row + 1], None, q,
                                    margins)
    value, err, clamp = _clamped(v, e, "one-sample variance integral")
    return VarianceResult(value, err, "quadrature",
                          {"side": side, "gate": gate, "clamp": clamp,
                           "influence": {side: terms["x"]}})


def _moment(base: Distribution, power: int, q: QuadratureConfig) -> tuple[float, float]:
    """E X^power for X drawn from ``base``, and its error estimate."""
    return _quantile_integral((base,), lambda x: x ** power, power, _power_growth, q,
                              f"generator moment {power}")


def sigma2_location_scale(base: Distribution, a: float, b: float,
                          a_prime: float, b_prime: float,
                          q: QuadratureConfig | None = None) -> VarianceResult:
    """Closed form for two members of one location-scale family under independence.

    For marginals with quantiles a X + b and a' X + b' built from a symmetric,
    unit-variance generator X, the independent squared-distance variance collapses to
    4 (a^2 + a'^2) ((b - b')^2 + V4/4 (a - a')^2), with V4 = var(X^2) under the
    generator.  The generator's symmetry and unit variance are verified numerically
    (|mean| and |var - 1| below 1e-6 by quadrature) and V4 is computed the same way,
    each E X^k along the tail coordinate to a depth from its tail constants, as
    ``exact_cost`` does; an infinite moment raises a "divergent" NonconvergenceError.
    """
    if not (a > 0 and a_prime > 0):
        raise ValueError(f"scales must be positive, got a={a}, a'={a_prime}")
    if q is None:
        q = QuadratureConfig()
    probe = np.linspace(0.005, 0.495, 50)
    lo = np.asarray(base.quantile(probe), dtype=float)
    hi = np.asarray(base.quantile(1.0 - probe), dtype=float)
    asym = float(np.max(np.abs(lo + hi) / (1.0 + np.abs(hi))))
    if asym >= 1e-6:
        raise ValueError(
            f"generator must be symmetric about 0; quantile mismatch up to {asym:.3e}")
    mean, mean_err = _moment(base, 1, q)
    if abs(mean) >= 1e-6:
        raise ValueError(f"generator must be centred; quadrature mean {mean:.3e}")
    second, second_err = _moment(base, 2, q)
    if abs(second - mean * mean - 1.0) >= 1e-6:
        raise ValueError(
            f"generator must have unit variance; quadrature variance {second - mean * mean:.8f}")
    fourth, fourth_err = _moment(base, 4, q)
    v4 = fourth - second * second
    v4_err = fourth_err + 2.0 * abs(second) * second_err
    scale = a * a + a_prime * a_prime
    delta = a - a_prime
    value = 4.0 * scale * ((b - b_prime) ** 2 + 0.25 * v4 * delta * delta)
    return VarianceResult(value, scale * delta * delta * v4_err, "closed_form_location_scale",
                          {"v4": v4, "generator_mean": mean,
                           "generator_variance": second - mean * mean})


def sigma2_gaussian(F: Gaussian, G: Gaussian) -> VarianceResult:
    """Exact variance for two Gaussian marginals under independent pairing.

    4 (s_F^2 + s_G^2) (m_F - m_G)^2 + 2 (s_F^2 + s_G^2) (s_F - s_G)^2; the Gaussian
    generator has V4 = 2, which turns the location-scale form into this one.
    """
    if not (isinstance(F, Gaussian) and isinstance(G, Gaussian)):
        raise TypeError("closed form is specific to Gaussian marginals")
    s2 = F.sd * F.sd + G.sd * G.sd
    value = 4.0 * s2 * (F.mean - G.mean) ** 2 + 2.0 * s2 * (F.sd - G.sd) ** 2
    return VarianceResult(value, 0.0, "closed_form_gaussian", {})


# --- plug-in estimation from one paired sample ---------------------------------


def _empirical_influence(xs: np.ndarray, order: np.ndarray, slope, eps: float) -> np.ndarray:
    """Q-hat at each observation: running sums of slope times spacing.

    ``xs`` holds the sorted column, ``order`` the argsort that scatters Q-hat
    back to the pairs, ``slope`` one value per order statistic.  Tied values
    share one value, since the spacings between them are zero.
    """
    steps = np.asarray(slope, dtype=float) * np.diff(xs, prepend=xs[0])
    if eps > 0.0:
        t = np.arange(xs.size) / xs.size
        steps[(t <= eps) | (t >= 1.0 - eps)] = 0.0
    q = np.empty(xs.size)
    q[order] = np.cumsum(steps)
    return q


def plug_in_sigma2(s: PairedSample, c: Cost, eps: float = 0.0) -> VarianceResult:
    """Plug-in ``sigma2`` from one paired sample: the variance of its empirical influence values.

    The empirical quantile functions replace F^{-1} and G^{-1} in the influence
    functions of ``sigma2``: dF^{-1} = du / h_X becomes the spacing of the
    order statistics, so Q_x at the i-th order statistic is the running sum of
    partial_x c(x_(j), y_(j)) (x_(j) - x_(j-1)) over j <= i, and Q_y likewise.
    Each pair contributes Q_x at the rank of its x plus Q_y at the rank of its
    y, which carries the coupling; the estimate is the sample variance of those
    n values (ddof 1).  No density or bandwidth enters.  With ``eps`` > 0 the
    slopes at rank fractions outside (eps, 1 - eps) are zeroed, which estimates
    ``sigma2_window`` -- the variance of the estimator trimmed to that window;
    the default ``eps = 0`` estimates the untrimmed ``sigma2``.

    Near the tail frontier the estimate is itself heavy-tailed: for the unit
    translation of Pareto(5) against Pareto(5) under power(2) and independent
    pairing (sigma2 = 5/6 = 0.833), samples of n = 5000 from seeds 0-199 gave
    a median of 0.823 but a mean of 2.0 with standard deviation 10.8.

    The value is an exact function of the sample, so ``est_error`` is 0.0; its
    sampling error is not included, use replicate spread for that.  Tied values
    share one Q-hat value, so the value does not depend on how ties are ordered
    and any sort order gives it.  Raises ValueError when either column holds
    NaN or +-inf, and then DegenerateSampleError on a constant column.
    """
    n = s.n
    if n < 50:
        raise ValueError(f"plug-in variance needs at least 50 pairs, got {n}")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 0.5), got {eps}")
    xs, ys = _finite_sorted_columns(s)
    for name, col in zip("xy", (xs, ys)):
        if col[0] == col[-1]:
            raise DegenerateSampleError(
                f"{name} column is constant; its quantile function has no spread")
    gx, gy = c.gradient(xs, ys)
    influence = (_empirical_influence(xs, np.argsort(s.xs), gx, eps)
                 + _empirical_influence(ys, np.argsort(s.ys), gy, eps))
    # summed in sorted order, so the value depends only on the set of pairs
    value = float(np.var(np.sort(influence), ddof=1))
    return VarianceResult(value, 0.0, "plug_in", {"eps": eps})


# --- confidence intervals -------------------------------------------------------


def confidence_interval(point: float, sigma2: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-theory interval point -/+ z_{(1+level)/2} sqrt(sigma2 / n).

    Raises ValueError on a non-finite point, a level outside (0, 1), an n that
    is not a whole number of pairs, or a negative or NaN variance.
    """
    if not math.isfinite(point):
        raise ValueError(f"point estimate must be finite, got {point}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if not float(n).is_integer():
        raise ValueError(f"n counts pairs, a whole number, got n={n}")
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    if not (sigma2 >= 0.0):
        raise ValueError(f"variance must be nonnegative, got {sigma2}")
    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * math.sqrt(sigma2 / n)
    return (point - half, point + half)
