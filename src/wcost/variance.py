"""Asymptotic variance of the paired-sample cost estimator, with confidence intervals.

Standardized by sqrt(n), the estimation error of the matched-pairs cost converges
to a centred normal law.  Its variance is a double integral over the unit square
of the cost gradient along the quantile diagonal against the covariance of the
joint quantile bridge (``variance_kernel``).  Integrated by parts it becomes the
variance of a one-dimensional influence function, the classical L-statistic form:

    sigma^2 = Var[Q_x(U) + Q_y(V)],   Q_x(t) = -int_{1/2}^t partial_x c(F^{-1}, G^{-1}) / h_X,

Q_y likewise, with h_X = f o F^{-1}, h_Y = g o G^{-1} the quantile densities and
(U, V) drawn from the coupling's copula.  ``sigma2`` builds Q_x and Q_y as running
Gauss--Kronrod sums on one graded mesh (``quadrature.CumulativeMesh``), after a
cheap one-dimensional guard that checks the paper's tail hypothesis from the
tail growth of the cost slope against each quantile density; only the covariance
of Q_x and Q_y depends on the coupling.  ``sigma2_one_sample`` and the trimmed
``sigma2_window`` use the same route.
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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .assumptions import heavier_right
from .costs import Cost, QuantileCost
from .coupling import Comonotone, Countermonotone, Coupling, GaussianCopula, Independent
from .distributions import Distribution, Gaussian, reflect
from .errors import (DegenerateSampleError, HypothesisGateError, NonconvergenceError,
                     UnsupportedCostError)
from .estimate import PairedSample
from .quadrature import (_INNER_TIGHTENING, _NODES, CumulativeMesh, QuadratureConfig,
                         _tolerance, integrate_open01)

__all__ = [
    "DEFAULT_VARIANCE_CONFIG",
    "VarianceResult",
    "variance_kernel",
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

_MOMENT_CONFIG = QuadratureConfig()

_METHODS = frozenset({
    "quadrature",
    "closed_form_gaussian",
    "closed_form_location_scale",
    "plug_in",
})

#: Negative totals larger than this cannot be blamed on roundoff: the kernel is a
#: covariance quadratic form, so a materially negative integral means the
#: quadrature failed.
_CLAMP_LIMIT = 1e-8

#: Stand-in for overflowed guard integrand values; keeps the divergence detector
#: working (huge strips with ratio ~1) without poisoning the arithmetic with inf.
#: A guard integral that reaches it has overflowed and fails the gate.
_GUARD_CEILING = 1e300

#: Node count and normal-score cut of the Gaussian-copula inner integral.  Near
#: r = +-1 the variance is a small difference of large terms; there 48 nodes
#: miss it by about 1e-12 relative, 24 by more than its tolerance.  The rules
#: are tabulated below: a new order needs new tables.
_INNER_ORDER = 48
_Z_CUT = 9.0
_PANEL_BLOCK = 16

# The inner rules as scipy.special.roots_hermitenorm(48) and roots_legendre(48)
# return them (scipy 1.17.1): the non-negative nodes, ascending, and their
# weights, in float hex.  scipy returns both rules exactly symmetric, so the
# mirrored halves equal its output bit for bit.  They are tabulated because
# scipy computes them with scipy.linalg, an import of about 65 ms and 6 MB;
# numpy's hermegauss / leggauss weights differ from scipy's by up to ~1300 ulp,
# which would move sigma2 in its last bits.
_HERMITE_NODES = """
    0x1.cdf0dddea679ap-3 0x1.5a93b43a58422p-1 0x1.210463c364b44p+0 0x1.950da2d47302bp+0
    0x1.04c34ea5c9306p+1 0x1.3f48fb780231cp+1 0x1.7a2a42b1c7f3dp+1 0x1.b57aff0c6c2adp+1
    0x1.f150e4432c914p+1 0x1.16e200af886eep+2 0x1.3577b31b3ac78p+2 0x1.5478fd57cc5fdp+2
    0x1.73f7cecbe239bp+2 0x1.94095665785c2p+2 0x1.b4c716554d429p+2 0x1.d6507467fef3ep+2
    0x1.f8cd156e402d1p+2 0x1.0e384a3530977p+3 0x1.20c059b78fd4cp+3 0x1.3430372e1ebe2p+3
    0x1.48d2e002762b3p+3 0x1.5f25480d3f65ap+3 0x1.781a09b7963d2p+3 0x1.962d2829d1392p+3
"""
_HERMITE_WEIGHTS = """
    0x1.c260aa6601ecdp-2 0x1.6fc68da061686p-2 0x1.ea11891e5a807p-3 0x1.09f21ea23845ep-3
    0x1.d4f777cf6e5cap-5 0x1.4eb255c33ec0dp-6 0x1.80e88bfcf7e57p-8 0x1.628f9fa0b22eap-10
    0x1.03bb7e5dcee00p-12 0x1.2bf990ab624bap-15 0x1.0e3902312d452p-18 0x1.76ddad9502f7fp-22
    0x1.8a34c2ed64184p-26 0x1.34492ee7d52f2p-30 0x1.5e35d87a374afp-35 0x1.1883a4f6d7107p-40
    0x1.3119b85d50bebp-46 0x1.acde189fb308bp-53 0x1.6c6614e8e1e2ap-60 0x1.54b1ea99b76fap-68
    0x1.306fc324a5c5dp-77 0x1.9ce4513ec90eep-88 0x1.12a82d4a8cfb7p-100 0x1.dd5ae7ecf5c93p-117
"""
_LEGENDRE_NODES = """
    0x1.094223ea61974p-5 0x1.8d54ccaa9b7b4p-4 0x1.4a2ef25599832p-3 0x1.cc50f5488fbeep-3
    0x1.26425a1527d42p-2 0x1.65204357a638ap-2 0x1.a27eb589dea3bp-2 0x1.de1bcb894046ap-2
    0x1.0bdbc159f3714p-1 0x1.2789ffd1f24a0p-1 0x1.41fae84d5a002p-1 0x1.5b1216aac49a1p-1
    0x1.72b49a0302d9ap-1 0x1.88c91196f8e2dp-1 0x1.9d37c81006d1dp-1 0x1.afeaccf5eeb9ep-1
    0x1.c0ce0c3f55453p-1 0x1.cfcf63e4a4e84p-1 0x1.dcdeb7610754ap-1 0x1.e7ee011520dfap-1
    0x1.f0f1619784730p-1 0x1.f7df2d6c8eed7p-1 0x1.fcaffc9af24a4p-1 0x1.ff5ee9d8af2e2p-1
"""
_LEGENDRE_WEIGHTS = """
    0x1.092a652a0fbacp-4 0x1.080dac3f37257p-4 0x1.05d56c2248c39p-4 0x1.028406fc86d2bp-4
    0x1.fc3a19b11a28cp-5 0x1.f14a6f9e10abap-5 0x1.e444cde6d0000p-5 0x1.d537300bfd4b4p-5
    0x1.c431bfe4b31a2p-5 0x1.b146c443c7e2ap-5 0x1.9c8a8d586186cp-5 0x1.86135edf0aa11p-5
    0x1.6df9583af718dp-5 0x1.54565a91a8414p-5 0x1.3945ed05d7d85p-5 0x1.1ce51f31f702dp-5
    0x1.fea4d40fed1f0p-6 0x1.c15b1e8f699a2p-6 0x1.822eefbc97568p-6 0x1.416423e8cba4fp-6
    0x1.fe80c5c315a25p-7 0x1.781605954a54ep-7 0x1.e037f45d9bab5p-8 0x1.9d50bc55d4c98p-9
"""


def _mirrored(nodes: str, weights: str) -> tuple[np.ndarray, np.ndarray]:
    """The whole symmetric rule, ascending, from its non-negative half in float hex."""
    x = np.array([float.fromhex(h) for h in nodes.split()])
    w = np.array([float.fromhex(h) for h in weights.split()])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


_HERMITE_X, _HERMITE_W = _mirrored(_HERMITE_NODES, _HERMITE_WEIGHTS)
_HERMITE_W = _HERMITE_W / math.sqrt(2.0 * math.pi)  # against the standard normal density
_LEGENDRE_X, _LEGENDRE_W = _mirrored(_LEGENDRE_NODES, _LEGENDRE_WEIGHTS)

#: Relative size, against |Q_x| + |Q_y|, below which Q_x + Q_y is taken as an
#: exact cancellation (a pair that moves in lockstep) rather than a variance to
#: integrate.  Translation pairs leave about 1e-16; a true difference below the
#: threshold adds at most its square to the variance, which goes into est_error.
_CANCELLATION = 1e-12

_SEPARATION_PROBES = (1e-6, 1e-4, 1e-2, 1.0 - 1e-2, 1.0 - 1e-4, 1.0 - 1e-6)


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
        return {
            "value": self.value,
            "est_error": self.est_error,
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


# --- kernel pieces ------------------------------------------------------------


def _bridge(u, v):
    """Brownian-bridge covariance min(u,v) - uv, as u(1-v) for u <= v (no cancellation)."""
    ua, va = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return np.where(ua <= va, ua * (1.0 - va), va * (1.0 - ua))


def _copula_excess(cp: Coupling, u, v):
    """Pi(u,v) - uv in a cancellation-resistant form for the standard couplings."""
    ua, va = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if isinstance(cp, Independent):
        return np.zeros(np.broadcast_shapes(ua.shape, va.shape))
    if isinstance(cp, Comonotone):
        return _bridge(ua, va)
    if isinstance(cp, Countermonotone):
        return np.where(ua + va >= 1.0, -(1.0 - ua) * (1.0 - va), -ua * va)
    return np.asarray(cp.copula_cdf(ua, va), dtype=float) - ua * va


def _slopes(F: Distribution, G: Distribution, c: Cost, u):
    """(partial_x c / h_X, partial_y c / h_Y) along the quantile diagonal at u, stacked.

    Each quantile is computed once: h_X = f o F^{-1} is the density at the
    quantile the gradient takes, which is what ``density_quantile`` computes.
    """
    ua = np.asarray(u, dtype=float)
    x, y = F.quantile(ua), G.quantile(ua)
    gx, gy = c.gradient(x, y)
    return np.stack((np.asarray(gx, dtype=float) / np.asarray(F.pdf(x), dtype=float),
                     np.asarray(gy, dtype=float) / np.asarray(G.pdf(y), dtype=float)))


def variance_kernel(F: Distribution, G: Distribution, c: Cost, cp: Coupling):
    """Pointwise integrand (u, v) -> grad(u) Sigma(u,v) grad(v) of the variance double integral.

    ``sigma2`` does not integrate it: the double integral equals the variance
    of the influence functions, which takes only one-dimensional integrals.
    Kept as the independent two-dimensional reference for tests and diagnostics.
    """

    def kernel(u, v):
        (pxu, pyu), (pxv, pyv) = _slopes(F, G, c, u), _slopes(F, G, c, v)
        return (pxu * pxv * _bridge(u, v) + pxu * pyv * _copula_excess(cp, u, v)
                + pyu * pxv * _copula_excess(cp, v, u) + pyu * pyv * _bridge(u, v))

    return kernel


def _refine_mesh(mesh: CumulativeMesh, q: QuadratureConfig, measure):
    """Bisect ``mesh`` where the error shares concentrate until they meet the target.

    ``measure(mesh)`` returns (value, per-panel error shares, payload).  Panels
    whose share exceeds their part of the tolerance over the inner tightening
    are split, worst first, until the shares total at most that target or the
    panel budget is spent.  Returns the last (value, shares, payload) and
    whether the budget ran out.
    """
    while True:
        value, shares, payload = measure(mesh)
        target = _tolerance(q, value) / _INNER_TIGHTENING
        if float(np.sum(shares)) <= target:
            return value, shares, payload, False
        worst = np.argsort(-shares, kind="stable")[:max(q.max_subdivisions - mesh.panels, 0)]
        mask = np.zeros(mesh.panels, dtype=bool)
        mask[worst] = shares[worst] > target / mesh.panels
        if not mesh.split(mask):
            return value, shares, payload, True


# --- tail-hypothesis guard and degeneracy warning -----------------------------


def _guard_integrand(heavy: Distribution, law: Distribution, c: Cost, ubar: float):
    """t -> rho'(heavy quantile(u)) sqrt(1 - u) / h_law(u) (1 - ubar) at u = ubar + (1 - ubar) t.

    The heavy quantile is computed once: when ``law`` is the heavy law, h_law
    is its density at that quantile.  Values that overflow read
    ``_GUARD_CEILING``.  Returns the integrand as a one-row mesh function.
    """
    span = 1.0 - ubar

    def f(t):
        u = ubar + span * t
        x = np.asarray(heavy.quantile(u), dtype=float)
        slope = np.asarray(c.rho_prime(x), dtype=float) * np.sqrt(span * (1.0 - t))
        dens = heavy.pdf(x) if law is heavy else law.density_quantile(u)
        vals = (slope / np.asarray(dens, dtype=float)) * span
        return np.where(np.isfinite(vals), vals, _GUARD_CEILING)[None]

    return f


def _slope_tail_integral(heavy: Distribution, law: Distribution, c: Cost,
                         q: QuadratureConfig) -> float:
    """J = int rho'(heavy quantile(u)) sqrt(1-u) / h_law(u) du over the right tail.

    The window starts where the heavy quantile clears 1, so the radial slope is
    evaluated at safely positive distances.  Divergence of this one-dimensional
    integral is the cheap certificate that the two-dimensional variance integral
    has a non-integrable tail.  J is summed on one ``CumulativeMesh`` that holds
    the base interval and every truncation strip, so each refinement round
    evaluates the integrand once, and ``open_integral`` puts the strips through
    the same shrink-ratio divergence test as ``integrate_open01``.  Only the
    convergence verdict matters -- the value is a diagnostic -- so the
    quadrature runs at a coarse relative tolerance with deep truncation
    halvings: convergent-but-slow tails (mass decaying like a small power of
    1-u) would otherwise fail the accuracy check, not because they diverge but
    because their tail mass is expensive to pin down.  A J that overflows
    (infinite, or at the stand-in ceiling for overflowed integrand values)
    fails like a divergent one.
    """
    q = replace(q, rel_tol=max(q.rel_tol, 1e-3),
                extrapolation_levels=max(q.extrapolation_levels, 12))
    ubar = max(0.5, float(heavy.cdf(1.0)))

    def measure(mesh):
        sums, gaps = mesh.panel_sums(mesh.p[0])
        return float(np.sum(sums)), gaps, sums

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mesh = CumulativeMesh(_guard_integrand(heavy, law, c, ubar), q)
        _, gaps, sums, _ = _refine_mesh(mesh, q, measure)
        value, residual = mesh.open_integral(sums, q, "tail guard")
    err = float(np.sum(gaps)) + residual
    if not (err <= _tolerance(q, value) and abs(value) < _GUARD_CEILING):
        raise NonconvergenceError(
            f"tail guard: J = {value:.3e} with error estimate {err:.3e} "
            f"(tolerance {_tolerance(q, value):.3e})")
    return float(value)


def _tail_guard(F: Distribution, G: Distribution, c: Cost, q: QuadratureConfig,
                which: tuple[str, ...]) -> dict:
    """Run the tail-hypothesis guard for each relevant (tail side, marginal density) pair.

    Returns the finite guard integrals keyed like ``"right_x"``; raises
    HypothesisGateError as soon as one fails to converge or overflows: the
    paper's tail hypothesis then fails, and the variance may be infinite or the
    normal limit may not hold, so no influence-function work is spent.  Tail sides where both
    supports are bounded need no guard: every kernel factor stays integrable there.
    """
    out: dict[str, float] = {}
    for side, (A, B) in (("right", (F, G)), ("left", (reflect(F), reflect(G)))):
        heavy = heavier_right(A, B)
        if not math.isinf(heavy.support()[1]):
            continue
        for key in which:
            law = A if key == "x" else B
            try:
                out[f"{side}_{key}"] = _slope_tail_integral(heavy, law, c, q)
            except NonconvergenceError as exc:
                marginal = "first" if key == "x" else "second"
                raise HypothesisGateError(
                    f"the paper's tail hypothesis fails on the {side} side: the guard "
                    f"integral J = int rho'(Q_heavy(u)) sqrt(1 - u) / h(u) du of the cost's "
                    f"radial slope against the {marginal} marginal's quantile density h "
                    "does not converge to a finite value (or is too close to the frontier "
                    "to resolve); the asymptotic variance may be infinite, or the normal "
                    "limit may not hold"
                ) from exc
    return out


def _warn_if_tails_meet(F: Distribution, G: Distribution) -> None:
    """Warn when the quantile gap vanishes somewhere in the tails.

    The first-order theory needs the marginals to stay apart in the tails; as they
    coalesce the normal limit degenerates (for F = G every kernel term is 0 and the
    fluctuation lives at a different scale entirely).
    """
    us = np.asarray(_SEPARATION_PROBES)
    fq = np.asarray(F.quantile(us), dtype=float)
    gq = np.asarray(G.quantile(us), dtype=float)
    gap = np.abs(fq - gq) / (1.0 + np.abs(fq) + np.abs(gq))
    if float(np.min(gap)) < 1e-8:
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
            f"{what} came out {total:.3e} < -{_CLAMP_LIMIT:.0e}; the kernel is a "
            "covariance form, so a negative of this size means the quadrature failed"
        )
    if total < 0.0:
        return 0.0, err - total, -total
    return total, err, 0.0


# --- influence functions -------------------------------------------------------


def _moments(mesh: CumulativeMesh, Z, q: QuadratureConfig, what: str):
    """One-sided moments of Z(U) for U uniform on (0, 1), from node values on ``mesh``.

    Returns (integral over (0, 1), its extrapolation residual, per-panel
    Kronrod-minus-Gauss gaps, integral of |Z| over the meshed range).
    """
    sz, dz = mesh.panel_sums(Z)
    iz, rz = mesh.open_integral(sz, q, what)
    return iz, rz, dz, float(np.sum(mesh.panel_sums(np.abs(Z))[0]))


def _cov_term(mesh: CumulativeMesh, X, Y, ex, ey, q: QuadratureConfig, what: str, mx=None):
    """Cov(X(U), Y(U)) for U uniform on (0, 1), from node values on ``mesh``.

    ``ex``/``ey`` are per-panel slope-integral discrepancies; a panel's share
    of the bound is its own Kronrod-minus-Gauss gaps plus its discrepancy times
    the sensitivity of the covariance to a uniform shift of X or Y, since an
    error in one panel's sum shifts the influence function everywhere beyond it.
    A variance passes the same object as ``X`` and ``Y``, and its one-sided
    moments are computed once; ``mx`` passes in X's ``_moments`` when another
    term has measured them on the same mesh.  Returns (covariance, per-panel
    error shares, extrapolation residual, X's moments).
    """
    sxy, dxy = mesh.panel_sums(X * Y)
    ixy, rxy = mesh.open_integral(sxy, q, what)
    if mx is None:
        mx = _moments(mesh, X, q, what)
    ix, rx, dx, ax = mx
    iy, ry, dy, ay = mx if Y is X else _moments(mesh, Y, q, what)
    shares = (dxy + abs(iy) * dx + abs(ix) * dy
              + ex * (ay + abs(iy)) + ey * (ax + abs(ix)))
    return ixy - ix * iy, shares, rxy + abs(iy) * rx + abs(ix) * ry, mx


def _conditional_means(mesh: CumulativeMesh, r: float, i: int):
    """E[Q_i(V) | U = u] at the nodes under the Gaussian copula, twice, and the work it took.

    V = Phi(r Z_1 + s Z_2), s = sqrt(1 - r^2), with U = Phi(Z_1).  Q_i is known
    on the meshed range, so V is clamped into it; the second mean clamps one
    truncation level coarser, so that its difference from the first gauges
    what the clamp leaves out.  Without a window, z_2 -> Q_i(V) bends only at
    those clamps, far out in the tails, and Gauss--Hermite takes the whole
    line.  Q_i is constant outside a window, which puts kinks in the bulk, so
    there the integral splits at them: the constant pieces are normal
    probabilities and the middle takes Gauss--Legendre (cut at |z_2| = _Z_CUT).
    Both rules have _INNER_ORDER nodes and come from the module's tables, so
    no call computes them.  The inner rule's own error is not part of
    ``est_error``.  Panels go in blocks to keep the inner points small.

    Without a window, Q_i is read only at inner points inside the wider clamp:
    both clamps overwrite every other point.  A NaN point fails both clamp
    tests, so it is read and propagates.  Returns the two means and the number
    of inner points at which Q_i was read.
    """
    s = math.sqrt(1.0 - r * r)
    windowed = mesh.window != (0.0, 1.0)
    clamps = [(max(mesh.window[0], eps), min(mesh.window[1], 1.0 - eps)) for eps in mesh.cuts[:2]]
    ends = [mesh.at(i, np.array(clamp)) for clamp in clamps]
    x, w = (_LEGENDRE_X, _LEGENDRE_W) if windowed else (_HERMITE_X, _HERMITE_W)
    means = np.empty((len(clamps), mesh.panels, _NODES.size))
    evaluated = 0
    for start in range(0, mesh.panels, _PANEL_BLOCK):
        block = slice(start, start + _PANEL_BLOCK)
        z1 = ndtri(mesh.mid[block, None] + mesh.half[block, None] * _NODES)
        if not windowed:
            v = ndtr(r * z1[..., None] + s * x)
            lo, hi = clamps[0]
            live = ~((v < lo) | (v > hi))
            qv = np.zeros_like(v)
            qv[live] = mesh.at(i, v[live])
            evaluated += int(np.count_nonzero(live))
            for k, ((lo, hi), (q_lo, q_hi)) in enumerate(zip(clamps, ends)):
                means[k, block] = np.where(v < lo, q_lo, np.where(v > hi, q_hi, qv)) @ w
            continue
        for k, ((lo, hi), (q_lo, q_hi)) in enumerate(zip(clamps, ends)):
            if k and clamps[k] == clamps[0]:  # the window lies inside both clamps
                means[k, block] = means[0, block]
                continue
            a, b = (ndtri(lo) - r * z1) / s, (ndtri(hi) - r * z1) / s
            ca, cb = np.clip(a, -_Z_CUT, _Z_CUT), np.clip(b, -_Z_CUT, _Z_CUT)
            z2 = 0.5 * (ca + cb)[..., None] + 0.5 * (cb - ca)[..., None] * x
            v = np.clip(ndtr(r * z1[..., None] + s * z2), lo, hi)
            middle = (mesh.at(i, v) * np.exp(-0.5 * z2 * z2)) @ w
            evaluated += v.size
            means[k, block] = (q_lo * ndtr(a) + q_hi * ndtr(-b)
                               + middle * (0.5 * (cb - ca)) / math.sqrt(2.0 * math.pi))
    return means[0], means[1], evaluated


def _influence_terms(mesh: CumulativeMesh, cp: Coupling | None, q: QuadratureConfig):
    """The covariances whose weighted sum is the variance, but a Gaussian copula's cross term.

    Returns [(name, weight, covariance, per-panel error shares, residual)]
    and, for two influence functions, the one-sided moments of Q_x that the
    cross term (``_cross_term``) takes from the ``x`` term; None for one.
    """
    Q, ep = mesh.Q, mesh.ep
    if cp is None or isinstance(cp, (Comonotone, Countermonotone)):
        # one influence function: Q_x + Q_y, the y part reflected for countermonotone
        S, es = Q.sum(axis=0), ep.sum(axis=0)
        name = "x+y" if Q.shape[0] == 2 else "x"
        return [(name, 1.0, *_cov_term(mesh, S, S, es, es, q, "influence")[:3])], None
    if not isinstance(cp, (Independent, GaussianCopula)):
        raise TypeError(f"no influence-function variance for coupling {cp!r}")
    x, y = (_cov_term(mesh, X, X, e, e, q, f"influence {name}")
            for name, X, e in zip(("x", "y"), Q, ep))
    return [("x", 1.0, *x[:3]), ("y", 1.0, *y[:3])], x[3]


def _cross_term(mesh: CumulativeMesh, r: float, q: QuadratureConfig, mx):
    """A Gaussian copula's cross term 2 Cov(Q_x(U), Q_y(V)), as an entry of ``_influence_terms``.

    ``mx`` holds the one-sided moments of Q_x that the ``x`` term measured on
    the same mesh.  Returns the term and the number of inner points at which
    it read Q_y.
    """
    Q, ep = mesh.Q, mesh.ep
    g, h, evaluated = _conditional_means(mesh, r, 1)
    cov, shares, residual, _ = _cov_term(mesh, Q[0], g, ep[0], ep[1], q, "influence cross", mx)
    # Clamping V one truncation level coarser at least doubles what the
    # clamp misses when its strips shrink by 2/3 or faster, so twice the
    # change bounds the rest.
    residual += 2.0 * abs(float(np.sum(mesh.panel_sums(Q[0] * (g - h))[0])))
    return ("cross", 2.0, cov, shares, residual), evaluated


def _influence_sigma2(f, cp: Coupling | None, q: QuadratureConfig,
                      window=(0.0, 1.0)) -> tuple[float, float, dict]:
    """Variance of the summed influence functions of the slopes ``f``, under coupling ``cp``.

    ``f`` maps points to the stacked slopes (one row and ``cp`` None for a
    single influence function; two rows, x then y, otherwise).  The mesh is
    bisected where the error shares concentrate until they total at most the
    tolerance over the inner tightening, or the panel budget is spent; a
    Gaussian copula's cross term, the costly one, joins once the others meet it.
    Returns (value, est_error, per-term diagnostics) before clamping; raises
    NonconvergenceError when the error bound misses the tolerance.
    """
    # Halvings cost two panels each in one dimension, so go as deep as the guard
    # does: tails like powers of log(1/u) need the longer strip sequence.
    levels = max(q.extrapolation_levels, 12)
    mesh = CumulativeMesh(f, replace(q, extrapolation_levels=levels), window)
    inner_evaluations = 0
    kept = None  # (panel count, terms, Q_x moments) of the last measurement

    def measure(mesh, cross):
        nonlocal inner_evaluations, kept
        # A split always adds panels, so the first cross round, on the mesh
        # that the last round without it measured, reuses that round's terms.
        if kept is None or kept[0] != mesh.panels:
            kept = (mesh.panels, *_influence_terms(mesh, cp, q))
        _, terms, mx = kept
        if cross:
            term, evaluated = _cross_term(mesh, cp.r, q, mx)
            inner_evaluations += evaluated
            terms = terms + [term]
        return (math.fsum(weight * cov for _, weight, cov, _, _ in terms),
                sum(weight * sh for _, weight, _, sh, _ in terms), terms)

    exhausted = False
    for cross in (False, True) if isinstance(cp, GaussianCopula) else (False,):
        value, shares, terms, spent = _refine_mesh(mesh, q, lambda m: measure(m, cross))
        exhausted |= spent
    err = float(np.sum(shares)) + math.fsum(weight * res for _, weight, _, _, res in terms)
    if isinstance(cp, (Comonotone, Countermonotone)):
        # Q_x + Q_y at rounding level next to |Q_x| + |Q_y|: an exact cancellation
        floor = _CANCELLATION * float(np.max(np.abs(mesh.Q).sum(axis=0)))
        if float(np.max(np.abs(mesh.Q.sum(axis=0)))) <= floor:
            value, err = 0.0, err + abs(value) + floor * floor
    if not err <= _tolerance(q, value):
        raise NonconvergenceError(
            f"influence-function variance: error estimate {err:.3e} exceeds tolerance "
            f"{_tolerance(q, value):.3e} with {mesh.panels} panels"
            + (" (panel budget exhausted)" if exhausted else ""))
    common = {"panels": mesh.panels, "evaluations": mesh.evaluations,
              "truncation_levels": levels, "budget_exhausted": exhausted}
    diag = {name: {"value": weight * cov, "est_error": weight * (float(np.sum(sh)) + res),
                   "extrapolation_residual": weight * res, **common}
            for name, weight, cov, sh, res in terms}
    if "cross" in diag:
        diag["cross"]["inner_evaluations"] = inner_evaluations
    return value, err, diag


def _two_sample_slopes(F: Distribution, G: Distribution, c: Cost, cp: Coupling):
    if isinstance(cp, Countermonotone):
        # Q_y(1 - u) is the influence function of -p_y(1 - u)
        return lambda u: np.stack((_slopes(F, G, c, u)[0], -_slopes(F, G, c, 1.0 - u)[1]))
    return lambda u: _slopes(F, G, c, u)


# --- population variances -----------------------------------------------------


def sigma2(F: Distribution, G: Distribution, c: Cost, cp: Coupling,
           q: QuadratureConfig | None = None) -> VarianceResult:
    """Asymptotic variance of sqrt(n) times the estimation error of the paired cost.

    After the one-dimensional tail guard, evaluates Var[Q_x(U) + Q_y(V)] for
    (U, V) drawn from the coupling, with Q_x(t) = -int_{1/2}^t
    partial_x c(F^{-1}, G^{-1}) / h_X and Q_y likewise.  This equals the
    double integral of ``variance_kernel`` but needs only one-dimensional
    quadrature: independent pairs add Var Q_x and Var Q_y, the Frechet
    extremes take the variance of Q_x(u) + Q_y(u) or Q_x(u) + Q_y(1 - u), and
    the Gaussian copula adds twice the covariance, a normal-score integral
    with a Gauss--Hermite inner rule.  ``est_error`` sums the Kronrod-minus-
    Gauss gaps, their propagation through the running sums and the
    extrapolation residual of each tail.  When Q_x + Q_y cancels to rounding
    (a pair that moves in lockstep) the value is exactly 0.0.

    Raises HypothesisGateError (a NonconvergenceError) when the tail guard
    finds the paper's tail hypothesis false, NonconvergenceError when the
    quadrature misses its tolerance, and UnsupportedCostError for costs
    without the gradient and radial-slope machinery.
    """
    if q is None:
        q = DEFAULT_VARIANCE_CONFIG
    _require_gradient(c)
    _warn_if_tails_meet(F, G)
    guard = _tail_guard(F, G, c, q, ("x", "y"))
    v, e, terms = _influence_sigma2(_two_sample_slopes(F, G, c, cp), cp, q)
    value, err, clamp = _clamped(v, e, "variance integral")
    return VarianceResult(value, err, "quadrature",
                          {"influence": terms, "tail_guard": guard, "clamp": clamp})


def sigma2_window(F: Distribution, G: Distribution, c: Cost, cp: Coupling, eps: float,
                  q: QuadratureConfig | None = None) -> VarianceResult:
    """Asymptotic variance of the estimator trimmed to the window (eps, 1 - eps).

    The influence functions are held constant outside the window.  The window
    excludes both tails, so this exists even when the full-interval variance
    diverges; no tail guard runs.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"window trim must lie in (0, 1/2), got {eps}")
    if q is None:
        q = DEFAULT_VARIANCE_CONFIG
    _require_gradient(c)
    v, e, terms = _influence_sigma2(_two_sample_slopes(F, G, c, cp), cp, q, (eps, 1.0 - eps))
    value, err, clamp = _clamped(v, e, "window variance integral")
    return VarianceResult(value, err, "quadrature", {"influence": terms, "clamp": clamp})


def sigma2_one_sample(F: Distribution, G: Distribution, c: Cost, side: str = "x",
                      q: QuadratureConfig | None = None) -> VarianceResult:
    """Variance when only one sample is random and the other marginal is known.

    For side "x" the limit of sqrt(n)(W(F_n, G) - W(F, G)) is centred normal with
    variance Var Q_x(U), U uniform, where Q_x is the running integral of the
    matching partial slope of the cost along the quantile diagonal over the same
    marginal's quantile density (see ``sigma2``).  Under independent pairing the
    two sides add up to the two-sample value.
    """
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    if q is None:
        q = DEFAULT_VARIANCE_CONFIG
    _require_gradient(c)
    _warn_if_tails_meet(F, G)
    guard = _tail_guard(F, G, c, q, (side,))
    row = 0 if side == "x" else 1
    v, e, terms = _influence_sigma2(lambda u: _slopes(F, G, c, u)[row:row + 1], None, q)
    value, err, clamp = _clamped(v, e, "one-sample variance integral")
    return VarianceResult(value, err, "quadrature",
                          {"side": side, "tail_guard": guard, "clamp": clamp,
                           "influence": {side: terms["x"]}})


def _moment(base: Distribution, power: int, q: QuadratureConfig) -> tuple[float, float]:
    def f(u):
        return np.asarray(base.quantile(np.asarray(u, dtype=float)), dtype=float) ** power

    value, err, _ = integrate_open01(f, q)
    return value, err


def sigma2_location_scale(base: Distribution, a: float, b: float,
                          a_prime: float, b_prime: float,
                          q: QuadratureConfig | None = None) -> VarianceResult:
    """Closed form for two members of one location-scale family under independence.

    For marginals with quantiles a X + b and a' X + b' built from a symmetric,
    unit-variance generator X, the independent squared-distance variance collapses to
    4 (a^2 + a'^2) ((b - b')^2 + V4/4 (a - a')^2), with V4 = var(X^2) under the
    generator.  The generator's symmetry and unit variance are verified numerically
    (|mean| and |var - 1| below 1e-6 by quadrature) and V4 is computed the same way.
    """
    if not (a > 0 and a_prime > 0):
        raise ValueError(f"scales must be positive, got a={a}, a'={a_prime}")
    if q is None:
        q = _MOMENT_CONFIG
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


def _empirical_influence(col: np.ndarray, order: np.ndarray, slope, eps: float) -> np.ndarray:
    """Q-hat at each observation of ``col``: running sums of slope times spacing.

    ``order`` sorts ``col`` and ``slope`` holds one value per order statistic.
    Tied values share one value, since the spacings between them are zero.
    """
    xs = col[order]
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
    and any sort order gives it.  Raises DegenerateSampleError on a constant column.
    """
    n = s.n
    if n < 50:
        raise ValueError(f"plug-in variance needs at least 50 pairs, got {n}")
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 0.5), got {eps}")
    xs, ys = s.xs, s.ys
    for name, col in (("x", xs), ("y", ys)):
        if float(np.min(col)) == float(np.max(col)):
            raise DegenerateSampleError(
                f"{name} column is constant; its quantile function has no spread")
    ox, oy = np.argsort(xs), np.argsort(ys)
    gx, gy = c.gradient(xs[ox], ys[oy])
    influence = _empirical_influence(xs, ox, gx, eps) + _empirical_influence(ys, oy, gy, eps)
    # summed in sorted order, so the value depends only on the set of pairs
    value = float(np.var(np.sort(influence), ddof=1))
    return VarianceResult(value, 0.0, "plug_in", {"eps": eps})


# --- confidence intervals -------------------------------------------------------


def confidence_interval(point: float, sigma2: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-theory interval point -/+ z_{(1+level)/2} sqrt(sigma2 / n)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    if not (sigma2 >= 0.0):
        raise ValueError(f"variance must be nonnegative, got {sigma2}")
    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * math.sqrt(sigma2 / n)
    return (point - half, point + half)
