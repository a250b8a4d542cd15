"""Numeric verifiers for the tail-regularity conditions behind the CLT.

The limit theorem needs three groups of hypotheses: marginal tail regularity
of the pair (F, G), structural properties of the cost, and a compatibility
condition tying the heavier tail to the cost's growth.  True boundedness and
smoothness statements are not decidable from finitely many evaluations, so
each checker operationalizes its condition on explicit tail grids and reports
a pass/fail with the witness value and location; the heuristics involved are
spelled out in the docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import Cost, QuantileCost, theta1 as cost_theta1
from .distributions import Distribution, companion, density_quantile, reflect, tail_exponent
from .errors import UnsupportedCostError

__all__ = [
    "ConditionStatus",
    "AssumptionReport",
    "CfgResult",
    "TripleReport",
    "check_fg",
    "check_cfg",
    "check_tail_sufficient",
    "check_csfg",
    "verify_triple",
    "reflected_cost",
    "heavier_right",
]

# A numeric "bounded on (u-bar, 1)" verdict: finite values, sup below this
# cap, and no systematic growth across the last decade of 1/(1-u).
_SUP_CAP = 1e3
_TREND_CAP = 0.05
_CFG_TOLERANCE = -1e-6
_REL_STEP = 1e-5


@dataclass(frozen=True)
class ConditionStatus:
    """Outcome of one condition check with its witness point."""

    status: str  # "pass" | "fail" | "not-applicable"
    witness_value: float | None = None
    witness_location: float | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness_location,
            "value": self.witness_value,
            "note": self.note,
        }


_NA = ConditionStatus("not-applicable")


@dataclass
class AssumptionReport:
    """Collected condition checks for one tail side of a triple."""

    fg1: ConditionStatus = _NA
    fg2: ConditionStatus = _NA
    fg3: ConditionStatus = _NA
    fg4: ConditionStatus = _NA
    fg5: ConditionStatus = _NA
    cfg: ConditionStatus = _NA
    tail_sufficient: ConditionStatus = _NA
    theta1: float | None = None
    theta: float | None = None
    zeta: float | None = None
    tau0: float | None = None
    m: float | None = None
    side: str = "right"
    u_grid: np.ndarray | None = field(default=None, repr=False)
    x_grid: np.ndarray | None = field(default=None, repr=False)

    def conditions(self) -> dict[str, ConditionStatus]:
        return {
            "fg1": self.fg1, "fg2": self.fg2, "fg3": self.fg3,
            "fg4": self.fg4, "fg5": self.fg5, "cfg": self.cfg,
            "tail_sufficient": self.tail_sufficient,
        }

    @property
    def all_pass(self) -> bool:
        """No outright failure among the necessary conditions.

        ``tail_sufficient`` is advisory (sufficient, not necessary) and does
        not count against the verdict.
        """
        return not any(
            s.status == "fail" for name, s in self.conditions().items()
            if name != "tail_sufficient"
        )

    def to_dict(self) -> dict:
        out = {name: s.to_dict() for name, s in self.conditions().items()}
        out["theta1"] = self.theta1
        out["theta"] = self.theta
        out["zeta"] = self.zeta
        out["tau0"] = self.tau0
        out["m"] = self.m
        out["side"] = self.side
        out["all_pass"] = self.all_pass
        return out


def _geometric_u_grid(u_bar: float, size: int, top: float = 1e-8) -> np.ndarray:
    """Geometric grid in 1-u from (1 - u_bar) down to ``top``."""
    return 1.0 - np.geomspace(1.0 - u_bar, top, size)


def _bounded_sup(values: np.ndarray, log_inv_tail: np.ndarray) -> tuple[bool, float, float, float]:
    """Bounded-on-the-grid heuristic.

    Requires every value finite, the sup below _SUP_CAP, and the least-squares
    slope of log(value) against log(1/(1-u)) over the last decade of 1/(1-u)
    to stay at or below _TREND_CAP.  Polynomial blowup in 1/(1-u) shows up as
    a positive slope; slowly varying drift does not.  Returns
    (ok, sup, location-of-sup, trend slope); the location is reported on the
    same axis as ``log_inv_tail``.
    """
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        return False, float(values[bad]), float(log_inv_tail[bad]), math.inf
    sup = float(np.max(values))
    loc = float(log_inv_tail[int(np.argmax(values))])
    last = log_inv_tail >= log_inv_tail[-1] - math.log(10.0)
    y = np.log(np.maximum(values[last], 1e-300))
    x = log_inv_tail[last]
    slope = float(np.polyfit(x, y, 1)[0]) if x.size >= 2 else 0.0
    ok = sup < _SUP_CAP and slope <= _TREND_CAP
    return ok, sup, loc, slope


def _fg1_single(law: Distribution, xs: np.ndarray) -> tuple[bool, float, float]:
    """Density positive and finite on the x-grid; returns (ok, min or bad value, location)."""
    dens = np.asarray(law.pdf(xs), dtype=float)
    good = np.isfinite(dens) & (dens > 0.0)
    if not np.all(good):
        bad = int(np.argmax(~good))
        return False, float(dens[bad]), float(xs[bad])
    i = int(np.argmin(dens))
    return True, float(dens[i]), float(xs[i])


def _fg2_single(law: Distribution, us: np.ndarray, log_inv: np.ndarray):
    """(1-u)|(log h)'(u)| by centered differences, bounded-sup verdict."""
    du = _REL_STEP * (1.0 - us)
    hp = np.asarray(density_quantile(law, us + du), dtype=float)
    hm = np.asarray(density_quantile(law, us - du), dtype=float)
    vals = (1.0 - us) * np.abs(np.log(hp) - np.log(hm)) / (2.0 * du)
    return _bounded_sup(vals, log_inv)


def _fg3_single(law: Distribution, us: np.ndarray, log_inv: np.ndarray):
    return _bounded_sup(np.asarray(companion(law, us), dtype=float), log_inv)


def _fg5_single(law: Distribution, xs: np.ndarray):
    """Density-space rewrite (1-F)/f * (1/x + |f'|/f), bounded-sup verdict."""
    dx = _REL_STEP * xs
    f0 = np.asarray(law.pdf(xs), dtype=float)
    fp = np.asarray(law.pdf(xs + dx), dtype=float)
    fm = np.asarray(law.pdf(xs - dx), dtype=float)
    fprime = (fp - fm) / (2.0 * dx)
    sf = np.asarray(law.sf(xs), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (sf / f0) * (1.0 / xs + np.abs(fprime) / f0)
    return _bounded_sup(vals, np.asarray(tail_exponent(law, xs), dtype=float))


def _pairwise(results) -> ConditionStatus:
    ok = all(r[0] for r in results)
    worst = max(results, key=lambda t: t[1])
    return ConditionStatus("pass" if ok else "fail", worst[1], worst[2],
                           f"trend slope {worst[3]:.3g}")


def _marginal_report(F: Distribution, laws, m: float | None,
                     grid_size: int) -> AssumptionReport:
    """Shared grid construction + FG1/FG2/FG3/FG5 over one or two laws.

    Quantile-side checks share one u-grid (each law is probed at its own
    quantiles, so depth is per-law automatically); density-side checks get
    per-law x-grids capped at the law's own survival-1e-8 quantile, since
    probing a light tail at the heavy law's range only manufactures
    floating-point underflow.
    """
    floor = max([0.0] + [float(law.quantile(0.5)) for law in laws])
    if m is None:
        m = max([float(law.quantile(0.9)) for law in laws] + [floor + 0.5])
    if m <= floor:
        raise ValueError(f"threshold m={m} must exceed max(0, medians) = {floor}")
    u_bar = max(float(law.cdf(m)) for law in laws)
    if not u_bar < 1.0 - 1e-8:
        raise ValueError(f"threshold m={m} leaves no tail to examine")
    us = _geometric_u_grid(u_bar, grid_size)
    log_inv = np.log(1.0 / (1.0 - us))

    grids = []
    for law in laws:
        x_max = float(law.quantile(1.0 - 1e-8))
        grids.append(np.geomspace(m, x_max, grid_size) if x_max > m else None)

    report = AssumptionReport(m=float(m), u_grid=us, x_grid=grids[0])

    ones = [_fg1_single(law, xs) for law, xs in zip(laws, grids) if xs is not None]
    ok1 = all(o for o, _, _ in ones)
    worst1 = min(ones, key=lambda t: t[1])
    report.fg1 = ConditionStatus(
        "pass" if ok1 else "fail", worst1[1], worst1[2],
        "densities positive/finite on grid; smoothness from the family's closed form",
    )
    report.fg2 = _pairwise([_fg2_single(law, us, log_inv) for law in laws])
    report.fg3 = _pairwise([_fg3_single(law, us, log_inv) for law in laws])
    report.fg5 = _pairwise([_fg5_single(law, xs)
                            for law, xs in zip(laws, grids) if xs is not None])
    return report


def check_fg(F: Distribution, G: Distribution, m: float | None = None,
             grid_size: int = 512) -> AssumptionReport:
    """Verify the marginal tail conditions for the pair (F, G).

    F should carry the heavier right tail (the quantile gap tau must stay
    positive).  The threshold m must exceed both medians; by default it is
    placed at the larger 0.9-quantile.  Five checks run on geometric tail
    grids reaching survival level 1e-8:

    * smoothness proxy: both densities positive and finite on the x-grid;
    * (1-u)|(log h)'(u)| bounded for both density quantiles;
    * the companions H bounded for both laws;
    * tau(u) = F^{-1}(u) - G^{-1}(u) bounded below by some tau0 > 0
      (the inferred tau0 is reported);
    * the density-space rewrite of the two bounded checks,
      (1-F)/f * (1/x + |f'|/f), as an independent route to the same verdict.
    """
    report = _marginal_report(F, (F, G), m, grid_size)
    us = report.u_grid

    # quantile-gap separation
    tau = np.asarray(F.quantile(us), dtype=float) - np.asarray(G.quantile(us), dtype=float)
    i_min = int(np.argmin(tau))
    tau0 = float(tau[i_min])
    if tau0 > 0.0:
        report.fg4 = ConditionStatus("pass", tau0, float(us[i_min]), "inferred tau0 = grid min")
        report.tau0 = tau0
    else:
        report.fg4 = ConditionStatus("fail", tau0, float(us[i_min]),
                                     "quantile gap not bounded away from 0")
    return report


@dataclass(frozen=True)
class CfgResult:
    """Outcome of the cost/tail compatibility check."""

    status: str
    margin: float
    theta: float
    witness_location: float
    x_grid: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_condition(self) -> ConditionStatus:
        return ConditionStatus(self.status, self.margin, self.witness_location,
                               f"theta={self.theta:.6g}")


def _default_cfg_grid(F: Distribution, c: Cost) -> np.ndarray:
    tails = np.geomspace(1e-6, 1e-10, 64)
    return np.asarray(c.l(np.asarray(F.quantile(1.0 - tails), dtype=float)), dtype=float)


def check_cfg(F: Distribution, c: Cost, theta: float | None = None,
              x_grid=None) -> CfgResult:
    """Compatibility of the heavier tail with the cost's growth.

    Writing phi = psi_F o l^{-1}, the condition requires
    phi'(x) >= 2 + 2*theta/x on the far tail for some theta > 1 + theta1(c).
    phi' is taken by centered differences (relative step 1e-5) through the
    cost's closed-form l^{-1}; the result reports the minimal margin over the
    grid and passes iff it exceeds -1e-6.  The default grid places x = l(F^{-1}(u))
    at 64 geometric tail levels 1-u in [1e-6, 1e-10]; a caller-supplied grid
    must stay within the cost's asymptotic regime (x >= l(tau1)).
    """
    t1 = cost_theta1(c)
    if theta is None:
        theta = 1.0 + t1 + 0.25
    if theta <= 1.0 + t1:
        raise ValueError(f"theta must exceed 1 + theta1 = {1.0 + t1}, got {theta}")
    if x_grid is None:
        xs = _default_cfg_grid(F, c)
    else:
        xs = np.asarray(x_grid, dtype=float)
        lo = float(c.l(np.asarray(1e-3)))
        if xs.size == 0 or np.any(~np.isfinite(xs)) or np.any(xs < lo):
            raise ValueError(f"grid points must be finite and >= l(tau1) = {lo:.6g}")
    if np.any(xs == 0.0):
        raise ValueError("grid points must be nonzero")

    dx = _REL_STEP * np.abs(xs)
    hi = np.asarray(tail_exponent(F, np.asarray(c.l_inverse(xs + dx), dtype=float)), dtype=float)
    lo_ = np.asarray(tail_exponent(F, np.asarray(c.l_inverse(xs - dx), dtype=float)), dtype=float)
    phi_prime = (hi - lo_) / (2.0 * dx)
    margin = phi_prime - (2.0 + 2.0 * theta / xs)
    i = int(np.argmin(margin))
    status = "pass" if margin[i] >= _CFG_TOLERANCE else "fail"
    return CfgResult(status, float(margin[i]), float(theta), float(xs[i]), xs)


def check_tail_sufficient(F: Distribution, c: Cost, zeta: float = 2.5,
                          x_grid=None) -> ConditionStatus:
    """Tractable sufficient condition: P(X > x) <= exp(l(x))^(-zeta), zeta > 2.

    Equivalently psi_F(x) >= zeta * l(x) pointwise; when it holds, the
    compatibility condition follows with arbitrarily large theta.  Failing
    here is inconclusive (the condition is not necessary).
    """
    if not zeta > 2.0:
        raise ValueError(f"zeta must exceed 2, got {zeta}")
    if x_grid is None:
        xs = np.asarray(F.quantile(1.0 - np.geomspace(1e-2, 1e-8, 64)), dtype=float)
    else:
        xs = np.asarray(x_grid, dtype=float)
        if xs.size == 0 or np.any(~np.isfinite(xs)):
            raise ValueError("grid points must be finite")
    margin = (np.asarray(tail_exponent(F, xs), dtype=float)
              - zeta * np.asarray(c.l(xs), dtype=float))
    i = int(np.argmin(margin))
    status = "pass" if margin[i] >= -1e-9 else "fail"
    return ConditionStatus(status, float(margin[i]), float(xs[i]), f"zeta={zeta:g}")


def check_csfg(F: Distribution, m: float | None = None, grid_size: int = 64) -> ConditionStatus:
    """Sufficient condition for the marginal checks from tail classification.

    A law whose tail exponent psi is slowly varying (regular-variation index
    0, e.g. polynomial tails) satisfies the marginal conditions outright.
    With index gamma1 > 0 (stretched-exponential and Gaussian-like tails) the
    companion must additionally obey H(u) <= 1/(gamma0 * log(1/(1-u))) on the
    tail grid, checked here with gamma0 = gamma1/2.  Raises for laws without
    a declared tail class.
    """
    gamma1 = F.tail_class()
    if gamma1 is None:
        raise ValueError(f"{type(F).__name__} has no declared tail class")
    gamma1 = float(gamma1)
    if gamma1 == 0.0:
        return ConditionStatus("pass", None, None, "psi slowly varying (index 0)")
    if m is None:
        m = float(F.quantile(0.95))
    u_bar = float(F.cdf(m))
    if not u_bar < 1.0 - 1e-8:
        raise ValueError(f"threshold m={m} leaves no tail to examine")
    us = _geometric_u_grid(max(u_bar, 0.5), grid_size)
    gamma0 = gamma1 / 2.0
    bound = 1.0 / (gamma0 * np.log(1.0 / (1.0 - us)))
    gap = bound - np.asarray(companion(F, us), dtype=float)
    i = int(np.argmin(gap))
    note = f"psi regularly varying, index {gamma1:g}; companion bound with gamma0={gamma0:g}"
    if gamma1 == 1.0:
        note += "; index-1 case uses the family's exact psi"
    status = "pass" if gap[i] >= 0.0 else "fail"
    return ConditionStatus(status, float(gap[i]), float(us[i]), note)


def heavier_right(F: Distribution, G: Distribution) -> Distribution:
    """The marginal with the heavier right tail; F on a tie.

    An unbounded support always outweighs a bounded one; otherwise the deep
    quantile decides.  The tail conditions, the variance's tail guard and the
    Monte Carlo precheck all take their lead law from here.
    """
    f_unbounded = math.isinf(F.support()[1])
    if f_unbounded != math.isinf(G.support()[1]):
        return F if f_unbounded else G
    u = 1.0 - 1e-8
    return F if float(F.quantile(u)) >= float(G.quantile(u)) else G


def reflected_cost(c: Cost) -> Cost:
    """The cost seen by the reflected pair (-X, -Y).

    Radial costs are symmetric in the gap so reflection leaves them fixed;
    the pinball cost swaps its over/under weights.
    """
    if isinstance(c, QuantileCost):
        return QuantileCost(1.0 - c.alpha)
    return c


@dataclass
class TripleReport:
    """Both tail sides of the full hypothesis set for (F, G, c)."""

    right: AssumptionReport
    left: AssumptionReport
    theta1: float
    swapped_right: bool
    swapped_left: bool

    @property
    def all_pass(self) -> bool:
        return self.right.all_pass and self.left.all_pass

    def to_dict(self) -> dict:
        return {
            "right": self.right.to_dict(),
            "left": self.left.to_dict(),
            "theta1": self.theta1,
            "swapped_right": self.swapped_right,
            "swapped_left": self.swapped_left,
            "all_pass": self.all_pass,
        }


def _one_side(F: Distribution, G: Distribution, c: Cost, side: str,
              m: float | None, theta: float | None, zeta: float,
              grid_size: int) -> tuple[AssumptionReport, bool]:
    # the marginal conditions name F as the heavier tail
    heavy = heavier_right(F, G)
    swapped = heavy is not F
    light = F if swapped else G

    if not math.isinf(heavy.support()[1]):
        # no unbounded tail at all on this side: every condition is vacuous
        na = ConditionStatus("not-applicable",
                             note="both supports bounded on this side; tail conditions vacuous")
        report = AssumptionReport(fg1=na, fg2=na, fg3=na, fg4=na, fg5=na,
                                  cfg=na, tail_sufficient=na, side=side,
                                  theta1=cost_theta1(c))
        return report, swapped
    if not math.isinf(light.support()[1]):
        # lighter law compactly supported: marginal checks apply to the heavy
        # law alone and the separation condition is discarded
        report = _marginal_report(heavy, (heavy,), m, grid_size)
        report.fg4 = ConditionStatus(
            "not-applicable",
            note="lighter law compactly supported on this side; separation condition discarded")
    else:
        report = check_fg(heavy, light, m=m, grid_size=grid_size)
    report.side = side
    report.theta1 = cost_theta1(c)
    try:
        cfg = check_cfg(heavy, c, theta=theta)
        report.cfg = cfg.as_condition()
        report.theta = cfg.theta
    except UnsupportedCostError:
        report.cfg = ConditionStatus("not-applicable", note="cost has no asymptotic profile l")
    try:
        report.tail_sufficient = check_tail_sufficient(heavy, c, zeta=zeta)
        report.zeta = zeta
    except UnsupportedCostError:
        report.tail_sufficient = ConditionStatus("not-applicable",
                                                 note="cost has no asymptotic profile l")
    return report, swapped


def verify_triple(F: Distribution, G: Distribution, c: Cost,
                  m: float | None = None, theta: float | None = None,
                  zeta: float = 2.5, grid_size: int = 512) -> TripleReport:
    """Run the full hypothesis set on both tails of (F, G, c).

    The right tail is checked for the pair as given; the left tail is checked
    after reflecting both laws (and the cost, which matters only for the
    asymmetric pinball cost).  On each side the heavier-tailed law takes the
    lead role automatically.
    """
    right, sw_r = _one_side(F, G, c, "right", m, theta, zeta, grid_size)
    # a caller-chosen threshold is meaningless after reflection, so the left
    # side always picks its own default
    left, sw_l = _one_side(reflect(F), reflect(G), reflected_cost(c), "left",
                           None, theta, zeta, grid_size)
    return TripleReport(right=right, left=left, theta1=cost_theta1(c),
                        swapped_right=sw_r, swapped_left=sw_l)
