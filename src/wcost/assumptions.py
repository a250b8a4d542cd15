"""Numeric verifiers for the tail-regularity conditions behind the CLT.

The limit theorem needs three groups of hypotheses: marginal tail regularity
of the pair (F, G), structural properties of the cost, and a compatibility
condition tying the heavier tail to the cost's growth.  True boundedness and
smoothness statements are not decidable from finitely many evaluations, so
each checker operationalizes its condition on explicit tail grids and reports
a pass/fail with the witness value and location; the heuristics involved are
spelled out in the docstrings.  ``tail_gate`` decides the compatibility
condition in closed form, for ``sigma2``, the Monte Carlo precheck and
``verify_triple`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .costs import Cost, ExpPowerCost, LogPowerCost, PowerCost, QuantileCost
from .distributions import Distribution, reflect

__all__ = [
    "ConditionStatus",
    "AssumptionReport",
    "CfgResult",
    "GateVerdict",
    "TripleReport",
    "check_fg",
    "check_cfg",
    "verify_triple",
    "reflected_cost",
    "heavier_right",
    "tail_gate",
]

# A numeric "bounded on (u-bar, 1)" verdict: finite values, sup below this
# cap, and no systematic growth across the last decade of 1/(1-u).
_SUP_CAP = 1e3
_TREND_CAP = 0.05
_CFG_TOLERANCE = -1e-6
_REL_STEP = 1e-5


# The probability levels of check_cfg's grid, and the size of the marginal checks' grids.
_CFG_LEVELS = 1.0 - np.geomspace(1e-6, 1e-10, 64)
_CFG_LEVELS.setflags(write=False)
_FG_GRID_SIZE = 512
# The levels of each law's quantiles that place the marginal checks' threshold and grids.
_MARGINAL_LEVELS = (0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-8)


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
    theta1: float | None = None
    tau0: float | None = None
    m: float | None = None
    side: str = "right"

    def conditions(self) -> dict[str, ConditionStatus]:
        return {
            "fg1": self.fg1, "fg2": self.fg2, "fg3": self.fg3,
            "fg4": self.fg4, "fg5": self.fg5, "cfg": self.cfg,
        }

    @property
    def all_pass(self) -> bool:
        """No outright failure among the conditions."""
        return not any(s.status == "fail" for s in self.conditions().values())

    def to_dict(self) -> dict:
        out = {name: s.to_dict() for name, s in self.conditions().items()}
        out["theta1"] = self.theta1
        out["tau0"] = self.tau0
        out["m"] = self.m
        out["side"] = self.side
        out["all_pass"] = self.all_pass
        return out


def _bounded_sup(values: np.ndarray, log_inv_tail: np.ndarray) -> tuple[bool, float, float, float]:
    """Bounded-on-the-grid heuristic.

    Requires every value finite, the sup below _SUP_CAP, and the least-squares
    slope of log(value) against log(1/(1-u)) over the last decade of 1/(1-u)
    to stay at or below _TREND_CAP.  Polynomial blowup in 1/(1-u) shows up as
    a positive slope; slowly varying drift does not.  The slope is the closed
    form on centred abscissae, sum(xc (y - mean y)) / sum(xc^2) with
    xc = x - mean x.  A last decade of one point shows no trend (slope 0); one
    whose abscissae are not all finite, or do not spread, has no slope to
    measure and fails with slope inf, as non-finite values do.  Returns
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
    slope = 0.0 if x.size == 1 else math.inf
    if x.size > 1 and np.all(np.isfinite(x)):
        xc = x - x.mean()
        spread = float(np.dot(xc, xc))
        if spread > 0.0:
            slope = float(np.dot(xc, y - y.mean())) / spread
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
    hp, hm = np.asarray(law.density_quantile(np.concatenate((us + du, us - du))),
                        dtype=float).reshape(2, -1)
    vals = (1.0 - us) * np.abs(np.log(hp) - np.log(hm)) / (2.0 * du)
    return _bounded_sup(vals, log_inv)


def _fg3_single(law: Distribution, us: np.ndarray, log_inv: np.ndarray):
    return _bounded_sup(np.asarray(law.companion(us), dtype=float), log_inv)


def _fg5_single(law: Distribution, xs: np.ndarray):
    """Density-space rewrite (1-F)/f * (1/x + |f'|/f), bounded-sup verdict."""
    dx = _REL_STEP * xs
    f0, fp, fm = np.asarray(law.pdf(np.concatenate((xs, xs + dx, xs - dx))),
                            dtype=float).reshape(3, -1)
    fprime = (fp - fm) / (2.0 * dx)
    sf = np.asarray(law.sf(xs), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (sf / f0) * (1.0 / xs + np.abs(fprime) / f0)
    return _bounded_sup(vals, np.asarray(law.tail_exponent(xs), dtype=float))


def _pairwise(results) -> ConditionStatus:
    ok = all(r[0] for r in results)
    worst = max(results, key=lambda t: t[1])
    return ConditionStatus("pass" if ok else "fail", worst[1], worst[2],
                           f"trend slope {worst[3]:.3g}")


def _marginal_report(laws) -> tuple[AssumptionReport, np.ndarray]:
    """Shared grid construction + FG1/FG2/FG3/FG5 over one or two laws; returns it and the u-grid.

    The threshold m is the larger 0.9-quantile, or the floor max(0, medians)
    plus min(1/2, half its gap to the smallest (1 - 1e-6)-quantile) if higher,
    so that it scales with the laws.  Quantile-side checks share one u-grid
    (each law is probed at its own quantiles, so depth is per-law
    automatically); density-side checks get per-law x-grids capped at the
    law's own survival-1e-8 quantile, since probing a light tail at the heavy
    law's range only manufactures floating-point underflow.
    """
    levels = [np.asarray(law.quantile(_MARGINAL_LEVELS), dtype=float) for law in laws]
    floor = max([0.0] + [float(q[0]) for q in levels])
    shallow, q = min(zip(laws, levels), key=lambda lq: lq[1][2])
    room = (float(q[2]) - floor) / 2.0
    if not room > 0.0:
        raise ValueError(f"{shallow!r} has no quantile above max(0, medians) = {floor} "
                         "up to level 1 - 1e-6: no tail to examine")
    m = max([float(q[1]) for q in levels] + [floor + min(0.5, room)])
    tails = [float(law.cdf(m)) for law in laws]
    u_bar = max(tails)
    if not u_bar < 1.0 - 1e-8:
        raise ValueError(f"{laws[tails.index(u_bar)]!r} has no mass above 1e-8 beyond m={m}, "
                         "the other law's 0.9-quantile: no tail to examine")
    us = 1.0 - np.geomspace(1.0 - u_bar, 1e-8, _FG_GRID_SIZE)
    log_inv = np.log(1.0 / (1.0 - us))

    grids = [np.geomspace(m, float(q[3]), _FG_GRID_SIZE) if q[3] > m else None for q in levels]

    report = AssumptionReport(m=float(m))

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
    return report, us


def check_fg(F: Distribution, G: Distribution) -> AssumptionReport:
    """Verify the marginal tail conditions for the pair (F, G).

    F should carry the heavier right tail (the quantile gap tau must stay
    positive).  The threshold m, above both medians, is placed as
    ``_marginal_report`` says; a law with no tail there raises ``ValueError``.
    Five checks run on geometric tail grids reaching survival level 1e-8:

    * smoothness proxy: both densities positive and finite on the x-grid;
    * (1-u)|(log h)'(u)| bounded for both density quantiles;
    * the companions H bounded for both laws;
    * tau(u) = F^{-1}(u) - G^{-1}(u) bounded below by some tau0 > 0
      (the inferred tau0 is reported);
    * the density-space rewrite of the two bounded checks,
      (1-F)/f * (1/x + |f'|/f), as an independent route to the same verdict.
    """
    report, us = _marginal_report((F, G))

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
    witness_location: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def check_cfg(F: Distribution, c: Cost) -> CfgResult:
    """Compatibility of the heavier tail with the cost's growth, on a grid.

    Writing phi = psi_F o l^{-1}, the condition requires
    phi'(x) >= 2 + 2*theta/x on the far tail for some theta > 1 + theta1(c);
    here theta = 1 + theta1(c) + 1/4.  phi' is taken by centered differences
    (relative step 1e-5) through the cost's closed-form l^{-1} at
    x = l(F^{-1}(u)) on 64 geometric tail levels 1-u in [1e-6, 1e-10]; the
    result reports the minimal margin over the grid and passes iff it
    exceeds -1e-6.  ``tail_gate`` falls back on it for laws or costs outside
    its closed-form table.
    """
    theta = 1.0 + c.theta1() + 0.25
    xs = np.asarray(c.l(np.asarray(F.quantile(_CFG_LEVELS), dtype=float)), dtype=float)
    if np.any(xs == 0.0):
        raise ValueError("grid points must be nonzero")

    dx = _REL_STEP * np.abs(xs)
    hi = np.asarray(F.tail_exponent(np.asarray(c.l_inverse(xs + dx), dtype=float)), dtype=float)
    lo_ = np.asarray(F.tail_exponent(np.asarray(c.l_inverse(xs - dx), dtype=float)), dtype=float)
    phi_prime = (hi - lo_) / (2.0 * dx)
    margin = phi_prime - (2.0 + 2.0 * theta / xs)
    i = int(np.argmin(margin))
    status = "pass" if margin[i] >= _CFG_TOLERANCE else "fail"
    return CfgResult(status, float(margin[i]), float(xs[i]))


def heavier_right(F: Distribution, G: Distribution) -> Distribution:
    """The marginal with the heavier right tail; F on a tie.

    An unbounded support always outweighs a bounded one.  Then the declared
    tail constants (gamma, C) rank the tails: the smaller class gamma wins, so
    a Pareto tail is heavier than an exponential one however the two compare
    at any finite depth, and within one class the smaller C wins (the smaller
    Pareto index, or the slower stretched-exponential rate).  The quantile at
    1 - 1e-8 decides only when the constants tie or one is undeclared.  The
    tail conditions and ``tail_gate`` take their lead law from here.
    """
    f_unbounded = math.isinf(F.support()[1])
    if f_unbounded != math.isinf(G.support()[1]):
        return F if f_unbounded else G
    f_tail, g_tail = F.tail_constants(), G.tail_constants()
    if f_tail is not None and g_tail is not None and f_tail != g_tail:
        return F if f_tail < g_tail else G
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


# --- the tail gate ---------------------------------------------------------------

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GateVerdict:
    """``tail_gate``'s verdict -- "pass", "fail" or "not-applicable" -- and its witness.

    The witness is the tail ``side``, the ``marginal`` ("x" or "y") whose
    quantile the rule read, the ``margin`` (1/2 - lambda - delta, -inf for a
    slope that outgrows every power of the lead quantile, or ``check_cfg``'s
    margin on the grid fallback) and the ``rule`` that decided.
    """

    status: str
    side: str | None = None
    marginal: str | None = None
    margin: float | None = None
    rule: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _growth_rate(c: Cost, gamma: float, C: float):
    """lambda for the lead tail (gamma, C); None for a cost outside the table of ``tail_gate``."""
    if isinstance(c, PowerCost):
        return (Fraction(c.alpha) - 1) / Fraction(C) if gamma == 0.0 else Fraction(0)
    if isinstance(c, LogPowerCost):
        return math.inf if gamma == 0.0 else Fraction(0)
    if isinstance(c, ExpPowerCost):
        if gamma == 0.0 or c.beta > gamma:
            return math.inf
        return 1 / Fraction(C) if c.beta == gamma else Fraction(0)
    return None


def tail_gate(F: Distribution, G: Distribution, c: Cost, which=("x", "y")) -> GateVerdict:
    """The paper's tail hypothesis for (F, G, c), decided in closed form.

    With phi = psi_H o l^{-1}, the CLT needs phi'(x) >= 2 + 2 theta/x far out
    on the heavier tail H.  On each tail side whose lead law
    H = ``heavier_right`` is unbounded (the left one by reflection), the gate
    fails iff lambda(c, H) + delta(L) >= 1/2 for a marginal L in ``which``
    ("x" is F, "y" is G).  lambda is the exponential rate in s = -log(1-u) of
    rho'(H^{-1}(u)): (alpha - 1)/p for power(alpha) on a Pareto-class H of
    index p, infinite for logpower and exppower there; on psi_H ~ C x^gamma
    it is 0, but exppower(beta) has 1/C at beta = gamma and is infinite above.
    delta(L) is 1/p for a Pareto-class L, else 0.  Their sum is the rate of
    the integrand of J = int rho'(H^{-1}(u)) sqrt(1-u) / h_L(u) du, the
    L-statistic condition (del Barrio, Gine & Utzet 2005), and for L = H the
    limit of the paper's condition: phi' -> p/alpha, C or infinity against 2.
    The boundary is decided exactly (``Fraction`` of the float parameters),
    so p = 2 alpha fails.

    A lead law without tail constants, or another cost, takes ``check_cfg``'s
    grid verdict on the lead law; a cost without ``l`` or ``theta1`` is
    not-applicable there, and passes.  Returns the verdict with the lowest
    margin, a failing one first; not-applicable when no side is unbounded.
    """
    return _worst(_side_verdicts(F, G, c, which))


def _side_verdicts(F: Distribution, G: Distribution, c: Cost, which) -> dict[str, GateVerdict]:
    """``tail_gate``'s verdict on each tail side whose lead law is unbounded, keyed by side."""
    verdicts = {}
    for side, A, B, cost in (("right", F, G, c),
                             ("left", reflect(F), reflect(G), reflected_cost(c))):
        lead = heavier_right(A, B)
        if math.isinf(lead.support()[1]):
            verdicts[side] = _side_gate(A, B, lead, cost, side, which)
    return verdicts


def _worst(verdicts: dict[str, GateVerdict]) -> GateVerdict:
    """The verdict with the lowest margin, a failing one first; not-applicable for none."""
    if not verdicts:
        return GateVerdict("not-applicable", rule="no unbounded tail")
    return min(verdicts.values(),
               key=lambda v: (not v.failed, math.inf if v.margin is None else v.margin))


def _side_gate(A: Distribution, B: Distribution, lead: Distribution, c: Cost, side: str,
               which) -> GateVerdict:
    """``tail_gate`` on one side, given its unbounded lead law (A or B)."""
    tail = lead.tail_constants()
    lam = None if tail is None else _growth_rate(c, *tail)
    deltas = {}
    for key in which:
        law = A if key == "x" else B
        if law is not lead and not math.isinf(law.support()[1]):
            deltas[key] = Fraction(0)  # bounded on this side
        elif (law_tail := law.tail_constants()) is not None:
            deltas[key] = 1 / Fraction(law_tail[1]) if law_tail[0] == 0.0 else Fraction(0)
    if lam is None or len(deltas) < len(which):
        try:
            res = check_cfg(lead, c)
        except (ValueError, NotImplementedError) as exc:
            return GateVerdict("not-applicable", side,
                               rule=f"cost has no asymptotic profile l ({exc})")
        return GateVerdict(res.status, side, "x" if lead is A else "y", res.margin,
                           f"grid: check_cfg at x = {res.witness_location:.6g}")
    key = max(which, key=deltas.get)
    total = lam + deltas[key]
    return GateVerdict("fail" if total >= _HALF else "pass", side, key, float(_HALF - total),
                       f"closed form: lambda + delta = {float(lam):.6g} + {float(deltas[key]):.6g}"
                       f" {'>=' if total >= _HALF else '<'} 1/2")


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


def _one_side(F: Distribution, G: Distribution, c: Cost, side: str) -> tuple[AssumptionReport, bool]:
    # the marginal conditions name F as the heavier tail
    heavy = heavier_right(F, G)
    swapped = heavy is not F
    light = F if swapped else G

    if not math.isinf(heavy.support()[1]):
        # no unbounded tail at all on this side: every condition is vacuous
        na = ConditionStatus("not-applicable",
                             note="both supports bounded on this side; tail conditions vacuous")
        report = AssumptionReport(fg1=na, fg2=na, fg3=na, fg4=na, fg5=na,
                                  cfg=na, side=side, theta1=c.theta1())
        return report, swapped
    if not math.isinf(light.support()[1]):
        # lighter law compactly supported: marginal checks apply to the heavy
        # law alone and the separation condition is discarded
        report, _ = _marginal_report((heavy,))
        report.fg4 = ConditionStatus(
            "not-applicable",
            note="lighter law compactly supported on this side; separation condition discarded")
    else:
        report = check_fg(heavy, light)
    report.side = side
    report.theta1 = c.theta1()
    gate = _side_gate(F, G, heavy, c, side, ("x", "y"))
    report.cfg = ConditionStatus(gate.status, gate.margin, None, gate.rule)
    return report, swapped


def verify_triple(F: Distribution, G: Distribution, c: Cost) -> TripleReport:
    """Run the full hypothesis set on both tails of (F, G, c).

    The right tail is checked for the pair as given; the left tail is checked
    after reflecting both laws (and the cost, which matters only for the
    asymmetric pinball cost).  On each side the heavier-tailed law takes the
    lead role automatically.  Each side's compatibility condition ``cfg`` is
    ``tail_gate``'s verdict there, its margin the witness value and its rule
    the note.  ``all_pass`` reads every condition reported.  Each side places
    its own threshold m, as ``check_fg`` does.
    """
    right, sw_r = _one_side(F, G, c, "right")
    left, sw_l = _one_side(reflect(F), reflect(G), reflected_cost(c), "left")
    return TripleReport(right=right, left=left, theta1=c.theta1(),
                        swapped_right=sw_r, swapped_left=sw_l)
