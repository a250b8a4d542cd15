"""Verifiers for the tail-regularity conditions behind the CLT.

The limit theorem needs three groups of hypotheses: marginal tail regularity
of the pair (F, G), structural properties of the cost, and a compatibility
condition tying the heavier tail to the cost's growth.  The marginal
conditions fg1-fg3 and fg5 are decided from each law's declared tail
constants (gamma, C), whose limits make them bounded; ``_side_exponent``
alone reads them for the tails.  From it ``tail_gate`` decides the
compatibility condition in closed form, for ``sigma2``, the Monte Carlo
precheck and ``verify_triple`` alike, not-applicable for a law or cost outside
its table, and ``exact_cost`` takes its decay rates.  Two checks read grids:
the quantile gap fg4, on a tail u-grid, and ``check_cfg``, the paper's
literal condition, which the gate does not call.  Each reports a pass/fail
with its witness value and location; the grids are spelled out in the
docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .costs import Cost, ExpPowerCost, LogPowerCost, PowerCost
from .distributions import Distribution, reflect
from .errors import UnsupportedCostError

__all__ = [
    "ConditionStatus",
    "AssumptionReport",
    "CfgResult",
    "GateVerdict",
    "TripleReport",
    "check_fg",
    "check_cfg",
    "verify_triple",
    "heavier_right",
    "tail_gate",
]

_CFG_TOLERANCE = -1e-6
_REL_STEP = 1e-5


# The probability levels of check_cfg's grid, and the size of fg4's u-grid.
_CFG_LEVELS = 1.0 - np.geomspace(1e-6, 1e-10, 64)
_CFG_LEVELS.setflags(write=False)
_FG_GRID_SIZE = 512
# The levels of each law's quantiles that place the marginal checks' threshold.
_MARGINAL_LEVELS = (0.5, 0.9, 1.0 - 1e-6)


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
        value = self.witness_value  # JSON has no -inf, the margin of an unbounded growth rate
        return {
            "status": self.status,
            "witness": self.witness_location,
            "value": value if value is None or math.isfinite(value) else None,
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


def _limits(gamma: float, C: float) -> tuple[float, float, float]:
    """The limits at u -> 1 of fg2's (1-u)|(log h)'|, fg3's companion H and fg5's rewrite.

    For psi ~ C log x (gamma = 0, index C) they are 1 + 1/C, 1/C and 1 + 2/C;
    for psi ~ C x^gamma (gamma > 0) they are 1, 0 and 1.  A location-scale
    map leaves each one unchanged.
    """
    return (1.0 + 1.0 / C, 1.0 / C, 1.0 + 2.0 / C) if gamma == 0.0 else (1.0, 0.0, 1.0)


def _marginal_report(laws) -> tuple[AssumptionReport, float]:
    """The threshold m and FG1/FG2/FG3/FG5 over one or two laws; returns it and the level u-bar.

    The threshold m is the larger 0.9-quantile, or the floor max(0, medians)
    plus min(1/2, half its gap to the smallest (1 - 1e-6)-quantile) if higher,
    so that it scales with the laws.  u-bar, the larger cdf at m, is where
    fg4's u-grid starts.

    The four conditions are decided from the declared tail constants (gamma, C):
    each shipped family has a smooth positive density on its support, and
    each quantity tends to the limit ``_limits`` gives, so it is bounded on
    [m, inf).  A pair's value is the larger limit, with no location.  fg1's
    value is the smaller density at m.  A law without tail constants leaves
    the four not-applicable.
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

    report = AssumptionReport(m=float(m))
    constants = [law.tail_constants() for law in laws]
    if None in constants:
        na = ConditionStatus("not-applicable", note="a law declares no tail constants (gamma, C)")
        report.fg1 = report.fg2 = report.fg3 = report.fg5 = na
        return report, u_bar
    report.fg1 = ConditionStatus("pass", min(float(law.pdf(m)) for law in laws), float(m),
                                 "declared tail: smooth positive density beyond m")
    for name, limits in zip(("fg2", "fg3", "fg5"), zip(*(_limits(*tail) for tail in constants))):
        setattr(report, name, ConditionStatus("pass", max(limits), None,
                                              "the larger limit from the tail constants"))
    return report, u_bar


def check_fg(F: Distribution, G: Distribution) -> AssumptionReport:
    """Verify the marginal tail conditions for the pair (F, G).

    F should carry the heavier right tail (the quantile gap tau must stay
    positive).  The threshold m, above both medians, is placed as
    ``_marginal_report`` says; a law with no tail there raises ``ValueError``.
    Five checks:

    * fg1, smoothness: a smooth positive density beyond m;
    * fg2, (1-u)|(log h)'(u)| bounded for both density quantiles;
    * fg3, the companions H bounded for both laws;
    * fg4, tau(u) = F^{-1}(u) - G^{-1}(u) bounded below by some tau0 > 0, the
      minimum on a geometric u-grid from the larger cdf at m to survival level
      1e-8 (the inferred tau0 is reported);
    * fg5, the density-space rewrite of fg2 and fg3, (1-F)/f * (1/x + |f'|/f),
      bounded.

    fg1-fg3 and fg5 come from the tail constants, as ``_marginal_report``
    says, and are not-applicable for a law that declares none; only fg4 reads
    a grid.
    """
    report, u_bar = _marginal_report((F, G))

    us = 1.0 - np.geomspace(1.0 - u_bar, 1e-8, _FG_GRID_SIZE)
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
    exceeds -1e-6.  Raises ValueError when a grid point is zero or not
    finite, as where l(F^{-1}(u)) overflows.  Its verdict can move with the
    scale of F, so ``tail_gate`` decides from the tail constants instead and
    never calls it.
    """
    theta = 1.0 + c.theta1() + 0.25
    with np.errstate(over="ignore"):
        xs = np.asarray(c.l(np.asarray(F.quantile(_CFG_LEVELS), dtype=float)), dtype=float)
    if not np.all(np.isfinite(xs) & (xs != 0.0)):
        raise ValueError("grid points must be finite and nonzero")

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
    Pareto index, or the slower stretched-exponential rate).  A C that left
    the floats ranks at its limit, 0 or inf.  The quantile at 1 - 1e-8
    decides only when the constants tie or one is undeclared.  Only
    ``verify_triple`` takes its lead law and ``swapped_*`` flags from here.
    """
    f_unbounded = math.isinf(F.support()[1])
    if f_unbounded != math.isinf(G.support()[1]):
        return F if f_unbounded else G
    f_tail, g_tail = F.tail_constants(), G.tail_constants()
    if f_tail is not None and g_tail is not None and f_tail != g_tail:
        return F if f_tail < g_tail else G
    u = 1.0 - 1e-8
    return F if float(F.quantile(u)) >= float(G.quantile(u)) else G


def _sides(F: Distribution, G: Distribution):
    """Each tail side as (side, A, B): the pair as given, then reflected.

    The cost needs no reflection: the radial costs are symmetric in the gap,
    and the pinball cost has no tail profile, so no verdict depends on its
    weights.
    """
    return (("right", F, G), ("left", reflect(F), reflect(G)))


# --- the tail gate ---------------------------------------------------------------

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GateVerdict:
    """``tail_gate``'s verdict -- "pass", "fail" or "not-applicable" -- and its witness.

    The witness is the tail ``side``, the ``marginal`` ("x" or "y") whose
    quantile the rule read, the ``margin`` (1/2 - lambda - delta, -inf for a
    slope that outgrows every power of the lead quantile) and the ``rule``
    that decided.  A side the rule cannot size is not-applicable, with no
    margin and the reason as its rule; its ``marginal`` names the law that
    declares no tail constants, and is None for a cost outside the table.
    """

    status: str
    side: str | None = None
    marginal: str | None = None
    margin: float | None = None
    rule: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _reciprocal(C: float):
    """1/C exactly, or its limit: inf at C = 0 and 0 at C = inf."""
    return math.inf if C == 0.0 else Fraction(0) if C == math.inf else 1 / Fraction(C)


def _power_growth(alpha: float, gamma: float, C: float):
    """lambda of |x|^alpha on the lead tail (gamma, C): (alpha - 1)/p on a Pareto-class tail of index p, else 0."""
    return (Fraction(alpha) - 1) * _reciprocal(C) if gamma == 0.0 else Fraction(0)


def _growth_rate(c: Cost, gamma: float, C: float):
    """lambda for the lead tail (gamma, C); None for a cost outside the table of ``tail_gate``."""
    if isinstance(c, PowerCost):
        return _power_growth(c.alpha, gamma, C)
    if isinstance(c, LogPowerCost):
        return math.inf if gamma == 0.0 else Fraction(0)
    if isinstance(c, ExpPowerCost):
        if gamma == 0.0 or c.beta > gamma:
            return math.inf
        return _reciprocal(C) if c.beta == gamma else Fraction(0)
    return None


def tail_gate(F: Distribution, G: Distribution, c: Cost, which=("x", "y")) -> GateVerdict:
    """The paper's tail hypothesis for (F, G, c), decided in closed form.

    With phi = psi_H o l^{-1}, the CLT needs phi'(x) >= 2 + 2 theta/x far out
    on the heavier tail H.  On each tail side with an unbounded law (the left
    one by reflection), whose lead H is the smaller declared constants, the
    gate fails iff lambda(c, H) + delta(L) >= 1/2 for a marginal L in ``which``
    ("x" is F, "y" is G).  lambda is the exponential rate in s = -log(1-u) of
    rho'(H^{-1}(u)): (alpha - 1)/p for power(alpha) on a Pareto-class H of
    index p, infinite for logpower and exppower there; on psi_H ~ C x^gamma
    it is 0, but exppower(beta) has 1/C at beta = gamma and is infinite above.
    delta(L) is 1/p for a Pareto-class L, else 0.  Their sum is the rate of
    the integrand of J = int rho'(H^{-1}(u)) sqrt(1-u) / h_L(u) du, the
    L-statistic condition (del Barrio, Gine & Utzet 2005), and for L = H the
    limit of the paper's condition: phi' -> p/alpha, C or infinity against 2.
    The boundary is decided exactly (``Fraction`` of the float parameters),
    so p = 2 alpha fails.  A C that left the floats enters as its limit: at
    beta = gamma, exppower's lambda is inf for C = 0 and 0 for C = inf.

    A side is not-applicable, and does not fail, where an unbounded law
    declares no tail constants or the cost is outside the table (the pinball
    cost, or a user's cost); its rule names the reason.  Returns a failing
    verdict first, then a not-applicable one, then a pass, each the one with
    the lowest margin; not-applicable when no side is unbounded.
    """
    return _worst(_side_verdicts(F, G, c, which))


def _side_verdicts(F: Distribution, G: Distribution, c: Cost, which) -> dict[str, GateVerdict]:
    """``tail_gate``'s verdict on each tail side that holds an unbounded law, keyed by side."""
    return {side: _side_gate(A, B, c, side, which) for side, A, B in _sides(F, G)
            if math.isinf(A.support()[1]) or math.isinf(B.support()[1])}


def _worst(verdicts: dict[str, GateVerdict]) -> GateVerdict:
    """A fail, else a not-applicable, else the pass with the lowest margin; not-applicable for none."""
    if not verdicts:
        return GateVerdict("not-applicable", rule="no unbounded tail")
    return min(verdicts.values(), key=lambda v: (("fail", "not-applicable", "pass").index(v.status),
                                                 math.inf if v.margin is None else v.margin))


def _side_exponent(laws, c, growth, side: str, which):
    """(lambda, delta, delta's key) on one tail side as exact Fractions, or its not-applicable verdict.

    ``laws`` (x, then y) are as the side sees them; each unbounded one must
    declare (gamma, C).  lambda is ``growth(c, gamma, C)`` on the lead, the
    smaller constants, so no quantile is read; delta is the largest over
    ``which``: 1/p on a Pareto-class tail, else 0.  Their sum sets the gate's
    margin 1/2 - sum and an integrand's decay rate 1 - sum; it is 0 with no
    unbounded law.
    """
    tails = {}
    for key, law in zip("xy", laws):
        if math.isinf(law.support()[1]):  # a bounded law needs no constants
            tails[key] = law.tail_constants()
            if tails[key] is None:
                return GateVerdict("not-applicable", side, key,
                                   rule=f"{type(law).__name__} declares no tail constants (gamma, C)")
    lam = growth(c, *min(tails.values())) if tails else Fraction(0)
    if lam is None:
        return GateVerdict("not-applicable", side,
                           rule=f"{type(c).__name__} is outside the closed-form table: "
                                "no asymptotic profile l for its slope")
    deltas = {key: _reciprocal(tails[key][1]) if key in tails and tails[key][0] == 0.0
              else Fraction(0) for key in which}
    key = max(which, key=deltas.get)
    return lam, deltas[key], key


def _unsizable(verdict: GateVerdict) -> Exception:
    """An unsizable side's error: ValueError naming the law, or UnsupportedCostError the cost."""
    return (ValueError if verdict.marginal else UnsupportedCostError)(
        f"the tail gate cannot size the {verdict.side} tail: {verdict.rule}")


def _side_gate(A: Distribution, B: Distribution, c: Cost, side: str, which) -> GateVerdict:
    """``tail_gate`` on one side that holds an unbounded law."""
    sized = _side_exponent((A, B), c, _growth_rate, side, which)
    if isinstance(sized, GateVerdict):
        return sized
    lam, delta, key = sized
    total = lam + delta
    return GateVerdict("fail" if total >= _HALF else "pass", side, key, float(_HALF - total),
                       f"closed form: lambda + delta = {float(lam):.6g} + {float(delta):.6g}"
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


def verify_triple(F: Distribution, G: Distribution, c: Cost) -> TripleReport:
    """Run the full hypothesis set on both tails of (F, G, c).

    The right tail is checked for the pair as given, the left one after
    reflecting both laws (``_sides``).  On each side the heavier-tailed law
    takes the lead role automatically.  Each side's compatibility condition
    ``cfg`` is ``tail_gate``'s verdict there, its margin the witness value and
    its rule the note.  ``all_pass`` reads every condition reported.  Each
    side places its own threshold m, as ``check_fg`` does.
    """
    theta1 = c.theta1()
    reports, swapped = [], []  # right side, then left
    for side, A, B in _sides(F, G):
        # the marginal conditions name the heavier tail first
        heavy = heavier_right(A, B)
        swapped.append(heavy is not A)
        light = A if swapped[-1] else B
        if not math.isinf(heavy.support()[1]):
            # no unbounded tail at all on this side: every condition is vacuous
            na = ConditionStatus("not-applicable",
                                 note="both supports bounded on this side; tail conditions vacuous")
            reports.append(AssumptionReport(fg1=na, fg2=na, fg3=na, fg4=na, fg5=na,
                                            cfg=na, side=side, theta1=theta1))
            continue
        if not math.isinf(light.support()[1]):
            # lighter law compactly supported: marginal checks apply to the heavy
            # law alone and the separation condition is discarded
            report, _ = _marginal_report((heavy,))
            report.fg4 = ConditionStatus(
                "not-applicable",
                note="lighter law compactly supported on this side; separation condition discarded")
        else:
            report = check_fg(heavy, light)
        report.side, report.theta1 = side, theta1
        gate = _side_gate(A, B, c, side, ("x", "y"))
        report.cfg = ConditionStatus(gate.status, gate.margin, None, gate.rule)
        reports.append(report)
    return TripleReport(*reports, theta1, *swapped)
