import inspect
import json
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import wcost.distributions as distributions_module
from wcost import Independent, parse_cost, parse_distribution, sigma2, sigma2_one_sample
from wcost.assumptions import (
    check_cfg,
    check_fg,
    heavier_right,
    tail_gate,
    verify_triple,
)
from wcost.cli import main
from wcost.costs import ExpPowerCost, LogPowerCost, PowerCost, QuantileCost
from wcost.distributions import (
    Distribution,
    Exponential,
    Gaussian,
    LocationScale,
    Pareto,
    Weibull,
    reflect,
)
from wcost.errors import NonconvergenceError, UnsupportedCostError
from wcost.estimate import exact_cost

import triple_matrix

P2 = PowerCost(2.0)


class _StretchTail(Distribution):
    """Synthetic law with quantile exp((1-u)^{-k}/k), k = 0.15.

    Its companion function equals (1-u)^{-k}, which grows polynomially in
    1/(1-u) — exactly the blowup the bounded-sup trend heuristic must catch —
    while every quantity stays inside float range down to survival 1e-8.
    """

    K = 0.15

    def quantile(self, u):
        return np.exp((1.0 - np.asarray(u, dtype=float)) ** (-self.K) / self.K)

    def sf(self, x):
        return (self.K * np.log(np.asarray(x, dtype=float))) ** (-1.0 / self.K)

    def cdf(self, x):
        return 1.0 - self.sf(x)

    def pdf(self, x):
        xa = np.asarray(x, dtype=float)
        return (self.K * np.log(xa)) ** (-1.0 / self.K - 1.0) / xa

    def support(self):
        return (math.exp(1.0 / self.K), math.inf)


# --- marginal conditions -----------------------------------------------------


def test_translation_model_passes_with_unit_gap():
    r = check_fg(LocationScale(Pareto(3), 1.0, 1.0), Pareto(3))
    for name in ("fg1", "fg2", "fg3", "fg4", "fg5"):
        assert getattr(r, name).status == "pass", name
    assert r.tau0 == pytest.approx(1.0, abs=1e-9)


def test_pareto_witness_constants():
    r = check_fg(Pareto(2), Pareto(4))
    # (1-u)|(log h)'| = 1 + 1/p for a polynomial tail of index p
    assert r.fg2.witness_value == pytest.approx(1.5, rel=1e-2)
    # the companion of a Pareto(p) is identically 1/p; the pair sup is 1/2
    assert r.fg3.witness_value == pytest.approx(0.5, rel=1e-6)
    # density route: (1-F)/f * (1/x + |f'|/f) = (x/p)(1/x + (p+1)/x) = (p+2)/p
    assert r.fg5.witness_value == pytest.approx(2.0, rel=1e-4)
    assert all(getattr(r, n).status == "pass" for n in ("fg1", "fg2", "fg3", "fg5"))


def test_weibull_pair_bounded():
    r = check_fg(Weibull(2), Weibull(3))
    assert r.fg2.status == "pass"
    # (1-u)|(log h)'| -> 1 for stretched-exponential tails
    assert 0.9 < r.fg2.witness_value <= 1.05
    assert r.fg3.status == "pass"
    assert r.fg3.witness_value < 1.0
    assert r.fg5.status == "pass"


def _marginal_quantities(law, v):
    """fg2's (1-u)|(log h)'|, fg3's companion H and fg5's density rewrite at 1 - u = v.

    The formulas of the grid checks that fg2, fg3 and fg5 used to run: centred
    differences at relative step 1e-5, fg2's in 1 - u and fg5's in x.  The
    quantiles are read through psi_inverse, so that 1 - u = v is exact.
    """
    def at(w):
        return float(law.psi_inverse(-math.log(w)))

    dv = 1e-5 * v
    fg2 = v * abs(math.log(law.pdf(at(v - dv))) - math.log(law.pdf(at(v + dv)))) / (2.0 * dv)
    x = at(v)
    fg3 = v / (x * law.pdf(x))
    dx = 1e-5 * x
    f0, fp, fm = law.pdf(x), law.pdf(x + dx), law.pdf(x - dx)
    fg5 = law.sf(x) / f0 * (1.0 / x + abs(fp - fm) / (2.0 * dx) / f0)
    return fg2, fg3, fg5


@pytest.mark.parametrize("text", ["gaussian(1,2)", "pareto(3)", "weibull(0.75)", "exponential(2)",
                                  "locscale(pareto(5),2,1)",
                                  "reflect(locscale(gaussian(0,1),2,1))"])
def test_marginal_limits_match_differences_deep_in_the_tail(text):
    law = parse_distribution(text)
    r = check_fg(law, law)
    limits = (r.fg2.witness_value, r.fg3.witness_value, r.fg5.witness_value)
    assert (r.fg2.witness_location, r.fg3.witness_location, r.fg5.witness_location) == (None,) * 3

    def gaps(v):
        # relative to a positive limit, absolute to fg3's limit 0
        return [abs(q - lim) / lim if lim > 0.0 else abs(q)
                for q, lim in zip(_marginal_quantities(law, v), limits)]

    for name, shallow, deep in zip(("fg2", "fg3", "fg5"), gaps(1e-6), gaps(1e-12)):
        # a gap below 1e-6 is the differences' rounding: the quantity is already at its limit
        assert deep < max(shallow, 1e-6), (name, shallow, deep)
        assert deep < 0.1, (name, deep)


def test_identical_laws_fail_separation():
    r = check_fg(Gaussian(0, 1), Gaussian(0, 1))
    assert r.fg4.status == "fail"
    assert r.fg4.witness_value == 0.0
    assert r.fg4.witness_location is not None
    assert r.tau0 is None
    assert not r.all_pass


def test_crossing_tails_fail_separation():
    # G is heavier in the far tail but sits above F near the median: tau < 0 somewhere
    r = check_fg(Pareto(3), LocationScale(Pareto(6), 1.0, 0.9))
    assert r.fg4.status == "fail" or r.tau0 is not None  # depends on depth of crossing
    r2 = check_fg(LocationScale(Pareto(3), 1.0, -0.5), Pareto(3))
    assert r2.fg4.status == "fail"
    assert r2.fg4.witness_value < 0.0


def test_threshold_validation():
    # the threshold is placed, not passed, and an error names the law with no tail
    assert list(inspect.signature(check_fg).parameters) == ["F", "G"]
    assert list(inspect.signature(verify_triple).parameters) == ["F", "G", "c"]
    # Pareto(1)'s 0.9-quantile, 10, lies beyond all of N(0,1) but 1e-23
    with pytest.raises(ValueError, match=r"Gaussian\(mean=0, sd=1\) has no mass above 1e-8"):
        check_fg(Pareto(1), Gaussian(0, 1))


@pytest.mark.parametrize("a", [-6.0, 5.0, 20.0])
def test_threshold_moves_with_a_translation(a):
    # the floor is the larger median, so a translated pair's sides pass or fail
    # as at a = 0, with m moved by a (by -a on the reflected left side)
    base = verify_triple(Gaussian(0, 1), Gaussian(1, 1), P2)
    tr = verify_triple(Gaussian(a, 1), Gaussian(a + 1, 1), P2)
    assert (tr.swapped_right, tr.swapped_left) == (base.swapped_right, base.swapped_left)
    for rep, ref, sign in ((tr.right, base.right, 1.0), (tr.left, base.left, -1.0)):
        assert {k: s.status for k, s in rep.conditions().items()} == \
            {k: s.status for k, s in ref.conditions().items()}
        assert rep.m - ref.m == sign * a
        assert rep.tau0 == pytest.approx(ref.tau0, abs=2e-15)


@pytest.mark.parametrize("scale", [0.01, 0.001])
def test_threshold_scales_with_the_laws(scale):
    # an absolute offset of 1/2 above the larger median left no tail at these scales
    tr = verify_triple(Gaussian(0, scale), Gaussian(2 * scale, scale), P2)
    assert tr.all_pass
    for rep in (tr.right, tr.left):
        assert all(s.passed for s in rep.conditions().values())
        assert rep.m < 4.0 * scale


def test_growth_law_trips_the_trend_heuristic():
    # no tail constants to take the limits from: fg1-fg3, fg5 and cfg are
    # not-applicable and say so, and the variance refuses the law by name
    tr = verify_triple(_StretchTail(), Exponential(0.001), P2)
    r = tr.right
    for s in (r.fg1, r.fg2, r.fg3, r.fg5):
        assert s.status == "not-applicable" and "no tail constants" in s.note
    assert r.cfg.status == "not-applicable"
    assert r.cfg.note == "_StretchTail declares no tail constants (gamma, C)"
    for call in (lambda: sigma2(_StretchTail(), Exponential(0.001), P2, Independent()),
                 lambda: sigma2_one_sample(Exponential(0.001), _StretchTail(), P2, "x")):
        with pytest.raises(ValueError, match="_StretchTail declares no tail constants") as info:
            call()
        assert not isinstance(info.value, UnsupportedCostError)


def test_exact_cost_refuses_a_law_without_tail_constants_as_sigma2_does():
    # no tail constants, no decay rate and so no depth for the cost's tail
    F, G = _StretchTail(), Gaussian(0.0, 1.0)
    with pytest.raises(ValueError) as variance:
        sigma2(F, G, P2, Independent())
    with pytest.raises(ValueError) as cost:
        exact_cost(F, G, P2)
    assert str(cost.value) == str(variance.value) == (
        "the tail gate cannot size the right tail: _StretchTail declares no tail constants "
        "(gamma, C)")
    assert not isinstance(cost.value, (NonconvergenceError, UnsupportedCostError))


def test_an_interior_window_reads_no_tail_constants():
    # a window's ends lie inside (0, 1), so no tail needs a decay rate: the
    # full interval still refuses _StretchTail, the window (0.1, 0.9) has its value
    F, G = _StretchTail(), Exponential(1.0)
    with pytest.raises(ValueError, match="_StretchTail declares no tail constants"):
        exact_cost(F, G, P2)
    got = exact_cost(F, G, P2, window=(0.1, 0.9))
    direct, _ = integrate.quad(lambda u: (F.quantile(u) - G.quantile(u)) ** 2, 0.1, 0.9,
                               epsabs=0.0, epsrel=1e-12)
    assert math.isfinite(got) and got == pytest.approx(direct, rel=1e-7)


def test_verify_triple_matches_recorded_reports():
    with open(triple_matrix.RECORDED) as fh:
        recorded = json.load(fh)
    assert len(recorded["triples"]) == len(triple_matrix.TRIPLES) == 100
    # fg1-fg3, fg5 and cfg are compared by status: their witnesses are now limits
    # and the gate's margin
    mismatched = [row["triple"] for row in recorded["triples"]
                  if triple_matrix.status_only(triple_matrix.report(tuple(row["triple"])))
                  != triple_matrix.expected(tuple(row["triple"]), row["report"])]
    assert not mismatched


def test_verify_triple_fits_trends_without_lstsq_and_counts_its_law_calls(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("trend slopes take the closed form")

    monkeypatch.setattr(np, "polyfit", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    calls = []
    for cls in vars(distributions_module).values():
        if isinstance(cls, type) and issubclass(cls, Distribution):
            for name, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not name.startswith("__"):
                    def counted(*args, _fn=fn, _name=f"{cls.__name__}.{name}", **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(cls, name, counted)
    tr = verify_triple(parse_distribution("gaussian(0,1)"), parse_distribution("gaussian(2,1)"),
                       parse_cost("power(2)"))
    assert tr.all_pass
    # 152 calls at 32efc77, where the finite differences took one call per
    # shifted grid and trend slopes came from numpy.polyfit; 118 with one
    # call per law and grid; 112 without the advisory sufficient-tail check; 104
    # with one quantile call per law for the threshold and the grids' ends; 52
    # with fg1-fg3 and fg5 taken from the tail constants
    assert len(calls) <= 52, sorted(set(calls))


def test_report_serializes_to_json():
    r = check_fg(Gaussian(1, 1), Gaussian(0, 1))
    d = r.to_dict()
    for name in ("fg1", "fg2", "fg3", "fg4", "fg5", "cfg"):
        assert set(d[name]) == {"status", "witness", "value", "note"}
    assert set(d) == {"fg1", "fg2", "fg3", "fg4", "fg5", "cfg",
                      "theta1", "tau0", "m", "side", "all_pass"}
    assert d["all_pass"] is True
    json.dumps(d)


@pytest.mark.parametrize("F, G, c", [
    ("gaussian(0,1e-200)", "gaussian(1e-200,1e-200)", "power(2)"),  # sd*sd underflows
    ("locscale(weibull(2),1e-200,0)", "locscale(weibull(2),1e-200,1e-200)", "power(2)"),
    ("gaussian(0,1e200)", "gaussian(1e200,1e200)", "exppower(2)"),  # C = 1/(2 sd^2) is 0
])
def test_extreme_scales_give_a_result_or_a_typed_error(F, G, c, capsys):
    # C under- or overflows at these scales: each law keeps gamma = 2 and
    # declares C's limit, 0 or inf, which decides every tail condition.  An
    # overflow is typed, not a RuntimeWarning
    laws, cost = (parse_distribution(F), parse_distribution(G)), parse_cost(c)
    assert all(law.tail_constants() in ((2.0, 0.0), (2.0, math.inf)) for law in laws)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: verify_triple(*laws, cost), lambda: tail_gate(*laws, cost),
                     lambda: sigma2(*laws, cost, Independent())):
            try:
                call()
            except (ValueError, NonconvergenceError):  # every type of wcost.errors is one of these
                pass
        capsys.readouterr()
        code = main(["check", F, G, c])

    def strict(name):
        raise AssertionError(f"the report holds {name}, which strict JSON has not")

    report = json.loads(capsys.readouterr().out, parse_constant=strict)
    left = any(math.isinf(law.support()[0]) for law in laws)  # weibull has no left tail
    for side in ("right", "left") if left else ("right",):
        assert [report[side][name]["status"] for name in ("fg1", "fg2", "fg3", "fg5")] == ["pass"] * 4
        assert report[side]["cfg"]["note"].startswith("closed form")
    # exppower(2) on C = 0: lambda = 1/C is infinite, as it is 2 sd^2 at every sd >= 1/2
    assert code == (1 if c == "exppower(2)" else 0)


# --- cost/tail compatibility ---------------------------------------------------


def test_cfg_polynomial_tail_threshold():
    # index-beta tail vs power-alpha cost: compatible iff beta > 2*alpha
    ok = check_cfg(Pareto(5), P2)
    assert ok.status == "pass"
    assert 0.03 < ok.margin < 0.07
    bad = check_cfg(Pareto(3), P2)
    assert bad.status == "fail"
    assert bad.margin < -0.5
    # the boundary case beta = 2*alpha misses by exactly the 2*theta/x term
    frontier = check_cfg(Pareto(4), P2)
    assert frontier.status == "fail"
    assert -1.0 < frontier.margin < 0.0


def test_cfg_gaussian_has_wide_margin():
    res = check_cfg(Gaussian(0, 1), P2)
    assert res.status == "pass"
    assert res.margin > 5.0


def test_cfg_quantile_cost_unsupported():
    from wcost.errors import UnsupportedCostError

    with pytest.raises(UnsupportedCostError):
        check_cfg(Pareto(5), QuantileCost(0.3))


# --- both-tails verifier ---------------------------------------------------------


def test_triple_gaussian_pair_passes_both_sides():
    tr = verify_triple(Gaussian(1, 1), Gaussian(0, 1), P2)
    assert tr.all_pass
    assert tr.right.side == "right" and tr.left.side == "left"
    assert tr.right.cfg.status == "pass"
    assert tr.left.cfg.status == "pass"
    assert not tr.swapped_right
    # after reflection the other marginal carries the heavier tail
    assert tr.swapped_left
    # one object as both marginals: a tie, which F keeps on both sides
    F = Gaussian(1, 1)
    same = verify_triple(F, F, P2)
    assert (same.swapped_right, same.swapped_left) == (False, False)


def test_triple_positive_support_left_side_vacuous():
    tr = verify_triple(Pareto(5), Pareto(6), P2)
    assert tr.all_pass
    assert tr.right.cfg.status == "pass"
    assert tr.left.fg4.status == "not-applicable"
    assert "bounded" in tr.left.fg4.note
    # both reflected supports are bounded above, so the deep quantile decides:
    # -Pareto(6) reaches closer to -1 than -Pareto(5)
    assert tr.swapped_left


def test_triple_fails_on_incompatible_tail():
    tr = verify_triple(Pareto(3), Pareto(4), P2)
    assert not tr.all_pass
    assert tr.right.cfg.status == "fail"


def test_triple_mixed_support_discards_separation_on_left():
    tr = verify_triple(Pareto(5), Gaussian(0, 1), P2)
    assert tr.all_pass
    assert not tr.swapped_right  # polynomial tail leads on the right
    assert tr.left.fg4.status == "not-applicable"
    assert "separation" in tr.left.fg4.note
    assert tr.left.fg1.status == "pass"


def test_triple_swaps_to_heavier_lead():
    tr = verify_triple(Pareto(6), Pareto(5), P2)
    assert tr.swapped_right
    assert tr.right.cfg.status == "pass"
    # the gate's margin on the Pareto(5) lead: 1/2 - (1/5 + 1/5)
    assert tr.right.cfg.witness_value == pytest.approx(0.1, rel=1e-15)


def test_triple_quantile_cost_marks_compatibility_na():
    tr = verify_triple(Gaussian(1, 1), Gaussian(0, 1), QuantileCost(0.3))
    assert tr.right.cfg.status == "not-applicable"
    assert set(tr.right.conditions()) == {"fg1", "fg2", "fg3", "fg4", "fg5", "cfg"}
    assert tr.all_pass  # not-applicable never counts as failure
    json.dumps(tr.to_dict())


def test_heavier_right_ranks_tail_classes_before_quantiles():
    # Pareto(8) reads 10 at 1 - 1e-8 and Exponential(1) 18.4, but a polynomial
    # tail (class 0) is heavier than an exponential one (class 1)
    P8, E1 = Pareto(8.0), Exponential(1.0)
    assert heavier_right(P8, E1) is P8 and heavier_right(E1, P8) is P8
    # Gaussian(0, 10) reads 56 there, yet its class-2 tail is the lighter one
    N10 = Gaussian(0.0, 10.0)
    assert heavier_right(N10, E1) is E1 and heavier_right(E1, N10) is E1
    # within a class the smaller constant leads: Exponential(0.5) has C = 1/2
    # against Weibull(1)'s 1, and Pareto(3) leads 100 Pareto(10), which reads
    # 631 at 1 - 1e-8 against its 464
    W1, E_half = Weibull(1.0), Exponential(0.5)
    assert heavier_right(W1, E_half) is E_half and heavier_right(E_half, W1) is E_half
    P3, P10 = Pareto(3.0), LocationScale(Pareto(10.0), 100.0, 0.0)
    assert heavier_right(P3, P10) is P3 and heavier_right(P10, P3) is P3
    # a tie in both constants leaves it to the quantile
    P5, P5_shift = Pareto(5.0), LocationScale(Pareto(5.0), 1.0, 1.0)
    assert heavier_right(P5, P5_shift) is P5_shift and heavier_right(P5_shift, P5) is P5_shift
    # an unbounded support still beats a bounded one
    assert heavier_right(reflect(P8), N10) is N10


# --- the tail gate ---------------------------------------------------------------


@pytest.mark.parametrize("F, c, margin", [
    (Pareto(4.0), P2, 0.0),  # p = 2 alpha: J ~ int du / (1 - u), fails
    (Pareto(4.5), P2, 0.5 - 2.0 / 4.5),
    (Pareto(2.5), PowerCost(1.5), 0.5 - 1.5 / 2.5),
    (Exponential(2.0), ExpPowerCost(1.0), 0.0),  # lambda = 1/C = 1/2
    (Exponential(2.5), ExpPowerCost(1.0), 0.1),
    (Gaussian(0.0, 0.5), ExpPowerCost(2.0), 0.0),  # C = 1 / (2 sd^2) = 2
    (Weibull(0.5), ExpPowerCost(0.5), -0.5),
    (Weibull(0.5), ExpPowerCost(0.4), 0.5),
    (Weibull(0.5), ExpPowerCost(1.0), -math.inf),
    (Pareto(10.0), LogPowerCost(0.5), -math.inf),
])
def test_tail_gate_decides_the_frontier_exactly(F, c, margin):
    G = LocationScale(F, 1.0, 1.0)
    verdict = tail_gate(F, G, c)
    # both marginals have the same delta, and the first one is named on a tie
    assert verdict.margin == pytest.approx(margin, abs=1e-15)
    assert verdict.failed == (margin <= 0.0)
    assert verdict.status == ("fail" if margin <= 0.0 else "pass")
    assert (verdict.side, verdict.marginal) == ("right", "x")
    assert verdict.rule.startswith("closed form: lambda + delta = ")


@pytest.mark.parametrize("f, g", [("gaussian(0,1)", "gaussian(2,1)"),
                                  ("pareto(5)", "locscale(pareto(5),1,1)")])
def test_tail_gate_reads_no_quantile_on_a_tie_of_the_constants(monkeypatch, f, g):
    # the lead is the law with the smaller constants, and a tie leaves lambda
    # as it is; heavier_right's lead read 4 and 8 quantiles here
    laws, calls = (parse_distribution(f), parse_distribution(g)), []
    for cls in vars(distributions_module).values():
        if isinstance(cls, type) and issubclass(cls, Distribution) and "quantile" in vars(cls):
            monkeypatch.setattr(cls, "quantile",
                                lambda *args, _fn=vars(cls)["quantile"]: calls.append(args) or _fn(*args))
    assert tail_gate(*laws, P2).status == "pass"
    assert calls == []


def test_tail_gate_reads_only_the_named_marginals():
    # lambda = 1/4 from the Pareto(4) lead; delta is 1/4 for it and 0 for the Gaussian
    F, G = Pareto(4.0), Gaussian(0.0, 1.0)
    assert tail_gate(F, G, P2).failed
    assert tail_gate(F, G, P2, ("x",)).failed
    y_only = tail_gate(F, G, P2, ("y",))
    assert (y_only.status, y_only.side, y_only.marginal, y_only.margin) == ("pass", "right", "y", 0.25)


def test_tail_gate_is_not_applicable_without_tail_constants():
    # the marginal named is the law without constants, here the lead one
    verdict = tail_gate(Exponential(1.0), _StretchTail(), P2)
    assert (verdict.status, verdict.side, verdict.marginal, verdict.margin) == (
        "not-applicable", "right", "y", None)
    assert verdict.rule == "_StretchTail declares no tail constants (gamma, C)"
    assert not verdict.failed


def test_tail_gate_reports_an_undecided_side_before_a_pass():
    # the right side has no tail constants; the left one, a reflected Gaussian
    # against a bounded law, passes with margin 1/2
    verdict = tail_gate(_StretchTail(), Gaussian(0.0, 1.0), P2)
    assert (verdict.status, verdict.side, verdict.marginal, verdict.margin) == (
        "not-applicable", "right", "x", None)
    assert not verdict.failed
    # a failure still comes first: here the left side's, a Pareto(1.5) lead under power(2)
    verdict = tail_gate(_StretchTail(), reflect(Pareto(1.5)), P2)
    assert (verdict.status, verdict.side) == ("fail", "left")


def test_tail_gate_passes_costs_without_a_tail_representation():
    verdict = tail_gate(Pareto(3.0), Pareto(4.0), QuantileCost(0.3))
    assert verdict.status == "not-applicable" and not verdict.failed
    assert verdict.margin is None and "no asymptotic profile" in verdict.rule


SHIPPED_COSTS = ("power(1.5)", "power(2)", "power(3)", "logpower(0.5)", "exppower(0.5)",
                 "exppower(1)", "exppower(2)", "quantile(0.3)")


def _extreme_pairs():
    """Every family at sd or scale 1e-200 and 1e200, where C leaves the floats.

    Each law meets a copy shifted by its scale and a unit-scale law, in both orders.
    """
    for a in ("1e-200", "1e200"):
        for law in (f"gaussian(0,{a})", *(f"locscale({base},{a},0)" for base in
                                          ("gaussian(0,1)", "exponential(1)", "weibull(1.5)",
                                           "pareto(3)"))):
            for other in (f"locscale({law},1,{a})", "gaussian(1,2)"):
                yield law, other
                yield other, law


EXTREME_TRIPLES = tuple((f, g, c) for f, g in _extreme_pairs() for c in SHIPPED_COSTS)


def test_the_gate_reads_only_the_tail_constants(monkeypatch):
    # tail_gate, verify_triple and sigma2 never call check_cfg, and every law
    # declares (gamma, C) with C in [0, inf] on each unbounded tail.  The variance
    # work after the gate, which reads no tail constants, is replaced by a stub
    # that records the margins it gets, so that the 1459 triples take about 1 s
    import guard_matrix
    import variance_oracles
    import wcost.assumptions as assumptions_module
    import wcost.variance as variance_module

    calls, margins = [], []
    monkeypatch.setattr(assumptions_module, "check_cfg", lambda *args: calls.append(args))
    monkeypatch.setattr(variance_module, "_influence_sigma2",
                        lambda f, cp, q, m: margins.append(m) or (0.0, 0.0, {}))
    triples = set(triple_matrix.TRIPLES + variance_oracles.TRIPLES + guard_matrix.TRIPLES
                  + EXTREME_TRIPLES)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # nearly coinciding marginals
        for f, g, c in sorted(triples):
            laws, cost = (parse_distribution(f), parse_distribution(g)), parse_cost(c)
            for law in laws + tuple(reflect(law) for law in laws):
                if math.isinf(law.support()[1]):
                    gamma, C = law.tail_constants()
                    assert 0.0 <= C <= math.inf, (law, C)
            for call in (lambda: tail_gate(*laws, cost), lambda: verify_triple(*laws, cost),
                         lambda: sigma2(*laws, cost, Independent())):
                try:
                    call()
                except (ValueError, NonconvergenceError):
                    pass
    assert not calls
    # one depth rule: a margin from the gate on every half, 1/2 on a bounded one
    assert margins and all(0.0 < m <= 0.5 for pair in margins for m in pair)


def test_reflection_symmetry_of_marginal_checks():
    # a pair symmetric about zero must yield identical verdicts after reflection
    F, G = Gaussian(0, 2), Gaussian(0, 1)
    a = check_fg(F, G)
    b = check_fg(reflect(F), reflect(G))
    assert a.fg2.witness_value == b.fg2.witness_value
    assert a.fg3.witness_value == b.fg3.witness_value
    assert a.fg4.status == b.fg4.status == "pass"
    assert a.tau0 == b.tau0
