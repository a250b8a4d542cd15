import json
import math

import numpy as np
import pytest

from wcost.assumptions import (
    check_cfg,
    check_csfg,
    check_fg,
    check_tail_sufficient,
    reflected_cost,
    verify_triple,
)
from wcost.costs import PowerCost, QuantileCost
from wcost.distributions import (
    Distribution,
    Exponential,
    Gaussian,
    LocationScale,
    Pareto,
    Reflected,
    Weibull,
    reflect,
)

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
    with pytest.raises(ValueError, match="must exceed"):
        check_fg(Gaussian(0, 1), Gaussian(1, 1), m=0.5)
    with pytest.raises(ValueError, match="no tail"):
        check_fg(Gaussian(0, 1), Gaussian(1, 1), m=1e9)


def test_growth_law_trips_the_trend_heuristic():
    r = check_fg(_StretchTail(), Exponential(0.001))
    assert r.fg2.status == "fail"
    assert r.fg3.status == "fail"
    # a fail always carries its witness point
    for s in (r.fg2, r.fg3):
        assert s.witness_value is not None and s.witness_location is not None
    assert not r.all_pass


def test_report_serializes_to_json():
    r = check_fg(Gaussian(1, 1), Gaussian(0, 1))
    d = r.to_dict()
    for name in ("fg1", "fg2", "fg3", "fg4", "fg5", "cfg", "tail_sufficient"):
        assert set(d[name]) == {"status", "witness", "value", "note"}
    assert d["all_pass"] is True
    json.dumps(d)


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


def test_cfg_margin_monotone_in_theta():
    for law in (Pareto(5), Gaussian(0, 1)):
        margins = [check_cfg(law, P2, theta=t).margin for t in (1.1, 1.25, 1.5, 2.0)]
        assert all(a > b for a, b in zip(margins, margins[1:]))


def test_cfg_theta_validation():
    with pytest.raises(ValueError, match="theta"):
        check_cfg(Pareto(5), P2, theta=1.0)
    with pytest.raises(ValueError, match="theta"):
        check_cfg(Pareto(5), P2, theta=0.5)


def test_cfg_grid_validation():
    with pytest.raises(ValueError):
        check_cfg(Pareto(5), P2, x_grid=[np.inf, 2.0])
    with pytest.raises(ValueError):
        check_cfg(Pareto(5), P2, x_grid=[])
    # points below l(tau1) are outside the cost's asymptotic regime
    with pytest.raises(ValueError):
        check_cfg(Pareto(5), P2, x_grid=[-20.0])


def test_cfg_quantile_cost_unsupported():
    from wcost.errors import UnsupportedCostError

    with pytest.raises(UnsupportedCostError):
        check_cfg(Pareto(5), QuantileCost(0.3))


# --- tractable sufficient condition -------------------------------------------


def test_tail_sufficient_examples():
    grid = np.linspace(2.0, 8.0, 25)
    assert check_tail_sufficient(Gaussian(0, 1), P2, 2.5, grid).status == "pass"
    assert check_tail_sufficient(Pareto(4), P2, 2.5, grid).status == "fail"
    assert check_tail_sufficient(Pareto(10), P2, 2.5, grid).status == "pass"


def test_tail_sufficient_zeta_validation():
    with pytest.raises(ValueError, match="zeta"):
        check_tail_sufficient(Gaussian(0, 1), P2, 2.0)


def test_tail_sufficient_fail_carries_witness():
    s = check_tail_sufficient(Pareto(4), P2, 2.5, np.linspace(2.0, 8.0, 25))
    assert s.witness_value is not None and s.witness_value < 0
    assert s.witness_location is not None


@pytest.mark.parametrize("law", [Gaussian(0, 1), Pareto(10)])
def test_tractable_implies_compatibility(law):
    # where the sufficient condition holds, the direct check must agree on the
    # same points (mapped through the cost profile); the implication is
    # asymptotic, so the shared grid sits in the far tail
    xs = np.asarray(law.quantile(1.0 - np.geomspace(1e-6, 1e-10, 64)), dtype=float)
    assert check_tail_sufficient(law, P2, 2.5, xs).status == "pass"
    res = check_cfg(law, P2, theta=2.0, x_grid=P2.l(xs))
    assert res.status == "pass"


# --- classification-based sufficient condition ----------------------------------


def test_csfg_known_families():
    assert check_csfg(Pareto(3)).status == "pass"
    assert "index 0" in check_csfg(Pareto(3)).note
    assert check_csfg(Weibull(2)).status == "pass"
    assert check_csfg(Gaussian(0, 1)).status == "pass"
    assert check_csfg(Exponential(1)).status == "pass"
    assert check_csfg(LocationScale(Weibull(2), 2.0, 5.0)).status == "pass"


def test_csfg_companion_bound_is_tight_for_weibull():
    # H(u) = 1/(q log(1/(1-u))) vs bound 1/(gamma0 log(1/(1-u))), gamma0 = q/2:
    # the gap is 1/(q log(1/(1-u))), smallest at the deep end of the grid
    s = check_csfg(Weibull(2), m=float(Weibull(2).quantile(0.95)))
    assert s.status == "pass"
    assert s.witness_value == pytest.approx(1.0 / (2.0 * math.log(1e8)), rel=1e-6)


def test_csfg_rejects_unclassified():
    with pytest.raises(ValueError, match="tail class"):
        check_csfg(Reflected(Pareto(3)))
    with pytest.raises(ValueError, match="tail class"):
        check_csfg(_StretchTail())


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
    assert tr.right.cfg.witness_value == pytest.approx(0.0476, abs=0.01)


def test_triple_quantile_cost_marks_compatibility_na():
    tr = verify_triple(Gaussian(1, 1), Gaussian(0, 1), QuantileCost(0.3))
    assert tr.right.cfg.status == "not-applicable"
    assert tr.right.tail_sufficient.status == "not-applicable"
    assert tr.all_pass  # not-applicable never counts as failure
    json.dumps(tr.to_dict())


def test_reflection_plumbing():
    # radial costs are reflection-invariant; the pinball swaps weights
    assert reflected_cost(P2) is P2
    rq = reflected_cost(QuantileCost(0.3))
    assert isinstance(rq, QuantileCost) and rq.alpha == pytest.approx(0.7)


def test_reflection_symmetry_of_marginal_checks():
    # a pair symmetric about zero must yield identical verdicts after reflection
    F, G = Gaussian(0, 2), Gaussian(0, 1)
    a = check_fg(F, G)
    b = check_fg(reflect(F), reflect(G))
    assert a.fg2.witness_value == b.fg2.witness_value
    assert a.fg3.witness_value == b.fg3.witness_value
    assert a.fg4.status == b.fg4.status == "pass"
    assert a.tau0 == b.tau0
