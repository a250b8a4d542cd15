import json
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri, roots_hermitenorm

import wcost.quadrature as quadrature
import wcost.variance as variance_module
from wcost import mc, parse_cost, parse_coupling, parse_distribution, verify_triple
from wcost.costs import Cost, ExpPowerCost, LogPowerCost, PowerCost, QuantileCost
from wcost.coupling import (
    Comonotone,
    Countermonotone,
    Coupling,
    GaussianCopula,
    Independent,
    sample_pairs,
)
from wcost.distributions import (Exponential, Gaussian, LocationScale, Pareto, Reflected, Weibull,
                                 reflect)
from wcost.errors import (DegenerateSampleError, HypothesisGateError, NonconvergenceError,
                         UnsupportedCostError)
from wcost.estimate import PairedSample, empirical_cost, exact_cost
from wcost.quadrature import (
    _ANTI_FIT,
    CumulativeMesh,
    QuadratureConfig,
    _graded,
    _tolerance,
)
from wcost.variance import (
    DEFAULT_VARIANCE_CONFIG,
    VarianceResult,
    confidence_interval,
    plug_in_sigma2,
    sigma2,
    sigma2_gaussian,
    sigma2_location_scale,
    sigma2_one_sample,
    sigma2_window,
)

import guard_matrix
import variance_oracles
from stable_sort_reference import plug_in_sigma2_ref, same_bits, tied_sample

P2 = PowerCost(2.0)

# Three Gaussian pairs with known variances under independent pairing:
# 4 (s^2 + s'^2) (m - m')^2 + 2 (s^2 + s'^2) (s - s')^2.
GAUSSIAN_PAIRS = [
    (Gaussian(0, 1), Gaussian(2, 1), 32.0),
    (Gaussian(0, 1), Gaussian(1, 2), 30.0),
    (Gaussian(3, 2), Gaussian(1, 1), 90.0),
]


class _FlatCost(Cost):
    """Cost with identically zero gradient: the variance integrand vanishes."""

    def evaluate(self, x, y):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

    def gradient(self, x, y):
        z = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return z, z.copy()

    def rho_prime(self, t):
        return np.zeros(np.shape(t))


def rel(value, target):
    return abs(value - target) / abs(target)


# --- result type ---------------------------------------------------------------


def test_result_rejects_negative_value():
    with pytest.raises(ValueError, match="nonnegative"):
        VarianceResult(-0.5, 0.0, "quadrature")


def test_result_rejects_negative_error_estimate():
    with pytest.raises(ValueError, match="nonnegative"):
        VarianceResult(1.0, -1e-9, "quadrature")


def test_result_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        VarianceResult(1.0, 0.0, "guesswork")


def test_result_to_dict_round_trip():
    r = VarianceResult(2.0, 1e-6, "plug_in", {"grid": 256})
    d = r.to_dict()
    assert d == {"value": 2.0, "est_error": 1e-6, "method": "plug_in",
                 "diagnostics": {"grid": 256}}


# --- two-sample quadrature -----------------------------------------------------


@pytest.mark.parametrize("F, G, target", GAUSSIAN_PAIRS)
def test_gaussian_pairs_independent(F, G, target):
    r = sigma2(F, G, P2, Independent())
    assert r.method == "quadrature"
    assert rel(r.value, target) < 1e-3
    assert r.est_error >= 0.0
    assert r.diagnostics["clamp"] <= 1e-8


def test_flat_cost_gives_zero():
    # a window runs no tail gate, so a cost outside the gate's table has a value there
    r = sigma2_window(Gaussian(0, 1), Gaussian(2, 1), _FlatCost(), Independent(), 0.1)
    assert r.value == 0.0


def test_quantile_cost_is_rejected():
    with pytest.raises(UnsupportedCostError, match="gradient"):
        sigma2(Gaussian(0, 1), Gaussian(2, 1), QuantileCost(0.5), Independent())


@pytest.mark.parametrize("a", [1e-100, 1.0, 1e100])
def test_the_tails_meet_warning_is_scale_free(a):
    # the quantile gap is measured against the quantiles themselves: defect 13's
    # pair stays apart at every common scale, and F = G coincides at every one
    laws = [LocationScale(law, a, 0.0) for law in (Weibull(1.5), Gaussian(1, 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        variance_module._warn_if_tails_meet(*laws)
    with pytest.warns(UserWarning, match="coincide"):
        variance_module._warn_if_tails_meet(laws[0], laws[0])


def test_equal_marginals_warn_and_degenerate():
    with pytest.warns(UserWarning, match="coincide"):
        r = sigma2(Gaussian(0, 1), Gaussian(0, 1), P2, Independent())
    assert r.value == 0.0


def test_comonotone_same_shape_is_exactly_zero():
    # Y = X + 2 almost surely: every replicate evaluates the cost to 4, so the
    # estimator does not fluctuate at all.
    r = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Comonotone())
    assert r.value == 0.0


def test_comonotone_different_scales():
    # Comonotone pairing turns the matched sum into an iid mean of (1 + Z)^2,
    # whose variance is 4 var(Z) + var(Z^2) = 6.
    r = sigma2(Gaussian(0, 1), Gaussian(1, 2), P2, Comonotone())
    assert rel(r.value, 6.0) < 1e-3


@pytest.mark.parametrize("p", [4.5, 5])
@pytest.mark.parametrize("shifted", ["F", "G"])
def test_comonotone_heavy_tailed_translate_is_exactly_zero(p, shifted):
    # 1 + X against X moves in lockstep: W_n is the cost of a unit shift on
    # every sample.  Near the deepest node, at s ~ 204, |Q_x| reaches about
    # 5e16 where the mass is e^{-204}, so the cancellation must be judged
    # node by node, not against the largest |Q_x| + |Q_y| on the mesh
    laws = [f"pareto({p})", f"locscale(pareto({p}),1,1)"]
    F, G = map(parse_distribution, laws if shifted == "G" else laws[::-1])
    r = sigma2(F, G, P2, Comonotone())
    assert r.value == 0.0 and r.est_error < 1e-20


def test_a_lockstep_refusal_names_the_cancellation_bound():
    # sigma^2 = 0 again, but its bound 1e-24 E(|Q_x| + |Q_y|)^2 = 1e-24 * 16 (1e4 * 1e4)^2
    # exceeds abs_tol, which is in units of sigma^2
    with pytest.raises(NonconvergenceError, match=r"error estimate 1\.600e-07 exceeds .* the largest "
                                                  r"part is the x\+y cancellation residual"):
        sigma2(Gaussian(0, 1e4), Gaussian(1e4, 1e4), P2, Comonotone())


@dataclass(frozen=True)
class _Clayton(Coupling):
    theta: float = 2.0


@pytest.mark.parametrize("call", [sigma2, lambda *args: sigma2_window(*args, 0.1)],
                         ids=["sigma2", "sigma2_window"])
def test_a_coupling_outside_the_four_kinds_is_refused_by_name(call):
    with pytest.raises(TypeError, match=r"no influence-function variance for coupling _Clayton\(theta=2.0\)"):
        call(Gaussian(0, 1), Gaussian(2, 1), P2, _Clayton())


def test_each_law_reads_its_density_only_for_its_own_slopes(monkeypatch):
    # one side's variance reads no density of the other law, and countermonotone,
    # which takes x's slopes at sigma and y's at -sigma, reads each once per node
    points = {Weibull: 0, Gaussian: 0}

    def counted(law):
        pdf = law.pdf

        def read(self, x):
            points[law] += np.size(x)
            return pdf(self, x)
        return read

    for law in points:
        monkeypatch.setattr(law, "pdf", counted(law))
    F, G, cost = Weibull(1.5), Gaussian(1, 2), PowerCost(1.5)
    one = sigma2_one_sample(F, G, cost, "x")
    assert points == {Weibull: one.diagnostics["influence"]["x"]["evaluations"], Gaussian: 0}
    points.update({Weibull: 0, Gaussian: 0})
    nodes = sigma2(F, G, cost, Countermonotone()).diagnostics["influence"]["x+y"]["evaluations"]
    assert points == {Weibull: nodes, Gaussian: nodes}


@pytest.mark.parametrize("r_copula, target", [(0.8, 6.4), (-0.8, 57.6)])
def test_gaussian_copula_closed_form(r_copula, target):
    # Equal-sd Gaussian marginals, tau = -2 constant: the cross integral reduces
    # to the correlation of the copula's normal scores, so sigma2 = 32 (1 - r).
    r = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, GaussianCopula(r_copula))
    assert rel(r.value, target) < 1e-3


# A 48-node Gauss--Hermite rule against the standard normal density: the
# inner rule of the conditional means that the cross term took before the
# Mehler series, kept here as a reference.
_INNER_X, _INNER_W = roots_hermitenorm(48)
_INNER_W = _INNER_W / math.sqrt(2.0 * math.pi)


_LOG2 = math.log(2.0)


def _inner_mesh(G, depth=40.0):
    """The sigma mesh of the Gaussian-copula slopes, each half ``depth`` deep in s."""
    slopes = variance_module._read_coupling(Gaussian(0, 1), G, P2, GaussianCopula(0.5), [0.5, 0.5])[0]
    mesh = CumulativeMesh(slopes, _graded(_LOG2 - depth, depth - _LOG2))
    for _ in range(2):
        mesh.split(np.ones(mesh.panels, dtype=bool))
    return mesh


def _sigma_of_score(z):
    """The sigma of u = Phi(z): +-(s - log 2), s = -log Phi(-|z|)."""
    return np.where(z >= 0.0, 1.0, -1.0) * (-log_ndtr(-np.abs(z)) - _LOG2)


def _q_at(mesh, i, t):
    """Q_i at points sigma of the meshed range, from each panel's Legendre interpolant."""
    k = np.clip(np.searchsorted(mesh.breaks, t, side="right") - 1, 0, mesh.panels - 1)
    coef = np.moveaxis((mesh.p[i] @ _ANTI_FIT.T)[k], -1, 0)
    x = (t - mesh.mid[k]) / mesh.half[k]
    return mesh.q_breaks[i, k] - mesh.half[k] * np.polynomial.legendre.legval(x, coef, tensor=False)


def _conditional_means_reading_every_point(mesh, r, i):
    """E[Q_i(V) | U] at the nodes, with Q_i read at every point of the inner rule.

    V = Phi(r Z_1 + s Z_2) with U = Phi(Z_1), clamped into the meshed range,
    where Q_i is held constant.
    """
    s = math.sqrt(1.0 - r * r)
    sigma = mesh.nodes()
    z1 = np.where(sigma >= 0.0, 1.0, -1.0) * Gaussian(0, 1).psi_inverse(np.abs(sigma) + _LOG2)
    v = np.clip(_sigma_of_score(r * z1[..., None] + s * _INNER_X), mesh.breaks[0], mesh.breaks[-1])
    return _q_at(mesh, i, v) @ _INNER_W


def _lower_clamp_on_an_inner_point(G):
    """(mesh, r) whose lower end in u equals one inner point exactly.

    At r = 0 the inner points are Phi of the Hermite nodes, whatever the
    mesh; the lowest one is the lower end of a mesh that deep in s.
    """
    lowest = float(_INNER_X.min())
    mesh = _inner_mesh(G, depth=-float(log_ndtr(lowest)))
    assert mesh.breaks[0] == _sigma_of_score(lowest)
    return mesh, 0.0


@pytest.mark.parametrize("G", [Gaussian(2, 1), Exponential(1.0)], ids=["gaussian", "exponential"])
@pytest.mark.parametrize("r", [0.5, -0.3, 0.9, 0.999, -0.999, "edge"])
def test_conditional_means_equal_reading_every_inner_point(G, r):
    # The covariance of Q_x with the conditional means E[Q_y(V) | U] that read
    # Q_y at every inner point equals the Mehler series' cross covariance on
    # the same mesh, within the series' own error bound.  Both hold Q_x and
    # Q_y constant beyond the meshed range; the reference leaves out the part
    # of its integrals beyond the mesh, which its error counts
    mesh, r = _lower_clamp_on_an_inner_point(G) if r == "edge" else (_inner_mesh(G), r)
    q = DEFAULT_VARIANCE_CONFIG
    g = _conditional_means_reading_every_point(mesh, r, 1)
    w = variance_module._weights(mesh.nodes())
    depth = _LOG2 - mesh.breaks[0]
    beyond = 2.0 * math.exp(-depth) * float(np.max(np.abs(mesh.Q[0]))) * float(np.max(np.abs(g)))
    # Cov(Q_x(U), g(U)), with the Kronrod-minus-Gauss gaps of its parts
    (ixg, dxg), (ix, dx), (ig, dg) = [(float(np.sum(sums)), float(np.sum(gaps))) for sums, gaps in
                                      map(mesh.panel_sums, (mesh.Q[0] * g * w, mesh.Q[0] * w, g * w))]
    reference = ixg - ix * ig
    reference_error = dxg + abs(ig) * dx + abs(ix) * dg + 3.0 * beyond
    x, y = variance_module._influence_terms(mesh, False, [0.5, 0.5])
    (_, _, cov, shares, tails, rest), series = variance_module._cross_term(mesh, r, q, x, y,
                                                                          [0.5, 0.5])
    bound = float(np.sum(shares)) + float(np.sum(tails)) + rest
    assert abs(cov - reference) <= bound + reference_error
    assert bound < 1e-5 * math.sqrt(x[2] * y[2])
    if r == 0.0:
        assert cov == 0.0 and series["series_terms"] == 1


def test_countermonotone_closed_form():
    # r -> -1 limit of the same reduction: sigma2 = 32 (1 - (-1)) = 64.
    r = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Countermonotone())
    assert rel(r.value, 64.0) < 1e-3


def test_coupling_ordering_for_gaussian_pair():
    como = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Comonotone()).value
    indep = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Independent()).value
    counter = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Countermonotone()).value
    assert como <= indep <= counter


def test_heavy_tail_frontier_converges_at_five():
    F = LocationScale(Pareto(5.0), 1.0, 1.0)
    r = sigma2(F, Pareto(5.0), P2, Independent())
    # tau = 1 constant, so each marginal term is 4 var(Pareto(5)) = 4 * 5/48.
    assert rel(r.value, 5.0 / 6.0) < 1e-3
    # the gate passes with its witness: 1/2 - (1/5 + 1/5) on the right side
    gate = r.diagnostics["gate"]
    assert set(gate) == {"status", "side", "marginal", "margin", "rule"}
    assert (gate["status"], gate["side"], gate["marginal"]) == ("pass", "right", "x")
    assert gate["margin"] == pytest.approx(0.1, rel=1e-15)


@pytest.mark.parametrize("beta", [3.0, 4.0])
def test_heavy_tail_frontier_fails_the_gate_below_five(beta):
    # The gate fires on the paper's tail hypothesis, not on a divergent
    # integral: these translations have the finite 8 Var Pareto(beta).
    F = LocationScale(Pareto(beta), 1.0, 1.0)
    with pytest.raises(HypothesisGateError, match="tail hypothesis fails on the right side") as info:
        sigma2(F, Pareto(beta), P2, Independent())
    assert isinstance(info.value, NonconvergenceError)
    message = str(info.value)
    assert "variance may be infinite" in message and "normal limit may not hold" in message
    assert "diverges" not in message
    # the witness: marginal, margin and rule, in the message and on the error
    verdict = info.value.verdict
    assert (verdict.status, verdict.side, verdict.marginal) == ("fail", "right", "x")
    assert verdict.margin == pytest.approx(0.5 - 2.0 / beta, rel=1e-15)
    assert "right side, marginal x: " + verdict.rule in message
    assert f"margin {verdict.margin:.3g}" in message


def test_pareto_tail_leads_exponential_and_fails_the_gate():
    # sigma^2 is infinite: Q_x grows like (1-u)^(-5/7), square-integrable only
    # for a Pareto shape above 2 * 5.  Judged on the exponential tail, which the
    # quantile at 1 - 1e-8 ranks heavier (18.4 against 13.9), the guard passed.
    with pytest.raises(HypothesisGateError, match="tail hypothesis fails on the right side"):
        sigma2(Pareto(7.0), Exponential(1.0), PowerCost(5.0), Independent())


@pytest.mark.parametrize("F, G", [(Pareto(3.0), LocationScale(Pareto(10.0), 100.0, 0.0)),
                                  (LocationScale(Pareto(10.0), 100.0, 0.0), Pareto(3.0))],
                         ids=["pareto-first", "pareto-second"])
def test_heavier_index_leads_a_scaled_lighter_pareto_and_fails_the_gate(F, G):
    # sigma^2 is infinite: Q for the Pareto(3) marginal grows like (1-u)^(-2/3).
    # The quantile at 1 - 1e-8 ranks the x100 Pareto(10) heavier (631 against
    # 464), and judged on that lead both orders returned 1.0020231e7.
    with pytest.raises(HypothesisGateError, match="tail hypothesis fails on the right side"):
        sigma2(F, G, P2, Independent())


# --- tail gate against the recorded guard verdicts ----------------------------

with open(guard_matrix.RECORDED) as fh:
    RECORDED_GUARD = json.load(fh)


@pytest.mark.parametrize("config", sorted(guard_matrix.CONFIGS))
def test_tail_guard_matches_recorded_verdicts(config):
    # The gate reads no quadrature config; each config's recorded J verdicts
    # stand, but for the listed exceptions.
    rows = [row for row in RECORDED_GUARD if row["config"] == config]
    assert len(rows) == len(guard_matrix.TRIPLES)
    for row in rows:
        triple = (row["F"], row["G"], row["cost"])
        if triple in guard_matrix.OVERFLOW:
            # recorded as passes with an overflowed J: exppower(1) on tails it outgrows
            expected = False
        elif triple in guard_matrix.REGATED:
            expected = guard_matrix.REGATED[triple]
        elif triple in guard_matrix.RELEAD:
            # recorded with the lighter exponential tail as the lead law
            expected = guard_matrix.RELEAD[triple]
        else:
            expected = row["pass"]
        assert guard_matrix.verdict(triple)["pass"] == expected, triple


#: The frontier bracket -> whether the gate passes it: Pareto translations at
#: p = 2 alpha - 1/2, 2 alpha and 2 alpha + 1/2 under power(alpha), where p = 2 alpha
#: fails, and exponential ones at rates 1.5, 2 and 2.5 under exppower(1), where
#: rate 2 (lambda = 1/2) fails.
FRONTIER = {
    **{(f"pareto({p})", f"locscale(pareto({p}),1,1)", f"power({a})"): p > 2 * a
       for a in (1.5, 2, 3, 5) for p in (2 * a - 0.5, 2 * a, 2 * a + 0.5)},
    **{(f"exponential({r})", f"locscale(exponential({r}),1,1)", "exppower(1)"): r > 2
       for r in (1.5, 2, 2.5)},
}


def test_sigma2_mc_and_check_agree_on_every_triple(monkeypatch):
    # sigma2 raises iff the Monte Carlo precheck warns iff some side's cfg fails.
    # Past the gate sigma2 does no quadrature here: the gate is what is compared.
    monkeypatch.setattr(variance_module, "_influence_sigma2", lambda *args: (1.0, 0.0, {}))
    failed = []
    for triple in guard_matrix.TRIPLES + tuple(FRONTIER):
        F, G, c = parse_distribution(triple[0]), parse_distribution(triple[1]), parse_cost(triple[2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                sigma2(F, G, c, Independent())
                raised = False
            except HypothesisGateError:
                raised = True
            ok, _ = mc._assumption_precheck(F, G, c)
        report = verify_triple(F, G, c)
        cfg_fails = "fail" in (report.right.cfg.status, report.left.cfg.status)
        assert raised == (not ok) == cfg_fails, triple
        if raised:
            failed.append(triple)
    assert {t: t not in failed for t in FRONTIER} == FRONTIER


def test_false_passes_of_the_guard_fail_the_gate():
    # each has an infinite sigma^2: the slope outgrows every power of the Pareto quantile
    false_passes = [t for t, passes in guard_matrix.REGATED.items() if not passes]
    assert len(false_passes) == 21
    for f, g, c in false_passes:
        with pytest.raises(HypothesisGateError, match="margin -inf"):
            sigma2(parse_distribution(f), parse_distribution(g), parse_cost(c), Independent())


@pytest.mark.parametrize("q, c", [(parse_distribution(f).q, c)
                                  for (f, _, c), passes in guard_matrix.REGATED.items() if passes]
                         + [(0.3, "power(2)"), (0.5, "power(2)")])
def test_weibull_translation_variance_is_twice_the_squared_slope_times_var_x(q, c):
    # The J guard failed the first seven; the power(2) ones raised on NaN strips,
    # as 1 + Weibull(q) read a density of 0 where its quantile rounds to 1.
    F, G, cost = Weibull(q), LocationScale(Weibull(q), 1.0, 1.0), parse_cost(c)
    var_x = math.gamma(1.0 + 2.0 / q) - math.gamma(1.0 + 1.0 / q) ** 2
    exact = 2.0 * float(cost.rho_prime(1.0)) ** 2 * var_x
    r = sigma2(F, G, cost, Independent())
    assert abs(r.value - exact) <= r.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, exact)
    assert sigma2(F, G, cost, Comonotone()).value == 0.0


@pytest.mark.parametrize("F, G, c", guard_matrix.OVERFLOW)
def test_overflowed_guard_integral_fails_the_gate(F, G, c):
    with pytest.raises(HypothesisGateError, match="tail hypothesis fails on the right side"):
        sigma2(parse_distribution(F), parse_distribution(G), parse_cost(c), Independent())


# One law of each family, and the wrappers, nested.
PARITY_LAWS = [Gaussian(0, 1), Gaussian(1.5, 0.5), Exponential(2.0), Weibull(0.7), Weibull(1.5),
               Pareto(5.0), LocationScale(Pareto(4.0), 2.0, 1.0), reflect(Exponential(1.0)),
               LocationScale(reflect(Weibull(2.0)), 0.5, -1.0)]
PARITY_COSTS = [P2, PowerCost(3.0), LogPowerCost(0.5), ExpPowerCost(0.5)]
# mesh-like points from deep in both tails through the bulk, as a flat array and as columns
PARITY_U = np.concatenate((np.geomspace(1e-12, 0.5, 200), 1.0 - np.geomspace(0.4, 1e-12, 200)))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("F", PARITY_LAWS, ids=repr)
def test_slopes_equal_the_gradient_over_density_quantile(F):
    # sigma2's slopes read each tail in its own coordinate (psi_inverse on the
    # right, the reflection's on the left); where u itself resolves the level,
    # they agree with the plain quantile and density-quantile reads
    sigma = np.concatenate((np.linspace(-27.0, 0.0, 200), np.linspace(0.0, 8.0, 200)[1:]))
    s = np.abs(sigma) + math.log(2.0)
    u = np.where(sigma >= 0.0, -np.expm1(-s), np.exp(-s))
    with np.errstate(all="ignore"):
        for G in PARITY_LAWS:
            for c in PARITY_COSTS:
                gx, gy = c.gradient(F.quantile(u), G.quantile(u))
                reference = np.stack((gx / F.density_quantile(u), gy / G.density_quantile(u)))
                reference *= np.exp(-s)
                slopes = variance_module._tail_slopes(F, G, c, sigma, "xy")
                floor = 1e-6 * np.max(np.abs(reference), axis=1, keepdims=True)
                assert np.all(np.abs(slopes - reference)
                              <= 1e-9 * np.maximum(np.abs(reference), floor)), (G, c)


@pytest.mark.parametrize("F", PARITY_LAWS, ids=repr)
def test_a_scalar_reads_the_bits_of_a_one_element_array(F):
    # numpy's scalar loops may round differently from its array loops: at the
    # level 1 - 1e-8, Pareto(8.5).quantile read alone once differed from the
    # array read in its last bit
    levels = [float(u) for u in PARITY_U[::7]] + [1.0 - 1e-8]
    xs = [float(x) for x in np.asarray(F.quantile(np.array(levels)))]
    psis = [1e-3, 0.7, 3.0, 40.0, 300.0]
    for method, points in (("quantile", levels), ("psi_inverse", psis), ("pdf", xs),
                           ("sf", xs)):
        for t in points:
            alone = getattr(F, method)(t)
            assert type(alone) is float
            assert _same_bits(alone, np.asarray(getattr(F, method)(np.array([t])))[0]), (method, t)


def test_gaussian_cross_rounds_reuse_the_marginal_moments(monkeypatch):
    # Each round measures the x and y terms (one variance each) and, once it
    # joins, the cross term.  The first cross round runs on the mesh that the
    # last round without it measured, so it takes that round's x and y terms.
    # The Mehler series measures no variance of its own; its near-one form
    # (r > 0) measures Var(Q_x + Q_y), but only once the first block of terms
    # has not met the tolerance, which one term does here.
    labels = []
    var_term = variance_module._var_term
    cross_term = variance_module._cross_term

    def counted(*args):
        labels.append({"influence x": "x", "influence y": "y", "influence x+y": "s"}[args[-1]])
        return var_term(*args)

    def counted_cross(*args):
        labels.append("c")
        return cross_term(*args)

    monkeypatch.setattr(variance_module, "_var_term", counted)
    monkeypatch.setattr(variance_module, "_cross_term", counted_cross)
    res = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, GaussianCopula(0.5))
    sequence = "".join(labels)
    assert re.fullmatch(r"(?:xy)+c(?:s)?(?:xyc(?:s)?)*", sequence), sequence
    assert sequence == "xyc"
    assert res.value == 15.999999999999986


def test_window_variance_of_a_shift_pair_is_a_clipped_normal_variance():
    # Q_x = 4 Phi^{-1} held constant outside the window, so each side gives
    # 16 Var(Z clipped to +-a), a = Phi^{-1}(1 - eps)
    eps = 5000 ** -0.25
    a = -float(ndtri(eps))
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    exact = 32.0 * (1.0 - 2.0 * eps - 2.0 * a * phi + 2.0 * eps * a * a)
    value = sigma2_window(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(), eps,
                          QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6)).value
    assert rel(value, exact) <= 1e-9


# rho'(2) of radial costs other than power(2), for the translation N(0,1) -> N(2,1)
_LOG3 = math.log(3.0)
TRANSLATION_SLOPES = [
    (PowerCost(1.5), 1.5 * math.sqrt(2.0)),
    (PowerCost(3.0), 12.0),
    (LogPowerCost(0.5), math.exp(_LOG3 ** 1.5) * 1.5 * math.sqrt(_LOG3) / 3.0),
    (ExpPowerCost(1.0), math.exp(2.0)),
]
# each coupling with the correlation r of its normal scores
NORMAL_SCORE_CORRELATIONS = [(Independent(), 0.0), (GaussianCopula(0.5), 0.5),
                             (GaussianCopula(-0.8), -0.8), (Comonotone(), 1.0),
                             (Countermonotone(), -1.0)]


@pytest.mark.parametrize("F, G, cp, exact", [
    *[(F, G, Independent(), target) for F, G, target in GAUSSIAN_PAIRS],
    (Gaussian(0, 1), Gaussian(2, 1), Comonotone(), 0.0),
    (Gaussian(0, 1), Gaussian(1, 2), Comonotone(), 6.0),
    (Gaussian(0, 1), Gaussian(2, 1), Countermonotone(), 64.0),
    *[(Gaussian(0, 1), Gaussian(2, 1), GaussianCopula(r), 32.0 * (1.0 - r))
      for r in (0.999, 0.8, 0.5, -0.8, -0.999)],
    (LocationScale(Pareto(5.0), 1.0, 1.0), Pareto(5.0), Independent(), 5.0 / 6.0),
    (LocationScale(Gaussian(0, 1), 2.0, 3.0), LocationScale(Gaussian(0, 1), 1.0, 1.0),
     Independent(), 90.0),
    # Equal-scale Gaussian translation: x - y is constant along the quantile
    # diagonal, so Q_x = -rho'(2) Z_1, Q_y = rho'(2) Z_2 and the variance is
    # 2 (1 - r) rho'(2)^2.  A (cost, coupling) pair stands in for the coupling.
    *[(Gaussian(0, 1), Gaussian(2, 1), (c, cp), 2.0 * (1.0 - r) * slope ** 2)
      for c, slope in TRANSLATION_SLOPES for cp, r in NORMAL_SCORE_CORRELATIONS],
])
def test_error_estimate_covers_closed_forms(F, G, cp, exact):
    c, cp = cp if isinstance(cp, tuple) else (P2, cp)
    r = sigma2(F, G, c, cp)
    assert abs(r.value - exact) <= r.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, exact)
    assert abs(r.value - exact) <= r.est_error + 1e-12 * max(exact, 1.0)


@pytest.mark.parametrize("c, slope", [TRANSLATION_SLOPES[1], TRANSLATION_SLOPES[3], (P2, 4.0)],
                         ids=["power3", "exppower1", "power2"])
@pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12])
def test_gaussian_translation_near_the_comonotone_limit(c, slope, gap):
    # sigma2 = 2 gap rho'(2)^2 is far below the tolerance's absolute floor.
    # The clamp's kinks leave the series a tail whose plain bound shrinks
    # only like r^K; the form in r^k - 1 needs one term.
    r = 1.0 - gap
    exact = 2.0 * (1.0 - r) * slope ** 2
    res = sigma2(Gaussian(0, 1), Gaussian(2, 1), c, GaussianCopula(r))
    assert abs(res.value - exact) <= res.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, exact)
    assert res.diagnostics["influence"]["cross"]["series_terms"] <= 2


@pytest.mark.parametrize("r", [1.0 - 1e-12, -(1.0 - 1e-12)])
def test_gaussian_translation_within_1e12_of_the_frechet_limits(r):
    # 2 (1 - r) rho'(2)^2 at the two ends: 1.6e-11 and 64 - 1.6e-11
    exact = 2.0 * (1.0 - r) * 4.0 ** 2
    res = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, GaussianCopula(r))
    assert abs(res.value - exact) <= res.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, exact)


#: Var of the influence functions of Pareto(p) against Exponential(1) under
#: power(2), by scipy.integrate.quad in x: A(X) = X^2 - 2p (X log X - X) for the
#: x side, B(Y) = 2p e^{Y/p} - Y^2 for the y side.
PARETO_EXPONENTIAL = [("x", 5.0, 0.6741898148148144), ("x", 7.0, 0.34187654320987676),
                      ("xy", 7.0, 4.371506172839418)]


@pytest.mark.parametrize("side, p, oracle", PARETO_EXPONENTIAL)
def test_pareto_exponential_variances_meet_their_oracles(side, p, oracle):
    # Pareto(5): the truncation-halving strips grew before they shrank and the
    # variance was called divergent; Pareto(7): the strips' extrapolation
    # residual was 110 times too small for the x side
    args = (Pareto(p), Exponential(1.0), P2)
    res = sigma2(*args, Independent()) if side == "xy" else sigma2_one_sample(*args, side)
    assert abs(res.value - oracle) <= res.est_error
    influence = res.diagnostics["influence"]
    # the right tail goes deeper than the bounded left one: Q_x grows like e^{(2/p) s}
    assert all(d["depth_right"] > d["depth_left"] for d in influence.values())


#: sigma^2 of Pareto(p) against Pareto(q) under power(2) and gauss(r), from
#: Mehler's series sum_k r^k alpha_k beta_k with alpha_k = E[A(X) h_k(Z)] by
#: scipy.integrate.quad in the normal score z (to |z| = 38, on log_ndtr), A and
#: B the closed-form influence functions, -(x^2 - 2 x^(a+1) / (a+1)) with
#: a = p / q, and 2 (y^(b+1) / (b+1) - y^2 / 2) with b = q / p; the variances
#: agree with tests/variance_oracles.json to 1e-15.
PARETO_COPULA = [(6.0, 8.0, 0.5, 0.029602731135231715), (10.0, 6.0, 0.5, 0.05648287478740808),
                 (10.0, 6.0, -0.7, 0.06617279329419978), (10.0, 6.0, 0.95, 0.029224883231971636)]


@pytest.mark.parametrize("p, q, r, oracle", PARETO_COPULA)
def test_pareto_pairs_under_a_gaussian_copula_meet_a_mehler_oracle(p, q, r, oracle):
    # the clamp columns' extrapolation left these 3-5 times their est_error off
    res = sigma2(Pareto(p), Pareto(q), P2, GaussianCopula(r))
    assert abs(res.value - oracle) <= res.est_error


def test_a_tail_too_near_the_frontier_names_its_side_and_margin():
    # margin 1/2 - 2/4.1 = 0.0122: the tail bound would need a depth past e^{-700}
    F = LocationScale(Pareto(4.1), 1.0, 1.0)
    with pytest.raises(NonconvergenceError, match="right tail .* margin m = 0.0122") as info:
        sigma2(F, Pareto(4.1), P2, Independent())
    assert not isinstance(info.value, HypothesisGateError)
    assert "divergent" not in str(info.value)


def test_a_reflected_law_takes_the_closed_form_depth():
    # Reflected(Gaussian) declares the constants of reflect's closed form, so
    # the gate sizes both tails and both halves take the depth of margin 1/2
    res = sigma2(Reflected(Gaussian(0, 1)), Gaussian(2, 1), P2, Independent())
    assert abs(res.value - 32.0) <= res.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, 32.0)
    assert res.diagnostics["gate"]["rule"].startswith("closed form")
    x = res.diagnostics["influence"]["x"]
    assert x["depth_right"] == x["depth_left"]


def test_a_tail_that_does_not_decay_raises():
    # Q(sigma) = -e^{s/2} + sqrt 2: Q^2 e^{-s} tends to 1 and never decays, so
    # the tail bound of margin 1/2 never shrinks and the depth runs into its cap
    def slopes(sigma):
        return 0.5 * np.exp(0.5 * (np.abs(sigma) + math.log(2.0)))[None]

    with pytest.raises(NonconvergenceError, match="tail bound needs depth s = .* > 700"):
        variance_module._influence_sigma2(slopes, True, None, DEFAULT_VARIANCE_CONFIG, [0.5, 0.5])


@pytest.mark.parametrize("kind", ["independent", "gauss(0.5)"])
@pytest.mark.parametrize("a", [1e100, 1e150])
def test_a_variance_past_the_doubles_says_it_overflows(a, kind):
    # the influence functions scale by a^2, so their squares leave the doubles;
    # the error said "nan" (gauss) or "depth s = inf" (independent) before
    F, G = LocationScale(Gaussian(0, 1), a, 0.0), LocationScale(Gaussian(2, 1), a, 0.0)
    with warnings.catch_warnings(), pytest.raises(NonconvergenceError, match="overflow") as info:
        warnings.simplefilter("error", RuntimeWarning)
        sigma2(F, G, P2, parse_coupling(kind))
    assert not re.search("nan|budget|frontier", str(info.value))


def test_the_series_bound_does_not_underflow_at_a_tiny_scale():
    # Scale equivariance: sigma2 at a common scale 1e-100 is 1e-300 times its
    # value at scale 1.  The Mehler truncation bound, formed as the square root
    # of a product of two variances of about 1e-300, underflowed to 0 and left
    # est_error 3.35e-302 against a miss of 6.68e-301.
    laws = [parse_distribution(f"locscale({law},1e-100,0)")
            for law in ("weibull(1.5)", "gaussian(1,2)")]
    cost, cp = PowerCost(1.5), GaussianCopula(0.5)
    res = sigma2(*laws, cost, cp)
    unit = sigma2(Weibull(1.5), Gaussian(1, 2), cost, cp)
    assert res.diagnostics["influence"]["cross"]["truncation_bound"] > 0.0
    assert abs(res.value - unit.value * 1e-300) <= res.est_error


def test_slopes_that_are_not_finite_raise_naming_the_tail():
    def slopes(sigma):
        return np.where(sigma < -20.0, np.nan, np.exp(-np.abs(sigma)))[None]

    with pytest.raises(NonconvergenceError, match="not finite near s = .* on the left tail"):
        variance_module._influence_sigma2(slopes, True, None, DEFAULT_VARIANCE_CONFIG, [0.5, 0.5])


@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("r", [0.999, -0.999, 0.9999])
def test_window_near_the_frechet_limits_returns_a_value(r, eps):
    # A window's kinks in the bulk leave Hermite coefficients that decay like
    # a power of k, so the series runs long here: thousands of terms at
    # r = 0.999 and eps = 0.2, where the 48-point inner rule returned 0.068436884
    res = sigma2_window(Gaussian(0, 1), Exponential(1.0), P2, GaussianCopula(r), eps)
    cross = res.diagnostics["influence"]["cross"]
    assert math.isfinite(res.value) and not cross["budget_exhausted"]
    assert cross["series_terms"] <= variance_module._SERIES_CAP
    assert res.est_error <= _tolerance(DEFAULT_VARIANCE_CONFIG, res.value)


@pytest.mark.parametrize("eps", [float(ndtr(-0.84375)), 0.05, 0.2],
                         ids=["Phi(-0.84375)", "0.05", "0.2"])
def test_a_window_near_r_one_approaches_the_comonotone_value_at_a_steady_slope(eps):
    # Near r = 1 the cross term takes its second Mehler form, whose weights
    # are r^k - 1.  d(r) = (sigma2(r) - sigma2_comonotone) / (1 - r) tends to
    # the slope at r = 1, so its step from 0.9999 to 0.99999 stays within
    # their error estimates plus its step from 0.999 to 0.9999.
    laws = (Gaussian(0, 1), Exponential(1.0), P2)
    co = sigma2_window(*laws, Comonotone(), eps)

    def slope(r):
        res = sigma2_window(*laws, GaussianCopula(r), eps)
        return (res.value - co.value) / (1 - r), (res.est_error + co.est_error) / (1 - r)

    (d3, _), (d4, err4), (d5, err5) = slope(0.999), slope(0.9999), slope(0.99999)
    assert abs(d5 - d4) <= err4 + err5 + abs(d4 - d3)


def test_series_past_its_cap_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(variance_module, "_SERIES_CAP", 40)
    with pytest.raises(NonconvergenceError, match="cross: series truncation .* after 40 terms"):
        sigma2_window(Gaussian(0, 1), Exponential(1.0), P2, GaussianCopula(0.999), 0.2)


def test_sigma2_refuses_when_its_panel_budget_runs_out(monkeypatch):
    # the budget is read where the mesh is refined, so patching it reaches sigma2 as it does exact_cost
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 20)
    with pytest.raises(NonconvergenceError, match=r"with \d+ panels \(panel budget exhausted\); "
                       "the largest part is the y panels"):
        sigma2(Weibull(1.5), Gaussian(1, 2), PowerCost(1.5), Independent())


@pytest.mark.parametrize("total, err, clamp", [(-1e-12, 1e-13, 1e-12), (-1e-6, 1e-13, None)])
def test_a_small_negative_variance_is_clamped_and_a_large_one_refused(monkeypatch, total, err, clamp):
    monkeypatch.setattr(variance_module, "_influence_sigma2", lambda *args: (total, err, {}))
    if clamp is None:
        with pytest.raises(NonconvergenceError, match="variance integral came out -1.000e-06 < -1e-08"):
            sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Independent())
        return
    res = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Independent())
    assert res.value == 0.0 and res.diagnostics["clamp"] == clamp and res.est_error == err + clamp


with open(os.path.join(os.path.dirname(__file__), "gauss_cross_oracles.json")) as _fh:
    GAUSS_CROSS_ORACLES = json.load(_fh)["cases"]


def _gauss_cross_case(row):
    return (parse_distribution(row["F"]), parse_distribution(row["G"]), parse_cost(row["cost"]),
            GaussianCopula(row["r"]))


def _gauss_cross_sigma2(row):
    if row["window_score"] is None:
        return sigma2(*_gauss_cross_case(row))
    return sigma2_window(*_gauss_cross_case(row), float(ndtr(-row["window_score"])))


@pytest.mark.parametrize("row", GAUSS_CROSS_ORACLES, ids=[
    f"{r['G']}-{r['cost']}-{r['r']}" + ("" if r["window_score"] is None else "-window")
    for r in GAUSS_CROSS_ORACLES])
def test_gaussian_copula_matches_recorded_brute_force_sums(row):
    # gauss_cross_oracles.py sums the variance on grids of normal scores, with
    # no part of sigma2's mesh, strips, clamps or series.  Before the Mehler
    # series the exppower(0.5) case, whose slope is singular where the
    # quantiles cross, came out 2.2e-4 low, 49x its est_error: the inner rule
    # could not resolve the cusp of Q_y.  The windows at r = +-0.999 have
    # kinks in the bulk, whose Hermite coefficients decay slowly
    res = _gauss_cross_sigma2(row)
    oracle = row["value"]
    assert row["grid_error"] < 1e-2 * _tolerance(DEFAULT_VARIANCE_CONFIG, oracle)
    assert abs(res.value - oracle) <= res.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, oracle)


@pytest.mark.parametrize("r", [0.5, -0.3])
def test_logpower_gaussian_copula_is_finite_and_within_its_error_of_the_oracle(r):
    # Before the Mehler series, r = -0.3 raised on sign-changing endpoint
    # strips of the cross integral, and r = 0.5 missed the brute-force value by
    # about 3x est_error, the inner rule's error not being part of it
    row, = (row for row in GAUSS_CROSS_ORACLES
            if row["cost"] == "logpower(0.5)" and row["r"] == r)
    res = _gauss_cross_sigma2(row)
    assert math.isfinite(res.value)
    assert not any(d["budget_exhausted"] for d in res.diagnostics["influence"].values())
    assert abs(res.value - row["value"]) <= res.est_error


with open(variance_oracles.RECORDED) as _fh:
    VARIANCE_ORACLES = json.load(_fh)

#: eps = Phi(-151/128) = 0.1190: of the windows that the Gaussian-copula
#: oracle's score grids hold, the one next to the default trim 5000^(-1/4) = 0.1189.
WINDOW_SCORE = 151 / 128

#: (F, G, cost, coupling, window score or None, closed form or None for a
#: recorded row).  Equal-scale Gaussian translations have the closed form
#: 2 (1 - r) rho'(2)^2.
ORACLE_CASES = [
    pytest.param("gaussian(0,1)", "gaussian(2,1)", "power(2)", "gauss(0.5)", None, 16.0,
                 id="N(0,1)-N(2,1)-power(2)-gauss(0.5)"),
    pytest.param("gaussian(0,1)", "exponential(1)", "power(2)", "gauss(0.5)", None, None,
                 id="N(0,1)-Exp(1)-power(2)-gauss(0.5)"),
    pytest.param("gaussian(0,1)", "gaussian(3,2)", "power(3)", "countermonotone", None, None,
                 id="N(0,1)-N(3,2)-power(3)-countermonotone"),
    pytest.param("gaussian(0,1)", "gaussian(2,1)", "logpower(0.5)", "independent", None,
                 2.0 * TRANSLATION_SLOPES[2][1] ** 2, id="N(0,1)-N(2,1)-logpower(0.5)-independent"),
    pytest.param("weibull(2)", "locscale(weibull(2),1,1)", "power(2)", "gauss(-0.3)", None, None,
                 id="Weibull(2)-1+Weibull(2)-power(2)-gauss(-0.3)"),
    pytest.param("locscale(pareto(5),1,1)", "pareto(5)", "power(2)", "countermonotone", None,
                 None, id="1+Pareto(5)-Pareto(5)-power(2)-countermonotone"),
    pytest.param("gaussian(0,1)", "exponential(1)", "power(3)", "comonotone", None, None,
                 id="N(0,1)-Exp(1)-power(3)-comonotone"),
    pytest.param("gaussian(0,1)", "gaussian(3,2)", "logpower(0.5)", "comonotone", None, None,
                 id="N(0,1)-N(3,2)-logpower(0.5)-comonotone"),
    *[pytest.param("gaussian(0,1)", "exponential(1)", "power(2)", cp, WINDOW_SCORE, None,
                   id=f"window-N(0,1)-Exp(1)-power(2)-{cp}")
      for cp in ("independent", "gauss(0.5)", "comonotone", "countermonotone")],
]


def _recorded_oracle(f, g, c, cp, score):
    """A gauss(r) case's row of gauss_cross_oracles.json, any other's of variance_oracles.json."""
    if cp.startswith("gauss("):
        key, rows = (f, g, c, float(cp[6:-1]), score), GAUSS_CROSS_ORACLES
        fields = ("F", "G", "cost", "r", "window_score")
    else:
        key, rows = (f, g, c, cp, score), VARIANCE_ORACLES["rows"] + VARIANCE_ORACLES["cases"]
        fields = ("F", "G", "cost", "kind", "window_score")
    row, = (row for row in rows if tuple(row.get(k) for k in fields) == key)
    return row["value"]


@pytest.mark.parametrize("f, g, c, cp, score, oracle", ORACLE_CASES)
def test_sigma2_meets_its_oracle(f, g, c, cp, score, oracle):
    if oracle is None:
        oracle = _recorded_oracle(f, g, c, cp, score)
    args = (parse_distribution(f), parse_distribution(g), parse_cost(c), parse_coupling(cp))
    if score is None:
        value = sigma2(*args).value
    else:
        value = sigma2_window(*args, float(ndtr(-score)),
                              QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6)).value
    assert rel(value, oracle) <= 1e-5


@pytest.mark.parametrize("cp", [Independent(), GaussianCopula(0.5), Comonotone(),
                                Countermonotone()])
def test_repeated_calls_are_bit_identical(cp):
    a = sigma2(Gaussian(0, 1), Exponential(1.0), P2, cp)
    b = sigma2(Gaussian(0, 1), Exponential(1.0), P2, cp)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("cp, names", [
    (Independent(), {"x", "y"}),
    (GaussianCopula(0.5), {"x", "y", "cross"}),
    (Comonotone(), {"x+y"}),
    (Countermonotone(), {"x+y"}),
])
def test_benchmark_pair_evaluation_budget(cp, names):
    # The counts are deterministic; the tripwire sits about twice above them.
    # The double-integral route spent millions of kernel evaluations here.
    influence = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, cp).diagnostics["influence"]
    assert set(influence) == names
    for d in influence.values():
        assert set(d) >= {"panels", "evaluations", "depth_left", "depth_right",
                          "tail_bound_left", "tail_bound_right", "budget_exhausted"}
        assert d["evaluations"] <= 3000
        assert d["budget_exhausted"] is False


def _numeric_leaves(tree):
    if isinstance(tree, dict):
        for value in tree.values():
            yield from _numeric_leaves(value)
    else:
        yield tree


@pytest.mark.parametrize("cp", [Independent(), GaussianCopula(0.5), Comonotone(),
                                Countermonotone()])
def test_diagnostics_hold_plain_python_numbers(cp):
    diagnostics = dict(sigma2(Gaussian(0, 1), Exponential(1.0), P2, cp).diagnostics)
    # the gate's witness names its side, marginal and rule in words
    gate = diagnostics.pop("gate")
    assert {type(value) for value in gate.values()} == {str, float}
    assert {type(leaf) for leaf in _numeric_leaves(diagnostics)} <= {float, int, bool}


@pytest.mark.parametrize("window", [None, 0.05])
def test_cross_term_counts_its_series_terms(monkeypatch, window):
    drawn = []  # per round, the sizes of the blocks of terms drawn
    hermite_blocks = variance_module._hermite_blocks

    def counted(*args):
        drawn.append([])
        for k, H in hermite_blocks(*args):
            drawn[-1].append(k.size)
            yield k, H

    monkeypatch.setattr(variance_module, "_hermite_blocks", counted)
    args = (Gaussian(0, 1), Gaussian(2, 1), P2)
    runs = [sigma2(*args, cp) if window is None else sigma2_window(*args, cp, window)
            for cp in (GaussianCopula(0.5), Independent())]
    gauss, independent = (res.diagnostics["influence"] for res in runs)
    for name in ("x", "y"):
        assert not {"series_terms", "truncation_bound", "inner_evaluations"} & set(gauss[name])
    cross = gauss["cross"]
    assert "inner_evaluations" not in cross
    # the last round's series ends in its last block
    assert sum(drawn[-1]) - drawn[-1][-1] < cross["series_terms"] <= sum(drawn[-1])
    assert 0.0 < cross["truncation_bound"] <= cross["est_error"]
    # tripwire: the series is short here, and the cross term costs few extra slopes
    assert cross["series_terms"] <= 40
    assert cross["evaluations"] <= 1.5 * independent["x"]["evaluations"]


# --- one-sample variance ---------------------------------------------------------


@pytest.mark.parametrize("side", ["x", "y"])
def test_one_sample_halves(side):
    r = sigma2_one_sample(Gaussian(0, 1), Gaussian(2, 1), P2, side)
    assert rel(r.value, 16.0) < 1e-3
    assert r.diagnostics["side"] == side
    assert r.diagnostics["gate"]["status"] == "pass"
    assert r.diagnostics["gate"]["marginal"] == side


def test_one_sample_gate_reads_only_its_own_marginal():
    # lambda = 1/4 on the Pareto(4) lead: delta = 1/4 fails the x side, while
    # the exponential's delta = 0 passes the y side, whose Q_y ~ (1-u)^(-1/4)
    F, G = Pareto(4.0), Exponential(10.0)
    with pytest.raises(HypothesisGateError, match="marginal x"):
        sigma2_one_sample(F, G, P2, "x")
    r = sigma2_one_sample(F, G, P2, "y")
    assert r.value > 0.0
    assert r.diagnostics["gate"] == {"status": "pass", "side": "right", "marginal": "y",
                                     "margin": 0.25, "rule": "closed form: lambda + delta = "
                                     "0.25 + 0 < 1/2"}


def test_one_sample_sides_add_up_to_independent_total():
    sx = sigma2_one_sample(Gaussian(0, 1), Gaussian(1, 2), P2, "x").value
    sy = sigma2_one_sample(Gaussian(0, 1), Gaussian(1, 2), P2, "y").value
    total = sigma2(Gaussian(0, 1), Gaussian(1, 2), P2, Independent()).value
    assert rel(sx + sy, total) < 1e-3


def test_one_sample_rejects_bad_side():
    with pytest.raises(ValueError, match="side"):
        sigma2_one_sample(Gaussian(0, 1), Gaussian(2, 1), P2, "z")


def test_one_sample_names_its_term_by_its_side(monkeypatch):
    # the one summed term is named by the side, in the diagnostics and in a
    # refusal; side "y" named it "x" before
    F, G, cost = Weibull(1.5), LocationScale(Gaussian(0, 1), 2.0, 1.0), PowerCost(1.5)
    for side in ("x", "y"):
        assert list(sigma2_one_sample(F, G, cost, side).diagnostics["influence"]) == [side]
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 20)
    with pytest.raises(NonconvergenceError, match=r"\(panel budget exhausted\); "
                       "the largest part is the y panels$"):
        sigma2_one_sample(F, G, cost, "y")


def test_the_tails_meet_warning_names_the_callers_line():
    F, G = Gaussian(0, 1), Gaussian(0, 1.0000000001)
    for call in (lambda: sigma2(F, G, P2, Independent()), lambda: sigma2_one_sample(F, G, P2, "y")):
        with pytest.warns(UserWarning, match="coincide") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


def test_a_cost_outside_the_gate_table_is_refused():
    # the gate has no growth rate for it, so no tail depth: no depth is guessed,
    # and exact_cost refuses it with the same error, the right side first
    texts = set()
    for call in (lambda: sigma2(Gaussian(0, 1), Gaussian(2, 1), _FlatCost(), Independent()),
                 lambda: sigma2_one_sample(Gaussian(0, 1), Gaussian(2, 1), _FlatCost(), "x"),
                 lambda: exact_cost(Gaussian(0, 1), Gaussian(2, 1), _FlatCost())):
        with pytest.raises(UnsupportedCostError, match="_FlatCost is outside the closed-form table") as info:
            call()
        texts.add(str(info.value))
    assert texts == {"the tail gate cannot size the right tail: _FlatCost is outside the "
                     "closed-form table: no asymptotic profile l for its slope"}


# --- independent squared distance, one sample at a time --------------------------


@pytest.mark.parametrize("F, G, target", GAUSSIAN_PAIRS)
def test_w2_independent_gaussian_pairs(F, G, target):
    """Each half of the independent W2 variance has its own Gaussian closed form.

    With quantiles m + s z and m' + t z, Q_x = 2 s ((m - m') Z + (s - t) Z^2 / 2),
    so the x half is 4 s^2 ((m - m')^2 + (s - t)^2 / 2) and the y half swaps s for t.
    """
    shape = (F.mean - G.mean) ** 2 + (F.sd - G.sd) ** 2 / 2.0
    halves = {side: sigma2_one_sample(F, G, P2, side) for side in ("x", "y")}
    for side, scale in (("x", F.sd), ("y", G.sd)):
        exact = 4.0 * scale ** 2 * shape
        assert abs(halves[side].value - exact) <= halves[side].est_error + 1e-9 * exact
    assert rel(halves["x"].value + halves["y"].value, target) < 1e-9


def test_w2_independent_equal_marginals_warns_to_zero():
    for side in ("x", "y"):
        with pytest.warns(UserWarning, match="coincide"):
            r = sigma2_one_sample(Gaussian(0, 1), Gaussian(0, 1), P2, side)
        assert r.value == 0.0


# --- three routes to the independent squared-distance variance ------------------


@pytest.mark.parametrize("F, G, target", GAUSSIAN_PAIRS)
def test_three_routes_agree(F, G, target):
    """Two-sample quadrature, the two one-sample halves and the exact Gaussian formula coincide."""
    general = sigma2(F, G, P2, Independent()).value
    halves = sum(sigma2_one_sample(F, G, P2, side).value for side in ("x", "y"))
    exact = sigma2_gaussian(F, G).value
    assert exact == target
    assert rel(general, exact) < 1e-3
    assert rel(halves, exact) < 1e-3


# --- location-scale closed form ---------------------------------------------------


def test_location_scale_pure_shift():
    r = sigma2_location_scale(Gaussian(0, 1), 1.0, 0.0, 1.0, 2.0)
    assert r.method == "closed_form_location_scale"
    assert abs(r.value - 32.0) < 1e-6


def test_location_scale_shift_and_scale():
    r = sigma2_location_scale(Gaussian(0, 1), 2.0, 3.0, 1.0, 1.0)
    assert abs(r.value - 90.0) < 1e-6
    # var(X^2) = E X^4 - (E X^2)^2 = 3 - 1 for the unit Gaussian generator
    assert abs(r.diagnostics["v4"] - 2.0) < 1e-8


def test_location_scale_identical_parameters_degenerate():
    assert sigma2_location_scale(Gaussian(0, 1), 1.5, -1.0, 1.5, -1.0).value == 0.0


def test_location_scale_rejects_asymmetric_generator():
    with pytest.raises(ValueError, match="symmetric"):
        sigma2_location_scale(Exponential(1.0), 1.0, 0.0, 1.0, 1.0)


def test_location_scale_rejects_shifted_generator():
    with pytest.raises(ValueError, match="symmetric"):
        sigma2_location_scale(Gaussian(1, 1), 1.0, 0.0, 1.0, 1.0)


def test_location_scale_rejects_non_unit_variance():
    with pytest.raises(ValueError, match="unit variance"):
        sigma2_location_scale(Gaussian(0, 2), 1.0, 0.0, 1.0, 1.0)


def test_location_scale_rejects_nonpositive_scale():
    with pytest.raises(ValueError, match="positive"):
        sigma2_location_scale(Gaussian(0, 1), 0.0, 0.0, 1.0, 1.0)


def test_gaussian_closed_form_values():
    for F, G, target in GAUSSIAN_PAIRS:
        assert sigma2_gaussian(F, G).value == target
    assert sigma2_gaussian(Gaussian(0, 1), Gaussian(0, 1)).value == 0.0


def test_gaussian_closed_form_rejects_other_families():
    with pytest.raises(TypeError, match="Gaussian"):
        sigma2_gaussian(Gaussian(0, 1), Exponential(1.0))


# --- plug-in estimation ------------------------------------------------------------


def test_plug_in_tracks_trimmed_window_at_default_trim():
    # the estimator's default trim schedule n^(-1/4), passed as the plug-in window
    n = 10_000
    eps = n ** -0.25
    target = sigma2_window(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(), eps).value
    hits = 0
    for seed in range(20):
        s = sample_pairs(Independent(), Gaussian(0, 1), Gaussian(2, 1), n, seed)
        r = plug_in_sigma2(s, P2, eps=eps)
        assert r.method == "plug_in"
        assert r.diagnostics["eps"] == pytest.approx(eps)
        hits += rel(r.value, target) <= 0.10
    assert hits >= 16


# N(0,1) against N(2,1) under power(2): sigma2 = 32 (1 - r) under gauss(r)
PLUG_IN_CASES = [(Independent(), 32.0), (GaussianCopula(0.5), 16.0), (Countermonotone(), 64.0)]


@pytest.mark.parametrize("cp, target", PLUG_IN_CASES)
def test_plug_in_is_unbiased_for_the_untrimmed_variance(cp, target):
    values = [plug_in_sigma2(sample_pairs(cp, Gaussian(0, 1), Gaussian(2, 1), 5000, seed),
                             P2).value for seed in range(200)]
    assert rel(float(np.mean(values)), target) <= 0.02


@pytest.mark.parametrize("cp", [cp for cp, _ in PLUG_IN_CASES])
def test_plug_in_window_matches_sigma2_window(cp):
    # A 1% bound: at the default n^(-1/4) window a kernel-density plug-in is
    # biased upward by about 2.4% on all three couplings.
    n = 5000
    eps = n ** -0.25
    target = sigma2_window(Gaussian(0, 1), Gaussian(2, 1), P2, cp, eps).value
    values = [plug_in_sigma2(sample_pairs(cp, Gaussian(0, 1), Gaussian(2, 1), n, seed),
                             P2, eps=eps).value for seed in range(200)]
    assert rel(float(np.mean(values)), target) <= 0.01


def test_plug_in_interval_has_nominal_coverage():
    cp, n = GaussianCopula(0.5), 5000
    w = exact_cost(Gaussian(0, 1), Gaussian(2, 1), P2)
    hits = 0
    for seed in range(400):
        s = sample_pairs(cp, Gaussian(0, 1), Gaussian(2, 1), n, seed)
        lo, hi = confidence_interval(empirical_cost(s, P2), plug_in_sigma2(s, P2).value, n)
        hits += lo <= w <= hi
    assert 0.93 <= hits / 400 <= 0.97


def test_plug_in_ignores_the_order_of_tied_values():
    s = sample_pairs(GaussianCopula(0.5), Gaussian(0, 1), Gaussian(2, 1), 2000, 0)
    xs = np.round(s.xs, 1)  # about 60 distinct values, most of them tied
    assert np.unique(xs).size < 100
    perm = np.random.default_rng(1).permutation(s.n)
    for eps in (0.0, 0.1):
        base = plug_in_sigma2(PairedSample(xs, s.ys), P2, eps=eps).value
        assert plug_in_sigma2(PairedSample(xs[perm], s.ys[perm]), P2, eps=eps).value == base


@pytest.mark.parametrize("c", [P2, PowerCost(3.0), LogPowerCost(0.5), ExpPowerCost(0.5)],
                         ids=["power2", "power3", "logpower", "exppower"])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_plug_in_equals_a_stable_sort_reference_on_ties_and_signed_zeros(c, eps):
    xs, ys = tied_sample()
    # the default argsort orders these ties differently from a stable one
    assert not np.array_equal(np.argsort(ys), np.argsort(ys, kind="stable"))
    got = plug_in_sigma2(PairedSample(xs, ys), c, eps=eps).value
    assert same_bits(got, plug_in_sigma2_ref(xs, ys, c, eps))


@pytest.mark.parametrize("cp, G, target", [
    (Independent(), Gaussian(2, 1), 32.0),
    (Comonotone(), Gaussian(1, 2), 6.0),
])
def test_plug_in_approaches_full_value_with_narrow_trim(cp, G, target):
    hits = 0
    for seed in range(20):
        s = sample_pairs(cp, Gaussian(0, 1), G, 10_000, seed)
        hits += rel(plug_in_sigma2(s, P2, eps=0.01).value, target) <= 0.25
    assert hits >= 16


def test_plug_in_degenerate_comonotone_pair_is_near_zero():
    # Y = X + 2 exactly, so the population variance is 0; what is left of the
    # plug-in is rounding, far below the nondegenerate scale.
    for seed in range(20):
        s = sample_pairs(Comonotone(), Gaussian(0, 1), Gaussian(2, 1), 10_000, seed)
        assert plug_in_sigma2(s, P2).value <= 0.02


def test_plug_in_is_deterministic():
    s = sample_pairs(Independent(), Gaussian(0, 1), Gaussian(2, 1), 500, 3)
    assert plug_in_sigma2(s, P2).value == plug_in_sigma2(s, P2).value


def test_plug_in_rejects_small_samples():
    s = sample_pairs(Independent(), Gaussian(0, 1), Gaussian(2, 1), 49, 0)
    with pytest.raises(ValueError, match="50"):
        plug_in_sigma2(s, P2)


def test_plug_in_rejects_constant_column():
    s = PairedSample(np.ones(100), np.linspace(0.0, 1.0, 100))
    with pytest.raises(DegenerateSampleError, match="constant"):
        plug_in_sigma2(s, P2)


@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plug_in_rejects_non_finite_values(column, bad, recwarn):
    cols = {"x": np.linspace(-1.0, 1.0, 100), "y": np.linspace(0.5, 3.0, 100) ** 2}
    cols[column][17] = bad
    with pytest.raises(ValueError, match=f"^{column} column holds a non-finite value"):
        plug_in_sigma2(PairedSample(cols["x"], cols["y"]), P2)
    assert not recwarn.list


@pytest.mark.parametrize("kwargs", [{"eps": -0.1}, {"eps": 0.5}])
def test_plug_in_rejects_bad_tuning(kwargs):
    s = sample_pairs(Independent(), Gaussian(0, 1), Gaussian(2, 1), 200, 0)
    with pytest.raises(ValueError):
        plug_in_sigma2(s, P2, **kwargs)


def test_plug_in_needs_a_gradient():
    s = sample_pairs(Independent(), Gaussian(0, 1), Gaussian(2, 1), 200, 0)
    with pytest.raises(UnsupportedCostError):
        plug_in_sigma2(s, QuantileCost(0.5))


# --- confidence intervals -----------------------------------------------------------


def test_interval_collapses_at_zero_variance():
    assert confidence_interval(1.0, 0.0, 17) == (1.0, 1.0)


def test_interval_95_matches_table_value():
    lo, hi = confidence_interval(0.0, 1.0, 100, level=0.95)
    assert hi == -lo
    assert abs(hi - 0.196) < 1e-4  # z = 1.95996 against the tabulated 1.96


def test_interval_50_matches_table_value():
    lo, hi = confidence_interval(5.0, 4.0, 4, level=0.5)
    assert lo == pytest.approx(5.0 - 0.6745, abs=1e-4)
    assert hi == pytest.approx(5.0 + 0.6745, abs=1e-4)


def test_interval_widens_with_level():
    w90 = np.diff(confidence_interval(0.0, 2.0, 50, level=0.90))
    w99 = np.diff(confidence_interval(0.0, 2.0, 50, level=0.99))
    assert w99 > w90


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.7])
def test_interval_rejects_bad_level(bad):
    with pytest.raises(ValueError, match="level"):
        confidence_interval(0.0, 1.0, 10, level=bad)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_interval_rejects_a_non_finite_point(point):
    # a NaN point once gave the interval (nan, nan)
    with pytest.raises(ValueError, match="point estimate must be finite"):
        confidence_interval(point, 1.0, 10)


@pytest.mark.parametrize("n", [10.5, math.nan, math.inf])
def test_interval_rejects_an_n_that_is_not_a_whole_number(n):
    with pytest.raises(ValueError, match="whole number"):
        confidence_interval(0.0, 1.0, n)


def test_interval_rejects_bad_inputs():
    with pytest.raises(ValueError, match="pair"):
        confidence_interval(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        confidence_interval(0.0, -1.0, 10)
