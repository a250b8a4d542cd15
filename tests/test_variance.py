import json
import math

import numpy as np
import pytest
from scipy.special import ndtri, roots_hermitenorm, roots_legendre

import wcost.variance as variance_module
from wcost import parse_cost, parse_distribution
from wcost.costs import Cost, ExpPowerCost, LogPowerCost, PowerCost, QuantileCost
from wcost.coupling import (
    Comonotone,
    Countermonotone,
    GaussianCopula,
    Independent,
    sample_pairs,
)
from wcost.distributions import Exponential, Gaussian, LocationScale, Pareto, Weibull
from wcost.errors import (DegenerateSampleError, HypothesisGateError, NonconvergenceError,
                         UnsupportedCostError)
from wcost.estimate import PairedSample, empirical_cost, exact_cost
from wcost.quadrature import (
    QuadratureConfig,
    _tolerance,
    graded_breaks,
    integrate_2d,
    integrate_square_open,
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
    variance_kernel,
)

import guard_matrix
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


# --- kernel --------------------------------------------------------------------


def test_kernel_is_symmetric_pointwise():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.01, 0.99, 200)
    v = rng.uniform(0.01, 0.99, 200)
    for cp in (Independent(), Comonotone(), GaussianCopula(0.6)):
        k = variance_kernel(Gaussian(0, 1), Gaussian(1, 2), P2, cp)
        a, b = np.asarray(k(u, v)), np.asarray(k(v, u))
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_kernel_vanishes_for_flat_cost():
    k = variance_kernel(Gaussian(0, 1), Gaussian(2, 1), _FlatCost(), Independent())
    assert np.all(k(np.array([0.2, 0.5]), np.array([0.7, 0.9])) == 0.0)


# --- two-sample quadrature -----------------------------------------------------


@pytest.mark.parametrize("F, G, target", GAUSSIAN_PAIRS)
def test_gaussian_pairs_independent(F, G, target):
    r = sigma2(F, G, P2, Independent())
    assert r.method == "quadrature"
    assert rel(r.value, target) < 1e-3
    assert r.est_error >= 0.0
    assert r.diagnostics["clamp"] <= 1e-8


def test_flat_cost_gives_zero():
    r = sigma2(Gaussian(0, 1), Gaussian(2, 1), _FlatCost(), Independent())
    assert r.value == 0.0


def test_quantile_cost_is_rejected():
    with pytest.raises(UnsupportedCostError, match="gradient"):
        sigma2(Gaussian(0, 1), Gaussian(2, 1), QuantileCost(0.5), Independent())


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


@pytest.mark.parametrize("r_copula, target", [(0.8, 6.4), (-0.8, 57.6)])
def test_gaussian_copula_closed_form(r_copula, target):
    # Equal-sd Gaussian marginals, tau = -2 constant: the cross integral reduces
    # to the correlation of the copula's normal scores, so sigma2 = 32 (1 - r).
    r = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, GaussianCopula(r_copula))
    assert rel(r.value, target) < 1e-3


def test_inner_rules_equal_scipy_bit_for_bit():
    # The Gaussian-copula cross term takes its rules from tables, so that no
    # call loads scipy.linalg; they must be scipy's rules to the last bit.
    # same_bits compares shapes too, so each table has _INNER_ORDER entries.
    x, w = roots_hermitenorm(variance_module._INNER_ORDER)
    assert same_bits(variance_module._HERMITE_X, x)
    assert same_bits(variance_module._HERMITE_W, w / math.sqrt(2.0 * math.pi))
    x, w = roots_legendre(variance_module._INNER_ORDER)
    assert same_bits(variance_module._LEGENDRE_X, x)
    assert same_bits(variance_module._LEGENDRE_W, w)


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
    assert set(r.diagnostics["tail_guard"]) == {"right_x", "right_y"}


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


# --- tail guard against its recorded verdicts ----------------------------------

with open(guard_matrix.RECORDED) as fh:
    RECORDED_GUARD = json.load(fh)


@pytest.mark.parametrize("config", sorted(guard_matrix.CONFIGS))
def test_tail_guard_matches_recorded_verdicts(config):
    q = guard_matrix.CONFIGS[config]
    rows = [row for row in RECORDED_GUARD if row["config"] == config]
    assert len(rows) == len(guard_matrix.TRIPLES)
    for row in rows:
        triple = (row["F"], row["G"], row["cost"])
        got = guard_matrix.verdict(triple, q)
        if triple in guard_matrix.OVERFLOW:
            # recorded as passes with an overflowed J; such a J now fails the gate
            assert row["pass"] and not got["pass"], triple
            assert got["error"] == "HypothesisGateError", triple
            continue
        assert got["pass"] == row["pass"], triple
        if row["pass"]:
            assert got["J"].keys() == row["J"].keys(), triple
            for key, ref in row["J"].items():
                assert rel(got["J"][key], ref) <= 1e-6, (triple, key)


@pytest.mark.parametrize("F, G, c", guard_matrix.OVERFLOW)
def test_overflowed_guard_integral_fails_the_gate(F, G, c):
    with pytest.raises(HypothesisGateError, match="tail hypothesis fails on the right side"):
        sigma2(parse_distribution(F), parse_distribution(G), parse_cost(c), Independent())


def test_tail_guard_evaluates_each_integral_in_one_call(monkeypatch):
    calls = []
    rho_prime, guard_integral = PowerCost.rho_prime, variance_module._slope_tail_integral

    def counted(self, t):
        calls[-1].append(np.size(t))
        return rho_prime(self, t)

    def per_integral(*args):
        calls.append([])
        return guard_integral(*args)

    monkeypatch.setattr(PowerCost, "rho_prime", counted)
    monkeypatch.setattr(variance_module, "_slope_tail_integral", per_integral)
    guard = variance_module._tail_guard(Gaussian(0, 1), Gaussian(2, 1), P2,
                                        DEFAULT_VARIANCE_CONFIG, ("x", "y"))
    assert len(calls) == len(guard) == 4
    for sizes in calls:
        assert 1 <= len(sizes) <= 2 and sum(sizes) <= 600, sizes


# --- influence functions against the two-dimensional route ---------------------

ORACLE_CASES = [
    (Gaussian(0, 1), Gaussian(2, 1), P2, GaussianCopula(0.5)),
    (Gaussian(0, 1), Exponential(1.0), P2, GaussianCopula(0.5)),
    (Gaussian(0, 1), Gaussian(3, 2), PowerCost(3.0), Countermonotone()),
    (Gaussian(0, 1), Gaussian(2, 1), LogPowerCost(0.5), Independent()),
    (Weibull(2.0), LocationScale(Weibull(2.0), 1.0, 1.0), P2, GaussianCopula(-0.3)),
    (LocationScale(Pareto(5.0), 1.0, 1.0), Pareto(5.0), P2, Countermonotone()),
    (Gaussian(0, 1), Exponential(1.0), PowerCost(3.0), Comonotone()),
    (Gaussian(0, 1), Gaussian(3, 2), LogPowerCost(0.5), Comonotone()),
]


@pytest.mark.parametrize("F, G, c, cp", ORACLE_CASES)
def test_influence_route_matches_the_double_integral(F, G, c, cp):
    oracle, _, _ = integrate_square_open(variance_kernel(F, G, c, cp), DEFAULT_VARIANCE_CONFIG)
    assert rel(sigma2(F, G, c, cp).value, oracle) <= 1e-5


@pytest.mark.parametrize("cp", [Independent(), GaussianCopula(0.5), Comonotone(),
                                Countermonotone()])
def test_window_variance_matches_the_double_integral_over_the_window(cp):
    eps = 5000 ** -0.25
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6)
    value = sigma2_window(Gaussian(0, 1), Exponential(1.0), P2, cp, eps, cfg).value
    assert rel(value, _window_population_value(Gaussian(0, 1), Exponential(1.0), cp, eps)) <= 1e-5


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
        assert set(d) >= {"panels", "evaluations", "truncation_levels",
                          "extrapolation_residual", "budget_exhausted"}
        assert d["evaluations"] <= 3000
        assert d["budget_exhausted"] is False


# --- one-sample variance ---------------------------------------------------------


@pytest.mark.parametrize("side", ["x", "y"])
def test_one_sample_halves(side):
    r = sigma2_one_sample(Gaussian(0, 1), Gaussian(2, 1), P2, side)
    assert rel(r.value, 16.0) < 1e-3
    assert r.diagnostics["side"] == side


def test_one_sample_sides_add_up_to_independent_total():
    sx = sigma2_one_sample(Gaussian(0, 1), Gaussian(1, 2), P2, "x").value
    sy = sigma2_one_sample(Gaussian(0, 1), Gaussian(1, 2), P2, "y").value
    total = sigma2(Gaussian(0, 1), Gaussian(1, 2), P2, Independent()).value
    assert rel(sx + sy, total) < 1e-3


def test_one_sample_rejects_bad_side():
    with pytest.raises(ValueError, match="side"):
        sigma2_one_sample(Gaussian(0, 1), Gaussian(2, 1), P2, "z")


def test_one_sample_flat_cost_gives_zero():
    r = sigma2_one_sample(Gaussian(0, 1), Gaussian(2, 1), _FlatCost(), "x")
    assert r.value == 0.0


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


def _window_population_value(F, G, cp, eps):
    """Population variance integral restricted to (eps, 1-eps)^2.

    The two-dimensional reference for the variance of the estimator trimmed to
    that window.
    """
    kernel = variance_kernel(F, G, P2, cp)
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6)
    br = graded_breaks(eps, 1.0 - eps)
    value, _ = integrate_2d(kernel, (eps, 1.0 - eps), (eps, 1.0 - eps), cfg,
                            xbreaks=br, ybreaks=br)
    return value


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


def test_interval_rejects_bad_inputs():
    with pytest.raises(ValueError, match="pair"):
        confidence_interval(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        confidence_interval(0.0, -1.0, 10)
