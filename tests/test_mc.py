"""Monte Carlo harness tests.

Distributional thresholds (KS, var(z), coverage) were frozen from an
oversized calibration run recorded in scratch/mc_calibration.log; they are
descriptive desk-scale bounds, not formal test levels.
"""

import functools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import skew

from wcost.costs import PowerCost
from wcost.coupling import Comonotone, Countermonotone, GaussianCopula, Independent, sample_pairs
from wcost.distributions import Exponential, Gaussian, LocationScale, Pareto
from wcost.errors import DegenerateSampleError, NonconvergenceError
from wcost import mc
from wcost.estimate import empirical_cost, exact_cost
from wcost.mc import (
    MCConfig,
    MCReport,
    compare_trimmed,
    ks_statistic,
    replicate_seed,
    run_clt_experiment,
    run_consistency_sweep,
    write_standardized_csv,
)
from wcost.variance import confidence_interval

from stable_sort_reference import (empirical_cost_ref, plug_in_sigma2_ref, same_bits,
                                   trimmed_cost_ref)

P2 = PowerCost(2.0)

# calibration-frozen smoke-scale bounds (n=1500, R=400; see module docstring)
SMOKE_KS = 0.09
SMOKE_MEAN = 0.12
SMOKE_VAR_DEV = 0.15
SMOKE_COVERAGE = (0.92, 0.98)


def smoke_config(**overrides):
    base = dict(F=Gaussian(0, 1), G=Gaussian(2, 1), c=P2, coupling=Independent(),
                n=1500, replicates=400, seed=0)
    base.update(overrides)
    return MCConfig(**base)


@pytest.fixture(scope="module")
def smoke_report():
    return run_clt_experiment(smoke_config(), threads=2)


@pytest.fixture(scope="module")
def smoke_comparison():
    return compare_trimmed(smoke_config(), threads=2)


# --- configuration validation ---------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"n": 9},
    {"replicates": 99},
    {"seed": -1},
    {"trim_eps": 0.5},
    {"trim_eps": -0.01},
    {"sigma_source": "bootstrap"},
])
def test_mcconfig_rejects_bad_fields(overrides):
    with pytest.raises(ValueError):
        smoke_config(**overrides)


def test_trim_schedule_resolution():
    assert smoke_config(n=10_000).resolved_trim_eps == pytest.approx(0.1)
    assert smoke_config(trim_eps=0.2).resolved_trim_eps == 0.2
    assert smoke_config(trim_eps=0.0).resolved_trim_eps == 0.0
    # the schedule is clamped below 1/2 where n^(-1/4) would leave no window
    assert smoke_config(n=10).resolved_trim_eps == 0.45


def test_replicate_seed_is_a_pure_function_of_seed_and_index():
    assert replicate_seed(7, 3) == replicate_seed(7, 3)
    assert replicate_seed(7, 3) != replicate_seed(7, 4)
    assert replicate_seed(8, 3) != replicate_seed(7, 3)
    assert replicate_seed(0, 0) >= 0


# --- KS statistic ---------------------------------------------------------------


def test_ks_midpoint_normal_quantiles():
    grid = (np.arange(1, 1001) - 0.5) / 1000.0
    assert ks_statistic(ndtri(grid), ndtr) == pytest.approx(5e-4, abs=1e-9)


def test_ks_single_zero_is_half():
    assert ks_statistic([0.0], ndtr) == 0.5


def test_ks_total_mismatch_is_one():
    assert ks_statistic(np.full(50, 10.0), ndtr) == pytest.approx(1.0, abs=1e-6)


def test_ks_input_validation():
    with pytest.raises(ValueError, match="at least one"):
        ks_statistic([], ndtr)
    with pytest.raises(ValueError, match="finite"):
        ks_statistic([0.0, np.nan], ndtr)


# --- report type ----------------------------------------------------------------


def _report_kwargs(**overrides):
    base = dict(n=100, replicates=3, w_exact=1.0, sigma_source="oracle_quadrature",
                sigma2_value=2.0, trim_eps=0.0,
                estimates={"mean": 1.0, "var": 0.1, "skew": 0.0},
                standardized=(-1.0, 0.0, 1.0), ks_distance=0.2, coverage=0.9,
                assumptions_ok=True, notes=(), runtime=0.1)
    base.update(overrides)
    return base


@pytest.mark.parametrize("overrides", [
    {"coverage": 1.2},
    {"coverage": -0.1},
    {"ks_distance": 1.5},
    {"runtime": -1.0},
    {"sigma2_value": -2.0},
    {"standardized": (0.0,)},
])
def test_mcreport_rejects_inconsistent_fields(overrides):
    with pytest.raises(ValueError):
        MCReport(**_report_kwargs(**overrides))


def test_mcreport_equality_ignores_runtime():
    a = MCReport(**_report_kwargs(runtime=0.1))
    b = MCReport(**_report_kwargs(runtime=9.9))
    assert a == b


def test_report_dicts_are_json_serializable(smoke_report, smoke_comparison):
    blob = json.dumps(smoke_report.to_dict())
    assert json.loads(blob)["replicates"] == 400
    blob = json.dumps(smoke_comparison.to_dict())
    assert json.loads(blob)["trimmed"]["trim_eps"] == pytest.approx(1500 ** -0.25)


def test_standardized_csv_round_trip(tmp_path, smoke_report):
    path = tmp_path / "z.csv"
    write_standardized_csv(path, smoke_report)
    lines = path.read_text().splitlines()
    assert lines[0] == "z"
    values = tuple(float(t) for t in lines[1:])
    assert values == smoke_report.standardized


def _skew_oracle_samples():
    rng = np.random.default_rng(2024)
    for k in range(240):
        n = int(rng.integers(2, 3001))
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        offset = rng.uniform(-1e3, 1e3)
        kind = k % 4
        if kind == 0:
            yield rng.standard_normal(n) * scale + offset
        elif kind == 1:
            yield rng.exponential(size=n) * scale
        elif kind == 2:  # ties
            yield np.round(rng.standard_normal(n) * 3.0 + offset, 1)
        else:  # spread near the rounding of the offset: both sides of the NaN rule
            yield offset + abs(offset) * 10.0 ** rng.uniform(-17.0, -13.0) * rng.standard_normal(n)
    yield np.full(57, 3.7)


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
def test_report_skew_equals_scipy_stats_skew_bit_for_bit():
    results = [(mc._sample_skew(v), skew(v)) for v in _skew_oracle_samples()]
    assert all(same_bits(ours, theirs) for ours, theirs in results)
    assert math.isnan(results[-1][0])
    # the NaN rule fires on some of the 61 near-constant samples, not on all
    assert 1 < sum(math.isnan(ours) for ours, _ in results) < 61


def test_importing_wcost_loads_no_heavy_scipy_subpackage():
    heavy = ["scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.interpolate",
             "scipy.spatial", "scipy.linalg", "scipy.sparse"]
    code = ("import sys, wcost, wcost.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == ""


# --- CLT experiment -------------------------------------------------------------


def test_benchmark_replicates_look_normal(smoke_report):
    z = np.array(smoke_report.standardized)
    assert smoke_report.ks_distance < SMOKE_KS
    assert abs(z.mean()) < SMOKE_MEAN
    assert abs(z.var(ddof=1) - 1.0) < SMOKE_VAR_DEV
    assert SMOKE_COVERAGE[0] <= smoke_report.coverage <= SMOKE_COVERAGE[1]


def test_benchmark_report_bookkeeping(smoke_report):
    assert smoke_report.w_exact == pytest.approx(4.0, rel=1e-6)
    assert smoke_report.sigma2_value == pytest.approx(32.0, rel=1e-3)
    assert smoke_report.estimates["mean"] == pytest.approx(4.0, rel=0.02)
    assert smoke_report.assumptions_ok
    assert smoke_report.trim_eps == 0.0
    assert len(smoke_report.standardized) == smoke_report.replicates
    assert list(smoke_report.standardized) == sorted(smoke_report.standardized)


def test_comonotone_replicates_look_normal():
    rep = run_clt_experiment(smoke_config(G=Gaussian(1, 2), coupling=Comonotone()),
                             threads=2)
    z = np.array(rep.standardized)
    assert rep.sigma2_value == pytest.approx(6.0, rel=1e-3)
    assert rep.ks_distance < SMOKE_KS
    assert abs(z.var(ddof=1) - 1.0) < SMOKE_VAR_DEV
    assert SMOKE_COVERAGE[0] <= rep.coverage <= SMOKE_COVERAGE[1]
    # dependence moves the limiting variance, not the sqrt(n) rate: the
    # replicate variance of the estimates tracks sigma2/n
    assert rep.n * rep.estimates["var"] == pytest.approx(rep.sigma2_value, rel=SMOKE_VAR_DEV)


def test_closed_form_source_matches_gaussian_formula(smoke_report):
    rep = run_clt_experiment(smoke_config(sigma_source="closed_form"), threads=2)
    assert rep.sigma2_value == 32.0
    assert rep.ks_distance < SMOKE_KS
    # same streams as the quadrature-standardized run
    assert rep.estimates == smoke_report.estimates


def test_closed_form_source_covers_non_gaussian_independent_pairs():
    cfg = MCConfig(Exponential(1.0), Exponential(0.5), P2, Independent(),
                   n=500, replicates=150, seed=0, sigma_source="closed_form")
    rep = run_clt_experiment(cfg)
    assert rep.sigma2_value == pytest.approx(100.0, rel=1e-3)
    assert 0.0 <= rep.coverage <= 1.0


def test_closed_form_source_requires_an_actual_closed_form():
    with pytest.raises(ValueError, match="closed-form"):
        run_clt_experiment(smoke_config(coupling=Comonotone(), G=Gaussian(1, 2),
                                        sigma_source="closed_form"))
    with pytest.raises(ValueError, match="closed-form"):
        run_clt_experiment(smoke_config(c=PowerCost(3.0), sigma_source="closed_form"))


def test_degenerate_variance_is_an_error():
    # comonotone same-shape pair: the matched cost is constant, sigma2 = 0
    cfg = smoke_config(coupling=Comonotone(), n=200, replicates=100)
    with pytest.raises(DegenerateSampleError, match="variance is zero"):
        run_clt_experiment(cfg)


def test_plug_in_standardization_has_practical_coverage():
    # R = 1200 puts the 0.98 bound four binomial standard errors above 0.95;
    # at R = 300 the exact sigma2 itself covers 0.98 on seed 0's draws.
    cfg = MCConfig(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(),
                   n=2000, replicates=1200, seed=0, sigma_source="plug_in")
    rep = run_clt_experiment(cfg, threads=2)
    assert rep.sigma2_value is None
    assert 0.90 <= rep.coverage <= 0.98
    assert rep.ks_distance < 0.10
    assert any("plug-in" in note for note in rep.notes)


def test_failing_tail_check_warns_and_flags_but_continues():
    # beta = 3.9 < 2*alpha = 4: the growth/decay check fails, but the population
    # cost is finite and the plug-in path needs no tail integral, so the run
    # completes with the flag down
    cfg = MCConfig(Pareto(3.9), LocationScale(Pareto(3.9), 1.0, 1.0), P2,
                   Independent(), n=300, replicates=100, seed=0,
                   sigma_source="plug_in")
    with pytest.warns(UserWarning, match="tail"):
        rep = run_clt_experiment(cfg)
    assert not rep.assumptions_ok
    assert any("right tail" in note for note in rep.notes)


def test_nonconvergent_population_cost_propagates():
    # beta = 1.5 < alpha: even the population cost integral diverges
    cfg = MCConfig(Pareto(1.5), LocationScale(Pareto(1.5), 1.0, 1.0), P2,
                   Independent(), n=300, replicates=100, seed=0)
    with pytest.warns(UserWarning, match="tail"):
        with pytest.raises(NonconvergenceError):
            run_clt_experiment(cfg)


def test_thread_count_must_be_positive():
    with pytest.raises(ValueError, match="thread count"):
        run_clt_experiment(smoke_config(), threads=0)


# --- reproducibility ------------------------------------------------------------


def test_reports_are_reproducible_and_thread_invariant():
    cfg = smoke_config(n=200, replicates=120, seed=11)
    first = run_clt_experiment(cfg)
    again = run_clt_experiment(cfg)
    threaded = run_clt_experiment(cfg, threads=3)
    assert first == again
    assert first == threaded


def test_sorted_family_is_independent_of_replicate_order():
    cfg = smoke_config(n=200, replicates=120, seed=11)
    rep = run_clt_experiment(cfg)
    z = []
    for r in reversed(range(cfg.replicates)):
        s = sample_pairs(cfg.coupling, cfg.F, cfg.G, cfg.n,
                         replicate_seed(cfg.seed, r))
        z.append(np.sqrt(cfg.n) * (empirical_cost(s, cfg.c) - rep.w_exact)
                 / np.sqrt(rep.sigma2_value))
    assert np.array_equal(np.sort(z), np.array(rep.standardized))


def _stable_reference(cfg, rep, estimate, plug_in=False):
    """``rep.standardized`` rebuilt replicate by replicate from stable-sort references."""
    values, scales2 = [], []
    for r in range(cfg.replicates):
        s = sample_pairs(cfg.coupling, cfg.F, cfg.G, cfg.n, replicate_seed(cfg.seed, r))
        values.append(estimate(s.xs, s.ys, cfg.c))
        scales2.append(plug_in_sigma2_ref(s.xs, s.ys, cfg.c) if plug_in else rep.sigma2_value)
    return np.sort(np.sqrt(cfg.n) * (np.array(values) - rep.w_exact) / np.sqrt(np.array(scales2)))


@pytest.mark.parametrize("coupling", [Independent(), GaussianCopula(0.5), Comonotone(),
                                      Countermonotone()],
                         ids=["independent", "gauss", "comonotone", "countermonotone"])
def test_engine_equals_a_stable_sort_reference(coupling):
    cfg = smoke_config(G=Gaussian(1, 2), coupling=coupling, n=200, replicates=120, seed=11)
    rep = run_clt_experiment(cfg)
    assert same_bits(rep.standardized, _stable_reference(cfg, rep, empirical_cost_ref))


def test_trimmed_engine_equals_a_stable_sort_reference():
    cfg = smoke_config(n=200, replicates=120, seed=11, trim_eps=0.05)
    trimmed = compare_trimmed(cfg).trimmed
    z = _stable_reference(cfg, trimmed, functools.partial(trimmed_cost_ref, eps=0.05))
    assert same_bits(trimmed.standardized, z)


def test_plug_in_engine_equals_a_stable_sort_reference():
    cfg = smoke_config(n=200, replicates=120, seed=11, sigma_source="plug_in")
    rep = run_clt_experiment(cfg)
    assert same_bits(rep.standardized, _stable_reference(cfg, rep, empirical_cost_ref, plug_in=True))


@pytest.mark.parametrize("sigma_source", ["oracle_quadrature", "plug_in"])
def test_untrimmed_run_computes_no_trimmed_estimates(monkeypatch, sigma_source):
    # Standardized replicates as they were formed while every replicate also
    # carried a trimmed estimate at the resolved trim level.
    cfg = smoke_config(n=200, replicates=120, seed=11, sigma_source=sigma_source)
    west, wtrim, plug = mc._simulate(cfg, cfg.resolved_trim_eps, 1, (0.0,))
    assert not np.array_equal(west, wtrim)
    w_exact = exact_cost(cfg.F, cfg.G, cfg.c)
    scale2 = plug[0.0] if sigma_source == "plug_in" else mc._oracle_sigma2(cfg).value
    before = tuple(float(v) for v in np.sort(np.sqrt(cfg.n) * (west - w_exact) / np.sqrt(scale2)))

    def refuse(*args, **kwargs):
        raise AssertionError("the untrimmed experiment computed a trimmed estimate")

    monkeypatch.setattr(mc, "trimmed_empirical_cost", refuse)
    assert run_clt_experiment(cfg).standardized == before


@pytest.mark.parametrize("sigma_source", ["oracle_quadrature", "plug_in"])
def test_coverage_matches_the_per_replicate_interval_loop(sigma_source):
    cfg = smoke_config(sigma_source=sigma_source)
    west, _, plug = mc._simulate(cfg, 0.0, 1, (0.0,))
    w_exact = exact_cost(cfg.F, cfg.G, cfg.c)
    scales2 = plug[0.0] if sigma_source == "plug_in" else np.full(
        west.shape, mc._oracle_sigma2(cfg).value)
    hits = 0
    for w, s2 in zip(west, scales2):
        lo, hi = confidence_interval(float(w), float(s2), cfg.n, 0.95)
        hits += lo <= w_exact <= hi
    assert run_clt_experiment(cfg).coverage == hits / cfg.replicates


# --- trimmed comparison ---------------------------------------------------------


def test_trimmed_family_passes_the_same_bound(smoke_comparison):
    assert smoke_comparison.trim_eps == pytest.approx(1500 ** -0.25)
    assert smoke_comparison.trimmed.ks_distance < SMOKE_KS
    z = np.array(smoke_comparison.trimmed.standardized)
    assert abs(z.var(ddof=1) - 1.0) < SMOKE_VAR_DEV
    cov = smoke_comparison.trimmed.coverage
    assert SMOKE_COVERAGE[0] <= cov <= SMOKE_COVERAGE[1]


def test_trimmed_family_is_centered_on_the_window_quantities(smoke_comparison):
    eps = smoke_comparison.trim_eps
    w_window = exact_cost(Gaussian(0, 1), Gaussian(2, 1), P2,
                          window=(eps, 1.0 - eps))
    assert smoke_comparison.trimmed.w_exact == pytest.approx(w_window, rel=1e-9)
    assert smoke_comparison.trimmed.sigma2_value < smoke_comparison.plain.sigma2_value
    # the trim removes a deterministic slice of cost mass; under sqrt(n)
    # scaling that slice is the dominant gap between the two estimators
    expected_gap = math.sqrt(1500) * (smoke_comparison.plain.w_exact - w_window)
    assert smoke_comparison.scaled_gap_mean == pytest.approx(expected_gap, rel=0.10)
    assert smoke_comparison.scaled_gap_max >= smoke_comparison.scaled_gap_mean


def test_comparison_plain_half_matches_the_clt_experiment(smoke_report, smoke_comparison):
    assert smoke_comparison.plain == smoke_report


def test_zero_trim_makes_the_families_identical():
    cmp = compare_trimmed(smoke_config(n=200, replicates=120, seed=11, trim_eps=0.0))
    assert cmp.scaled_gap_mean == 0.0
    assert cmp.scaled_gap_max == 0.0
    assert cmp.plain == cmp.trimmed


def test_fixed_wide_trim_is_reported_without_assertion():
    cmp = compare_trimmed(smoke_config(n=300, replicates=120, seed=2, trim_eps=0.4))
    assert cmp.trim_eps == 0.4
    assert cmp.scaled_gap_mean > 0.0
    assert 0.0 <= cmp.trimmed.ks_distance <= 1.0


# --- consistency sweep ----------------------------------------------------------


def test_sweep_medians_decrease_on_the_benchmark():
    rows = run_consistency_sweep(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(),
                                 [100, 1000, 10_000], 10)
    medians = [row["median_abs_error"] for row in rows]
    assert [row["n"] for row in rows] == [100, 1000, 10_000]
    assert medians[0] > medians[1] > medians[2]
    for row in rows:
        assert len(row["abs_errors"]) == 10
        assert row["max_abs_error"] >= row["median_abs_error"]


def test_sweep_single_cell():
    rows = run_consistency_sweep(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(),
                                 [10], [5])
    assert len(rows) == 1
    assert rows[0]["n"] == 10
    assert len(rows[0]["abs_errors"]) == 1


def test_sweep_comonotone_identical_marginals_has_zero_error():
    rows = run_consistency_sweep(Gaussian(1, 1), Gaussian(1, 1), P2, Comonotone(),
                                 [10, 100], 3)
    for row in rows:
        assert row["abs_errors"] == (0.0, 0.0, 0.0)
        assert row["max_abs_error"] == 0.0


@pytest.mark.parametrize("n_list,seeds", [([], 3), ([0], 3), ([100], 0), ([100], [])])
def test_sweep_rejects_empty_or_bad_inputs(n_list, seeds):
    with pytest.raises(ValueError):
        run_consistency_sweep(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(),
                              n_list, seeds)
