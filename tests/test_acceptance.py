"""Acceptance gate: every release criterion at its stated tolerance.

The criteria are enumerated in README.md.  Each test prints one [PASS]/[FAIL]
line (visible with ``pytest -s``); Monte Carlo thresholds reflect
calibration runs whose logs are not in the repository (ROADMAP item 9
tracks recording them).
"""

import time

import numpy as np
import pytest

from wcost.assumptions import check_cfg
from wcost.costs import (
    ExpPowerCost,
    LogPowerCost,
    PowerCost,
    QuantileCost,
    check_measure_property,
)
from wcost.coupling import (
    Comonotone,
    Countermonotone,
    GaussianCopula,
    Independent,
    sample_pairs,
)
from wcost.distributions import (
    Exponential,
    Gaussian,
    LocationScale,
    Pareto,
    Weibull,
)
from wcost.errors import NonconvergenceError
from wcost.estimate import empirical_cost, exact_cost
from wcost.mc import MCConfig, compare_trimmed, run_clt_experiment, run_consistency_sweep
from wcost.variance import sigma2, sigma2_location_scale

P2 = PowerCost(2.0)
BENCHMARK = dict(F=Gaussian(0, 1), G=Gaussian(2, 1), c=P2, coupling=Independent(),
                 n=5000, replicates=2000, seed=0)


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def benchmark_run():
    t0 = time.perf_counter()
    report = run_clt_experiment(MCConfig(**BENCHMARK))
    return report, time.perf_counter() - t0


def test_criterion_1_gaussian_variance_by_quadrature():
    t0 = time.perf_counter()
    res = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Independent())
    elapsed = time.perf_counter() - t0
    rel = abs(res.value - 32.0) / 32.0
    ok = rel < 1e-3 and elapsed < 60.0
    _verdict(1, ok, f"independent Gaussian pair variance = {res.value:.6f} "
                    f"(target 32, rel err {rel:.2e}), {elapsed:.1f}s")


def test_criterion_2_location_scale_closed_form():
    closed = sigma2_location_scale(Gaussian(0, 1), 2.0, 3.0, 1.0, 1.0)
    rel_closed = abs(closed.value - 90.0) / 90.0
    generic = sigma2(LocationScale(Gaussian(0, 1), 2.0, 3.0),
                     LocationScale(Gaussian(0, 1), 1.0, 1.0), P2, Independent())
    rel_match = abs(generic.value - closed.value) / closed.value
    ok = rel_closed < 1e-6 and rel_match < 1e-3
    _verdict(2, ok, f"location-scale corollary = {closed.value:.9f} "
                    f"(target 90, rel {rel_closed:.2e}); quadrature matches "
                    f"at rel {rel_match:.2e}")


def test_criterion_3_population_cost_identity():
    F = LocationScale(Gaussian(0, 1), 2.0, 3.0)
    G = LocationScale(Gaussian(0, 1), 1.0, 1.0)
    identity = (3.0 - 1.0) ** 2 + (2.0 - 1.0) ** 2 * 1.0
    value = exact_cost(F, G, P2)
    u = (np.arange(1_000_000) + 0.5) / 1_000_000
    riemann = float(np.mean(P2.evaluate(np.asarray(F.quantile(u)),
                                        np.asarray(G.quantile(u)))))
    rel_identity = abs(value - identity) / identity
    rel_riemann = abs(value - riemann) / riemann
    ok = rel_identity < 1e-6 and rel_riemann < 1e-6
    _verdict(3, ok, f"population cost = {value:.9f} vs identity {identity} "
                    f"(rel {rel_identity:.2e}) and 1e6-point Riemann oracle "
                    f"(rel {rel_riemann:.2e})")


def test_criterion_4_tail_growth_frontier():
    passing = check_cfg(Pareto(5.0), P2)
    failing = check_cfg(Pareto(3.0), P2)
    converged = sigma2(Pareto(5.0), LocationScale(Pareto(5.0), 1.0, 1.0),
                       P2, Independent())
    raised = False
    try:
        sigma2(Pareto(3.0), LocationScale(Pareto(3.0), 1.0, 1.0), P2, Independent())
    except NonconvergenceError:
        raised = True
    ok = passing.passed and not failing.passed and converged.value > 0.0 and raised
    _verdict(4, ok, f"tail/growth check pass@5 ({passing.status}) fail@3 "
                    f"({failing.status}); variance converges@5 "
                    f"({converged.value:.6f}) and fails the tail gate@3 ({raised})")


def test_criterion_5_clt_at_desk_scale(benchmark_run):
    report, elapsed = benchmark_run
    z = np.asarray(report.standardized)
    ks = report.ks_distance
    mean = abs(float(z.mean()))
    var_dev = abs(float(z.var(ddof=1)) - 1.0)
    ok = (ks < 0.04 and mean < 0.07 and var_dev < 0.10
          and 0.93 <= report.coverage <= 0.97 and elapsed < 600.0)
    _verdict(5, ok, f"standardized replicates: KS={ks:.4f} (<0.04), "
                    f"|mean|={mean:.4f} (<0.07), |var-1|={var_dev:.4f} (<0.10), "
                    f"coverage={report.coverage:.4f} in [0.93,0.97], {elapsed:.0f}s")


def test_criterion_6_trimmed_equivalence():
    comparison = compare_trimmed(MCConfig(**BENCHMARK))
    ks = comparison.trimmed.ks_distance
    ok = ks < 0.04
    _verdict(6, ok, f"trimmed estimator at eps=n^(-1/4)={comparison.trim_eps:.4f}, "
                    f"standardized about its window target: KS={ks:.4f} (<0.04); "
                    f"sqrt(n)-scaled trim gap {comparison.scaled_gap_mean:.1f} reported")


def test_criterion_7_coupling_moves_variance_not_rate(benchmark_run):
    report, _ = benchmark_run
    ratio_ind = report.n * report.estimates["var"] / report.sigma2_value
    com = run_clt_experiment(MCConfig(**{**BENCHMARK,
                                         "G": Gaussian(1, 2),
                                         "coupling": Comonotone()}))
    ratio_com = com.n * com.estimates["var"] / com.sigma2_value
    # the equal-scale comonotone pair is exactly degenerate: both the variance
    # integral and the replicate variance vanish
    degen = sigma2(Gaussian(0, 1), Gaussian(2, 1), P2, Comonotone())
    west = [empirical_cost(sample_pairs(Comonotone(), Gaussian(0, 1), Gaussian(2, 1),
                                        2000, seed), P2) for seed in range(100)]
    degen_mc = 2000 * float(np.var(west, ddof=1))
    ok = (abs(ratio_ind - 1.0) < 0.10 and abs(ratio_com - 1.0) < 0.10
          and degen.value == 0.0 and degen_mc < 1e-8)
    _verdict(7, ok, f"replicate-variance/sigma2 ratios: independent {ratio_ind:.4f}, "
                    f"comonotone {ratio_com:.4f} (each within 10%); degenerate "
                    f"comonotone pair: sigma2={degen.value}, n*var={degen_mc:.2e}")


def test_criterion_8_consistency_sweep():
    rows = run_consistency_sweep(Gaussian(0, 1), Gaussian(2, 1), P2, Independent(),
                                 [100, 1000, 10_000, 100_000], 20)
    medians = [row["median_abs_error"] for row in rows]
    ok = all(b < a for a, b in zip(medians, medians[1:]))
    _verdict(8, ok, "median |estimate - target| by n: "
                    + ", ".join(f"{r['n']}: {m:.5f}" for r, m in zip(rows, medians)))


def test_criterion_9_invariant_suites():
    # rectangle increments: every cost induces a negative measure
    grid = np.linspace(-4.0, 4.0, 33)
    rect_ok = all(check_measure_property(c, grid)[0]
                  for c in (P2, PowerCost(1.5), LogPowerCost(0.5),
                            ExpPowerCost(1.0), QuantileCost(0.3)))

    # gradients against central differences at 1e-5 relative
    xs = np.array([-2.0, -0.5, 1.0, 2.5])
    ys = xs[:, None] + np.array([0.7, 1.5, -2.0])
    grad_ok = True
    for c in (P2, PowerCost(3.0), LogPowerCost(1.0), ExpPowerCost(0.5)):
        gx, gy = c.gradient(xs[:, None], ys)
        h = 1e-6
        fx = (c.evaluate(xs[:, None] + h, ys) - c.evaluate(xs[:, None] - h, ys)) / (2 * h)
        fy = (c.evaluate(xs[:, None], ys + h) - c.evaluate(xs[:, None], ys - h)) / (2 * h)
        scale = np.maximum(1.0, np.abs(gx) + np.abs(gy))
        grad_ok &= bool(np.all(np.abs(gx - fx) / scale < 1e-5)
                        and np.all(np.abs(gy - fy) / scale < 1e-5))

    # copula values respect the extremal-coupling envelope
    uu, vv = np.meshgrid(np.linspace(0.05, 0.95, 10), np.linspace(0.05, 0.95, 10))
    frechet_ok = True
    for cp in (Independent(), Comonotone(), Countermonotone(),
               GaussianCopula(0.6), GaussianCopula(-0.3)):
        vals = np.asarray(cp.copula_cdf(uu, vv))
        frechet_ok &= bool(np.all(vals >= np.maximum(uu + vv - 1.0, 0.0) - 1e-9)
                           and np.all(vals <= np.minimum(uu, vv) + 1e-9))

    # quantile/cdf round trips at 1e-8
    tail = np.geomspace(1e-8, 0.5, 40)
    us = np.concatenate([tail, 1.0 - tail])
    round_ok = True
    for law in (Gaussian(0, 1), Gaussian(2, 3), Exponential(1.3), Pareto(2.5),
                Weibull(1.7), LocationScale(Gaussian(0, 1), 2.0, 1.0)):
        back = np.asarray(law.cdf(np.asarray(law.quantile(us))))
        round_ok &= bool(np.all(np.abs(back - us) <= 1e-8))

    # radial profiles are convex along the tail
    ts = np.geomspace(1.0, 50.0, 200)
    convex_ok = True
    for c in (P2, PowerCost(1.5), LogPowerCost(0.5), ExpPowerCost(1.0)):
        rho = np.asarray(c.rho(ts))
        second = rho[2:] - 2.0 * rho[1:-1] + rho[:-2]
        convex_ok &= bool(np.all(second >= -1e-8 * np.maximum(1.0, np.abs(rho[1:-1]))))

    parts = {"rectangles": rect_ok, "gradients": grad_ok, "frechet": frechet_ok,
             "round-trips": round_ok, "tail-convexity": convex_ok}
    ok = all(parts.values())
    _verdict(9, ok, "invariants " + ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                              for k, v in parts.items()))
