import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from wcost import NonconvergenceError
from wcost.distributions import Gaussian
from wcost.quadrature import (
    CumulativeMesh,
    QuadratureConfig,
    _gk15_panel_2d,
    _tail_limit,
    _tolerance,
    gk15_fixed,
    integrate_1d,
    integrate_2d,
    integrate_open01,
    integrate_square_open,
)

CFG = QuadratureConfig()
LOOSE = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_gk15_exact_for_degree_20_polynomial():
    v, _ = gk15_fixed(lambda x: x**20, 0.0, 1.0)
    assert v == pytest.approx(1.0 / 21.0, rel=1e-14)


def test_gk15_error_estimate_sees_gauss_kronrod_gap():
    # On a rough integrand the embedded 7-point rule disagrees visibly.
    _, err = gk15_fixed(lambda x: np.abs(x - 0.3333) ** 0.51, 0.0, 1.0)
    assert err > 1e-8


def test_integrate_1d_classic_values():
    v, e = integrate_1d(np.sin, 0.0, math.pi, CFG)
    assert v == pytest.approx(2.0, rel=1e-12)
    v, e = integrate_1d(lambda x: np.exp(-x * x), -10.0, 10.0, CFG)
    assert v == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_integrate_1d_respects_breaks_seed():
    # A kink at an interior point: seeding the partition there gives an
    # essentially exact result immediately.
    f = lambda x: np.abs(x - 0.5)
    v, _ = integrate_1d(f, 0.0, 1.0, CFG, breaks=[0.0, 0.5, 1.0])
    assert v == pytest.approx(0.25, rel=1e-14)


def test_integrate_1d_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_1d(np.sin, 1.0, 1.0, CFG)


def test_open01_handles_power_singularities_exactly():
    # Per-endpoint extrapolation of geometric strips reproduces pure powers
    # to near machine precision.
    v, e = integrate_open01(lambda u: 1.0 / np.sqrt(u), CFG)
    assert v == pytest.approx(2.0, rel=1e-10)
    v, e = integrate_open01(lambda u: u**-0.9, CFG)
    assert v == pytest.approx(10.0, rel=1e-10)
    v, e = integrate_open01(lambda u: (1.0 - u) ** (-2.0 / 3.0), CFG)
    assert v == pytest.approx(3.0, rel=1e-8)


def test_open01_smooth_integrand_error_estimate_honest():
    v, e = integrate_open01(lambda u: (1.0 + special.ndtri(u)) ** 2, CFG)
    assert v == pytest.approx(2.0, rel=1e-6)
    assert abs(v - 2.0) <= max(e, 1e-7)


def test_open01_constant():
    v, e = integrate_open01(lambda u: 4.0 + 0.0 * u, CFG)
    assert v == pytest.approx(4.0, rel=1e-13)


def test_open01_detects_log_divergence():
    with pytest.raises(NonconvergenceError):
        integrate_open01(lambda u: 1.0 / (1.0 - u), CFG)


def test_open01_detects_near_frontier_divergence():
    with pytest.raises(NonconvergenceError):
        integrate_open01(lambda u: (1.0 - u) ** -0.995, CFG)


def test_open01_mixed_rate_endpoints():
    # Different singularity strength at each end; per-side acceleration
    # handles them independently.  Integral of u^{-1/2}(1-u)^{-1/4} is
    # B(1/2, 3/4).
    exact = math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)
    v, e = integrate_open01(lambda u: u**-0.5 * (1.0 - u) ** -0.25, CFG)
    assert v == pytest.approx(exact, rel=1e-9)


def test_tail_limit_raises_on_a_nan_strip():
    # NaN fails every comparison of the shrink-ratio test, so it used to come
    # out of the extrapolation as a NaN limit
    with pytest.raises(NonconvergenceError, match="^x: endpoint strip 1 is nan"):
        _tail_limit([1e-3, float("nan"), 1e-5], 1e-9, "x")


def test_open01_raises_on_nan_strips():
    with pytest.raises(NonconvergenceError, match="upper endpoint of \\(0,1\\).*not finite"):
        integrate_open01(lambda u: np.where(u > 1 - 1e-6, np.nan, 1.0), CFG)


def test_open01_raises_on_a_nan_error_estimate():
    # the strips stay finite; the NaN sits in the base interval, so only the
    # final tolerance check can see it
    with pytest.raises(NonconvergenceError, match="error estimate nan exceeds"):
        integrate_open01(lambda u: np.where(np.abs(u - 0.5) < 1e-3, np.nan, 1.0),
                         replace(CFG, max_subdivisions=50))


def test_integrate_2d_separable():
    v, _ = integrate_2d(lambda x, y: np.exp(x) * np.sin(y), (0.0, 1.0), (0.0, math.pi), CFG)
    assert v == pytest.approx((math.e - 1.0) * 2.0, rel=1e-11)


def test_square_open_bridge_kernel():
    # The Brownian-bridge covariance integrates to 1/12 over the square.
    # The kink of min(u,v) along the diagonal caps the tensor rule's accuracy.
    v, e = integrate_square_open(lambda u, vv: np.minimum(u, vv) - u * vv, CFG)
    assert v == pytest.approx(1.0 / 12.0, rel=1e-7)


def test_square_open_corner_singularity():
    v, e = integrate_square_open(lambda u, vv: (u * vv) ** -0.25, CFG)
    assert v == pytest.approx((4.0 / 3.0) ** 2, rel=1e-8)


def test_square_open_variance_identity_pareto():
    # For h the density quantile of any law X, the bridge kernel scaled by
    # 1/(h(u)h(v)) integrates to Var(X); Pareto(5) has variance 5/48.
    h = lambda t: 5.0 * (1.0 - t) ** 1.2
    f = lambda u, v: (np.minimum(u, v) - u * v) / (h(u) * h(v))
    v, e = integrate_square_open(f, LOOSE)
    assert v == pytest.approx(5.0 / 48.0, rel=1e-4)
    assert abs(v - 5.0 / 48.0) <= e


def test_square_open_variance_identity_gaussian():
    hg = lambda t: np.exp(-0.5 * special.ndtri(t) ** 2) / math.sqrt(2.0 * math.pi)
    f = lambda u, v: (np.minimum(u, v) - u * v) / (hg(u) * hg(v))
    v, e = integrate_square_open(f, LOOSE)
    assert v == pytest.approx(1.0, rel=1e-5)


def test_square_open_detects_divergence():
    with pytest.raises(NonconvergenceError):
        integrate_square_open(lambda u, v: 1.0 / ((1.0 - u) * (1.0 - v)), CFG)


def test_results_are_deterministic():
    f = lambda u: (1.0 + special.ndtri(u)) ** 2
    a = integrate_open01(f, CFG)
    b = integrate_open01(f, CFG)
    assert a[0] == b[0] and a[1] == b[1]


# --- running totals against the re-summing reference ----------------------------


def _resumming_reference(heap, split, cfg, scale):
    """The adaptive loop that re-sums the whole heap exactly before every split."""
    heapq.heapify(heap)
    while len(heap) < cfg.max_subdivisions:
        if math.fsum(-p[0] for p in heap) <= _tolerance(cfg, math.fsum(p[-1] for p in heap), scale):
            break
        worst = heapq.heappop(heap)
        children = split(worst)
        if children is None:
            heapq.heappush(heap, worst)
            break
        for child in children:
            heapq.heappush(heap, child)
    return heap


def _reference_1d(f, a, b, cfg):
    def split(entry):
        _, pa, pb, _ = entry
        pm = 0.5 * (pa + pb)
        (v1, e1), (v2, e2) = gk15_fixed(f, pa, pm), gk15_fixed(f, pm, pb)
        return (-e1, pa, pm, v1), (-e2, pm, pb, v2)

    val, err = gk15_fixed(f, a, b)
    panels = sorted(_resumming_reference([(-err, a, b, val)], split, cfg, 0.0), key=lambda p: p[1])
    return math.fsum(p[3] for p in panels), math.fsum(-p[0] for p in panels)


def _reference_2d(f, xspan, yspan, cfg):
    def split(entry):
        _, a, b, c, d, _ = entry
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        return [(-e, qa, qb, qc, qd, v)
                for qa, qb, qc, qd in ((a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d))
                for v, e in [_gk15_panel_2d(f, qa, qb, qc, qd)]]

    val, err = _gk15_panel_2d(f, *xspan, *yspan)
    heap = _resumming_reference([(-err, *xspan, *yspan, val)], split, cfg, 0.0)
    panels = sorted(heap, key=lambda p: (p[1], p[3]))
    return math.fsum(p[5] for p in panels), math.fsum(-p[0] for p in panels)


@pytest.mark.parametrize("f, cfg", [
    (lambda x: np.abs(x - 0.3333) ** 0.51, CFG),
    (lambda x: 1.0 / np.sqrt(x + 1e-12), CFG),
    (lambda x: np.sin(40.0 * x) * np.exp(x), CFG),
    (lambda x: np.abs(x - 0.3333) ** 0.51, replace(CFG, max_subdivisions=37)),
])
def test_integrate_1d_matches_the_resumming_loop_bit_for_bit(f, cfg):
    assert integrate_1d(f, 0.0, 1.0, cfg, raise_on_stall=False) == _reference_1d(f, 0.0, 1.0, cfg)


@pytest.mark.parametrize("cfg", [LOOSE, replace(LOOSE, max_subdivisions=100)])
def test_integrate_2d_matches_the_resumming_loop_bit_for_bit(cfg):
    f = lambda u, v: (np.minimum(u, v) - u * v) / np.sqrt(u * v * (1.0 - u) * (1.0 - v))
    span = (1e-4, 1.0 - 1e-4)
    assert integrate_2d(f, span, span, cfg, raise_on_stall=False) == _reference_2d(f, span, span, cfg)


# --- cumulative mesh --------------------------------------------------------------


def test_cumulative_mesh_builds_the_running_integral_from_one_half():
    # On sigma = +-(s - log 2), with s = -log(1 - u) above u = 1/2 and -log u
    # below, p = e^{-s} / phi(Phi^{-1}(u)) integrates to Q(sigma) = -Phi^{-1}(u),
    # which the mesh reproduces at its nodes and breaks from the middle,
    # sigma = 0, out to 1 - u = e^{-40} on either side
    def score(sigma):
        z = Gaussian(0.0, 1.0).psi_inverse(np.abs(sigma) + math.log(2.0))
        return np.where(sigma >= 0.0, z, -z)

    def p(sigma):
        z = score(sigma)
        return (math.sqrt(2.0 * math.pi) * np.exp(0.5 * z * z - np.abs(sigma) - math.log(2.0)))[None]

    depth = 40.0 - math.log(2.0)
    mesh = CumulativeMesh(p, [-depth, -10.0, -1.0, 0.0, 1.0, 10.0, depth])
    for _ in range(3):
        mesh.split(np.ones(mesh.panels, dtype=bool))
    assert mesh.panels == 48 and mesh.evaluations == 15 * (6 + 12 + 24 + 48)
    assert np.allclose(mesh.Q[0], -score(mesh.nodes()), rtol=1e-12, atol=1e-12)
    assert np.allclose(mesh.q_breaks[0], -score(mesh.breaks), rtol=1e-12, atol=1e-12)
    assert mesh.q_breaks[0, mesh.panels // 2] == 0.0
    # E[Z^2; |Z| < a] = 1 - 2 (a phi(a) + Phi(-a)) for Z = Q(U), U uniform, a = Q at either end
    sums, _ = mesh.panel_sums(mesh.Q[0] ** 2 * np.exp(-np.abs(mesh.nodes()) - math.log(2.0)))
    a = float(mesh.q_breaks[0, 0])
    beyond = 2.0 * (a * math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) + float(special.ndtr(-a)))
    assert float(np.sum(sums)) == pytest.approx(1.0 - beyond, rel=1e-12)


@pytest.mark.parametrize("strips", [
    0.3 * 0.5 ** np.arange(12) * (1.0 + 1e-3 * np.sin(np.arange(12))),  # geometric: accelerated
    np.array([2e-9, -1e-9, 5e-10, 1e-12]),                              # all under the floor
    np.array([1e-3, 9.99e-4, 9.98e-4]),                                  # stops shrinking: raises
    np.array([1e-3, -2e-4, 5e-4, -4.9e-4]),                              # sign change: raises
])
def test_tail_limit_takes_numpy_and_python_floats_alike(strips):
    def outcome(values):
        try:
            return _tail_limit(values, 1e-9, "x")
        except NonconvergenceError as exc:
            return str(exc)

    as_numpy, as_python = outcome(list(strips)), outcome(strips.tolist())
    assert as_numpy == as_python
    if isinstance(as_python, tuple):
        assert [type(v) for v in as_python] == [float, float]
        assert [v.hex() for v in as_numpy] == [v.hex() for v in as_python]
