import math

import numpy as np
import pytest
from scipy import special

from wcost import NonconvergenceError
from wcost.distributions import Gaussian
from wcost.quadrature import (
    CumulativeMesh,
    QuadratureConfig,
    _tolerance,
    integrate_1d,
    integrate_open01,
)

CFG = QuadratureConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)


def _one_panel(f, a, b):
    """The Kronrod value and Kronrod-minus-Gauss gap of f's one panel [a, b]."""
    mesh = CumulativeMesh(lambda x: f(x)[None], [a, b])
    sums, gaps = mesh.panel_sums(mesh.p[0])
    return float(sums[0]), float(gaps[0])


def test_gk15_exact_for_degree_20_polynomial():
    v, _ = _one_panel(lambda x: x**20, 0.0, 1.0)
    assert v == pytest.approx(1.0 / 21.0, rel=1e-14)


def test_gk15_error_estimate_sees_gauss_kronrod_gap():
    # On a rough integrand the embedded 7-point rule disagrees visibly.
    _, err = _one_panel(lambda x: np.abs(x - 0.3333) ** 0.51, 0.0, 1.0)
    assert err > 1e-8


def test_integrate_1d_classic_values():
    v, e, scale, _ = integrate_1d(np.sin, [0.0, math.pi], CFG)
    assert v == pytest.approx(2.0, rel=1e-12) and scale == v
    v, e, scale, _ = integrate_1d(lambda x: np.exp(-x * x), [-10.0, 10.0], CFG)
    assert v == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_integrate_1d_rejects_bad_interval():
    for breaks in ([1.0, 1.0], [1.0], [0.0, 2.0, 1.0], [0.0, math.inf]):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, breaks, CFG)


def test_integrate_1d_calls_its_integrand_once_per_panel():
    # the benchmark counts integrand calls as panels, and integrate_open01
    # reads each side's end term at the first or last node of the final mesh
    calls = []

    def f(x):
        calls.append(np.array(x))
        return np.abs(x - 0.3333) ** 0.51

    v, e, _, mesh = integrate_1d(f, [0.0, 0.5, 1.0], CFG)
    assert v == pytest.approx((0.3333**1.51 + 0.6667**1.51) / 1.51, rel=1e-7)
    assert len(calls) > 2  # the start mesh was refined
    assert all(t.shape == (15,) and np.all(np.diff(t) > 0.0) for t in calls)
    # no panel is sampled twice: each call's middle node is its panel's midpoint
    assert len({float(t[7]) for t in calls}) == len(calls)
    # every split turns one sampled panel into two new ones
    assert (len(calls) - 2) % 2 == 0
    # the final mesh holds the samples in domain order, its ends among them
    assert mesh.panels == len(calls) - (len(calls) - 2) // 2
    first, last = min(calls, key=lambda t: t[0]), max(calls, key=lambda t: t[-1])
    assert mesh.p[0, 0, 0] == (np.abs(first - 0.3333) ** 0.51)[0]
    assert mesh.p[0, -1, -1] == (np.abs(last - 0.3333) ** 0.51)[-1]


@pytest.mark.parametrize("window", [(0.0, 1.0), (0.25, 0.75), (0.1, 0.3), (0.6, 0.9)])
def test_open01_calls_its_integrand_once_per_panel_on_one_side_of_sigma_0(window):
    # so an integrand may pick its side by its first node
    calls = []

    def f(t):
        calls.append(np.array(t))
        return np.exp(-np.abs(t))

    integrate_open01(f, (1.0, 1.0), CFG, window=window)
    assert calls
    assert all(t.shape == (15,) and np.all(np.diff(t) > 0.0) and (t[-1] < 0.0 or t[0] > 0.0)
               for t in calls)


def test_integrate_1d_from_a_start_mesh_without_zero():
    v, e, _, _ = integrate_1d(np.sin, [1.0, 2.0, 3.0], CFG)
    assert abs(v - (math.cos(1.0) - math.cos(3.0))) <= e


def _on_sigma(f):
    """The integrand of f(u, 1 - u) over (0, 1) along sigma, for ``integrate_open01``.

    It reads the small one of u and 1 - u as e^{-s}, so no digit is lost.
    """
    def g(t):
        w = np.exp(-(np.abs(t) + math.log(2.0)))
        return np.where(t < 0.0, f(w, 1.0 - w), f(1.0 - w, w)) * w
    return g


def test_open01_handles_power_singularities_exactly():
    # on the left half u^{-a} du/ds = e^{-(1 - a) s}: a pure exponential decay
    # at rate 1 - a, and likewise (1 - u)^{-a} on the right
    v, e = integrate_open01(_on_sigma(lambda u, v: 1.0 / np.sqrt(u)), (0.5, 1.0), CFG)
    assert v == pytest.approx(2.0, rel=1e-10)
    v, e = integrate_open01(_on_sigma(lambda u, v: u**-0.9), (0.1, 1.0), CFG)
    assert v == pytest.approx(10.0, rel=1e-10)
    v, e = integrate_open01(_on_sigma(lambda u, v: v ** (-2.0 / 3.0)), (1.0, 1.0 / 3.0), CFG)
    assert v == pytest.approx(3.0, rel=1e-8)


def _score(u, v):
    return np.where(u < 0.5, special.ndtri(u), -special.ndtri(v))


def test_open01_smooth_integrand_error_estimate_honest():
    v, e = integrate_open01(_on_sigma(lambda u, w: (1.0 + _score(u, w)) ** 2), (1.0, 1.0), CFG)
    assert v == pytest.approx(2.0, rel=1e-6)
    assert abs(v - 2.0) <= max(e, 1e-7)


def test_open01_constant():
    # the tail coordinate truncates each side where e^{-s} / r meets the
    # tolerance, so a constant comes out within the error estimate, not exact
    v, e = integrate_open01(_on_sigma(lambda u, w: 4.0 + 0.0 * u), (1.0, 1.0), CFG)
    assert abs(v - 4.0) <= e <= _tolerance(CFG, 4.0)


def test_open01_detects_log_divergence():
    # 1 / (1 - u) is e^{s}: times e^{-s} it does not decay, rate 0
    with pytest.raises(NonconvergenceError, match="the right tail decays at rate r = 0 <= 0"
                                                  ".*divergent"):
        integrate_open01(_on_sigma(lambda u, v: 1.0 / v), (1.0, 0.0), CFG)
    with pytest.raises(NonconvergenceError, match="the left tail .* r = -0.5 <= 0.*divergent"):
        integrate_open01(_on_sigma(lambda u, v: u**-1.5), (-0.5, 1.0), CFG)


def test_open01_detects_near_frontier_divergence():
    # rate 0.005: the depth where e^{-r s} / r meets the tolerance is past the doubles
    with pytest.raises(NonconvergenceError, match="right tail .* rate r = 0.005.*frontier") as info:
        integrate_open01(_on_sigma(lambda u, v: v**-0.995), (1.0, 0.005), CFG)
    assert "divergent" not in str(info.value)


def test_open01_starts_at_the_depth_cap_and_reads_the_end_term_there():
    # rate 0.01 asks for a depth past s = 700; the integrand decays at rate 1,
    # so the end term read at the cap is far below the tolerance
    v, e = integrate_open01(_on_sigma(lambda u, w: 1.0 + 0.0 * u), (0.01, 0.01), CFG)
    assert abs(v - 1.0) <= e <= _tolerance(CFG, 1.0)


def test_open01_mixed_rate_endpoints():
    # Different singularity strength at each end, each side at its own rate.
    # Integral of u^{-1/2}(1-u)^{-1/4} is B(1/2, 3/4).
    exact = math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)
    v, e = integrate_open01(_on_sigma(lambda u, w: u**-0.5 * w**-0.25), (0.5, 0.75), CFG)
    assert v == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where, side", [(lambda u, v: v < 1e-6, "right"),
                                         (lambda u, v: u < 1e-6, "left"),
                                         (lambda u, v: np.abs(u - 0.5) < 0.1, "left|right")],
                         ids=["right-tail", "left-tail", "middle"])
def test_open01_raises_on_a_non_finite_integrand(bad, where, side):
    # the first non-finite sample raises, before it can reach the value or
    # the error estimate, in the tail or in the middle
    with pytest.raises(NonconvergenceError, match=f"not finite near s = .* on the ({side}) tail"):
        integrate_open01(_on_sigma(lambda u, v: np.where(where(u, v), bad, 1.0)), (1.0, 1.0), CFG)


@pytest.mark.parametrize("window", [(0.3, 0.2), (np.nan, 0.5), (-0.5, 1.0), (0.2, 1.5)])
def test_open01_rejects_a_window_outside_the_unit_interval(window):
    with pytest.raises(ValueError, match=r"bad integration window \("):
        integrate_open01(_on_sigma(lambda u, w: 1.0 + 0.0 * u), (1.0, 1.0), CFG, window=window)


@pytest.mark.parametrize("window", [(0.0, 1e-5), (0.99999, 1.0), (0.0, 0.3), (0.7, 1.0)])
def test_open01_rejects_a_half_open_window(window):
    # the first two once raised "bad panel breaks": the open side's first depth
    # lay inside the closed end; the last two returned a value
    with pytest.raises(ValueError, match=r"bad integration window \(.*\): the full interval or "
                                         "strictly interior"):
        integrate_open01(lambda t: np.exp(-10.0 * np.abs(t)), (10.0, 10.0), CFG, window=window)


def test_open01_window_whose_ends_round_to_one_sigma_is_empty():
    # log(2 lo) and log(2 hi) are one double
    window = (1e-10, 1.0000000000000012e-10)
    assert integrate_open01(_on_sigma(lambda u, w: 1.0 + 0.0 * u), (1.0, 1.0), CFG,
                            window=window) == (0.0, 0.0)


def test_open01_measures_its_tolerance_against_the_integral_of_the_absolute_value():
    # the normal score's halves cancel to about 1e-17; against that |value| no
    # error estimate is met, against E|Z| = sqrt(2 / pi) it is
    cfg = QuadratureConfig(abs_tol=1e-300)
    v, e = integrate_open01(_on_sigma(_score), (0.9, 0.9), cfg)
    assert abs(v) <= e <= cfg.rel_tol * math.sqrt(2.0 / math.pi)


def test_results_are_deterministic():
    g = _on_sigma(lambda u, w: (1.0 + _score(u, w)) ** 2)
    a = integrate_open01(g, (1.0, 1.0), CFG)
    b = integrate_open01(g, (1.0, 1.0), CFG)
    assert a[0].hex() == b[0].hex() and a[1].hex() == b[1].hex()


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
