import math

import numpy as np
import pytest

from wcost import UnsupportedCostError
from wcost.costs import (
    ExpPowerCost,
    LogPowerCost,
    PowerCost,
    QuantileCost,
    check_measure_property,
    format_cost,
    parse_cost,
)

SMOOTH_COSTS = [
    PowerCost(1.5),
    PowerCost(2.0),
    PowerCost(3.0),
    LogPowerCost(0.5),
    LogPowerCost(1.0),
    ExpPowerCost(1.0),
    ExpPowerCost(2.0),
]


def fd_gradient(c, x, y, h=1e-6):
    hx = h * max(1.0, abs(x))
    hy = h * max(1.0, abs(y))
    return (
        (c.evaluate(x + hx, y) - c.evaluate(x - hx, y)) / (2 * hx),
        (c.evaluate(x, y + hy) - c.evaluate(x, y - hy)) / (2 * hy),
    )


def test_evaluate_worked_examples():
    assert PowerCost(2.0).evaluate(1.0, 3.0) == pytest.approx(4.0, abs=1e-14)
    assert ExpPowerCost(1.0).evaluate(0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert QuantileCost(0.3).evaluate(2.0, 5.0) == pytest.approx(2.1, rel=1e-14)


@pytest.mark.parametrize("c", SMOOTH_COSTS + [QuantileCost(0.3), QuantileCost(0.7)], ids=format_cost)
def test_cost_nonnegative_and_zero_on_diagonal(c):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-5, 5, 50)
    ys = rng.uniform(-5, 5, 50)
    v = c.evaluate(xs, ys)
    assert np.all(v >= 0)
    assert np.all(np.asarray(c.evaluate(xs, xs)) == 0.0)


def test_gradient_worked_examples():
    assert PowerCost(2.0).gradient(3.0, 1.0) == pytest.approx((4.0, -4.0), abs=1e-14)
    assert PowerCost(3.0).gradient(2.0, 0.0) == pytest.approx((12.0, -12.0), rel=1e-12)
    assert ExpPowerCost(1.0).gradient(1.0, 0.0) == pytest.approx((math.e, -math.e), rel=1e-12)


@pytest.mark.parametrize("c", SMOOTH_COSTS, ids=format_cost)
def test_gradient_matches_finite_differences(c):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        x, y = rng.uniform(-3, 3, 2)
        if abs(x - y) <= 1e-3:
            continue
        gx, gy = c.gradient(x, y)
        fx, fy = fd_gradient(c, x, y)
        assert gx == pytest.approx(fx, rel=1e-5, abs=1e-9)
        assert gy == pytest.approx(fy, rel=1e-5, abs=1e-9)
        checked += 1


def test_gradient_antisymmetric_equals_radial_slope():
    # For x > y the x-partial is rho'(x-y) and the y-partial its negative.
    for c in SMOOTH_COSTS:
        gx, gy = c.gradient(4.0, 1.5)
        assert gx == pytest.approx(c.rho_prime(2.5), rel=1e-12)
        assert gy == pytest.approx(-gx, rel=1e-12)


def test_gradient_zero_on_diagonal_for_smooth_power():
    assert PowerCost(2.0).gradient(1.0, 1.0) == (0.0, 0.0)


def test_quantile_cost_has_no_gradient():
    with pytest.raises(UnsupportedCostError):
        QuantileCost(0.5).gradient(1.0, 2.0)


def test_measure_property_power_grid():
    ok, worst, _ = check_measure_property(PowerCost(2.0), np.arange(-5.0, 5.01, 0.5))
    assert ok and worst <= 1e-12


def test_measure_property_rejects_product_cost():
    # Rectangle increments of xy are (x'-x)(y'-y) > 0; worst over [-2,2]^2 is 16.
    ok, worst, rect = check_measure_property(lambda x, y: x * y, np.arange(-2.0, 2.01, 0.5))
    assert not ok
    assert worst == pytest.approx(16.0, rel=1e-12)
    assert rect == (-2.0, 2.0, -2.0, 2.0)


def test_measure_property_quantile_cost():
    ok, worst, _ = check_measure_property(QuantileCost(0.5), np.arange(-3.0, 3.01, 0.5))
    assert ok and worst <= 1e-12


@pytest.mark.parametrize("c", SMOOTH_COSTS, ids=format_cost)
def test_measure_property_random_grids(c):
    rng = np.random.default_rng(29)
    for _ in range(5):
        g = np.sort(rng.uniform(-4, 4, 20))
        ok, worst, _ = check_measure_property(c, g)
        assert ok, f"{format_cost(c)} failed with worst increment {worst}"


def test_measure_property_worst_rectangle_matches_brute_force():
    rng = np.random.default_rng(5)
    funcs = [
        lambda x, y: x * y,
        lambda x, y: np.sin(x) * np.cos(y),
        lambda x, y: np.abs(x - y) ** 1.3,
    ]
    for f in funcs:
        g = np.sort(rng.uniform(-3, 3, 12))
        _, worst, _ = check_measure_property(f, g)
        C = f(g[:, None], g[None, :])
        brute = max(
            C[i2, j2] - C[i2, j] - C[i, j2] + C[i, j]
            for i in range(len(g))
            for i2 in range(i + 1, len(g))
            for j in range(len(g))
            for j2 in range(j + 1, len(g))
        )
        assert worst == pytest.approx(brute, abs=1e-12)


def test_measure_property_grid_validation():
    with pytest.raises(ValueError):
        check_measure_property(PowerCost(2.0), [1.0])
    with pytest.raises(ValueError):
        check_measure_property(PowerCost(2.0), [1.0, 1.0, 2.0])


def test_theta1_closed_forms():
    assert PowerCost(2.0).theta1() == 0.0
    assert PowerCost(3.5).theta1() == 0.0
    assert ExpPowerCost(2.0).theta1() == 1.0
    assert LogPowerCost(1.0).theta1() == pytest.approx(0.5)
    assert QuantileCost(0.4).theta1() == 0.0


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_theta1_matches_numeric_growth_slope(beta):
    # Slope of log(t l'(t)) against log(l(t)) between t = 1e6 and 1e9.
    c = LogPowerCost(beta)
    pts = [(math.log(t * c.l_prime(t)), math.log(c.l(t))) for t in (1e6, 1e9)]
    slope = (pts[1][0] - pts[0][0]) / (pts[1][1] - pts[0][1])
    assert slope == pytest.approx(c.theta1(), abs=0.05)


def test_diagonal_contraction_vanishes_with_band_width():
    # The Lipschitz modulus of c on the band |x - y| <= tau is sup rho' on
    # (0, tau], which is rho'(tau) = 1.5 sqrt(tau) for the slowest smooth kind
    # in play here.
    prev = math.inf
    for tau in (1e-1, 1e-3, 1e-5, 1e-7):
        d = PowerCost(1.5).rho_prime(tau)
        assert d < prev
        prev = d
    assert prev == pytest.approx(1.5 * math.sqrt(1e-7), rel=1e-12)
    assert prev < 1e-3


def test_diagonal_contraction_unsupported_for_quantile():
    # the pinball cost's slope does not vanish at the diagonal: it has no radial profile
    with pytest.raises(UnsupportedCostError):
        QuantileCost(0.5).rho_prime(0.1)


@pytest.mark.parametrize("c", SMOOTH_COSTS, ids=format_cost)
def test_rho_convex_on_tail(c):
    # Second differences of rho beyond t = 10 stay (numerically) nonnegative.
    # Cap the range so rho does not overflow for the fast-growing kinds.
    t_hi = 50.0
    with np.errstate(over="ignore"):
        while not math.isfinite(c.rho(t_hi)) or c.rho(t_hi) > 1e300:
            t_hi *= 0.8
    ts = np.linspace(10.0, t_hi, 400)
    second = np.diff(np.asarray(c.rho(ts)), 2)
    assert np.all(second >= -1e-10)


@pytest.mark.parametrize("c", [PowerCost(2.0), PowerCost(3.0), LogPowerCost(1.0), ExpPowerCost(1.0)], ids=format_cost)
def test_subadditivity_beyond_threshold(c):
    rng = np.random.default_rng(17)
    x = rng.uniform(2.0, 50.0, 500)
    y = rng.uniform(2.0, 50.0, 500)
    assert np.all(c.evaluate(x, y) <= np.asarray(c.rho(x)) + np.asarray(c.rho(y)) + 1e-12)


def test_rho_prime_consistent_with_l():
    # rho'(t) = l'(t) exp(l(t)) for every smooth kind.
    for c in SMOOTH_COSTS:
        for t in (0.01, 0.5, 2.0, 7.0):
            assert c.rho_prime(t) == pytest.approx(c.l_prime(t) * math.exp(c.l(t)), rel=1e-12)


def test_l_inverse_round_trip():
    for c in SMOOTH_COSTS:
        for t in (0.5, 1.0, 3.0, 20.0):
            assert c.l_inverse(c.l(t)) == pytest.approx(t, rel=1e-10)


def test_w1_rejected_at_construction():
    with pytest.raises(ValueError):
        PowerCost(1.0)
    with pytest.raises(ValueError):
        PowerCost(0.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LogPowerCost(0.0)
    with pytest.raises(ValueError):
        ExpPowerCost(-1.0)
    with pytest.raises(ValueError):
        QuantileCost(0.0)
    with pytest.raises(ValueError):
        QuantileCost(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_exponents_are_rejected(bad):
    # PowerCost(inf).evaluate(1.0, 2.0) once returned 1.0
    for make in (PowerCost, LogPowerCost, ExpPowerCost, QuantileCost):
        with pytest.raises(ValueError):
            make(bad)
    with pytest.raises(ValueError, match="descriptor power: .* must be finite"):
        parse_cost(f"power({bad})")


@pytest.mark.parametrize("text", ["power(2)", "logpower(0.5)", "exppower(1)", "quantile(0.3)"])
def test_descriptor_round_trip(text):
    c = parse_cost(text)
    canon = format_cost(c)
    assert format_cost(parse_cost(canon)) == canon


def test_descriptor_errors():
    for bad in ["power()", "power(2,3)", "mystery(1)", "power(2", "power(a)"]:
        with pytest.raises(ValueError):
            parse_cost(bad)


def test_quantile_cost_vectorized_evaluation():
    c = QuantileCost(0.3)
    x = np.array([2.0, 5.0])
    y = np.array([5.0, 2.0])
    v = c.evaluate(x, y)
    assert np.allclose(v, [2.1, 0.9], rtol=1e-12)
