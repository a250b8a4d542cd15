import math

import numpy as np
import pytest

from wcost import SingularPointError
from wcost._model import _scalar_like
from wcost.distributions import (
    Exponential,
    Gaussian,
    LocationScale,
    Pareto,
    Reflected,
    Weibull,
    format_distribution,
    parse_distribution,
    reflect,
)

ALL_LAWS = [
    Gaussian(0.0, 1.0),
    Gaussian(-1.5, 0.7),
    Pareto(2.0),
    Pareto(5.0),
    Weibull(0.8),
    Weibull(2.0),
    Exponential(1.0),
    Exponential(2.5),
    LocationScale(Gaussian(0.0, 1.0), 2.0, 3.0),
    LocationScale(Pareto(3.0), 0.5, -1.0),
    reflect(Weibull(2.0)),
]


_ARRAY_0D = np.array(2.0)
_ARRAY_1D = np.array([1.0, 2.0])


@pytest.mark.parametrize("templates, scalar", [
    ((1.5,), True),
    ((3,), True),
    ((np.float64(1.5),), True),
    ((_ARRAY_0D,), True),
    ((_ARRAY_1D,), False),
    ((np.ones((2, 2)),), False),
    (([1.0, 2.0],), False),
    ((None,), False),
    ((1.5, np.float64(2.0)), True),
    ((3, _ARRAY_0D), True),
    ((1.5, _ARRAY_1D), False),
    ((_ARRAY_1D, 1.5), False),
    ((np.int64(3), [1.0]), False),
    ((), True),
], ids=repr)
def test_scalar_like_truth_table(templates, scalar):
    def reference(value, *templates):
        if all(np.isscalar(t) or getattr(t, "ndim", 1) == 0 for t in templates):
            return float(value)
        return value

    value = np.array(0.25)
    got = _scalar_like(value, *templates)
    assert type(got) is type(reference(value, *templates))
    assert (type(got) is float) is scalar and got == 0.25


def test_pareto_cdf_worked_example():
    assert Pareto(2.0).cdf(2.0) == pytest.approx(0.75, abs=1e-15)


def test_pareto_quantile_worked_example():
    assert Pareto(1.0).quantile(0.5) == pytest.approx(2.0, abs=1e-15)


def test_pareto_density_quantile_worked_example():
    # h(u) = p (1-u)^{1 + 1/p}
    assert Pareto(2.0).density_quantile(0.5) == pytest.approx(2.0 * 0.5**1.5, rel=1e-14)


def test_pareto_companion_is_constant():
    # H(u) = 1/p for every u
    p = Pareto(3.0)
    for u in (0.01, 0.3, 0.5, 0.9, 0.999):
        assert p.companion(u) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_weibull_companion_worked_example():
    # H(u) = 1 / (q log(1/(1-u))); at u = 1 - e^{-1} the log is 1.
    assert Weibull(2.0).companion(1.0 - math.exp(-1.0)) == pytest.approx(0.5, rel=1e-12)


def test_companion_singular_where_quantile_vanishes():
    with pytest.raises(SingularPointError):
        Gaussian(0.0, 1.0).companion(0.5)


def test_tail_exponent_worked_examples():
    assert Pareto(2.0).tail_exponent(math.e) == pytest.approx(2.0, rel=1e-14)
    assert Weibull(3.0).tail_exponent(2.0) == pytest.approx(8.0, rel=1e-14)


def test_psi_inverse_exponential_identity():
    assert Exponential(1.0).psi_inverse(5.0) == pytest.approx(5.0, rel=1e-12)


def test_locscale_median():
    assert LocationScale(Gaussian(0.0, 1.0), 2.0, 3.0).quantile(0.5) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("d", ALL_LAWS, ids=format_distribution)
def test_quantile_inverts_cdf(d):
    for u in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
        x = d.quantile(u)
        assert d.cdf(x) == pytest.approx(u, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("d", ALL_LAWS, ids=format_distribution)
def test_quantile_monotone(d):
    u = np.linspace(1e-6, 1 - 1e-6, 201)
    x = np.asarray(d.quantile(u))
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("d", ALL_LAWS, ids=format_distribution)
def test_cdf_plus_sf_is_one(d):
    lo, hi = d.support()
    xs = np.asarray(d.quantile(np.linspace(0.05, 0.95, 19)))
    assert np.allclose(d.cdf(xs) + d.sf(xs), 1.0, atol=1e-12)
    # outside the support on the left, cdf is 0 and sf is 1
    if math.isfinite(lo):
        assert d.cdf(lo - 1.0) == 0.0
        assert d.sf(lo - 1.0) == 1.0


@pytest.mark.parametrize("d", ALL_LAWS, ids=format_distribution)
def test_density_quantile_matches_cdf_slope(d):
    # h(u) = d/du of nothing directly, but F(Q(u+eps)) - F(Q(u)) ~ eps means
    # Q'(u) = 1/h(u); check with a central difference on Q.
    for u in (0.1, 0.5, 0.9):
        eps = 1e-6
        slope = (d.quantile(u + eps) - d.quantile(u - eps)) / (2 * eps)
        assert 1.0 / d.density_quantile(u) == pytest.approx(slope, rel=1e-5)


@pytest.mark.parametrize("d", ALL_LAWS, ids=format_distribution)
def test_psi_inverse_inverts_tail_exponent(d):
    for y in (0.5, 2.0, 10.0, 40.0):
        x = d.psi_inverse(y)
        assert d.tail_exponent(x) == pytest.approx(y, rel=1e-9)


def test_gaussian_tail_exponent_beyond_underflow():
    # At z = 40 the survival probability underflows to 0 in double precision,
    # but psi stays finite and close to z^2/2.
    g = Gaussian(0.0, 1.0)
    y = g.tail_exponent(40.0)
    assert math.isfinite(y)
    assert y == pytest.approx(0.5 * 40.0**2, rel=0.01)
    assert g.psi_inverse(y) == pytest.approx(40.0, rel=1e-9)


def test_gaussian_tail_class_and_supports():
    assert Gaussian(0.0, 1.0).tail_constants()[0] == 2.0
    assert Pareto(4.0).tail_constants()[0] == 0.0
    assert Weibull(1.7).tail_constants()[0] == 1.7
    assert Exponential(2.0).tail_constants()[0] == 1.0
    assert Pareto(2.0).support() == (1.0, math.inf)
    assert Weibull(2.0).support() == (0.0, math.inf)
    assert reflect(Pareto(2.0)).support() == (-math.inf, -1.0)


def test_tail_constants_scale_with_location_scale():
    # psi(x) ~ C x^gamma, or C log x in the Pareto class (gamma = 0)
    assert Gaussian(3.0, 0.5).tail_constants() == (2.0, 2.0)
    assert Exponential(2.5).tail_constants() == (1.0, 2.5)
    assert Weibull(0.7).tail_constants() == (0.7, 1.0)
    assert Pareto(4.0).tail_constants() == (0.0, 4.0)
    assert LocationScale(Exponential(1.0), 0.5, 3.0).tail_constants() == (1.0, 2.0)
    assert LocationScale(Pareto(3.0), 100.0, 0.0).tail_constants() == (0.0, 3.0)
    assert reflect(Exponential(1.0)).tail_constants() is None


def test_weibull_density_at_zero_is_its_right_limit():
    # the bits away from 0 do not move; at 0 itself the density is the limit
    for q, at_zero in ((0.3, math.inf), (0.5, math.inf), (1.0, 1.0), (2.0, 0.0)):
        law = Weibull(q)
        assert law.pdf(0.0) == at_zero and law.pdf(-1.0) == 0.0
        assert np.array_equal(law.pdf(np.array([-1.0, 0.0])), [0.0, at_zero])
    # 1 + Weibull(0.5) reads its quantile 1.0 exactly where u^2 is below ulp(1)
    shifted = LocationScale(Weibull(0.5), 1.0, 1.0)
    assert shifted.quantile(1e-9) == 1.0 and shifted.pdf(1.0) == math.inf


def test_quantile_rejects_closed_endpoints():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            Gaussian(0.0, 1.0).quantile(bad)


@pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Pareto(3.0)], ids=["gauss", "pareto"])
@pytest.mark.parametrize("fn", ["quantile", "density_quantile", "companion"])
@pytest.mark.parametrize("u", [math.nan, np.array([0.7, math.nan])], ids=["scalar", "array"])
def test_quantile_side_rejects_nan(d, fn, u):
    with pytest.raises(ValueError):
        getattr(d, fn)(u)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Pareto(-1.0)
    with pytest.raises(ValueError):
        Weibull(0.0)
    with pytest.raises(ValueError):
        Exponential(-2.0)
    with pytest.raises(ValueError):
        LocationScale(Gaussian(0.0, 1.0), 0.0, 1.0)


def test_reflect_closed_forms():
    assert reflect(Gaussian(1.0, 2.0)) == Gaussian(-1.0, 2.0)
    assert reflect(reflect(Pareto(2.0))) == Pareto(2.0)
    r = reflect(LocationScale(Pareto(2.0), 2.0, 5.0))
    assert isinstance(r, LocationScale) and r.b == -5.0 and isinstance(r.base, Reflected)


def test_reflect_law_is_negated_variable():
    d = Pareto(2.0)
    r = reflect(d)
    assert r.cdf(-2.0) == pytest.approx(d.sf(2.0), rel=1e-14)
    assert r.quantile(0.25) == pytest.approx(-2.0, rel=1e-12)
    # right tail of -X for bounded-above support reaches psi = +inf territory fast
    x = r.psi_inverse(1.0)
    assert r.sf(x) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_reflected_quantile_keeps_the_lower_tail():
    # log(u) for reflect(Exponential(1)); reading the base at 1 - u turned
    # 1e-15 into 9.992e-16 and 1e-20 into 0, which the base quantile rejects
    r = reflect(Exponential(1.0))
    assert r.quantile(1e-15) == pytest.approx(math.log(1e-15), rel=1e-15)
    assert r.quantile(1e-20) == pytest.approx(math.log(1e-20), rel=1e-15)
    u = np.array([1e-20, 0.25, 0.5, 0.9])
    assert np.array_equal(r.quantile(u), [r.quantile(v) for v in u])
    # from 1/2 up, 1 - u is exact and the base quantile reads it as before
    assert r.quantile(0.9) == -Exponential(1.0).quantile(1.0 - 0.9)


@pytest.mark.parametrize(
    "text",
    [
        "gaussian(0,1)",
        "pareto(3)",
        "weibull(2)",
        "exponential(1.5)",
        "locscale(gaussian(0,1),2,3)",
        "reflect(pareto(2))",
        "locscale(reflect(weibull(2)),0.5,-1)",
    ],
)
def test_descriptor_round_trip(text):
    d = parse_distribution(text)
    canon = format_distribution(d)
    assert format_distribution(parse_distribution(canon)) == canon


def test_descriptor_errors():
    for bad in ["gaussian(0)", "pareto()", "pareto(1,2)", "mystery(1)", "gaussian(0,1", "pareto(x)"]:
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_descriptor_whitespace_and_case():
    d = parse_distribution("  Gaussian( 0 , 1 ) ")
    assert d == Gaussian(0.0, 1.0)


def test_vectorized_evaluation():
    d = LocationScale(Gaussian(0.0, 1.0), 2.0, 3.0)
    u = np.array([0.1, 0.5, 0.9])
    q = d.quantile(u)
    assert isinstance(q, np.ndarray) and q.shape == (3,)
    assert np.allclose(d.cdf(q), u, atol=1e-12)
    h = d.density_quantile(u)
    assert isinstance(h, np.ndarray) and np.all(h > 0)
