import math

import numpy as np
import pytest
from scipy.special import ndtr

from wcost._model import _scalar_like
from wcost.distributions import (
    Distribution,
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


_SCORES = np.linspace(-4.0, 4.0, 801)


@pytest.mark.parametrize("d, m, s", [
    (Gaussian(0.0, 1.0), 0.0, 1.0),
    (Gaussian(-1.5, 0.7), -1.5, 0.7),
    (LocationScale(Gaussian(0.0, 1.0), 2.0, 3.0), 3.0, 2.0),
    (LocationScale(Gaussian(0.0, 1.0), 0.25, -1.0), -1.0, 0.25),
], ids=["gaussian(0,1)", "gaussian(-1.5,0.7)", "locscale(gaussian(0,1),2,3)",
        "locscale(gaussian(0,1),0.25,-1)"])
def test_a_gaussian_score_map_is_affine_in_the_score(d, m, s):
    x = d._score_quantile(_SCORES)
    assert np.array_equal(x.view(np.uint64), (m + s * _SCORES).view(np.uint64))
    # the round trip through Phi and its inverse it replaces: 1.1e-16 / phi(z) at most
    assert np.max(np.abs(x - d.quantile(ndtr(_SCORES)))) <= 1e-11 * s


@pytest.mark.parametrize("d", [Pareto(3.0), Weibull(0.8), Exponential(2.5), reflect(Pareto(4.0)),
                               LocationScale(Weibull(2.0), 0.5, -1.0)], ids=format_distribution)
def test_the_default_score_map_is_the_quantile_of_the_clamped_level(d):
    # ndtr(9) rounds to 1.0; the level is clamped to the largest double below 1
    z = np.append(_SCORES, [8.5, 9.0, 12.0])
    u = np.minimum(ndtr(z), np.nextafter(1.0, 0.0))
    x = d._score_quantile(z)
    assert np.all(np.isfinite(x))
    assert np.array_equal(x.view(np.uint64), np.asarray(d.quantile(u)).view(np.uint64))


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


@pytest.mark.parametrize("law, limit", [
    (Gaussian(0.0, 1e-200), (2.0, math.inf)),  # 2 sd^2 underflows
    (Gaussian(0.0, 1e200), (2.0, 0.0)),  # 2 sd^2 overflows
    (LocationScale(Weibull(2.0), 1e-200, 0.0), (2.0, math.inf)),  # a^-2 overflows
    (LocationScale(Exponential(1.0), 1e200, 0.0), (1.0, 1e-200)),
    (LocationScale(Pareto(3.0), 1e-200, 0.0), (0.0, 3.0)),  # the index does not scale
    # a C the base has lost against a factor past the doubles the other way: 0
    (LocationScale(Gaussian(0.0, 1e200), 1e-200, 0.0), (2.0, 0.0)),
    (LocationScale(Gaussian(0.0, 1e-200), 1e200, 0.0), (2.0, 0.0)),
    (LocationScale(Gaussian(0.0, 1e200), 1e200, 0.0), (2.0, 0.0)),
    (LocationScale(Gaussian(0.0, 1e-200), 1e-200, 0.0), (2.0, math.inf)),
])
def test_tail_constants_take_their_limits_past_the_doubles(law, limit):
    assert law.tail_constants() == limit
    if math.isinf(law.support()[0]):  # a symmetric law: its left tail is its right one
        assert reflect(law).tail_constants() == limit


def test_a_lost_c_scaled_back_stays_below_the_true_one():
    # 2 sd^2 underflows, so the base's C is inf, which bounds C only from below;
    # scaled by a = 1e160 it stays below C = 1/2 of the unit-sd law it equals
    assert 0.0 < LocationScale(Gaussian(0.0, 1e-160), 1e160, 0.0).tail_constants()[1] <= 0.5
    assert LocationScale(Gaussian(0.0, 1e-200), 10.0, 0.0).tail_constants()[1] > 1e300


def test_a_reflection_declares_the_constants_of_its_closed_form():
    assert Reflected(Gaussian(1.0, 0.5)).tail_constants() == (2.0, 2.0)
    assert Reflected(Reflected(Weibull(1.5))).tail_constants() == (1.5, 1.0)
    assert Reflected(LocationScale(reflect(Pareto(3.0)), 2.0, 1.0)).tail_constants() == (0.0, 3.0)
    # bounded above: no right tail to declare
    assert Reflected(Pareto(3.0)).tail_constants() is None


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
@pytest.mark.parametrize("fn", ["quantile", "density_quantile"])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    # Pareto(inf).quantile(0.5) once returned 1.0, and gaussian(nan,1) reached
    # the variance's tails before anything complained
    for make in (lambda v: Gaussian(v, 1.0), lambda v: Gaussian(0.0, v), Pareto, Weibull,
                 Exponential, lambda v: LocationScale(Gaussian(0.0, 1.0), v, 0.0),
                 lambda v: LocationScale(Gaussian(0.0, 1.0), 1.0, v)):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


@pytest.mark.parametrize("text", ["gaussian(nan,1)", "gaussian(inf,1)", "gaussian(0,inf)",
                                  "pareto(inf)", "weibull(nan)", "exponential(inf)",
                                  "locscale(gaussian(0,1),inf,0)", "locscale(pareto(3),1,-inf)"])
def test_descriptor_with_a_non_finite_argument_names_the_descriptor(text):
    with pytest.raises(ValueError, match=rf"descriptor {text.split('(')[0]}: .* must be finite"):
        parse_distribution(text)


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


class _SpyExponential(Distribution):
    """Exponential(1) that records which quantile side it was read on, and at how many points."""

    def __init__(self):
        self.calls = []

    def quantile(self, u):
        self.calls.append(("quantile", np.size(u)))
        return Exponential(1.0).quantile(u)

    def _psi_inverse(self, ya):
        self.calls.append(("psi_inverse", ya.size))
        return Exponential(1.0).psi_inverse(ya)


@pytest.mark.parametrize("u, calls", [
    ([1e-20, 0.1, 0.4999], [("psi_inverse", 3)]),
    ([0.5, 0.9], [("quantile", 2)]),
    ([0.25, 0.5, 1e-9, 0.75], [("quantile", 2), ("psi_inverse", 2)]),
])
def test_reflected_quantile_reads_each_base_side_only_at_its_own_levels(u, calls):
    # below 1/2 only psi_inverse is read, from 1/2 up only the quantile; -X
    # for X ~ Exp(1) has the quantile log u
    spy = _SpyExponential()
    got = Reflected(spy).quantile(np.array(u))
    assert spy.calls == calls
    assert got == pytest.approx(np.log(u), rel=1e-14)


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
