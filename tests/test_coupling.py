import math

import numpy as np
import pytest
from scipy import stats

from wcost.coupling import (
    Comonotone,
    Countermonotone,
    GaussianCopula,
    Independent,
    _uniform_open,
    bvn_cdf,
    parse_coupling,
    sample_pairs,
)
from wcost.distributions import Gaussian, Pareto

ALL_COUPLINGS = [
    Independent(),
    Comonotone(),
    Countermonotone(),
    GaussianCopula(0.5),
    GaussianCopula(-0.8),
    GaussianCopula(0.95),
]


# --- copula values --------------------------------------------------------


def test_independent_is_product():
    assert Independent().copula_cdf(0.3, 0.7) == pytest.approx(0.21)


def test_comonotone_is_min():
    assert Comonotone().copula_cdf(0.3, 0.7) == 0.3


def test_countermonotone_is_positive_part():
    assert Countermonotone().copula_cdf(0.3, 0.6) == 0.0
    assert Countermonotone().copula_cdf(0.8, 0.6) == pytest.approx(0.4)


@pytest.mark.parametrize("r", [0.5, -0.5, 0.3, 0.75, 0.9, -0.95, 0.999])
def test_gaussian_copula_median_orthant(r):
    # C(1/2, 1/2) = 1/4 + arcsin(r) / (2 pi)
    want = 0.25 + math.asin(r) / (2 * math.pi)
    assert GaussianCopula(r).copula_cdf(0.5, 0.5) == pytest.approx(want, abs=5e-8)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_frechet_bounds_hold(cp):
    rng = np.random.default_rng(42)
    u = rng.uniform(size=1000)
    v = rng.uniform(size=1000)
    c = cp.copula_cdf(u, v)
    lower = np.maximum(u + v - 1.0, 0.0)
    upper = np.minimum(u, v)
    assert np.all(c >= lower - 1e-12)
    assert np.all(c <= upper + 1e-12)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_copula_boundary_values(cp):
    assert cp.copula_cdf(0.0, 0.6) == 0.0
    assert cp.copula_cdf(0.6, 0.0) == 0.0
    assert cp.copula_cdf(1.0, 0.6) == pytest.approx(0.6, abs=1e-12)
    assert cp.copula_cdf(0.6, 1.0) == pytest.approx(0.6, abs=1e-12)
    assert cp.copula_cdf(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_copula_rejects_out_of_range(cp):
    with pytest.raises(ValueError):
        cp.copula_cdf(-0.1, 0.5)
    with pytest.raises(ValueError):
        cp.copula_cdf(0.5, 1.1)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
@pytest.mark.parametrize("bad", [math.nan, np.array([0.3, math.nan])], ids=["scalar", "array"])
@pytest.mark.parametrize("side", ["u", "v"])
def test_copula_rejects_nan(cp, bad, side):
    args = (bad, 0.5) if side == "u" else (0.5, bad)
    with pytest.raises(ValueError):
        cp.copula_cdf(*args)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_copula_accepts_empty_arrays(cp):
    assert np.asarray(cp.copula_cdf(np.array([]), np.array([]))).size == 0


def test_gaussian_copula_rejects_degenerate_correlation():
    for r in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            GaussianCopula(r)


def test_extreme_correlation_approaches_frechet_bounds():
    grid = np.linspace(0.05, 0.95, 19)
    u, v = np.meshgrid(grid, grid)
    hi = GaussianCopula(0.999).copula_cdf(u, v)
    assert np.max(np.abs(hi - np.minimum(u, v))) < 0.01
    lo = GaussianCopula(-0.999).copula_cdf(u, v)
    assert np.max(np.abs(lo - np.maximum(u + v - 1.0, 0.0))) < 0.01


# --- bivariate normal cdf ---------------------------------------------------


def test_bvn_zero_correlation_factorises():
    xs = np.array([-2.0, -0.5, 0.0, 1.3, 3.0])
    got = bvn_cdf(xs[:, None], xs[None, :], 0.0)
    want = stats.norm.cdf(xs)[:, None] * stats.norm.cdf(xs)[None, :]
    assert np.max(np.abs(got - want)) < 5e-8


@pytest.mark.parametrize("r", [-0.9999, -0.999, -0.9, -0.5, -0.2, 0.0, 0.35, 0.75, 0.925, 0.99,
                               0.9999])
def test_bvn_matches_reference_implementation(r):
    zs = np.array([-3.5, -2.0, -1.0, -0.3, 0.0, 0.4, 1.2, 2.5, 3.7])
    ref = stats.multivariate_normal(mean=[0, 0], cov=[[1, r], [r, 1]])
    worst = 0.0
    for x in zs:
        for y in zs:
            worst = max(worst, abs(bvn_cdf(x, y, r) - ref.cdf([x, y])))
    assert worst < 5e-8


@pytest.mark.parametrize("r", [0.0, 0.5, -0.5, 1.0 - 1e-12, -1.0 + 1e-12])
def test_bvn_origin_matches_sheppard(r):
    assert bvn_cdf(0.0, 0.0, r) == pytest.approx(0.25 + math.asin(r) / (2.0 * math.pi),
                                                 rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("r", [0.3, -0.6])
@pytest.mark.parametrize("y", [-1.0, -0.0, 0.0, 1.5])
def test_bvn_signed_zero_and_subnormals_agree_with_zero(y, r):
    at_zero = bvn_cdf(0.0, y, r)
    assert bvn_cdf(-0.0, y, r) == at_zero
    for tiny in (5e-324, -5e-324, 1e-310, -1e-310):
        assert bvn_cdf(tiny, y, r) == pytest.approx(at_zero, abs=1e-15)
        assert bvn_cdf(tiny, y if y else -tiny, r) == pytest.approx(at_zero, abs=1e-15)


@pytest.mark.parametrize("r", [-0.9, 0.0, 0.3, 0.9])
def test_bvn_infinite_arguments_give_the_exact_limits(r):
    # two infinite arguments once gave NaN through the ratio inf/inf
    inf = math.inf
    assert bvn_cdf(inf, inf, r) == 1.0
    assert bvn_cdf(-inf, -inf, r) == bvn_cdf(inf, -inf, r) == bvn_cdf(-inf, inf, r) == 0.0
    for y in (-2.0, 0.0, 0.7):
        assert bvn_cdf(inf, y, r) == bvn_cdf(y, inf, r) == stats.norm.cdf(y)
        assert bvn_cdf(-inf, y, r) == bvn_cdf(y, -inf, r) == 0.0
    got = bvn_cdf(np.array([inf, -inf, 0.5]), np.array([inf, inf, -0.3]), r)
    assert got[0] == 1.0 and got[1] == 0.0 and got[2] == bvn_cdf(0.5, -0.3, r)


def test_bvn_scalar_arguments_give_a_float():
    assert type(bvn_cdf(np.array(0.3), np.array(-0.2), 0.5)) is float
    assert type(bvn_cdf(0.3, np.float64(-0.2), 0.5)) is float
    assert bvn_cdf(np.array([0.3]), -0.2, 0.5).shape == (1,)


def test_bvn_symmetry_and_monotonicity():
    assert bvn_cdf(0.7, -0.4, 0.6) == pytest.approx(bvn_cdf(-0.4, 0.7, 0.6), abs=1e-14)
    grid = np.linspace(-3, 3, 25)
    vals = bvn_cdf(grid, 1.0, 0.4)
    assert np.all(np.diff(vals) > 0)


def test_bvn_vectorised_matches_scalar():
    xs = np.array([-1.0, 0.2, 2.0])
    ys = np.array([0.5, -0.7, 1.1])
    vec = bvn_cdf(xs, ys, 0.8)
    scl = np.array([bvn_cdf(float(x), float(y), 0.8) for x, y in zip(xs, ys)])
    assert np.array_equal(vec, scl)


# --- sampling ---------------------------------------------------------------


def test_comonotone_sampler_pairs_equal_ranks():
    s = sample_pairs(Comonotone(), Gaussian(0, 1), Gaussian(0, 1), 500, 7)
    assert np.array_equal(s.xs, s.ys)


def test_countermonotone_sampler_has_correlation_minus_one():
    s = sample_pairs(Countermonotone(), Gaussian(0, 1), Gaussian(0, 1), 100_000, 7)
    assert np.corrcoef(s.xs, s.ys)[0, 1] == pytest.approx(-1.0, abs=0.01)


def test_independent_sampler_has_no_rank_correlation():
    s = sample_pairs(Independent(), Gaussian(0, 1), Pareto(5), 100_000, 7)
    assert abs(stats.spearmanr(s.xs, s.ys).statistic) < 0.01


def test_gaussian_copula_sampler_recovers_correlation():
    s = sample_pairs(GaussianCopula(0.6), Gaussian(0, 1), Gaussian(0, 1), 200_000, 99)
    assert np.corrcoef(s.xs, s.ys)[0, 1] == pytest.approx(0.6, abs=0.01)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_sampler_is_deterministic_in_seed(cp):
    a = sample_pairs(cp, Gaussian(0, 1), Pareto(5), 64, 123)
    b = sample_pairs(cp, Gaussian(0, 1), Pareto(5), 64, 123)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = sample_pairs(cp, Gaussian(0, 1), Pareto(5), 64, 124)
    assert not np.array_equal(a.xs, c.xs)


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_sampler_marginals_are_correct(cp):
    # Kolmogorov-Smirnov on each margin at a lenient level
    s = sample_pairs(cp, Gaussian(2, 3), Pareto(4), 20_000, 31)
    px = stats.kstest(s.xs, lambda x: Gaussian(2, 3).cdf(x)).pvalue
    py = stats.kstest(s.ys, lambda x: Pareto(4).cdf(x)).pvalue
    assert px > 1e-4 and py > 1e-4


def test_uniform_draws_stay_below_one_at_the_top_integer():
    class TopDraw:
        def random(self, size):
            return np.array([(2**53 - 1) * 2.0**-53, 0.0])[:size]

    u = _uniform_open(TopDraw(), 2)
    assert np.all((u > 0.0) & (u < 1.0))
    assert u[0] == np.nextafter(1.0, 0.0) and u[1] == 0.5 / 2.0**53


_TOP = (2**53 - 1) * 2.0**-53


class _ScriptedDraws:
    """A generator stub whose ``random`` calls return the given draws in turn."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self, size):
        return np.array(self._draws.pop(0))[:size]


def test_countermonotone_draws_stay_below_one_at_the_bottom_integer():
    u, v = Countermonotone().sample_uniforms(2, _ScriptedDraws([0.0, _TOP]))
    assert np.all((v > 0.0) & (v < 1.0))
    assert v[0] == np.nextafter(1.0, 0.0) and v[1] == 1.0 - u[1]
    assert np.all(np.isfinite(Pareto(3).quantile(v)))


@pytest.mark.parametrize("r", [0.5, -0.8, 0.95])
def test_gaussian_copula_draws_stay_inside_at_the_extreme_integers(r):
    # the four corners of (top, bottom) x (top, bottom) for the two normal scores
    draws = _ScriptedDraws([_TOP, _TOP, 0.0, 0.0], [_TOP, 0.0, _TOP, 0.0])
    u, v = GaussianCopula(r).sample_uniforms(4, draws)
    assert np.all((u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0))
    assert np.all(np.isfinite(Gaussian(0, 1).quantile(u)))
    assert np.all(np.isfinite(Pareto(3).quantile(v)))


def _integer_uniform_open(rng, n):
    """The integer formula that ``_uniform_open`` must reproduce bit for bit."""
    u = (rng.integers(0, 1 << 53, n).astype(np.float64) + 0.5) / 2.0**53
    return np.minimum(u, 1.0 - 2.0**-53)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**63 + 5])
def test_uniform_draws_equal_the_integer_formula(seed):
    u = _uniform_open(np.random.default_rng(seed), 20_000)
    ref = _integer_uniform_open(np.random.default_rng(seed), 20_000)
    assert np.array_equal(u.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_sample_uniforms_equal_the_integer_formula(cp, monkeypatch):
    got = [cp.sample_uniforms(3000, np.random.default_rng(seed)) for seed in (3, 77)]
    monkeypatch.setattr("wcost.coupling._uniform_open", _integer_uniform_open)
    ref = [cp.sample_uniforms(3000, np.random.default_rng(seed)) for seed in (3, 77)]
    for (u, v), (ur, vr) in zip(got, ref):
        assert np.array_equal(u.view(np.uint64), ur.view(np.uint64))
        assert np.array_equal(v.view(np.uint64), vr.view(np.uint64))


def test_sampler_rejects_empty_request():
    with pytest.raises(ValueError):
        sample_pairs(Independent(), Gaussian(0, 1), Gaussian(0, 1), 0, 1)


# --- descriptors -------------------------------------------------------------


@pytest.mark.parametrize("cp", ALL_COUPLINGS)
def test_descriptor_round_trip(cp):
    text = f"gauss({cp.r!r})" if isinstance(cp, GaussianCopula) else type(cp).__name__.lower()
    assert parse_coupling(text) == cp


def test_parse_coupling_is_case_insensitive():
    assert parse_coupling("Comonotone") == Comonotone()
    assert parse_coupling(" GAUSS(0.5) ") == GaussianCopula(0.5)


@pytest.mark.parametrize("text", ["", "gauss", "gauss()", "gauss(x)", "frank(2)"])
def test_parse_coupling_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_coupling(text)
