import math

import numpy as np
import pytest
from scipy import special

from wcost.costs import ExpPowerCost, LogPowerCost, PowerCost, QuantileCost
from wcost.distributions import Exponential, Gaussian, LocationScale, Pareto, Weibull
from wcost.errors import NonconvergenceError
from wcost.estimate import (
    PairedSample,
    empirical_cost,
    empirical_quantile,
    exact_cost,
    read_sample_csv,
    trimmed_empirical_cost,
    write_sample_csv,
)
from wcost import quadrature
from wcost.quadrature import QuadratureConfig

from stable_sort_reference import empirical_cost_ref, same_bits, tied_sample, trimmed_cost_ref

P2 = PowerCost(2.0)


# --- paired samples -----------------------------------------------------------


def test_paired_sample_basic():
    s = PairedSample([3.0, 1.0], [0.0, 2.0])
    assert s.n == 2
    xs, ys = s.sorted_columns()
    assert xs.tolist() == [1.0, 3.0]
    assert ys.tolist() == [0.0, 2.0]


def test_paired_sample_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="lengths differ"):
        PairedSample([1.0, 2.0], [1.0])


def test_paired_sample_rejects_empty():
    with pytest.raises(ValueError):
        PairedSample([], [])


def test_paired_sample_rejects_matrix_input():
    with pytest.raises(ValueError):
        PairedSample(np.ones((2, 2)), np.ones((2, 2)))


def test_sorted_columns_cached():
    s = PairedSample([2.0, 1.0, 3.0], [6.0, 4.0, 5.0])
    a = s.sorted_columns()
    b = s.sorted_columns()
    assert a[0] is b[0] and a[1] is b[1]


@pytest.mark.parametrize("c", [PowerCost(2.0), PowerCost(3.0), LogPowerCost(0.5),
                               ExpPowerCost(0.5), QuantileCost(0.3)],
                         ids=["power2", "power3", "logpower", "exppower", "quantile"])
def test_estimates_equal_a_stable_sort_reference_on_ties_and_signed_zeros(c):
    xs, ys = tied_sample()
    # the default argsort orders these ties differently from a stable one
    assert not np.array_equal(np.argsort(xs), np.argsort(xs, kind="stable"))
    s = PairedSample(xs, ys)
    assert same_bits(empirical_cost(s, c), empirical_cost_ref(xs, ys, c))
    assert same_bits(trimmed_empirical_cost(s, c, 0.05), trimmed_cost_ref(xs, ys, c, 0.05))


# --- empirical estimator ------------------------------------------------------


def test_empirical_cost_two_point_example():
    # sorted pairing matches 1<->0 and 3<->2: (1/2)(1 + 1) = 1
    assert empirical_cost(PairedSample([3, 1], [0, 2]), P2) == 1.0


def test_empirical_cost_shifted_triple():
    assert empirical_cost(PairedSample([1, 2, 3], [4, 5, 6]), P2) == 9.0


def test_empirical_cost_invariant_under_permutations():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=40)
    ys = rng.normal(size=40)
    base = empirical_cost(PairedSample(xs, ys), P2)
    perm = rng.permutation(40)
    assert empirical_cost(PairedSample(xs[perm], ys), P2) == base
    assert empirical_cost(PairedSample(xs, ys[perm]), P2) == base


def test_trimmed_two_point_example():
    # n=2, eps=1/4: each order-statistic cell keeps length 1/4.
    s = PairedSample([3, 1], [0, 2])
    assert trimmed_empirical_cost(s, P2, 0.25) == 0.5


def test_trimmed_zero_eps_is_bit_identical():
    rng = np.random.default_rng(11)
    s = PairedSample(rng.normal(size=17), rng.normal(size=17))
    assert trimmed_empirical_cost(s, P2, 0.0) == empirical_cost(s, P2)


def test_trimmed_matches_direct_window_sum():
    rng = np.random.default_rng(3)
    s = PairedSample(rng.normal(size=9), rng.normal(size=9))
    eps = 0.17
    xs, ys = s.sorted_columns()
    total = 0.0
    for i in range(9):
        lo, hi = i / 9, (i + 1) / 9
        overlap = max(0.0, min(hi, 1 - eps) - max(lo, eps))
        total += overlap * P2.evaluate(xs[i], ys[i])
    assert trimmed_empirical_cost(s, P2, eps) == pytest.approx(total, rel=1e-14)


def test_trimmed_nonincreasing_in_eps():
    rng = np.random.default_rng(8)
    s = PairedSample(rng.normal(size=25), rng.normal(size=25))
    vals = [trimmed_empirical_cost(s, P2, e) for e in (0.0, 0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("eps", [-0.01, 0.5, 0.7])
def test_trimmed_rejects_bad_eps(eps):
    s = PairedSample([1.0], [2.0])
    with pytest.raises(ValueError, match="trim level"):
        trimmed_empirical_cost(s, P2, eps)


def _with_non_finite(column, bad):
    """Sixty pairs of a smooth sample with ``bad`` at position 17 of ``column``."""
    xs, ys = np.linspace(-1.0, 1.0, 60), np.linspace(0.5, 3.0, 60) ** 2
    (xs if column == "x" else ys)[17] = bad
    return PairedSample(xs, ys)


NON_FINITE = [(column, bad) for column in ("x", "y") for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("column, bad", NON_FINITE)
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_estimators_reject_non_finite_values(column, bad, eps):
    s = _with_non_finite(column, bad)
    with pytest.raises(ValueError, match=f"^{column} column holds a non-finite value"):
        trimmed_empirical_cost(s, P2, eps)
    with pytest.raises(ValueError, match=f"^{column} column holds a non-finite value"):
        empirical_cost(s, P2)


def test_empirical_quantile_worked_examples():
    col = [5.0, 1.0, 3.0]
    assert empirical_quantile(col, 0.5) == 3.0
    assert empirical_quantile(col, 1.0) == 5.0
    assert empirical_quantile(col, 1 / 3) == 1.0
    # just past a cell edge jumps to the next order statistic
    assert empirical_quantile(col, 1 / 3 + 1e-12) == 3.0


def test_empirical_quantile_tiny_u_gives_minimum():
    assert empirical_quantile([4.0, 2.0], 1e-12) == 2.0


@pytest.mark.parametrize("u", [0.0, -0.1, 1.0 + 1e-9])
def test_empirical_quantile_rejects_bad_levels(u):
    with pytest.raises(ValueError):
        empirical_quantile([1.0], u)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("u", [0.5, 1.0])
def test_empirical_quantile_rejects_non_finite_values(bad, u):
    with pytest.raises(ValueError, match="non-finite"):
        empirical_quantile([1.0, bad, 3.0], u)


# --- population values --------------------------------------------------------


def test_exact_cost_unit_shift_gaussians():
    # equal spreads: the quantile gap is the constant mean gap
    assert exact_cost(Gaussian(0, 1), Gaussian(1, 1), P2) == pytest.approx(1.0, rel=1e-9)


def test_exact_cost_scale_and_shift_gaussians():
    got = exact_cost(LocationScale(Gaussian(0, 1), 2.0, 3.0), Gaussian(1, 1), P2)
    # (3-1)^2 + (2-1)^2 * Var(Z) = 5
    assert got == pytest.approx(5.0, rel=1e-9)


def test_exact_cost_heavy_tails_diverge():
    # lambda + delta = 1/2 + 1/2: the cost times e^{-s} decays at rate 0 on the right
    with pytest.raises(NonconvergenceError, match="right tail decays at rate r = 0 <= 0.*divergent"):
        exact_cost(Pareto(2), Pareto(4), P2)


def test_exact_cost_of_a_translation_near_the_frontier():
    # lambda + delta = 2/2.05 gives the tail rate 0.024, whose depth is past
    # the cap; the quantile gap is 1, so the cost is 1 and the end term at the
    # cap is tiny
    got = exact_cost(Pareto(2.05), LocationScale(Pareto(2.05), 1.0, 1.0), P2)
    assert got == pytest.approx(1.0, rel=1e-9)


def test_exact_cost_near_frontier_still_converges():
    # Pareto(5) vs Pareto(6): closed form 5/3 - 60/19 + 3/2 = 1/114
    got = exact_cost(Pareto(5), Pareto(6), P2)
    assert got == pytest.approx(1.0 / 114.0, rel=1e-7)


def test_exact_cost_interior_window():
    got = exact_cost(Gaussian(0, 1), Gaussian(1, 1), P2, window=(0.25, 0.75))
    assert got == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("window", [(0.25, 0.75), (0.1, 0.3), (0.6, 0.9), (1e-6, 1.0 - 1e-6)],
                         ids=["middle", "left-half", "right-half", "deep"])
def test_exact_cost_window_of_a_scale_pair_meets_its_closed_form(window):
    # F^{-1} = z and G^{-1} = 2z give the cost z^2, and the integral of
    # z^2 phi(z) is Phi(z) - z phi(z); two of the windows lie inside one half
    def primitive(u):
        z = special.ndtri(u)
        return special.ndtr(z) - z * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    got = exact_cost(Gaussian(0, 1), Gaussian(0, 2), P2, window=window)
    assert got == pytest.approx(primitive(window[1]) - primitive(window[0]),
                                rel=QuadratureConfig().rel_tol)


def test_exact_cost_rejects_half_open_windows():
    with pytest.raises(ValueError):
        exact_cost(Gaussian(0, 1), Gaussian(1, 1), P2, window=(0.0, 0.5))
    with pytest.raises(ValueError):
        exact_cost(Gaussian(0, 1), Gaussian(1, 1), P2, window=(0.5, 1.0))
    with pytest.raises(ValueError):
        exact_cost(Gaussian(0, 1), Gaussian(1, 1), P2, window=(0.7, 0.3))


def test_exact_cost_on_a_window_whose_ends_round_to_one_sigma_is_zero():
    assert exact_cost(Gaussian(0, 1), Gaussian(1, 1), P2, window=(1e-10, 1.0000000000000012e-10)) == 0.0


def test_exact_cost_honours_config(monkeypatch):
    # the graded start mesh, unsplit, misses rel 1e-10 on (0, 1), and the full budget meets it ...
    F, G = Gaussian(0, 1), Gaussian(1, 3)
    with monkeypatch.context() as patched:
        patched.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(NonconvergenceError):
            exact_cost(F, G, P2, q=QuadratureConfig(rel_tol=1e-10))
    assert exact_cost(F, G, P2, q=QuadratureConfig(rel_tol=1e-10)) == pytest.approx(5.0, rel=1e-10)
    # ... and a looser tolerance stops refining sooner, at a different value
    loose = exact_cost(F, G, P2, q=QuadratureConfig(abs_tol=1e-3, rel_tol=1e-3))
    assert loose != exact_cost(F, G, P2)
    assert loose == pytest.approx(5.0, rel=1e-3)  # 1^2 + (3 - 1)^2


# Adaptive integrator vs a one-million-point midpoint Riemann sum.  Triples are
# chosen with at most logarithmic growth at the endpoints so the flat oracle is
# itself comfortably accurate at this mesh.
RIEMANN_TRIPLES = [
    (Gaussian(0, 1), Gaussian(1, 1), P2, 1.0),
    (LocationScale(Gaussian(0, 1), 2.0, 3.0), Gaussian(1, 1), P2, 5.0),
    (Exponential(1.0), Exponential(2.0), P2, 0.5),
    (Weibull(2.0), Exponential(1.0), P2, 3.0 - 1.5 * math.sqrt(math.pi)),
    (Gaussian(0, 1), Gaussian(0.5, 1), QuantileCost(0.3), 0.35),
]


@pytest.mark.parametrize("F,G,c,closed_form", RIEMANN_TRIPLES)
def test_exact_cost_matches_midpoint_oracle(F, G, c, closed_form):
    got = exact_cost(F, G, c)
    u = (np.arange(1_000_000) + 0.5) / 1_000_000
    oracle = float(np.mean(c.evaluate(F.quantile(u), G.quantile(u))))
    assert got == pytest.approx(oracle, rel=1e-4)
    assert got == pytest.approx(closed_form, rel=1e-6)


def test_empirical_estimator_is_consistent():
    # At n = 1e5 the estimate should sit within 0.05 of the population value
    # for nearly every seed; one excursion in twenty is tolerated.
    from wcost.coupling import Independent, sample_pairs

    F, G = Gaussian(0, 1), Gaussian(1, 1)
    target = exact_cost(F, G, P2)
    misses = 0
    for seed in range(20):
        s = sample_pairs(Independent(), F, G, 100_000, seed)
        if abs(empirical_cost(s, P2) - target) >= 0.05:
            misses += 1
    assert misses <= 1


# --- csv ------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    s = PairedSample(rng.normal(size=13) * 1e-7, rng.normal(size=13) * 1e9)
    path = tmp_path / "pairs.csv"
    write_sample_csv(path, s)
    back = read_sample_csv(path)
    assert np.array_equal(back.xs, s.xs)
    assert np.array_equal(back.ys, s.ys)


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_sample_csv(path)


def test_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n3,not-a-number\n")
    with pytest.raises(ValueError, match=r":3"):
        read_sample_csv(path)


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2,3\n")
    with pytest.raises(ValueError, match="two columns"):
        read_sample_csv(path)


def test_csv_empty_and_headerless_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_sample_csv(empty)
    only_header = tmp_path / "hdr.csv"
    only_header.write_text("x,y\n")
    with pytest.raises(ValueError, match="no data"):
        read_sample_csv(only_header)
