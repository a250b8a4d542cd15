"""Point estimators of the transport cost between two univariate samples.

The empirical estimator pairs the two samples' order statistics; the trimmed
variant integrates the empirical quantile cost over a symmetric sub-window of
(0,1); the exact population value integrates the quantile-coupling integrand
with the adaptive machinery from :mod:`wcost.quadrature`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import Cost
from .distributions import Distribution
from .quadrature import QuadratureConfig, graded_breaks, integrate_1d, integrate_open01

__all__ = [
    "PairedSample",
    "empirical_cost",
    "trimmed_empirical_cost",
    "empirical_quantile",
    "exact_cost",
    "read_sample_csv",
    "write_sample_csv",
]


@dataclass(eq=False)
class PairedSample:
    """n paired observations; columns may be dependent."""

    xs: np.ndarray
    ys: np.ndarray
    _sorted_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.ys.ndim != 1:
            raise ValueError("sample columns must be one-dimensional")
        if self.xs.shape != self.ys.shape:
            raise ValueError(f"column lengths differ: {self.xs.size} vs {self.ys.size}")
        if self.xs.size < 1:
            raise ValueError("sample must contain at least one pair")

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def sorted_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Both columns sorted ascending (cached) with numpy's default sort.

        Its values equal a stable sort's: the two differ only in the order of
        equal keys, and among finite floats only -0.0 and 0.0 are equal keys
        with different bits, which no cost tells apart.
        """
        if "xy" not in self._sorted_cache:
            self._sorted_cache["xy"] = (np.sort(self.xs), np.sort(self.ys))
        return self._sorted_cache["xy"]


def _finite_sorted_columns(s: PairedSample) -> tuple[np.ndarray, np.ndarray]:
    """``s.sorted_columns()``; ValueError on NaN or +-inf, which a sort puts at the ends."""
    cols = s.sorted_columns()
    for name, col in zip("xy", cols):
        if not (math.isfinite(col[0]) and math.isfinite(col[-1])):
            raise ValueError(f"{name} column holds a non-finite value")
    return cols


def empirical_cost(s: PairedSample, c: Cost) -> float:
    """Mean cost across matched order statistics: (1/n) sum c(x_(i), y_(i)); finite columns only."""
    xs, ys = _finite_sorted_columns(s)
    return float(np.mean(c.evaluate(xs, ys)))


def trimmed_empirical_cost(s: PairedSample, c: Cost, eps: float) -> float:
    """Integral of u -> c(Fn^{-1}(u), Gn^{-1}(u)) over (eps, 1-eps), exactly.

    The empirical quantile cost is piecewise constant on the order-statistic
    cells ((i-1)/n, i/n]; each cell's value is weighted by the length of its
    overlap with the window.  eps = 0 reproduces ``empirical_cost`` bit for
    bit.  Note the result is a window integral, not a window average, so it
    is nonincreasing in eps for nonnegative costs.  Raises ValueError when a
    column holds NaN or +-inf.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"trim level must lie in [0, 1/2), got {eps}")
    if eps == 0.0:
        return empirical_cost(s, c)
    xs, ys = _finite_sorted_columns(s)
    n = s.n
    edges = np.arange(n + 1) / n
    lo = np.clip(edges[:-1], eps, 1.0 - eps)
    hi = np.clip(edges[1:], eps, 1.0 - eps)
    lengths = hi - lo
    values = np.asarray(c.evaluate(xs, ys), dtype=float)
    return float(np.dot(values, lengths))


def empirical_quantile(column, u: float) -> float:
    """Left-continuous empirical quantile: the ceil(u*n)-th order statistic.

    Raises ValueError when the column holds NaN or +-inf.
    """
    x = np.sort(np.asarray(column, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("column must be a nonempty one-dimensional sample")
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise ValueError("column holds a non-finite value")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"probability level must lie in (0, 1], got {u}")
    idx = max(math.ceil(u * x.size), 1)
    return float(x[idx - 1])


def exact_cost(F: Distribution, G: Distribution, c: Cost,
               q: QuadratureConfig | None = None,
               window: tuple[float, float] = (0.0, 1.0)) -> float:
    """Population cost: integral of c(F^{-1}(u), G^{-1}(u)) du over the window.

    The default window is the full open interval, handled with endpoint
    extrapolation; raises NonconvergenceError when the tail mass does not
    settle (the typical symptom of an infinite population cost).  An interior
    window ((lo, hi) strictly inside (0,1)) integrates directly.
    """
    if q is None:
        q = QuadratureConfig()

    def integrand(u):
        return c.evaluate(F.quantile(u), G.quantile(u))

    lo, hi = window
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"bad integration window {window}")
    if (lo, hi) == (0.0, 1.0):
        value, _err = integrate_open01(integrand, q)
        return float(value)
    if lo == 0.0 or hi == 1.0:
        raise ValueError("window must be the full interval or strictly interior")
    value, _err = integrate_1d(integrand, lo, hi, q, breaks=graded_breaks(lo, hi))
    return float(value)


def write_sample_csv(path, s: PairedSample) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"])
        for x, y in zip(s.xs, s.ys):
            w.writerow([format(x, ".17g"), format(y, ".17g")])


def read_sample_csv(path) -> PairedSample:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["x", "y"]:
            raise ValueError(f"{path}: expected header 'x,y', got {header!r}")
        xs, ys = [], []
        for i, row in enumerate(r, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{i}: expected two columns, got {len(row)}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{i}: non-numeric entry {row!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{i}: non-finite entry {row!r}")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return PairedSample(np.array(xs), np.array(ys))
