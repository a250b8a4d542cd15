"""Stable-sort references for the sample-path estimators.

The estimators sort with numpy's default sort, which may order equal keys
differently from a stable sort.  These functions rebuild each value with
``kind="stable"`` so that tests can assert the order of ties never shows.
They are not collected as tests.
"""

import numpy as np


def _stable_sorted(xs, ys):
    return np.sort(xs, kind="stable"), np.sort(ys, kind="stable")


def empirical_cost_ref(xs, ys, c) -> float:
    """(1/n) sum c(x_(i), y_(i)) over stably sorted columns."""
    return float(np.mean(c.evaluate(*_stable_sorted(xs, ys))))


def trimmed_cost_ref(xs, ys, c, eps) -> float:
    """Window integral over (eps, 1 - eps) of the empirical quantile cost."""
    n = xs.size
    edges = np.arange(n + 1) / n
    lengths = np.clip(edges[1:], eps, 1.0 - eps) - np.clip(edges[:-1], eps, 1.0 - eps)
    values = np.asarray(c.evaluate(*_stable_sorted(xs, ys)), dtype=float)
    return float(np.dot(values, lengths))


def _influence_ref(col, order, slope, eps):
    sorted_col = col[order]
    steps = slope * np.diff(sorted_col, prepend=sorted_col[0])
    if eps > 0.0:
        t = np.arange(col.size) / col.size
        steps[(t <= eps) | (t >= 1.0 - eps)] = 0.0
    q = np.empty(col.size)
    q[order] = np.cumsum(steps)
    return q


def plug_in_sigma2_ref(xs, ys, c, eps=0.0) -> float:
    """Sample variance of Q_x(rank x_k) + Q_y(rank y_k), ranks from stable argsorts."""
    ox, oy = np.argsort(xs, kind="stable"), np.argsort(ys, kind="stable")
    gx, gy = c.gradient(xs[ox], ys[oy])
    influence = _influence_ref(xs, ox, gx, eps) + _influence_ref(ys, oy, gy, eps)
    return float(np.var(np.sort(influence), ddof=1))


def tied_sample(seed=0, n=1000):
    """Columns rounded to 0.1 (most values tied) with 0.0 and -0.0 mixed into both."""
    rng = np.random.default_rng(seed)
    xs = np.round(rng.normal(size=n), 1)
    ys = np.round(rng.normal(1.0, 2.0, size=n), 1)
    for col in (xs, ys):
        idx = rng.choice(n, 60, replace=False)
        col[idx[:30]] = 0.0
        col[idx[30:]] = -0.0
    return xs, ys


def same_bits(a, b) -> bool:
    """True when two floats (or float sequences) agree in every IEEE-754 bit."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))
