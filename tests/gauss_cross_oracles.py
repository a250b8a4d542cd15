"""Brute-force oracles for ``sigma2`` under a Gaussian copula.

For each case of ``CASES`` the script sums, on a uniform grid of normal scores
z in [-L, L] with spacing h,

    Q_x(z) = -int_0^z p_x(Phi(t)) phi(t) dt,   p_x = partial_x c(F^{-1}, G^{-1}) / h_X,

(Gauss--Legendre on each grid cell, summed outward from z = 0, that is from
u = 1/2), Q_y likewise, and then the variance of Q_x(Z_1) + Q_y(W), where
(Z_1, W) is standard bivariate normal with correlation r: the two variances
as 1-D sums and the cross moment E[Q_x(Z_1) Q_y(W)] as a 2-D sum over the
grid against the bivariate normal density.  Scores beyond L (Phi(-L) ~ 6e-16)
are left out.  A case with a window score c holds Q_x and Q_y constant
beyond |z| = c, the window (Phi(-c), Phi(c)) of ``sigma2_window``; c lies
on every grid, so no cell straddles the window's kinks.  Each case runs at
spacings h, 2h, 4h and 8h; ``value`` is their Richardson limit
(``extrapolated``) and ``grid_error`` a gauge of its error.  ``var_x``, ``var_y`` and ``cross_cov`` are the parts at spacing h.
No part of ``sigma2`` (mesh, strips, clamps, Hermite series) enters.

``gauss_cross_oracles.json`` was recorded with

    PYTHONPATH=src python3 tests/gauss_cross_oracles.py > tests/gauss_cross_oracles.json

and names the commit it ran at.  Not collected as tests.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import ndtr

from wcost import parse_cost, parse_distribution

RECORDED = os.path.join(os.path.dirname(__file__), "gauss_cross_oracles.json")

#: (F, G, cost, r, window score c or None for the full range)
CASES = (
    ("gaussian(0,1)", "gaussian(1,2)", "logpower(0.5)", 0.5, None),
    ("gaussian(0,1)", "gaussian(1,2)", "logpower(0.5)", -0.3, None),
    ("gaussian(0,1)", "gaussian(1,2)", "logpower(0.5)", 0.9, None),
    ("gaussian(0,1)", "exponential(1)", "power(2)", 0.5, None),
    ("weibull(2)", "locscale(weibull(2),1,1)", "power(2)", -0.3, None),
    ("gaussian(0,1)", "gaussian(1,2)", "exppower(0.5)", 0.5, None),
    # strong dependence with exponential and Pareto tails
    ("exponential(1)", "exponential(2)", "power(3)", 0.9, None),
    ("pareto(10)", "locscale(pareto(10),2,0)", "power(2)", 0.9, None),
    # eps = Phi(-0.84375) = 0.1994, next to the 0.2 that no grid holds
    ("gaussian(0,1)", "exponential(1)", "power(2)", 0.999, 0.84375),
    ("gaussian(0,1)", "exponential(1)", "power(2)", -0.999, 0.84375),
)

#: Half-width of the score grid, its finest spacing and the per-cell rule.
L, H, CELL_NODES = 8.0, 2.0 ** -10, 8
#: Rows of the 2-D sum taken at once, to bound the working set.
BLOCK = 256


def _slopes(F, G, c, t, score=math.inf):
    """(p_x, p_y) times phi at normal scores t: the z-derivatives of -Q_x and -Q_y.

    Both are zero beyond |t| = score.
    """
    u = ndtr(t)
    xs, ys = F.quantile(u), G.quantile(u)
    gx, gy = c.gradient(xs, ys)
    phi = np.where(np.abs(t) < score, np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), 0.0)
    return gx / F.pdf(xs) * phi, gy / G.pdf(ys) * phi


def _influence(F, G, c, z, h, score):
    """Q_x and Q_y at the grid points z, from Gauss--Legendre sums on each cell.

    A cost's slope can be singular where the quantiles cross (exppower's
    rho'(t) ~ t^(beta - 1) at t = 0), so a cell that holds a crossing is
    integrated by ``scipy.integrate.quad``, split at the crossing.
    """
    x, w = np.polynomial.legendre.leggauss(CELL_NODES)
    nodes = (z[:-1, None] + 0.5 * h) + 0.5 * h * x
    sums = [0.5 * h * (p @ w) for p in _slopes(F, G, c, nodes, score)]
    gap = lambda s: float(F.quantile(ndtr(s)) - G.quantile(ndtr(s)))
    d = F.quantile(ndtr(z)) - G.quantile(ndtr(z))
    for i in np.flatnonzero((d[:-1] * d[1:] <= 0.0) & (d[:-1] != d[1:])):
        a, b = z[i], z[i + 1]
        cut = a if d[i] == 0.0 else b if d[i + 1] == 0.0 else brentq(gap, a, b, xtol=1e-15)
        for side, cell in enumerate(sums):
            f = lambda s, side=side: float(_slopes(F, G, c, np.array([s]), score)[side][0])
            with warnings.catch_warnings():
                # quad reports roundoff on the singular piece once it is near
                # rounding level; ``grid_error`` gauges what is left
                warnings.simplefilter("ignore", IntegrationWarning)
                cell[i] = math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)[0]
                                    for lo, hi in ((a, cut), (cut, b)) if hi > lo)
    out = []
    for cells in sums:
        mid = (z.size - 1) // 2  # z[mid] == 0
        Q = np.zeros(z.size)
        Q[mid + 1:] = -np.cumsum(cells[mid:])
        Q[:mid] = np.cumsum(cells[:mid][::-1])[::-1]
        out.append(Q)
    return out


def sigma2_on_grid(F, G, c, r: float, h: float, score=None) -> dict:
    """sigma^2 and its three parts summed on the grid of spacing h, in the window of ``score``."""
    n = int(round(L / h))
    z = h * np.arange(-n, n + 1)
    qx, qy = _influence(F, G, c, z, h, math.inf if score is None else score)
    w = h * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    mx, my = math.fsum(w * qx), math.fsum(w * qy)
    vx, vy = math.fsum(w * (qx - mx) ** 2), math.fsum(w * (qy - my) ** 2)
    s2 = 1.0 - r * r
    norm = h * h / (2.0 * math.pi * math.sqrt(s2))
    moment = []
    for start in range(0, z.size, BLOCK):
        z1 = z[start:start + BLOCK, None]
        dens = np.exp(-(z1 * z1 - 2.0 * r * z1 * z + z * z) / (2.0 * s2))
        moment.append(float(((qx[start:start + BLOCK] - mx) @ (dens @ (qy - my))) * norm))
    cov = math.fsum(moment)
    return {"value": vx + vy + 2.0 * cov, "var_x": vx, "var_y": vy, "cross_cov": cov}


def extrapolated(values) -> tuple[float, float]:
    """Richardson limit of grid sums at spacings h, 2h, 4h, ... and a gauge of its error.

    Where the slope is singular, Q has a cusp and the grid sums converge like
    a fractional power of h; the power is estimated from the last three sums.
    The gauge is the change from the same limit one spacing coarser.
    """
    def limit(v1, v2, v4):
        d1, d2 = v2 - v1, v4 - v2
        if abs(d1) <= 1e-12 * abs(v1) or not d2 / d1 >= 1.5:
            return v1  # converged to rounding, or no clean power of h
        return v1 - d1 / (d2 / d1 - 1.0)

    fine, coarse = limit(*values[:3]), limit(*values[1:4])
    return fine, abs(fine - coarse)


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=os.path.dirname(__file__)).stdout.strip()
    rows = []
    for f, g, c, r, score in CASES:
        args = (parse_distribution(f), parse_distribution(g), parse_cost(c), r)
        grids = [sigma2_on_grid(*args, H * 2.0 ** k, score) for k in range(4)]
        value, grid_error = extrapolated([grid["value"] for grid in grids])
        rows.append({"F": f, "G": g, "cost": c, "r": r, "window_score": score,
                     "value": value, "grid_error": grid_error,
                     "grid_values": [grid["value"] for grid in grids], **{
                         key: grids[0][key] for key in ("var_x", "var_y", "cross_cov")}})
    json.dump({"commit": commit, "half_width": L, "spacings": [H * 2.0 ** k for k in range(4)],
               "cell_nodes": CELL_NODES, "cases": rows}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
