"""Independent oracles for ``sigma2``, ``sigma2_one_sample`` and ``exact_cost``.

The stress matrix is every ordered pair of distinct laws of ``LAWS`` under
every cost of ``COSTS``: 660 triples.  For each triple whose tail gate passes
(``wcost.assumptions.tail_gate``, the only part of wcost that runs here), the
script writes one row per quantity:

* ``one_sample_x`` = Var A(X), X ~ F, and ``one_sample_y`` = Var B(Y), Y ~ G;
* ``independent`` = their sum, ``comonotone`` = Var[A(X) + B(T(X))] and
  ``countermonotone`` = Var[A(X) + B(R(X))], taken half in x and half in y
  (``countermonotone``);
* ``exact_cost`` = E c(X, T(X)).

Here T = G^{-1} o F, R = G^{-1} o (1 - F), S = F^{-1} o G, and

    A(x) = -int_{m_F}^x  partial_x c(xi, T(xi)) dxi,
    B(y) = -int_{m_G}^y  partial_y c(S(eta), eta) deta,

the influence functions of ``sigma2`` written in x = F^{-1}(u) and
y = G^{-1}(u): du / h_X = dx, so no quantile density enters.  m_F and m_G are
the medians.  Each law is written out below in closed form, through its log
survival and log cdf, so T, R and S stay accurate deep in both tails; a law
with a finite lower end works in the distance to it (Pareto in x - 1).  The
cost gradients are written out too.  Every integral is ``scipy.integrate.quad`` in
x (or y) on segments cut at the levels where the log survival (or the log cdf)
reaches -0.75 * 1.5^k, down to -512, and at the points where the quantiles
cross, where a slope may be singular.  Beyond the -512 levels the integrands
of gate-passing triples are below e^{-512 / 7} of their scale, so that part is
left out.  A(x) inside a segment is A at the segment's inner end plus one more
``quad``.  Means are taken first and the variances as E[(h - mean)^2].

``variance_oracles.json`` was written with

    PYTHONPATH=src python3 tests/variance_oracles.py --commit <commit> > tests/variance_oracles.json

where ``--commit`` labels the checkout whose ``tail_gate`` chose the rows.
It runs for several minutes.  Not collected as tests.
"""

import argparse
import bisect
import json
import math
import os
import sys
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtri_exp

RECORDED = os.path.join(os.path.dirname(__file__), "variance_oracles.json")

LAWS = ("gaussian(0,1)", "gaussian(1,2)", "exponential(1)", "weibull(1.5)", "weibull(0.75)",
        *(f"pareto({p})" for p in (3, 4, 5, 6, 7, 8, 10)))
COSTS = ("power(1.5)", "power(2)", "power(3)", "logpower(0.5)", "exppower(0.5)")
TRIPLES = tuple((f, g, c) for f in LAWS for g in LAWS if f != g for c in COSTS)

#: The rows of a triple: the coupling (or one-sample side) and the quantity.
KINDS = ("independent", "comonotone", "countermonotone", "one_sample_x", "one_sample_y",
         "exact_cost")

#: Segment levels of the log survival and log cdf, and the quad settings.
LEVELS = tuple(0.75 * 1.5 ** k for k in range(16)) + (512.0,)
EPSREL, LIMIT = 1e-12, 200


def _log1mexp(a):
    """log(1 - e^a) for a < 0."""
    return math.log(-math.expm1(a)) if a > -0.693 else math.log1p(-math.exp(a))


class _Gaussian:
    """A law through its log survival and log cdf and their inverses, on scalars.

    Each law works in its own coordinate v = x - ``shift``, whose ``lower``
    end is 0 or -inf, so that points next to a finite end stay resolved.
    """

    lower, shift = -math.inf, 0.0

    def __init__(self, mean, sd):
        self.mean, self.sd, self.median = mean, sd, mean

    def logsf(self, x):
        return float(log_ndtr(-(x - self.mean) / self.sd))

    def logcdf(self, x):
        return float(log_ndtr((x - self.mean) / self.sd))

    def from_logsf(self, a):
        return self.mean - self.sd * float(ndtri_exp(a))

    def from_logcdf(self, a):
        return self.mean + self.sd * float(ndtri_exp(a))

    def pdf(self, x):
        z = (x - self.mean) / self.sd
        return math.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))


class _Weibull:
    """Weibull(q) on (0, inf); q = 1 is the exponential law."""

    lower, shift = 0.0, 0.0

    def __init__(self, q):
        self.q = q
        self.median = math.log(2.0) ** (1.0 / q)

    def logsf(self, x):
        return -x ** self.q

    def logcdf(self, x):
        return _log1mexp(-x ** self.q)

    def from_logsf(self, a):
        return (-a) ** (1.0 / self.q)

    def from_logcdf(self, a):
        return (-_log1mexp(a)) ** (1.0 / self.q)

    def pdf(self, x):
        return self.q * x ** (self.q - 1.0) * math.exp(-x ** self.q)


class _Pareto:
    """Pareto(p) on (1, inf), in v = x - 1."""

    lower, shift = 0.0, 1.0

    def __init__(self, p):
        self.p = p
        self.median = math.expm1(math.log(2.0) / p)

    def logsf(self, v):
        return -self.p * math.log1p(v)

    def logcdf(self, v):
        return _log1mexp(-self.p * math.log1p(v))

    def from_logsf(self, a):
        return math.expm1(-a / self.p)

    def from_logcdf(self, a):
        return math.expm1(-_log1mexp(a) / self.p)

    def pdf(self, v):
        return self.p * (1.0 + v) ** (-self.p - 1.0)


def law(text):
    """The law of a descriptor of ``LAWS``; exponential(1) is Weibull(1)."""
    name, args = text.rstrip(")").split("(")
    values = [float(a) for a in args.split(",")]
    if name == "exponential" and values == [1.0]:
        return _Weibull(1.0)
    return {"gaussian": _Gaussian, "weibull": _Weibull, "pareto": _Pareto}[name](*values)


def rho_prime(cost):
    """rho' of a cost descriptor, on t > 0."""
    name, arg = cost.rstrip(")").split("(")
    b = float(arg)
    if name == "power":
        return lambda t: b * t ** (b - 1.0)
    if name == "logpower":
        return lambda t: ((1.0 + b) * math.log1p(t) ** b / (1.0 + t)
                          * math.exp(math.log1p(t) ** (1.0 + b)))
    if name == "exppower":
        return lambda t: b * t ** (b - 1.0) * math.exp(t ** b)
    raise ValueError(cost)


def rho(cost):
    name, arg = cost.rstrip(")").split("(")
    b = float(arg)
    return {"power": lambda t: t ** b,
            "logpower": lambda t: math.expm1(math.log1p(t) ** (1.0 + b)),
            "exppower": lambda t: math.expm1(t ** b)}[name]


def transfer(F, G, flip=False):
    """x -> G^{-1}(F(x)), or G^{-1}(1 - F(x)) with ``flip``, through the log tails."""
    def T(x):
        if x >= F.median:
            a = F.logsf(x)
            return G.from_logcdf(a) if flip else G.from_logsf(a)
        a = F.logcdf(x)
        return G.from_logsf(a) if flip else G.from_logcdf(a)
    return T


def _quad(f, a, b):
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        # roundoff warnings come from segments whose integrand is at rounding level
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, epsabs=0.0, epsrel=EPSREL, limit=LIMIT)[0]


def breaks(D, crossings=()):
    """Segment ends for integrals against the law D: the tail levels, median, crossings."""
    pts = {D.median, *crossings}
    for a in LEVELS:
        pts.add(D.from_logsf(-a))
        pts.add(D.from_logcdf(-a))
    if not math.isinf(D.lower):
        pts = {p for p in pts if p > D.lower} | {D.lower}
    return sorted(pts)


def crossings(D, gap, pts):
    """Roots of ``gap`` between consecutive points of ``pts`` inside the support."""
    out = []
    grid = sorted({p for a, b in zip(pts, pts[1:]) for p in
                   (a + (b - a) * k / 16.0 for k in range(16))} | {pts[-1]})
    grid = [x for x in grid if x > D.lower]
    values = [gap(x) for x in grid]
    for (a, ga), (b, gb) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if ga == 0.0:
            out.append(a)
        elif ga * gb < 0.0:
            out.append(brentq(gap, a, b, xtol=1e-15, rtol=1e-15))
    return out


class Influence:
    """x -> -int_{median}^x slope, with the slope's singular points as segment ends."""

    def __init__(self, D, slope, cuts):
        self.slope = slope
        self.pts = breaks(D, cuts)
        m = self.pts.index(D.median)
        self.at = {D.median: 0.0}
        for a, b in zip(self.pts[m:], self.pts[m + 1:]):
            self.at[b] = self.at[a] - _quad(slope, a, b)
        for a, b in zip(self.pts[m::-1], self.pts[m - 1::-1] if m else []):
            self.at[b] = self.at[a] + _quad(slope, b, a)
        self.median = D.median
        self.cache = {}

    def __call__(self, x):
        if x in self.cache:
            return self.cache[x]
        # integrate from the nearest segment end on the median's side
        if x >= self.median:
            inner = self.pts[bisect.bisect_right(self.pts, x) - 1]
            value = self.at[inner] - _quad(self.slope, inner, x)
        else:
            inner = self.pts[bisect.bisect_left(self.pts, x)]
            value = self.at[inner] + _quad(self.slope, x, inner)
        self.cache[x] = value
        return value


def expectation(D, h, pts):
    """E h(X) for X ~ D, summed over the segments of ``pts``."""
    return math.fsum(_quad(lambda x: h(x) * D.pdf(x), a, b) for a, b in zip(pts, pts[1:]))


def variance(D, h, pts):
    mean = expectation(D, h, pts)
    return expectation(D, lambda x: (h(x) - mean) ** 2, pts)


def countermonotone(F, G, A, B, cross_x, cross_y):
    """Var[A(X) + B(R(X))], each half of u in the coordinate of the law whose right tail it holds.

    Above its median x meets G's left tail, below it y meets F's left one, so
    the law whose tail is squeezed into the other's coordinate is always on a
    left tail, which is light or bounded here.  The kinks are where R or its
    inverse meets a crossing of the quantiles.
    """
    R, Rg = transfer(F, G, flip=True), transfer(G, F, flip=True)
    ux = [p for p in breaks(F, cross_x + [Rg(y) for y in cross_y]) if p >= F.median]
    uy = [p for p in breaks(G, cross_y + [R(x) for x in cross_x]) if p >= G.median]
    hx, hy = (lambda x: A(x) + B(R(x))), (lambda y: A(Rg(y)) + B(y))
    mean = expectation(F, hx, ux) + expectation(G, hy, uy)
    return (expectation(F, lambda x: (hx(x) - mean) ** 2, ux)
            + expectation(G, lambda y: (hy(y) - mean) ** 2, uy))


def triple_rows(f, g, c):
    F, G = law(f), law(g)
    T, S = transfer(F, G), transfer(G, F)
    rp = rho_prime(c)
    shift = F.shift - G.shift

    def sx(xi):  # partial_x c along the diagonal, as a function of x
        d = shift + xi - T(xi)
        return math.copysign(rp(abs(d)), d) if d else 0.0

    def sy(eta):  # partial_y c along the diagonal, as a function of y
        d = shift + S(eta) - eta
        return -math.copysign(rp(abs(d)), d) if d else 0.0

    cross_x = crossings(F, lambda x: shift + x - T(x), breaks(F))
    cross_y = [T(x) for x in cross_x]
    A = Influence(F, sx, cross_x)
    B = Influence(G, sy, cross_y)
    pts_x = breaks(F, cross_x)
    vx = variance(F, A, pts_x)
    vy = variance(G, B, breaks(G, cross_y))
    return {
        "one_sample_x": vx,
        "one_sample_y": vy,
        "independent": vx + vy,
        "comonotone": variance(F, lambda x: A(x) + B(T(x)), pts_x),
        "countermonotone": countermonotone(F, G, A, B, cross_x, cross_y),
        "exact_cost": expectation(F, lambda x: rho(c)(abs(shift + x - T(x))), pts_x),
    }


def gate_passes(f, g, c):
    from wcost import parse_cost, parse_distribution
    from wcost.assumptions import tail_gate
    return not tail_gate(parse_distribution(f), parse_distribution(g), parse_cost(c)).failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True,
                        help="label of the checkout whose tail gate chose the rows")
    args = parser.parse_args()
    rows = []
    for f, g, c in TRIPLES:
        if not gate_passes(f, g, c):
            continue
        values = triple_rows(f, g, c)
        rows.extend({"F": f, "G": g, "cost": c, "kind": kind, "value": values[kind]}
                    for kind in KINDS)
    sys.stdout.write(f'{{"commit": {json.dumps(args.commit)}, "triples": {len(TRIPLES)}, '
                     '"rows": [\n')
    sys.stdout.write(",\n".join(json.dumps(r, separators=(",", ":")) for r in rows))
    sys.stdout.write("\n]}\n")


if __name__ == "__main__":
    main()
