"""Monte Carlo checks of the estimator: consistency, normality, CI coverage.

Experiments draw R paired samples of size n, estimate the population cost on
each replicate, and standardize by the exact cost and an asymptotic standard
deviation (from quadrature, a closed form, or a per-replicate plug-in).
Reports carry the sorted standardized sample, its Kolmogorov-Smirnov distance
to the standard normal, and 95% confidence-interval coverage.

All randomness derives from one integer seed: replicate r's stream depends
only on (seed, r), so results are independent of execution order and worker
count, and identical configurations reproduce reports bit for bit (wall-clock
runtime excluded from comparisons).  Replicates run in forked worker
processes, one per usable core by default.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .assumptions import tail_gate
from .costs import Cost
from .coupling import Coupling, sample_pairs
from .distributions import Distribution
from .errors import DegenerateSampleError
from .estimate import empirical_cost, exact_cost, trimmed_empirical_cost
from .quadrature import QuadratureConfig
from .variance import plug_in_sigma2, sigma2, sigma2_window

_SIGMA_SOURCES = ("oracle_quadrature", "plug_in")
_CI_LEVEL = 0.95
_WINDOW_CONFIG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6)
#: Contiguous replicate ranges handed to each worker, so that a worker slowed by
#: other load leaves its later ranges to the rest.
_CHUNKS_PER_WORKER = 4
_BASE_NOTE = ("normality and coverage thresholds are desk-scale calibration "
              "choices, not formal tests")


# --- configuration and report types --------------------------------------------


@dataclass(frozen=True)
class MCConfig:
    """One experiment: marginals, cost, coupling, sizes, seed, sigma source.

    ``trim_eps=None`` selects the vanishing schedule n^(-1/4) (clamped below
    1/2 for the smallest allowed n); an explicit value in [0, 1/2) fixes the
    trim level.  ``sigma_source`` picks how replicates are standardized:
    ``oracle_quadrature`` (default) computes ``sigma2`` once by quadrature and
    ``plug_in`` re-estimates the variance from each replicate's own sample.
    """

    F: Distribution
    G: Distribution
    c: Cost
    coupling: Coupling
    n: int
    replicates: int
    seed: int = 0
    trim_eps: float | None = None
    sigma_source: str = "oracle_quadrature"

    def __post_init__(self):
        if self.n < 10:
            raise ValueError(f"need a sample size of at least 10, got n={self.n}")
        if self.replicates < 100:
            raise ValueError(
                f"need at least 100 replicates for stable summaries, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.trim_eps is not None and not 0.0 <= self.trim_eps < 0.5:
            raise ValueError(f"trim level must lie in [0, 1/2), got {self.trim_eps}")
        if self.sigma_source not in _SIGMA_SOURCES:
            raise ValueError(
                f"sigma_source must be one of {_SIGMA_SOURCES}, got {self.sigma_source!r}")

    @property
    def resolved_trim_eps(self) -> float:
        if self.trim_eps is not None:
            return float(self.trim_eps)
        return min(float(self.n) ** -0.25, 0.45)


@dataclass(frozen=True)
class MCReport:
    """Replicate summary for one standardized family.

    ``w_exact`` and ``sigma2_value`` are the centering and scaling actually
    used (for a trimmed family these are the window-restricted quantities, and
    ``sigma2_value`` is None when each replicate carries its own plug-in
    variance).  ``standardized`` is sorted ascending.  ``runtime`` is wall
    clock and excluded from equality so that reruns of the same configuration
    compare equal.
    """

    n: int
    replicates: int
    w_exact: float
    sigma_source: str
    sigma2_value: float | None
    trim_eps: float
    estimates: dict
    standardized: tuple
    ks_distance: float
    coverage: float
    assumptions_ok: bool
    notes: tuple
    runtime: float = field(compare=False)

    def __post_init__(self):
        if len(self.standardized) != self.replicates:
            raise ValueError("standardized family must hold one value per replicate")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage is a fraction, got {self.coverage}")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError(f"KS distance lies in [0, 1], got {self.ks_distance}")
        if self.runtime < 0.0:
            raise ValueError(f"runtime must be nonnegative, got {self.runtime}")
        if self.sigma2_value is not None and self.sigma2_value < 0.0:
            raise ValueError(f"sigma2_value must be nonnegative, got {self.sigma2_value}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrimmedComparison:
    """Side-by-side reports for the full and trimmed estimators on shared draws.

    ``scaled_gap_mean``/``scaled_gap_max`` summarize sqrt(n)|trimmed - full|
    across replicates: the deterministic cost mass removed by the trim, which
    does not vanish under sqrt(n) scaling unless the trim shrinks faster than
    n^(-1/2).  Each family is therefore standardized about its own population
    target (the trimmed one about the window-restricted cost and variance).
    """

    plain: MCReport
    trimmed: MCReport
    trim_eps: float
    scaled_gap_mean: float
    scaled_gap_max: float

    def to_dict(self) -> dict:
        return asdict(self)


def write_standardized_csv(path, report: MCReport) -> None:
    """Write the sorted standardized sample as a single-column CSV (header ``z``)."""
    with open(path, "w", newline="") as fh:
        fh.write("z\n")
        for value in report.standardized:
            fh.write(format(value, ".17g") + "\n")


# --- seeding and simulation -----------------------------------------------------


def replicate_seed(seed: int, r: int) -> int:
    """Stream seed for replicate r: a pure function of (seed, r) only."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r,))
    return int(ss.generate_state(1, np.uint64)[0])


def _fork_context():
    """The ``fork`` start method, or None where it is missing or unsafe.

    Forked workers inherit the imported package and the configuration, so
    they start in milliseconds; ``spawn`` would re-import numpy and scipy in
    every worker.  Forking while other Python threads run can deadlock the
    child, so a multi-threaded caller runs its replicates serially.
    """
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    return multiprocessing.get_context("fork")


def _worker_count(threads: int | None) -> int:
    """The checked worker count; None gives the usable cores, or 1 without ``fork``."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"thread count must be at least 1, got {threads}")
        return threads
    if _fork_context() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _plan(replicates: int, workers: int):
    """(pool size, contiguous [start, stop) replicate ranges in r order)."""
    chunks = min(replicates, workers * _CHUNKS_PER_WORKER)
    bounds = [replicates * i // chunks for i in range(chunks + 1)]
    return min(workers, chunks), list(zip(bounds[:-1], bounds[1:]))


def _replicate_rows(cfg: MCConfig, eps: float, plug_eps, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop): full estimate, trimmed estimate, plug-in variances."""
    rows = np.empty((stop - start, 2 + len(plug_eps)))
    for i, r in enumerate(range(start, stop)):
        s = sample_pairs(cfg.coupling, cfg.F, cfg.G, cfg.n, replicate_seed(cfg.seed, r))
        w = empirical_cost(s, cfg.c)
        wt = w if eps == 0.0 else trimmed_empirical_cost(s, cfg.c, eps)
        rows[i] = (w, wt, *(plug_in_sigma2(s, cfg.c, eps=pe).value for pe in plug_eps))
    return rows


def _worker_rows(cfg: MCConfig, eps: float, plug_eps, start: int, stop: int):
    """``_replicate_rows`` in a worker process, plus the warnings it recorded.

    A warning printed by a worker would bypass the caller's warning filters,
    so the worker records them under the filters it inherited and the parent
    issues them again.
    """
    with warnings.catch_warnings(record=True) as caught:
        rows = _replicate_rows(cfg, eps, plug_eps, start, stop)
    return rows, [w.message for w in caught]


def _simulate(cfg: MCConfig, eps: float, workers: int, plug_eps=()):
    """Per-replicate full and trimmed estimates, plus plug-in variances.

    Returns (west, wtrim, {plug trim level: variance array}); row r is fully
    determined by replicate_seed(cfg.seed, r), so the arrays are identical for
    any worker count.  A worker's exception reaches the caller with its class
    and message, and its warnings are issued again here.
    """
    size, chunks = _plan(cfg.replicates, workers)
    context = _fork_context() if size > 1 else None
    if context is None:
        rows = _replicate_rows(cfg, eps, plug_eps, 0, cfg.replicates)
    else:
        with ProcessPoolExecutor(max_workers=size, mp_context=context) as pool:
            parts = list(pool.map(partial(_worker_rows, cfg, eps, plug_eps), *zip(*chunks)))
        for _, caught in parts:
            for message in caught:
                warnings.warn(message, stacklevel=4)
        rows = np.concatenate([part for part, _ in parts])
    cols = rows.T
    return cols[0], cols[1], {pe: cols[2 + i] for i, pe in enumerate(plug_eps)}


def _assumption_precheck(F: Distribution, G: Distribution, c: Cost):
    """``tail_gate``'s verdict; on a failure warn, with its witness, but don't stop."""
    verdict = tail_gate(F, G, c)
    if not verdict.failed:
        return True, ()
    problem = (f"{verdict.side} tail: cost growth outpaces tail decay "
               f"({verdict.rule}; margin {verdict.margin:.3g})")
    warnings.warn(problem + " -- continuing, but the normal approximation may not hold",
                  UserWarning, stacklevel=4)
    return False, (problem,)


# --- standardization ------------------------------------------------------------


def _sample_skew(values: np.ndarray) -> float:
    """Biased Fisher-Pearson skewness m3 / m2^(3/2); NaN if constant to rounding.

    Reproduces scipy's ``stats.skew(values)`` (bias=True) bit for bit, with
    the same operations in the same order.  It exists because importing
    scipy's stats package for this one number also loads its optimize,
    integrate, interpolate, spatial, linalg and sparse packages, which about
    doubles the start-up time and memory of every wcost process.
    """
    mean = np.mean(values, keepdims=True)
    d = values - mean
    d2 = d**2
    m2 = np.mean(d2)
    m3 = np.mean(d2 * d)
    with np.errstate(all="ignore"):
        if m2 <= (np.finfo(float).eps * mean[0])**2:
            return float("nan")
        return float(m3 / m2**1.5)


def _build_report(cfg: MCConfig, values: np.ndarray, target: float,
                  sig2: float | None, sig2_per: np.ndarray | None,
                  trim_eps: float, ok: bool, notes: tuple, t0: float) -> MCReport:
    if sig2 is not None:
        if sig2 <= 0.0:
            raise DegenerateSampleError(
                "the asymptotic variance is zero for this configuration (the "
                "matched cost is constant across replicates); standardized "
                "replicates are undefined")
        scales2 = np.full(values.shape, float(sig2))
    else:
        scales2 = np.asarray(sig2_per, dtype=float)
        if np.any(scales2 <= 0.0):
            raise DegenerateSampleError(
                "a replicate's plug-in variance is zero; standardized "
                "replicates are undefined")
    z = np.sort(np.sqrt(cfg.n) * (values - target) / np.sqrt(scales2))
    # the same interval as confidence_interval, for every replicate at once
    half = float(ndtri(0.5 * (1.0 + _CI_LEVEL))) * np.sqrt(scales2 / cfg.n)
    hits = int(np.count_nonzero((values - half <= target) & (target <= values + half)))
    return MCReport(
        n=cfg.n,
        replicates=cfg.replicates,
        w_exact=float(target),
        sigma_source=cfg.sigma_source,
        sigma2_value=None if sig2 is None else float(sig2),
        trim_eps=float(trim_eps),
        estimates={"mean": float(np.mean(values)),
                   "var": float(np.var(values, ddof=1)),
                   "skew": _sample_skew(values)},
        standardized=tuple(float(v) for v in z),
        ks_distance=ks_statistic(z, ndtr),
        coverage=hits / cfg.replicates,
        assumptions_ok=ok,
        notes=notes,
        runtime=time.perf_counter() - t0,
    )


# --- operations -----------------------------------------------------------------


def ks_statistic(values, reference_cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference cdf.

    D = sup over the sorted sample of max(|i/R - C(z_i)|, |(i-1)/R - C(z_i)|);
    the callable is evaluated on an array and must be vectorized.
    """
    z = np.sort(np.asarray(values, dtype=float).ravel())
    if z.size == 0:
        raise ValueError("need at least one value")
    if not np.all(np.isfinite(z)):
        raise ValueError("values must be finite")
    cdf = np.clip(np.asarray(reference_cdf(z), dtype=float), 0.0, 1.0)
    if cdf.shape != z.shape:
        raise ValueError("reference_cdf must return one probability per value")
    steps = np.arange(1, z.size + 1, dtype=float)
    d = np.maximum(np.abs(steps / z.size - cdf),
                   np.abs(cdf - (steps - 1.0) / z.size))
    return float(d.max())


def run_clt_experiment(cfg: MCConfig, *, threads: int | None = None) -> MCReport:
    """Standardized-replicate study of the estimator at one configuration.

    Draws ``cfg.replicates`` samples of size ``cfg.n``, standardizes each
    estimate by the exact population cost and the sigma-source scale, and
    reports the KS distance to the standard normal plus 95% CI coverage.
    ``threads`` is the worker count: replicates run in that many forked
    processes (serially in-process for 1), and ``None`` means one per usable
    core.  Deterministic given ``cfg``: the worker count does not change
    results.  This is the full family of ``compare_trimmed`` with no trim.
    """
    return _experiment(cfg, 0.0, threads).plain


def compare_trimmed(cfg: MCConfig, *, threads: int | None = None) -> TrimmedComparison:
    """Full vs trimmed estimator on the same draws.

    The trim removes a deterministic slice of cost mass, so the trimmed family
    is centered at the window-restricted population cost and scaled by the
    window-restricted variance; sqrt(n) times the removed mass is reported as
    the scaled gap rather than folded into the standardization.  With
    ``trim_eps=0`` the two families coincide exactly.  ``threads`` is the
    worker count, as in ``run_clt_experiment``; results do not depend on it.
    """
    return _experiment(cfg, cfg.resolved_trim_eps, threads)


def _experiment(cfg: MCConfig, eps: float, threads: int | None) -> TrimmedComparison:
    """Both families at trim level ``eps`` from one precheck and one simulation pass.

    At ``eps = 0`` the window cost and variance are the full ones, so no second
    ``exact_cost`` or variance runs and the trimmed estimates are the full ones.
    """
    threads = _worker_count(threads)
    t0 = time.perf_counter()
    ok, problems = _assumption_precheck(cfg.F, cfg.G, cfg.c)
    notes = (_BASE_NOTE,) + problems
    w_full = exact_cost(cfg.F, cfg.G, cfg.c)
    w_window = w_full if eps == 0.0 else exact_cost(cfg.F, cfg.G, cfg.c,
                                                    window=(eps, 1.0 - eps))
    trim_notes = notes if eps == 0.0 else notes + (
        f"trimmed family standardized about the population cost and variance "
        f"restricted to ({eps:.6g}, {1 - eps:.6g})",)

    if cfg.sigma_source == "plug_in":
        west, wtrim, plug = _simulate(cfg, eps, threads, sorted({0.0, eps}))
        plain = _build_report(cfg, west, w_full, None, plug[0.0], 0.0, ok,
                              notes + ("per-replicate plug-in variances",), t0)
        trimmed = _build_report(cfg, wtrim, w_window, None, plug[eps],
                                eps, ok, trim_notes, t0)
    else:
        sig2_full = sigma2(cfg.F, cfg.G, cfg.c, cfg.coupling).value
        sig2_window = sig2_full if eps == 0.0 else sigma2_window(
            cfg.F, cfg.G, cfg.c, cfg.coupling, eps, _WINDOW_CONFIG).value
        west, wtrim, _ = _simulate(cfg, eps, threads)
        plain = _build_report(cfg, west, w_full, sig2_full, None, 0.0, ok, notes, t0)
        trimmed = _build_report(cfg, wtrim, w_window, sig2_window, None, eps,
                                ok, trim_notes, t0)
    gap = np.sqrt(cfg.n) * np.abs(wtrim - west)
    return TrimmedComparison(plain=plain, trimmed=trimmed, trim_eps=eps,
                             scaled_gap_mean=float(np.mean(gap)),
                             scaled_gap_max=float(np.max(gap)))


def run_consistency_sweep(F: Distribution, G: Distribution, c: Cost,
                          coupling: Coupling, n_list, seeds) -> list:
    """Absolute estimation error against the exact cost, tabulated by n.

    ``seeds`` is either a count (seeds 0..k-1) or an explicit sequence; each
    (n, seed) cell draws one sample with a stream derived from both.  Returns
    one row per n with the individual errors and their median/mean/max.
    """
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("need at least one sample size")
    if any(n < 1 for n in ns):
        raise ValueError(f"sample sizes must be positive, got {ns}")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else [int(s) for s in seeds]
    if not seed_list:
        raise ValueError("need at least one seed")
    w_exact = exact_cost(F, G, c)
    rows = []
    for n in ns:
        errors = []
        for seed in seed_list:
            s = sample_pairs(coupling, F, G, n, replicate_seed(seed, n))
            errors.append(abs(empirical_cost(s, c) - w_exact))
        rows.append({
            "n": n,
            "abs_errors": tuple(errors),
            "median_abs_error": float(np.median(errors)),
            "mean_abs_error": float(np.mean(errors)),
            "max_abs_error": float(np.max(errors)),
        })
    return rows
