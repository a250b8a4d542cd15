"""The benchmark's workloads: inputs built from a seed, the ops, the oracles.

Each workload is a fixed list of ops that a pass runs in order.  An op calls
wcost's public functions through attribute lookups on the package at call
time, so the traced run's wrappers see every call.  Oracles are plain
functions of an op's output and return a list of failure messages (empty when
the output is correct), so tests can feed them perturbed values.

Workloads, and why each was chosen:

* ``variance-oracle``: population variance by quadrature, no sampling.
  Quadrature and the variance kernel do nearly all the work, so a change to
  ``sigma2`` shows here and plugin-ci should not move.
* ``mc-clt``: the shipped criterion-5 Monte Carlo run through the CLI.
  Sampling, the quantile transform, the column sort and cost evaluation do
  about 70% of it; one ``sigma2`` call does most of the rest.
* ``plugin-ci``: an estimate with a confidence interval from data alone.  The
  KDE plug-in variance takes about 95% of each op and there is no quadrature.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import numpy as np

F_DESC, G_DESC, COST_DESC = "gaussian(0,1)", "gaussian(2,1)", "power(2)"

#: sigma^2 = 32 (1 - rho) on the F/G pair, per coupling.
PAIR_SIGMA2 = {"independent": 32.0, "gauss(0.5)": 16.0, "comonotone": 0.0,
               "countermonotone": 64.0}
PAIR_COST = 4.0

#: Influence-function Monte Carlo values (2M draws), 4 significant digits.
MATRIX_SIGMA2 = (
    ("gaussian(0,1)", "exponential(1)", "power(2)", "gauss(0.5)", 6.178),
    ("gaussian(0,1)", "gaussian(3,2)", "power(3)", "countermonotone", 8315.0),
    ("gaussian(0,1)", "gaussian(2,1)", "logpower(0.5)", "independent", 5.495),
    ("weibull(2)", "locscale(weibull(2),1,1)", "power(2)", "gauss(-0.3)", 2.214),
)
MATRIX_REL_TOL = 1e-3

#: Past the frontier of the paper's tail/growth hypothesis: sigma2 must raise.
DIVERGENT = ("pareto(3)", "locscale(pareto(3),1,1)", "power(2)", "independent")

MC_CONFIG = os.path.join("configs", "mc_benchmark.json")
MC_KS_MAX, MC_MEAN_MAX, MC_VAR_DEV_MAX = 0.04, 0.07, 0.10
MC_COVERAGE = (0.93, 0.97)
MC_SIGMA2 = 32.0

PLUGIN_OPS, PLUGIN_N, PLUGIN_LEVEL, PLUGIN_COUPLING = 200, 5000, 0.95, "gauss(0.5)"


class Op:
    """One unit of work: ``run`` returns an output dict that ``check`` judges.

    ``output_key`` names the output that must be bit-identical on every pass
    (the whole output when None); ``timing_key`` names an end-to-end metric
    read from the output's ``sigma2_s``.
    """

    def __init__(self, label, run, check, output_key=None, timing_key=None):
        self.label = label
        self.run = run
        self.check = check
        self.output_key = output_key
        self.timing_key = timing_key

    def fingerprint(self, out: dict) -> str:
        if self.output_key is not None:
            return repr(out.get(self.output_key))
        return repr([(k, v) for k, v in sorted(out.items()) if not k.endswith("_s")])


def close(value: float, ref: float, abs_tol: float, rel_tol: float) -> bool:
    """The quadrature module's acceptance rule: |v - ref| <= max(abs, rel |ref|)."""
    return math.isfinite(value) and abs(value - ref) <= max(abs_tol, rel_tol * abs(ref))


def _tolerances(wcost) -> tuple[float, float]:
    cfg = wcost.DEFAULT_VARIANCE_CONFIG
    return cfg.abs_tol, cfg.rel_tol


# --- variance-oracle --------------------------------------------------------------


def check_pair(wcost, kind: str, out: dict) -> list[str]:
    abs_tol, rel_tol = _tolerances(wcost)
    bad = []
    if not close(out["sigma2"], PAIR_SIGMA2[kind], abs_tol, rel_tol):
        bad.append(f"sigma2 {kind} = {out['sigma2']!r}, expected {PAIR_SIGMA2[kind]}")
    if not close(out["cost"], PAIR_COST, abs_tol, rel_tol):
        bad.append(f"exact_cost = {out['cost']!r}, expected {PAIR_COST}")
    return bad


def check_matrix(ref: float, out: dict) -> list[str]:
    value = out["sigma2"]
    if math.isfinite(value) and abs(value - ref) < MATRIX_REL_TOL * abs(ref):
        return []
    return [f"sigma2 = {value!r}, expected {ref} within {MATRIX_REL_TOL} relative"]


def check_divergent(out: dict) -> list[str]:
    if out["raised"] == "NonconvergenceError":
        return []
    return [f"sigma2 past the tail frontier: expected NonconvergenceError, got {out['raised']}"]


class VarianceOracle:
    name = "variance-oracle"

    def __init__(self, wcost, seed: int, root: str):
        self.wcost = wcost
        cases = [("pair", F_DESC, G_DESC, COST_DESC, kind, kind) for kind in PAIR_SIGMA2]
        cases += [("matrix", f, g, c, cp, ref) for f, g, c, cp, ref in MATRIX_SIGMA2]
        cases.append(("divergent", *DIVERGENT, None))
        # The seed fixes the op order only; the case list is the same for all seeds.
        random.Random(seed).shuffle(cases)
        self.ops = [self._op(*case) for case in cases]

    def _op(self, kind, f, g, c, cp, ref):
        w = self.wcost
        F, G = w.parse_distribution(f), w.parse_distribution(g)
        cost, coupling = w.parse_cost(c), w.parse_coupling(cp)
        label = f"{kind}:{f}/{g}/{c}/{cp}"

        def run():
            w.verify_triple(F, G, cost)
            out = {"cost": w.exact_cost(F, G, cost), "sigma2": math.nan, "raised": None}
            t0 = time.perf_counter()
            try:
                out["sigma2"] = w.sigma2(F, G, cost, coupling).value
            except w.NonconvergenceError:
                if kind != "divergent":
                    raise
                out["raised"] = "NonconvergenceError"
            out["sigma2_s"] = time.perf_counter() - t0
            return out

        def check(out):
            if kind == "pair":
                return check_pair(w, ref, out)
            if kind == "matrix":
                return check_matrix(ref, out)
            return check_divergent(out)

        timing_key = f"sigma2.{cp.split('(')[0]}_s" if kind == "pair" else None
        return Op(label, run, check, timing_key=timing_key)


# --- mc-clt -----------------------------------------------------------------------


def check_clt(wcost, out: dict) -> list[str]:
    """Exact oracles of the CLI run: exit code, centring and scaling."""
    if out["exit_code"] != 0:
        return [f"wcost mc exited with code {out['exit_code']}"]
    abs_tol, rel_tol = _tolerances(wcost)
    bad = []
    if not close(out["w_exact"], PAIR_COST, abs_tol, rel_tol):
        bad.append(f"w_exact = {out['w_exact']!r}, expected {PAIR_COST}")
    if not close(out["sigma2_value"], MC_SIGMA2, abs_tol, rel_tol):
        bad.append(f"sigma2_value = {out['sigma2_value']!r}, expected {MC_SIGMA2}")
    return bad


def clt_gates(out: dict) -> list[str]:
    """Criterion 5's normality and coverage gates on the standardized replicates."""
    if out["exit_code"] != 0:
        return [f"wcost mc exited with code {out['exit_code']}"]
    z = np.asarray(out["standardized"], dtype=float)
    mean, var_dev = abs(float(z.mean())), abs(float(z.var(ddof=1)) - 1.0)
    bad = []
    if not out["ks_distance"] < MC_KS_MAX:
        bad.append(f"KS {out['ks_distance']!r} >= {MC_KS_MAX}")
    if not mean < MC_MEAN_MAX:
        bad.append(f"|mean z| {mean!r} >= {MC_MEAN_MAX}")
    if not var_dev < MC_VAR_DEV_MAX:
        bad.append(f"|var z - 1| {var_dev!r} >= {MC_VAR_DEV_MAX}")
    if not MC_COVERAGE[0] <= out["coverage"] <= MC_COVERAGE[1]:
        bad.append(f"coverage {out['coverage']!r} outside {list(MC_COVERAGE)}")
    return bad


def judge_clt(wcost, out: dict, confirm) -> list[str]:
    """Failures of one mc-clt output.

    The exact oracles must hold.  The gates are statistical: even with a
    correct program they miss on a few seeds in a hundred, so a miss at the
    workload seed is re-tested once at an independent seed (``confirm()``
    returns that run's output), and the op fails only when the gates miss at
    both.
    """
    bad = check_clt(wcost, out)
    misses = clt_gates(out)
    if bad or not misses:
        return bad
    again = clt_gates(confirm())
    if not again:
        return []
    return [f"{'; '.join(misses)}; at the confirmation seed: {'; '.join(again)}"]


class McClt:
    name = "mc-clt"

    def __init__(self, wcost, seed: int, root: str):
        self.wcost = wcost
        with open(os.path.join(root, MC_CONFIG)) as fh:
            self.config = json.load(fh)
        self.work = os.path.join(root, "perfbench", ".work")
        os.makedirs(self.work, exist_ok=True)
        self.tag = f"{seed}-{os.getpid()}"
        self.paths = []
        self.config_path = self._write_config(seed, "")
        self.out_path = os.path.join(self.work, f"mc-report-{self.tag}.json")
        self.paths.append(self.out_path)
        self.confirm_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
        self._confirmed = None
        self.notes = []
        self.ops = [Op("wcost mc configs/mc_benchmark.json", lambda: self._run(self.config_path),
                       lambda out: judge_clt(wcost, out, self._confirm),
                       output_key="standardized")]

    def _write_config(self, seed: int, suffix: str) -> str:
        path = os.path.join(self.work, f"mc-{self.tag}{suffix}.json")
        self.paths.append(path)
        with open(path, "w") as fh:
            json.dump({**self.config, "seed": seed}, fh)
        return path

    def _run(self, config_path: str) -> dict:
        code = self.wcost.cli.main(["mc", config_path, "--out", self.out_path])
        if code != 0:
            return {"exit_code": code}
        with open(self.out_path) as fh:
            report = json.load(fh)
        return {"exit_code": code, **{key: report[key] for key in (
            "ks_distance", "coverage", "w_exact", "sigma2_value", "standardized")}}

    def _confirm(self) -> dict:
        if self._confirmed is None:
            self._confirmed = self._run(self._write_config(self.confirm_seed, "-confirm"))
            self.notes.append(f"statistical gates re-tested at seed {self.confirm_seed}: "
                              + ("; ".join(clt_gates(self._confirmed)) or "passed"))
        return self._confirmed

    def close(self):
        for path in self.paths:
            if os.path.exists(path):
                os.remove(path)


# --- plugin-ci --------------------------------------------------------------------


def check_plugin(out: dict) -> list[str]:
    bad = []
    if not (math.isfinite(out["sigma2"]) and out["sigma2"] > 0.0):
        bad.append(f"plug-in sigma2 {out['sigma2']!r} is not finite and positive")
    if not out["lo"] <= out["estimate"] <= out["hi"]:
        bad.append(f"CI [{out['lo']!r}, {out['hi']!r}] misses its point {out['estimate']!r}")
    return bad


class PluginCi:
    name = "plugin-ci"

    def __init__(self, wcost, seed: int, root: str):
        w = self.wcost = wcost
        F, G = w.parse_distribution(F_DESC), w.parse_distribution(G_DESC)
        cost, coupling = w.parse_cost(COST_DESC), w.parse_coupling(PLUGIN_COUPLING)
        streams = np.random.SeedSequence(seed).spawn(PLUGIN_OPS)
        self.ops = []
        for i, ss in enumerate(streams):
            op_seed = int(ss.generate_state(1, np.uint64)[0])

            def run(op_seed=op_seed):
                s = w.sample_pairs(coupling, F, G, PLUGIN_N, op_seed)
                point = w.empirical_cost(s, cost)
                sig2 = w.plug_in_sigma2(s, cost).value
                lo, hi = w.confidence_interval(point, sig2, s.n, PLUGIN_LEVEL)
                return {"estimate": point, "sigma2": sig2, "lo": lo, "hi": hi}

            self.ops.append(Op(f"op {i}", run, check_plugin))

    @staticmethod
    def coverage_gap(outputs: list[dict]) -> float:
        hits = sum(out["lo"] <= PAIR_COST <= out["hi"] for out in outputs)
        return abs(hits / len(outputs) - PLUGIN_LEVEL)


WORKLOADS = {cls.name: cls for cls in (VarianceOracle, McClt, PluginCi)}
