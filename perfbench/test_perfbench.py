"""Tests of the benchmark itself: span arithmetic, oracles, wrapper removal.

    python -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

import spans
import workloads
from worker import ROOT, import_wcost

wcost = import_wcost()


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,6].
    t = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    a = t.enter("A")
    b = t.enter("B")
    c = t.enter("C")
    t.exit(c)
    t.exit(b)
    b = t.enter("B")
    t.exit(b)
    t.exit(a)
    assert t.by_name("A").total_s == 10 and t.by_name("A").self_s == 6
    assert t.by_name("B").calls == 2 and t.by_name("B").self_s == 3
    assert t.by_name("C").self_s == 1
    assert t.tree[("A", "B", "C")].calls == 1
    assert sum(n.self_s for n in t.tree.values()) == t.root_total() == 10
    assert t.total_under("C", "A") == 1 and t.child_total("A", "B") == 4


def test_strips_skip_the_first_2d_call_and_nonconvergence_counts_once():
    class NonconvergenceError(RuntimeError):
        pass

    class GateError(NonconvergenceError):
        pass

    t = spans.Tracer(clock=FakeClock(range(100)))
    square = t.enter("quadrature.integrate_square_open")
    for _ in range(3):
        t.exit(t.enter("quadrature.integrate_2d"))
    t.exit(square)
    assert t.counts["strips_s"] == 2  # two strips of one tick; the base is not a strip
    outer = t.enter("quadrature.integrate_open01")
    inner = t.enter("quadrature.integrate_1d")
    t.exit(inner, NonconvergenceError())
    t.exit(outer, NonconvergenceError())
    assert t.counts["nonconvergence"] == 1
    t.exit(t.enter("quadrature.integrate_open01"), GateError())  # a subclass counts too
    t.exit(t.enter("quadrature.integrate_open01"), ValueError())
    assert t.counts["nonconvergence"] == 2


def test_unhit_layers_are_unmeasured_not_zero():
    t = spans.Tracer(clock=FakeClock(range(10)))
    t.exit(t.enter("variance.plug_in_sigma2"))
    metrics = spans.layer_metrics(t)
    assert metrics["variance.plug_in_sigma2.self_s"] == (1, "s")
    assert metrics["quadrature.integrate_2d.panels"] == (None, "count")
    assert metrics["quadrature.nonconvergence"] == (None, "count")


def test_wrappers_trace_calls_and_are_removed():
    originals = {
        "variance.sigma2": wcost.variance.sigma2,
        "mc.sigma2": wcost.mc.sigma2,
        "package.exact_cost": wcost.exact_cost,
        "Gaussian.quantile": vars(wcost.Gaussian)["quantile"],
        "Distribution.density_quantile": vars(wcost.Distribution)["density_quantile"],
    }
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    patcher = spans.Patcher(tracer)
    patcher.install()
    try:
        assert wcost.mc.sigma2 is not originals["mc.sigma2"]
        assert "wcost.distributions.Gaussian.quantile" in spans.installed_wrappers()
        F, G, c = wcost.Gaussian(0, 1), wcost.Gaussian(2, 1), wcost.PowerCost(2.0)
        assert wcost.exact_cost(F, G, c) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            wcost.exact_cost(F, G, c, window=(0.2, 0.1))
    finally:
        patcher.remove()
    assert spans.installed_wrappers() == []
    assert wcost.variance.sigma2 is originals["variance.sigma2"]
    assert wcost.mc.sigma2 is originals["mc.sigma2"]
    assert wcost.exact_cost is originals["package.exact_cost"]
    assert vars(wcost.Gaussian)["quantile"] is originals["Gaussian.quantile"]
    assert vars(wcost.Distribution)["density_quantile"] is originals["Distribution.density_quantile"]
    metrics = spans.layer_metrics(tracer)
    assert metrics["quadrature.integrate_1d.panels"][0] > 0
    assert metrics["distributions.quantile.points"][0] == 15 * metrics["quadrature.integrate_1d.panels"][0] * 2
    assert tracer.by_name("estimate.exact_cost").calls == 2
    assert tracer._stack == []


# --- oracles: each rejects a value 0.1% off -----------------------------------------


def pair_out(sigma2, cost=4.0):
    return {"sigma2": sigma2, "cost": cost}


@pytest.mark.parametrize("kind", sorted(workloads.PAIR_SIGMA2))
def test_pair_oracle_rejects_a_tenth_of_a_percent(kind):
    ref = workloads.PAIR_SIGMA2[kind]
    assert workloads.check_pair(wcost, kind, pair_out(ref)) == []
    # comonotone's variance is 0: perturb by 0.1% of the pair's independent variance
    step = 1e-3 * (ref or workloads.PAIR_SIGMA2["independent"])
    for value in (ref + step, ref - step):
        assert workloads.check_pair(wcost, kind, pair_out(value))
    for cost in (4.0 * 1.001, 4.0 * 0.999):
        assert workloads.check_pair(wcost, kind, pair_out(ref, cost))


#: sigma2 on the four matrix cases as computed at the commit that added the benchmark.
MATRIX_MEASURED = (6.178149217365586, 8315.137567504737, 5.495421555617083, 2.21364242346825)


@pytest.mark.parametrize("case", range(4))
def test_matrix_oracle_rejects_a_tenth_of_a_percent(case):
    ref = workloads.MATRIX_SIGMA2[case][-1]
    measured = MATRIX_MEASURED[case]
    assert workloads.check_matrix(ref, {"sigma2": measured}) == []
    # The tolerance is 0.1% of a reference rounded to 4 digits, so only a 0.1%
    # error that moves the value away from the reference is sure to be caught.
    away = measured * (1.0 + math.copysign(1e-3, measured - ref))
    assert workloads.check_matrix(ref, {"sigma2": away})
    assert workloads.check_matrix(ref, {"sigma2": math.nan})


def test_divergent_oracle_needs_the_typed_error():
    assert workloads.check_divergent({"raised": "NonconvergenceError"}) == []
    assert workloads.check_divergent({"raised": None})


def clt_out(**changes):
    z = ndtri((np.arange(2000) + 0.5) / 2000)
    out = {"exit_code": 0, "ks_distance": 0.01, "coverage": 0.95, "w_exact": 4.0,
           "sigma2_value": 32.0, "standardized": [float(v) for v in z]}
    out.update(changes)
    return out


def test_clt_oracle_rejects_a_tenth_of_a_percent():
    assert workloads.check_clt(wcost, clt_out()) == []
    for key, ref in (("w_exact", 4.0), ("sigma2_value", 32.0)):
        for factor in (1.001, 0.999):
            assert workloads.check_clt(wcost, clt_out(**{key: ref * factor}))
    assert workloads.check_clt(wcost, {"exit_code": 3})


def test_clt_gates():
    assert workloads.clt_gates(clt_out()) == []
    assert workloads.clt_gates({"exit_code": 3})
    assert workloads.clt_gates(clt_out(ks_distance=0.04))
    assert workloads.clt_gates(clt_out(coverage=0.92))
    assert workloads.clt_gates(clt_out(coverage=0.975))
    z = clt_out()["standardized"]
    assert workloads.clt_gates(clt_out(standardized=[v + 0.1 for v in z]))
    assert workloads.clt_gates(clt_out(standardized=[1.2 * v for v in z]))


def test_a_gate_miss_fails_only_when_the_confirmation_seed_misses_too():
    calls = []

    def confirm_with(out):
        return lambda: calls.append(1) or out

    missed = clt_out(ks_distance=0.05)
    assert workloads.judge_clt(wcost, clt_out(), confirm_with(missed)) == []
    assert calls == []  # no re-test unless a gate missed
    assert workloads.judge_clt(wcost, missed, confirm_with(clt_out())) == []
    assert workloads.judge_clt(wcost, missed, confirm_with(missed))
    # exact oracles are never re-tested
    assert workloads.judge_clt(wcost, clt_out(w_exact=4.004), confirm_with(clt_out()))
    assert len(calls) == 2


def test_standardized_must_repeat_bit_for_bit():
    op = workloads.Op("mc", None, None, output_key="standardized")
    out = clt_out()
    nudged = list(out["standardized"])
    nudged[7] *= 1.001
    assert op.fingerprint(out) == op.fingerprint(clt_out())
    assert op.fingerprint(out) != op.fingerprint(clt_out(standardized=nudged))


def test_plugin_oracle():
    good = {"estimate": 4.0, "sigma2": 16.0, "lo": 4.0, "hi": 4.2}
    assert workloads.check_plugin(good) == []
    for bad in (math.nan, math.inf, 0.0, -1.0):
        assert workloads.check_plugin({**good, "sigma2": bad})
    assert workloads.check_plugin({**good, "estimate": 4.0 * 0.999})


def test_close_uses_the_variance_tolerances():
    abs_tol, rel_tol = wcost.DEFAULT_VARIANCE_CONFIG.abs_tol, wcost.DEFAULT_VARIANCE_CONFIG.rel_tol
    assert workloads.close(32.0 * (1 + 0.9 * rel_tol), 32.0, abs_tol, rel_tol)
    assert not workloads.close(32.0 * (1 + 1.1 * rel_tol), 32.0, abs_tol, rel_tol)
    assert not workloads.close(math.nan, 32.0, abs_tol, rel_tol)


def test_run_fails_without_the_program(tmp_path):
    for name in ("BENCHMARK.json", "perfbench"):
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
        else:
            shutil.copy(src, tmp_path / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plugin-ci",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in json.loads(line)
