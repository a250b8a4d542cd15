"""One benchmark process: set up a workload, then time it or trace it.

    python perfbench/worker.py MODE WORKLOAD SEED SECONDS

``run.py`` starts one process per mode, so the wrappers of a traced run never
exist in the process that takes the timings.  MODE is ``setup`` (stop once the
inputs are built), ``timed`` (repeat passes over the op list for SECONDS) or
``traced`` (one pass with every layer wrapped).  Once ``import wcost`` has
finished and the inputs are built the process prints ``ready <monotonic
clock>``; its last stdout line is a JSON object with the results.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: A timed run makes at least this many passes, so that wall_s is a median.
MIN_PASSES = 2
#: No pass starts once a run has lasted this long, whatever SECONDS says.
HARD_CAP_S = 120.0


def import_wcost():
    """Import wcost from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, SRC)
    import wcost

    where = os.path.realpath(os.path.dirname(wcost.__file__))
    if where != os.path.realpath(os.path.join(SRC, "wcost")):
        raise ImportError(f"wcost imported from {where}, not from this checkout's src/")
    import wcost.cli  # noqa: F401  (the mc-clt op calls wcost.cli.main)

    return wcost


def software() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {key: os.environ.get(key) for key in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def execute(ops):
    """Run every op once; return (pass wall time, per-op latencies, results)."""
    latencies, results = [], []
    t0 = time.perf_counter()
    for op in ops:
        o0 = time.perf_counter()
        try:
            results.append((op.run(), None))
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            traceback.print_exc()
            results.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - o0)
    return time.perf_counter() - t0, latencies, results


def judge(ops, results, reference, tally) -> list:
    """Check every op's output against its oracle; return the outputs."""
    outputs = []
    for i, (op, (out, error)) in enumerate(zip(ops, results)):
        problems = [error] if error else op.check(out)
        if not problems and reference is not None and op.fingerprint(out) != reference[i]:
            problems = ["output differs from the first pass of this run"]
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            if len(tally["failures"]) < 20:
                tally["failures"].append(f"{op.label}: {'; '.join(problems)}")
        outputs.append(out)
    return outputs


def timed(workload, seconds: float) -> dict:
    from spans import installed_wrappers

    leaked = installed_wrappers()
    if leaked:
        raise RuntimeError(f"span wrappers present in a timed run: {leaked}")
    tally = {"attempted": 0, "failed": 0, "failures": []}
    walls, cpus, latencies, timings = [], [], [], {}
    reference, first = None, None
    start = time.perf_counter()
    while True:
        c0 = time.process_time()
        wall, lat, results = execute(workload.ops)
        cpus.append(time.process_time() - c0)
        outputs = judge(workload.ops, results, reference, tally)
        walls.append(wall)
        latencies.extend(lat)
        if reference is None:
            first = outputs
            reference = [op.fingerprint(out) if out is not None else None
                         for op, out in zip(workload.ops, outputs)]
        for op, out in zip(workload.ops, outputs):
            if op.timing_key and out is not None:
                timings.setdefault(op.timing_key, []).append(out["sigma2_s"])
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + wall > seconds:
            break
        if elapsed + wall > HARD_CAP_S:
            break
    result = {"wall_s": walls, "cpu_s": cpus, "latencies_s": latencies,
              "timings_s": timings, **tally}
    if hasattr(workload, "coverage_gap") and all(out is not None for out in first):
        result["ci_coverage_gap"] = workload.coverage_gap(first)
    result["notes"] = getattr(workload, "notes", [])
    return result


def traced(workload) -> dict:
    import spans

    tracer = spans.Tracer()
    patcher = spans.Patcher(tracer)
    tally = {"attempted": 0, "failed": 0, "failures": []}
    patcher.install()
    try:
        wall, _, results = execute(workload.ops)
    finally:
        patcher.remove()
    judge(workload.ops, results, None, tally)
    leaked = spans.installed_wrappers()
    if leaked:
        raise RuntimeError(f"span wrappers left after the traced run: {leaked}")
    layers = spans.layer_metrics(tracer)
    layers["trace.unattributed_s"] = (wall - tracer.root_total(), "s")
    return {"traced_wall_s": wall, "layers": layers, **tally}


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    try:
        wcost = import_wcost()
    except ImportError as exc:
        print(f"perfbench: cannot import wcost from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name](wcost, seed, ROOT)
    print(f"ready {time.monotonic()!r}", flush=True)
    try:
        if mode == "setup":
            result = {}
        elif mode == "timed":
            result = timed(workload, seconds)
        else:
            result = traced(workload)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["software"] = software()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
