"""wcost benchmark: time one workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; wcost is imported from the checkout's
``src``.  Every process the benchmark starts runs one after the other on a
single thread (BLAS threads pinned to 1):

* two ``setup`` processes and the timed process each time a fresh
  interpreter until ``import wcost`` has finished and the inputs are built;
  ``setup_s`` is the median of the three;
* the ``timed`` process repeats the workload's fixed op list for S seconds
  (at least two passes) and checks every output against its oracle;
* with ``--trace 1`` a separate ``traced`` process runs one pass with every
  layer's entry points wrapped, and reports per-layer self times and counts.

Timings use process-level timers only (``time.perf_counter``,
``time.process_time``, ``getrusage``); nothing traces or profiles the system
as a whole.  The next-to-last stdout line is the full report (all
end-to-end metrics named for the workload, per-layer metrics with unmeasured
layers named, failures, machine fingerprint); the last line is the result
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("variance-oracle", "mc-clt", "plugin-ci")

SETUP_PROBES = 2
#: Whole-run budget; each worker is killed once the run has lasted this long.
DEADLINE_S = 170.0
#: Marks a per-layer metric whose layer the workload never entered (measured
#: times and counts are never negative).
UNMEASURED = -1.0

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMER_NOTE = ("process-level timers only (perf_counter, process_time, getrusage); "
              "no system-wide tracing or profiling is used")


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return (its result, its set-up time)."""
    env = {**os.environ, **PINNED_THREADS}
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), repr(args.seconds)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise WorkerError(f"{mode} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), float(lines[0].split()[1]) - t0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(software: dict) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"cores": os.cpu_count(), "cores_usable": affinity,
            "platform": sys.platform, **software,
            "git_commit": git_commit(), "timers": TIMER_NOTE}


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args, setups, timed) -> dict:
    lat_ms = [1e3 * t for t in timed["latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(timed["wall_s"]), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "fail_share": (timed["failed"] / timed["attempted"], "ratio"),
    }
    for key, values in sorted(timed["timings_s"].items()):
        metrics[key] = (statistics.median(values), "s")
    if args.workload == "plugin-ci":
        metrics["op_p95_ms"] = (percentile(lat_ms, 95), "ms")
        if "ci_coverage_gap" in timed:
            metrics["ci_coverage_gap"] = (timed["ci_coverage_gap"], "ratio")
    return metrics


def layers(traced, wall_s: float) -> dict:
    out = {name: tuple(pair) for name, pair in traced["layers"].items()}
    out["trace.overhead"] = (traced["traced_wall_s"] / wall_s - 1.0, "ratio")
    return out


def as_metrics(pairs: dict, names) -> dict:
    return {name: {"value": UNMEASURED if pairs[name][0] is None else pairs[name][0],
                   "unit": pairs[name][1]} for name in names}


def load_names(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "wcost", "__init__.py")):
        print(f"perfbench: no wcost package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [spawn("setup", args, deadline)[1] for _ in range(SETUP_PROBES)]
        timed, ready = spawn("timed", args, deadline)
        setups.append(ready)
        traced = spawn("traced", args, deadline)[0] if args.trace else None
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    e2e = end_to_end(args, setups, timed)
    attempted, failed = timed["attempted"], timed["failed"]
    failures = list(timed["failures"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": len(timed["wall_s"]), "ops": len(timed["latencies_s"]),
              "pass_wall_s": timed["wall_s"], "pass_cpu_s": timed["cpu_s"],
              "setup_samples_s": setups,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "machine": machine(timed["software"])}
    if traced is not None:
        per_layer = layers(traced, e2e["wall_s"][0])
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in per_layer.items() if v is not None}
        report["unmeasured"] = sorted(k for k, (v, _) in per_layer.items() if v is None)
        metrics = as_metrics(per_layer, load_names("per_layer"))
    else:
        metrics = as_metrics(e2e, load_names("end_to_end"))
    report["failures"] = failures
    report["notes"] = timed["notes"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
