"""How far the oracle outputs of wcost moved between two trees.

    python3 tests/oracle_drift.py [--base REV] [--json PATH]

The outputs are those that the recorded oracles pin, and those next to them:

* each row of ``variance_oracles.json``: ``sigma2`` under its three
  couplings, both ``sigma2_one_sample`` variances and ``exact_cost``;
* its named cases and the cases of ``gauss_cross_oracles.json``, through
  ``sigma2``, or ``sigma2_window`` where a case has a window score;
* ``sigma2`` (independent) and ``exact_cost`` on each stress-matrix triple
  whose gate fails, which refuse it;
* ``exact_cost`` on the windows ``WINDOWS`` of every stress-matrix triple.

An output is ``repr`` of (value, est_error), or the type and text of the
error raised; ``exact_cost`` discards its error estimate, so it is read
where ``estimate._quantile_integral`` returns it.  Each tree runs in its own
process, on the rows of this checkout: ``--base`` unpacks ``src`` of REV
with ``git archive`` into a temporary directory and runs it against the
working tree.  Without ``--base`` the working tree runs on both sides, an
A/A run that must show 0 moved.  Per function it prints the outputs, how
many moved, how many of those came closer to their oracle and how many
farther, and the largest and the median relative move of a value or an
error estimate that stayed a number.  A second table gives the working
tree's coverage on the outputs that have an oracle, the rows and named
cases of ``variance_oracles.json`` and the cases of
``gauss_cross_oracles.json``: per function, the outputs whose miss from
their oracle exceeds their est_error, plus the oracle's own ``grid_error``
for a Gaussian-copula case, and the worst ratio of the two (ROADMAP defect
11).  ``--json`` also writes both tables
to PATH, with the base and the numpy and scipy versions that ran them.
Each side takes about 6 s.  Not collected as tests.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import warnings

import variance_oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The exact_cost windows taken on every stress-matrix triple.
WINDOWS = ((0.05, 0.95), (0.2, 0.7))


def items() -> list[tuple]:
    """Each output's call: (function, F, G, cost, argument, oracle error, oracle), in a fixed order.

    The argument is the coupling of ``sigma2``, the side of
    ``sigma2_one_sample``, (coupling, window score) of ``sigma2_window`` and
    the window of ``exact_cost``.  The oracle is the recorded value of a row
    or case, else None; its error is a Gaussian-copula case's
    ``grid_error``, else 0.0.
    """
    with open(variance_oracles.RECORDED) as fh:
        recorded = json.load(fh)
    with open(os.path.join(HERE, "gauss_cross_oracles.json")) as fh:
        gauss = [dict(row, kind=f"gauss({row['r']})") for row in json.load(fh)["cases"]]
    calls = []
    for row in recorded["rows"]:
        kind = row["kind"]
        law = (row["F"], row["G"], row["cost"])
        if kind == "exact_cost":
            calls.append(("exact_cost", *law, (0.0, 1.0), 0.0, row["value"]))
        elif kind.startswith("one_sample_"):
            calls.append(("sigma2_one_sample", *law, kind[-1], 0.0, row["value"]))
        else:
            calls.append(("sigma2", *law, kind, 0.0, row["value"]))
    for row in recorded["cases"] + gauss:
        law, oracle = (row["F"], row["G"], row["cost"]), (row.get("grid_error", 0.0), row["value"])
        if row["window_score"] is None:
            calls.append(("sigma2", *law, row["kind"], *oracle))
        else:
            calls.append(("sigma2_window", *law, (row["kind"], row["window_score"]), *oracle))
    passing = {(row["F"], row["G"], row["cost"]) for row in recorded["rows"]}
    for triple in variance_oracles.TRIPLES:
        if triple not in passing:
            calls += [("sigma2", *triple, "independent", 0.0, None),
                      ("exact_cost", *triple, (0.0, 1.0), 0.0, None)]
    calls += [("exact_cost", *triple, window, 0.0, None)
              for triple in variance_oracles.TRIPLES for window in WINDOWS]
    return calls


def evaluate(call: tuple):
    """[value, est_error] of one call, or the type and text of the error it raises."""
    # imported here, so that each side's process reads its own tree's wcost
    from scipy.special import ndtr

    from wcost import estimate, parse_cost, parse_coupling, parse_distribution
    from wcost.errors import NonconvergenceError
    from wcost.variance import sigma2, sigma2_one_sample, sigma2_window

    function, f, g, c, arg = call[:5]
    F, G, cost = parse_distribution(f), parse_distribution(g), parse_cost(c)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some pairs nearly coincide in a tail
            if function == "exact_cost":
                integral, seen = estimate._quantile_integral, []
                estimate._quantile_integral = lambda *args: seen.append(integral(*args)) or seen[-1]
                try:
                    return [estimate.exact_cost(F, G, cost, window=tuple(arg)), float(seen[-1][1])]
                finally:
                    estimate._quantile_integral = integral
            if function == "sigma2_one_sample":
                res = sigma2_one_sample(F, G, cost, arg)
            elif function == "sigma2_window":
                res = sigma2_window(F, G, cost, parse_coupling(arg[0]), float(ndtr(-arg[1])))
            else:
                res = sigma2(F, G, cost, parse_coupling(arg))
    except (ValueError, NonconvergenceError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [res.value, res.est_error]


#: The columns of the two tables, as ``--json`` names them.
DRIFT_KEYS = ("outputs", "moved", "closer", "farther", "largest_relative_move", "median_relative_move")
COVERAGE_KEYS = ("rows", "miss_over_est_error", "worst_miss_over_est_error")


def _moves(a, b) -> list[float]:
    """The relative moves of the numbers of an output that stayed a list of numbers."""
    if not (isinstance(a, list) and isinstance(b, list)):
        return []
    return [abs(y - x) / abs(x) if x else float("inf") for x, y in zip(a, b) if x is not None and x != y]


def drift(base: list, change: list, calls: list[tuple]) -> dict[str, tuple[int, int, int, int, float]]:
    """Per function: (outputs, outputs whose repr moved, moved outputs that came closer to their
    oracle, moved outputs that went farther from it, largest relative move of a number)."""
    table = {}
    for call, a, b in zip(calls, base, change, strict=True):
        n, moved, closer, farther, worst = table.get(call[0], (0, 0, 0, 0, 0.0))
        if repr(a) != repr(b):
            moved += 1
            if isinstance(a, list) and isinstance(b, list):
                worst = max([worst] + _moves(a, b))
                oracle = call[-1]
                if oracle is not None:
                    closer += abs(b[0] - oracle) < abs(a[0] - oracle)
                    farther += abs(b[0] - oracle) > abs(a[0] - oracle)
        table[call[0]] = (n + 1, moved, closer, farther, worst)
    return table


def median_moves(base: list, change: list, calls: list[tuple]) -> dict[str, float]:
    """Per function: the median, over the moved outputs that stayed numbers, of each one's
    largest relative move; 0.0 where none moved."""
    moves = {call[0]: [] for call in calls}
    for call, a, b in zip(calls, base, change, strict=True):
        numbers = _moves(a, b)
        if numbers:
            moves[call[0]].append(max(numbers))
    return {function: statistics.median(m) if m else 0.0 for function, m in moves.items()}


def coverage(outputs: list, calls: list[tuple]) -> dict[str, tuple[int, int, float]]:
    """Per function: (outputs with an oracle, those whose miss from it exceeds their est_error
    plus the oracle's error, the worst ratio of miss to that sum)."""
    table = {}
    for call, out in zip(calls, outputs, strict=True):
        *_, slack, oracle = call
        if oracle is None:
            continue
        n, under, worst = table.get(call[0], (0, 0, 0.0))
        miss, err = (abs(out[0] - oracle), out[1] + slack) if isinstance(out, list) else (math.inf, 0.0)
        if miss > err:  # a refusal misses with no estimate
            under += 1
            worst = max(worst, miss / err if err else math.inf)
        table[call[0]] = (n + 1, under, worst)
    return table


def tables(base: list, change: list, calls: list[tuple], rev: str | None) -> dict:
    """Both tables by function and column, with the base REV and the numpy and scipy versions."""
    import numpy
    import scipy

    medians = median_moves(base, change, calls)
    return {"base": rev or "working tree", "numpy": numpy.__version__, "scipy": scipy.__version__,
            "drift": {function: dict(zip(DRIFT_KEYS, row + (medians[function],)))
                      for function, row in sorted(drift(base, change, calls).items())},
            "coverage": {function: dict(zip(COVERAGE_KEYS, row))
                         for function, row in sorted(coverage(change, calls).items())}}


def _outputs(src: str) -> list:
    """The outputs of the wcost under ``src``, evaluated in a process of its own."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="compare REV against the working tree")
    parser.add_argument("--json", metavar="PATH", help="also write both tables to PATH as JSON")
    parser.add_argument("--emit", action="store_true",
                        help="print this process's outputs as JSON (what each side runs)")
    args = parser.parse_args()
    if args.emit:
        json.dump([evaluate(call) for call in items()], sys.stdout)
        return
    with tempfile.TemporaryDirectory() as tmp:
        if args.base:
            archive = subprocess.run(["git", "-C", ROOT, "archive", args.base, "src"],
                                     check=True, capture_output=True).stdout
            tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp, filter="data")
        base = _outputs(os.path.join(tmp if args.base else ROOT, "src"))
    change = _outputs(os.path.join(ROOT, "src"))
    report = tables(base, change, items(), args.base)
    print(f"base {report['base']} against the working tree "
          f"(numpy {report['numpy']}, scipy {report['scipy']})")
    print(f"{'function':<20}{'outputs':>8}{'moved':>8}{'closer':>8}{'farther':>8}  relative move: largest, median")
    for function, row in report["drift"].items():
        n, moved, closer, farther, worst, median = row.values()
        print(f"{function:<20}{n:>8}{moved:>8}{closer:>8}{farther:>8}  {worst:.3g}, {median:.3g}")
    print("\ncoverage of the working tree on the recorded rows and cases")
    print(f"{'function':<20}{'rows':>8}{'miss > est_error':>18}  worst miss / est_error")
    for function, row in report["coverage"].items():
        n, under, worst = row.values()
        print(f"{function:<20}{n:>8}{under:>18}  {worst:.3g}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
