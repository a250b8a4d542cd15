"""How far the oracle outputs of wcost moved between two trees.

    python3 tests/oracle_drift.py [--base REV]

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
farther, and the largest relative move of a value or an error estimate
that stayed a number.  A second table gives the working tree's coverage on
the rows of ``variance_oracles.json``: per function, the rows whose miss
from their oracle exceeds their est_error, and the worst ratio of the two
(ROADMAP defect 11).  Each side takes about 6 s.  Not collected as tests.
"""

import argparse
import io
import json
import math
import os
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
    """Each output's call: (function, F, G, cost, argument, oracle), in a fixed order.

    The argument is the coupling of ``sigma2``, the side of
    ``sigma2_one_sample``, (coupling, window score) of ``sigma2_window`` and
    the window of ``exact_cost``.  The oracle is the recorded value of a row
    of ``variance_oracles.json``, else None.
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
            calls.append(("exact_cost", *law, (0.0, 1.0), row["value"]))
        elif kind.startswith("one_sample_"):
            calls.append(("sigma2_one_sample", *law, kind[-1], row["value"]))
        else:
            calls.append(("sigma2", *law, kind, row["value"]))
    for row in recorded["cases"] + gauss:
        law = (row["F"], row["G"], row["cost"])
        if row["window_score"] is None:
            calls.append(("sigma2", *law, row["kind"], None))
        else:
            calls.append(("sigma2_window", *law, (row["kind"], row["window_score"]), None))
    passing = {(row["F"], row["G"], row["cost"]) for row in recorded["rows"]}
    for triple in variance_oracles.TRIPLES:
        if triple not in passing:
            calls += [("sigma2", *triple, "independent", None),
                      ("exact_cost", *triple, (0.0, 1.0), None)]
    calls += [("exact_cost", *triple, window, None)
              for triple in variance_oracles.TRIPLES for window in WINDOWS]
    return calls


def evaluate(call: tuple):
    """[value, est_error] of one call, or the type and text of the error it raises."""
    # imported here, so that each side's process reads its own tree's wcost
    from scipy.special import ndtr

    from wcost import estimate, parse_cost, parse_coupling, parse_distribution
    from wcost.errors import NonconvergenceError
    from wcost.variance import sigma2, sigma2_one_sample, sigma2_window

    function, f, g, c, arg, _ = call
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


def drift(base: list, change: list, calls: list[tuple]) -> dict[str, tuple[int, int, int, int, float]]:
    """Per function: (outputs, outputs whose repr moved, moved outputs that came closer to their
    oracle, moved outputs that went farther from it, largest relative move of a number)."""
    table = {}
    for call, a, b in zip(calls, base, change, strict=True):
        n, moved, closer, farther, worst = table.get(call[0], (0, 0, 0, 0, 0.0))
        if repr(a) != repr(b):
            moved += 1
            if isinstance(a, list) and isinstance(b, list):
                worst = max([worst] + [abs(y - x) / abs(x) if x else float("inf")
                                       for x, y in zip(a, b) if x is not None and x != y])
                oracle = call[-1]
                if oracle is not None:
                    closer += abs(b[0] - oracle) < abs(a[0] - oracle)
                    farther += abs(b[0] - oracle) > abs(a[0] - oracle)
        table[call[0]] = (n + 1, moved, closer, farther, worst)
    return table


def coverage(outputs: list, calls: list[tuple]) -> dict[str, tuple[int, int, float]]:
    """Per function: (outputs with an oracle, those whose miss from it exceeds their est_error,
    the worst ratio of miss to est_error)."""
    table = {}
    for call, out in zip(calls, outputs, strict=True):
        oracle = call[-1]
        if oracle is None:
            continue
        n, under, worst = table.get(call[0], (0, 0, 0.0))
        miss, err = (abs(out[0] - oracle), out[1]) if isinstance(out, list) else (math.inf, 0.0)
        if miss > err:  # a refusal misses with no estimate
            under += 1
            worst = max(worst, miss / err if err else math.inf)
        table[call[0]] = (n + 1, under, worst)
    return table


def _outputs(src: str) -> list:
    """The outputs of the wcost under ``src``, evaluated in a process of its own."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="compare REV against the working tree")
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
    calls = items()
    print(f"base {args.base or 'working tree'} against the working tree")
    print(f"{'function':<20}{'outputs':>8}{'moved':>8}{'closer':>8}{'farther':>8}  largest relative move")
    for function, (n, moved, closer, farther, worst) in sorted(drift(base, change, calls).items()):
        print(f"{function:<20}{n:>8}{moved:>8}{closer:>8}{farther:>8}  {worst:.3g}")
    print("\ncoverage of the working tree on the recorded rows")
    print(f"{'function':<20}{'rows':>8}{'miss > est_error':>18}  worst miss / est_error")
    for function, (n, under, worst) in sorted(coverage(change, calls).items()):
        print(f"{function:<20}{n:>8}{under:>18}  {worst:.3g}")


if __name__ == "__main__":
    main()
