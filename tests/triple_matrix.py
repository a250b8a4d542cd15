"""The ``verify_triple`` report matrix and its recorded outputs.

``triple_reports.json`` holds, for every (F, G, cost) triple of ``TRIPLES``,
what ``verify_triple`` reported with its default arguments: per tail side, the
status, witness and value of every condition, plus ``theta``, ``tau0``, ``m``
and the swap flags; or the type and message of the error it raised.  Notes
are left out: the trend-slope digits in them are rounding noise when the
slope is within ~1e-12 of zero.  The file was recorded at commit 32efc77,
where ``_bounded_sup`` took its slope from ``numpy.polyfit`` and ``cfg`` came
from ``check_cfg``'s grid (``CFG_MOVED`` lists where ``tail_gate`` differs).
``verify_triple`` no longer reports ``theta`` or the advisory
``tail_sufficient`` condition (``RETIRED``); ``expected`` drops both from the
recorded sides.  fg1-fg3 and fg5 were then decided on 512-point grids with a
sup cap and a trend-slope cap, and their witnesses were grid points; they now
come from the laws' tail constants, whose limits have no location, so
``expected`` compares them by status only, as it does ``cfg`` (``STATUS_ONLY``).
The file was written, when ``_SIDE_KEYS`` still held ``theta``, with

    mkdir -p /tmp/wcost-32efc77 && git archive 32efc77 src | tar -x -C /tmp/wcost-32efc77
    PYTHONPATH=/tmp/wcost-32efc77/src python3 tests/triple_matrix.py --commit 32efc77 \
        > tests/triple_reports.json

``--commit`` labels the output with the checkout that ``PYTHONPATH`` points at.

Not collected as tests.
"""

import argparse
import json
import os
import sys

from wcost import parse_cost, parse_distribution, verify_triple

RECORDED = os.path.join(os.path.dirname(__file__), "triple_reports.json")

COSTS = ("power(1.5)", "power(2)", "power(3)", "logpower(0.5)", "exppower(0.5)")

#: Gaussian, Exponential, Weibull and Pareto laws, shifted or scaled by
#: ``locscale`` and mirrored by ``reflect``, so that both tail sides, both
#: lead-law orders and the bounded-side shortcuts all occur.
PAIRS = (
    ("gaussian(0,1)", "gaussian(2,1)"),
    ("gaussian(0,1)", "gaussian(3,2)"),
    ("gaussian(0,1)", "exponential(1)"),
    ("gaussian(1,2)", "weibull(1)"),
    ("exponential(1)", "exponential(2)"),
    ("exponential(1)", "locscale(exponential(1),1,1)"),
    ("exponential(1)", "pareto(4)"),
    ("weibull(1.5)", "weibull(0.7)"),
    ("weibull(2)", "locscale(weibull(2),1,1)"),
    ("weibull(0.5)", "pareto(8)"),
    ("pareto(5)", "locscale(pareto(5),1,1)"),
    ("pareto(3)", "locscale(pareto(3),2,0)"),
    ("pareto(10)", "exponential(1)"),
    ("reflect(exponential(1))", "gaussian(0,1)"),
    ("reflect(pareto(6))", "reflect(locscale(pareto(6),1,1))"),
    ("reflect(weibull(1.5))", "exponential(1)"),
    ("locscale(gaussian(0,1),2,1)", "gaussian(0,1)"),
    ("locscale(weibull(0.5),1,2)", "weibull(0.5)"),
    ("locscale(reflect(exponential(1)),1,0.5)", "exponential(1)"),
    ("reflect(locscale(pareto(4),1,-3))", "gaussian(0,3)"),
)

TRIPLES = tuple((f, g, c) for f, g in PAIRS for c in COSTS)

#: (triple, side) -> the ``cfg`` status that ``assumptions.tail_gate`` gives where the
#: recorded one came from ``check_cfg``'s grid.  The first four have an infinite
#: sigma2: a logpower or exppower slope outgrows every power of a Pareto quantile,
#: which the grid, stopping at 1 - u = 1e-10, does not reach.  The last two pass the
#: limit of the paper's condition: lambda + delta is 0 against a Weibull(0.5) tail, and
#: 1/8 + 1/4 against a Pareto(4) tail under power(1.5); the grid's 2 theta / x term
#: failed them at finite depth.
CFG_MOVED = {
    (("weibull(0.5)", "pareto(8)", "logpower(0.5)"), "right"): "fail",
    (("weibull(0.5)", "pareto(8)", "exppower(0.5)"), "right"): "fail",
    (("pareto(10)", "exponential(1)", "logpower(0.5)"), "right"): "fail",
    (("pareto(10)", "exponential(1)", "exppower(0.5)"), "right"): "fail",
    (("locscale(weibull(0.5),1,2)", "weibull(0.5)", "logpower(0.5)"), "right"): "pass",
    (("reflect(locscale(pareto(4),1,-3))", "gaussian(0,3)", "power(1.5)"), "left"): "pass",
}
#: triple -> ``all_pass`` where a moved ``cfg`` status moved it
ALL_PASS_MOVED = {("locscale(weibull(0.5),1,2)", "weibull(0.5)", "logpower(0.5)"): True}

_SIDE_KEYS = ("tau0", "m")
#: the conditions whose recorded witness and value no longer hold: ``cfg`` is now
#: ``tail_gate``'s verdict, and fg1-fg3 and fg5 the limits of the tail constants
STATUS_ONLY = ("fg1", "fg2", "fg3", "fg5", "cfg")
#: recorded per-side keys that ``verify_triple`` no longer reports
RETIRED = ("theta", "tail_sufficient")


def report(triple) -> dict:
    """Everything ``verify_triple`` reports on ``triple`` apart from its notes."""
    f, g, c = triple
    try:
        tr = verify_triple(parse_distribution(f), parse_distribution(g), parse_cost(c))
    except (ValueError, ArithmeticError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    out = {"swapped_right": tr.swapped_right, "swapped_left": tr.swapped_left,
           "all_pass": tr.all_pass}
    for side in (tr.right, tr.left):
        d = side.to_dict()
        entry = {key: d[key] for key in _SIDE_KEYS}
        entry.update({name: [s.status, s.witness_location, s.witness_value]
                      for name, s in side.conditions().items()})
        out[side.side] = entry
    return out


def expected(triple, recorded: dict) -> dict:
    """A recorded report as ``tail_gate`` moves it, each side's ``STATUS_ONLY`` cut to its status.

    The ``RETIRED`` keys are dropped from each side.
    """
    out = status_only(recorded)
    for side in ("right", "left"):
        for key in RETIRED if side in out else ():
            out[side].pop(key, None)
        if (triple, side) in CFG_MOVED:
            out[side]["cfg"] = CFG_MOVED[(triple, side)]
    if triple in ALL_PASS_MOVED:
        out["all_pass"] = ALL_PASS_MOVED[triple]
    return out


def status_only(rep: dict) -> dict:
    """``rep`` with each side's ``STATUS_ONLY`` conditions cut to their statuses."""
    out = {key: dict(value) if isinstance(value, dict) else value for key, value in rep.items()}
    for side in ("right", "left"):
        for name in STATUS_ONLY if side in out else ():
            out[side][name] = out[side][name][0]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="Write verify_triple's reports on TRIPLES.")
    parser.add_argument("--commit", required=True,
                        help="label of the checkout whose verify_triple runs")
    args = parser.parse_args()
    rows = [{"triple": list(t), "report": report(t)} for t in TRIPLES]
    sys.stdout.write(f'{{"commit": {json.dumps(args.commit)}, "triples": [\n')
    sys.stdout.write(",\n".join(json.dumps(r, separators=(",", ":")) for r in rows))
    sys.stdout.write("\n]}\n")


if __name__ == "__main__":
    main()
