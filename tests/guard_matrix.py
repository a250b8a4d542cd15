"""The tail-gate verdict matrix and its recorded values.

``guard_verdicts.json`` holds, for every (F, G, cost) triple of ``TRIPLES``
under both configs of ``CONFIGS``, whether the J-integral guard that the
variance ran before ``assumptions.tail_gate`` passed and, when it did, its
guard integrals J.  The file was recorded at commit 872524d, where each J came
from ``quadrature.integrate_open01``, with

    mkdir -p /tmp/wcost-872524d && git archive 872524d src | tar -x -C /tmp/wcost-872524d
    PYTHONPATH=/tmp/wcost-872524d/src python3 tests/guard_matrix.py > tests/guard_verdicts.json

Run today, the script prints the gate's verdicts instead, one row per triple
(the gate reads no quadrature config).  ``OVERFLOW``, ``RELEAD`` and
``REGATED`` list where the gate's verdict differs from the recorded one.

Not collected as tests.
"""

import json
import os
import sys
from dataclasses import asdict

from wcost import parse_cost, parse_distribution
from wcost.assumptions import tail_gate
from wcost.quadrature import QuadratureConfig
from wcost.variance import DEFAULT_VARIANCE_CONFIG

RECORDED = os.path.join(os.path.dirname(__file__), "guard_verdicts.json")

COSTS = ("power(1.5)", "power(2)", "power(3)", "power(5)", "logpower(0.5)", "logpower(1)",
         "exppower(0.5)", "exppower(1)")


def _pairs():
    for p in (2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5, 10):
        base = f"pareto({p})"
        for other in (f"locscale({base},1,1)", f"locscale({base},2,0)", "exponential(1)"):
            yield base, other
    for k in (0.3, 0.5, 0.75, 1, 1.5, 2):
        yield f"weibull({k})", f"locscale(weibull({k}),1,1)"
    yield "gaussian(0,1)", "gaussian(2,1)"
    yield "gaussian(0,1)", "gaussian(3,2)"
    yield "gaussian(0,1)", "exponential(1)"
    yield "exponential(1)", "locscale(exponential(1),1,1)"


TRIPLES = tuple((f, g, c) for f, g in _pairs() for c in COSTS)

#: the two overflow triples: J came out inf and 4.39e302 at 872524d, and the
#: guard passed them, since its divergence test cannot compare overflowed strips
OVERFLOW = (("pareto(2.5)", "locscale(pareto(2.5),2,0)", "exppower(1)"),
            ("weibull(0.3)", "locscale(weibull(0.3),1,1)", "exppower(1)"))

#: Pareto shape -> costs whose guard fails, for the triples (pareto(p), exponential(1),
#: cost) whose lead law changed when ``heavier_right`` began to rank two unbounded tails
#: by tail class.  The Pareto tail (class 0) is heavier than the exponential one (class
#: 1), but for p >= 6.5 the quantile at 1 - 1e-8 had picked the exponential, so the
#: recorded J belong to the lighter tail.  Every other cost passes, under both configs.
_RELEAD_FAILS = {
    "6.5": ("power(5)", "logpower(1)", "exppower(0.5)", "exppower(1)"),
    "7": ("power(5)", "logpower(0.5)", "logpower(1)", "exppower(0.5)", "exppower(1)"),
    "7.5": ("power(5)", "logpower(0.5)", "logpower(1)", "exppower(0.5)", "exppower(1)"),
    "8": ("power(5)", "logpower(0.5)", "logpower(1)", "exppower(1)"),
    "8.5": ("power(5)", "logpower(1)", "exppower(1)"),
    "9": ("power(5)", "logpower(1)", "exppower(0.5)", "exppower(1)"),
    "9.5": ("power(5)", "logpower(1)", "exppower(1)"),
    "10": ("power(5)", "logpower(1)", "exppower(1)"),
}
#: triple -> whether the guard passes it with the Pareto tail in the lead
RELEAD = {(f"pareto({p})", "exponential(1)", c): c not in fails
          for p, fails in _RELEAD_FAILS.items() for c in COSTS}

#: cost -> (Pareto shape, the other law: exponential(1), or the Pareto's locscale "a,b")
_FALSE_PASSES = {
    "logpower(0.5)": (("6.5", "exponential(1)"), ("7.5", "2,0"), ("8.5", "1,1"),
                      ("8.5", "exponential(1)"), ("9", "1,1"), ("9", "2,0"),
                      ("9", "exponential(1)"), ("9.5", "1,1"), ("9.5", "2,0"),
                      ("9.5", "exponential(1)"), ("10", "1,1"), ("10", "2,0"),
                      ("10", "exponential(1)")),
    "exppower(0.5)": (("8", "1,1"), ("8", "exponential(1)"), ("8.5", "exponential(1)"),
                      ("9", "1,1"), ("9.5", "exponential(1)"), ("10", "1,1"), ("10", "2,0"),
                      ("10", "exponential(1)")),
}
#: Weibull shape -> costs
_FALSE_FAILS = {"0.3": ("power(3)", "power(5)", "logpower(0.5)", "logpower(1)"),
                "0.5": ("power(5)", "logpower(1)"),
                "0.75": ("logpower(1)",)}
#: Triples whose verdict moved when ``assumptions.tail_gate`` replaced the J-integral
#: guard -> whether the gate passes them.  Each of the 21 that now fail leads with a
#: Pareto tail under logpower(0.5) or exppower(0.5): the slope outgrows every power of
#: the Pareto quantile, so sigma2 is infinite (lambda = inf), but J's divergence starts
#: near 1 - u = 1e-16, past its mesh, and J passed them.  The 7 that now pass are
#: Weibull translations under power and logpower costs (lambda = delta = 0): sigma2 is
#: the finite 2 rho'(1)^2 Var X, and J failed them, its tail mass too slow to resolve.
REGATED = {
    **{(f"pareto({p})", other if other.startswith("exp") else f"locscale(pareto({p}),{other})",
        c): False
       for c, pairs in _FALSE_PASSES.items() for p, other in pairs},
    **{(f"weibull({k})", f"locscale(weibull({k}),1,1)", c): True
       for k, costs in _FALSE_FAILS.items() for c in costs},
}

CONFIGS = {"default_variance": DEFAULT_VARIANCE_CONFIG, "quadrature_default": QuadratureConfig()}


def verdict(triple) -> dict:
    """``assumptions.tail_gate`` on ``triple``: {"pass": bool, "gate": its verdict's fields}."""
    f, g, c = triple
    gate = tail_gate(parse_distribution(f), parse_distribution(g), parse_cost(c))
    return {"pass": not gate.failed, "gate": asdict(gate)}


def record() -> list:
    return [{"F": f, "G": g, "cost": c, **verdict((f, g, c))} for f, g, c in TRIPLES]


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(row) for row in record()) + "\n]\n")
