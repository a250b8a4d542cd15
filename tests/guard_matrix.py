"""The tail-guard verdict matrix and its recorded values.

``guard_verdicts.json`` holds, for every (F, G, cost) triple of ``TRIPLES``
under both configs of ``CONFIGS``, whether ``variance._tail_guard`` passed
and, when it did, its guard integrals J.  The file was recorded at commit
872524d, where each J came from ``quadrature.integrate_open01``, with

    mkdir -p /tmp/wcost-872524d && git archive 872524d src | tar -x -C /tmp/wcost-872524d
    PYTHONPATH=/tmp/wcost-872524d/src python3 tests/guard_matrix.py > tests/guard_verdicts.json

Not collected as tests.
"""

import json
import os
import sys

from wcost import parse_cost, parse_distribution
from wcost.errors import NonconvergenceError
from wcost.quadrature import QuadratureConfig
from wcost.variance import DEFAULT_VARIANCE_CONFIG, _tail_guard

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

CONFIGS = {"default_variance": DEFAULT_VARIANCE_CONFIG, "quadrature_default": QuadratureConfig()}


def verdict(triple, q) -> dict:
    """{"pass": True, "J": {key: value}} or {"pass": False, "error": exception type}."""
    f, g, c = triple
    try:
        guard = _tail_guard(parse_distribution(f), parse_distribution(g), parse_cost(c), q,
                            ("x", "y"))
    except NonconvergenceError as exc:
        return {"pass": False, "error": type(exc).__name__}
    return {"pass": True, "J": {key: float(value) for key, value in guard.items()}}


def record() -> list:
    return [{"F": f, "G": g, "cost": c, "config": name, **verdict((f, g, c), q)}
            for name, q in CONFIGS.items() for f, g, c in TRIPLES]


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(row) for row in record()) + "\n]\n")
