"""``sigma2``, ``sigma2_one_sample`` and ``exact_cost`` against the stress-matrix oracles.

``variance_oracles.json`` holds, for every gate-passing triple of the stress
matrix, the variances under the independent, comonotone and countermonotone
couplings, both one-sample variances and the exact cost, each from
``scipy.integrate.quad`` in x = F^{-1}(u) with no part of wcost's quadrature
(``variance_oracles.py``).  A row passes when the value lies within its
``est_error`` plus the tolerance of its config; ``exact_cost`` returns no error
estimate, and its own stays within the tolerance, so it gets twice the
tolerance.  ``KNOWN`` lists the rows that miss or raise; a listed row that
passes fails the test, so the list shrinks as defects are mended.  A variance
row should also lie within its ``est_error`` alone; ``UNDER_COVERED`` lists,
just as strictly, the rows where it does not (ROADMAP defect 11).  The
triples whose gate fails raise ``HypothesisGateError``.  Both oracle files
hold exactly what their scripts write.
"""

import json
import math
import warnings

import pytest

from wcost import parse_cost, parse_coupling, parse_distribution
from wcost.errors import HypothesisGateError, NonconvergenceError
from wcost.estimate import exact_cost
from wcost.quadrature import QuadratureConfig, _tolerance
from wcost.variance import DEFAULT_VARIANCE_CONFIG, sigma2, sigma2_one_sample

import gauss_cross_oracles
import oracle_drift
import variance_oracles

with open(variance_oracles.RECORDED) as _fh:
    _RECORDED = json.load(_fh)
ROWS, CASES = _RECORDED["rows"], _RECORDED["cases"]

#: (F, G, cost, kind) of the rows that miss their oracle or raise, each with the
#: reason as a comment.  Empty since ``exact_cost`` integrates along the tail
#: coordinate (defect 8).
KNOWN = set()

#: The variance rows whose miss exceeds their ``est_error`` alone (by 1.3-2.1 times)
#: though not ``est_error`` plus the tolerance: N(0,1)/Pareto(10) under power(1.5),
#: whose quantiles cross twice (ROADMAP defect 11).
UNDER_COVERED = {
    (f, g, 'power(1.5)', kind)
    for f, g, one_sample in (('gaussian(0,1)', 'pareto(10)', 'one_sample_x'),
                             ('pareto(10)', 'gaussian(0,1)', 'one_sample_y'))
    for kind in ('independent', 'comonotone', 'countermonotone', one_sample)
}


def _outcome(row):
    """(value, est_error, allowed distance from the oracle), or the error message.

    ``exact_cost`` has no error estimate, so its est_error is None.
    """
    F, G, c = (parse_distribution(row["F"]), parse_distribution(row["G"]),
               parse_cost(row["cost"]))
    kind = row["kind"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some pairs nearly coincide in a tail
            if kind == "exact_cost":
                return (exact_cost(F, G, c), None,
                        2.0 * _tolerance(QuadratureConfig(), row["value"]))
            if kind.startswith("one_sample_"):
                res = sigma2_one_sample(F, G, c, kind[-1])
            else:
                res = sigma2(F, G, c, parse_coupling(kind))
    except NonconvergenceError as exc:
        return str(exc)
    return (res.value, res.est_error,
            res.est_error + _tolerance(DEFAULT_VARIANCE_CONFIG, row["value"]))


@pytest.mark.parametrize("kind", variance_oracles.KINDS)
def test_stress_matrix_rows_meet_their_oracles(kind):
    rows = [row for row in ROWS if row["kind"] == kind]
    assert rows
    missed, under = {}, {}
    for row in rows:
        out, key = _outcome(row), (row["F"], row["G"], row["cost"], kind)
        if isinstance(out, str) or not abs(out[0] - row["value"]) <= out[2]:
            missed[key] = out
        elif out[1] is not None and not abs(out[0] - row["value"]) <= out[1]:
            under[key] = out
    # a row whose gate passed is never called divergent, its cost included
    assert not any(isinstance(out, str) and "divergent" in out for out in missed.values())
    known = {key for key in KNOWN if key[3] == kind}
    assert set(missed) - known == set(), {key: missed[key] for key in set(missed) - known}
    assert known - set(missed) == set(), "listed as known but now within bound"
    under_covered = {key for key in UNDER_COVERED if key[3] == kind}
    assert set(under) - under_covered == set(), {key: under[key] for key in set(under) - under_covered}
    assert under_covered - set(under) == set(), "listed as under-covered but now within est_error"


def test_stress_matrix_triples_without_rows_fail_the_gate():
    passing = {(row["F"], row["G"], row["cost"]) for row in ROWS}
    failing = [t for t in variance_oracles.TRIPLES if t not in passing]
    assert len(passing) + len(failing) == len(variance_oracles.TRIPLES) == 660
    for f, g, c in failing:
        with pytest.raises(HypothesisGateError), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some pairs nearly coincide in a tail
            sigma2(parse_distribution(f), parse_distribution(g), parse_cost(c),
                   parse_coupling("independent"))


def test_recorded_oracles_are_the_rows_their_scripts_write():
    # a case added to a script but not recorded, or recorded but dropped from
    # the script, fails here
    passing = {(row["F"], row["G"], row["cost"]) for row in ROWS}
    assert [((row["F"], row["G"], row["cost"]), row["kind"]) for row in ROWS] == [
        (triple, kind) for triple in variance_oracles.TRIPLES if triple in passing
        for kind in variance_oracles.KINDS]
    assert [(row["F"], row["G"], row["cost"], row["kind"], row["window_score"])
            for row in CASES] == list(variance_oracles.CASES)
    with open(gauss_cross_oracles.RECORDED) as fh:
        gauss_rows = json.load(fh)["cases"]
    assert [(row["F"], row["G"], row["cost"], row["r"], row["window_score"])
            for row in gauss_rows] == list(gauss_cross_oracles.CASES)


def test_oracle_drift_of_a_tree_against_itself_is_zero():
    # oracle_drift.py's A/A run in miniature, in-process: a variance row, a
    # refusal and a window of exact_cost, each evaluated twice
    failing = set(variance_oracles.TRIPLES) - {(row["F"], row["G"], row["cost"]) for row in ROWS}
    calls = oracle_drift.items()
    calls = [calls[0], next(c for c in calls if c[1:4] in failing), calls[-1]]
    runs = [[oracle_drift.evaluate(call) for call in calls] for _ in range(2)]
    assert isinstance(runs[0][1], str) and runs[0][1].startswith("HypothesisGateError: ")
    assert oracle_drift.drift(*runs, calls) == {"sigma2": (2, 0, 0, 0, 0.0),
                                                "exact_cost": (1, 0, 0, 0, 0.0)}
    value, est_error = runs[0][0]
    moved = oracle_drift.drift(runs[0], [[value * (1.0 + 1e-9), est_error]] + runs[1][1:], calls)
    n, count, closer, farther, worst = moved["sigma2"]
    assert (n, count, closer + farther) == (2, 1, 1) and worst == pytest.approx(1e-9)
    oracle = calls[0][-1]
    onto = oracle_drift.drift(runs[0], [[oracle, est_error]] + runs[1][1:], calls)
    assert onto["sigma2"][1:4] == (1, 1, 0)
    # coverage reads only the row with an oracle; a miss of twice est_error, and a refusal, count
    assert oracle_drift.coverage(runs[0], calls)["sigma2"][:2] == (1, 0)
    missed = [oracle + 2.0 * est_error, est_error]
    assert oracle_drift.coverage([missed] + runs[0][1:], calls) == {"sigma2": (1, 1, pytest.approx(2.0))}
    assert oracle_drift.coverage(["NonconvergenceError: no"] + runs[0][1:], calls) == {
        "sigma2": (1, 1, math.inf)}
