"""Recorded CLI reports: what a fixed list of ``wcost`` commands prints.

``tests/reports/`` holds one text file per entry of ``COMMANDS``: a header
with the numpy and scipy versions that wrote it and the command line, then
the exit code, stdout with any ``runtime`` line removed, stderr, the
warnings raised, and the text of every file the command wrote.  Each command
runs in-process through ``wcost.cli.main`` from the root of the repository,
where the ``wcost mc`` entries find ``configs/``; a command writes its files
into a fresh temporary directory, named ``$TMPDIR`` in its argument list and
in the report.  ``test_reports.py`` runs the list and compares the text, so a
change that moves a report shows as a diff of its file.  Regenerate the files with

    PYTHONPATH=src python3 tests/reports.py --write

Not collected as tests.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import warnings

import numpy
import scipy

from wcost.cli import main

DIRECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The benchmark pair: N(0,1) against N(2,1) under power(2).
_PAIR = ("gaussian(0,1)", "gaussian(2,1)", "power(2)")
#: Stands for the temporary directory a command writes its files into.
TMPDIR = "$TMPDIR"

COMMANDS = {
    "check-pareto5-translated": ["check", "pareto(5)", "locscale(pareto(5),1,1)", "power(2)"],
    # C = 1/(2 sd^2) overflows at sd 1e-200
    "check-gaussian-sd1e-200": ["check", "gaussian(0,1e-200)", "gaussian(1e-200,1e-200)",
                                "power(2)"],
    # C = a^-2 overflows at scale 1e-200
    "check-weibull-scale1e-200": ["check", "locscale(weibull(2),1e-200,0)",
                                  "locscale(weibull(2),1e-200,1e-200)", "power(2)"],
    # C = 1/(2 sd^2) underflows at sd 1e200
    "check-gaussian-sd1e200-exppower": ["check", "gaussian(0,1e200)", "gaussian(1e200,1e200)",
                                        "exppower(2)"],
    "check-gaussian-sd1e200-logpower": ["check", "gaussian(1e200,1e200)", "exponential(1)",
                                        "logpower(0.5)"],
    "variance-gaussian-sd1e200-logpower": ["variance", "gaussian(1e200,1e200)", "exponential(1)",
                                           "logpower(0.5)", "independent"],
    # a Pareto-led gate, both depths and the tail bounds on a heavy tail
    "variance-pareto5-translated": ["variance", "pareto(5)", "locscale(pareto(5),1,1)", "power(2)",
                                    "independent", "--diagnostics"],
    # a pair in lockstep on a heavy tail: sigma^2 = 0 from an exact cancellation
    "variance-pareto5-translated-comonotone": ["variance", "pareto(5)", "locscale(pareto(5),1,1)",
                                               "power(2)", "comonotone"],
    **{f"variance-pair-{name}": ["variance", *_PAIR, kind, "--diagnostics"]
       for name, kind in (("independent", "independent"), ("comonotone", "comonotone"),
                          ("countermonotone", "countermonotone"), ("gauss0.5", "gauss(0.5)"))},
    **{f"estimate-pair-gauss0.5-{sigma}": ["estimate", "--generate", *_PAIR[:2], "gauss(0.5)",
                                            "2000", "7", "--cost", _PAIR[2], "--trim", "0.1",
                                            "--ci", "0.95", "--sigma", sigma]
       for sigma in ("plugin", "oracle")},
    # the one route whose halves cancel: the generator's mean
    "variance-location-scale": ["variance", "gaussian(0,1)", "2", "3", "1", "1",
                                "--method", "location-scale", "--diagnostics"],
    "sample-pair-gauss0.5": ["sample", *_PAIR[:2], "gauss(0.5)", "20", "7",
                             "--out", f"{TMPDIR}/pairs.csv"],
    # one worker process, so the run stays in-process
    **{f"mc-{name}": ["mc", f"configs/mc_{name}.json", "--threads", "1"]
       for name in ("benchmark", "smoke", "sweep", "trimmed")},
    # both families standardized by per-replicate plug-in variances
    "mc-trimmed-plugin": ["mc", "configs/mc_trimmed_plugin.json", "--threads", "1"],
}


def versions() -> str:
    """The header line that names the numerical libraries."""
    return f"numpy {numpy.__version__} scipy {scipy.__version__}"


def path(name: str) -> str:
    return os.path.join(DIRECTORY, f"{name}.txt")


def run(argv: list[str]) -> str:
    """The report text of one command, below the version line."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with warnings.catch_warnings(record=True) as caught, contextlib.chdir(ROOT), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([arg.replace(TMPDIR, tmp) for arg in argv])
        written = ""
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name)) as fh:
                written += f"--- file {TMPDIR}/{name}\n{fh.read()}"
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not line.lstrip().startswith('"runtime":'))
    raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    text = (f"--- stdout\n{stdout}--- stderr\n{err.getvalue()}--- warnings\n{raised}"
            f"{written}").replace(tmp, TMPDIR)
    return f"$ wcost {' '.join(argv)}\nexit {code}\n{text}"


def write() -> None:
    os.makedirs(DIRECTORY, exist_ok=True)
    for name, argv in COMMANDS.items():
        with open(path(name), "w") as fh:
            fh.write(f"{versions()}\n{run(argv)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/reports/")
    if not parser.parse_args().write:
        parser.error("nothing to do without --write")
    write()
    sys.exit(0)
