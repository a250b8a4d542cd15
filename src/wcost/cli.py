"""Command-line front end: estimation, variance, checks, sampling, Monte Carlo.

Every run serializes its fully resolved configuration (defaults included)
into the emitted report, so any output can be reproduced from the output
alone.  Reports are JSON by default; ``--format csv`` flattens them to
``key,value`` rows.  Data files (paired samples, standardized z-samples) are
always CSV with 17-significant-digit floats, which round-trip exactly.

Exit codes: 0 success; 1 assumption or degeneracy failure; 2 input error;
3 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .assumptions import verify_triple
from .costs import parse_cost
from .coupling import parse_coupling, sample_pairs
from .distributions import parse_distribution
from .errors import DegenerateSampleError, NonconvergenceError
from .estimate import (
    empirical_cost,
    read_sample_csv,
    trimmed_empirical_cost,
    write_sample_csv,
)
from .mc import (
    MCConfig,
    compare_trimmed,
    run_clt_experiment,
    run_consistency_sweep,
    write_standardized_csv,
)
from .quadrature import QuadratureConfig
from .variance import (
    DEFAULT_VARIANCE_CONFIG,
    confidence_interval,
    plug_in_sigma2,
    sigma2,
    sigma2_gaussian,
    sigma2_location_scale,
)

_FORMATS = ("json", "csv")


# --- rendering ------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, rows)
    elif isinstance(obj, float):
        rows.append((prefix, format(obj, ".17g")))
    elif isinstance(obj, str):
        rows.append((prefix, obj))
    else:
        # lists, ints, bools, None: compact JSON keeps the cell parseable
        rows.append((prefix, json.dumps(obj, default=_json_default)))


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    rows: list = []
    _flatten("", payload, rows)
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows([("key", "value"), *rows])
    else:
        csv.writer(sys.stdout).writerows([("key", "value"), *rows])


def _payload(command: str, params: dict, seed: int | None, args, results: dict) -> dict:
    """The report: the fully resolved invocation under ``config``, then the results."""
    config = {"command": command, "params": params, "seed": seed,
              "out": args.out, "format": args.format}
    return {"config": config, **results}


# --- subcommands ----------------------------------------------------------------


def cmd_estimate(args) -> tuple[int, dict]:
    cost = parse_cost(args.cost)
    if (args.input is None) == (args.generate is None):
        raise ValueError("provide exactly one input: a CSV path or --generate")
    params = {"cost": args.cost, "trim_eps": args.trim,
              "ci_level": args.ci, "sigma": args.sigma}
    seed = None
    generated = None
    if args.generate is not None:
        f_txt, g_txt, cp_txt, n_txt, seed_txt = args.generate
        F, G, cp = parse_distribution(f_txt), parse_distribution(g_txt), parse_coupling(cp_txt)
        n, seed = int(n_txt), int(seed_txt)
        s = sample_pairs(cp, F, G, n, seed)
        generated = (F, G, cp)
        params.update(input=None, generate={"F": f_txt, "G": g_txt, "coupling": cp_txt,
                                            "n": n, "seed": seed})
    else:
        s = read_sample_csv(args.input)
        params.update(input=args.input, generate=None)
    if args.dump_sample:
        write_sample_csv(args.dump_sample, s)
        params["dump_sample"] = args.dump_sample
    estimate = empirical_cost(s, cost)
    results = {"n": s.n, "estimate": estimate}
    if args.trim is not None:
        results["trimmed_estimate"] = trimmed_empirical_cost(s, cost, args.trim)
        results["trim_eps"] = args.trim
    if args.ci is not None:
        if args.sigma is None:
            raise ValueError("--ci needs --sigma {plugin,oracle}")
        if args.sigma == "plugin":
            sig2 = plug_in_sigma2(s, cost).value
        else:
            if generated is None:
                raise ValueError("--sigma oracle needs the generating marginals; "
                                 "use --generate or --sigma plugin")
            sig2 = sigma2(*generated[:2], cost, generated[2]).value
        lo, hi = confidence_interval(estimate, sig2, s.n, args.ci)
        results["ci"] = {"level": args.ci, "lo": lo, "hi": hi,
                         "sigma2": sig2, "sigma_source": args.sigma}
    return 0, _payload("estimate", params, seed, args, results)


def _variance_result(args, q: QuadratureConfig):
    p = args.params
    if args.method == "quadrature":
        if len(p) != 4:
            raise ValueError("quadrature method takes: F G COST COUPLING")
        return sigma2(parse_distribution(p[0]), parse_distribution(p[1]),
                      parse_cost(p[2]), parse_coupling(p[3]), q)
    if args.method == "gaussian":
        if len(p) != 2:
            raise ValueError("gaussian method takes: F G")
        return sigma2_gaussian(parse_distribution(p[0]), parse_distribution(p[1]))
    if len(p) != 5:
        raise ValueError("location-scale method takes: BASE A B A' B'")
    return sigma2_location_scale(parse_distribution(p[0]), float(p[1]), float(p[2]),
                                 float(p[3]), float(p[4]), q)


def cmd_variance(args) -> tuple[int, dict]:
    q = QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    result = _variance_result(args, q)
    params = {"method": args.method, "params": list(args.params),
              "abs_tol": args.abs_tol, "rel_tol": args.rel_tol}
    out = result.to_dict()
    if not args.diagnostics:
        out.pop("diagnostics")
    return 0, _payload("variance", params, None, args, out)


def cmd_check(args) -> tuple[int, dict]:
    report = verify_triple(parse_distribution(args.F), parse_distribution(args.G),
                           parse_cost(args.cost))
    params = {"F": args.F, "G": args.G, "cost": args.cost}
    code = 0 if report.all_pass else 1
    return code, _payload("check", params, None, args, report.to_dict())


def cmd_sample(args) -> tuple[int, dict]:
    F, G = parse_distribution(args.F), parse_distribution(args.G)
    cp = parse_coupling(args.coupling)
    s = sample_pairs(cp, F, G, args.n, args.seed)
    write_sample_csv(args.out, s)
    params = {"F": args.F, "G": args.G, "coupling": args.coupling, "n": args.n}
    return 0, _payload("sample", params, args.seed, args, {"written": args.out, "n": s.n})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _typed(blob: dict, key: str, ok, kind: str, default=None):
    """``blob[key]`` (or ``default``) when ``ok`` accepts it; ValueError naming the key else."""
    value = blob.get(key, default)
    if not ok(value):
        raise ValueError(f"mc config key {key!r} must be {kind}, got {value!r}")
    return value


def _laws(blob: dict) -> tuple:
    """The config's F, G, cost and coupling descriptors, parsed."""
    parsers = {"F": parse_distribution, "G": parse_distribution,
               "cost": parse_cost, "coupling": parse_coupling}
    return tuple(parse(_typed(blob, key, lambda v: isinstance(v, str), "a descriptor string"))
                 for key, parse in parsers.items())


def _mc_config(blob: dict) -> MCConfig:
    F, G, c, cp = _laws(blob)
    return MCConfig(F=F, G=G, c=c, coupling=cp,
                    n=_typed(blob, "n", _is_int, "an integer"),
                    replicates=_typed(blob, "replicates", _is_int, "an integer"),
                    seed=_typed(blob, "seed", _is_int, "an integer", 0),
                    trim_eps=_typed(blob, "trim_eps",
                                    lambda v: v is None or _is_int(v) or isinstance(v, float),
                                    "a number or null"),
                    sigma_source=blob.get("sigma_source", "oracle_quadrature"))


def cmd_mc(args) -> tuple[int, dict]:
    try:
        with open(args.config) as fh:
            blob = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: not valid JSON ({exc})") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{args.config}: expected a JSON object")
    experiment = blob.get("experiment", "clt")
    if experiment not in ("clt", "trimmed", "sweep"):
        raise ValueError(f"unknown experiment kind {experiment!r}; "
                         "expected clt, trimmed, or sweep")
    sizes = ("n_list", "seeds") if experiment == "sweep" else ("n", "replicates")
    missing = [key for key in ("F", "G", "cost", "coupling", *sizes) if key not in blob]
    if missing:
        raise ValueError(f"mc config is missing keys: {missing}")
    resolved = dict(blob)
    resolved.setdefault("experiment", experiment)

    if experiment == "sweep":
        n_list = _typed(blob, "n_list", _is_int_list, "a list of integers")
        seeds = _typed(blob, "seeds", lambda v: _is_int(v) or _is_int_list(v),
                       "an integer or a list of integers")
        results = {"rows": run_consistency_sweep(*_laws(blob), n_list, seeds)}
    else:
        cfg = _mc_config(blob)
        resolved.setdefault("seed", cfg.seed)
        resolved.setdefault("trim_eps", cfg.trim_eps)
        resolved.setdefault("sigma_source", cfg.sigma_source)
        resolved["resolved_trim_eps"] = cfg.resolved_trim_eps
        if experiment == "clt":
            report = run_clt_experiment(cfg, threads=args.threads)
            results = report.to_dict()
        else:
            comparison = compare_trimmed(cfg, threads=args.threads)
            report = comparison.trimmed
            results = comparison.to_dict()
        if args.z_csv:
            write_standardized_csv(args.z_csv, report)
            results["z_csv"] = args.z_csv
    return 0, _payload("mc", resolved, resolved.get("seed"), args, results)


# --- parser and entry point -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcost",
        description="Generalized transport costs between one-dimensional "
                    "distributions: estimation, asymptotic variance, "
                    "assumption checks, sampling, Monte Carlo validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def routing(p):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=_FORMATS, default="json",
                       help="report format (default json)")

    p = sub.add_parser("estimate", help="estimate the cost from paired data")
    p.add_argument("input", nargs="?", help="CSV file with an x,y header")
    p.add_argument("--generate", nargs=5, metavar=("F", "G", "COUPLING", "N", "SEED"),
                   help="draw the sample instead of reading it")
    p.add_argument("--cost", required=True, help="cost descriptor, e.g. power(2)")
    p.add_argument("--trim", type=float, help="also report the trimmed estimate")
    p.add_argument("--ci", type=float, help="confidence level, e.g. 0.95")
    p.add_argument("--sigma", choices=("plugin", "oracle"),
                   help="variance source for --ci: plugin estimates the untrimmed "
                        "variance from the data, oracle computes it from --generate's laws")
    p.add_argument("--dump-sample", help="write the sample to this CSV")
    routing(p)
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("variance", help="asymptotic variance of the estimator")
    p.add_argument("params", nargs="+",
                   help="quadrature: F G COST COUPLING | gaussian: F G | "
                        "location-scale: BASE A B A' B'")
    p.add_argument("--method", default="quadrature",
                   choices=("quadrature", "gaussian", "location-scale"))
    p.add_argument("--abs-tol", type=float, default=DEFAULT_VARIANCE_CONFIG.abs_tol)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_VARIANCE_CONFIG.rel_tol)
    p.add_argument("--diagnostics", action="store_true",
                   help="include quadrature diagnostics in the report")
    routing(p)
    p.set_defaults(handler=cmd_variance)

    p = sub.add_parser("check", help="verify the hypotheses for a pair and a cost")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("cost")
    routing(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("sample", help="draw a paired sample to CSV")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("coupling")
    p.add_argument("n", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--out", required=True, help="CSV path for the x,y data")
    p.add_argument("--format", choices=_FORMATS, default="json",
                   help="format of the report printed to stdout")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment from a JSON config")
    p.add_argument("config", help="JSON file; see configs/ for examples")
    p.add_argument("--threads", type=int,
                   help="worker processes for replicate simulation (default: one "
                        "per usable core); results are identical for any count")
    p.add_argument("--z-csv", help="write the standardized sample to this CSV")
    routing(p)
    p.set_defaults(handler=cmd_mc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.handler(args)
    except NonconvergenceError as exc:
        print(f"wcost: nonconvergent: {exc}", file=sys.stderr)
        return 3
    except DegenerateSampleError as exc:
        print(f"wcost: degenerate: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"wcost: {exc}", file=sys.stderr)
        return 2
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if args.command == "sample":
        out = None  # --out holds the data CSV; the report goes to stdout
    _emit(payload, fmt, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
