"""End-to-end command-line tests, run in-process through main()."""

import json
from pathlib import Path

import pytest

from wcost import Countermonotone, Gaussian, PowerCost, QuadratureConfig, sigma2
from wcost.cli import main
from wcost.estimate import read_sample_csv
from wcost.quadrature import _tolerance


# The report keys of README's "Report schema", in order.  The results of
# variance and mc are the fields of their report dataclass in declaration
# order, so a reordered field fails here.
CONFIG_KEYS = ["command", "params", "seed", "out", "format"]
CLT_KEYS = ["n", "replicates", "w_exact", "sigma_source", "sigma2_value", "trim_eps",
            "estimates", "standardized", "ks_distance", "coverage", "assumptions_ok",
            "notes", "runtime"]


def invoke(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- estimate -------------------------------------------------------------------


def test_estimate_two_row_csv(capsys, tmp_path):
    path = write_csv(tmp_path, "two.csv", "x,y\n3,0\n1,2\n")
    code, out, _ = invoke(capsys, "estimate", path, "--cost", "power(2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == 1.0
    assert payload["n"] == 2
    assert payload["config"]["command"] == "estimate"
    assert payload["config"]["params"]["input"] == path


def test_estimate_generated_with_oracle_ci(capsys):
    code, out, _ = invoke(
        capsys, "estimate",
        "--generate", "gaussian(0,1)", "gaussian(2,1)", "comonotone", "5000", "7",
        "--cost", "power(2)", "--ci", "0.95", "--sigma", "oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(4.0, rel=1e-6)
    ci = payload["ci"]
    assert ci["level"] == 0.95
    assert ci["lo"] <= payload["estimate"] <= ci["hi"]
    assert ci["sigma_source"] == "oracle"
    # the resolved config records everything needed to reproduce the run
    gen = payload["config"]["params"]["generate"]
    assert gen == {"F": "gaussian(0,1)", "G": "gaussian(2,1)",
                   "coupling": "comonotone", "n": 5000, "seed": 7}


def test_estimate_plugin_ci_from_csv_input(capsys, tmp_path):
    sample = write_csv(tmp_path, "s.csv",
                       "x,y\n" + "\n".join(f"{i/100},{i/50}" for i in range(100)) + "\n")
    code, out, _ = invoke(capsys, "estimate", sample, "--cost", "power(2)",
                          "--ci", "0.9", "--sigma", "plugin")
    assert code == 0
    ci = json.loads(out)["ci"]
    assert ci["sigma_source"] == "plugin"
    assert ci["lo"] < ci["hi"]


def test_estimate_dump_then_reestimate_is_bit_exact(capsys, tmp_path):
    dumped = str(tmp_path / "dump.csv")
    code, out, _ = invoke(
        capsys, "estimate",
        "--generate", "gaussian(0,1)", "gaussian(2,1)", "independent", "500", "3",
        "--cost", "power(2)", "--dump-sample", dumped)
    assert code == 0
    first = json.loads(out)["estimate"]
    code, out, _ = invoke(capsys, "estimate", dumped, "--cost", "power(2)")
    assert code == 0
    assert json.loads(out)["estimate"] == first


def test_estimate_trim_zero_matches_untrimmed(capsys, tmp_path):
    path = write_csv(tmp_path, "two.csv", "x,y\n3,0\n1,2\n")
    code, out, _ = invoke(capsys, "estimate", path, "--cost", "power(2)",
                          "--trim", "0.0")
    payload = json.loads(out)
    assert payload["trimmed_estimate"] == payload["estimate"]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("x,y\n", "no data rows"),
    ("a,b\n1,2\n", "header"),
    ("x,y\n1\n", ":2:"),
    ("x,y\n1,abc\n", ":2:"),
    ("x,y\n1,nan\n", ":2:"),
    ("x,y\n1,inf\n", ":2:"),
])
def test_estimate_rejects_bad_csv_with_exit_2(capsys, tmp_path, text, fragment):
    path = write_csv(tmp_path, "bad.csv", text)
    code, _, err = invoke(capsys, "estimate", path, "--cost", "power(2)")
    assert code == 2
    assert fragment in err


def test_estimate_requires_exactly_one_input(capsys, tmp_path):
    path = write_csv(tmp_path, "two.csv", "x,y\n3,0\n1,2\n")
    code, _, err = invoke(capsys, "estimate", "--cost", "power(2)")
    assert code == 2 and "exactly one input" in err
    code, _, err = invoke(capsys, "estimate", path,
                          "--generate", "gaussian(0,1)", "gaussian(2,1)",
                          "independent", "50", "0", "--cost", "power(2)")
    assert code == 2 and "exactly one input" in err


def test_estimate_ci_flag_validation(capsys, tmp_path):
    path = write_csv(tmp_path, "two.csv", "x,y\n3,0\n1,2\n")
    code, _, err = invoke(capsys, "estimate", path, "--cost", "power(2)", "--ci", "0.95")
    assert code == 2 and "--sigma" in err
    code, _, err = invoke(capsys, "estimate", path, "--cost", "power(2)",
                          "--ci", "0.95", "--sigma", "oracle")
    assert code == 2 and "generate" in err


# --- variance -------------------------------------------------------------------


def test_variance_quadrature_benchmark(capsys):
    code, out, _ = invoke(capsys, "variance", "gaussian(0,1)", "gaussian(2,1)",
                          "power(2)", "independent")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(32.0, rel=1e-3)
    assert payload["method"] == "quadrature"
    assert "diagnostics" not in payload
    assert payload["config"]["params"]["rel_tol"] == 1e-5


def test_variance_location_scale_method(capsys):
    code, out, _ = invoke(capsys, "variance", "--method", "location-scale",
                          "gaussian(0,1)", "1", "0", "1", "2")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(32.0, abs=1e-9)


def test_variance_gaussian_method_and_diagnostics_flag(capsys):
    code, out, _ = invoke(capsys, "variance", "--method", "gaussian",
                          "gaussian(0,1)", "gaussian(2,1)", "--diagnostics")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 32.0
    assert list(payload) == ["config", "value", "est_error", "method", "diagnostics"]
    assert list(payload["config"]) == CONFIG_KEYS


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_variance_diagnostics_show_quadrature_counters(capsys, fmt):
    code, out, _ = invoke(capsys, "variance", "gaussian(0,1)", "gaussian(2,1)", "power(2)",
                          "gauss(0.5)", "--diagnostics", "--format", fmt)
    assert code == 0
    fields = ("panels", "evaluations", "depth_left", "depth_right", "tail_bound_left",
              "tail_bound_right", "budget_exhausted")
    gate = ("status", "side", "marginal", "margin", "rule")
    if fmt == "json":
        diagnostics = json.loads(out)["diagnostics"]
        influence = diagnostics["influence"]
        assert set(influence) == {"x", "y", "cross"}
        assert all(d[k] is not None for d in influence.values() for k in fields)
        # the gate's verdict and witness, shown though it passes
        assert tuple(diagnostics["gate"]) == gate and diagnostics["gate"]["status"] == "pass"
    else:
        keys = {line.split(",")[0] for line in out.splitlines()}
        assert {f"diagnostics.influence.{name}.{k}" for name in ("x", "y", "cross")
                for k in fields} <= keys
        assert {f"diagnostics.gate.{k}" for k in gate} <= keys


def test_variance_nonconvergent_tail_exits_3(capsys):
    code, _, err = invoke(capsys, "variance", "pareto(3)", "locscale(pareto(3),1,1)",
                          "power(2)", "independent")
    assert code == 3
    assert "nonconvergent" in err


def test_variance_failed_tail_hypothesis_exits_3(capsys):
    # Pareto(4) and its translation have a finite 8 Var; the gate, not a divergent
    # integral, stops the run, and the message says so.
    code, out, err = invoke(capsys, "variance", "pareto(4)", "locscale(pareto(4),1,1)",
                            "power(2)", "independent")
    assert code == 3 and out == ""
    assert "tail hypothesis fails" in err and "normal limit may not hold" in err
    assert "diverges" not in err
    assert "marginal x: closed form: lambda + delta = 0.25 + 0.25 >= 1/2, margin 0;" in err


def test_variance_countermonotone_pair_at_tight_tolerances_returns_38(capsys):
    # The endpoint strips that the tails were once extrapolated from changed
    # sign here in rounding noise and raised "not resolved"; in the tail
    # coordinate the value is the exact 38 within its error estimate
    q = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
    res = sigma2(Gaussian(0, 1), Gaussian(1, 2), PowerCost(2.0), Countermonotone(), q)
    assert abs(res.value - 38.0) <= res.est_error <= _tolerance(q, 38.0)
    code, out, _ = invoke(capsys, "variance", "gaussian(0,1)", "gaussian(1,2)",
                          "power(2)", "countermonotone", "--abs-tol", "1e-9",
                          "--rel-tol", "1e-8")
    assert code == 0
    assert json.loads(out)["value"] == res.value


@pytest.mark.parametrize("law", ["gaussian(nan,1)", "gaussian(inf,1)",
                                 "locscale(gaussian(0,1),inf,0)"])
def test_variance_non_finite_law_parameter_exits_2(capsys, law):
    # these once reached the tails and exited 3 with "the cost slopes are not finite"
    code, out, err = invoke(capsys, "variance", law, "gaussian(0,1)", "power(2)", "independent")
    assert code == 2 and out == ""
    assert f"descriptor {law.split('(')[0]}:" in err and "must be finite" in err


def test_variance_non_finite_cost_exponent_exits_2(capsys):
    code, _, err = invoke(capsys, "variance", "gaussian(0,1)", "gaussian(2,1)", "power(inf)",
                          "independent")
    assert code == 2 and "descriptor power:" in err and "must be finite" in err


def test_variance_wrong_arity_exits_2(capsys):
    code, _, err = invoke(capsys, "variance", "--method", "gaussian", "gaussian(0,1)")
    assert code == 2 and "gaussian method takes" in err


# --- check ----------------------------------------------------------------------


def test_check_passing_frontier_exits_0(capsys):
    code, out, _ = invoke(capsys, "check", "pareto(5)", "locscale(pareto(5),1,1)",
                          "power(2)")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_check_failing_frontier_exits_1(capsys):
    code, out, _ = invoke(capsys, "check", "pareto(3)", "locscale(pareto(3),1,1)",
                          "power(2)")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_check_pareto_against_exponential_leads_with_pareto(capsys):
    # the Pareto(7) tail is heavier; power(5) needs a Pareto shape above 10
    code, out, _ = invoke(capsys, "check", "pareto(7)", "exponential(1)", "power(5)")
    report = json.loads(out)
    assert code == 1
    assert report["swapped_right"] is False
    assert report["right"]["cfg"]["status"] == "fail"


def test_check_sides_hold_only_the_verdict_conditions(capsys):
    code, out, _ = invoke(capsys, "check", "pareto(10)", "exponential(1)", "logpower(0.5)")
    report = json.loads(out)
    # a logpower slope outgrows every power of the Pareto quantile: sigma2 is infinite
    assert code == 1 and report["right"]["cfg"]["status"] == "fail"
    conditions = {"fg1", "fg2", "fg3", "fg4", "fg5", "cfg"}
    for side in ("right", "left"):
        assert {k for k, v in report[side].items() if isinstance(v, dict)} == conditions
        assert not {"theta", "zeta", "tail_sufficient"} & set(report[side])
    assert set(report["config"]["params"]) == {"F", "G", "cost"}


def test_check_a_pair_translated_below_zero_exits_0(capsys):
    # the threshold's floor is the larger median, so the left side of N(5,1)
    # against N(6,1), read reflected, has a tail above it
    code, out, err = invoke(capsys, "check", "gaussian(5,1)", "gaussian(6,1)", "power(2)")
    assert code == 0 and err == ""
    assert json.loads(out)["all_pass"] is True


def test_check_json_out_writes_the_report_and_prints_nothing(capsys, tmp_path):
    path = str(tmp_path / "check.json")
    argv = ["check", "pareto(5)", "locscale(pareto(5),1,1)", "power(2)"]
    code, printed, _ = invoke(capsys, *argv)
    assert code == 0
    code, out, err = invoke(capsys, *argv, "--out", path)
    assert code == 0 and out == "" and err == ""
    written = json.loads(Path(path).read_text())
    # the resolved invocation names the file; the rest is what was printed
    assert written["config"].pop("out") == path
    expected = json.loads(printed)
    assert expected["config"].pop("out") is None
    assert written == expected


@pytest.mark.parametrize("flag", ["--theta", "--zeta"])
def test_check_rejects_retired_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", "pareto(5)", "locscale(pareto(5),1,1)", "power(2)", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- sample ---------------------------------------------------------------------


def test_sample_writes_reproducible_csv(capsys, tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    code, report, _ = invoke(capsys, "sample", "gaussian(0,1)", "gaussian(2,1)",
                             "independent", "50", "3", "--out", out_a)
    assert code == 0
    assert json.loads(report)["written"] == out_a
    invoke(capsys, "sample", "gaussian(0,1)", "gaussian(2,1)",
           "independent", "50", "3", "--out", out_b)
    assert Path(out_a).read_text() == Path(out_b).read_text()
    s = read_sample_csv(out_a)
    assert s.n == 50


def test_sample_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "gaussian(0,1)", "gaussian(2,1)", "independent", "50", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- mc -------------------------------------------------------------------------


def _mc_blob(**overrides):
    blob = {"experiment": "clt", "F": "gaussian(0,1)", "G": "gaussian(2,1)",
            "cost": "power(2)", "coupling": "independent",
            "n": 400, "replicates": 120, "seed": 1}
    blob.update(overrides)
    return blob


def write_config(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def test_mc_clt_run_with_z_csv(capsys, tmp_path):
    cfgp = write_config(tmp_path, "clt.json", _mc_blob())
    zp = str(tmp_path / "z.csv")
    code, out, _ = invoke(capsys, "mc", cfgp, "--z-csv", zp)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["config", *CLT_KEYS, "z_csv"]
    assert list(payload["config"]) == CONFIG_KEYS
    assert list(payload["estimates"]) == ["mean", "var", "skew"]
    assert payload["replicates"] == 120
    assert 0.0 <= payload["ks_distance"] <= 1.0
    assert payload["config"]["params"]["resolved_trim_eps"] == pytest.approx(400 ** -0.25)
    lines = Path(zp).read_text().splitlines()
    assert lines[0] == "z" and len(lines) == 121


def test_mc_trimmed_experiment(capsys, tmp_path):
    cfgp = write_config(tmp_path, "trim.json", _mc_blob(experiment="trimmed"))
    code, out, _ = invoke(capsys, "mc", cfgp)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["config", "plain", "trimmed", "trim_eps", "scaled_gap_mean",
                             "scaled_gap_max"]
    assert list(payload["plain"]) == list(payload["trimmed"]) == CLT_KEYS
    assert payload["scaled_gap_mean"] > 0.0
    assert payload["trimmed"]["trim_eps"] == pytest.approx(400 ** -0.25)
    assert payload["plain"]["trim_eps"] == 0.0


def test_mc_sweep_experiment(capsys, tmp_path):
    blob = {"experiment": "sweep", "F": "gaussian(0,1)", "G": "gaussian(2,1)",
            "cost": "power(2)", "coupling": "independent",
            "n_list": [100, 1000], "seeds": 5}
    cfgp = write_config(tmp_path, "sweep.json", blob)
    code, out, _ = invoke(capsys, "mc", cfgp)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [100, 1000]
    assert rows[0]["median_abs_error"] > rows[1]["median_abs_error"]


def test_mc_degenerate_variance_exits_1(capsys, tmp_path):
    cfgp = write_config(tmp_path, "degen.json", _mc_blob(coupling="comonotone"))
    code, _, err = invoke(capsys, "mc", cfgp)
    assert code == 1
    assert "degenerate" in err


@pytest.mark.parametrize("mutate,fragment", [
    (lambda b: b.pop("replicates"), "missing keys"),
    (lambda b: b.update(experiment="bootstrap"), "unknown experiment"),
    (lambda b: b.update(n=5), "at least 10"),
    (lambda b: (b.update(experiment="sweep", n_list=[100], seeds=2), b.pop("F")),
     "missing keys: ['F']"),
])
def test_mc_config_validation_exits_2(capsys, tmp_path, mutate, fragment):
    blob = _mc_blob()
    mutate(blob)
    cfgp = write_config(tmp_path, "bad.json", blob)
    code, _, err = invoke(capsys, "mc", cfgp)
    assert code == 2
    assert fragment in err


_SWEEP = {"experiment": "sweep", "n_list": [100, 1000], "seeds": 5}


@pytest.mark.parametrize("overrides, key", [
    ({"n": 400.9}, "n"),
    ({"n": "400"}, "n"),
    ({"replicates": 120.7}, "replicates"),
    ({"seed": 3.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"trim_eps": "0.1"}, "trim_eps"),
    ({"coupling": 0.5}, "coupling"),
    ({**_SWEEP, "seeds": 2.5}, "seeds"),
    ({**_SWEEP, "n_list": 5}, "n_list"),
    ({**_SWEEP, "n_list": [100, 1000.5]}, "n_list"),
])
def test_mc_config_types_exit_2_naming_the_key(capsys, tmp_path, overrides, key):
    cfgp = write_config(tmp_path, "bad.json", _mc_blob(**overrides))
    code, _, err = invoke(capsys, "mc", cfgp)
    assert code == 2
    assert f"key {key!r}" in err


def test_mc_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = invoke(capsys, "mc", str(path))
    assert code == 2 and "not valid JSON" in err


def test_shipped_example_configs_parse(tmp_path):
    import pathlib
    for name in ("mc_benchmark.json", "mc_smoke.json", "mc_trimmed.json", "mc_sweep.json"):
        blob = json.loads(pathlib.Path("configs", name).read_text())
        assert blob["cost"] == "power(2)"


# --- output routing -------------------------------------------------------------


def test_report_to_file_and_csv_format(capsys, tmp_path):
    report = str(tmp_path / "var.csv")
    code, out, _ = invoke(capsys, "variance", "--method", "gaussian",
                          "gaussian(0,1)", "gaussian(2,1)",
                          "--format", "csv", "--out", report)
    assert code == 0
    assert out == ""
    lines = Path(report).read_text().splitlines()
    assert lines[0] == "key,value"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert cells["value"] == "32"
    assert cells["config.command"] == "variance"


def test_estimate_csv_format_uses_17_digit_floats(capsys, tmp_path):
    path = write_csv(tmp_path, "two.csv", "x,y\n3,0.1\n1,2\n")
    code, out, _ = invoke(capsys, "estimate", path, "--cost", "power(2)",
                          "--format", "csv")
    assert code == 0
    cells = dict(line.split(",", 1) for line in out.splitlines()[1:])
    # matched order statistics pair (1, 0.1) and (3, 2)
    assert float(cells["estimate"]) == (0.9 ** 2 + 1.0 ** 2) / 2.0
    assert len(cells["estimate"]) >= 17
