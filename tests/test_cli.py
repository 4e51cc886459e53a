import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pompkit as pk
from pompkit import cli, dataio
from pompkit.mif import MifSettings


def run_cli(argv):
    return cli.main(argv)


def load_result(outdir):
    with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


# ---------------------------------------------------------------------------
# smoke paths


def test_simulate_writes_expected_columns(tmp_path):
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--model", "gompertz", "--seed", "42",
                    "-o", out]) == 0
    with open(os.path.join(out, "simulations.csv"), newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["time", "X", "Y"]
    result = load_result(out)
    assert result["algorithm"] == "simulate"
    assert result["files"]["simulations"] == "simulations.csv"


def test_pfilter_cross_checks_against_kalman(tmp_path):
    sim_dir = str(tmp_path / "sim")
    run_cli(["simulate", "--model", "gompertz", "--seed", "42", "-o", sim_dir])
    data = os.path.join(sim_dir, "simulations.csv")

    pf_dir = str(tmp_path / "pf")
    assert run_cli(["pfilter", "--model", "gompertz", "--data", data,
                    "--np", "1000", "--seed", "7", "-o", pf_dir]) == 0
    pf = load_result(pf_dir)["results"]
    assert len(pf["cond_logliks"]) == 100
    assert len(pf["ess"]) == 100
    assert pf["loglik"] == pytest.approx(np.sum(pf["cond_logliks"]))

    kal_dir = str(tmp_path / "kal")
    assert run_cli(["kalman", "--model", "gompertz", "--data", data,
                    "--seed", "1", "-o", kal_dir]) == 0
    exact = load_result(kal_dir)["results"]["loglik"]
    assert pf["loglik"] == pytest.approx(exact, abs=1.5)


def test_simulations_csv_round_trips(tmp_path):
    out = str(tmp_path / "out")
    run_cli(["simulate", "--model", "gompertz", "--seed", "5", "-o", out])
    path = os.path.join(out, "simulations.csv")
    tsd = dataio.load_time_series(path, t0=0.0, observables=["Y"])
    rec = pk.simulate(pk.gompertz_model(), seed=5)[0]
    assert np.array_equal(tsd.times, rec.times[1:])
    assert np.array_equal(tsd.observations[:, 0], rec.obs_column("Y"))


def test_multi_sim_csv_requires_realization_choice(tmp_path):
    out = str(tmp_path / "out")
    run_cli(["simulate", "--model", "gompertz", "--seed", "5", "--nsim", "3",
             "-o", out])
    path = os.path.join(out, "simulations.csv")
    with pytest.raises(pk.DomainError, match="sim="):
        dataio.load_time_series(path, t0=0.0, observables=["Y"])
    tsd = dataio.load_time_series(path, t0=0.0, observables=["Y"], sim=2)
    assert tsd.n_obs == 100


# ---------------------------------------------------------------------------
# validation


def test_validate_reports_missing_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"schema": 1, "algorithm": "pfilter", "model": "gompertz"})
    assert run_cli(["validate", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_validate_rejects_mismatched_settings_block(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": "pmcmc", "model": "gompertz", "seed": 1,
        "settings": {"lags": [2, 3]},
    })
    assert run_cli(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "pmcmc" in err and "lags" in err


def test_validate_accepts_well_formed_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": 3,
        "settings": {"np": 50},
    })
    assert run_cli(["validate", "--config", cfg]) == 0
    assert "valid" in capsys.readouterr().out


def test_unknown_model_lists_valid_names(tmp_path, capsys):
    assert run_cli(["simulate", "--model", "lorenz", "--seed", "1",
                    "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for name in ("gompertz", "ricker", "sir"):
        assert name in err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run_cli(["validate", "--config", str(path)]) == 2
    assert ":1:" in capsys.readouterr().err


def test_algorithm_failure_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,Y\n1.0,0.0\n2.0,1.0\n")
    assert run_cli(["kalman", "--model", "gompertz", "--data", str(bad),
                    "--seed", "1", "-o", str(tmp_path / "out")]) == 3
    assert "algorithm failure" in capsys.readouterr().err


def test_kalman_on_unevenly_spaced_data_exits_3(tmp_path, capsys):
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("time,Y\n1,1.1\n2,0.9\n4,1.0\n5,1.2\n6,0.8\n")
    out = tmp_path / "out"
    assert run_cli(["kalman", "--model", "gompertz", "--data", str(uneven),
                    "--t0", "0", "--seed", "1", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("algorithm failure: ") and "evenly spaced" in err
    assert not (out / "result.json").exists()


GOOD_CSV = "time,Y\n1.0,1.1\n2.0,0.9\n3.0,1.0\n"


@pytest.mark.parametrize("case", ["non-numeric-cell", "ragged-row", "missing-data",
                                  "missing-covariates", "non-increasing-times",
                                  "blank-time-cell"])
def test_bad_input_exits_2_with_one_line_and_no_output(tmp_path, capsys, case):
    data = tmp_path / "data.csv"
    data.write_text({
        "non-numeric-cell": "time,Y\n1.0,1.1\n2.0,abc\n",
        "ragged-row": "time,Y\n1.0,1.1\n2.0,0.9,7\n",
        "non-increasing-times": "time,Y\n1.0,1.1\n3.0,0.9\n2.0,1.0\n",
        "blank-time-cell": "time,Y\n1.0,1.1\n,0.9\n3.0,1.0\n4.0,1.2\n",
    }.get(case, GOOD_CSV))
    out = tmp_path / "out"
    config = {"schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": 1,
              "data": str(data), "output": str(out), "settings": {"np": 20}}
    if case == "missing-data":
        config["data"] = str(tmp_path / "absent.csv")
    if case == "missing-covariates":
        config["covariates"] = str(tmp_path / "absent-covariates.csv")
    assert run_cli(["pfilter", "--config", write_config(tmp_path, "c.json", config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert ("absent" if case.startswith("missing") else "data.csv") in lines[0]
    assert not out.exists()


def test_parameter_walk_leaving_domain_exits_3(tmp_path, capsys):
    # without transforms the random walk drives sigma below zero; the model
    # step's numpy error surfaces as an algorithm failure, not a traceback
    out = tmp_path / "mif"
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "gompertz", "seed": 3,
        "output": str(out),
        "settings": {"iterations": 1, "np": 50, "transform": False,
                     "rw_sd": {"sigma": 0.05, "tau": 0.05}},
    })
    assert run_cli(["mif", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("algorithm failure: ") and "scale < 0" in err


# ---------------------------------------------------------------------------
# the multi-start search workflow


def test_mif_multi_start_workflow(tmp_path):
    out = str(tmp_path / "mif")
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "gompertz", "seed": 11,
        "output": out,
        "settings": {
            "iterations": 3, "np": 60, "starts": 3, "eval_replicates": 3,
            "rw_sd": {"r": 0.02, "sigma": 0.02, "tau": 0.02},
            "cooling_fraction": 0.7,
        },
    })
    assert run_cli(["mif", "--config", cfg]) == 0
    result = load_result(out)["results"]
    assert len(result["starts"]) == 3
    assert result["loglik"] == max(s["loglik"] for s in result["starts"])
    assert set(result["theta_hat"]) == {"r", "K", "sigma", "tau", "X.0"}
    assert result["loglik_se"] > 0
    assert os.path.exists(os.path.join(out, "trace.csv"))


def weekly_cases_csv(tmp_path, n=10):
    """``n`` weekly case counts from t = 0, for the SIR models (t0 = -1/52)."""
    path = tmp_path / "cases.csv"
    counts = [40, 55, 61, 48, 70, 66, 52, 45, 58, 63][:n]
    path.write_text("time,cases\n" + "".join(f"{k / 52!r},{c}\n"
                                              for k, c in enumerate(counts)))
    return str(path)


def test_mif_start_jitter_on_seasonal_sir_estimation_scale(tmp_path):
    # b3 is negative and on the identity scale, rho on the logit scale: a
    # jitter on the log scale would leave the domain of both
    out = str(tmp_path / "mif")
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "sir-seasonal", "seed": 3,
        "data": weekly_cases_csv(tmp_path), "output": out,
        "settings": {"iterations": 1, "np": 20, "starts": 3, "eval_replicates": 1,
                     "rw_sd": {"b3": 0.01, "rho": 0.01}},
    })
    assert run_cli(["mif", "--config", cfg]) == 0
    assert len(load_result(out)["results"]["starts"]) == 3


def test_mif_start_jitter_keeps_rho_a_probability_and_fixed_params_exact(tmp_path):
    out = str(tmp_path / "mif")
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "sir", "seed": 5,
        "data": weekly_cases_csv(tmp_path), "output": out,
        "settings": {"iterations": 0, "np": 10, "starts": 40, "eval_replicates": 1,
                     "rw_sd": {"rho": 0.02}},
    })
    assert run_cli(["mif", "--config", cfg]) == 0
    starts = [s["theta_hat"] for s in load_result(out)["results"]["starts"]]
    assert len(starts) == 40
    defaults = pk.sir_model().params.as_dict()
    for theta in starts:
        assert 0 < theta["rho"] < 1
        assert {n: v for n, v in theta.items() if n != "rho"} == {
            n: v for n, v in defaults.items() if n != "rho"}
    assert len({theta["rho"] for theta in starts}) == 40


def test_mif_multi_start_with_unknown_rw_sd_name_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "gompertz", "seed": 1,
        "output": str(tmp_path / "mif"),
        "settings": {"iterations": 1, "np": 10, "starts": 2, "rw_sd": {"bogus": 0.1}},
    })
    assert run_cli(["mif", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("algorithm failure: ") and "bogus" in err


def test_mif_start_jitter_accepts_a_fixed_parameter_off_the_estimation_scale(tmp_path):
    # sigma = 0 has no log, which a fit under transform: false allows
    out = str(tmp_path / "mif")
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "sir-seasonal", "seed": 4,
        "data": weekly_cases_csv(tmp_path), "output": out, "params": {"sigma": 0.0},
        "settings": {"iterations": 0, "np": 10, "starts": 2, "eval_replicates": 1,
                     "transform": False, "rw_sd": {"b1": 0.01}},
    })
    assert run_cli(["mif", "--config", cfg]) == 0
    starts = [s["theta_hat"] for s in load_result(out)["results"]["starts"]]
    assert [theta["sigma"] for theta in starts] == [0.0, 0.0]
    assert starts[0]["b1"] != starts[1]["b1"]


# ---------------------------------------------------------------------------
# batched replicates: one replicate, or one start with one evaluation, is a
# direct library call on the derived seed


def test_single_replicate_pfilter_is_a_direct_pfilter(tmp_path):
    out = str(tmp_path / "pf")
    config = {"schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": 31,
              "output": out, "settings": {"np": 80, "replicates": 1}}
    assert run_cli(["pfilter", "--config", write_config(tmp_path, "pf.json", config)]) == 0
    result = load_result(out)["results"]
    direct = pk.pfilter(cli._build_model(config), num_particles=80,
                        seed=pk.child_seeds(31, "pfilter-reps", 1)[0])
    assert result["loglik"] == direct.loglik
    assert result["cond_logliks"] == direct.cond_logliks.tolist()
    assert result["ess"] == direct.ess.tolist()


def test_single_start_mif_is_a_direct_mif_and_pfilter(tmp_path):
    out = str(tmp_path / "mif")
    rw_sd = {"r": 0.02, "sigma": 0.02, "tau": 0.02}
    config = {"schema": 1, "algorithm": "mif", "model": "gompertz", "seed": 32,
              "output": out,
              "settings": {"iterations": 2, "np": 60, "starts": 1, "eval_replicates": 1,
                           "rw_sd": rw_sd, "cooling_fraction": 0.5}}
    assert run_cli(["mif", "--config", write_config(tmp_path, "mif.json", config)]) == 0
    result = load_result(out)["results"]

    model = cli._build_model(config)
    seed = pk.child_seeds(32, "mif-starts", 1)[0]
    mset = MifSettings(start=model.params, n_iterations=2, num_particles=60, rw_sd=rw_sd,
                       cooling_fraction=0.5)
    direct = pk.mif(model, mset, seed=seed, run_final_filter=False)
    evaluation = pk.pfilter(model, direct.theta_hat, num_particles=60,
                            seed=pk.child_seeds(seed, "mif-eval", 1)[0])
    assert result["theta_hat"] == direct.theta_hat.as_dict()
    assert result["loglik"] == evaluation.loglik
    expected = str(tmp_path / "trace.csv")
    dataio.write_trace_csv(expected, direct)
    with open(os.path.join(out, "trace.csv"), "rb") as got, open(expected, "rb") as want:
        assert got.read() == want.read()
    with open(expected, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "loglik"
    assert [float(row[-1]) for row in rows[1:]] == direct.logliks.tolist()


# ---------------------------------------------------------------------------
# reproducibility


def strip_timestamp(payload):
    payload = dict(payload)
    payload.pop("generated_at")
    return payload


@pytest.mark.parametrize("algorithm,settings", [
    ("simulate", {"nsim": 2}),
    ("pfilter", {"np": 60, "replicates": 2}),
    ("pmcmc", {"steps": 40, "np": 25,
               "proposal_sd": {"r": 0.01, "sigma": 0.01, "tau": 0.01},
               "prior": {"r": [0.01, 1.0], "sigma": [0.01, 1.0], "tau": [0.01, 1.0]}}),
    ("abc", {"steps": 60, "epsilon": 2.0,
             "probes": [{"type": "mean", "var": "Y"},
                        {"type": "acf", "var": "Y", "lags": [0, 1]}],
             "scale": "auto", "scale_nsim": 40,
             "proposal_sd": {"r": 0.01, "sigma": 0.01, "tau": 0.01},
             "prior": {"r": [0.01, 1.0], "sigma": [0.01, 1.0], "tau": [0.01, 1.0]}}),
    ("probe", {"nsim": 40, "probes": [{"type": "mean", "var": "Y", "transform": "sqrt"},
                                      {"type": "marginal", "var": "Y"}]}),
    ("nlf", {"lags": [2, 3], "sim_length": 80, "transient": 80,
             "est": ["r"], "maxit": 20}),
    ("kalman", {"mle": False}),
])
def test_runs_are_byte_reproducible(tmp_path, algorithm, settings):
    payloads, chains = [], []
    for attempt in ("a", "b"):
        out = str(tmp_path / f"{algorithm}-{attempt}")
        cfg = write_config(tmp_path, f"{algorithm}-{attempt}.json", {
            "schema": 1, "algorithm": algorithm, "model": "gompertz",
            "seed": 99, "output": out, "settings": settings,
        })
        assert run_cli([algorithm, "--config", cfg]) == 0
        payloads.append(strip_timestamp(load_result(out)))
        chain_path = os.path.join(out, "chain.csv")
        if os.path.exists(chain_path):
            with open(chain_path, "rb") as fh:
                chains.append(fh.read())
    assert payloads[0] == payloads[1]
    if chains:
        assert chains[0] == chains[1]


def test_thread_count_does_not_change_results(tmp_path):
    payloads = []
    for threads in (1, 4):
        out = str(tmp_path / f"t{threads}")
        cfg = write_config(tmp_path, f"t{threads}.json", {
            "schema": 1, "algorithm": "mif", "model": "gompertz", "seed": 21,
            "threads": threads, "output": out,
            "settings": {"iterations": 2, "np": 40, "starts": 4,
                         "eval_replicates": 2,
                         "rw_sd": {"r": 0.02, "sigma": 0.02, "tau": 0.02}},
        })
        assert run_cli(["mif", "--config", cfg]) == 0
        payload = strip_timestamp(load_result(out))
        payload.pop("threads")
        payloads.append(payload)
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[2]
    assert payloads[1] == payloads[3]


# ---------------------------------------------------------------------------
# schemas and the parser, which the CLI builds once


def test_config_and_settings_schemas_are_valid():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
    for name, schema in cli.SETTINGS_SCHEMAS.items():
        jsonschema.Draft202012Validator.check_schema(schema)
    assert set(cli.SETTINGS_SCHEMAS) == set(cli.ALGORITHMS)


@pytest.mark.parametrize("config", [
    {},
    {"schema": 2, "algorithm": "pfilter", "model": "gompertz", "seed": 1},
    {"schema": 1, "algorithm": "smc", "model": "gompertz", "seed": 1},
    {"schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": -1},
    {"schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": 1, "extra": 0},
    {"schema": 1, "algorithm": "pfilter", "model": 3, "seed": "x",
     "params": {"r": "fast"}},
    [],
])
def test_config_errors_are_those_of_a_full_schema_validation(config):
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(config, cli.CONFIG_SCHEMA)
    err = expected.value
    with pytest.raises(pk.ConfigError) as got:
        cli.validate_config(config)
    assert str(got.value) == f"config{err.json_path[1:]}: {err.message}"


def test_parser_is_built_once_and_help_still_exits_0(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["probe", "--help"])
    assert exit_info.value.code == 0
    assert "--nsim" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["no-such-command"])
    assert exit_info.value.code == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported where a density or the synthetic likelihood needs it,
    # which keeps it out of every CLI start-up
    code = ("import sys, pompkit, pompkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_mif_multi_start_with_sigma_fixed_at_zero_under_the_log_transform(tmp_path):
    # sigma = 0 has no log; held fixed, it never needs one
    out = str(tmp_path / "mif")
    cfg = write_config(tmp_path, "mif.json", {
        "schema": 1, "algorithm": "mif", "model": "sir-seasonal", "seed": 4,
        "data": weekly_cases_csv(tmp_path), "output": out, "params": {"sigma": 0.0},
        "settings": {"iterations": 1, "np": 10, "starts": 2, "eval_replicates": 1,
                     "rw_sd": {"b1": 0.01}},
    })
    assert run_cli(["mif", "--config", cfg]) == 0
    starts = [s["theta_hat"] for s in load_result(out)["results"]["starts"]]
    assert [theta["sigma"] for theta in starts] == [0.0, 0.0]


@pytest.mark.parametrize("algorithm,settings", [
    ("pmcmc", {"steps": 2, "np": 10, "proposal_sd": {"r": 0.01}}),
    ("abc", {"steps": 2, "scale_nsim": 10, "proposal_sd": {"r": 0.01},
             "probes": [{"type": "mean", "var": "Y"}]}),
])
def test_prior_naming_an_unknown_parameter_exits_2(tmp_path, capsys, algorithm, settings):
    prior = {"r": [0.01, 1.0], "bogus": [0.0, 1.0]}
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
        "output": str(tmp_path / "out"), "settings": {**settings, "prior": prior},
    })
    assert run_cli([algorithm, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "bogus" in err


# ---------------------------------------------------------------------------
# a run writes its outputs only once it has succeeded


def test_unknown_prior_name_leaves_no_output_directory(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": "pmcmc", "model": "gompertz", "seed": 1,
        "output": str(out),
        "settings": {"steps": 2, "np": 10, "proposal_sd": {"r": 0.01},
                     "prior": {"bogus": [0.0, 1.0]}},
    })
    assert run_cli(["pmcmc", "--config", cfg]) == 2
    assert not out.exists()


def test_kalman_on_a_model_other_than_gompertz_leaves_no_output_directory(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["kalman", "--model", "ricker", "--seed", "1", "-o", str(out)]) == 2
    assert not out.exists()


def test_kalman_on_unevenly_spaced_data_leaves_no_output_directory(tmp_path):
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("time,Y\n1,1.1\n2,0.9\n4,1.0\n5,1.2\n6,0.8\n")
    out = tmp_path / "out"
    assert run_cli(["kalman", "--model", "gompertz", "--data", str(uneven),
                    "--t0", "0", "--seed", "1", "-o", str(out)]) == 3
    assert not out.exists()


def test_output_naming_an_existing_file_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep me\n")
    assert run_cli(["pfilter", "--model", "gompertz", "--seed", "1", "--np", "10",
                    "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(target) in lines[0]
    assert target.read_text() == "keep me\n"


def test_empty_output_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": 1,
        "output": "", "settings": {"np": 10},
    })
    assert run_cli(["pfilter", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: config.output")


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    # the parent of the output directory is a file: making it fails at write time
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert run_cli(["simulate", "--model", "gompertz", "--seed", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]


def test_probe_into_an_existing_directory_writes_exactly_its_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["probe", "--model", "gompertz", "--seed", "1", "--nsim", "20",
                    "--config", write_config(tmp_path, "c.json", {
                        "settings": {"probes": [{"type": "mean", "var": "Y"}]}}),
                    "-o", str(out)]) == 0
    files = load_result(str(out))["files"]
    assert files == {"probes": "probes.csv", "simulations": "simulations.csv"}
    assert sorted(os.listdir(out)) == sorted(["result.json", *files.values()])


@pytest.mark.parametrize("algorithm,top,settings", [
    ("pfilter", {}, {"np": 10, "replicates": 2.0}),
    ("probe", {}, {"nsim": 50.0, "probes": [{"type": "mean", "var": "Y"}]}),
    ("mif", {}, {"iterations": 1, "np": 10, "rw_sd": {"r": 0.02}, "starts": 2.0}),
    ("mif", {}, {"iterations": 1, "np": 10, "rw_sd": {"r": 0.02}, "eval_replicates": 2.0}),
    ("abc", {}, {"steps": 5.0, "probes": [{"type": "mean", "var": "Y"}],
                 "proposal_sd": {"r": 0.01}, "prior": {"r": [0.01, 1.0]}}),
    ("abc", {}, {"steps": 5, "scale_nsim": 50.0, "probes": [{"type": "mean", "var": "Y"}],
                 "proposal_sd": {"r": 0.01}, "prior": {"r": [0.01, 1.0]}}),
    ("pfilter", {"seed": 1.0}, {"np": 10}),
], ids=["replicates", "nsim", "starts", "eval_replicates", "steps", "scale_nsim", "seed"])
def test_a_whole_float_count_in_a_config_exits_2_with_one_line(tmp_path, capsys, algorithm,
                                                               top, settings):
    # a count in a config is a JSON integer: 2.0 is refused, not truncated or crashed on
    out = tmp_path / "out"
    config = {"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
              "output": str(out), "settings": settings, **top}
    field = next(k for k, v in {**settings, **top}.items() if isinstance(v, float))
    assert run_cli([algorithm, "--config", write_config(tmp_path, "c.json", config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config.")
    assert f"{field}: " in lines[0] and "is not of type 'integer'" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["probe", "abc"])
@pytest.mark.parametrize("spec", [
    {"type": "acf", "var": "Y", "lags": [-1]},
    {"type": "nlar", "var": "Y", "lags": [], "powers": []},
], ids=["acf-negative-lag", "nlar-empty"])
def test_a_probe_spec_the_builders_refuse_exits_2_with_one_line(tmp_path, capsys, algorithm,
                                                                spec):
    out = tmp_path / "out"
    settings = {"probes": [spec]}
    if algorithm == "abc":
        settings.update(steps=2, proposal_sd={"r": 0.01}, prior={"r": [0.01, 1.0]})
    config = {"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
              "output": str(out), "settings": settings}
    assert run_cli([algorithm, "--config", write_config(tmp_path, "c.json", config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config.settings.probes[0]: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the config boundary: strict JSON objects, one line and exit 2, never a traceback


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("content", [b"[1, 2]", b'"gompertz"', b"null"],
                         ids=["array", "string", "null"])
def test_a_config_that_is_not_a_json_object_exits_2_with_one_line(tmp_path, capsys, command,
                                                                  content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    assert run_cli([command, "--config", str(path)]) == 2
    assert "JSON object" in _one_error_line(capsys, f"error: {path}: ")


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_a_config_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run_cli([command, "--config", str(path)]) == 2
    assert "UTF-8" in _one_error_line(capsys, f"error: {path}: ")


@pytest.mark.parametrize("settings", [[], None, 3], ids=["array", "null", "number"])
def test_settings_that_are_not_an_object_exit_2_before_a_flag_is_merged(tmp_path, capsys,
                                                                        settings):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": "simulate", "model": "gompertz", "seed": 1,
        "output": str(out), "settings": settings})
    assert run_cli(["simulate", "--config", cfg, "--nsim", "3"]) == 2
    _one_error_line(capsys, "error: config.settings: ")
    assert not out.exists()


_MIF = {"iterations": 1, "np": 10, "rw_sd": {"r": 0.02}}
_PRIOR_R = {"r": [0.01, 1.0]}


@pytest.mark.parametrize("algorithm,settings,field", [
    ("abc", {"steps": 2, "scale_nsim": 10, "probes": [{"type": "mean", "var": "Y"}],
             "proposal_sd": {"r": 0.01}, "prior": _PRIOR_R}, "epsilon"),
    ("mif", {**_MIF, "starts": 2, "eval_replicates": 1}, "start_jitter_sdlog"),
    ("mif", _MIF, "var_factor"),
    ("mif", {**_MIF, "rw_sd": {}}, "rw_sd.r"),
    ("pmcmc", {"steps": 2, "np": 10, "proposal_sd": {}, "prior": _PRIOR_R}, "proposal_sd.r"),
], ids=["epsilon", "start_jitter_sdlog", "var_factor", "rw_sd", "proposal_sd"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_non_standard_json_constant_in_a_config_exits_2_with_one_line(
        tmp_path, capsys, algorithm, settings, field, literal):
    out = tmp_path / "out"
    config = {"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
              "output": str(out), "settings": json.loads(json.dumps(settings))}
    where = config["settings"]
    *parents, leaf = field.split(".")
    for key in parents:
        where = where[key]
    where[leaf] = "PLACEHOLDER"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace('"PLACEHOLDER"', literal))
    assert run_cli([algorithm, "--config", str(path)]) == 2
    line = _one_error_line(capsys, f"error: {path}: ")
    assert f"{literal} is not a JSON number" in line
    assert not out.exists()
    assert run_cli(["validate", "--config", str(path)]) == 2
    _one_error_line(capsys, f"error: {path}: ")


@pytest.mark.parametrize("algorithm,settings", [
    ("pmcmc", {"steps": 2, "np": 10, "proposal_sd": {"r": 0.01}}),
    ("abc", {"steps": 2, "scale_nsim": 10, "proposal_sd": {"r": 0.01},
             "probes": [{"type": "mean", "var": "Y"}]}),
])
@pytest.mark.parametrize("interval", ["[1.0, 0.0]", "[0.5, 0.5]", "[0.0, 1e400]",
                                      "[-1e400, 1.0]"],
                         ids=["reversed", "empty", "infinite-high", "infinite-low"])
def test_a_bad_prior_interval_exits_2_naming_the_prior(tmp_path, capsys, algorithm, settings,
                                                       interval):
    # 1e400 is valid JSON that parses to an infinite float
    out = tmp_path / "out"
    config = {"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
              "output": str(out), "settings": {**settings, "prior": {"r": "PLACEHOLDER"}}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace('"PLACEHOLDER"', interval))
    assert run_cli([algorithm, "--config", str(path)]) == 2
    line = _one_error_line(capsys, "error: config.settings.prior: ")
    assert "'r'" in line
    assert not out.exists()


@pytest.mark.parametrize("where", ["params", "prior"])
def test_unknown_params_and_prior_names_share_the_one_name_rule_message(tmp_path, capsys,
                                                                        where):
    config = {"schema": 1, "algorithm": "pmcmc", "model": "gompertz", "seed": 1,
              "output": str(tmp_path / "out"),
              "settings": {"steps": 2, "np": 10, "proposal_sd": {"r": 0.01},
                           "prior": {"r": [0.01, 1.0]}}}
    if where == "params":
        config["params"] = {"bogus": 1.0}
        prefix = "error: config.params: "
    else:
        config["settings"]["prior"]["bogus"] = [0.0, 1.0]
        prefix = "error: config.settings.prior: "
    assert run_cli(["pmcmc", "--config", write_config(tmp_path, "c.json", config)]) == 2
    line = _one_error_line(capsys, prefix)
    known = list(pk.gompertz_model().params.names)
    assert line == f"{prefix}unknown parameters ['bogus']; known: {known}"


def test_importing_the_cli_leaves_jsonschema_unimported():
    # the validators are built on the first validation, not at import
    code = ("import sys, pompkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("algorithm", ["probe", "abc"])
def test_a_probe_of_an_unknown_observable_exits_2_naming_its_place(tmp_path, capsys,
                                                                   algorithm):
    settings = {"probes": [{"type": "mean", "var": "Z"}]}
    if algorithm == "abc":
        settings.update(steps=2, proposal_sd={"r": 0.01}, prior={"r": [0.01, 1.0]})
    config = {"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
              "output": str(tmp_path / "out"), "settings": settings}
    assert run_cli([algorithm, "--config", write_config(tmp_path, "c.json", config)]) == 2
    line = _one_error_line(capsys, "error: config.settings.probes[0]: ")
    assert line.endswith("unknown observables ['Z']; known: ['Y']")


@pytest.mark.parametrize("argv,key,value", [
    (["simulate", "--nsim", "3"], "nsim", 3),
    (["pfilter", "--np", "40"], "np", 40),
    (["pfilter", "--replicates", "2"], "replicates", 2),
    (["probe", "--nsim", "30"], "nsim", 30),
    (["probe"], "nsim", 99),
], ids=["simulate-nsim", "pfilter-np", "pfilter-replicates", "probe-nsim", "no-flag"])
def test_a_settings_flag_overrides_its_config_key(tmp_path, argv, key, value):
    cfg = write_config(tmp_path, "c.json", {"settings": {key: 99}})
    args = cli.build_parser().parse_args([*argv, "--config", cfg])
    assert cli._merge_flags(args)["settings"] == {key: value}


_STEPS_1 = {"steps": 1, "proposal_sd": {"r": 0.01}, "prior": _PRIOR_R}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm,settings", [
    ("pmcmc", {**_STEPS_1, "np": 10}),
    ("abc", {**_STEPS_1, "scale_nsim": 10, "probes": [{"type": "mean", "var": "Y"}]}),
])
def test_a_one_step_chain_exits_0_with_empty_stderr_and_nan_posterior_sd(tmp_path, capsys,
                                                                         algorithm, settings):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, "c.json", {"schema": 1, "algorithm": algorithm,
                                             "model": "gompertz", "seed": 1, "output": out,
                                             "settings": settings})
    assert run_cli([algorithm, "--config", path]) == 0
    assert capsys.readouterr().err == ""
    sd = load_result(out)["results"]["posterior_sd"]
    assert sorted(sd) == ["K", "X.0", "r", "sigma", "tau"]
    assert all(np.isnan(v) for v in sd.values())


def test_an_abc_chain_csv_holds_only_per_step_columns_when_the_probes_match_the_steps(
        tmp_path):
    # 3 probe dimensions over 3 steps: the run constants are not columns
    out = str(tmp_path / "out")
    log_y = {"var": "Y", "transform": "log"}
    path = write_config(tmp_path, "c.json", {
        "schema": 1, "algorithm": "abc", "model": "gompertz", "seed": 1, "output": out,
        "settings": {"steps": 3, "probes": [{"type": "mean", **log_y},
                                            {"type": "acf", "lags": [0, 1], **log_y}],
                     "scale": [0.1, 0.01, 0.01], "proposal_sd": {"r": 0.01},
                     "prior": _PRIOR_R}})
    assert run_cli(["abc", "--config", path]) == 0
    with open(os.path.join(out, "chain.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "r", "K", "sigma", "tau", "X.0", "loglik", "logprior",
                       "accepted", "distance"]
    assert [len(row) for row in rows[1:]] == [10, 10, 10]
