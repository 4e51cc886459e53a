"""``pomp-kit validate`` refuses every config that a run refuses before its
algorithm starts: both go through one preparation step, so they exit with the
same status, print the same single line and neither makes the output
directory."""

import json
import sys

import numpy as np
import pytest

from pompkit import cli

_PMCMC = {"steps": 2, "np": 10, "proposal_sd": {"r": 0.01}, "prior": {"r": [0.01, 1.0]}}
_ABC = {"steps": 2, "scale_nsim": 10, "proposal_sd": {"r": 0.01},
        "prior": {"r": [0.01, 1.0]}, "probes": [{"type": "mean", "var": "Y"}]}
_PROBE = {"nsim": 10, "probes": [{"type": "mean", "var": "Y"}]}
_MIF = {"iterations": 1, "np": 10, "starts": 2, "eval_replicates": 1, "rw_sd": {"r": 0.02}}

# (algorithm, top-level fields, settings); a path is a name under tmp_path, and
# an infinite float is written as 1e400, which JSON parses to inf
REFUSED = {
    "unknown-params": ("pmcmc", {"params": {"bogus": 1.0}}, _PMCMC),
    "unknown-prior": ("pmcmc", {}, {**_PMCMC, "prior": {"r": [0.01, 1.0], "bogus": [0, 1]}}),
    "abc-unknown-prior": ("abc", {}, {**_ABC, "prior": {"bogus": [0.0, 1.0]}}),
    "prior-reversed": ("pmcmc", {}, {**_PMCMC, "prior": {"r": [1.0, 0.0]}}),
    "prior-empty": ("abc", {}, {**_ABC, "prior": {"r": [0.5, 0.5]}}),
    "prior-infinite-high": ("pmcmc", {}, {**_PMCMC, "prior": {"r": [0.0, np.inf]}}),
    "prior-infinite-low": ("abc", {}, {**_ABC, "prior": {"r": [-np.inf, 1.0]}}),
    "probe-acf-negative-lag": (
        "probe", {}, {**_PROBE, "probes": [{"type": "acf", "var": "Y", "lags": [-1]}]}),
    "abc-probe-nlar-empty": (
        "abc", {}, {**_ABC, "probes": [{"type": "nlar", "var": "Y", "lags": [], "powers": []}]}),
    "probe-unknown-observable": (
        "probe", {}, {**_PROBE, "probes": [{"type": "mean", "var": "Z"}]}),
    "abc-probe-unknown-observable": (
        "abc", {}, {**_ABC, "probes": [{"type": "mean", "var": "Z"}]}),
    "kalman-on-ricker": ("kalman", {"model": "ricker"}, {}),
    "kalman-missing-data": ("kalman", {"data": "missing.csv"}, {}),
    "output-is-a-file": ("pfilter", {"output": "taken"}, {"np": 10}),
    "data-absent": ("pfilter", {"data": "absent.csv"}, {"np": 10}),
    "data-malformed": ("pfilter", {"data": "malformed.csv"}, {"np": 10}),
    "covariates-absent": ("pfilter", {"covariates": "absent.csv"}, {"np": 10}),
    "mif-infinite-var_factor": ("mif", {}, {**_MIF, "var_factor": np.inf}),
    "mif-infinite-start_jitter_sdlog": ("mif", {}, {**_MIF, "start_jitter_sdlog": np.inf}),
}

FILES = {
    "missing.csv": "time,Y\n1,1.1\n2,NA\n3,1.0\n",
    "malformed.csv": "time,Y\n1.0,1.1\n2.0,abc\n",
    "taken": "keep me\n",
}


def _config_path(tmp_path, algorithm, top, settings):
    for name, content in FILES.items():
        (tmp_path / name).write_text(content)
    config = {"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
              "output": "out", "settings": settings, **top}
    for field in ("output", "data", "covariates"):
        if field in config:
            config[field] = str(tmp_path / config[field])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace("Infinity", "1e400"))
    return str(path)


def _status_and_line(capsys, argv):
    status = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return status, lines[0]


def _outputs_untouched(tmp_path):
    return not (tmp_path / "out").exists() and (tmp_path / "taken").read_text() == "keep me\n"


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_refuses_what_a_run_refuses_with_the_same_line(tmp_path, capsys, case):
    algorithm, top, settings = REFUSED[case]
    path = _config_path(tmp_path, algorithm, top, settings)
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated[0] == 2 and validated[1].startswith("error: ")
    assert _outputs_untouched(tmp_path)
    assert _status_and_line(capsys, [algorithm, "--config", path]) == validated
    assert _outputs_untouched(tmp_path)


@pytest.mark.parametrize("field", ["var_factor", "start_jitter_sdlog"])
def test_an_infinite_mif_setting_exits_2_naming_it(tmp_path, capsys, field):
    algorithm, top, settings = REFUSED[f"mif-infinite-{field}"]
    path = _config_path(tmp_path, algorithm, top, settings)
    for command in ("validate", "mif"):
        status, line = _status_and_line(capsys, [command, "--config", path])
        assert status == 2
        assert line.startswith(f"error: config.settings.{field}: inf is greater than")


def test_validate_exits_3_with_the_line_of_a_run_whose_preparation_fails(tmp_path, capsys):
    # a negative sigma makes simulating the dataset fail: an algorithm failure
    path = _config_path(tmp_path, "pfilter", {"params": {"sigma": -1.0}}, {"np": 10})
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated[0] == 3 and validated[1].startswith("algorithm failure: ")
    assert _status_and_line(capsys, ["pfilter", "--config", path]) == validated
    assert _outputs_untouched(tmp_path)


@pytest.mark.parametrize("algorithm,settings", [("abc", _ABC), ("probe", _PROBE),
                                                ("pmcmc", _PMCMC)])
def test_validate_accepts_a_runnable_config_and_writes_nothing(tmp_path, capsys, algorithm,
                                                               settings):
    path = _config_path(tmp_path, algorithm, {}, settings)
    assert cli.main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert _outputs_untouched(tmp_path)


# an integer that no float can hold, in each kind of number field a run reads as a float
HUGE = 10 ** 400
OVERSIZED = {
    "config.params.r": ("pfilter", {"params": {"r": HUGE}}, {"np": 10}),
    "config.settings.prior.r[1]": ("pmcmc", {}, {**_PMCMC, "prior": {"r": [0.01, HUGE]}}),
    "config.settings.var_factor": ("mif", {}, {**_MIF, "var_factor": HUGE}),
}


@pytest.mark.parametrize("field", sorted(OVERSIZED))
def test_an_integer_too_large_for_a_float_exits_2_naming_its_field(tmp_path, capsys, field):
    algorithm, top, settings = OVERSIZED[field]
    path = _config_path(tmp_path, algorithm, top, settings)
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated[0] == 2
    assert validated[1].startswith(f"error: {field}: integer too large for a float")
    assert _status_and_line(capsys, [algorithm, "--config", path]) == validated
    assert _outputs_untouched(tmp_path)


def test_an_integer_past_the_digit_limit_exits_2_naming_the_config_file(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    path = tmp_path / "c.json"
    path.write_text('{"schema": 1, "algorithm": "pfilter", "model": "gompertz", "seed": '
                    + "1" * (limit + 1) + f', "output": {json.dumps(str(tmp_path / "out"))}}}')
    for command in ("validate", "pfilter"):
        status, line = _status_and_line(capsys, [command, "--config", str(path)])
        assert (status, line) == (2, f"error: {path}: an integer has more than {limit} digits")
    assert not (tmp_path / "out").exists()


_NLF = {"lags": [1], "nrbf": 2, "transient": 10, "sim_length": 20, "maxit": 1}

# configs whose refusal comes from the library's own settings objects, which
# the preparation step builds: exit 3 from validate as from the run
LIBRARY_REFUSED = {
    "mif-cooling_factor-above-1": ("mif", {}, {**_MIF, "cooling_factor": 2.0}),
    "mif-unknown-ivp_names": ("mif", {}, {**_MIF, "ivp_names": ["bogus"]}),
    "mif-infinite-rw_sd": ("mif", {}, {**_MIF, "rw_sd": {"r": np.inf}}),
    "pmcmc-unknown-proposal_sd": ("pmcmc", {}, {**_PMCMC, "proposal_sd": {"bogus": 0.01}}),
    "abc-scale-of-wrong-length": ("abc", {}, {**_ABC, "scale": [1.0, 2.0]}),
    "nlf-transient-within-lags": ("nlf", {}, {**_NLF, "lags": [3], "transient": 2}),
    "nlf-unknown-est": ("nlf", {}, {**_NLF, "est": ["bogus"]}),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSED))
def test_validate_exits_3_with_the_line_of_a_run_the_library_refuses(tmp_path, capsys, case):
    algorithm, top, settings = LIBRARY_REFUSED[case]
    path = _config_path(tmp_path, algorithm, top, settings)
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated[0] == 3 and validated[1].startswith("algorithm failure: ")
    assert _outputs_untouched(tmp_path)
    assert _status_and_line(capsys, [algorithm, "--config", path]) == validated
    assert _outputs_untouched(tmp_path)


@pytest.mark.parametrize("algorithm,field", [("simulate", "nsim"), ("pfilter", "np"),
                                             ("mif", "np"), ("probe", "nsim")])
def test_a_count_past_numpy_sizes_exits_2_naming_its_field(tmp_path, capsys, algorithm, field):
    base = {"mif": _MIF, "probe": _PROBE}.get(algorithm, {})
    path = _config_path(tmp_path, algorithm, {}, {**base, field: HUGE})
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated[0] == 2
    assert validated[1].startswith(f"error: config.settings.{field}: {HUGE} is greater than")
    assert _status_and_line(capsys, [algorithm, "--config", path]) == validated
    assert _outputs_untouched(tmp_path)


def test_a_run_out_of_memory_exits_3_and_writes_nothing(tmp_path, capsys):
    # 2**50 particles need 8 PiB, past any address space, so no memory is touched
    path = _config_path(tmp_path, "pfilter", {}, {"np": 2 ** 50})
    status, line = _status_and_line(capsys, ["pfilter", "--config", path])
    assert status == 3 and line.startswith("algorithm failure: ")
    assert _outputs_untouched(tmp_path)


@pytest.mark.parametrize("algorithm,settings", [("mif", _MIF), ("nlf", {**_NLF, "est": ["r"]}),
                                                ("abc", {**_ABC, "scale": [1.0]})])
def test_validate_accepts_the_library_settings_of_a_runnable_config(tmp_path, capsys,
                                                                    algorithm, settings):
    path = _config_path(tmp_path, algorithm, {}, settings)
    assert cli.main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert _outputs_untouched(tmp_path)


# probe specs whose probe cannot be built: exit 2 naming the probe, from validate as
# from the run; the seed-1 Ricker dataset holds zero counts, which have no log
UNBUILDABLE_PROBES = {
    "npoly-past-the-data": ("gompertz", {"type": "marginal", "var": "Y", "npoly": 2**63 - 1},
                            "npoly must be less than the reference length 100, "
                            f"got {2**63 - 1}"),
    "log-of-a-zero-count": ("ricker", {"type": "marginal", "var": "y", "transform": "log"},
                            "reference series is not finite after its transform"),
}


@pytest.mark.parametrize("algorithm", ["probe", "abc"])
@pytest.mark.parametrize("case", sorted(UNBUILDABLE_PROBES))
def test_a_probe_that_cannot_be_built_exits_2_naming_it(tmp_path, capsys, algorithm, case):
    model, spec, message = UNBUILDABLE_PROBES[case]
    buildable = {"type": "mean", "var": spec["var"]}
    settings = {**(_ABC if algorithm == "abc" else _PROBE), "probes": [buildable, spec]}
    path = _config_path(tmp_path, algorithm, {"model": model}, settings)
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated == (2, f"error: config.settings.probes[1]: {message}")
    assert _status_and_line(capsys, [algorithm, "--config", path]) == validated
    assert _outputs_untouched(tmp_path)


# probes whose values are not finite once simulated or observed: validate passes,
# the run exits 3; the seed-1 Ricker dataset holds zero counts, which have no log
_LOG_MEAN = {"type": "mean", "var": "y", "transform": "log"}
_RICKER_ABC = {"steps": 2, "scale_nsim": 20, "proposal_sd": {"r": 0.1},
               "prior": {"r": [1.0, 100.0]}, "probes": [_LOG_MEAN]}
NON_FINITE_PROBES = {
    "probe-log-mean": ("probe", {"nsim": 20, "probes": [_LOG_MEAN]},
                       "probes whose observed or simulated values or moments are not finite: "
                       "['mean.y']"),
    "probe-nlar-huge-power": (
        "probe", {"nsim": 20, "probes": [{"type": "nlar", "var": "y", "lags": [1],
                                           "powers": [2**62]}]},
        f"probes whose observed or simulated values or moments are not finite: "
        f"['nlar.y[1^{2**62}]']"),
    "abc-auto-scale": ("abc", _RICKER_ABC,
                       "probes of zero or non-finite spread cannot be scaled: ['mean.y']"),
    "abc-observed": ("abc", {**_RICKER_ABC, "scale": [1.0]},
                     "observed probes are not finite: ['mean.y']"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PROBES))
def test_a_probe_with_non_finite_values_exits_3_with_one_line(tmp_path, capsys, case):
    algorithm, settings, message = NON_FINITE_PROBES[case]
    path = _config_path(tmp_path, algorithm, {"model": "ricker"}, settings)
    assert cli.main(["validate", "--config", path]) == 0
    capsys.readouterr()
    assert _status_and_line(capsys, [algorithm, "--config", path]) == (
        3, f"algorithm failure: {message}")
    assert _outputs_untouched(tmp_path)


@pytest.mark.parametrize("algorithm,field", [("simulate", "nsim"), ("pfilter", "np")])
def test_a_count_no_array_can_hold_exits_3_with_one_line(tmp_path, capsys, algorithm, field):
    # numpy refuses the size before touching any memory
    path = _config_path(tmp_path, algorithm, {}, {field: 2**63 - 1})
    status, line = _status_and_line(capsys, [algorithm, "--config", path])
    assert status == 3 and line.startswith("algorithm failure: array is too big")
    assert _outputs_untouched(tmp_path)


# batches formed from several counts, each within int64, that no array can hold:
# (algorithm, settings, the sizes the one line names)
OVERSIZED_BATCHES = {
    "pfilter-replicates": ("pfilter", {"np": 2**62, "replicates": 2},
                           f"2 block(s) of {2**62} particles"),
    "mif-starts": ("mif", {**_MIF, "np": 2**62, "eval_np": 1},
                   f"2 block(s) of {2**62} particles"),
    "mif-eval_replicates": ("mif", {**_MIF, "starts": 1, "eval_replicates": 2**62},
                            f"1 start(s) x {2**62} evaluation replicate(s) of 10 particles"),
    "mif-starts-evaluated": ("mif", {**_MIF, "np": 2**62},
                             f"2 start(s) x 1 evaluation replicate(s) of {2**62} particles"),
    "nlf-simulation-length": ("nlf", {**_NLF, "transient": 2**63 - 1, "sim_length": 2**63 - 1},
                              f"{2**63 - 1} transient + {2**63 - 1} fitted observations"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_BATCHES))
def test_a_batch_no_array_can_hold_exits_3_naming_its_counts(tmp_path, capsys, monkeypatch,
                                                             case):
    algorithm, settings, sizes = OVERSIZED_BATCHES[case]
    if case == "mif-eval_replicates":  # refused before any filtering, let alone the list
        monkeypatch.setattr(cli, "_mif_blocks", None)
    path = _config_path(tmp_path, algorithm, {}, settings)
    line = f"algorithm failure: array is too big: {sizes}"
    assert _status_and_line(capsys, [algorithm, "--config", path]) == (3, line)
    assert _outputs_untouched(tmp_path)
    if algorithm == "nlf":  # NlfSettings is built by the preparation step
        assert _status_and_line(capsys, ["validate", "--config", path]) == (3, line)


def test_a_run_lets_any_other_value_error_through(tmp_path, monkeypatch):
    def failing_runner(model, config, settings):
        raise ValueError("not a size")

    monkeypatch.setitem(cli._RUNNERS, "simulate", failing_runner)
    path = _config_path(tmp_path, "simulate", {}, {})
    with pytest.raises(ValueError, match="not a size"):
        cli.main(["simulate", "--config", path])
    assert _outputs_untouched(tmp_path)


@pytest.mark.parametrize("algorithm,settings,key", [
    ("probe", {**_PROBE, "probes": [{"type": "mean", "var": "Y", "ref": "data"}]}, "ref"),
    ("mif", {**_MIF, "ic_lag": 3}, "ic_lag"),
])
def test_a_dropped_settings_key_exits_2_as_unknown(tmp_path, capsys, algorithm, settings, key):
    path = _config_path(tmp_path, algorithm, {}, settings)
    validated = _status_and_line(capsys, ["validate", "--config", path])
    assert validated[0] == 2 and f"'{key}' was unexpected" in validated[1]
    assert _status_and_line(capsys, [algorithm, "--config", path]) == validated
    assert _outputs_untouched(tmp_path)
