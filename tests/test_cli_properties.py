"""Properties: a drawn Ricker probe config, and a drawn batch size or short chain
of the other subcommands, exits 0, 2 or 3 from ``validate`` and from the run; no
exception escapes ``cli.main``.  A count that sizes an array, drawn past what any
array can hold, is refused alike by ``validate`` and the run, with one line
naming it.  A built-in model's parameter set to -1, 0 or +-1e300, on simulated
data, makes every subcommand exit 0, 2 or 3 with at most that one line, and
no warning or traceback."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest

from pompkit import cli, models

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# counts stay small or past any array: a count in between really allocates
COUNTS = st.one_of(st.integers(-3, 60), st.sampled_from([2**62, 2**63 - 1, -2**63]))
LAGS = st.lists(COUNTS, min_size=1, max_size=3)
NSIM = st.one_of(st.integers(2, 60), COUNTS)  # mostly a valid nsim, to reach the probes


def _specs(kind, **drawn):
    return st.fixed_dictionaries(
        {"type": st.just(kind), "var": st.just("y"), **drawn},
        optional={"transform": st.sampled_from(["sqrt", "log", "identity", None])})


# mostly specs of the keys their type needs, so that most configs reach the probes
PROBE_SPECS = st.one_of(
    _specs("mean"),
    _specs("acf", lags=LAGS),
    LAGS.flatmap(lambda lags: _specs("nlar", lags=st.just(lags), powers=st.lists(
        COUNTS, min_size=len(lags), max_size=len(lags)))),
    _specs("marginal"),
    _specs("marginal", npoly=COUNTS),
    st.sampled_from(["mean", "acf", "nlar", "marginal"]).flatmap(
        lambda kind: _specs(kind, lags=LAGS, powers=LAGS, npoly=COUNTS)),
)
PROPERTY = hypothesis.settings(max_examples=300, deadline=None, database=None)


@PROPERTY
@hypothesis.given(st.lists(PROBE_SPECS, min_size=1, max_size=3), NSIM, st.integers(1, 8))
def test_a_probe_config_exits_0_2_or_3(specs, nsim, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": "probe", "model": "ricker", "seed": seed,
                       "output": os.path.join(tmp, "out"),
                       "settings": {"probes": specs, "nsim": nsim}}, fh)
        for argv in (["validate", "--config", path], ["probe", "--config", path]):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                status = cli.main(argv)
            assert status in (0, 2, 3)
            assert not caught, [str(w.message) for w in caught]  # a warning is a stderr line
            if status:
                lines = err.getvalue().strip().splitlines()
                assert len(lines) == 1 and lines[0].startswith(
                    "error: " if status == 2 else "algorithm failure: "), err.getvalue()


# batch counts from 1-4 or past any array: a count in between really allocates
HUGE = (2**62, 2**63 - 1)
BATCH = st.one_of(st.integers(1, 4), st.sampled_from(HUGE))
NLF_LENGTH = st.one_of(st.integers(50, 60), st.sampled_from(HUGE))
STEPS = st.sampled_from([1, 2, 3])
_WALK = {"proposal_sd": {"r": 0.01}, "prior": {"r": [0.01, 1.0]}}


def _settings(algorithm, **drawn):
    return st.tuples(st.just(algorithm), st.fixed_dictionaries(drawn))


BATCH_CONFIGS = st.one_of(
    _settings("pfilter", np=BATCH, replicates=BATCH),
    _settings("mif", iterations=st.integers(0, 1), np=BATCH, starts=BATCH,
              eval_replicates=BATCH, eval_np=BATCH, rw_sd=st.just({"r": 0.02})),
    _settings("nlf", lags=st.just([1]), nrbf=st.just(2), transient=NLF_LENGTH,
              sim_length=NLF_LENGTH),
    _settings("pmcmc", steps=STEPS, np=st.just(10), **{k: st.just(v) for k, v in _WALK.items()}),
    _settings("abc", steps=STEPS, scale_nsim=st.just(10),
              probes=st.just([{"type": "mean", "var": "Y"}]),
              **{k: st.just(v) for k, v in _WALK.items()}),
)


@PROPERTY
@hypothesis.given(BATCH_CONFIGS)
def test_batch_sizes_and_short_chains_exit_0_2_or_3(drawn):
    algorithm, settings = drawn
    impossible = any(settings.get(key) in HUGE for key in settings)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
                       "output": os.path.join(tmp, "out"), "settings": settings}, fh)
        for argv in (["validate", "--config", path], [algorithm, "--config", path]):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                status = cli.main(argv)
            assert status in (0, 2, 3)
            assert not caught, [str(w.message) for w in caught]  # a warning is a stderr line
            assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
            if impossible and argv[0] != "validate":
                lines = err.getvalue().strip().splitlines()
                assert status == 3 and len(lines) == 1, err.getvalue()
                assert lines[0].startswith("algorithm failure: ")
                assert not os.path.exists(os.path.join(tmp, "out"))


# the counts that size an array, each in settings that are otherwise runnable
_MEAN_Y = [{"type": "mean", "var": "Y"}]
SIZED = {
    "simulate": ({}, ("nsim",)),
    "pfilter": ({}, ("np", "replicates")),
    "mif": ({"iterations": 1, "np": 10, "eval_replicates": 1, "rw_sd": {"r": 0.02}},
            ("iterations", "np", "starts", "eval_replicates", "eval_np")),
    "pmcmc": ({"steps": 2, "np": 10, **_WALK}, ("steps", "np")),
    "abc": ({"steps": 2, "scale_nsim": 10, "probes": _MEAN_Y, **_WALK}, ("steps", "scale_nsim")),
    "probe": ({"nsim": 10, "probes": _MEAN_Y}, ("nsim",)),
    "nlf": ({"lags": [1], "nrbf": 2, "transient": 10, "sim_length": 20},
            ("transient", "sim_length", "nrbf")),
}
SIZED_COUNTS = st.sampled_from([(algorithm, key) for algorithm, (_, keys) in SIZED.items()
                                for key in keys])


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.given(SIZED_COUNTS, st.integers(2**61, 2**63 - 1))
def test_a_count_no_array_can_hold_is_refused_alike_by_validate_and_the_run(sized, value):
    algorithm, key = sized
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": algorithm, "model": "gompertz", "seed": 1,
                       "output": os.path.join(tmp, "out"),
                       "settings": {**SIZED[algorithm][0], key: value}}, fh)
        refusals = []
        for argv in (["validate", "--config", path], [algorithm, "--config", path]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                refusals.append((cli.main(argv), err.getvalue()))
            assert not os.path.exists(os.path.join(tmp, "out"))
        assert refusals[0] == refusals[1]
        status, line = refusals[0]
        assert status == 3 and line.startswith("algorithm failure: array is too big: ")
        assert line.count("\n") == 1 and str(value) in line, line


# small runnable settings of every subcommand for a model whose observable is "var"
def _runnable(var):
    walk = {"proposal_sd": {"sigma": 0.01}, "prior": {"sigma": [0.01, 1.0]}}
    mean = [{"type": "mean", "var": var}]
    return {
        "simulate": {},
        "pfilter": {"np": 10},
        "mif": {"iterations": 1, "np": 10, "eval_replicates": 1, "rw_sd": {"sigma": 0.02}},
        "pmcmc": {"steps": 2, "np": 10, **walk},
        "probe": {"nsim": 10, "probes": mean},
        "abc": {"steps": 2, "scale_nsim": 10, "probes": mean, **walk},
        "nlf": {"lags": [1], "nrbf": 2, "transient": 10, "sim_length": 20},
        "kalman": {},
    }


# SIR is left out: its ten simulated years of weekly data take too long per example
OBSERVABLE = {"gompertz": "Y", "ricker": "y"}
OUT_OF_DOMAIN = st.sampled_from(sorted(OBSERVABLE)).flatmap(lambda model: st.tuples(
    st.just(model), st.sampled_from(cli.ALGORITHMS),
    st.sampled_from(models.build_model(model).params.names),
    st.sampled_from([-1.0, 0.0, 1e300, -1e300])))


@PROPERTY
@hypothesis.given(OUT_OF_DOMAIN)
def test_a_parameter_out_of_its_domain_exits_0_2_or_3_with_one_line(drawn):
    model, algorithm, name, value = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": algorithm, "model": model, "seed": 1,
                       "data": "simulate", "output": os.path.join(tmp, "out"),
                       "params": {name: value},
                       "settings": _runnable(OBSERVABLE[model])[algorithm]}, fh)
        for argv in (["validate", "--config", path], [algorithm, "--config", path]):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as caught):
                warnings.simplefilter("always")
                status = cli.main(argv)
            assert status in (0, 2, 3), err.getvalue()
            assert not caught, [str(w.message) for w in caught]  # a warning is a stderr line
            assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
            if status:
                lines = err.getvalue().strip().splitlines()
                assert len(lines) == 1 and lines[0].startswith(
                    "error: " if status == 2 else "algorithm failure: "), err.getvalue()
