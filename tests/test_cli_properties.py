"""Properties: a drawn Ricker probe config, and a drawn batch size or short chain
of the other subcommands, exits 0, 2 or 3 from ``validate`` and from the run; no
exception escapes ``cli.main``."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest

from pompkit import cli

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
