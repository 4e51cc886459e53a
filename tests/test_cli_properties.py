"""Property: a drawn Ricker probe config exits 0, 2 or 3 from ``validate`` and
from ``pomp-kit probe``; no exception escapes ``cli.main``."""

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
