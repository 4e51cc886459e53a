"""Name sets, random-walk scales and scalar settings each meet one boundary rule.

An unknown name raises a DomainError that names the input, the unknown names
and the known ones; a random-walk scale must be finite and non-negative; and a
scalar setting compared against a bound refuses NaN.
"""

import dataclasses
import re

import numpy as np
import pytest

import pompkit as pk
from pompkit import core, dataio
from pompkit.exceptions import DomainError, require_names
from pompkit.oracle import LinearGaussianSSM, fit_on_estimation_scale, nelder_mead

GOMP = pk.gompertz_model(n_obs=8)
GOMP = pk.attach_data(GOMP, pk.simulate(GOMP, seed=3)[0])
RECORD = pk.simulate(GOMP, seed=4)[0]
_RPRIOR, _DPRIOR = pk.uniform_box_prior({"r": (0.01, 1.0)})
PRIOR_GOMP = dataclasses.replace(GOMP, rprior=_RPRIOR, dprior=_DPRIOR)
MEAN = [pk.probe_mean("Y")]
CHAIN = pk.pmcmc(PRIOR_GOMP, GOMP.params, n_steps=2, num_particles=10,
                 proposal=pk.mvn_diag_rw({"r": 0.01}), seed=1)


def _mif_settings(**kw):
    return pk.MifSettings(**{"start": GOMP.params, "n_iterations": 1, "num_particles": 10,
                             "rw_sd": {"r": 0.02}, **kw})


def _abc_settings(**kw):
    return pk.AbcSettings(**{"probes": MEAN, "scale": [1.0],
                             "proposal": pk.mvn_diag_rw({"r": 0.01}), "n_steps": 2, **kw})


def _load_with_observables(tmp_path, observables):
    path = tmp_path / "data.csv"
    path.write_text("time,Y\n1,2.0\n2,3.0\n")
    return dataio.load_time_series(str(path), t0=0.0, observables=observables)


# ---------------------------------------------------------------------------
# name sets


def test_require_names_returns_the_names_as_a_tuple_in_their_order():
    assert require_names("x", iter(["b", "a"]), ("a", "b", "c")) == ("b", "a")
    assert require_names("x", {"a": 1.0}, {"a": 0.0, "b": 0.0}) == ("a",)
    assert require_names("x", (), ()) == ()


def test_require_names_names_the_input_the_unknown_names_sorted_and_the_known_ones():
    with pytest.raises(DomainError) as err:
        require_names("rw_sd names", ["z", "a", "y"], ("b", "a"))
    assert str(err.value) == "unknown rw_sd names ['y', 'z']; known: ['b', 'a']"


# (what the error names, a call given the unknown name "bogus")
UNKNOWN_NAMES = {
    "MifSettings/rw_sd": ("rw_sd names", lambda _: _mif_settings(rw_sd={"bogus": 0.1})),
    "MifSettings/ivp_names": ("ivp_names", lambda _: _mif_settings(ivp_names=("bogus",))),
    "pmcmc/proposal_sd": ("proposal names", lambda _: pk.pmcmc(
        PRIOR_GOMP, GOMP.params, n_steps=2, num_particles=10,
        proposal=pk.mvn_diag_rw({"bogus": 0.1}), seed=1)),
    "abc/proposal_sd": ("proposal names", lambda _: pk.abc(
        PRIOR_GOMP, GOMP.params, _abc_settings(proposal=pk.mvn_diag_rw({"bogus": 0.1})),
        seed=1)),
    "fit_on_estimation_scale/est": ("est names", lambda _: fit_on_estimation_scale(
        GOMP, GOMP.params, ("bogus",), lambda theta: 0.0)),
    "nlf_fit/est": ("est names", lambda _: pk.nlf_fit(
        GOMP, GOMP.params, pk.NlfSettings(lags=(1,), sim_length=50, transient=20,
                                          est=("bogus",)), seed=1)),
    "probe_match/est": ("est names", lambda _: pk.probe_match(
        GOMP, GOMP.params, ("bogus",), MEAN, nsim=10, seed=1)),
    "ModelSpec/accumulators": ("accumulators", lambda _: dataclasses.replace(
        GOMP, accumulators=("bogus",))),
    "load_time_series/observables": ("observable columns", lambda tmp_path: (
        _load_with_observables(tmp_path, ["Y", "bogus"]))),
    "TimeSeriesData.column": ("observation names", lambda _: GOMP.data.column("bogus")),
    "SimulationRecord.state_column": ("state names", lambda _: RECORD.state_column("bogus")),
    "SimulationRecord.obs_column": ("observation names", lambda _: RECORD.obs_column("bogus")),
    "Chain.column": ("parameter names", lambda _: CHAIN.column("bogus")),
    "ParamVector.replace": ("parameter names", lambda _: GOMP.params.replace(bogus=1.0)),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAMES))
def test_an_unknown_name_raises_the_one_name_rule_error(case, tmp_path):
    what, call = UNKNOWN_NAMES[case]
    with pytest.raises(DomainError, match=rf"(^|: )unknown {re.escape(what)} \['bogus'\]; "
                                          r"known: \[") as err:
        call(tmp_path)
    assert isinstance(err.value, ValueError)


def test_an_unknown_observable_column_keeps_the_path_prefix(tmp_path):
    with pytest.raises(DomainError, match=r"data\.csv: unknown observable columns"):
        _load_with_observables(tmp_path, ["bogus"])


def test_the_column_accessors_still_return_known_columns():
    np.testing.assert_array_equal(GOMP.data.column("Y"), GOMP.data.observations[:, 0])
    np.testing.assert_array_equal(RECORD.state_column("X"), RECORD.states[:, 0])
    np.testing.assert_array_equal(RECORD.obs_column("Y"), RECORD.observations[:, 0])
    np.testing.assert_array_equal(CHAIN.column("r"), CHAIN.samples[:, 0])


# ---------------------------------------------------------------------------
# random-walk scales


def test_walk_scales_are_ordered_by_name_with_zero_for_an_omitted_name():
    scales = core._walk_scales("rw_sd", {"K": 0.5, "r": 0.1}, ("r", "sigma", "K"))
    np.testing.assert_array_equal(scales, np.array([0.1, 0.0, 0.5]), strict=True)


# (what the error names, a call given a scale for "r")
WALK_SCALES = {
    "MifSettings/rw_sd": ("rw_sd", lambda v: _mif_settings(rw_sd={"r": v})),
    "mvn_diag_rw": ("proposal", lambda v: pk.mvn_diag_rw({"r": v}).scales(("r", "K"))),
    # a Proposal refuses a bad scale before it knows the parameter names
    "mvn_diag_rw/construction": ("proposal", lambda v: pk.mvn_diag_rw({"r": v})),
}


@pytest.mark.parametrize("case", sorted(WALK_SCALES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1],
                         ids=["nan", "inf", "-inf", "negative"])
def test_a_walk_scale_that_is_not_finite_and_non_negative_is_refused(case, bad):
    what, call = WALK_SCALES[case]
    with pytest.raises(DomainError, match=rf"^{what} scales must be finite and non-negative"):
        call(bad)


@pytest.mark.parametrize("case", sorted(WALK_SCALES))
def test_a_zero_walk_scale_is_accepted(case):
    assert WALK_SCALES[case][1](0.0) is not None


# ---------------------------------------------------------------------------
# scalar settings


def _ssm(**kw):
    return LinearGaussianSSM(**{"a": 0.5, "b": 0.1, "q": 0.1, "c": 0.0, "r_obs": 0.1,
                                "x0_mean": 0.0, "x0_var": 0.0, **kw})


# (what the error names, a call given the value)
SCALARS = {
    "MifSettings/var_factor": ("var_factor", lambda v: _mif_settings(var_factor=v)),
    "AbcSettings/epsilon": ("epsilon", lambda v: _abc_settings(epsilon=v)),
    "LinearGaussianSSM/q": ("variances", lambda v: _ssm(q=v)),
    "LinearGaussianSSM/r_obs": ("variances", lambda v: _ssm(r_obs=v)),
    "LinearGaussianSSM/x0_var": ("variances", lambda v: _ssm(x0_var=v)),
    "uniform_box_prior/low": ("prior interval", lambda v: pk.uniform_box_prior({"r": (v, 1.0)})),
    "uniform_box_prior/high": ("prior interval", lambda v: pk.uniform_box_prior({"r": (0.0, v)})),
}


@pytest.mark.parametrize("case", sorted(SCALARS))
def test_a_nan_scalar_setting_is_refused(case):
    what, call = SCALARS[case]
    with pytest.raises(DomainError, match=what):
        call(np.nan)


@pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)],
                         ids=["high", "low", "both"])
def test_a_uniform_box_prior_with_an_infinite_bound_is_refused(bounds):
    # an infinite bound made the log volume infinite, so every density was -inf
    with pytest.raises(DomainError, match="finite"):
        pk.uniform_box_prior({"r": bounds})


def test_an_infinite_epsilon_is_still_accepted():
    assert _abc_settings(epsilon=np.inf).epsilon == np.inf


def test_an_infinite_var_factor_is_refused():
    with pytest.raises(DomainError, match="var_factor must be positive and finite"):
        _mif_settings(var_factor=np.inf)


@pytest.mark.parametrize("bad", [2.5, 0, True, "3"], ids=["fraction", "zero", "bool", "text"])
def test_a_nelder_mead_maxit_that_is_not_a_whole_number_of_at_least_1_names_it(bad):
    with pytest.raises(DomainError, match=r"\bmaxit must be a whole number of at least 1"):
        nelder_mead(lambda x: float(x @ x), np.array([1.0, 2.0]), maxit=bad)
    with pytest.raises(DomainError, match=r"\bmaxit must be a whole number of at least 1"):
        fit_on_estimation_scale(GOMP, GOMP.params, ("r",), lambda theta: 0.0, maxit=bad)


def test_a_whole_float_maxit_runs_exactly_as_the_integer():
    def f(x):
        return float((x - 3.0) @ (x - 3.0))

    got = nelder_mead(f, np.array([1.0, 2.0]), maxit=20.0)
    want = nelder_mead(f, np.array([1.0, 2.0]), maxit=20)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.fun, got.n_evals, got.status) == (want.fun, want.n_evals, want.status)
