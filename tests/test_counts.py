"""Every count an entry point takes goes through one boundary check.

A fractional, negative, boolean or textual count raises a DomainError naming
the argument; a whole float such as 20.0 runs exactly as 20.
"""

import dataclasses

import numpy as np
import pytest

import pompkit as pk
from pompkit import smc
from pompkit.exceptions import DomainError

GOMP = pk.gompertz_model(n_obs=8)
GOMP = pk.attach_data(GOMP, pk.simulate(GOMP, seed=3)[0])
_RPRIOR, _DPRIOR = pk.uniform_box_prior({"r": (0.01, 1.0)})
PRIOR_GOMP = dataclasses.replace(GOMP, rprior=_RPRIOR, dprior=_DPRIOR)
MEAN = [pk.probe_mean("Y")]
BATCH = {"Y": GOMP.data.observations[:, 0][None]}
PROPOSAL = pk.mvn_diag_rw({"r": 0.01})


def _abc(n_steps):
    settings = pk.AbcSettings(probes=MEAN, scale=[1.0], proposal=PROPOSAL, n_steps=n_steps)
    chain = pk.abc(PRIOR_GOMP, GOMP.params, settings, seed=1)
    return [chain.samples, chain.extras["distance"]]


def _nlf(**kw):
    settings = pk.NlfSettings(**{"lags": (1,), "sim_length": 50, "transient": 20, **kw})
    return [settings.lags, settings.n_rbf, settings.sim_length, settings.transient,
            pk.nlf_quasi_loglik(GOMP, None, settings, seed=2)]


def _mif(**kw):
    settings = pk.MifSettings(**{"start": GOMP.params, "n_iterations": 1, "num_particles": 10,
                                 "rw_sd": {"r": 0.02}, **kw})
    return [pk.mif(GOMP, settings, seed=1, run_final_filter=False).trace]


def _filtered(result):
    return [result.loglik, result.cond_logliks, result.n_failures]


# (argument name, call taking the count, a valid whole value, its minimum or None)
COUNTS = {
    "probe/nsim": ("nsim", lambda v: [pk.probe(GOMP, None, MEAN, nsim=v, seed=1).simulated],
                   20, 2),
    "compute_probe_scales/nsim": (
        "nsim", lambda v: [pk.compute_probe_scales(GOMP, None, MEAN, nsim=v, seed=1)], 20, 2),
    "AbcSettings/n_steps": ("n_steps", _abc, 3, 1),
    "pmcmc/n_steps": ("n_steps", lambda v: [pk.pmcmc(PRIOR_GOMP, GOMP.params, n_steps=v,
                                                     num_particles=10, proposal=PROPOSAL,
                                                     seed=1).samples], 3, 1),
    "probe_acf/lags": ("lags", lambda v: [pk.probe_acf("Y", [v]).apply(BATCH)], 1, 0),
    "probe_nlar/lags": ("lags", lambda v: [pk.probe_nlar("Y", [v], [1]).apply(BATCH)], 1, 1),
    "probe_nlar/powers": ("powers", lambda v: [pk.probe_nlar("Y", [1], [v]).apply(BATCH)],
                          2, None),
    "probe_marginal/npoly": (
        "npoly", lambda v: [pk.probe_marginal("Y", GOMP.data.observations[:, 0],
                                              npoly=v).apply(BATCH)], 2, 1),
    "NlfSettings/lags": ("lags", lambda v: _nlf(lags=(v,)), 1, 1),
    "NlfSettings/n_rbf": ("n_rbf", lambda v: _nlf(n_rbf=v), 3, 2),
    "NlfSettings/sim_length": ("sim_length", lambda v: _nlf(sim_length=v), 50, 2),
    "NlfSettings/transient": ("transient", lambda v: _nlf(transient=v), 20, 2),
    "rbf_centers/n_rbf": ("n_rbf", lambda v: list(pk.rbf_centers(0.0, 1.0, v)), 3, 2),
    "simulate_paths/nsim": ("nsim", lambda v: list(pk.simulate_paths(GOMP, None, 1, v)), 3, 1),
    "simulate/nsim": ("nsim", lambda v: [r.states for r in pk.simulate(GOMP, seed=1, nsim=v)],
                      2, 1),
    "systematic_resample/n": (
        "n", lambda v: [pk.systematic_resample([0.2, 0.3, 0.5], np.random.default_rng(1), n=v)],
        4, 1),
    "pfilter/num_particles": ("num_particles",
                              lambda v: _filtered(pk.pfilter(GOMP, num_particles=v, seed=1)),
                              10, 1),
    "pfilter/max_fail": ("max_fail", lambda v: _filtered(
        pk.pfilter(GOMP, num_particles=10, seed=1, max_fail=v)), 1, 0),
    "_pfilter_blocks/max_fail": ("max_fail", lambda v: [
        part for res in smc._pfilter_blocks(GOMP, [None, None], 10, 1, v)
        for part in _filtered(res)], 1, 0),
    "MifSettings/max_fail": ("max_fail", lambda v: _mif(max_fail=v), 1, 0),
    "MifSettings/num_particles": ("num_particles", lambda v: _mif(num_particles=v), 10, 1),
    "MifSettings/n_iterations": ("n_iterations", lambda v: _mif(n_iterations=v), 2, 0),
    "child_seeds/n": ("n", lambda v: [pk.child_seeds(5, "tasks", v)], 3, 0),
    "stream/seed": ("seed", lambda v: [pk.stream(v, "x").random(3)], 3, 0),
    "gompertz_model/n_obs": ("n_obs", lambda v: [pk.gompertz_model(n_obs=v).data.times], 5, 1),
    "ricker_model/n_obs": ("n_obs", lambda v: [pk.ricker_model(n_obs=v).data.times], 5, 1),
}


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y) or isinstance(x, np.ndarray)
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y), strict=True)


@pytest.mark.parametrize("case", sorted(COUNTS))
@pytest.mark.parametrize("bad", [2.5, -1, True, "3"], ids=["fraction", "negative", "bool", "text"])
def test_a_count_that_is_not_a_whole_number_in_range_names_its_argument(case, bad):
    name, call, _, minimum = COUNTS[case]
    if minimum is None and bad == -1:
        assert call(bad) is not None  # any whole number is a valid power
        return
    with pytest.raises(DomainError, match=rf"\b{name} must be a whole number"):
        call(bad)


@pytest.mark.parametrize("case", sorted(COUNTS))
def test_a_whole_float_count_runs_exactly_as_the_integer(case):
    _, call, good, _ = COUNTS[case]
    _assert_same(call(float(good)), call(good))


@pytest.mark.parametrize("case", sorted(c for c in COUNTS if COUNTS[c][3] is not None))
def test_a_count_below_its_minimum_names_its_argument(case):
    name, call, _, minimum = COUNTS[case]
    with pytest.raises(DomainError, match=rf"\b{name} must be a whole number of at least"):
        call(minimum - 1)
