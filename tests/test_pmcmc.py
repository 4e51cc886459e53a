import dataclasses
import importlib
import logging
import warnings

import numpy as np
import pytest

import pompkit as pk
from pompkit.core import ModelSpec, ParamVector, TimeSeriesData
from pompkit.exceptions import DomainError, ModelComponentError

# the pmcmc *module*; the package attribute of the same name is the function
pmcmc_mod = importlib.import_module("pompkit.pmcmc")
core_mod = importlib.import_module("pompkit.core")
smc_mod = importlib.import_module("pompkit.smc")


def gompertz_with_prior(model):
    truth = model.params.as_dict()
    bounds = {n: (truth[n] / 10, truth[n] * 10) for n in ("r", "sigma", "tau")}
    rprior, dprior = pk.uniform_box_prior(bounds)
    return dataclasses.replace(model, rprior=rprior, dprior=dprior), bounds


def test_max_fail_reaches_the_proposal_filters(gompertz_fitted, caplog):
    # every weight is zero at one step whenever tau > 0.11, which many proposals reach
    t_fail = float(gompertz_fitted.data.times[5])
    dmeasure = gompertz_fitted.dmeasure

    def broken(y, x, p, t, log, cv):
        out = dmeasure(y, x, p, t, log, cv)
        return np.full(np.shape(out), -np.inf) if t == t_fail and p["tau"] > 0.11 else out

    model, _ = gompertz_with_prior(dataclasses.replace(gompertz_fitted, dmeasure=broken))
    kw = dict(n_steps=20, num_particles=40,
              proposal=pk.mvn_diag_rw({"r": 0.05, "sigma": 0.03, "tau": 0.03}), seed=6)

    def run(max_fail):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="pompkit"):
            chain = pk.pmcmc(model, model.params, max_fail=max_fail, **kw)
        messages = [r.message for r in caplog.records]
        return (chain, sum("auto-rejected" in m for m in messages),
                sum("zero weights tolerated" in m for m in messages))

    strict, rejected, tolerated = run(0)
    assert rejected > 0 and tolerated == 0
    lenient, rejected, tolerated = run(1)
    assert rejected == 0 and tolerated > 0
    # a tolerated failure still makes the pass's likelihood zero, so the same
    # proposals are rejected either way
    assert np.array_equal(strict.samples, lenient.samples)
    assert np.array_equal(strict.logliks, lenient.logliks)


def test_retained_logliks_are_pfilter_logliks_at_accepted_steps(gompertz_fitted):
    # filters that tolerate a failure for tau > 0.11 score those proposals -inf
    t_fail = float(gompertz_fitted.data.times[5])
    dmeasure = gompertz_fitted.dmeasure

    def broken(y, x, p, t, log, cv):
        out = dmeasure(y, x, p, t, log, cv)
        return np.full(np.shape(out), -np.inf) if t == t_fail and p["tau"] > 0.11 else out

    model, _ = gompertz_with_prior(dataclasses.replace(gompertz_fitted, dmeasure=broken))
    seed, J = 6, 30
    chain = pk.pmcmc(model, model.params, n_steps=20, num_particles=J,
                     proposal=pk.mvn_diag_rw({"r": 0.05, "sigma": 0.03, "tau": 0.03}),
                     seed=seed, max_fail=1)
    accepted = np.flatnonzero(chain.accepted)
    assert 0 < accepted.size < chain.n_steps
    for i in accepted:
        sample = ParamVector(zip(chain.param_names, chain.samples[i]))
        expected = pk.pfilter(model, sample, J, seed=pk.stream(seed, "pmcmc-pfilter", i + 1),
                              max_fail=1)
        assert chain.logliks[i] == expected.loglik


def test_degenerate_proposal_keeps_chain_at_start(gompertz_fitted):
    model, _ = gompertz_with_prior(gompertz_fitted)
    chain = pk.pmcmc(model, model.params, n_steps=20, num_particles=50,
                     proposal=pk.mvn_diag_rw({"r": 0.0}), seed=1)
    start = model.params.values
    assert np.all(chain.samples == start)


def test_chain_repeats_incumbent_on_rejection(gompertz_fitted):
    model, _ = gompertz_with_prior(gompertz_fitted)
    chain = pk.pmcmc(model, model.params, n_steps=60, num_particles=50,
                     proposal=pk.mvn_diag_rw({"r": 0.02, "sigma": 0.02, "tau": 0.02}),
                     seed=2)
    for m in range(1, chain.n_steps):
        if not chain.accepted[m]:
            assert np.array_equal(chain.samples[m], chain.samples[m - 1])
            assert chain.logliks[m] == chain.logliks[m - 1]
    assert chain.acceptance_rate == pytest.approx(chain.accepted.mean())


def test_chain_never_leaves_prior_support(gompertz_fitted):
    model, bounds = gompertz_with_prior(gompertz_fitted)
    chain = pk.pmcmc(model, model.params, n_steps=100, num_particles=30,
                     proposal=pk.mvn_diag_rw({"r": 0.05, "sigma": 0.05, "tau": 0.05}),
                     seed=3)
    for name, (lo, hi) in bounds.items():
        col = chain.column(name)
        assert np.all(col >= lo) and np.all(col <= hi)
    assert np.all(np.isfinite(chain.log_priors))


def test_zero_prior_at_start_is_error(gompertz_fitted):
    model, _ = gompertz_with_prior(gompertz_fitted)
    bad_start = model.params.replace(r=99.0)
    with pytest.raises(DomainError, match="prior"):
        pk.pmcmc(model, bad_start, n_steps=5, num_particles=20,
                 proposal=pk.mvn_diag_rw({"r": 0.01}), seed=4)


def test_incumbent_loglik_never_recomputed(gompertz_fitted, monkeypatch):
    model, _ = gompertz_with_prior(gompertz_fitted)
    calls = {"n": 0}
    real_pfilter = smc_mod._pfilter_blocks

    def counting_pfilter(*args, **kwargs):
        calls["n"] += 1
        return real_pfilter(*args, **kwargs)

    monkeypatch.setattr(smc_mod, "_pfilter_blocks", counting_pfilter)
    m_steps = 40
    # proposal small enough that every proposal stays inside the (wide) prior
    pk.pmcmc(model, model.params, n_steps=m_steps, num_particles=30,
             proposal=pk.mvn_diag_rw({"r": 0.001, "sigma": 0.001, "tau": 0.001}),
             seed=5)
    assert calls["n"] == m_steps + 1


# ---------------------------------------------------------------------------
# effective sample size of a chain


def test_ess_iid_normal_in_band():
    x = np.random.default_rng(6).standard_normal(1000)
    assert 800 <= pk.effective_sample_size(x) <= 1200


def test_ess_constant_chain_is_one():
    assert pk.effective_sample_size(np.full(100, 3.3)) == 1.0


def test_ess_alternating_chain_capped_with_flag():
    x = np.tile([1.0, -1.0], 50)
    value, capped = pk.effective_sample_size(x, with_flag=True)
    assert value == 100.0
    assert capped


def test_ess_correlated_chain_is_reduced():
    rng = np.random.default_rng(7)
    x = np.zeros(2000)
    for t in range(1, 2000):
        x[t] = 0.9 * x[t - 1] + rng.standard_normal()
    value = pk.effective_sample_size(x)
    # AR(1) with phi=0.9 has tau ~ (1+phi)/(1-phi) = 19
    assert 2000 / 40 < value < 2000 / 8


def test_ess_needs_length_ten():
    with pytest.raises(DomainError):
        pk.effective_sample_size(np.arange(5.0))


# ---------------------------------------------------------------------------
# exactness: with a deterministic likelihood stub, the sampler is plain
# Metropolis-Hastings and must match the analytic posterior.


def stub_model(y_star, prior_lo=-3.0, prior_hi=3.0):
    rprior, dprior = pk.uniform_box_prior({"theta": (prior_lo, prior_hi)})
    return ModelSpec(
        data=TimeSeriesData(t0=0.0, times=[1.0], observations=[[y_star]],
                            obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
        # likelihood depends on the parameter only: N(y* ; theta, 1)
        dmeasure=lambda y, x, p, t, log, cv: np.broadcast_to(
            -0.5 * (y["y"] - p["theta"]) ** 2 - 0.5 * np.log(2 * np.pi),
            np.shape(x["x"])),
        dprior=dprior,
        params=ParamVector({"theta": 0.0, "x.0": 0.0}),
    )


def test_detailed_balance_against_analytic_posterior():
    y_star, lo, hi = 0.4, -3.0, 3.0
    model = stub_model(y_star, lo, hi)
    chain = pk.pmcmc(model, model.params, n_steps=100_000, num_particles=1,
                     proposal=pk.mvn_diag_rw({"theta": 1.0}), seed=8)
    samples = chain.column("theta")

    edges = np.linspace(lo, hi, 31)
    hist, _ = np.histogram(samples, bins=edges)
    empirical = hist / hist.sum()
    from scipy import stats
    cdf = stats.norm.cdf(edges, loc=y_star, scale=1.0)
    analytic = np.diff(cdf) / (cdf[-1] - cdf[0])
    tv = 0.5 * np.abs(empirical - analytic).sum()
    assert tv < 0.05


# ---------------------------------------------------------------------------
# the Metropolis kernel shared by pmcmc and abc


@pytest.mark.parametrize("method", ["pmcmc", "abc"])
def test_chain_scores_each_in_prior_proposal_once(method, monkeypatch):
    lo, hi = -1.0, 1.0
    model = stub_model(0.4, lo, hi)
    dprior = model.dprior
    calls = {"in_prior": 0, "scored": 0}

    def guarded_rprocess(x, p, t0, t1, rng, cv):
        if not lo <= p["theta"] <= hi:
            raise AssertionError(f"simulator reached theta={p['theta']} outside the prior")
        return x

    def counting_dprior(params, log=True):
        value = dprior(params, log)
        calls["in_prior"] += bool(np.isfinite(value))
        return value

    model = dataclasses.replace(model, rprocess=guarded_rprocess, dprior=counting_dprior)
    # pmcmc scores by a filtering pass, abc by one simulated dataset
    owner, name = ((smc_mod, "_pfilter_blocks") if method == "pmcmc"
                   else (core_mod, "simulate_paths"))
    real = getattr(owner, name)

    def counting_scorer(*args, **kwargs):
        calls["scored"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting_scorer)
    n_steps = 200
    proposal = pk.mvn_diag_rw({"theta": 1.5})  # wide: many proposals leave the prior
    if method == "pmcmc":
        chain = pk.pmcmc(model, model.params, n_steps=n_steps, num_particles=1,
                         proposal=proposal, seed=9)
    else:
        settings = pk.AbcSettings(probes=(pk.probe_mean("y"),), scale=[1.0],
                                  proposal=proposal, n_steps=n_steps, epsilon=2.0)
        chain = pk.abc(model, model.params, settings, seed=9)
    in_prior_proposals = calls["in_prior"] - 1  # the start's own check
    assert 0 < in_prior_proposals < n_steps
    assert 0 < chain.acceptance_rate < 1
    # pmcmc scores the start once; abc starts where it is told, unsimulated
    start_scores = 1 if method == "pmcmc" else 0
    assert calls["scored"] == in_prior_proposals + start_scores


def _run_chain(method, model, n_steps=3, seed=9):
    proposal = pk.mvn_diag_rw({"theta": 0.5})
    if method == "pmcmc":
        return pk.pmcmc(model, model.params, n_steps=n_steps, num_particles=1,
                        proposal=proposal, seed=seed)
    settings = pk.AbcSettings(probes=(pk.probe_mean("y"),), scale=[1.0], proposal=proposal,
                              n_steps=n_steps, epsilon=2.0)
    return pk.abc(model, model.params, settings, seed=seed)


@pytest.mark.parametrize("method", ["pmcmc", "abc"])
def test_a_model_without_dprior_is_a_model_component_error(method):
    model = dataclasses.replace(stub_model(0.4), dprior=None)
    with pytest.raises(ModelComponentError) as err:
        _run_chain(method, model)
    assert (err.value.component, err.value.operation) == ("dprior", method)
    # the seed is refused before the missing prior
    with pytest.raises(DomainError, match=r"\bseed must be a whole number"):
        _run_chain(method, model, seed=-1)
    if method == "pmcmc":  # and before the seed, the step count
        with pytest.raises(DomainError, match=r"\bn_steps must be a whole number"):
            _run_chain(method, model, n_steps=0, seed=-1)


def test_the_kernel_scores_the_start_and_plain_dicts_and_returns_the_chain():
    model = stub_model(0.4)
    seen = []

    def log_target(params, m):
        seen.append((m, type(params), params["theta"]))
        return -0.5 * (params["theta"] - 0.4) ** 2

    chain = pmcmc_mod._metropolis(model, model.params, pk.mvn_diag_rw({"theta": 0.5}),
                                  20, 3, log_target, "toy")
    assert seen[0] == (0, ParamVector, 0.0)
    assert len(seen) > 1 and all(kind is dict for _, kind, _ in seen[1:])
    # the first proposal is the first normal of the stream "toy-chain" under the seed
    assert seen[1][::2] == (1, 0.5 * pk.stream(3, "toy-chain").standard_normal(2)[0])
    assert isinstance(chain, pmcmc_mod.Chain) and chain.param_names == ("theta", "x.0")
    np.testing.assert_array_equal(chain.logliks, -0.5 * (chain.column("theta") - 0.4) ** 2)


@pytest.mark.parametrize("n_steps,burn_in", [(1, 0), (3, 2), (3, 3)])
def test_posterior_sd_of_fewer_than_two_samples_is_nan_unwarned(n_steps, burn_in):
    chain = pk.Chain(param_names=("a", "b"), samples=np.ones((n_steps, 2)),
                     logliks=np.zeros(n_steps), log_priors=np.zeros(n_steps),
                     accepted=np.ones(n_steps, dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sd = chain.posterior_sd(burn_in)
    assert list(sd) == ["a", "b"] and all(np.isnan(v) for v in sd.values())
