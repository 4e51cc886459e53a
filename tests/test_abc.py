import warnings

import numpy as np
import pytest

import pompkit as pk
from pompkit.core import ModelSpec, ParamVector, TimeSeriesData
from pompkit.exceptions import DomainError


def normal_mean_model(data, prior=(-2.0, 2.0)):
    """Toy: latent constant mu, observations iid N(mu, 1)."""
    rprior, dprior = pk.uniform_box_prior({"mu": prior})
    n = len(data)
    return ModelSpec(
        data=TimeSeriesData(t0=0.0, times=np.arange(1.0, n + 1),
                            observations=np.asarray(data, dtype=float)[:, None],
                            obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": rng.normal(
            p["mu"] * np.ones_like(x["x"]), 1.0)},
        dprior=dprior,
        rprior=rprior,
        params=ParamVector({"mu": 0.3, "x.0": 0.0}),
    )


def toy_settings(model, epsilon, n_steps, sd=0.4):
    n = model.data.n_obs
    return pk.AbcSettings(
        probes=(pk.probe_mean("y"),),
        scale=np.array([1.0 / np.sqrt(n)]),
        proposal=pk.mvn_diag_rw({"mu": sd}),
        n_steps=n_steps,
        epsilon=epsilon,
    )


@pytest.fixture(scope="module")
def toy_model():
    rng = np.random.default_rng(100)
    data = rng.normal(0.3, 1.0, size=20)
    return normal_mean_model(data)


def test_infinite_tolerance_accepts_every_in_prior_proposal(toy_model):
    # with a tiny proposal sd the walk never leaves the wide prior, so every
    # step is accepted and the chain is the raw random walk
    settings = toy_settings(toy_model, epsilon=np.inf, n_steps=300, sd=0.001)
    chain = pk.abc(toy_model, toy_model.params, settings, seed=1)
    assert chain.acceptance_rate == 1.0
    steps = np.diff(chain.column("mu"))
    assert np.all(steps != 0.0)


def test_zero_tolerance_keeps_chain_at_start(toy_model):
    settings = toy_settings(toy_model, epsilon=0.0, n_steps=100)
    chain = pk.abc(toy_model, toy_model.params, settings, seed=2)
    assert chain.acceptance_rate == 0.0
    assert np.all(chain.column("mu") == toy_model.params["mu"])


def test_accepted_steps_satisfy_ball_condition(toy_model):
    settings = toy_settings(toy_model, epsilon=1.0, n_steps=500)
    chain = pk.abc(toy_model, toy_model.params, settings, seed=3)
    observed = chain.extras["observed_probes"]
    tau = chain.extras["scale"]
    for m in np.where(chain.accepted)[0]:
        recomputed = float(np.sum(((chain.extras["sim_probes"][m] - observed) / tau) ** 2))
        assert recomputed == pytest.approx(chain.extras["distance"][m])
        assert recomputed < settings.epsilon**2
    assert chain.acceptance_rate > 0


def test_halving_epsilon_does_not_increase_acceptance(toy_model):
    rates = {}
    for eps in (2.0, 1.0):
        acc = []
        for seed in pk.child_seeds(4, f"eps{eps}", 5):
            settings = toy_settings(toy_model, epsilon=eps, n_steps=300)
            acc.append(pk.abc(toy_model, toy_model.params, settings, seed=seed)
                       .acceptance_rate)
        rates[eps] = np.mean(acc)
    assert rates[1.0] <= rates[2.0]


def test_zero_prior_at_start_is_error(toy_model):
    settings = toy_settings(toy_model, epsilon=1.0, n_steps=10)
    with pytest.raises(DomainError, match="prior"):
        pk.abc(toy_model, ParamVector({"mu": 50.0, "x.0": 0.0}), settings, seed=5)


def test_abc_matches_rejection_abc_oracle(toy_model):
    # Rejection-ABC oracle with the same ball: draw from the prior, keep
    # parameters whose simulated probe lands within epsilon.
    epsilon, tau = 1.0, 1.0 / np.sqrt(toy_model.data.n_obs)
    observed = float(toy_model.data.observations.mean())

    rng = np.random.default_rng(6)
    n_draws = 400_000
    theta = rng.uniform(-2.0, 2.0, size=n_draws)
    sim_means = rng.normal(theta, tau)  # mean of 20 iid N(theta,1) draws
    kept = theta[np.abs((sim_means - observed) / tau) < epsilon]

    settings = toy_settings(toy_model, epsilon=epsilon, n_steps=100_000)
    chain = pk.abc(toy_model, toy_model.params, settings, seed=7)
    samples = chain.column("mu")

    edges = np.linspace(-2.0, 2.0, 33)
    mcmc_hist, _ = np.histogram(samples, bins=edges, density=False)
    rej_hist, _ = np.histogram(kept, bins=edges, density=False)
    tv = 0.5 * np.abs(mcmc_hist / mcmc_hist.sum()
                      - rej_hist / rej_hist.sum()).sum()
    assert tv < 0.08


# ---------------------------------------------------------------------------
# compute_probe_scales


def test_scales_error_on_constant_probe(toy_model):
    constant = pk.Probe(name="always-one", arity=1,
                        apply=lambda batch: np.ones((next(iter(batch.values())).shape[0], 1)))
    with pytest.raises(DomainError, match="always-one"):
        pk.compute_probe_scales(toy_model, None, [constant], nsim=50, seed=8)


def test_scales_recover_unit_sd(toy_model):
    # probe = last observation of an iid N(mu,1) simulation: sd 1
    last = pk.Probe(name="last", arity=1,
                    apply=lambda batch: batch["y"][:, -1:])
    tau = pk.compute_probe_scales(toy_model, None, [last], nsim=10_000, seed=9)
    assert tau[0] == pytest.approx(1.0, rel=0.05)


def test_scales_on_gompertz_probe_list(gompertz_fitted):
    plist = [pk.probe_mean("Y", transform=np.sqrt),
             pk.probe_acf("Y", [0, 5, 10, 20]),
             pk.probe_marginal("Y", gompertz_fitted.data.column("Y"))]
    tau = pk.compute_probe_scales(gompertz_fitted, None, plist, nsim=500, seed=10)
    assert tau.shape == (8,)
    assert np.all(tau > 0)


def test_settings_validation(toy_model):
    with pytest.raises(DomainError):
        pk.AbcSettings(probes=(pk.probe_mean("y"),), scale=np.array([1.0, 2.0]),
                       proposal=pk.mvn_diag_rw({"mu": 0.1}), n_steps=10)
    with pytest.raises(DomainError):
        pk.AbcSettings(probes=(pk.probe_mean("y"),), scale=np.array([0.0]),
                       proposal=pk.mvn_diag_rw({"mu": 0.1}), n_steps=10)


def test_scales_error_on_a_probe_of_non_finite_spread(toy_model):
    # the log of an N(0.3, 1) draw is NaN about 38% of the time
    log_last = pk.Probe(name="log-last", arity=1, apply=lambda batch: np.log(batch["y"][:, -1:]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"non-finite spread cannot be scaled: "
                                              r"\['log-last'\]"):
            pk.compute_probe_scales(toy_model, None, [log_last], nsim=50, seed=8)


def test_observed_probes_that_are_not_finite_are_an_error(toy_model):
    log_mean = pk.probe_mean("y", transform=np.log)  # the data hold negative values
    settings = pk.AbcSettings(probes=(pk.probe_acf("y", [0]), log_mean), scale=[1.0, 1.0],
                              proposal=pk.mvn_diag_rw({"mu": 0.4}), n_steps=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"observed probes are not finite: \['mean.y'\]"):
            pk.abc(toy_model, toy_model.params, settings, seed=5)
