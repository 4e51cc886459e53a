import dataclasses

import numpy as np
import pytest

import pompkit as pk
from pompkit.exceptions import DomainError
from pompkit.mif import MifSettings, _mif_blocks, perturbation_sd


def settings(start, **kw):
    base = dict(n_iterations=5, num_particles=100,
                rw_sd={"r": 0.02, "sigma": 0.02, "tau": 0.02})
    base.update(kw)
    return MifSettings(start=start, **base)


def test_zero_iterations_returns_start(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=0)
    out = pk.mif(gompertz_fitted, s, seed=1)
    assert out.theta_hat == gompertz_fitted.params
    assert out.trace.shape == (0, 5)


def test_all_zero_rw_sd_is_identity(gompertz_fitted):
    s = settings(gompertz_fitted.params, rw_sd={"r": 0.0}, n_iterations=3)
    out = pk.mif(gompertz_fitted, s, seed=2, run_final_filter=False)
    start = gompertz_fitted.params.values
    for m in range(3):
        assert np.array_equal(out.trace[m], start)


def test_fixed_parameters_are_bit_identical(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=4)
    out = pk.mif(gompertz_fitted, s, seed=3, run_final_filter=False)
    assert out.theta_hat["K"] == gompertz_fitted.params["K"]
    assert out.theta_hat["X.0"] == gompertz_fitted.params["X.0"]
    assert out.theta_hat["r"] != gompertz_fitted.params["r"]


def test_trace_last_row_equals_theta_hat(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=4)
    out = pk.mif(gompertz_fitted, s, seed=4, run_final_filter=False)
    assert np.array_equal(out.trace[-1],
                          [out.theta_hat[n] for n in out.param_names])


def test_cooling_schedule_is_geometric(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=100, cooling_fraction=0.7)
    a = s.resolved_cooling_factor()
    assert a == pytest.approx(0.7 ** (1 / 99))
    for m in (1, 2, 10, 100):
        sd = perturbation_sd(s, m)
        assert sd["r"] == pytest.approx(a ** (m - 1) * 0.02, rel=1e-12)
    # final-iteration scale equals the requested fraction of rw_sd
    assert perturbation_sd(s, 100)["r"] == pytest.approx(0.7 * 0.02, rel=1e-12)


def test_cooling_factor_direct():
    start = pk.gompertz_model().params
    s = settings(start, cooling_factor=0.95)
    assert s.resolved_cooling_factor() == 0.95
    with pytest.raises(DomainError):
        settings(start, cooling_factor=0.5, cooling_fraction=0.5)
    with pytest.raises(DomainError):
        settings(start, cooling_factor=1.5)


def test_settings_validation():
    start = pk.gompertz_model().params
    with pytest.raises(DomainError):
        settings(start, rw_sd={"r": -0.1})
    with pytest.raises(DomainError):
        settings(start, rw_sd={"nope": 0.1})
    with pytest.raises(DomainError):
        settings(start, ivp_names=("nope",))


def test_settings_reject_fractional_counts():
    start = pk.gompertz_model().params
    with pytest.raises(DomainError, match="num_particles"):
        MifSettings(start=start, n_iterations=2, num_particles=2.5, rw_sd={"r": 0.02})
    with pytest.raises(DomainError, match="n_iterations"):
        MifSettings(start=start, n_iterations=1.5, num_particles=10, rw_sd={"r": 0.02})


def test_walk_leaving_parameter_domain_raises_domain_error(gompertz_fitted):
    # on the natural scale the walk drives sigma below zero, where the model
    # step's normal draw fails; the error names the interval and keeps its cause
    s = MifSettings(start=gompertz_fitted.params, n_iterations=1, num_particles=150,
                    rw_sd={"sigma": 0.02, "tau": 0.02}, transform=False)
    with pytest.raises(DomainError, match=r"process simulation over \[") as err:
        pk.mif(gompertz_fitted, s, seed=3)
    assert isinstance(err.value.__cause__, ValueError)
    assert "scale < 0" in str(err.value)


def test_mif_is_deterministic(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=3)
    a = pk.mif(gompertz_fitted, s, seed=7, run_final_filter=False)
    b = pk.mif(gompertz_fitted, s, seed=7, run_final_filter=False)
    assert np.array_equal(a.trace, b.trace)


def test_mif_improves_loglik_from_dispersed_start(gompertz_fitted):
    # Monotone-trend property at desk scale: the estimate's median filtering
    # log likelihood beats the start's by at least one unit.
    rng = np.random.default_rng(10)
    start = gompertz_fitted.params.as_dict()
    for name in ("r", "sigma", "tau"):
        start[name] = float(np.exp(np.log(start[name]) + rng.normal(0, 1)))
    start = pk.ParamVector(start)
    s = settings(start, n_iterations=30, num_particles=500, cooling_fraction=0.7)
    out = pk.mif(gompertz_fitted, s, seed=11, run_final_filter=False)

    def median_loglik(theta, tag):
        lls = [pk.pfilter(gompertz_fitted, theta, num_particles=500, seed=sd).loglik
               for sd in pk.child_seeds(12, tag, 5)]
        return float(np.median(lls))

    assert (median_loglik(out.theta_hat, "after")
            >= median_loglik(start, "before") + 1.0)


def test_ivp_update_estimates_initial_condition(gompertz_fitted):
    # Mark X.0 as an IVP and start it off target; the fixed-lag update should
    # pull it toward the truth (1.0).
    start = gompertz_fitted.params.replace(**{"X.0": 3.0})
    s = MifSettings(
        start=start, n_iterations=20, num_particles=400,
        rw_sd={"r": 0.02, "sigma": 0.02, "tau": 0.02, "X.0": 0.1},
        ivp_names=("X.0",), ic_lag=10,
    )
    out = pk.mif(gompertz_fitted, s, seed=13, run_final_filter=False)
    assert abs(np.log(out.theta_hat["X.0"])) < abs(np.log(3.0))


def test_logliks_hold_each_iterations_perturbed_filter(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=3)
    out = pk.mif(gompertz_fitted, s, seed=16, run_final_filter=False)
    assert out.logliks.shape == (3,)
    assert np.isfinite(out.logliks).all()
    assert pk.mif(gompertz_fitted, settings(gompertz_fitted.params, n_iterations=0),
                  seed=16).logliks.shape == (0,)


def test_final_filter_runs_at_estimate(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=2)
    out = pk.mif(gompertz_fitted, s, seed=14)
    assert out.final_filter is not None
    assert out.final_filter.num_particles == 100
    assert np.isfinite(out.final_filter.loglik)


def test_mif_runs_on_seasonal_sir():
    model = pk.sir_seasonal_model(years=0.2)
    model = pk.attach_data(model, pk.simulate(model, seed=6)[0])
    s = MifSettings(start=model.params, n_iterations=1, num_particles=8,
                    rw_sd={"b1": 0.01, "S.0": 0.001}, ivp_names=("S.0",), ic_lag=3)
    out = pk.mif(model, s, seed=15)
    assert out.trace.shape == (1, len(model.params))
    assert np.all(np.isfinite(out.trace))
    assert out.final_filter is not None


def test_ivp_is_perturbed_at_time_zero_only(gompertz_fitted):
    # rprocess records the per-particle parameters of every advance.  Within
    # one pass an IVP only loses values to resampling, while the walked
    # parameters take new values at every step.
    seen = []
    rprocess = gompertz_fitted.rprocess

    def recording(x, params, t0, t1, rng, covars=None):
        seen.append((t0, params["X.0"].copy(), params["r"].copy()))
        return rprocess(x, params, t0, t1, rng, covars)

    model = dataclasses.replace(gompertz_fitted, rprocess=recording)
    s = settings(model.params, n_iterations=2, rw_sd={"r": 0.02, "X.0": 0.1},
                 ivp_names=("X.0",))
    pk.mif(model, s, seed=17, run_final_filter=False)
    starts = [i for i, (t0, _, _) in enumerate(seen) if t0 == model.data.t0]
    assert len(starts) == 2
    passes = [seen[starts[0]:starts[1]], seen[starts[1]:]]
    for steps in passes:
        assert len(steps) == model.data.n_obs
        ivp_at_t0 = set(steps[0][1])
        for (_, ivp, r), (_, _, r_before) in zip(steps[1:], steps):
            assert set(ivp) <= ivp_at_t0
            assert not set(r) & set(r_before)
    # the second pass perturbs the IVP values that the first pass ended with
    assert not set(passes[1][0][1]) & set(passes[0][-1][1])


def test_ic_lag_has_no_effect(gompertz_fitted):
    kw = dict(n_iterations=2, rw_sd={"r": 0.02, "X.0": 0.1}, ivp_names=("X.0",))
    a = pk.mif(gompertz_fitted, settings(gompertz_fitted.params, ic_lag=3, **kw),
               seed=18, run_final_filter=False)
    b = pk.mif(gompertz_fitted, settings(gompertz_fitted.params, ic_lag=10, **kw),
               seed=18, run_final_filter=False)
    assert np.array_equal(a.trace, b.trace)


def test_mif_walks_seasonal_sir_on_the_estimation_scale():
    # on the natural scale this walk took rho below zero and the measurement
    # density raised; the log and logit transforms keep it inside the domain
    model = pk.sir_seasonal_model(years=0.5)
    model = pk.attach_data(model, pk.simulate(model, seed=8)[0])
    s = MifSettings(start=model.params, n_iterations=2, num_particles=40,
                    rw_sd={"b1": 0.02, "rho": 0.02, "sigma": 0.02})
    out = pk.mif(model, s, seed=5)
    assert 0 < out.theta_hat["rho"] < 1 and out.theta_hat["sigma"] > 0
    assert np.isfinite(out.final_filter.loglik)


# ---------------------------------------------------------------------------
# starts run as the blocks of one swarm


def test_one_block_is_mif(gompertz_fitted):
    s = settings(gompertz_fitted.params, n_iterations=2, rw_sd={"r": 0.02, "X.0": 0.1},
                 ivp_names=("X.0",))
    (block,) = _mif_blocks(gompertz_fitted, s, [s.start], 4)
    out = pk.mif(gompertz_fitted, s, seed=4, run_final_filter=False)
    assert np.array_equal(block.trace, out.trace)
    assert np.array_equal(block.logliks, out.logliks)
    assert block.theta_hat == out.theta_hat and block.n_failures == out.n_failures


def test_blocks_walk_from_their_own_starts(gompertz_fitted):
    # K is not walked: each block must filter at its own start's K all along
    truth = gompertz_fitted.params
    far = truth.replace(K=3.0, tau=0.3)
    s = settings(truth, n_iterations=2, num_particles=200)
    near_out, far_out = _mif_blocks(gompertz_fitted, s, [truth, far], 6)
    k = truth.names.index("K")
    assert np.all(near_out.trace[:, k] == 1.0) and np.all(far_out.trace[:, k] == 3.0)
    assert near_out.theta_hat["K"] == 1.0 and far_out.theta_hat["K"] == 3.0
    # a block filtering at the other block's K, or walking from its tau,
    # would score and move like it
    assert np.all(far_out.logliks < near_out.logliks - 10)
    tau = truth.names.index("tau")
    assert far_out.trace[0, tau] > 0.15 > near_out.trace[0, tau]


# ---------------------------------------------------------------------------
# fixed parameters never cross the transforms


def seasonal_sir_fitted(**params):
    model = pk.sir_seasonal_model(years=0.5)
    model = model.with_params(model.params.replace(**params))
    return pk.attach_data(model, pk.simulate(model, seed=8)[0])


def test_mif_runs_with_sigma_fixed_at_zero_under_the_log_transform():
    # sigma = 0 has no log; held fixed, it never needs one
    model = seasonal_sir_fitted(sigma=0.0)
    s = MifSettings(start=model.params, n_iterations=2, num_particles=20,
                    rw_sd={"b1": 0.02, "rho": 0.002})
    out = pk.mif(model, s, seed=5)
    assert out.theta_hat["sigma"] == 0.0
    assert np.all(out.trace[:, model.params.names.index("sigma")] == 0.0)
    assert np.all(np.isfinite(out.logliks)) and np.isfinite(out.final_filter.loglik)


def test_mif_filters_at_the_exact_fixed_values():
    # exp(log(100.0)) != 100.0: a fixed theta must reach dmeasure unrounded
    model = seasonal_sir_fitted()
    seen = []

    def dmeasure(y, x, params, t, log, covars):
        seen.append(params["theta"])
        return model.dmeasure(y, x, params, t, log, covars)

    s = MifSettings(start=model.params, n_iterations=2, num_particles=20,
                    rw_sd={"b1": 0.02, "rho": 0.002})
    pk.mif(dataclasses.replace(model, dmeasure=dmeasure), s, seed=5, run_final_filter=False)
    assert model.params["theta"] == 100.0
    assert seen and all(theta == 100.0 for theta in seen)
