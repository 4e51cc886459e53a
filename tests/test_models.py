import numpy as np
import pytest
from scipy import stats

import pompkit as pk
from pompkit import models
from pompkit.core import simulate_paths
from pompkit.distributions import euler_multinomial_probs
from pompkit.exceptions import DomainError
from pompkit.rng import stream


# ---------------------------------------------------------------------------
# Gompertz


def test_gompertz_fixed_point_without_noise():
    model = pk.gompertz_model()
    theta = model.params.replace(sigma=0.0)
    rec = pk.simulate(model, theta, seed=0)[0]
    assert np.all(rec.state_column("X") == 1.0)  # X0 = K = 1


def test_gompertz_zero_growth_is_random_walk_in_log():
    model = pk.gompertz_model(n_obs=10)
    theta = model.params.replace(r=0.0, sigma=0.0, **{"X.0": 0.37})
    rec = pk.simulate(model, theta, seed=1)[0]
    # r = 0 makes the map X' = X * eps; with sigma 0, X never moves off 0.37.
    assert np.all(rec.state_column("X") == 0.37)


def test_gompertz_dmeasure_at_median():
    model = pk.gompertz_model()
    x = {"X": np.array([1.0])}
    value = model.dmeasure({"Y": 1.0}, x, {"tau": 0.1}, 1.0, True, None)
    assert value[0] == pytest.approx(-np.log(0.1 * np.sqrt(2 * np.pi)), abs=1e-10)
    assert value[0] == pytest.approx(1.3836466, abs=1e-6)


def test_gompertz_one_step_distribution_matches_log_normal_form():
    # One step of the process on the log scale is N((1-S) log K + S log X, sigma^2).
    theta = {"r": 0.3, "K": 2.0, "sigma": 0.2, "tau": 0.1, "X.0": 0.7}
    model = pk.gompertz_model(n_obs=1)
    states, _ = simulate_paths(model, pk.ParamVector(theta), seed=21, nsim=10_000,
                               with_obs=False)
    logx1 = np.log(states[:, 1, 0])
    s = np.exp(-theta["r"])
    mean = (1 - s) * np.log(theta["K"]) + s * np.log(theta["X.0"])
    result = stats.kstest(logx1, "norm", args=(mean, theta["sigma"]))
    assert result.pvalue > 0.001


# ---------------------------------------------------------------------------
# Ricker


def test_ricker_deterministic_fixed_point():
    r = float(np.exp(3.8))
    n_star = np.log(r)
    model = pk.ricker_model(n_obs=5)
    theta = model.params.replace(sigma=0.0, **{"N.0": n_star})
    rec = pk.simulate(model, theta, seed=2)[0]
    assert rec.state_column("N") == pytest.approx(np.full(6, n_star), rel=1e-12)


def test_ricker_noise_free_orbit_matches_iterated_map():
    model = pk.ricker_model(n_obs=20)
    theta = model.params.replace(sigma=0.0)
    rec = pk.simulate(model, theta, seed=3)[0]
    # first observation time equals t0, so the map is applied n-1 times
    n = 7.0
    expected = [n, n]
    for _ in range(19):
        n = theta["r"] * n * np.exp(-n)
        expected.append(n)
    assert rec.state_column("N") == pytest.approx(expected, rel=1e-12)


def test_ricker_truth_parameters():
    theta = models.RICKER_DEFAULTS
    assert theta["r"] == pytest.approx(44.7, abs=0.05)
    assert theta["sigma"] == 0.3
    assert theta["phi"] == 10.0


def test_ricker_dmeasure_poisson_at_zero():
    model = pk.ricker_model()
    value = model.dmeasure({"y": 0.0}, {"N": np.array([0.2])}, {"phi": 10.0},
                           0.0, False, None)
    assert value[0] == pytest.approx(np.exp(-2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# SIR


def test_force_of_infection():
    assert models.sir_force_of_infection(400.0, 1000.0, 500000.0) == pytest.approx(0.8)


def test_basic_reproduction_number_near_15():
    p = models.SIR_DEFAULTS
    r0 = p["beta"] / (p["gamma"] + p["mu"])
    assert 15.0 <= r0 <= 15.5


def test_sir_population_balances_births_minus_deaths():
    # Instrumented twin: replay the same flows while tracking cumulative
    # births and deaths, and check S+I+R = initial + B - D at all times.
    model = pk.sir_model(years=2.0)
    params = model.params.as_dict()
    rng = stream(123, "flows")
    x = {"S": np.array([32500.0]), "I": np.array([1000.0]), "R": np.array([466500.0])}
    births_total = deaths_total = 0.0
    pop0 = sum(v[0] for v in x.values())
    dt = models.SIR_EULER_DT
    for _ in range(2000):
        pop = x["S"] + x["I"] + x["R"]
        lam = models.sir_force_of_infection(params["beta"], x["I"], pop)
        flows = models.sir_step_flows(x, params, dt, rng, lam, params["mu"] * pop)
        x = {
            "S": x["S"] + flows["births"] - flows["SI"] - flows["SD"],
            "I": x["I"] + flows["SI"] - flows["IR"] - flows["ID"],
            "R": x["R"] + flows["IR"] - flows["RD"],
        }
        births_total += flows["births"][0]
        deaths_total += flows["SD"][0] + flows["ID"][0] + flows["RD"][0]
        assert (x["S"] + x["I"] + x["R"])[0] == pop0 + births_total - deaths_total


def test_sir_states_are_non_negative_integers():
    model = pk.sir_model(years=3.0)
    states, obs = simulate_paths(model, None, seed=4, nsim=5)
    assert np.all(states >= 0)
    assert np.all(states == np.floor(states))
    assert np.all(obs >= 0)


def test_sir_incidence_is_within_interval_cumulative():
    model = pk.sir_model(years=1.0)
    rec = pk.simulate(model, seed=5)[0]
    h = rec.state_column("H")[1:]
    assert np.all(h >= 0)


def test_sir_expected_new_infections_over_one_substep():
    # One tau-leap sub-step from a fixed state: E[new infections] equals
    # S * p with p the first Euler-multinomial exit probability.
    params = models.SIR_DEFAULTS.as_dict()
    s, i_, r_ = 30000.0, 2000.0, 468000.0
    pop = s + i_ + r_
    lam = params["beta"] * i_ / pop
    dt = models.SIR_EULER_DT
    p = euler_multinomial_probs(np.array([lam, params["mu"]]), dt)[0]
    n = 10_000
    rng = stream(6, "substep")
    x = {"S": np.full(n, s), "I": np.full(n, i_), "R": np.full(n, r_)}
    flows = models.sir_step_flows(x, params, dt, rng, lam * np.ones(n),
                                  params["mu"] * pop * np.ones(n))
    expected = s * p
    assert expected == pytest.approx(lam * s * dt, rel=0.01)  # ~ lambda*S*dt
    se = np.sqrt(s * p * (1 - p) / n)
    assert abs(flows["SI"].mean() - expected) < 3 * se


# ---------------------------------------------------------------------------
# seasonal SIR


def test_seasonal_beta_constant_when_unforced():
    params = models.SIR_SEASONAL_DEFAULTS.replace(sigma=0.0, b2=0.0, b3=0.0)
    p = params.as_dict()
    phis = np.linspace(0.0, 3.0, 13)
    betas = models.seasonal_transmission_rate(p, phis)
    assert betas == pytest.approx(np.full(13, np.exp(p["b1"])), rel=1e-12)


def test_seasonal_sigma_zero_keeps_phase_on_clock_time():
    model = pk.sir_seasonal_model(years=0.5)
    params = model.params.replace(sigma=0.0)
    rec = pk.simulate(model, params, seed=7)[0]
    phi = rec.state_column("Phi")
    elapsed = rec.times - rec.times[0]
    assert phi == pytest.approx(elapsed, abs=1e-9)
    assert np.all(rec.state_column("noise")[1:] == 0.0)  # guarded 0/0


def test_seasonal_population_state_tracks_compartments():
    model = pk.sir_seasonal_model(years=0.5)
    rec = pk.simulate(model, seed=8)[0]
    total = rec.state_column("S") + rec.state_column("I") + rec.state_column("R")
    assert np.array_equal(rec.state_column("P"), total)


def test_seasonal_model_uses_birth_covariate():
    lo = models.synthetic_birth_covariate()
    hi_values = lo.values * 10
    hi = pk.CovariateTable(times=lo.times, values=hi_values, names=lo.names)
    m_lo = pk.sir_seasonal_model(years=1.0, covariates=lo)
    m_hi = pk.sir_seasonal_model(years=1.0, covariates=hi)
    rec_lo = pk.simulate(m_lo, seed=9)[0]
    rec_hi = pk.simulate(m_hi, seed=9)[0]
    assert rec_hi.state_column("P")[-1] > rec_lo.state_column("P")[-1]


@pytest.mark.parametrize("factory", [pk.sir_model, pk.sir_seasonal_model])
def test_sir_initializers_take_per_particle_parameters(factory):
    # mif hands the initializer one parameter value per particle; each
    # particle must start where a scalar call at its parameters starts.
    model = factory(years=0.1)
    scalar = model.params.as_dict()
    per_particle = {k: np.full(4, v) for k, v in scalar.items()}
    per_particle["popsize"] = scalar["popsize"] * np.array([1.0, 0.5, 2.0, 1.0])
    per_particle["I.0"] = scalar["I.0"] * np.array([1.0, 1.0, 3.0, 0.5])
    batch = model.initializer(per_particle, model.data.t0, None, 4)
    for j in range(4):
        one = model.initializer({k: v[j] for k, v in per_particle.items()},
                                model.data.t0, None, 1)
        for name in model.state_names:
            assert batch[name].shape == (4,)
            assert batch[name][j] == one[name][0]


@pytest.mark.parametrize("factory", [pk.sir_model, pk.sir_seasonal_model])
def test_sir_transforms_map_parameters_onto_the_real_line(factory):
    model = factory(years=0.1)
    natural = model.params.as_dict()
    work = pk.transform_params(model, natural, "to-estimation")
    assert work["rho"] == pytest.approx(np.log(natural["rho"] / (1 - natural["rho"])))
    assert work["gamma"] == pytest.approx(np.log(natural["gamma"]))
    for name in ("b1", "b2", "b3"):
        if name in natural:
            assert work[name] == natural[name]
    back = pk.transform_params(model, work, "from-estimation")
    assert back == pytest.approx(natural, rel=1e-12)
    # any real value on the estimation scale lands inside the domain
    far = pk.transform_params(model, {k: -30.0 for k in work}, "from-estimation")
    assert 0 < far["rho"] < 1 and far["popsize"] > 0


def test_registry_knows_all_builtins():
    assert set(models.BUILTIN_MODELS) == {"gompertz", "ricker", "sir", "sir-seasonal"}
    with pytest.raises(KeyError, match="unknown model"):
        models.build_model("lorenz")


# ---------------------------------------------------------------------------
# the built-in draws, against their earlier ``ones_like`` forms


def _old_gompertz_step(x, params, t, dt, rng, covars):
    s = np.exp(-params["r"] * dt)
    eps = np.exp(rng.normal(0.0, params["sigma"] * np.ones_like(x["X"])))
    return {"X": params["K"] ** (1.0 - s) * x["X"] ** s * eps}


def _old_gompertz_rmeasure(x, params, t, rng, covars):
    return {"Y": np.exp(rng.normal(np.log(x["X"]), params["tau"] * np.ones_like(x["X"])))}


def _old_ricker_step(x, params, t, dt, rng, covars):
    e = rng.normal(0.0, params["sigma"] * np.ones_like(x["N"]))
    return {"N": params["r"] * x["N"] * np.exp(-x["N"] + e), "e": e}


def _old_ricker_rmeasure(x, params, t, rng, covars):
    return {"y": rng.poisson(params["phi"] * x["N"] * np.ones_like(x["N"]))}


def _old_sir_rmeasure(x, params, t, rng, covars):
    return {"cases": pk.rnbinom_mu(params["theta"] * np.ones_like(x["H"]),
                                   params["rho"] * x["H"], rng).astype(float)}


J_DRAWS = 64
_draw_rng = np.random.default_rng(2718)
DRAW_CASES = {
    "gompertz-step": (models._gompertz_step, _old_gompertz_step, True,
                      {"X": _draw_rng.lognormal(0.0, 0.3, J_DRAWS)},
                      {"r": 0.1, "K": 1.0, "sigma": 0.1}),
    "gompertz-rmeasure": (models._gompertz_rmeasure, _old_gompertz_rmeasure, False,
                          {"X": _draw_rng.lognormal(0.0, 0.3, J_DRAWS)}, {"tau": 0.1}),
    "ricker-step": (models._ricker_step, _old_ricker_step, True,
                    {"N": _draw_rng.uniform(1.0, 10.0, J_DRAWS)},
                    {"r": float(np.exp(3.8)), "sigma": 0.3}),
    "ricker-rmeasure": (models._ricker_rmeasure, _old_ricker_rmeasure, False,
                        {"N": _draw_rng.uniform(1.0, 10.0, J_DRAWS)}, {"phi": 10.0}),
    "sir-rmeasure": (models._sir_rmeasure, _old_sir_rmeasure, False,
                     {"H": _draw_rng.integers(0, 500, J_DRAWS).astype(float)},
                     {"theta": 100.0, "rho": 0.1}),
}


@pytest.mark.parametrize("per_particle", [False, True], ids=["scalar", "per-particle"])
@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_builtin_draws_match_ones_like_form_bit_for_bit(case, per_particle):
    new, old, is_step, x, params = DRAW_CASES[case]
    if per_particle:
        # mif hands every parameter over as a (J,) array
        spread = np.linspace(0.8, 1.2, J_DRAWS)
        params = {k: v * spread for k, v in params.items()}

    def call(fn, rng):
        return fn(x, params, 0.0, 1.0, rng, None) if is_step else fn(x, params, 0.0, rng, None)

    rng_new, rng_old = np.random.default_rng(99), np.random.default_rng(99)
    got, want = call(new, rng_new), call(old, rng_old)
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].shape == (J_DRAWS,)
        assert got[name].dtype == want[name].dtype
        assert np.array_equal(got[name], want[name])
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("tau", [-0.1, -0.0, np.linspace(0.1, -0.1, J_DRAWS)],
                         ids=["scalar", "negative-zero", "per-particle"])
def test_gompertz_rmeasure_rejects_a_negative_tau(tau):
    x = {"X": np.full(J_DRAWS, 1.5)}
    with pytest.raises(ValueError, match="scale < 0"):
        models._gompertz_rmeasure(x, {"tau": tau}, 0.0, np.random.default_rng(1), None)
    if np.ndim(tau) == 0:
        model = pk.gompertz_model(n_obs=3)
        with pytest.raises(ValueError, match="scale < 0"):
            pk.simulate(model, model.params.replace(tau=tau), seed=1)


def test_gompertz_rmeasure_nan_tau_draws_nan():
    x = {"X": np.full(J_DRAWS, 1.5)}
    y = models._gompertz_rmeasure(x, {"tau": np.nan}, 0.0, np.random.default_rng(1), None)
    assert np.isnan(y["Y"]).all()


# ---------------------------------------------------------------------------
# one tau-leap sub-step against its first formulation


def _reference_sir_step_flows(x, params, dt, rng, lam, birth_rate):
    """``sir_step_flows`` as first written, one ``reulermultinom`` call per
    compartment on (n, 2) and (n, 1) rate arrays: the reference for the lean
    sub-step, which must make the same draws from the same generator."""
    n = x["S"].shape[0]
    births = rng.poisson(np.asarray(birth_rate) * dt, size=n)
    rates_s = np.empty((n, 2))
    rates_s[:, 0] = lam
    rates_s[:, 1] = params["mu"]
    exits_s = pk.reulermultinom(x["S"].astype(np.int64), rates_s, dt, rng)
    rates_i = np.empty((n, 2))
    rates_i[:, 0] = params["gamma"]
    rates_i[:, 1] = params["mu"]
    exits_i = pk.reulermultinom(x["I"].astype(np.int64), rates_i, dt, rng)
    exits_r = pk.reulermultinom(x["R"].astype(np.int64), rates_i[:, 1:], dt, rng)
    return {
        "births": births,
        "SI": exits_s[:, 0], "SD": exits_s[:, 1],
        "IR": exits_i[:, 0], "ID": exits_i[:, 1],
        "RD": exits_r[:, 0],
    }


def _reference_sir_step(x, params, t, dt, rng, covars):
    pop = x["S"] + x["I"] + x["R"]
    lam = models.sir_force_of_infection(params["beta"], x["I"], pop)
    flows = _reference_sir_step_flows(x, params, dt, rng, lam, params["mu"] * pop)
    return {
        "S": x["S"] + flows["births"] - flows["SI"] - flows["SD"],
        "I": x["I"] + flows["SI"] - flows["IR"] - flows["ID"],
        "R": x["R"] + flows["IR"] - flows["RD"],
        "H": x["H"] + flows["SI"],
    }


def _reference_sir_seasonal_step(x, params, t, dt, rng, covars):
    phi = x["Phi"]
    beta = models.seasonal_transmission_rate(params, phi)
    lam = beta * (x["I"] + params["iota"]) / x["P"]
    birth_rate = covars["births"] if covars is not None else params["mu"] * x["P"]
    flows = _reference_sir_step_flows(x, params, dt, rng, lam, birth_rate)
    sigma = params["sigma"]
    dw = rng.normal(dt, sigma * np.sqrt(dt), size=phi.shape)
    s_new = x["S"] + flows["births"] - flows["SI"] - flows["SD"]
    i_new = x["I"] + flows["SI"] - flows["IR"] - flows["ID"]
    r_new = x["R"] + flows["IR"] - flows["RD"]
    noise_inc = np.divide(dw - dt, sigma, out=np.zeros(phi.shape), where=sigma > 0)
    return {
        "S": s_new, "I": i_new, "R": r_new,
        "P": s_new + i_new + r_new,
        "Phi": phi + dw,
        "H": x["H"] + flows["SI"],
        "noise": x["noise"] + noise_inc,
    }


def _sir_state(n, seed=21, empty_i=False):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 40000, n).astype(float)
    i = np.zeros(n) if empty_i else rng.integers(0, 3000, n).astype(float)
    r = rng.integers(400000, 480000, n).astype(float)
    return {"S": s, "I": i, "R": r, "H": np.zeros(n), "P": s + i + r,
            "Phi": rng.uniform(0.0, 1.0, n), "noise": np.zeros(n)}


def _per_particle(params, n, names):
    spread = np.linspace(0.7, 1.3, n)
    return {**params, **{k: params[k] * spread for k in names}}


def _assert_same_draws(got, want, rng, ref_rng):
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


SIR_FLOW_CASES = {  # name: (particles, per-particle parameters, empty I compartment)
    "scalar": (200, (), False),
    "per-particle": (200, ("gamma", "mu"), False),
    "n-1": (1, (), False),
    "n-1-per-particle": (1, ("gamma", "mu"), False),
    "empty-I": (50, (), True),
}


@pytest.mark.parametrize("case", sorted(SIR_FLOW_CASES))
def test_sir_step_flows_match_reference_draw_for_draw(case):
    n, varying, empty_i = SIR_FLOW_CASES[case]
    params = _per_particle(models.SIR_DEFAULTS.as_dict(), n, varying)
    x = _sir_state(n, empty_i=empty_i)
    pop = x["S"] + x["I"] + x["R"]
    lam = models.sir_force_of_infection(params["beta"], x["I"], pop)
    if empty_i:
        assert not lam.any()
    dt = models.SIR_EULER_DT
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for birth_rate in (params["mu"] * pop, 9000.0):
        got = models.sir_step_flows(x, params, dt, rng, lam, birth_rate)
        want = _reference_sir_step_flows(x, params, dt, ref_rng, lam, birth_rate)
        _assert_same_draws(got, want, rng, ref_rng)


@pytest.mark.parametrize("per_particle", [False, True], ids=["scalar", "per-particle"])
@pytest.mark.parametrize("step,reference,defaults,varying", [
    pytest.param(models._sir_step, _reference_sir_step, models.SIR_DEFAULTS,
                 ("beta", "gamma", "mu"), id="sir"),
    pytest.param(models._sir_seasonal_step, _reference_sir_seasonal_step,
                 models.SIR_SEASONAL_DEFAULTS, ("b1", "gamma", "mu", "sigma"),
                 id="sir-seasonal"),
])
def test_sir_steps_match_reference_over_many_substeps(step, reference, defaults, varying,
                                                       per_particle):
    # the states carried from sub-step to sub-step stay bit-identical too
    n = 120
    params = _per_particle(defaults.as_dict(), n, varying if per_particle else ())
    x = x_ref = _sir_state(n)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    dt = models.SIR_EULER_DT
    for k in range(40):
        covars = {"births": 9000.0} if k % 2 else None
        x = step(x, params, k * dt, dt, rng, covars)
        x_ref = reference(x_ref, params, k * dt, dt, ref_rng, covars)
        _assert_same_draws(x, x_ref, rng, ref_rng)


def _bad_flow_inputs(what):
    n = 10
    params = models.SIR_DEFAULTS.as_dict()
    x = _sir_state(n)
    lam = np.full(n, 0.8)
    dt = models.SIR_EULER_DT
    if what == "nan-lambda":
        lam[3] = np.nan
    elif what == "negative-lambda":
        lam[3] = -0.1
    elif what == "inf-gamma":
        params = {**params, "gamma": np.full(n, 26.0)}
        params["gamma"][2] = np.inf
    elif what == "negative-mu":
        params = {**params, "mu": -0.01}
    elif what == "negative-S":
        x["S"][4] = -1.0
    elif what == "zero-dt":
        dt = 0.0
    elif what == "negative-dt":
        dt = -dt
    return x, params, dt, lam


@pytest.mark.parametrize("what,message", [
    ("nan-lambda", "rates must be finite and non-negative"),
    ("negative-lambda", "rates must be finite and non-negative"),
    ("inf-gamma", "rates must be finite and non-negative"),
    ("negative-mu", "rates must be finite and non-negative"),
    ("negative-S", "size must be a non-negative integer"),
    ("zero-dt", "dt must be a positive scalar"),
    ("negative-dt", "dt must be a positive scalar"),
])
def test_sir_step_flows_reject_out_of_domain_inputs(what, message):
    x, params, dt, lam = _bad_flow_inputs(what)
    with pytest.raises(DomainError, match=message):
        models.sir_step_flows(x, params, dt, np.random.default_rng(0), lam, 100.0)


def test_seasonal_default_covariate_covers_a_long_simulation(caplog):
    # the default birth table spans the model's own years, so nothing extrapolates
    model = pk.sir_seasonal_model(years=12.0)
    with caplog.at_level("WARNING", logger="pompkit"):
        pk.simulate(model, seed=13)
    assert not [r for r in caplog.records if "extrapolates" in r.getMessage()]
    assert model.covariates.times[-1] >= model.data.times[-1]
