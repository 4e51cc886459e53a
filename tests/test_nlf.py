import numpy as np
import pytest

import pompkit as pk
from pompkit.core import ModelSpec, ParamVector, TimeSeriesData
from pompkit.exceptions import DomainError
from pompkit.nlf import NlfSettings, _rbf_design


# ---------------------------------------------------------------------------
# basis layout


def test_rbf_centers_three():
    centers, scale = pk.rbf_centers(0.0, 1.0, 3)
    assert centers == pytest.approx([-0.1, 0.5, 1.1], abs=1e-12)
    assert scale == pytest.approx(0.3)


def test_rbf_centers_two():
    centers, scale = pk.rbf_centers(0.0, 1.0, 2)
    assert centers == pytest.approx([-0.1, 1.1], abs=1e-12)
    assert scale == pytest.approx(0.3)


def test_rbf_centers_general_range():
    centers, scale = pk.rbf_centers(2.0, 6.0, 5)
    assert centers[0] == pytest.approx(2.0 - 0.4)
    assert centers[-1] == pytest.approx(6.0 + 0.4)
    assert scale == pytest.approx(1.2)


def test_rbf_degenerate_range_is_error():
    with pytest.raises(DomainError):
        pk.rbf_centers(5.0, 5.0, 4)


@pytest.mark.parametrize("ymin, ymax", [(0.0, 1e300), (0.0, np.inf), (-np.inf, 0.0),
                                        (0.0, np.nan), (0.0, 1e-200)])
def test_rbf_range_whose_scale_has_no_finite_positive_square_is_error(ymin, ymax):
    # the basis divides by scale**2: an overflow or a zero would fill the
    # design with NaN instead of refusing the range
    with pytest.raises(DomainError, match=r"too wide for the radial basis"):
        pk.rbf_centers(ymin, ymax, 4)


def test_rbf_basis_is_gaussian_bump():
    centers, scale = pk.rbf_centers(0.0, 1.0, 2)
    design = _rbf_design(np.array([0.0, 0.5, -0.1]), (1,), centers, scale)
    # rows hold features of the lag-1 values (0.0, 0.5) against both centers
    assert design[0, 0] == pytest.approx(np.exp(-0.01 / (2 * 0.09)))
    assert design[0, 1] == pytest.approx(np.exp(-1.21 / (2 * 0.09)))
    # a lagged value sitting exactly on a center yields the peak value 1
    peak = _rbf_design(np.array([-0.1, 7.0]), (1,), centers, scale)
    assert peak[0, 0] == pytest.approx(1.0)
    assert np.all(design <= 1.0)


# ---------------------------------------------------------------------------
# fixtures


def iid_normal_model(data, mu=5.0, sd=2.0):
    n = len(data)
    return ModelSpec(
        data=TimeSeriesData(t0=0.0, times=np.arange(1.0, n + 1),
                            observations=np.asarray(data, dtype=float)[:, None],
                            obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": rng.normal(
            p["mu"] * np.ones_like(x["x"]), p["sd"])},
        params=ParamVector({"mu": mu, "sd": sd, "x.0": 0.0}),
    )


def period_two_model(n):
    """Deterministic alternating observations: perfectly predictable at lag 2."""
    return ModelSpec(
        data=TimeSeriesData(t0=0.0, times=np.arange(1.0, n + 1),
                            observations=np.tile([1.0, 4.0], n)[:n, None],
                            obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: {"x": 5.0 - x["x"]},
        rmeasure=lambda x, p, t, rng, cv: {"y": x["x"]},
        params=ParamVector({"x.0": 1.0}),
    )


# ---------------------------------------------------------------------------
# quasi-likelihood value


def test_iid_model_quasi_loglik_matches_gaussian_baseline():
    rng = np.random.default_rng(20)
    data = rng.normal(5.0, 2.0, size=50)
    model = iid_normal_model(data)
    settings = NlfSettings(lags=(1,), sim_length=2000, transient=100)
    values, baselines = [], []
    for seed in range(10):
        value = pk.nlf_quasi_loglik(model, None, settings, seed=seed)
        values.append(value)
        # baseline: iid Gaussian log likelihood under the simulated mean and
        # the fitted residual variance; with no dependence the best predictor
        # is the mean, so the two should agree up to Monte Carlo error.
        _, obs = pk.simulate_paths(model, None, pk.stream(seed, "nlf"), 1,
                                   times=model.data.t0 + np.arange(1.0, 2101.0),
                                   t0=model.data.t0)
        sim = obs[0, 100:, 0]
        mu_hat, var_hat = sim.mean(), sim.var()
        resid = data[1:] - mu_hat
        baselines.append(-0.5 * 49 * np.log(2 * np.pi * var_hat)
                         - np.sum(resid**2) / (2 * var_hat))
    diff = np.array(values) - np.array(baselines)
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    assert abs(diff.mean()) < 3 * max(se, 0.05) + 0.5


def test_least_squares_matches_normal_equations_oracle():
    rng = np.random.default_rng(21)
    series = rng.normal(size=50)
    centers, scale = pk.rbf_centers(series.min(), series.max(), 4)
    design = _rbf_design(series, (1, 2), centers, scale)
    target = series[2:]
    coef_lstsq = np.linalg.lstsq(design, target, rcond=None)[0]
    coef_oracle = np.linalg.solve(design.T @ design, design.T @ target)
    assert coef_lstsq == pytest.approx(coef_oracle, abs=1e-8)


def test_quasi_loglik_is_deterministic(gompertz_fitted):
    settings = NlfSettings(lags=(2, 3), sim_length=300, transient=300)
    a = pk.nlf_quasi_loglik(gompertz_fitted, None, settings, seed=22)
    b = pk.nlf_quasi_loglik(gompertz_fitted, None, settings, seed=22)
    assert a == b


def test_truth_beats_inflated_parameters_on_gompertz(gompertz_fitted):
    settings = NlfSettings(lags=(2, 3), sim_length=1000, transient=1000)
    truth = gompertz_fitted.params
    wild = truth.replace(r=truth["r"] * 3, sigma=truth["sigma"] * 3,
                         tau=truth["tau"] * 3)
    wins = 0
    for seed in range(5):
        at_truth = pk.nlf_quasi_loglik(gompertz_fitted, truth, settings, seed=seed)
        at_wild = pk.nlf_quasi_loglik(gompertz_fitted, wild, settings, seed=seed)
        wins += at_truth > at_wild
    assert wins >= 3


def test_fitted_predictor_beats_constant_mean(gompertz_fitted):
    settings = NlfSettings(lags=(1,), sim_length=800, transient=200)
    seed = 23
    value = pk.nlf_quasi_loglik(gompertz_fitted, None, settings, seed=seed)
    # reconstruct the residual variance from the returned value and compare
    # with the constant-mean predictor's residual variance on the same sim
    dt = 1.0
    _, obs = pk.simulate_paths(gompertz_fitted, None, pk.stream(seed, "nlf"), 1,
                               times=gompertz_fitted.data.t0 + dt * np.arange(1, 1001),
                               t0=gompertz_fitted.data.t0)
    sim = obs[0, 200:, 0]
    centers, scale = pk.rbf_centers(sim.min(), sim.max(), 4)
    train = obs[0, 199:, 0]
    design = _rbf_design(train, (1,), centers, scale)
    coef = np.linalg.lstsq(design, train[1:], rcond=None)[0]
    fitted_var = np.mean((train[1:] - design @ coef) ** 2)
    const_var = np.mean((train[1:] - train[1:].mean()) ** 2)
    assert fitted_var <= const_var * (1 + 1e-9)


def test_degenerate_deterministic_fit_is_error():
    model = period_two_model(30)
    settings = NlfSettings(lags=(2,), sim_length=100, transient=50)
    with pytest.raises(DomainError, match="zero residual variance"):
        pk.nlf_quasi_loglik(model, None, settings, seed=24)


def test_needs_more_data_than_max_lag():
    model = iid_normal_model(np.ones(3) * 2.0)
    settings = NlfSettings(lags=(3,), sim_length=100, transient=50)
    with pytest.raises(DomainError, match="observations"):
        pk.nlf_quasi_loglik(model, None, settings, seed=25)


def test_ricker_time_grid_is_accepted(ricker_fitted):
    # first observation time coincides with t0; spacing comes from the grid
    settings = NlfSettings(lags=(1,), sim_length=300, transient=100)
    value = pk.nlf_quasi_loglik(ricker_fitted, None, settings, seed=30)
    assert np.isfinite(value)


def test_covariate_models_are_rejected():
    model = pk.sir_seasonal_model(years=0.2)
    settings = NlfSettings(lags=(1,), sim_length=50, transient=20)
    with pytest.raises(DomainError, match="covariates"):
        pk.nlf_quasi_loglik(model, None, settings, seed=26)


def test_settings_validation():
    with pytest.raises(DomainError):
        NlfSettings(lags=())
    with pytest.raises(DomainError):
        NlfSettings(lags=(0,))
    with pytest.raises(DomainError):
        NlfSettings(lags=(3,), sim_length=3)
    with pytest.raises(DomainError):
        NlfSettings(lags=(1,), n_rbf=1)


# ---------------------------------------------------------------------------
# fitting


def test_fit_empty_est_returns_start(gompertz_fitted):
    settings = NlfSettings(lags=(2, 3), sim_length=200, transient=200)
    out = pk.nlf_fit(gompertz_fitted, gompertz_fitted.params, settings, seed=27)
    assert out.theta == gompertz_fitted.params
    assert out.value == pk.nlf_quasi_loglik(gompertz_fitted, None, settings, seed=27)


def test_fit_never_returns_worse_than_start(gompertz_fitted):
    settings = NlfSettings(lags=(2, 3), sim_length=400, transient=400,
                           est=("r", "sigma", "tau"))
    start = gompertz_fitted.params.replace(r=0.3, sigma=0.2, tau=0.2)
    out = pk.nlf_fit(gompertz_fitted, start, settings, seed=28, maxit=120)
    at_start = pk.nlf_quasi_loglik(gompertz_fitted, start, settings, seed=28)
    assert out.value >= at_start
    assert out.theta["K"] == start["K"]  # not estimated


def test_fit_runs_with_sigma_fixed_at_zero_under_the_log_transform():
    # sigma = 0 has no log; held fixed, it never needs one
    model = pk.gompertz_model()
    model = model.with_params(model.params.replace(sigma=0.0))
    model = pk.attach_data(model, pk.simulate(model, seed=3)[0])
    nset = NlfSettings(lags=(1, 2), sim_length=150, transient=100, est=("r",))
    res = pk.nlf_fit(model, model.params, nset, seed=3, maxit=10)
    assert res.theta["sigma"] == 0.0 and np.isfinite(res.value)


def test_unevenly_spaced_data_is_rejected(gompertz_fitted):
    data = gompertz_fitted.data
    times = data.times.copy()
    times[5:] += 0.5
    uneven = gompertz_fitted.with_data(TimeSeriesData(
        t0=data.t0, times=times, observations=data.observations, obs_names=data.obs_names))
    with pytest.raises(DomainError, match="evenly spaced"):
        pk.nlf_quasi_loglik(uneven, None, NlfSettings(lags=(1,), sim_length=50,
                                                      transient=50))
