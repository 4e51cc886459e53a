import logging
import re
import warnings

import numpy as np
import pytest

import pompkit as pk
from pompkit.core import ModelSpec, ParamVector, TimeSeriesData
from pompkit.exceptions import DomainError, SingularCovarianceError


def batch(values):
    return {"y": np.atleast_2d(np.asarray(values, dtype=float))}


# ---------------------------------------------------------------------------
# probe_mean


def test_mean_identity():
    assert pk.probe_mean("y").apply(batch([1, 2, 3]))[0, 0] == pytest.approx(2.0)


def test_mean_sqrt_transform():
    p = pk.probe_mean("y", transform=np.sqrt)
    assert p.apply(batch([1, 4, 9]))[0, 0] == pytest.approx(2.0)
    assert p.apply(batch([4]))[0, 0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# probe_acf


def test_acf_constant_series_is_zero():
    p = pk.probe_acf("y", [0, 1, 2])
    assert np.allclose(p.apply(batch([5, 5, 5, 5, 5])), 0.0)


def test_acf_lag_zero_is_variance_divisor_n():
    p = pk.probe_acf("y", [0])
    assert p.apply(batch([1, 2, 3]))[0, 0] == pytest.approx(2.0 / 3.0)


def test_acf_lag_one_alternating_matches_direct_sum():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    z = y - y.mean()
    direct = np.sum(z[:-1] * z[1:]) / 4.0
    p = pk.probe_acf("y", [1])
    assert p.apply(batch(y))[0, 0] == pytest.approx(direct, abs=1e-14)
    assert direct < 0


def test_acf_rejects_oversized_lag():
    with pytest.raises(DomainError):
        pk.probe_acf("y", [5]).apply(batch([1, 2, 3]))


# ---------------------------------------------------------------------------
# probe_nlar


def test_nlar_recovers_exact_linear_recursion():
    y = [1.0]
    for _ in range(59):
        y.append(0.5 * y[-1])
    p = pk.probe_nlar("y", lags=[1], powers=[1])
    assert p.apply(batch(y))[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_nlar_recovers_quadratic_recursion():
    a, b = 0.3, 0.2
    y = [0.5]
    for _ in range(49):
        y.append(a * y[-1] + b * y[-1] ** 2)
    p = pk.probe_nlar("y", lags=[1, 1], powers=[1, 2])
    got = p.apply(batch(y))[0]
    # independent oracle: explicit normal equations
    yv = np.asarray(y)
    design = np.column_stack([yv[:-1], yv[:-1] ** 2])
    target = yv[1:]
    oracle = np.linalg.solve(design.T @ design, design.T @ target)
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx([a, b], abs=1e-7)


def test_nlar_runs_on_ricker_fixture(ricker_fitted):
    p = pk.probe_nlar("y", lags=[1, 1, 1, 2], powers=[1, 2, 3, 1],
                      transform=np.sqrt)
    values = p.apply(batch(ricker_fitted.data.column("y")))
    assert values.shape == (1, 4)
    assert np.all(np.isfinite(values))


# ---------------------------------------------------------------------------
# probe_marginal


def test_marginal_identity_regression():
    rng = np.random.default_rng(1)
    ref = rng.normal(size=80)
    p = pk.probe_marginal("y", ref, npoly=1)
    assert p.apply(batch(ref))[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_marginal_affine_recovery():
    rng = np.random.default_rng(2)
    ref = rng.normal(size=60)
    series = 2.0 * ref + 5.0
    p = pk.probe_marginal("y", ref, npoly=3)
    coefs = p.apply(batch(series))[0]
    assert coefs[0] == pytest.approx(2.0, abs=1e-8)
    assert coefs[1] == pytest.approx(0.0, abs=1e-8)
    assert coefs[2] == pytest.approx(0.0, abs=1e-8)


def test_marginal_interpolates_reference_of_other_length():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=45)
    series = rng.normal(size=80)
    coefs = pk.probe_marginal("y", ref, npoly=2).apply(batch(series))
    assert coefs.shape == (1, 2) and np.all(np.isfinite(coefs))


def test_marginal_degenerate_reference_is_error():
    with pytest.raises(DomainError, match="zero variance"):
        pk.probe_marginal("y", np.full(30, 2.0))


def test_marginal_runs_on_ricker_fixture(ricker_fitted):
    data = ricker_fitted.data.column("y")
    p = pk.probe_marginal("y", data, transform=np.sqrt)
    values = p.apply(batch(data))
    assert values.shape == (1, 3) and np.all(np.isfinite(values))


# ---------------------------------------------------------------------------
# synth_loglik


def test_synth_loglik_standardized_zero():
    rng = np.random.default_rng(4)
    sims = rng.normal(size=(200, 1))
    v = sims.var(ddof=1)
    value = pk.synth_loglik(sims, np.array([sims.mean()]))
    assert value == pytest.approx(-0.5 * np.log(2 * np.pi * v), abs=1e-10)


def test_synth_loglik_matches_dense_solve():
    rng = np.random.default_rng(5)
    sims = rng.normal(size=(300, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
    obs = np.array([0.3, -0.2])
    mu = sims.mean(axis=0)
    cov = np.cov(sims, rowvar=False, ddof=1)
    resid = obs - mu
    expected = (-0.5 * resid @ np.linalg.inv(cov) @ resid
                - 0.5 * np.log(np.linalg.det(cov)) - np.log(2 * np.pi))
    assert pk.synth_loglik(sims, obs) == pytest.approx(expected, abs=1e-10)


def test_synth_loglik_invariant_under_simulation_reordering():
    rng = np.random.default_rng(6)
    sims = rng.normal(size=(100, 3))
    obs = np.zeros(3)
    a = pk.synth_loglik(sims, obs)
    b = pk.synth_loglik(sims[::-1], obs)
    assert a == pytest.approx(b, abs=1e-12)


def test_duplicated_probe_is_singular_and_named():
    rng = np.random.default_rng(7)
    col = rng.normal(size=(50, 1))
    sims = np.hstack([col, col])
    with pytest.raises(SingularCovarianceError) as err:
        pk.synth_loglik(sims, np.zeros(2), labels=("alpha", "alpha-dup"))
    assert "alpha" in str(err.value)


def test_synth_loglik_needs_more_sims_than_probes():
    with pytest.raises(DomainError):
        pk.synth_loglik(np.zeros((3, 3)), np.zeros(3))


# ---------------------------------------------------------------------------
# probe (full evaluation)


def iid_normal_model(data, mu=0.0, sd=1.0):
    n = len(data)
    return ModelSpec(
        data=TimeSeriesData(t0=0.0, times=np.arange(1.0, n + 1),
                            observations=np.asarray(data, dtype=float)[:, None],
                            obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": rng.normal(p["mu"], p["sd"],
                                                           size=x["x"].shape)},
        params=ParamVector({"mu": mu, "sd": sd, "x.0": 0.0}),
    )


def test_probe_pvalues_in_unit_interval(gompertz_fitted):
    plist = [pk.probe_mean("Y"), pk.probe_acf("Y", [0, 1])]
    out = pk.probe(gompertz_fitted, None, plist, nsim=99, seed=8)
    assert np.all(out.p_values > 0.0) and np.all(out.p_values <= 1.0)
    assert out.simulated.shape == (99, 3)
    assert out.correlations.shape == (3, 3)


def test_probe_extreme_observation_pvalue_floor():
    data = np.full(30, 100.0)  # far outside anything the model simulates
    model = iid_normal_model(data)
    out = pk.probe(model, None, [pk.probe_mean("y")], nsim=99, seed=9)
    assert out.p_values[0] == pytest.approx(2.0 / 100.0)


def test_probe_requires_two_simulations(gompertz_fitted):
    with pytest.raises(DomainError):
        pk.probe(gompertz_fitted, None, [pk.probe_mean("Y")], nsim=1, seed=0)


def test_probe_calibration_under_the_null():
    # data drawn from the same iid model: p-values behave like a uniform draw,
    # so p > 0.001 essentially always.
    rng = np.random.default_rng(10)
    low = 0
    runs = 300
    for k in range(runs):
        data = rng.normal(size=25)
        model = iid_normal_model(data)
        out = pk.probe(model, None, [pk.probe_mean("y")], nsim=200, seed=k)
        if out.p_values[0] <= 0.001:
            low += 1
    assert low <= runs * 0.005 + 1


def test_probe_deterministic(gompertz_fitted):
    plist = [pk.probe_mean("Y"), pk.probe_acf("Y", [0, 1, 5])]
    a = pk.probe(gompertz_fitted, None, plist, nsim=50, seed=11)
    b = pk.probe(gompertz_fitted, None, plist, nsim=50, seed=11)
    assert a.synth_loglik == b.synth_loglik
    assert np.array_equal(a.simulated, b.simulated)


# ---------------------------------------------------------------------------
# probe_match


def test_probe_match_empty_est_returns_start(gompertz_fitted):
    plist = [pk.probe_mean("Y")]
    out = pk.probe_match(gompertz_fitted, gompertz_fitted.params, (), plist,
                         nsim=50, seed=12)
    assert out.theta == gompertz_fitted.params
    reference = pk.probe(gompertz_fitted, None, plist, nsim=50, seed=12)
    assert out.value == pytest.approx(reference.synth_loglik)


def test_probe_match_improves_objective():
    # mean/sd of an iid normal are cleanly identified by mean+acf probes
    rng = np.random.default_rng(13)
    data = rng.normal(3.0, 2.0, size=60)
    model = iid_normal_model(data, mu=1.0, sd=1.0)
    plist = [pk.probe_mean("y"), pk.probe_acf("y", [0])]
    start = model.params
    before = pk.probe(model, start, plist, nsim=300, seed=14).synth_loglik
    out = pk.probe_match(model, start, ("mu", "sd"), plist, nsim=300, seed=14,
                         transform=False, maxit=200)
    assert out.value > before
    assert out.theta["mu"] == pytest.approx(3.0, abs=0.8)
    assert out.theta["x.0"] == start["x.0"]  # fixed params untouched


def test_probe_match_runs_with_sigma_fixed_at_zero_under_the_log_transform():
    # sigma = 0 has no log; held fixed, it never needs one
    model = pk.sir_seasonal_model(years=0.5)
    model = model.with_params(model.params.replace(sigma=0.0))
    model = pk.attach_data(model, pk.simulate(model, seed=8)[0])
    res = pk.probe_match(model, model.params, ("b1",), [pk.probe_mean("cases")],
                         nsim=20, seed=3, maxit=6)
    assert res.theta["sigma"] == 0.0 and np.isfinite(res.value)


def test_nlar_without_lags_is_a_domain_error():
    with pytest.raises(DomainError, match="non-empty"):
        pk.probe_nlar("Y", [], [])


# ---------------------------------------------------------------------------
# probe inputs that cannot be computed


def test_marginal_npoly_must_be_less_than_the_reference_length():
    ref = np.random.default_rng(20).normal(size=30)
    # refused before a label is built: a huge npoly returns at once
    for npoly in (30, 2**63 - 1):
        with pytest.raises(DomainError, match=rf"npoly must be less than the reference "
                                              rf"length 30, got {npoly}"):
            pk.probe_marginal("y", ref, npoly=npoly)
    assert pk.probe_marginal("y", ref, npoly=29).arity == 29


@pytest.mark.parametrize("ref,transform", [([0.0, 1.0, 2.0], np.log), ([1.0, np.nan, 2.0], None),
                                           ([-1.0, 1.0, 2.0], np.sqrt)],
                         ids=["log-of-zero", "nan", "sqrt-of-negative"])
def test_marginal_reference_must_be_finite_after_its_transform(ref, transform):
    with pytest.raises(DomainError, match="reference series is not finite after its transform"):
        pk.probe_marginal("y", ref, npoly=1, transform=transform)


def test_synth_loglik_names_the_probes_with_non_finite_values():
    sims = np.random.default_rng(21).normal(size=(20, 3))
    sims[4, 1] = np.inf
    obs = np.array([0.0, 0.0, np.nan])
    with pytest.raises(DomainError, match=r"observed or simulated values or moments are not "
                                          r"finite: \['b', 'c'\]"):
        pk.synth_loglik(sims, obs, labels=("a", "b", "c"))


def test_synth_loglik_names_the_probes_whose_variance_overflows():
    rng = np.random.default_rng(23)
    sims = np.column_stack([rng.normal(size=20), 1e300 * rng.normal(size=20)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"moments are not finite: \['huge'\]"):
            pk.synth_loglik(sims, np.zeros(2), labels=("unit", "huge"))


@pytest.mark.parametrize("probe", [pk.probe_mean("y", transform=np.log),
                                   pk.probe_nlar("y", [1], [2**62])], ids=["log-mean", "nlar"])
def test_a_probe_with_non_finite_values_is_a_domain_error_without_warnings(ricker_fitted,
                                                                           probe):
    # the Ricker data hold zero counts; 2**62 overflows every power but 0 and 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"values or moments are not finite: "
                                              rf"\[{re.escape(repr(probe.labels[0]))}\]"):
            pk.probe(ricker_fitted, None, [probe], nsim=20, seed=1)


def test_probe_match_scores_a_non_finite_probe_as_minus_inf(ricker_fitted, caplog):
    log_mean = [pk.probe_mean("y", transform=np.log)]
    with caplog.at_level(logging.WARNING, logger="pompkit"):
        with pytest.raises(DomainError, match="finite at the starting point"):
            pk.probe_match(ricker_fitted, ricker_fitted.params, ("r",), log_mean,
                           nsim=20, seed=1, maxit=5)
    assert "observed or simulated values or moments are not finite" in caplog.text


def test_nlar_gives_a_series_with_a_non_finite_design_nan_coefficients():
    # log(y) ** 0 is 1 and log(y) ** -2**63 is 0 for y = 0 or y > e, so the first
    # series' design is singular and sends the batch to the minimum-norm fit; the
    # second series' design holds log(2) ** -2**63 = inf, which has no such fit
    series = [[3.0, 0.0, 4.0, 0.0, 5.0, 6.0], [3.0, 2.0, 5.0, 6.0, 7.0, 8.0]]
    probe = pk.probe_nlar("y", [1, 2], [0, -2**63], transform=np.log)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coefs = probe.apply(batch(series))
    assert coefs.shape == (2, 2) and np.isnan(coefs).all()


def test_a_probe_of_underflowing_variance_is_named_without_warnings():
    # squares of 1e-170 underflow: the variance reads 0 beside a non-zero covariance
    rng = np.random.default_rng(22)
    sims = np.column_stack([1e-170 * rng.normal(size=20), 1e10 * rng.normal(size=20)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularCovarianceError, match="degenerate probes: tiny"):
            pk.synth_loglik(sims, np.zeros(2), labels=("tiny", "large"))
