import numpy as np
import pytest
from scipy import stats

import pompkit as pk
from pompkit.exceptions import DomainError
from pompkit.oracle import LinearGaussianSSM, nelder_mead


def dense_joint_loglik(ssm: LinearGaussianSSM, y_log):
    """Independent oracle: evaluate the joint Gaussian of the log observations
    from explicitly built mean vector and covariance matrix."""
    n = len(y_log)
    mean_x = np.empty(n)
    m = ssm.x0_mean
    for i in range(n):
        m = ssm.a * m + ssm.b
        mean_x[i] = m
    var_x = np.empty(n)
    v = ssm.x0_var
    for i in range(n):
        v = ssm.a**2 * v + ssm.q
        var_x[i] = v
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            cov[i, j] = cov[j, i] = var_x[i] * ssm.a ** (j - i)
    cov_y = cov + ssm.r_obs * np.eye(n)
    mean_y = mean_x + ssm.c
    return stats.multivariate_normal.logpdf(y_log, mean_y, cov_y) - np.sum(y_log)


def test_kalman_iid_reduction():
    ssm = LinearGaussianSSM(a=0.0, b=0.0, q=0.0, c=0.0, r_obs=1.0,
                            x0_mean=0.0, x0_var=0.0)
    y_log = np.array([0.3, -1.2, 0.7, 2.0])
    expected = stats.norm.logpdf(y_log).sum() - y_log.sum()
    assert pk.kalman_loglik(ssm, y_log) == pytest.approx(expected, abs=1e-12)


def test_kalman_matches_dense_joint_gaussian_n4():
    ssm = LinearGaussianSSM(a=0.9, b=0.05, q=0.04, c=0.0, r_obs=0.01,
                            x0_mean=0.0, x0_var=0.0)
    y_log = np.array([0.1, -0.2, 0.05, 0.3])
    assert pk.kalman_loglik(ssm, y_log) == pytest.approx(
        dense_joint_loglik(ssm, y_log), abs=1e-10)


def test_kalman_matches_dense_joint_gaussian_random_fixtures():
    rng = np.random.default_rng(12)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        ssm = LinearGaussianSSM(
            a=float(rng.uniform(-0.95, 0.95)), b=float(rng.normal(0, 0.3)),
            q=float(rng.uniform(0.01, 0.5)), c=float(rng.normal(0, 0.2)),
            r_obs=float(rng.uniform(0.01, 0.5)),
            x0_mean=float(rng.normal()), x0_var=float(rng.uniform(0, 0.3)))
        y_log = rng.normal(size=n)
        assert pk.kalman_loglik(ssm, y_log) == pytest.approx(
            dense_joint_loglik(ssm, y_log), abs=1e-10)


def test_kalman_gradient_richardson_consistency():
    y_log = np.random.default_rng(3).normal(size=20) * 0.2
    base = dict(a=0.8, b=0.1, q=0.05, c=0.0, r_obs=0.02, x0_mean=0.0, x0_var=0.0)

    def f(**kw):
        return pk.kalman_loglik(LinearGaussianSSM(**{**base, **kw}), y_log)

    for name in ("a", "b", "q", "r_obs"):
        for h in (1e-4, 5e-5):
            hi = f(**{name: base[name] + h})
            lo = f(**{name: base[name] - h})
            grad_h = (hi - lo) / (2 * h)
            hi2 = f(**{name: base[name] + 2 * h})
            lo2 = f(**{name: base[name] - 2 * h})
            grad_2h = (hi2 - lo2) / (4 * h)
            assert grad_h == pytest.approx(grad_2h, rel=1e-4, abs=1e-6)


def test_kalman_degenerate_variance():
    ssm = LinearGaussianSSM(a=1.0, b=0.0, q=0.0, c=0.0, r_obs=0.0,
                            x0_mean=0.0, x0_var=0.0)
    assert pk.kalman_loglik(ssm, np.array([1.0])) == -np.inf


# ---------------------------------------------------------------------------
# exact MLE


def test_exact_mle_recovers_growth_rate_at_low_noise():
    truth = pk.ParamVector({"r": 0.2, "K": 1.0, "sigma": 0.02, "tau": 0.05, "X.0": 0.5})
    model = pk.gompertz_model(n_obs=500)
    rec = pk.simulate(model, truth, seed=5)[0]
    fitted = pk.attach_data(model, rec)
    start = truth.replace(r=0.1)
    theta, loglik, res = pk.kalman_exact_mle(fitted.data, start)
    assert theta["r"] == pytest.approx(0.2, rel=0.10)
    assert theta["K"] == 1.0 and theta["X.0"] == 0.5  # held fixed


def test_exact_mle_dominates_truth(gompertz_fitted, gompertz_exact_loglik,
                                   gompertz_exact_mle):
    _, loglik_mle = gompertz_exact_mle
    assert loglik_mle >= gompertz_exact_loglik - 1e-6


# ---------------------------------------------------------------------------
# Nelder-Mead


def test_quadratic_bowl():
    res = nelder_mead(lambda x: (x[0] - 2.0) ** 2, np.array([10.0]))
    assert res.x[0] == pytest.approx(2.0, abs=1e-4)
    assert res.status == "converged"


def test_rosenbrock():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    res = nelder_mead(rosen, np.array([-1.2, 1.0]), maxit=2000, reltol=1e-8)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_constant_objective_degenerate():
    res = nelder_mead(lambda x: 3.14, np.array([1.0, 2.0]))
    assert np.allclose(res.x, [1.0, 2.0])
    assert res.status == "converged-degenerate"


def test_never_worse_than_start():
    rng = np.random.default_rng(8)

    def nasty(x):
        return float(np.sum(np.abs(x) ** 1.3) + 3 * np.sin(4 * x).sum())

    for _ in range(20):
        x0 = rng.normal(size=3) * 4
        res = nelder_mead(nasty, x0, maxit=200)
        assert res.fun <= nasty(x0) + 1e-8


def test_nan_treated_as_inf(caplog):
    def partial(x):
        return np.nan if x[0] < 0 else (x[0] - 1.0) ** 2

    res = nelder_mead(partial, np.array([3.0]))
    assert res.x[0] == pytest.approx(1.0, abs=1e-3)


def test_nonfinite_start_rejected():
    with pytest.raises(DomainError):
        nelder_mead(lambda x: np.nan, np.array([0.0]))


def test_exact_mle_is_the_shared_fitter_and_keeps_its_numbers(gompertz_fitted):
    # the fit's numbers from when kalman_exact_mle ran its own log-scale simplex
    from pompkit.oracle import FitResult

    theta, loglik, res = pk.kalman_exact_mle(gompertz_fitted.data, gompertz_fitted.params)
    assert isinstance(res, FitResult) and res.theta == theta and res.value == loglik
    assert theta.as_dict() == {
        "r": float.fromhex("0x1.ee1ccecb1eda9p-4"), "K": 1.0,
        "sigma": float.fromhex("0x1.065b9abfdb915p-3"),
        "tau": float.fromhex("0x1.7b51747166944p-4"), "X.0": 1.0}
    assert loglik == float.fromhex("0x1.127199a9bec17p+5")
    assert res.status == "converged" and res.n_evals == 89
