"""Exact reference computations for verifying Monte Carlo output.

The scalar linear-Gaussian state-space model here matches the log scale of
the Gompertz population model: the log state is AR(1) with Gaussian noise and
is observed through additive Gaussian noise on the log scale, i.e. lognormal
measurement error on the natural scale.  Its likelihood is therefore exact
and directly comparable to particle-filter estimates of the Gompertz
likelihood, because :func:`kalman_loglik` includes the lognormal Jacobian.

Also hosts the derivative-free simplex optimizer used wherever the package
maximizes a noisy-but-deterministic objective, and the estimation-scale
fitter that probe matching, quasi-likelihood fitting and
:func:`kalman_exact_mle` share; the last returns that fitter's
:class:`FitResult` as its third element.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ParamVector, TimeSeriesData, _even_step, _from_estimation, _to_estimation,
                   one_run)
from .exceptions import DomainError, SingularCovarianceError, require_integer, require_names
from .models import gompertz_model

__all__ = [
    "LinearGaussianSSM",
    "kalman_loglik",
    "gompertz_ssm",
    "kalman_exact_mle",
    "nelder_mead",
    "NelderMeadResult",
]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class LinearGaussianSSM:
    """Scalar AR(1)-plus-noise state-space model on the log scale.

    State:        x_n = a * x_{n-1} + b + N(0, q)
    Observation:  z_n = x_n + c + N(0, r_obs),  z_n = log(y_n)

    ``x0_mean``/``x0_var`` give the state moments at the initial time (a point
    initializer has ``x0_var = 0``).
    """

    a: float
    b: float
    q: float
    c: float
    r_obs: float
    x0_mean: float
    x0_var: float = 0.0

    def __post_init__(self):
        if not (self.q >= 0 and self.r_obs >= 0 and self.x0_var >= 0):
            raise DomainError(f"variances must be non-negative, got q={self.q!r}, "
                              f"r_obs={self.r_obs!r}, x0_var={self.x0_var!r}")


def kalman_loglik(ssm: LinearGaussianSSM, y_log) -> float:
    """Exact log likelihood of log-scale observations, on the natural scale.

    ``y_log`` holds the log-transformed data.  The returned value includes the
    Jacobian term -sum(y_log) of the lognormal observation density, so it is
    directly comparable to a particle-filter log likelihood computed on the
    original data.  A zero predictive variance meeting a mismatched
    observation yields -inf.
    """
    z = np.asarray(y_log, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise DomainError("y_log must be a non-empty vector")
    if not np.all(np.isfinite(z)):
        raise DomainError("y_log must be finite")

    mean, var = ssm.x0_mean, ssm.x0_var
    total = 0.0
    log2pi = math.log(2.0 * math.pi)
    for zn in z:
        mean = ssm.a * mean + ssm.b
        var = ssm.a * ssm.a * var + ssm.q
        pred_var = var + ssm.r_obs
        resid = zn - (mean + ssm.c)
        if pred_var <= 0:
            if abs(resid) > 0:
                logger.warning("degenerate predictive variance with mismatched "
                               "observation; log likelihood is -inf")
                return float("-inf")
            gain = 0.0
        else:
            total += -0.5 * (log2pi + math.log(pred_var) + resid * resid / pred_var)
            gain = var / pred_var
        mean = mean + gain * resid
        var = (1.0 - gain) * var
    return total - float(z.sum())


def gompertz_ssm(params, delta_t=1.0) -> LinearGaussianSSM:
    """Log-scale linear-Gaussian form of the Gompertz model at ``params``.

    ``params`` needs r, K, sigma, tau, and X.0 entries.  Raises
    :class:`DomainError` unless K and X.0 are positive and the model's
    coefficients are finite (a large negative r overflows).  The CLI's
    ``kalman`` runner calls it before its first computation, so ``validate``
    refuses what the run would.
    """
    p = dict(params)
    if not (p["K"] > 0 and p["X.0"] > 0):
        raise DomainError(f"the log-scale Gompertz model needs positive K and X.0, "
                          f"got K={p['K']!r}, X.0={p['X.0']!r}")
    try:
        s = math.exp(-p["r"] * delta_t)
        ssm = LinearGaussianSSM(
            a=s,
            b=(1.0 - s) * math.log(p["K"]),
            q=p["sigma"] ** 2,
            c=0.0,
            r_obs=p["tau"] ** 2,
            x0_mean=math.log(p["X.0"]),
            x0_var=0.0,
        )
    except OverflowError:
        ssm = None
    if ssm is None or not all(map(math.isfinite, (ssm.a, ssm.b, ssm.q, ssm.r_obs, ssm.x0_mean))):
        raise DomainError(f"the log-scale Gompertz model is not finite at r={p['r']!r}, "
                          f"sigma={p['sigma']!r}, tau={p['tau']!r}, K={p['K']!r}")
    return ssm


def _gompertz_log_data(data: TimeSeriesData):
    """``(y_log, delta_t)``: the log of positive Gompertz data observed on an
    evenly spaced grid of step ``delta_t`` starting one step after t0."""
    y = data.observations[:, 0]
    if np.any(~(y > 0)):
        raise DomainError("Gompertz data must be positive")
    delta_t = _even_step(np.concatenate(([data.t0], data.times)))
    if delta_t is None:
        raise DomainError("the Kalman filter requires evenly spaced observations")
    return np.log(y), delta_t


def kalman_exact_mle(data: TimeSeriesData, start: ParamVector, maxit=2000,
                     reltol=1e-8):
    """Exact maximum-likelihood fit of (r, sigma, tau) for the Gompertz model.

    :func:`fit_on_estimation_scale` on the model's log scale, with K and X.0
    fixed at their values in ``start``; returns ``(ParamVector, loglik, FitResult)``.
    """
    y_log, delta_t = _gompertz_log_data(data)
    res = fit_on_estimation_scale(
        gompertz_model(data=data, params=start), start, ("r", "sigma", "tau"),
        lambda theta: kalman_loglik(gompertz_ssm(theta, delta_t), y_log),
        maxit=maxit, reltol=reltol)
    return res.theta, res.value, res


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    n_evals: int
    status: str  # "converged", "converged-degenerate", or "maxit"


def nelder_mead(f, x0, maxit=2000, reltol=1e-8) -> NelderMeadResult:
    """Minimize ``f`` by the Nelder-Mead simplex method.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    The initial simplex steps each coordinate by max(0.1, 0.1*|x0_i|).
    Terminates when the relative function-value spread across the simplex
    falls below ``reltol`` or after ``maxit`` function evaluations; always
    returns the best point seen, so the result is never worse than f(x0).
    NaN objective values are treated as +inf (and logged).
    """
    x0 = np.asarray(x0, dtype=float)
    maxit = require_integer("maxit", maxit, 1)
    n = x0.size
    evals = 0

    def eval_f(x):
        nonlocal evals
        evals += 1
        v = f(x)
        if math.isnan(v):
            logger.warning("objective returned NaN at %s; treating as +inf", x)
            return math.inf
        return float(v)

    f0 = eval_f(x0)
    if not math.isfinite(f0):
        raise DomainError("objective must be finite at the starting point")
    if n == 0:
        return NelderMeadResult(x=x0.copy(), fun=f0, n_evals=evals, status="converged")

    simplex = [x0.copy()]
    fvals = [f0]
    for i in range(n):
        xi = x0.copy()
        xi[i] += max(0.1, 0.1 * abs(x0[i]))
        simplex.append(xi)
        fvals.append(eval_f(xi))
    simplex = np.array(simplex)
    fvals = np.array(fvals)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    status = "maxit"
    moved = False
    while True:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        spread = fvals[-1] - fvals[0]
        if spread <= reltol * (abs(fvals[0]) + reltol):
            status = "converged" if moved else "converged-degenerate"
            break
        if evals >= maxit:
            break
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = eval_f(xr)
        if fr < fvals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = eval_f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
            moved = True
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
            moved = True
        else:
            if fr < fvals[-1]:
                xc = centroid + rho * (xr - centroid)
            else:
                xc = centroid + rho * (simplex[-1] - centroid)
            fc = eval_f(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
                moved = True
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fvals[i] = eval_f(simplex[i])
                moved = True

    best = int(np.argmin(fvals))
    return NelderMeadResult(
        x=simplex[best].copy(), fun=float(fvals[best]), n_evals=evals, status=status
    )


@dataclass(frozen=True)
class FitResult:
    """Best parameters found by :func:`fit_on_estimation_scale` and their objective."""

    theta: ParamVector
    value: float
    status: str
    n_evals: int


def _estimation_start(model, start: ParamVector, est, transform=True):
    """Every refusal :func:`fit_on_estimation_scale` makes before its first
    evaluation: ``est`` names that ``start`` lacks, and ``est`` values the
    transforms map to non-finite ones.  Returns the checked ``est``, the model
    the search transforms with (none unless ``transform``) and the start on the
    estimation scale."""
    est = require_names("est names", est, start.names)
    if not transform:
        model = replace(model, to_estimation=None, from_estimation=None)
    return est, model, np.array(list(_to_estimation(model, start, est).values()))


@one_run
def fit_on_estimation_scale(model, start: ParamVector, est, objective, transform=True,
                            maxit=400, reltol=1e-6) -> FitResult:
    """Maximize ``objective(theta)`` over the parameters named in ``est``.

    The simplex search runs on the model's estimation scale when ``transform``
    is set; parameters outside ``est`` keep their values in ``start`` bit for
    bit and never cross the transforms.  An objective that raises
    :class:`DomainError` or :class:`SingularCovarianceError` counts as -inf
    rather than aborting the search.  A non-converged search returns the best
    point found, flagged in ``status``.  With ``est`` empty the objective is
    evaluated once at ``start``.
    """
    est, model, x0 = _estimation_start(model, start, est, transform)
    if not est:
        return FitResult(theta=start, value=objective(start), status="converged",
                         n_evals=1)

    def unpack(x):
        return ParamVector(_from_estimation(model, start, dict(zip(est, x))))

    def negobjective(x):
        try:
            return -objective(unpack(x))
        except (DomainError, SingularCovarianceError) as err:
            logger.warning("objective degenerate at %s: %s", x, err)
            return math.inf

    res = nelder_mead(negobjective, x0, maxit=maxit, reltol=reltol)
    status = res.status if res.status != "maxit" else "maxit (best found returned)"
    return FitResult(theta=unpack(res.x), value=-res.fun, status=status, n_evals=res.n_evals)
