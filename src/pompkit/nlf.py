"""Nonlinear-forecasting simulated quasi-likelihood.

A long stationary simulation trains a lagged radial-basis regression that
predicts each observation from earlier ones; applying the trained predictor
to the data yields Gaussian prediction errors whose log density is the
quasi-log-likelihood.  The simulation seed is held fixed across calls with
the same settings, so the objective is deterministic and can be handed to a
simplex optimizer.

The radial basis functions are Gaussian bumps,
``f_k(x) = exp(-(x - m_k)**2 / (2 s**2))``, with centers spread over the
simulated range plus a 20% overhang and a scale of 0.3 times the range.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .exceptions import DomainError, require_batch, require_integer
from .oracle import FitResult, fit_on_estimation_scale
from .rng import stream

__all__ = ["NlfSettings", "rbf_centers", "nlf_quasi_loglik", "nlf_fit"]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class NlfSettings:
    """Controls for the quasi-likelihood: lags, basis size, simulation lengths.

    ``transient`` observations are simulated and discarded before the
    ``sim_length`` used for fitting; both must exceed the largest lag, and
    an array must be able to hold their sum and the (sim_length, lags x
    n_rbf) design of the radial basis.
    """

    lags: tuple
    sim_length: int = 1000          # fitted portion of the simulation
    transient: int = 1000           # discarded warm-up
    n_rbf: int = 4
    est: tuple = ()
    transform: bool = True

    def __post_init__(self):
        lags = tuple(require_integer("lags", lag, 1) for lag in self.lags)
        if not lags:
            raise DomainError("lags must be a non-empty list")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "est", tuple(self.est))
        object.__setattr__(self, "n_rbf", require_integer("n_rbf", self.n_rbf, 2))
        for name in ("sim_length", "transient"):  # each must exceed max(lags)
            object.__setattr__(self, name,
                               require_integer(name, getattr(self, name), max(lags) + 1))
        require_batch(self.transient + self.sim_length,
                      f"{self.transient} transient + {self.sim_length} fitted observations")
        require_batch(self.sim_length * len(lags) * self.n_rbf,
                      f"{self.sim_length} fitted observations x {len(lags)} lag(s) x "
                      f"{self.n_rbf} basis functions")


def rbf_centers(ymin: float, ymax: float, n_rbf: int):
    """Centers and scale for the radial basis over the range [ymin, ymax].

    Centers span the range widened by 10% on each side; the common scale is
    0.3 times the range.  A degenerate range is an error.
    """
    n_rbf = require_integer("n_rbf", n_rbf, 2)
    span = float(ymax) - float(ymin)
    if not span > 0:
        raise DomainError(f"degenerate simulated range [{ymin}, {ymax}]")
    k = np.arange(n_rbf, dtype=float)
    centers = ymin + span * (1.2 * k / (n_rbf - 1) - 0.1)
    return centers, 0.3 * span


def _rbf_design(values: np.ndarray, lags, centers, scale) -> np.ndarray:
    """Design matrix of radial-basis features of lagged values.

    ``values`` is the series, rows of the output correspond to targets
    values[max_lag:], columns to (lag j, basis k) pairs.
    """
    max_lag = max(lags)
    n = values.size
    cols = []
    for lag in lags:
        lagged = values[max_lag - lag : n - lag]
        cols.append(np.exp(-((lagged[:, None] - centers[None, :]) ** 2)
                           / (2.0 * scale**2)))
    return np.concatenate(cols, axis=1)


def _fitted_series(model: core.ModelSpec, settings: NlfSettings):
    """The observed series and its time step; :class:`DomainError` for data the
    quasi-likelihood cannot fit: covariates, more than one observable, no more
    observations than the largest lag, a missing value or an uneven grid."""
    if model.covariates is not None:
        raise DomainError("quasi-likelihood fitting does not support models "
                          "with time-varying covariates")
    if len(model.obs_names) != 1:
        raise DomainError("quasi-likelihood fitting supports a single observable")
    data = model.data
    max_lag = max(settings.lags)
    if data.n_obs <= max_lag:
        raise DomainError(f"need more than max(lags)={max_lag} observations")
    y_star = data.observations[:, 0]
    if np.isnan(y_star).any():
        raise DomainError("quasi-likelihood fitting requires complete data")
    # spacing from the observation grid itself; t0 may coincide with the
    # first observation time (the long simulation is stationary either way)
    dt = core._even_step(data.times)
    if dt is None:
        raise DomainError("quasi-likelihood fitting requires evenly spaced observations")
    return y_star, dt


def nlf_quasi_loglik(model: core.ModelSpec, params=None,
                     settings: NlfSettings = None, seed=0) -> float:
    """Simulated quasi-log-likelihood of the data at one parameter point.

    Deterministic given ``(params, settings, seed)``.  Models with
    time-varying covariates are rejected: the method assumes stationarity.
    """
    if settings is None:
        raise DomainError("settings are required")
    model.require("quasi-likelihood", "rprocess", "rmeasure")
    y_star, dt = _fitted_series(model, settings)
    max_lag = max(settings.lags)
    total = settings.transient + settings.sim_length
    sim_times = model.data.t0 + dt * np.arange(1, total + 1)
    _, obs_arrays = core.simulate_paths(model, params, stream(seed, "nlf"), 1,
                                        times=sim_times, t0=model.data.t0)
    series = obs_arrays[0, :, 0]
    fitted = series[settings.transient:]

    centers, scale = rbf_centers(fitted.min(), fitted.max(), settings.n_rbf)
    # Training targets are the post-transient simulated values; predictors may
    # reach back into the transient by at most max_lag.
    train = series[settings.transient - max_lag:]
    design = _rbf_design(train, settings.lags, centers, scale)
    target = train[max_lag:]
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        logger.warning("rank-deficient radial-basis fit (rank %d of %d); "
                       "minimum-norm coefficients used", rank, design.shape[1])
    resid = target - design @ coef
    sigma2 = float(np.mean(resid**2))
    if sigma2 <= 1e-12 * max(float(np.mean(target**2)), np.finfo(float).tiny):
        raise DomainError("degenerate deterministic fit: zero residual variance")

    data_design = _rbf_design(y_star, settings.lags, centers, scale)
    data_resid = y_star[max_lag:] - data_design @ coef
    n_terms = y_star.size - max_lag
    return float(-0.5 * n_terms * math.log(2.0 * math.pi * sigma2)
                 - np.sum(data_resid**2) / (2.0 * sigma2))


def nlf_fit(model: core.ModelSpec, start: core.ParamVector,
            settings: NlfSettings, seed=0, maxit=400, reltol=1e-6) -> FitResult:
    """Maximize the quasi-log-likelihood over ``settings.est``.

    Runs the simplex search on the estimation scale with the simulation seed
    fixed across evaluations; a non-converged search returns the best point
    found, flagged in ``status``.
    """
    return fit_on_estimation_scale(
        model, start, settings.est,
        lambda theta: nlf_quasi_loglik(model, theta, settings, seed),
        transform=settings.transform, maxit=maxit, reltol=reltol)
