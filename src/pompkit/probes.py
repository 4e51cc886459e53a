"""Summary-statistic (probe) machinery and simulation-based synthetic likelihood.

A probe maps an observed time series to one or more real numbers.  Applying a
probe list to the data and to many model simulations yields a multivariate
sample whose Gaussian density at the observed values is the synthetic log
likelihood; maximizing it over parameters is probe matching.

Probe ``apply`` callbacks are vectorized: they receive a mapping from
observable name to a (batch, N) array and return (batch, arity) values.
They are deterministic, so identical series give identical values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .exceptions import DomainError, SingularCovarianceError, require_integer
from .oracle import FitResult, fit_on_estimation_scale
from .rng import stream

__all__ = [
    "Probe",
    "probe_mean",
    "probe_acf",
    "probe_nlar",
    "probe_marginal",
    "synth_loglik",
    "probe",
    "ProbeResult",
    "probe_match",
]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class Probe:
    """A named, fixed-arity, deterministic summary of a time series."""

    name: str
    arity: int
    apply: Callable
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:
            labels = (self.name,) if self.arity == 1 else tuple(
                f"{self.name}[{i}]" for i in range(self.arity))
            object.__setattr__(self, "labels", labels)
        if len(self.labels) != self.arity:
            raise DomainError("labels must match arity")


def _get_series(batch: dict, var: str, transform) -> np.ndarray:
    try:
        y = batch[var]
    except KeyError:
        raise DomainError(f"probe variable {var!r} not among observables "
                          f"{sorted(batch)}") from None
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return transform(y) if transform is not None else y


def probe_mean(var: str, transform=None) -> Probe:
    """Mean of the (optionally transformed) series."""

    def apply(batch):
        y = _get_series(batch, var, transform)
        if y.shape[1] == 0:
            raise DomainError("probe_mean needs a non-empty series")
        return y.mean(axis=1, keepdims=True)

    label = f"mean.{var}"
    return Probe(name=label, arity=1, apply=apply)


def probe_acf(var: str, lags, transform=None) -> Probe:
    """Sample autocovariance of the mean-centered series at each lag (divisor N)."""
    lags = tuple(require_integer("lags", lag, 0) for lag in lags)

    def apply(batch):
        y = _get_series(batch, var, transform)
        n = y.shape[1]
        if any(l >= n for l in lags):
            raise DomainError(f"acf lag exceeds series length {n}")
        z = y - y.mean(axis=1, keepdims=True)
        out = np.empty((y.shape[0], len(lags)))
        for i, lag in enumerate(lags):
            out[:, i] = np.einsum("bt,bt->b", z[:, : n - lag], z[:, lag:]) / n
        return out

    name = f"acf.{var}"
    return Probe(name=name, arity=len(lags), apply=apply,
                 labels=tuple(f"{name}[{l}]" for l in lags))


def probe_nlar(var: str, lags, powers, transform=None) -> Probe:
    """Coefficients of a polynomial autoregression fitted by least squares.

    Fits y_t ~ sum_j a_j * y_{t-lag_j} ** power_j with no intercept over all t
    where every lag is available.  A singular design falls back to the
    minimum-norm solution (logged); a series whose design or target is not
    finite has no such fit, and gets NaN coefficients.
    """
    lags = tuple(require_integer("lags", lag, 1) for lag in lags)
    powers = tuple(require_integer("powers", p) for p in powers)
    if not lags or len(lags) != len(powers):
        raise DomainError("lags and powers must be non-empty and of equal length")
    max_lag = max(lags)

    def apply(batch):
        y = _get_series(batch, var, transform)
        n = y.shape[1]
        if n <= max_lag:
            raise DomainError(f"series length {n} too short for lag {max_lag}")
        target = y[:, max_lag:]
        design = np.stack(
            [y[:, max_lag - lag : n - lag] ** power for lag, power in zip(lags, powers)],
            axis=2,
        )
        gram = np.einsum("btj,btk->bjk", design, design)
        moment = np.einsum("btj,bt->bj", design, target)
        try:
            return np.linalg.solve(gram, moment[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            logger.warning("singular autoregression design; using minimum-norm fit")
            coefs = np.full((y.shape[0], len(lags)), np.nan)
            for b in range(y.shape[0]):
                if np.isfinite(design[b]).all() and np.isfinite(target[b]).all():
                    coefs[b] = np.linalg.lstsq(design[b], target[b], rcond=None)[0]
            return coefs

    name = f"nlar.{var}"
    return Probe(name=name, arity=len(lags), apply=apply,
                 labels=tuple(f"{name}[{l}^{p}]" for l, p in zip(lags, powers)))


def probe_marginal(var: str, ref, npoly: int = 3, transform=None) -> Probe:
    """Regression of the sorted series on powers of the reference quantiles.

    The reference series is transformed, sorted, interpolated to the series
    length, and centered; the probe values are the least-squares coefficients
    of its first ``npoly`` powers (an intercept absorbs location).  An affine
    image of the reference therefore maps to (slope, 0, ..., 0).  It needs
    ``npoly`` below the reference length and a finite transformed reference.
    """
    npoly = require_integer("npoly", npoly, 1)
    ref = np.asarray(ref, dtype=float).ravel()
    if ref.size < 2:
        raise DomainError("reference series must have at least 2 points")
    if npoly >= ref.size:
        raise DomainError(f"npoly must be less than the reference length {ref.size}, "
                          f"got {npoly}")
    with np.errstate(invalid="ignore", divide="ignore"):
        ref_t = np.sort(transform(ref) if transform is not None else ref)
    if not np.isfinite(ref_t).all():
        raise DomainError("reference series is not finite after its transform")
    if ref_t[0] == ref_t[-1]:
        raise DomainError("reference series has zero variance")

    def apply(batch):
        y = _get_series(batch, var, transform)
        n = y.shape[1]
        q = np.quantile(ref_t, np.linspace(0.0, 1.0, n)) if n != ref_t.size else ref_t
        z = q - q.mean()
        basis = np.vander(z, npoly + 1, increasing=True)  # [1, z, z^2, ...]
        solver = np.linalg.pinv(basis)
        coefs = np.sort(y, axis=1) @ solver.T
        return coefs[:, 1:]

    name = f"marginal.{var}"
    return Probe(name=name, arity=npoly, apply=apply,
                 labels=tuple(f"{name}[{k}]" for k in range(1, npoly + 1)))


def apply_probes(probes, model: core.ModelSpec, obs_arrays=None) -> np.ndarray:
    """Stack all probe values, (batch, total arity), for (batch, N, r) simulated
    observations of ``model``, or for its data as a batch of one.  An overflow or
    a value outside a transform's domain comes back non-finite, unwarned."""
    obs = model.data.observations[None] if obs_arrays is None else obs_arrays
    batch = {name: obs[:, :, i] for i, name in enumerate(model.obs_names)}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.concatenate([np.asarray(p.apply(batch), dtype=float) for p in probes], 1)


def probe_labels(probes) -> tuple:
    return tuple(label for p in probes for label in p.labels)


def _refuse_probes(what, labels, bad) -> None:
    """:class:`DomainError` ``"<what>: [...]"`` naming the ``labels`` flagged in ``bad``."""
    if bad.any():
        raise DomainError(f"{what}: {[labels[i] for i in np.flatnonzero(bad)]}")


def _diagnose_singular(simulated: np.ndarray, labels) -> list:
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        sd = simulated.std(axis=0, ddof=1)
        corr = np.corrcoef(simulated.T).reshape(len(labels), len(labels))
    suspects = [labels[i] for i, s in enumerate(sd) if s == 0 or not np.isfinite(s)]
    if len(suspects) < len(labels):
        for i in range(len(labels)):
            for k in range(i + 1, len(labels)):
                if abs(corr[i, k]) > 1 - 1e-10:
                    suspects.extend([labels[i], labels[k]])
    return list(dict.fromkeys(suspects))


def synth_loglik(simulated, observed, labels=None) -> float:
    """Gaussian log density of the observed probes under the simulated sample.

    Uses the sample mean and covariance (divisor J-1) of the J simulated probe
    vectors.  A probe value, mean or variance that is not finite raises
    :class:`DomainError`, and a singular covariance
    :class:`SingularCovarianceError`, each naming the probes; no silent
    regularization is applied.
    """
    import scipy.linalg

    sims = np.asarray(simulated, dtype=float)
    obs = np.asarray(observed, dtype=float).ravel()
    if sims.ndim != 2 or sims.shape[1] != obs.size:
        raise DomainError("simulated must be (J, d) matching observed length d")
    J, d = sims.shape
    if J <= d:
        raise DomainError(f"need more simulations ({J}) than probes ({d}) "
                          "for an invertible covariance")
    labels = tuple(labels) if labels is not None else tuple(f"probe[{i}]" for i in range(d))
    with np.errstate(over="ignore", invalid="ignore"):
        mu = sims.mean(axis=0)
        cov = np.cov(sims, rowvar=False, ddof=1).reshape(d, d)
    _refuse_probes("probes whose observed or simulated values or moments are not finite",
                   labels, ~(np.isfinite(obs) & np.isfinite(sims).all(axis=0)
                             & np.isfinite(mu + np.diag(cov))))
    try:
        chol = scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise SingularCovarianceError(_diagnose_singular(sims, labels), str(err)) from None
    resid = scipy.linalg.solve_triangular(chol, obs - mu, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * resid @ resid - 0.5 * logdet - 0.5 * d * math.log(2.0 * math.pi))


@dataclass(frozen=True)
class ProbeResult:
    """Observed and simulated probe values with comparison summaries.

    ``simulated_obs`` holds the (nsim, N, r) simulated observations that the
    simulated probe values were computed from.
    """

    labels: tuple
    observed: np.ndarray
    simulated: np.ndarray
    synth_loglik: float
    p_values: np.ndarray
    correlations: np.ndarray
    simulated_obs: np.ndarray

    @property
    def n_sim(self) -> int:
        return self.simulated.shape[0]


def _two_sided_p_values(simulated: np.ndarray, observed: np.ndarray) -> np.ndarray:
    J = simulated.shape[0]
    below = (simulated < observed).sum(axis=0)
    above = (simulated > observed).sum(axis=0)
    return np.minimum(1.0, 2.0 * (np.minimum(below, above) + 1.0) / (J + 1.0))


def probe(model: core.ModelSpec, params=None, probes=(), nsim=1000, seed=0) -> ProbeResult:
    """Synthetic-likelihood evaluation of a probe list at one parameter point.

    Applies the probes to the data and to ``nsim`` simulated datasets; returns
    the synthetic log likelihood, a rank-based two-sided p value per probe,
    and the pairwise correlations of the simulated probes.
    """
    model.require("probe evaluation", "rprocess", "rmeasure")
    if not probes:
        raise DomainError("probe list is empty")
    nsim = require_integer("nsim", nsim, 2)
    observed = apply_probes(probes, model)[0]
    _, obs_arrays = core.simulate_paths(model, params, stream(seed, "probe"), nsim)
    simulated = apply_probes(probes, model, obs_arrays)
    labels = probe_labels(probes)
    with np.errstate(invalid="ignore", divide="ignore"):
        correlations = np.corrcoef(simulated.T).reshape(len(labels), len(labels))
    return ProbeResult(
        labels=labels,
        observed=observed,
        simulated=simulated,
        synth_loglik=synth_loglik(simulated, observed, labels),
        p_values=_two_sided_p_values(simulated, observed),
        correlations=correlations,
        simulated_obs=obs_arrays,
    )


def probe_match(model: core.ModelSpec, start: core.ParamVector, est, probes,
                nsim=1000, seed=0, transform=True, maxit=400,
                reltol=1e-6) -> FitResult:
    """Maximize the synthetic log likelihood over the named parameters.

    The simulation seed is held fixed across objective evaluations, making the
    objective deterministic; the search runs on the estimation scale when
    ``transform`` is set.  Degenerate probe covariances during the search count
    as objective -inf rather than aborting.
    """
    return fit_on_estimation_scale(
        model, start, est,
        lambda theta: probe(model, theta, probes, nsim=nsim, seed=seed).synth_loglik,
        transform=transform, maxit=maxit, reltol=reltol)
