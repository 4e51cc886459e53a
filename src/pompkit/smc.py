"""Sequential Monte Carlo likelihood evaluation (the particle filter).

One filtering pass propagates a swarm of J particles through the latent
process, weights them by the measurement density at each observation,
resamples systematically, and accumulates per-step conditional log
likelihoods whose sum estimates the log likelihood.  Resampling happens at
every observation; there is no ESS-triggered adaptive scheme.

The step loop lives in one private kernel, ``_filter_pass``.  :func:`pfilter`
runs it at fixed parameters; iterated filtering (:mod:`pompkit.mif`) runs the
same kernel with hooks that perturb the per-particle parameter swarm before
each advance and resample it along with the states.  The kernel also enforces
the never-NaN ``dmeasure`` contract: the maximum log weight it takes at every
step propagates NaN from any particle, so one comparison on that maximum
raises :class:`~pompkit.exceptions.DomainError` without a separate scan.

The estimator is unbiased for the likelihood (not the log likelihood), which
is why replicate estimates are combined with :func:`logmeanexp`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import core
from .exceptions import DomainError, FilteringFailureError, require_integer
from .rng import stream

__all__ = ["FilterResult", "pfilter", "systematic_resample", "ess", "logmeanexp"]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class FilterResult:
    """Output of one particle-filtering pass.

    ``loglik`` always equals ``cond_logliks.sum()``; ``ess`` holds the
    effective sample size of the weights at each observation and
    ``filter_means`` the weighted state means before resampling.
    """

    loglik: float
    cond_logliks: np.ndarray
    ess: np.ndarray
    filter_means: np.ndarray
    num_particles: int
    n_failures: int = 0
    final_particles: Optional[np.ndarray] = None


def systematic_resample(weights, rng, n=None) -> np.ndarray:
    """Systematic resampling: one uniform draw, n evenly spaced sampling points.

    Returns 0-based indices ``k`` with ``P(k_j = m)`` equal to the normalized
    weight of particle m, and the count of each index m guaranteed to lie in
    {floor(n*w_m), ceil(n*w_m)}.  ``n`` defaults to the number of weights, in
    which case equal weights reproduce ``arange(n)`` for every draw.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a non-empty 1-D vector")
    if not (w.min() >= 0 and w.max() < np.inf):
        raise DomainError("weights must be finite and non-negative")
    total = w.sum()
    if not total > 0:
        raise DomainError("all weights are zero")
    n = w.size if n is None else int(n)
    return _systematic_resample(w / total, rng, np.arange(n))


def _systematic_resample(w_norm, rng, grid) -> np.ndarray:
    """:func:`systematic_resample` without its checks, for finite non-negative
    weights that sum to one; ``grid`` is ``arange(n)``."""
    cumulative = w_norm.cumsum()
    cumulative[-1] = 1.0
    return cumulative.searchsorted((rng.random() + grid) / grid.size, side="left")


def ess(weights) -> float:
    """Effective sample size 1 / sum(w_tilde**2) of a weight vector."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise DomainError("all weights are zero")
    w = w / total
    return float(1.0 / (w * w).sum())


def logmeanexp(values, with_se=False):
    """log(mean(exp(values))), computed stably, with an optional jackknife SE.

    The SE is the delta-method jackknife over the vector; it is NaN for a
    single value (undefined rather than zero).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("logmeanexp needs a non-empty vector")
    m = np.max(x)
    if not np.isfinite(m):
        est = float(m)
    else:
        est = float(m + np.log(np.mean(np.exp(x - m))))
    if not with_se:
        return est
    n = x.size
    if n == 1:
        return est, float("nan")
    loo = np.empty(n)
    for k in range(n):
        loo[k] = logmeanexp(np.delete(x, k))
    se = float((n - 1) * np.std(loo, ddof=1) / math.sqrt(n))
    return est, se


def pfilter(model: core.ModelSpec, params=None, num_particles=1000, seed=0,
            max_fail=0, save_final_particles=False) -> FilterResult:
    """Run the particle filter and estimate the log likelihood.

    A step where every particle weight vanishes is a filtering failure.  By
    default that raises :class:`FilteringFailureError` naming the step; with
    ``max_fail`` > 0 up to that many failed steps instead contribute -inf to
    the log likelihood while the swarm continues unresampled.

    Deterministic given ``(seed, num_particles)``, independent of worker count.
    """
    model.require("particle filtering", "rprocess", "dmeasure")
    num_particles = require_integer("num_particles", num_particles, 1)
    p = core.params_to_dict(model.default_params(params))
    rng = stream(seed, "pfilter")
    x = core._init_states(model, p, model.data.t0, rng, num_particles)
    result = _filter_pass(model, x, p, rng, max_fail)
    return result if save_final_particles else replace(result, final_particles=None)


def _filter_pass(model: core.ModelSpec, x, params, rng, max_fail, perturb=None,
                 on_resample=None) -> FilterResult:
    """One filtering pass of the (J, q) swarm ``x`` over every observation.

    Each step advances the swarm, weights it by the measurement density,
    resamples it systematically and zeroes the accumulators.  The hooks let
    iterated filtering ride on the same loop: ``perturb()`` runs before each
    advance and returns the parameters for that step; ``on_resample(idx)``
    receives each step's resampling indices (no call after a tolerated
    failure, which leaves the swarm unresampled).  ``final_particles`` holds
    the swarm after the last step.
    """
    data = model.data
    J = x.shape[0]
    N = data.n_obs
    cond_logliks = np.empty(N)
    ess_vec = np.empty(N)
    filter_means = np.empty((N, model.n_states))
    n_failures = 0
    records, all_missing = data._records, data._all_missing
    grid = np.arange(J)

    t_prev = data.t0
    for n in range(N):
        t = float(data.times[n])
        if perturb is not None:
            params = perturb()
        x = core.advance(model, x, params, t_prev, t, rng)
        if all_missing[n]:
            logw = np.zeros(J)
        else:
            logw = core.measurement_logdensity(model, records[n], x, params, t)
        max_logw = logw.max()
        if max_logw != max_logw:  # the maximum propagates NaN from any particle
            raise DomainError(f"dmeasure returned NaN at t={t}; "
                              "it must return finite values or -inf")
        if not math.isfinite(max_logw):
            n_failures += 1
            if n_failures > max_fail:
                raise FilteringFailureError(n + 1, t)
            logger.warning("filtering failure at step %d (t=%g): zero weights tolerated "
                           "(%d of %s)", n + 1, t, n_failures, max_fail)
            cond_logliks[n] = -np.inf
            ess_vec[n] = J
            filter_means[n] = x.mean(axis=0)
        else:
            w = np.exp(logw - max_logw)
            sum_w = w.sum()
            cond_logliks[n] = max_logw + np.log(sum_w / J)
            w_norm = w / sum_w
            ess_vec[n] = 1.0 / (w_norm * w_norm).sum()
            filter_means[n] = w_norm @ x
            # exp() of finite-max log weights: finite, non-negative, max term 1
            idx = _systematic_resample(w_norm, rng, grid)
            x = x[idx]
            if on_resample is not None:
                on_resample(idx)
        core._reset_accumulators(model, x)
        t_prev = t

    return FilterResult(
        loglik=float(cond_logliks.sum()),
        cond_logliks=cond_logliks,
        ess=ess_vec,
        filter_means=filter_means,
        num_particles=J,
        n_failures=n_failures,
        final_particles=x,
    )
