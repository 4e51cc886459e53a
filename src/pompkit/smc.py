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

The kernel also runs K independent filters as the K blocks of one swarm of
K*J particles, whose parameters may differ per block (per-particle arrays,
the form mif uses).  The simulator and the measurement density run once per
step on the whole swarm; each block is then weighted and resampled on its
own, by the same operations as a one-block pass, and counts its own
filtering failures.  The private ``_pfilter_blocks`` runs replicate filters
this way, for the CLI's ``replicates`` and mif evaluations; :func:`pfilter`
is its one-block case.  A batched replicate draws from the shared stream, so
it is not the standalone :func:`pfilter` run on any seed.

Each step's effective sample size and weighted state mean are diagnostics
that only :func:`pfilter` and the CLI's ``pfilter`` runner report.  The
passes whose callers read the likelihood alone (each PMMH proposal, every
mif iteration and the CLI's mif evaluations) run with ``diagnostics=False``:
they skip both, and their results carry ``ess`` and ``filter_means`` as
``None``.  No random draw depends on either, so the likelihood, the failure
counts and the final swarm are the same with and without them.

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
from .exceptions import DomainError, FilteringFailureError, require_batch, require_integer
from .rng import stream

__all__ = ["FilterResult", "pfilter", "systematic_resample", "ess", "logmeanexp"]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class FilterResult:
    """Output of one particle-filtering pass.

    ``loglik`` always equals ``cond_logliks.sum()``; ``ess`` holds the
    effective sample size of the weights at each observation and
    ``filter_means`` the weighted state means before resampling.  Those two
    are filled for :func:`pfilter` and the CLI's ``pfilter`` runner; the
    internal passes of pmcmc, mif and the CLI's mif evaluations skip them and
    carry ``None``.
    """

    loglik: float
    cond_logliks: np.ndarray
    ess: Optional[np.ndarray]
    filter_means: Optional[np.ndarray]
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
    w, total = _checked_weights(weights)
    n = w.size if n is None else require_integer("n", n, 1)
    return _systematic_resample(w / total, rng, np.arange(n))


def _checked_weights(weights):
    """``weights`` as a float vector, and its sum; :class:`DomainError` unless
    they are a non-empty 1-D vector of finite non-negative values, not all zero."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a non-empty 1-D vector")
    if not (w.min() >= 0 and w.max() < np.inf):
        raise DomainError("weights must be finite and non-negative")
    total = w.sum()
    if not total > 0:
        raise DomainError("all weights are zero")
    return w, total


def _systematic_resample(w_norm, rng, grid) -> np.ndarray:
    """:func:`systematic_resample` without its checks, for finite non-negative
    weights that sum to one; ``grid`` is ``arange(n)``."""
    cumulative = w_norm.cumsum()
    cumulative[-1] = 1.0
    return cumulative.searchsorted((rng.random() + grid) / grid.size, side="left")


def ess(weights) -> float:
    """Effective sample size 1 / sum(w_tilde**2) of a weight vector.

    The weights are checked as :func:`systematic_resample` checks them.
    """
    w, total = _checked_weights(weights)
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

    Deterministic given ``(seed, num_particles)``.
    """
    (result,) = _pfilter_blocks(model, [params], num_particles, seed, max_fail)
    return result if save_final_particles else replace(result, final_particles=None)


def _pfilter_blocks(model: core.ModelSpec, params_per_block, num_particles=1000, seed=0,
                    max_fail=0, diagnostics=True) -> list:
    """K independent filters at fixed parameters, run as the K blocks of one swarm.

    Block k has ``num_particles`` particles at ``params_per_block[k]`` (``None``
    for the model's defaults).  Every block counts its own failures against
    ``max_fail``.  Returns one :class:`FilterResult` per block, with its final
    particles; K = 1 is :func:`pfilter`.  ``diagnostics=False`` skips the ESS
    and filter means (see :func:`_filter_pass`).
    """
    model.require("particle filtering", "rprocess", "dmeasure")
    num_particles = require_integer("num_particles", num_particles, 1)
    max_fail = require_integer("max_fail", max_fail, 0)
    p = _block_params([core.params_to_dict(model.default_params(b))
                       for b in params_per_block], num_particles)
    rng = stream(seed, "pfilter")
    K = len(params_per_block)
    x = core._init_states(model, p, model.data.t0, rng, K * num_particles)
    return _filter_pass(model, x, p, rng, max_fail, blocks=K, diagnostics=diagnostics)


def _block_params(dicts, J) -> dict:
    """One parameter dict for K blocks of J particles, from the K blocks' dicts.

    A parameter with the same value in every block stays a scalar; any other
    becomes a per-particle (K*J,) array holding block k's value in rows
    k*J..(k+1)*J-1.  The kernels build it before anything else of K*J rows,
    so it refuses a swarm that no array can hold.
    """
    require_batch(len(dicts) * J, f"{len(dicts)} block(s) of {J} particles")
    if len(dicts) == 1:
        return dicts[0]
    out = {}
    for name in dicts[0]:
        values = [d[name] for d in dicts]
        same = all(v == values[0] for v in values)
        out[name] = values[0] if same else np.repeat(np.asarray(values, dtype=float), J)
    return out


@core.one_run
def _filter_pass(model: core.ModelSpec, x, params, rng, max_fail, perturb=None,
                 on_resample=None, blocks=1, diagnostics=True) -> list:
    """One filtering pass of the (K*J, q) swarm ``x`` over every observation.

    Each step advances the swarm, weights it by the measurement density,
    resamples it systematically and zeroes the accumulators.  The hooks let
    iterated filtering ride on the same loop: ``perturb()`` runs before each
    advance and returns the parameters for that step; ``on_resample(idx)``
    receives each step's resampling indices (no call after a step where every
    block failed, which leaves the swarm unresampled).

    ``blocks`` = K splits the swarm into K independent filters of J
    particles, rows k*J..(k+1)*J-1 for block k.  Advance and measurement
    density run once per step on the whole swarm; each block is then
    weighted and resampled on its own, by the same operations as a one-block
    pass, and counts its own failures against ``max_fail``.  A failed block
    stays unresampled and draws no uniform.  Returns one
    :class:`FilterResult` per block; ``final_particles`` holds the block's
    swarm after the last step.  With ``diagnostics=False`` the pass computes
    no ESS or filter means, and its results carry ``None`` for both; nothing
    else changes.
    """
    data = model.data
    K = blocks
    J = x.shape[0] // K
    N = data.n_obs
    cond_logliks = np.empty((K, N))
    ess_vec = np.empty((K, N)) if diagnostics else [None] * K
    filter_means = np.empty((K, N, model.n_states)) if diagnostics else [None] * K
    n_failures = [0] * K
    records, all_missing = data._records, data._all_missing
    grid = np.arange(J)
    # per block: its rows of the swarm and its rows of the outputs
    spans = [(k, k * J, (k + 1) * J, cond_logliks[k], ess_vec[k], filter_means[k])
             for k in range(K)]

    t_prev = data.t0
    for n, t in enumerate(data.times.tolist()):
        if perturb is not None:
            params = perturb()
        x = core.advance(model, x, params, t_prev, t, rng)
        if all_missing[n]:
            logw = np.zeros(K * J)
        else:
            logw = core.measurement_logdensity(model, records[n], x, params, t)
        parts = []  # each block's resampling indices into the whole swarm
        resampled = False
        for k, lo, hi, block_ll, block_ess, block_means in spans:
            logw_k, x_k = (logw, x) if K == 1 else (logw[lo:hi], x[lo:hi])
            max_logw = logw_k.max()
            if max_logw != max_logw:  # the maximum propagates NaN from any particle
                raise DomainError(f"dmeasure returned NaN at t={t}; "
                                  "it must return finite values or -inf")
            if not math.isfinite(max_logw):
                n_failures[k] += 1
                if n_failures[k] > max_fail:
                    raise FilteringFailureError(n + 1, t)
                logger.warning("filtering failure%s at step %d (t=%g): zero weights "
                               "tolerated (%d of %s)", f" in block {k}" if K > 1 else "",
                               n + 1, t, n_failures[k], max_fail)
                block_ll[n] = -np.inf
                if diagnostics:
                    block_ess[n] = J
                    block_means[n] = x_k.mean(axis=0)
                parts.append(grid + lo)
            else:
                w = np.exp(logw_k - max_logw)
                sum_w = w.sum()
                block_ll[n] = max_logw + np.log(sum_w / J)
                w_norm = w / sum_w
                if diagnostics:
                    block_ess[n] = 1.0 / (w_norm * w_norm).sum()
                    block_means[n] = w_norm @ x_k
                # exp() of finite-max log weights: finite, non-negative, max term 1
                idx = _systematic_resample(w_norm, rng, grid)
                parts.append(idx + lo if lo else idx)
                resampled = True
        if resampled:
            idx = parts[0] if K == 1 else np.concatenate(parts)
            x = x[idx]
            if on_resample is not None:
                on_resample(idx)
        if model.accumulators:
            core._reset_accumulators(model, x)
        t_prev = t

    return [
        FilterResult(
            loglik=float(block_ll.sum()),
            cond_logliks=block_ll,
            ess=block_ess,
            filter_means=block_means,
            num_particles=J,
            n_failures=n_failures[k],
            final_particles=x[lo:hi],
        )
        for k, lo, hi, block_ll, block_ess, block_means in spans
    ]
