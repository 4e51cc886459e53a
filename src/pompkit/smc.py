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
step on the whole swarm.  The blocks are then weighted together, each numpy
operation taken along the rows of the (K, J) array of log weights, and
resampled from one uniform per block; each block counts its own filtering
failures.  A row operation gives what it gives on that row alone, so every
block's numbers are those of a one-block pass that drew the same uniforms.
A small swarm resamples each block by a binary search of its cumulative
weights (``searchsorted``), one call per row.  From ``_COUNTING_MIN_SWARM``
= 1500 particles on, where K row calls cost more than a few passes over the
(K, J) array, the blocks are resampled by counting instead: each
particle's copies are estimated by arithmetic and made exact by one
comparison, which gives the same indices (``_counting_resampler`` states
the rule and why it is exact), so the size changes no number.  K = 1 keeps
the one search of ``_systematic_resample``.
The private ``_pfilter_blocks`` runs replicate filters this way, for the
CLI's ``replicates`` and mif evaluations; :func:`pfilter` is its one-block
case.  A batched replicate draws from the shared stream, so it is not the
standalone :func:`pfilter` run on any seed.

Each step's effective sample size and weighted state mean are diagnostics
that only :func:`pfilter` and the CLI's ``pfilter`` runner report, and the
runner writes only replicate 0's ESS, so only that block computes them.  The
passes whose callers read the likelihood alone (each PMMH proposal, every
mif iteration and the CLI's mif evaluations) run with ``diagnostics=False``:
they skip both, and their results carry ``ess`` and ``filter_means`` as
``None``, as the runner's other blocks do.  No random draw depends on
either, so the likelihood, the failure counts and the final swarm are the
same with and without them.

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
    are filled for :func:`pfilter` and replicate 0 of the CLI's ``pfilter``
    runner; its other replicates and the internal passes of pmcmc, mif and
    the CLI's mif evaluations skip them and carry ``None``.
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


# the smallest swarm of K > 1 blocks that _filter_pass resamples by counting:
# timed over a whole 100-step Gompertz pass on a 2-core x86 host (median of
# 30 alternating pairs), counting takes 1.06x the per-row searches at 4 x 100
# and 2 x 250, 0.97-0.99x at K*J = 1000, 0.94-0.96x at 1500, 0.83-0.93x at
# 2000 (2 x 1000 to 40 x 50) and 0.83x at 8 x 1000
_COUNTING_MIN_SWARM = 1500


def _counting_resampler(K, J):
    """Systematic resampling of K rows of J weights at once, by counting.

    Returns ``resample(cumulative, u, failed)``.  It takes the (K, J) row
    cumulative sums C (last column 1, as :func:`_systematic_resample` sets it),
    one uniform u_k per row and a list of failed rows, and returns the (K*J,)
    global indices that ``C[k].searchsorted(q, side="left") + k*J`` gives row
    by row for the queries q_j = fl(fl(u_k + j) / J), j < J, with the identity
    for each failed row.  Its (K, J) buffers are reused from call to call.

    Query j picks the first particle i with q_j <= C_i, so particle i gets
    count_i - count_(i-1) copies, where count_i = #{j < J : q_j <= C_i}.  Take
    n_i = #{j >= 0 : q_j <= C_i}, the count over the queries continued past
    J - 1; they ascend, so those j are 0..n_i - 1, and count_i = min(n_i, J).
    The estimate is f + 1, with f = floor(C_i*J - u_k + J * 2**-49) in
    floating point.  It is n_i or n_i + 1, so one exact comparison against
    the query q_f, computed as above, corrects it: n_i = f + 1 - [q_f > C_i].
    Both the query test q_j <= C_i and the test j <= C_i*J - u_k + J * 2**-49
    as computed are the exact test u_k + j <= C_i*J (the second with the
    margin added), up to rounding errors that together stay below
    J * 2**-50.  The margin exceeds them, so f + 1 counts every j with
    q_j <= C_i; it can count in addition only a j in a window of width below
    3 * J * 2**-50 above C_i*J - u_k, which for J < 2**48 holds at most one
    integer.
    """
    f, query = np.empty((K, J)), np.empty((K, J))
    above = np.empty((K, J), dtype=bool)
    copies = np.empty((K, J), dtype=np.intp)
    rows = np.arange(K * J)
    margin = J * 2.0**-49

    def resample(cumulative, u, failed):
        u = u[:, None]
        np.multiply(cumulative, J, out=f)
        np.subtract(f, u - margin, out=f)
        np.floor(f, out=f)  # n - 1 or n
        np.add(f, u, out=query)
        np.divide(query, J, out=query)  # q_f
        np.greater(query, cumulative, out=above)
        np.subtract(f, above, out=f)  # n - 1
        np.minimum(f, J - 1, out=f)  # count - 1
        copies[:, 0] = f[:, 0] + 1
        np.subtract(f[:, 1:], f[:, :-1], out=copies[:, 1:], casting="unsafe")
        if failed:
            copies[failed] = 1
        return rows.repeat(copies.ravel())

    return resample


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
    particles; K = 1 is :func:`pfilter`.  ``diagnostics`` (every block, none,
    or a number of leading blocks) picks the blocks that compute the ESS and
    filter means (see :func:`_filter_pass`).
    """
    model.require("particle filtering", "rprocess", "dmeasure")
    num_particles = require_integer("num_particles", num_particles, 1)
    max_fail = require_integer("max_fail", max_fail, 0)
    _require_swarm(model, len(params_per_block), num_particles)
    p = _block_params([core.params_to_dict(model.default_params(b))
                       for b in params_per_block], num_particles)
    rng = stream(seed, "pfilter")
    K = len(params_per_block)
    x = core._init_states(model, p, model.data.t0, rng, K * num_particles)
    return _filter_pass(model, x, p, rng, max_fail, blocks=K, diagnostics=diagnostics)


def _require_swarm(model: core.ModelSpec, K, J, width=1, what=None) -> None:
    """Refuse K blocks of J particles that no array can hold: the (K*J, q) states
    of ``model``, or a (width, K*J) array of per-particle values (mif's
    parameter swarm).  Every kernel that builds a swarm calls it first; ``what``
    names the counts in the refusal (default ``"K block(s) of J particles"``)."""
    require_batch(K * J * max(model.n_states, width), what or f"{K} block(s) of {J} particles")


def _block_params(dicts, J) -> dict:
    """One parameter dict for K blocks of J particles, from the K blocks' dicts.

    A parameter with the same value in every block stays a scalar; any other
    becomes a per-particle (K*J,) array holding block k's value in rows
    k*J..(k+1)*J-1.  The caller has sized the swarm (:func:`_require_swarm`).
    """
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
    density run once per step on the whole swarm.  The K blocks are then
    weighted on the (K, J) array of log weights, one numpy call per
    operation along its rows, and resampled from one uniform per block,
    drawn in block order: by one ``searchsorted`` per row, or, for a swarm
    of at least ``_COUNTING_MIN_SWARM`` particles, by counting
    (:func:`_counting_resampler`); both ways give the same indices.  Each
    block counts its own failures against ``max_fail``; a failed block
    stays unresampled and draws no uniform.  Every row operation gives what
    the same operation gives on that row alone, so each block's numbers are
    those of a one-block pass that drew the same uniforms; K = 1 runs those
    one-block operations on the 1-D swarm.  Returns one :class:`FilterResult`
    per block; ``final_particles`` holds the block's swarm after the last
    step.

    ``diagnostics`` says which blocks compute the ESS and filter means: every
    block (True), none (False) or the first ``diagnostics`` blocks.  The
    others carry ``None`` for both; nothing else depends on them.
    """
    data = model.data
    K = blocks
    J = x.shape[0] // K
    N = data.n_obs
    D = K if diagnostics is True else int(diagnostics)  # blocks with diagnostics
    cond_logliks = np.empty((K, N))
    ess_vec = np.empty((D, N))
    filter_means = np.empty((D, N, model.n_states))
    n_failures = [0] * K
    records, all_missing = data._records, data._all_missing
    grid = np.arange(J)
    float_grid = grid.astype(float)
    offsets = np.repeat(np.arange(K) * J, J)  # each row's block's first row
    counted = _counting_resampler(K, J) if K > 1 and K * J >= _COUNTING_MIN_SWARM else None

    def count_failures(n, t, max_logw):
        """The blocks whose maximum log weight at step n is not finite, in block
        order.  Each counts a failure against ``max_fail``, raising
        :class:`FilteringFailureError` past it; NaN raises :class:`DomainError`."""
        failed = np.flatnonzero(~np.isfinite(max_logw)).tolist()
        for k in failed:
            if max_logw[k] != max_logw[k]:  # the maximum propagates NaN from any particle
                raise DomainError(f"dmeasure returned NaN at t={t}; "
                                  "it must return finite values or -inf")
            n_failures[k] += 1
            if n_failures[k] > max_fail:
                raise FilteringFailureError(n + 1, t)
            logger.warning("filtering failure%s at step %d (t=%g): zero weights "
                           "tolerated (%d of %s)", f" in block {k}" if K > 1 else "",
                           n + 1, t, n_failures[k], max_fail)
        return failed

    t_prev = data.t0
    for n, t in enumerate(data.times.tolist()):
        if perturb is not None:
            params = perturb()
        x = core.advance(model, x, params, t_prev, t, rng)
        if all_missing[n]:
            logw = np.zeros(K * J)
        else:
            logw = core.measurement_logdensity(model, records[n], x, params, t)
        idx = None  # stays None after a step where every block failed
        if K == 1:
            max_logw = logw.max()
            failed = [] if math.isfinite(max_logw) else count_failures(n, t, [max_logw])
            if not failed:
                w = np.exp(logw - max_logw)
                sum_w = w.sum()
                cond_logliks[0, n] = max_logw + np.log(sum_w / J)
                w_norm = w / sum_w
                if D:
                    ess_vec[0, n] = 1.0 / (w_norm * w_norm).sum()
                    filter_means[0, n] = w_norm @ x
                # exp() of finite-max log weights: finite, non-negative, max term 1
                idx = _systematic_resample(w_norm, rng, grid)
        else:
            logw = logw.reshape(K, J)
            max_logw = logw.max(axis=1)
            # a sum of finite maxima is finite, but for overflow, which the count skips
            failed = [] if math.isfinite(max_logw.sum()) else count_failures(n, t, max_logw)
            if failed:  # weigh the failed rows as if uniform, then overwrite them
                logw = logw.copy()
                logw[failed] = max_logw[failed] = 0.0
            w = logw - max_logw[:, None]
            np.exp(w, out=w)
            sum_w = w.sum(axis=1)
            cond_logliks[:, n] = max_logw + np.log(sum_w / J)
            w /= sum_w[:, None]
            if D:
                ess_vec[:, n] = 1.0 / (w[:D] * w[:D]).sum(axis=1)
                for k in range(D):
                    filter_means[k, n] = w[k] @ x[k * J:(k + 1) * J]
            if len(failed) < K:
                cumulative = np.add.accumulate(w, axis=1, out=w)  # each row's cumsum()
                cumulative[:, -1] = 1.0
                u = rng.random(K - len(failed))  # one per unfailed block, in block order
                if failed:  # a 0 holds each failed block's place; its indices are replaced
                    u = np.insert(u, np.subtract(failed, range(len(failed))), 0.0)
                if counted is not None:
                    idx = counted(cumulative, u, failed)
                else:
                    queries = u[:, None] + float_grid
                    queries /= J
                    parts = list(map(np.ndarray.searchsorted, cumulative, queries))
                    for k in failed:
                        parts[k] = grid
                    idx = np.concatenate(parts)
                    idx += offsets
        for k in failed:
            cond_logliks[k, n] = -np.inf
            if k < D:
                ess_vec[k, n] = J
                filter_means[k, n] = x[k * J:(k + 1) * J].mean(axis=0)
        if idx is not None:
            x = x.take(idx, axis=0)
            if on_resample is not None:
                on_resample(idx)
        if model.accumulators:
            core._reset_accumulators(model, x)
        t_prev = t

    return [
        FilterResult(
            loglik=float(cond_logliks[k].sum()),
            cond_logliks=cond_logliks[k],
            ess=ess_vec[k] if k < D else None,
            filter_means=filter_means[k] if k < D else None,
            num_particles=J,
            n_failures=n_failures[k],
            final_particles=x[k * J:(k + 1) * J],
        )
        for k in range(K)
    ]
