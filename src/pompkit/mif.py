"""Iterated filtering (IF2): maximum likelihood via repeated perturbed filtering.

This is the "iterated perturbed Bayes maps" algorithm of Ionides, Nguyen,
Atchadé, Stoev & King (PNAS 2015, doi:10.1073/pnas.1410597112), which the
pomp package ships as ``mif2``.  Every particle carries its own parameter
vector.  Within a filtering pass the parameters take a Gaussian random walk
on the estimation scale, one step before each advance, and are resampled
along with the latent states; the swarm carries over from one pass to the
next while the walk intensity cools geometrically.  Initial-value parameters
(IVPs), which only early observations inform, are perturbed at time zero
only.  The estimate after each pass is the mean of the parameter swarm.

The filter is the shared step loop of :mod:`pompkit.smc`.  This module adds
only the parameter swarm, through the loop's two hooks: one perturbs the
swarm before each advance, the other re-indexes it after each resampling.
The swarm holds the walked parameters only; each fixed one enters every
step at its natural value, without crossing the transforms, so seasonal SIR
with ``sigma = 0`` fixed runs under its log transform.

Several starts run together as the blocks of one swarm (the private
``_mif_blocks``, which the CLI's multi-start search uses): block k's
particles carry the parameters walked from start k, one perturbation draw
and one re-indexing per step serve every block, and the loop weights and
resamples each block on its own.  Each block yields its own estimate, trace
and per-iteration log likelihoods.  :func:`mif` is the one-block case.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import core, smc
from .exceptions import (DomainError, FilteringFailureError, require_batch, require_integer,
                         require_names)
from .rng import stream

__all__ = ["MifSettings", "MifResult", "mif", "perturbation_sd"]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class MifSettings:
    """Controls for one iterated-filtering run.

    ``rw_sd`` maps parameter names to finite, non-negative perturbation scales;
    parameters absent or zero are held fixed.  Cooling is geometric with rate
    ``a``: the perturbation scale at iteration m is ``a**(m-1) * rw_sd``.
    Give either ``cooling_factor`` (= a) or ``cooling_fraction`` f, in which
    case a is chosen so the final iteration's scale is f * rw_sd
    (a = f**(1/(n_iterations-1))).

    ``var_factor`` C sets the spread of the parameter swarm: it starts as
    ``start + C * rw_sd * N(0, 1)`` on the estimation scale, and each IVP
    (``ivp_names``) takes a step of scale ``C * a**(m-1) * rw_sd`` at the
    start of iteration m > 1.  ``ic_lag`` is accepted but has no effect.
    """

    start: core.ParamVector
    n_iterations: int
    num_particles: int
    rw_sd: dict
    ivp_names: tuple = ()
    ic_lag: Optional[int] = None
    var_factor: float = 2.0
    cooling_factor: Optional[float] = None
    cooling_fraction: Optional[float] = None
    transform: bool = True
    max_fail: int = 0

    def __post_init__(self):
        for name, minimum in (("n_iterations", 0), ("num_particles", 1), ("max_fail", 0)):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), minimum))
        object.__setattr__(self, "_sigma", core._walk_scales("rw_sd", self.rw_sd, self.start.names))
        object.__setattr__(self, "ivp_names",
                           require_names("ivp_names", self.ivp_names, self.start.names))
        if not 0 < self.var_factor < np.inf:
            raise DomainError(f"var_factor must be positive and finite, got {self.var_factor!r}")
        if self.cooling_factor is not None and self.cooling_fraction is not None:
            raise DomainError("give cooling_factor or cooling_fraction, not both")
        for name, value in (("cooling_factor", self.cooling_factor),
                            ("cooling_fraction", self.cooling_fraction)):
            if value is not None and not (0 < value < 1):
                raise DomainError(f"{name} must lie in (0, 1)")

    def resolved_cooling_factor(self) -> float:
        if self.cooling_factor is not None:
            return float(self.cooling_factor)
        f = 0.7 if self.cooling_fraction is None else float(self.cooling_fraction)
        power = max(self.n_iterations - 1, 1)
        return f ** (1.0 / power)


def _cooling(settings: MifSettings, iteration: int) -> float:
    """The factor a**(iteration-1) that scales ``rw_sd`` within ``iteration``."""
    return settings.resolved_cooling_factor() ** (iteration - 1)


def perturbation_sd(settings: MifSettings, iteration: int) -> dict:
    """Per-parameter random-walk scale used within iteration ``iteration`` (1-based)."""
    return {k: _cooling(settings, iteration) * v for k, v in settings.rw_sd.items()}



@dataclass(frozen=True)
class MifResult:
    """Output of :func:`mif`.

    ``trace`` holds the estimate after each iteration on the natural scale and
    ``logliks`` the log likelihood estimate of each iteration's perturbed
    filtering pass (-inf when a tolerated filtering failure occurred in it).
    Those come from the perturbed model, so they track progress but are not
    likelihood estimates at any single parameter value; ``final_filter`` is.
    """

    theta_hat: core.ParamVector
    trace: np.ndarray  # (n_iterations, p) on the natural scale
    logliks: np.ndarray  # (n_iterations,)
    param_names: tuple
    final_filter: Optional[smc.FilterResult]
    n_failures: int = 0


@core.one_run
def mif(model: core.ModelSpec, settings: MifSettings, seed=0,
        run_final_filter=True) -> MifResult:
    """Iterated-filtering maximum-likelihood search.

    Returns the parameter estimate after the last iteration, the per-iteration
    trace on the natural scale, and (optionally) an unperturbed filtering pass
    at the estimate.  Parameters with zero ``rw_sd`` come back bit-identical
    to their starting values.
    """
    (result,) = _mif_blocks(model, settings, [settings.start], seed)
    final = None
    if run_final_filter and model.dmeasure is not None:
        try:
            final = smc.pfilter(model, result.theta_hat, num_particles=settings.num_particles,
                                seed=stream(seed, "mif-final"),
                                max_fail=settings.max_fail)
        except FilteringFailureError:
            logger.warning("final filtering pass at the mif estimate failed; "
                           "no FilterResult attached")
    return replace(result, final_filter=final)


def _require_blocks(model: core.ModelSpec, settings: MifSettings, K) -> None:
    """Refuse K starts whose arrays no array can hold: the (K, M, p) trace of M
    iterations of p parameters, then the (p, K*J) parameter swarm and its states
    (:func:`pompkit.smc._require_swarm`); then a start whose walked parameters
    the transforms (none unless ``settings.transform``) map to non-finite
    values.  :func:`_mif_blocks` calls it first."""
    p, M = len(settings.start.names), settings.n_iterations
    require_batch(K * M * p, f"{K} start(s) x {M} iteration(s) of {p} parameters")
    smc._require_swarm(model, K, settings.num_particles, p)
    if not settings.transform:
        model = replace(model, to_estimation=None, from_estimation=None)
    core._to_estimation(model, settings.start,
                        [n for n, sd in zip(settings.start.names, settings._sigma) if sd > 0])


@core.one_run
def _mif_blocks(model: core.ModelSpec, settings: MifSettings, starts, seed) -> list:
    """IF2 from each of K starting points, run as the K blocks of one swarm.

    ``starts`` are K parameter vectors over the names of ``settings.start``;
    every other setting is shared.  Block k holds J particles, columns
    k*J..(k+1)*J-1 of the (p_walked, K*J) parameter swarm, so each step
    perturbs the whole swarm once and re-indexes it with one ``take``.
    Returns one :class:`MifResult` per start, without a final filter; K = 1
    is :func:`mif`.
    """
    model.require("iterated filtering", "rprocess", "dmeasure")
    if not settings.transform:
        model = replace(model, to_estimation=None, from_estimation=None)
    names = settings.start.names
    p = len(names)
    K = len(starts)
    J = settings.num_particles
    M = settings.n_iterations
    C = settings.var_factor
    _require_blocks(model, settings, K)

    sigma = settings._sigma
    is_ivp = np.array([n in settings.ivp_names for n in names])
    # the swarm holds the walked parameters only: the estimated ones, walked
    # before every advance, then the IVPs, walked at t0 only
    est = np.flatnonzero((sigma > 0) & ~is_ivp)
    ivp = np.flatnonzero((sigma > 0) & is_ivp)
    walked = np.concatenate((est, ivp))
    n_est = est.size
    walked_names = [names[i] for i in walked]
    starts_nat = [{nm: start[nm] for nm in names} for start in starts]
    starts_work = [core._to_estimation(model, nat, walked_names) for nat in starts_nat]
    swarm_nat = smc._block_params(starts_nat, J)

    def natural(rows, nat=swarm_nat):
        return core._from_estimation(model, nat, dict(zip(walked_names, rows)))

    rng = stream(seed, "mif")
    traces = np.empty((K, M, p))
    logliks = np.empty((K, M))
    n_failures = [0] * K
    theta = np.array([[work[nm] for work in starts_work] for nm in walked_names]).reshape(-1, K)
    # one contiguous row per walked parameter, so the hooks read and write
    # whole rows; normals are drawn for every parameter, fixed ones included,
    # which keeps mif's fixed-seed outputs, and only the walked rows are kept
    swarm = (np.repeat(theta, J, axis=1)
             + (C * sigma[walked])[:, None] * rng.standard_normal((p, K * J))[walked])
    blocks = [(k, k * J, (k + 1) * J) for k in range(K)]

    for m in range(1, M + 1):
        sd = (_cooling(settings, m) * sigma[walked])[:, None]
        if m > 1:
            swarm[n_est:] += C * sd[n_est:] * rng.standard_normal((ivp.size, K * J))
        x = core._init_states(model, natural(swarm), model.data.t0, rng, K * J)
        step_sd = sd[:n_est]

        def perturb():
            swarm[:n_est] += step_sd * rng.standard_normal((n_est, K * J))
            return natural(swarm)

        def on_resample(idx):
            nonlocal swarm
            swarm = swarm.take(idx, axis=1)  # unlike swarm[:, idx], keeps rows contiguous

        results = smc._filter_pass(model, x, None, rng, settings.max_fail, perturb,
                                   on_resample, blocks=K, diagnostics=False)
        for k, lo, hi in blocks:
            n_failures[k] += results[k].n_failures
            logliks[k, m - 1] = results[k].loglik
            traces[k, m - 1] = [*natural(swarm[:, lo:hi].mean(axis=1), starts_nat[k]).values()]

    return [
        MifResult(
            theta_hat=core.ParamVector(zip(names, traces[k, -1])) if M > 0 else starts[k],
            trace=traces[k],
            logliks=logliks[k],
            param_names=names,
            final_filter=None,
            n_failures=n_failures[k],
        )
        for k in range(K)
    ]
