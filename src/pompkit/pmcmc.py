"""Particle marginal Metropolis-Hastings posterior sampling.

Each proposal's log likelihood comes from a fresh particle-filtering pass,
which skips the per-step diagnostics the chain never reads; the incumbent's
estimate is carried along unchanged, never recomputed, which is what makes
the chain target the exact posterior despite the likelihood being
estimated.  Proposals are a symmetric diagonal-normal random walk, so
the acceptance ratio needs no proposal terms.

The chain itself is :func:`_metropolis`, which ABC-MCMC (:mod:`pompkit.abc`)
shares; the two differ only in how a proposal is scored.  Like the filter
kernel, it derives its own stream from the seed and returns its result, a
:class:`Chain`.  It scores the start once (``log_target(start, 0)``) after
checking that it has positive prior density, and then only the proposals
``m = 1..M`` inside the prior support, as the dict the prior saw; the
incumbent's score is carried, never recomputed.  Each step draws the proposal
normals, then one uniform, then scores the proposal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import core, smc
from .exceptions import DomainError, FilteringFailureError, require_integer, require_names
from .rng import stream
from .smc import pfilter  # noqa: F401  (perfbench's tracer patches pmcmc.pfilter)

__all__ = [
    "Proposal",
    "mvn_diag_rw",
    "Chain",
    "pmcmc",
    "effective_sample_size",
    "uniform_box_prior",
]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class Proposal:
    """Symmetric multivariate-normal random walk with diagonal covariance.

    Scales must be finite and non-negative; parameters with zero scale are
    held fixed.  Symmetry is what lets the Metropolis ratio omit proposal
    densities.
    """

    sd: dict

    def __post_init__(self):
        core._check_scales("proposal", self.sd)

    def scales(self, names) -> np.ndarray:
        return core._walk_scales("proposal", self.sd, names)


def mvn_diag_rw(sd: dict) -> Proposal:
    """Diagonal-normal random-walk proposal with per-parameter scales."""
    return Proposal(sd=dict(sd))


def uniform_box_prior(bounds: dict):
    """Independent uniform prior over a box: name -> (low, high).

    Returns ``(rprior, dprior)`` callbacks; parameters not listed are ignored
    by the density (treated as improper-flat).
    """
    for name, (lo, hi) in bounds.items():
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"prior interval for {name!r} must be finite and non-empty: "
                              f"({lo}, {hi})")
    log_volume = sum(math.log(hi - lo) for lo, hi in bounds.values())

    def rprior(rng, n):
        return {name: rng.uniform(lo, hi, size=n) for name, (lo, hi) in bounds.items()}

    def dprior(params, log=True):
        inside = all(lo <= np.min(params[name]) and np.max(params[name]) <= hi
                     for name, (lo, hi) in bounds.items())
        logp = -log_volume if inside else -math.inf
        return logp if log else math.exp(logp)

    return rprior, dprior


@dataclass(frozen=True)
class Chain:
    """A Metropolis chain of parameter samples with acceptance bookkeeping.

    Row m repeats row m-1 whenever step m was rejected.  ``logliks`` holds the
    carried likelihood estimate of the retained sample (NaN for ABC chains,
    which keep each proposal's scaled probe distance in ``extras``).
    """

    param_names: tuple
    samples: np.ndarray
    logliks: np.ndarray
    log_priors: np.ndarray
    accepted: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))

    def column(self, name) -> np.ndarray:
        require_names("parameter names", (name,), self.param_names)
        return self.samples[:, self.param_names.index(name)].copy()

    def posterior_mean(self, burn_in=0) -> dict:
        return {n: float(v) for n, v in
                zip(self.param_names, self.samples[burn_in:].mean(axis=0))}

    def posterior_sd(self, burn_in=0) -> dict:
        """Sample standard deviations (divisor n-1); NaN with fewer than two samples."""
        kept = self.samples[burn_in:]
        sd = kept.std(axis=0, ddof=1) if len(kept) > 1 else np.full(kept.shape[1], np.nan)
        return {n: float(v) for n, v in zip(self.param_names, sd)}


def effective_sample_size(samples, with_flag=False):
    """ESS of a scalar chain: N / (1 + 2 * sum of autocorrelations).

    Autocorrelations are summed by Geyer's initial-positive-sequence rule
    (consecutive pairs kept while their sum stays positive).  A constant chain
    reports 1.  Chains with net negative correlation would report more than N;
    such values are capped at N and flagged.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 10:
        raise DomainError("effective_sample_size needs a 1-D chain of length >= 10")
    n = x.size
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return (1.0, False) if with_flag else 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]

    tau = 0.0
    capped = False
    for j in range(0, n - 1, 2):
        pair = rho[j] + rho[j + 1] if j + 1 < n else rho[j]
        if pair <= 0:
            break
        tau += 2.0 * pair
    tau -= 1.0
    if tau <= 0 or n / tau > n:
        ess_value, capped = float(n), True
    else:
        ess_value = float(n / tau)
    return (ess_value, capped) if with_flag else ess_value


@core.one_run
def _metropolis(model: core.ModelSpec, start: core.ParamVector, proposal: Proposal,
                n_steps: int, seed, log_target, operation: str) -> Chain:
    """Random-walk Metropolis chain of ``n_steps`` steps from ``start``, on the
    stream ``"<operation>-chain"`` under ``seed``.

    Accepts a proposal with probability min(1, prior ratio times
    exp(log_target ratio)).  ``log_target(params, m)`` is called once for the
    start (m = 0) and once for each proposal m that has positive prior
    density; prior-zero proposals are rejected unscored, so the model never
    sees parameters outside the prior support.  Row m-1 of the chain holds
    the retained state after step m, and ``logliks`` its carried score.
    """
    M = require_integer("n_steps", n_steps, 1)
    rng = stream(seed, f"{operation}-chain")
    model.require(operation, "dprior")
    names = start.names
    theta = start.values
    logprior = float(model.dprior(dict(zip(names, theta)), True))
    if not np.isfinite(logprior):
        raise DomainError("starting parameters have zero prior density")
    scales = proposal.scales(names)
    target = log_target(start, 0)

    samples = np.empty((M, len(names)))
    targets = np.empty(M)
    log_priors = np.empty(M)
    accepted = np.zeros(M, dtype=bool)

    for m in range(1, M + 1):
        theta_prop = theta + scales * rng.standard_normal(theta.shape)
        params_prop = dict(zip(names, theta_prop))
        logprior_prop = float(model.dprior(params_prop, True))
        log_u = math.log(rng.random())
        if np.isfinite(logprior_prop):
            target_prop = log_target(params_prop, m)
            log_ratio = (logprior_prop + target_prop) - (logprior + target)
        else:
            target_prop, log_ratio = -math.inf, -math.inf
        if log_u < log_ratio:
            theta, target, logprior = theta_prop, target_prop, logprior_prop
            accepted[m - 1] = True
        samples[m - 1] = theta
        targets[m - 1] = target
        log_priors[m - 1] = logprior
    return Chain(names, samples, logliks=targets, log_priors=log_priors, accepted=accepted)


def pmcmc(model: core.ModelSpec, start: core.ParamVector, n_steps: int,
          num_particles: int, proposal: Proposal, seed=0, max_fail=0) -> Chain:
    """Particle marginal Metropolis-Hastings.

    Accepts a proposal with probability min(1, prior ratio times the ratio of
    likelihood estimates).  Each filtering pass tolerates up to ``max_fail``
    failed steps (see :func:`~pompkit.smc.pfilter`); a pass that fails more
    often counts as likelihood zero (auto-reject, logged).  Zero prior density
    at the start is an error.
    """
    model.require("pmcmc", "rprocess", "dmeasure")

    def log_target(params, m):
        try:
            (result,) = smc._pfilter_blocks(model, [params], num_particles,
                                            stream(seed, "pmcmc-pfilter", m), max_fail,
                                            diagnostics=False)
            return result.loglik
        except FilteringFailureError as err:
            logger.warning("proposal auto-rejected: %s", err)
            return -math.inf

    return _metropolis(model, start, proposal, n_steps, seed, log_target, "pmcmc")
