"""Iterated filtering: maximum likelihood via repeated perturbed filtering.

Each iteration runs a particle filter on an augmented model whose parameters
take a Gaussian random walk alongside the latent state.  The walk intensity
cools geometrically across iterations; the parameter update combines the
filter means of the perturbed parameter swarm, weighted by inverse prediction
variances.  Initial-value parameters (IVPs), which only early observations
inform, are perturbed at time zero only and re-estimated as the swarm mean at
a fixed lag.

The filter is the shared step loop of :mod:`pompkit.smc`.  This module adds
only the parameter bookkeeping, through the loop's two hooks: one perturbs
the parameter swarm before each advance, the other updates the running
estimates from the weighted swarm after each weighting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import core, smc
from .exceptions import DomainError, FilteringFailureError, require_integer
from .rng import stream

__all__ = ["MifSettings", "MifResult", "mif", "perturbation_sd"]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class MifSettings:
    """Controls for one iterated-filtering run.

    ``rw_sd`` maps parameter names to perturbation scales; parameters absent
    or zero are held fixed.  Cooling is geometric with rate ``a``: the
    perturbation scale at iteration m is ``a**(m-1) * rw_sd``.  Give either
    ``cooling_factor`` (= a) or ``cooling_fraction`` f, in which case a is
    chosen so the final iteration's scale is f * rw_sd
    (a = f**(1/(n_iterations-1))).
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
        object.__setattr__(self, "ivp_names", tuple(self.ivp_names))
        object.__setattr__(self, "n_iterations",
                           require_integer("n_iterations", self.n_iterations, 0))
        object.__setattr__(self, "num_particles",
                           require_integer("num_particles", self.num_particles, 1))
        if any(v < 0 for v in self.rw_sd.values()):
            raise DomainError("rw_sd entries must be non-negative")
        unknown = set(self.rw_sd) - set(self.start.names)
        if unknown:
            raise DomainError(f"rw_sd names not in start: {sorted(unknown)}")
        unknown = set(self.ivp_names) - set(self.start.names)
        if unknown:
            raise DomainError(f"ivp_names not in start: {sorted(unknown)}")
        if self.var_factor <= 0:
            raise DomainError("var_factor must be positive")
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


def perturbation_sd(settings: MifSettings, iteration: int) -> dict:
    """Per-parameter random-walk scale used within iteration ``iteration`` (1-based)."""
    a = settings.resolved_cooling_factor()
    cool = a ** (iteration - 1)
    return {k: cool * v for k, v in settings.rw_sd.items()}


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


def mif(model: core.ModelSpec, settings: MifSettings, seed=0,
        run_final_filter=True) -> MifResult:
    """Iterated-filtering maximum-likelihood search.

    Returns the parameter estimate after the last iteration, the per-iteration
    trace on the natural scale, and (optionally) an unperturbed filtering pass
    at the estimate.  Parameters with zero ``rw_sd`` come back bit-identical
    to their starting values.
    """
    model.require("iterated filtering", "rprocess", "dmeasure")
    if not settings.transform:
        model = replace(model, to_estimation=None, from_estimation=None)
    names = settings.start.names
    p = len(names)
    data = model.data
    N = data.n_obs
    J = settings.num_particles
    M = settings.n_iterations
    a = settings.resolved_cooling_factor()
    C = settings.var_factor
    ic_lag = settings.ic_lag if settings.ic_lag is not None else min(N, 20)
    if not (1 <= ic_lag <= N):
        raise DomainError(f"ic_lag must lie in [1, {N}]")

    sigma = np.array([float(settings.rw_sd.get(n, 0.0)) for n in names])
    is_ivp = np.array([n in settings.ivp_names for n in names])
    est = (sigma > 0) & ~is_ivp          # random-walk parameters
    ivp = (sigma > 0) & is_ivp           # time-zero-only parameters
    n_est = int(est.sum())
    start_nat = settings.start.as_dict()
    start_work = core.transform_params(model, start_nat, "to-estimation")
    theta = np.array([start_work[n] for n in names])

    # the parameter swarm is held as a (p, J) array, one contiguous row per
    # parameter, so the hooks read and write whole rows
    def natural(swarm):
        return core.transform_params(model, dict(zip(names, swarm)), "from-estimation")

    rng = stream(seed, "mif")
    trace = np.empty((M, p))
    logliks = np.empty(M)
    n_failures_total = 0

    for m in range(1, M + 1):
        cool = a ** (m - 1)
        init_sd = C * cool * sigma
        swarm = (theta + init_sd * rng.standard_normal((J, p))).T.copy()
        x = core._init_states(model, natural(swarm), data.t0, rng, J)

        theta_bar_prev = theta[est]
        v = np.empty((N + 1, n_est))
        v[0] = (C * C + 1.0) * cool * cool * sigma[est] ** 2  # prediction variance for step 1
        increments = np.zeros(n_est)
        walk_sd = perturbation_sd(settings, m)
        step_sd = np.array([walk_sd[nm] for nm, e in zip(names, est) if e])
        theta_ivp_hat = None

        def perturb():
            swarm[est] += step_sd[:, None] * rng.standard_normal((J, n_est)).T
            return natural(swarm)

        def observe(n, w_norm, idx):
            nonlocal swarm, theta_bar_prev, increments, theta_ivp_hat
            walked = swarm[est]
            theta_bar = walked @ w_norm
            v[n + 1] = step_sd**2 + ((walked - theta_bar[:, None]) ** 2) @ w_norm
            increments += (theta_bar - theta_bar_prev) / v[n]
            theta_bar_prev = theta_bar
            if idx is not None:
                swarm = swarm[:, idx]
            if n + 1 == ic_lag:
                theta_ivp_hat = swarm[ivp].mean(axis=1)

        result = smc._filter_pass(model, x, None, rng, settings.max_fail, perturb, observe)
        n_failures_total += result.n_failures
        logliks[m - 1] = result.loglik

        theta = theta.copy()
        theta[est] += v[0] * increments
        if ivp.any():
            theta[ivp] = theta_ivp_hat
        nat = core.transform_params(model, {nm: theta[i] for i, nm in enumerate(names)},
                                    "from-estimation")
        trace[m - 1] = [start_nat[nm] if sigma[i] == 0 else nat[nm]
                        for i, nm in enumerate(names)]

    if M > 0:
        theta_hat = core.ParamVector({nm: trace[-1, i] for i, nm in enumerate(names)})
    else:
        theta_hat = settings.start

    final = None
    if run_final_filter and model.dmeasure is not None:
        try:
            final = smc.pfilter(model, theta_hat, num_particles=J,
                                seed=stream(seed, "mif-final"),
                                max_fail=settings.max_fail)
        except FilteringFailureError:
            logger.warning("final filtering pass at the mif estimate failed; "
                           "no FilterResult attached")
    return MifResult(
        theta_hat=theta_hat,
        trace=trace,
        logliks=logliks,
        param_names=names,
        final_filter=final,
        n_failures=n_failures_total,
    )
