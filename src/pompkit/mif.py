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
    J = settings.num_particles
    M = settings.n_iterations
    C = settings.var_factor

    sigma = np.array([float(settings.rw_sd.get(n, 0.0)) for n in names])
    ivp = (sigma > 0) & np.array([n in settings.ivp_names for n in names])  # t0 only
    est = (sigma > 0) & ~ivp             # walked before every advance
    n_est, n_ivp = int(est.sum()), int(ivp.sum())
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
    swarm = theta[:, None] + (C * sigma)[:, None] * rng.standard_normal((p, J))

    for m in range(1, M + 1):
        walk_sd = perturbation_sd(settings, m)
        sd = np.array([[walk_sd.get(nm, 0.0)] for nm in names])  # (p, 1)
        if m > 1:
            swarm[ivp] += C * sd[ivp] * rng.standard_normal((n_ivp, J))
        x = core._init_states(model, natural(swarm), model.data.t0, rng, J)
        step_sd = sd[est]

        def perturb():
            swarm[est] += step_sd * rng.standard_normal((n_est, J))
            return natural(swarm)

        def on_resample(idx):
            nonlocal swarm
            swarm = swarm.take(idx, axis=1)  # unlike swarm[:, idx], keeps rows contiguous

        result = smc._filter_pass(model, x, None, rng, settings.max_fail, perturb,
                                  on_resample)
        n_failures_total += result.n_failures
        logliks[m - 1] = result.loglik

        nat = natural(swarm.mean(axis=1))
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
