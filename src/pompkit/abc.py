"""Approximate Bayesian computation by Markov chain Monte Carlo.

Each proposal simulates a single dataset, summarizes it with the probe list,
and is accepted only if the scaled probe mismatch falls inside a tolerance
ball AND a Metropolis draw passes the prior ratio.  The per-step scaled
distance (and the simulated probes behind it) are kept on the chain for
audit.

The chain is the one the random-walk Metropolis kernel of PMMH
(:func:`pompkit.pmcmc._metropolis`) returns, with its ``logliks`` and
``extras`` replaced; its score is 0 inside the tolerance ball and -inf outside
it.  The start scores 0 unsimulated, since the chain starts where it is told;
each proposal inside the prior support is simulated once, and the incumbent is
never re-simulated.  Each step draws the proposal normals, then one uniform
(also on steps rejected for the prior or the ball), then simulates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .exceptions import DomainError, require_batch, require_integer
from .pmcmc import Chain, Proposal, _metropolis
from .probes import _refuse_probes, apply_probes, probe_labels
from .rng import stream

__all__ = ["AbcSettings", "abc", "compute_probe_scales"]

logger = logging.getLogger("pompkit")


@dataclass(frozen=True)
class AbcSettings:
    """Controls for one ABC-MCMC chain.

    ``scale`` holds one positive scale per probe dimension; the acceptance
    ball is sum(((s - s*) / scale)**2) < epsilon**2.
    """

    probes: tuple
    scale: np.ndarray
    proposal: Proposal
    n_steps: int
    epsilon: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        if not self.probes:
            raise DomainError("probe list is empty")
        object.__setattr__(self, "scale", _checked_scale(self.probes, self.scale))
        if not self.epsilon >= 0:
            raise DomainError(f"epsilon must be non-negative, got {self.epsilon!r}")
        object.__setattr__(self, "n_steps", _require_steps(self.probes, self.n_steps))


def _checked_scale(probes, scale) -> np.ndarray:
    """``scale`` as a float vector; :class:`DomainError` unless it holds one
    positive, finite scale per value of ``probes``."""
    scale = np.asarray(scale, dtype=float).ravel()
    dim = sum(p.arity for p in probes)
    if scale.size != dim:
        raise DomainError(f"scale has length {scale.size}, probes have total dimension {dim}")
    if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        raise DomainError("scales must be positive and finite")
    return scale


def _require_steps(probes, n_steps) -> int:
    """``n_steps`` as an int; refuses a chain whose (n_steps, d) simulated values of
    ``probes`` no array can hold, whatever the scale."""
    n_steps = require_integer("n_steps", n_steps, 1)
    dim = sum(p.arity for p in probes)
    require_batch(n_steps * dim, f"{n_steps} step(s) of {dim} probe values")
    return n_steps


def _observed_probes(probes, model: core.ModelSpec) -> np.ndarray:
    """The values of ``probes`` on the model's data; :class:`DomainError` naming the
    probes whose values are not finite.  :func:`abc` calls it before its first draw."""
    observed = apply_probes(probes, model)[0]
    _refuse_probes("observed probes are not finite", probe_labels(probes),
                   ~np.isfinite(observed))
    return observed


def compute_probe_scales(model: core.ModelSpec, params, probes, nsim=500,
                         seed=0) -> np.ndarray:
    """Per-probe standard deviations across ``nsim`` simulations at ``params``.

    The natural relative scaling for the ABC ball; a probe of zero or
    non-finite spread is an error naming the probe.
    """
    nsim = require_integer("nsim", nsim, 2)
    _, obs_arrays = core.simulate_paths(model, params, stream(seed, "probe-scales"), nsim)
    values = apply_probes(probes, model, obs_arrays)
    with np.errstate(invalid="ignore", over="ignore"):
        scales = values.std(axis=0, ddof=1)
    _refuse_probes("probes of zero or non-finite spread cannot be scaled",
                   probe_labels(probes), ~(np.isfinite(scales) & (scales > 0)))
    return scales


def abc(model: core.ModelSpec, start: core.ParamVector, settings: AbcSettings,
        seed=0) -> Chain:
    """Random-walk ABC-MCMC targeting the probe-matching posterior.

    The returned chain stores, per step, the proposal's scaled distance and
    simulated probe values in ``extras`` ("distance", "sim_probes"), alongside
    the usual acceptance bookkeeping.  ``logliks`` is all-NaN: ABC never
    evaluates a likelihood.
    """
    model.require("abc", "rprocess", "rmeasure")
    tau = settings.scale
    eps2 = settings.epsilon**2
    observed = _observed_probes(settings.probes, model)

    M = settings.n_steps
    distances = np.full(M, np.nan)
    sim_probes = np.full((M, observed.size), np.nan)

    def log_target(params, m):
        if m == 0:
            return 0.0
        _, obs_arrays = core.simulate_paths(model, params, stream(seed, "abc-sim", m - 1), 1)
        sim_vals = apply_probes(settings.probes, model, obs_arrays)[0]
        dist2 = float(np.sum(((sim_vals - observed) / tau) ** 2))
        distances[m - 1] = dist2
        sim_probes[m - 1] = sim_vals
        return 0.0 if dist2 < eps2 else -math.inf

    chain = _metropolis(model, start, settings.proposal, M, seed, log_target, "abc")
    return replace(
        chain,
        logliks=np.full(M, np.nan),
        extras={
            "distance": distances,
            "sim_probes": sim_probes,
            "observed_probes": observed,
            "scale": tau,
            "epsilon": float(settings.epsilon),
        },
    )
