"""Built-in example models.

Each constructor returns a ready-to-use :class:`~pompkit.core.ModelSpec` with
default parameters; pass ``data=`` to attach a real dataset or leave the
placeholder NaN data and fill it by simulation.  All step functions are
vectorized over the particle axis and draw from the supplied generator only.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CovariateTable,
    ModelSpec,
    ParamVector,
    TimeSeriesData,
    discrete_time_process,
    euler_process,
    log_exp_transforms,
)
from .distributions import _binomial_probs, _check_step, dlnorm, dnbinom_mu, dpois, rnbinom_mu
from .distributions import reulermultinom  # noqa: F401  (perfbench's tracer patches it here)
from .exceptions import require_integer

__all__ = [
    "gompertz_model",
    "ricker_model",
    "sir_model",
    "sir_seasonal_model",
    "sir_step_flows",
    "sir_force_of_infection",
    "seasonal_transmission_rate",
    "synthetic_birth_covariate",
    "BUILTIN_MODELS",
    "build_model",
]


# ---------------------------------------------------------------------------
# Gompertz population model
#
# Density X relaxes toward the carrying capacity K at rate r under lognormal
# process noise, and is observed with lognormal measurement error:
#   X' = K**(1-S) * X**S * eps,  S = exp(-r dt),  log eps ~ N(0, sigma^2)
#   log Y ~ N(log X, tau^2)

GOMPERTZ_DEFAULTS = ParamVector({"r": 0.1, "K": 1.0, "sigma": 0.1, "tau": 0.1, "X.0": 1.0})


def _gompertz_step(x, params, t, dt, rng, covars):
    s = np.exp(-params["r"] * dt)
    eps = np.exp(rng.normal(0.0, params["sigma"], size=x["X"].shape))
    return {"X": params["K"] ** (1.0 - s) * x["X"] ** s * eps}


def _gompertz_rmeasure(x, params, t, rng, covars):
    # a zero-mean draw added to log X: the same numbers as an array loc, without
    # numpy's per-call array-constraint check on it (its check on tau stays)
    return {"Y": np.exp(np.log(x["X"]) + rng.normal(0.0, params["tau"], size=x["X"].shape))}


def _gompertz_dmeasure(y, x, params, t, log, covars):
    return dlnorm(y["Y"], np.log(x["X"]), params["tau"], log=log)


def gompertz_model(data=None, params=None, n_obs=100, t0=0.0) -> ModelSpec:
    """Gompertz model with log/exp transforms on all parameters."""
    if data is None:
        n_obs = require_integer("n_obs", n_obs, 1)
        data = TimeSeriesData.empty(t0, np.arange(1.0, n_obs + 1.0), ("Y",))
    to_est, from_est = log_exp_transforms(GOMPERTZ_DEFAULTS.names)
    return ModelSpec(
        name="gompertz",
        data=data,
        state_names=("X",),
        rprocess=discrete_time_process(_gompertz_step, 1.0),
        rmeasure=_gompertz_rmeasure,
        dmeasure=_gompertz_dmeasure,
        to_estimation=to_est,
        from_estimation=from_est,
        params=params if params is not None else GOMPERTZ_DEFAULTS,
    )


# ---------------------------------------------------------------------------
# Ricker population model
#
#   N' = r * N * exp(-N + e'),  e' ~ N(0, sigma^2)
#   Y ~ Poisson(phi * N)
#
# The state e records the noise used in the most recent transition.

RICKER_DEFAULTS = ParamVector(
    {"r": float(np.exp(3.8)), "sigma": 0.3, "phi": 10.0, "N.0": 7.0, "e.0": 0.0}
)


def _ricker_step(x, params, t, dt, rng, covars):
    e = rng.normal(0.0, params["sigma"], size=x["N"].shape)
    return {"N": params["r"] * x["N"] * np.exp(-x["N"] + e), "e": e}


def _ricker_rmeasure(x, params, t, rng, covars):
    return {"y": rng.poisson(params["phi"] * x["N"], size=x["N"].shape)}


def _ricker_dmeasure(y, x, params, t, log, covars):
    return dpois(y["y"], params["phi"] * x["N"], log=log)


def ricker_model(data=None, params=None, n_obs=51, t0=0.0) -> ModelSpec:
    """Ricker model; transforms take (r, sigma, phi, N.0) through log/exp."""
    if data is None:
        n_obs = require_integer("n_obs", n_obs, 1)
        data = TimeSeriesData.empty(t0, np.arange(0.0, float(n_obs)), ("y",))
    to_est, from_est = log_exp_transforms(("r", "sigma", "phi", "N.0"))
    return ModelSpec(
        name="ricker",
        data=data,
        state_names=("N", "e"),
        rprocess=discrete_time_process(_ricker_step, 1.0),
        rmeasure=_ricker_rmeasure,
        dmeasure=_ricker_dmeasure,
        to_estimation=to_est,
        from_estimation=from_est,
        params=params if params is not None else RICKER_DEFAULTS,
    )


# ---------------------------------------------------------------------------
# SIR epidemic models (continuous time, tau-leap simulation)
#
# Compartments S, I, R change by whole-number births, deaths, infections, and
# recoveries; H accumulates new infections within each reporting interval and
# is reset after every observation.  Case reports are negative binomial with
# mean rho * H and dispersion theta.  Time unit: years; weekly reporting.

SIR_DEFAULTS = ParamVector({
    "popsize": 500000.0, "beta": 400.0, "gamma": 26.0, "mu": 1.0 / 50.0,
    "rho": 0.1, "theta": 100.0, "S.0": 26.0 / 400.0, "I.0": 0.002, "R.0": 1.0,
})

SIR_EULER_DT = 1.0 / 52.0 / 20.0


def sir_force_of_infection(beta, infected, population):
    """Per-susceptible infection rate beta * I / P."""
    return beta * infected / population


def sir_step_flows(x, params, dt, rng, lam, birth_rate):
    """Draw all flow counts for one tau-leap sub-step, in a fixed order.

    Exits from each compartment are Euler-multinomial over the competing
    routes; births are Poisson with the given rate.  Returns a dict of counts.
    """
    n = x["S"].shape[0]
    # rates[route, compartment]: S exits by infection or death, I by recovery
    # or death, R by death alone.  R's second rate is zero, which leaves its
    # probabilities those of a one-route compartment, bit for bit.
    mu = params["mu"]
    rates = np.zeros((2, 3, n))
    rates[0, 0] = lam
    rates[0, 1] = params["gamma"]
    rates[0, 2] = mu
    rates[1, :2] = mu
    sizes = np.empty((3, n), dtype=np.int64)
    sizes[0] = x["S"]
    sizes[1] = x["I"]
    sizes[2] = x["R"]
    _check_step(sizes, rates, dt)
    births = rng.poisson(np.asarray(birth_rate) * dt, size=n)
    q = _binomial_probs(rates, dt)
    # numpy draws array arguments element by element in C order, so a call that
    # stacks two independent routes makes the draws of two calls: the stream
    # order stays SI, SD, IR, ID, RD
    si = rng.binomial(sizes[0], q[0, 0])
    sizes[0] -= si
    sd_ir = rng.binomial(sizes[:2], q[(1, 0), (0, 1)])
    sizes[1] -= sd_ir[1]
    id_rd = rng.binomial(sizes[1:], q[(1, 0), (1, 2)])
    return {
        "births": births,
        "SI": si, "SD": sd_ir[0],
        "IR": sd_ir[1], "ID": id_rd[0],
        "RD": id_rd[1],
    }


def _sir_step(x, params, t, dt, rng, covars):
    pop = x["S"] + x["I"] + x["R"]
    lam = sir_force_of_infection(params["beta"], x["I"], pop)
    flows = sir_step_flows(x, params, dt, rng, lam, params["mu"] * pop)
    s_new, i_new, r_new = _after_flows(x, flows)
    return {"S": s_new, "I": i_new, "R": r_new, "H": x["H"] + flows["SI"]}


def _after_flows(x, flows):
    """S, I and R after one sub-step's flows.

    Each compartment's net flow is summed in int64 and added to the float
    state once.  Compartments and counts are whole numbers far below 2**53,
    so this equals the float sum term by term, bit for bit.
    """
    si, ir = flows["SI"], flows["IR"]
    return (x["S"] + (flows["births"] - si - flows["SD"]),
            x["I"] + (si - ir - flows["ID"]),
            x["R"] + (ir - flows["RD"]))


def _initial_fractions(params):
    """S.0, I.0 and R.0 stacked along axis 0.  Per-particle parameters add a
    particle axis, to which scalar ones (say, those mif holds fixed) broadcast."""
    return np.array(np.broadcast_arrays(params["S.0"], params["I.0"], params["R.0"]),
                    dtype=float)


def _sir_initializer(params, t0, rng, n):
    fracs = _initial_fractions(params)
    counts = np.round(params["popsize"] * fracs / fracs.sum(axis=0))
    return {
        "S": np.full(n, counts[0]),
        "I": np.full(n, counts[1]),
        "R": np.full(n, counts[2]),
        "H": np.zeros(n),
    }


def _sir_rmeasure(x, params, t, rng, covars):
    return {"cases": rnbinom_mu(params["theta"], params["rho"] * x["H"], rng,
                                n=x["H"].shape[0]).astype(float)}


def _sir_dmeasure(y, x, params, t, log, covars):
    return dnbinom_mu(y["cases"], params["theta"], params["rho"] * x["H"], log=log)


def _weekly_times(years=10.0):
    n_weeks = int(round(years * 52))
    return np.arange(0, n_weeks + 1) / 52.0


def sir_model(data=None, params=None, years=10.0, delta_t=SIR_EULER_DT) -> ModelSpec:
    """Closed-population SIR with demographic turnover and case reporting;
    transforms take ``rho`` through logit/expit, the rest through log/exp."""
    if data is None:
        data = TimeSeriesData.empty(-1.0 / 52.0, _weekly_times(years), ("cases",))
    to_est, from_est = log_exp_transforms(
        (n for n in SIR_DEFAULTS.names if n != "rho"), logit_names=("rho",))
    return ModelSpec(
        name="sir",
        data=data,
        state_names=("S", "I", "R", "H"),
        rprocess=euler_process(_sir_step, delta_t),
        rmeasure=_sir_rmeasure,
        dmeasure=_sir_dmeasure,
        initializer=_sir_initializer,
        accumulators=("H",),
        to_estimation=to_est,
        from_estimation=from_est,
        params=params if params is not None else SIR_DEFAULTS,
    )


# Seasonal variant: transmission follows a Fourier-in-phase law with optional
# phase diffusion (extrademographic noise), imported infections iota, and a
# birth-rate covariate driving recruitment.

SIR_SEASONAL_DEFAULTS = ParamVector({
    "popsize": 500000.0, "iota": 5.0, "b1": 6.0, "b2": 0.2, "b3": -0.1,
    "gamma": 26.0, "mu": 1.0 / 50.0, "rho": 0.1, "theta": 100.0, "sigma": 0.3,
    "S.0": 0.055, "I.0": 0.002, "R.0": 0.94,
})


def seasonal_transmission_rate(params, phase):
    """log-linear Fourier transmission rate evaluated at the given phase."""
    angle = 2.0 * np.pi * phase
    return np.exp(params["b1"] + params["b2"] * np.cos(angle)
                  + params["b3"] * np.sin(angle))


def _sir_seasonal_step(x, params, t, dt, rng, covars):
    phi = x["Phi"]
    beta = seasonal_transmission_rate(params, phi)
    lam = beta * (x["I"] + params["iota"]) / x["P"]
    birth_rate = covars["births"] if covars is not None else params["mu"] * x["P"]
    flows = sir_step_flows(x, params, dt, rng, lam, birth_rate)
    sigma = params["sigma"]
    dw = rng.normal(dt, sigma * math.sqrt(dt), size=phi.shape)
    s_new, i_new, r_new = _after_flows(x, flows)
    noise_inc = np.divide(dw - dt, sigma, out=np.zeros(phi.shape), where=sigma > 0)
    return {
        "S": s_new, "I": i_new, "R": r_new,
        "P": s_new + i_new + r_new,
        "Phi": phi + dw,
        "H": x["H"] + flows["SI"],
        "noise": x["noise"] + noise_inc,
    }


def _sir_seasonal_initializer(params, t0, rng, n):
    fracs = _initial_fractions(params)
    counts = np.round(params["popsize"] * (fracs / fracs.sum(axis=0)))
    return {
        "S": np.full(n, counts[0]), "I": np.full(n, counts[1]),
        "R": np.full(n, counts[2]), "P": np.full(n, np.round(params["popsize"])),
        "H": np.zeros(n), "Phi": np.zeros(n), "noise": np.zeros(n),
    }


def synthetic_birth_covariate(t_min=-0.2, t_max=10.2, popsize=500000.0,
                              mu=1.0 / 50.0) -> CovariateTable:
    """Synthetic monthly birth-rate series (births per year).

    Stand-in data: the mean matches demographic turnover mu * popsize with a
    mild 10% seasonal swing.  Clearly synthetic; replace with real counts for
    any actual analysis.
    """
    times = np.arange(t_min, t_max + 1e-9, 1.0 / 12.0)
    births = mu * popsize * (1.0 + 0.1 * np.cos(2.0 * np.pi * times))
    return CovariateTable(times=times, values=births[:, None], names=("births",))


def sir_seasonal_model(data=None, params=None, years=10.0, covariates=None,
                       delta_t=SIR_EULER_DT) -> ModelSpec:
    """Seasonal SIR with phase noise, imports, and a birth covariate.

    Transforms: logit for ``rho``, log for the rest but ``b1``-``b3``; only a
    fit that estimates ``sigma`` from 0 needs ``transform=False``.
    """
    if data is None:
        data = TimeSeriesData.empty(-1.0 / 52.0, _weekly_times(years), ("cases",))
    if covariates is None:  # a table covering the data's range, with a margin
        covariates = synthetic_birth_covariate(t_max=years + 0.2)
    to_est, from_est = log_exp_transforms(
        (n for n in SIR_SEASONAL_DEFAULTS.names if n not in ("b1", "b2", "b3", "rho")),
        logit_names=("rho",))
    return ModelSpec(
        name="sir-seasonal",
        data=data,
        state_names=("S", "I", "R", "H", "P", "Phi", "noise"),
        rprocess=euler_process(_sir_seasonal_step, delta_t),
        rmeasure=_sir_rmeasure,
        dmeasure=_sir_dmeasure,
        initializer=_sir_seasonal_initializer,
        accumulators=("H", "noise"),
        covariates=covariates,
        to_estimation=to_est,
        from_estimation=from_est,
        params=params if params is not None else SIR_SEASONAL_DEFAULTS,
    )


BUILTIN_MODELS = {
    "gompertz": gompertz_model,
    "ricker": ricker_model,
    "sir": sir_model,
    "sir-seasonal": sir_seasonal_model,
}


def build_model(name, **kwargs) -> ModelSpec:
    """Construct a built-in model by registry name."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; built-ins: {sorted(BUILTIN_MODELS)}"
        ) from None
    return factory(**kwargs)
