"""Command-line front end.

Subcommands run one algorithm each (simulate, pfilter, mif, pmcmc, probe,
abc, nlf, kalman) plus ``validate`` for configuration checking.  Simple runs
are driven by flags; anything nested (random-walk scales, probe lists,
priors) comes from a JSON config document, with flags overriding config
values.  Every run requires an explicit seed: results are byte-reproducible
given (config, seed).  Runs are serial: their loops hold the interpreter
lock, so ``threads`` (config field or ``--threads``) is accepted and recorded
in ``result.json`` but has no effect.  Repeated filters run batched instead:
pfilter replicates, mif starts and mif evaluations each run as the blocks of
one particle swarm.

A run and ``validate`` share one preparation step, ``_prepare``, so
``validate`` refuses every config that a run refuses before its first random
draw, with the same status and line.  It builds the model, the prior and the
probes, then starts the algorithm's runner: a generator that builds its library
settings, calls the library function that owns each check the algorithm makes
before its first draw (the size of each array a count sizes, the starts of the
chain and of nlf's search, the probes on the data, the data rules of nlf and
kalman), and stops at its first ``yield``.  ``validate`` ends there, so it runs
no algorithm and writes nothing; a run resumes the runner for its results and
then writes them.

Exit status: 0 success, 2 validation error (an unusable ``output`` included),
3 algorithm failure (a setting the library refuses, or a run out of memory,
included).  The output directory and its files are written only once the run
has succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import core, dataio, models, nlf, oracle, probes, smc
from .abc import (AbcSettings, _checked_scale, _observed_probes, _require_steps, abc as run_abc,
                  compute_probe_scales)
from .exceptions import ConfigError, DomainError, PompKitError, require_names
from .mif import MifSettings, _mif_blocks, _require_blocks
from .mif import mif as run_mif  # noqa: F401  (perfbench's tracer patches cli.run_mif)
from .pmcmc import (
    _chain_start,
    effective_sample_size,
    mvn_diag_rw,
    pmcmc as run_pmcmc,
    uniform_box_prior,
)
from .rng import child_seeds, stream

logger = logging.getLogger("pompkit")

ALGORITHMS = ("simulate", "pfilter", "mif", "pmcmc", "probe", "abc", "nlf", "kalman")


def _count(minimum=-2**63):  # numpy's int64 range, which bounds every array size
    return {"type": "integer", "minimum": minimum, "maximum": 2**63 - 1}


def _closed(properties, *required):
    """An object schema with ``properties``, the ``required`` keys and no other key."""
    return {"type": "object", "properties": properties,
            **({"required": list(required)} if required else {}),
            "additionalProperties": False}


_PROBE_SPEC = _closed({
    "type": {"enum": ["mean", "acf", "nlar", "marginal"]},
    "var": {"type": "string"},
    "transform": {"enum": ["sqrt", "log", "identity", None]},
    "lags": {"type": "array", "items": _count()},
    "powers": {"type": "array", "items": _count()},
    "npoly": _count(1),
}, "type", "var")

_SD_MAP = {"type": "object", "additionalProperties": {"type": "number", "minimum": 0}}
_PRIOR = {
    "type": "object",
    "additionalProperties": {
        "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
    },
}

SETTINGS_SCHEMAS = {
    "simulate": _closed({
        "nsim": _count(1),
        "include_states": {"type": "boolean"},
    }),
    "pfilter": _closed({
        "np": _count(1),
        "max_fail": _count(0),
        "replicates": _count(1),
    }),
    "kalman": _closed({"mle": {"type": "boolean"}}),
    "mif": _closed({
        "iterations": _count(0),
        "np": _count(1),
        "rw_sd": _SD_MAP,
        "ivp_names": {"type": "array", "items": {"type": "string"}},
        "var_factor": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": math.inf},
        "cooling_factor": {"type": "number"},
        "cooling_fraction": {"type": "number"},
        "transform": {"type": "boolean"},
        "max_fail": _count(0),
        "starts": _count(1),
        "start_jitter_sdlog": {"type": "number", "minimum": 0, "exclusiveMaximum": math.inf},
        "eval_replicates": _count(1),
        "eval_np": _count(1),
    }, "rw_sd"),
    "pmcmc": _closed({
        "steps": _count(1),
        "np": _count(1),
        "proposal_sd": _SD_MAP,
        "prior": _PRIOR,
        "max_fail": _count(0),
    }, "proposal_sd", "prior"),
    "abc": _closed({
        "steps": _count(1),
        "probes": {"type": "array", "items": _PROBE_SPEC, "minItems": 1},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "scale": {
            "anyOf": [
                {"enum": ["auto"]},
                {"type": "array", "items": {"type": "number"}},
            ]
        },
        "scale_nsim": _count(2),
        "proposal_sd": _SD_MAP,
        "prior": _PRIOR,
    }, "probes", "proposal_sd", "prior"),
    "probe": _closed({
        "probes": {"type": "array", "items": _PROBE_SPEC, "minItems": 1},
        "nsim": _count(2),
    }, "probes"),
    "nlf": _closed({
        "lags": {"type": "array", "items": _count(1), "minItems": 1},
        "nrbf": _count(2),
        "transient": _count(1),
        "sim_length": _count(1),
        "est": {"type": "array", "items": {"type": "string"}},
        "transform": {"type": "boolean"},
        "maxit": _count(1),
    }, "lags"),
}

CONFIG_SCHEMA = _closed({
    "schema": {"const": 1},
    "algorithm": {"enum": list(ALGORITHMS)},
    "model": {"type": "string"},
    "seed": {"type": "integer", "minimum": 0},
    "threads": {"type": "integer", "minimum": 1},
    "output": {"type": "string", "minLength": 1},
    "data": {"type": "string"},
    "t0": {"type": "number"},
    "covariates": {"type": "string"},
    "params": {"type": "object", "additionalProperties": {"type": "number"}},
    "settings": {"type": "object"},
}, "schema", "algorithm", "model", "seed")


@functools.cache
def _validators():
    """The config validator and the settings validator of each algorithm, built
    on first use and then reused, which keeps jsonschema out of ``import
    pompkit.cli``.  Both schemas are constants, checked against the metaschema
    by the test suite rather than on every run.  A count is a JSON integer:
    JSON Schema's "integer" also admits 2.0, which these validators refuse.  A
    "number" is read as a float, so an integer too large for one is refused."""
    import jsonschema

    base = jsonschema.Draft202012Validator

    def type_keyword(validator, types, instance, schema):
        yield from base.VALIDATORS["type"](validator, types, instance, schema)
        if types == "number" and isinstance(instance, int):
            try:
                float(instance)
            except OverflowError:
                yield jsonschema.ValidationError("integer too large for a float")

    validator = jsonschema.validators.extend(
        base, validators={"type": type_keyword},
        type_checker=base.TYPE_CHECKER.redefine(
            "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))
    return (validator(CONFIG_SCHEMA),
            {name: validator(schema) for name, schema in SETTINGS_SCHEMAS.items()})


def validate_config(config: dict) -> dict:
    """Schema-validate a run configuration; raises ConfigError with the
    offending field path."""
    from jsonschema.exceptions import best_match

    config_validator, settings_validators = _validators()
    err = best_match(config_validator.iter_errors(config))
    if err is not None:
        raise ConfigError(f"config{err.json_path[1:]}: {err.message}")
    if config["model"] not in models.BUILTIN_MODELS:
        raise ConfigError(
            f"config.model: unknown model {config['model']!r}; "
            f"valid names: {sorted(models.BUILTIN_MODELS)}"
        )
    algorithm = config["algorithm"]
    settings = config.get("settings", {})
    errors = sorted(settings_validators[algorithm].iter_errors(settings),
                    key=lambda e: e.json_path)
    if errors:
        detail = "; ".join(f"settings{e.json_path[1:]}: {e.message}"
                           for e in errors[:3])
        raise ConfigError(
            f"config.{detail} (settings block must match algorithm {algorithm!r})"
        )
    return config


def load_config(path) -> dict:
    """The JSON object in the file ``path``; :class:`ConfigError` naming the
    file unless it is UTF-8 text holding one strict-JSON object, which has no
    ``NaN``, ``Infinity`` or ``-Infinity`` and no integer longer than Python
    converts (``sys.get_int_max_str_digits()``)."""

    def refuse_constant(name):
        raise ConfigError(f"{path}: {name} is not a JSON number")

    def parse_int(digits):
        try:
            return int(digits)
        except ValueError:  # past the interpreter's digit limit
            raise ConfigError(f"{path}: an integer has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None

    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=refuse_constant, parse_int=parse_int)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: a config must be a JSON object, not "
                          f"{type(config).__name__}")
    return config


# ---------------------------------------------------------------------------
# Run machinery


_TRANSFORMS = {"sqrt": np.sqrt, "log": np.log, "identity": None, None: None}


def _build_probe(spec: dict, model: core.ModelSpec):
    transform = _TRANSFORMS[spec.get("transform")]
    kind = spec["type"]
    var = spec["var"]
    require_names("observables", (var,), model.obs_names)
    if kind == "mean":
        return probes.probe_mean(var, transform=transform)
    if kind == "acf":
        if "lags" not in spec:
            raise DomainError("acf probe needs 'lags'")
        return probes.probe_acf(var, spec["lags"], transform=transform)
    if kind == "nlar":
        if "lags" not in spec or "powers" not in spec:
            raise DomainError("nlar probe needs 'lags' and 'powers'")
        return probes.probe_nlar(var, spec["lags"], spec["powers"], transform=transform)
    ref = model.data.column(var)
    if np.isnan(ref).any():
        raise DomainError("marginal probe needs complete observed data as reference")
    return probes.probe_marginal(var, ref, transform=transform, **_given(spec, "npoly"))


@contextlib.contextmanager
def _config_field(field):
    """A :class:`DomainError` raised in the block becomes a ConfigError prefixed by ``field``."""
    try:
        yield
    except DomainError as err:
        raise ConfigError(f"{field}: {err}") from None


def _build_model(config: dict):
    model = models.build_model(config["model"])
    if config.get("params"):
        merged = model.params.as_dict()
        with _config_field("config.params"):
            require_names("parameters", config["params"], merged)
        merged.update(config["params"])
        model = model.with_params(core.ParamVector(merged))
    if config.get("covariates"):
        model = dataclasses.replace(
            model, covariates=_load_input(config, "covariates", dataio.load_covariates))
    data = config.get("data", "simulate")
    if data == "simulate":
        rec = core.simulate(model, seed=child_seeds(config["seed"], "dataset", 1)[0])[0]
        model = core.attach_data(model, rec)
    else:
        t0 = config.get("t0", model.data.t0)
        model = model.with_data(_load_input(config, "data", dataio.load_time_series, t0=t0,
                                            observables=list(model.obs_names)))
    return model


def _load_input(config, field, loader, **kwargs):
    """Run a dataio loader on the file that config ``field`` names; any failure exits 2."""
    with _config_field(f"config.{field}"):
        try:
            return loader(config[field], **kwargs)
        except OSError as err:
            raise ConfigError(f"{config[field]}: {err.strerror or err}") from None


def _given(settings, *names, **renamed):
    """The settings named in ``names`` or ``renamed`` (library keyword =
    settings key) that the config gives, under the library's keywords; the
    library's own defaults apply to the rest."""
    keys = dict(zip(names, names), **renamed)
    return {kw: settings[key] for kw, key in keys.items() if key in settings}


def _prepare(config: dict):
    """Every refusal before an algorithm's first draw, in one place: ``validate`` and a
    run both start here.  Returns the algorithm's runner advanced to its first
    ``yield``, where it has built its library settings and called the library's checks
    that precede the first draw; ``validate`` stops there."""
    config = validate_config(config)
    outdir = config.get("output", ".")
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ConfigError(f"config.output: {outdir}: not a directory")
    model = _build_model(config)
    settings = dict(config.get("settings", {}))
    if "prior" in settings:
        with _config_field("config.settings.prior"):
            require_names("parameters", settings["prior"], model.params.names)
            rprior, dprior = uniform_box_prior(settings["prior"])
        model = dataclasses.replace(model, rprior=rprior, dprior=dprior)
    if "probes" in settings:
        built = []
        for i, spec in enumerate(settings["probes"]):
            with _config_field(f"config.settings.probes[{i}]"):
                built.append(_build_probe(spec, model))
        settings["probes"] = built
    runner = _RUNNERS[config["algorithm"]](model, config, settings)
    next(runner)
    return runner


def _chain_summary(chain):
    ess = {name: effective_sample_size(chain.column(name)) if chain.n_steps >= 10
           else float("nan") for name in chain.param_names}
    return {
        "acceptance_rate": chain.acceptance_rate,
        "posterior_mean": chain.posterior_mean(),
        "posterior_sd": chain.posterior_sd(),
        "ess": ess,
        "n_steps": chain.n_steps,
    }


def _run_simulate(model, config, settings):
    nsim = settings.get("nsim", 1)
    core._require_datasets(model, nsim, model.data.n_obs)
    yield
    records = core.simulate(model, seed=config["seed"], nsim=nsim)
    out = {"n_sim": len(records), "n_obs": model.data.n_obs}
    yield out, {"simulations": lambda path: dataio.write_simulations_csv(
        path, records, **_given(settings, "include_states"))}


def _run_pfilter(model, config, settings):
    reps, J = settings.get("replicates", 1), settings.get("np", 1000)
    smc._require_swarm(model, reps, J)
    yield
    # all replicates run as the blocks of one pass, on the seed of replicate 0;
    # only replicate 0's diagnostics are written
    seed = child_seeds(config["seed"], "pfilter-reps", 1)[0]
    results = smc._pfilter_blocks(model, [None] * reps, J, seed,
                                  **_given(settings, "max_fail"), diagnostics=1)
    primary = results[0]
    out = {
        "loglik": primary.loglik,
        "cond_logliks": primary.cond_logliks.tolist(),
        "ess": primary.ess.tolist(),
        "np": primary.num_particles,
    }
    if reps > 1:
        lme, se = smc.logmeanexp(np.array([r.loglik for r in results]), with_se=True)
        out["replicates"] = {"logliks": [r.loglik for r in results],
                             "logmeanexp": lme, "se": se}
    yield out, {}


def _run_kalman(model, config, settings):
    if model.name != "gompertz":
        raise ConfigError("the kalman subcommand applies to the gompertz model only")
    if np.isnan(model.data.observations).any():
        raise ConfigError("kalman needs complete data (no missing values)")
    y_log, delta_t = oracle._gompertz_log_data(model.data)
    params = model.params.as_dict()
    ssm = oracle.gompertz_ssm(params, delta_t)  # refuses parameters off the log scale
    yield
    out = {"loglik": oracle.kalman_loglik(ssm, y_log), "params": params}
    if settings.get("mle"):
        theta, loglik, res = oracle.kalman_exact_mle(model.data, model.params)
        out["mle"] = {"params": theta.as_dict(), "loglik": loglik, "status": res.status}
    yield out, {}


def _run_mif(model, config, settings):
    mset = MifSettings(
        start=model.params, n_iterations=settings.get("iterations", 50),
        num_particles=settings.get("np", 1000), rw_sd=settings["rw_sd"],
        **_given(settings, "ivp_names", "var_factor", "cooling_factor",
                 "cooling_fraction", "transform", "max_fail"))
    starts = settings.get("starts", 1)
    n_evals = settings.get("eval_replicates", 10)
    eval_np = settings.get("eval_np", mset.num_particles)
    smc._require_swarm(model, starts * n_evals, eval_np, what=f"{starts} start(s) x "
                       f"{n_evals} evaluation replicate(s) of {eval_np} particles")
    _require_blocks(model, mset, starts)  # and the start on mif's estimation scale
    jitter = settings.get("start_jitter_sdlog", 1.0)
    work = None
    if starts > 1 and jitter > 0:  # the jitter uses the model's transforms, even without mif's
        work = core._to_estimation(model, model.params,
                                   [n for n, v in mset.rw_sd.items() if v > 0])
    yield
    theta0s = [model.params] * starts
    if work is not None:
        theta0s = []
        for jitter_seed in child_seeds(config["seed"], "mif-jitter", starts):
            g = stream(jitter_seed)
            moved = {n: w + jitter * g.standard_normal() for n, w in work.items()}
            theta0s.append(core.ParamVector(core._from_estimation(model, model.params, moved)))
    # the starts run as the blocks of one swarm, and then every start's
    # evaluation replicates as the blocks of one filter, on the seeds of start 0
    seed = child_seeds(config["seed"], "mif-starts", 1)[0]
    results = _mif_blocks(model, mset, theta0s, seed)
    evals = smc._pfilter_blocks(
        model, [r.theta_hat for r in results for _ in range(n_evals)], eval_np,
        child_seeds(seed, "mif-eval", 1)[0], mset.max_fail, diagnostics=False)
    runs = []
    for k, result in enumerate(results):
        lls = np.array([f.loglik for f in evals[k * n_evals:(k + 1) * n_evals]])
        runs.append((result, *smc.logmeanexp(lls, with_se=True)))
    best_idx = int(np.argmax([lme for _, lme, _ in runs]))
    best, best_lme, best_se = runs[best_idx]
    out = {
        "theta_hat": best.theta_hat.as_dict(),
        "loglik": best_lme,
        "loglik_se": best_se,
        "best_start": best_idx,
        "starts": [
            {"theta_hat": r.theta_hat.as_dict(), "loglik": lme, "loglik_se": se}
            for r, lme, se in runs
        ],
    }
    yield out, {"trace": lambda path: dataio.write_trace_csv(path, best)}


def _run_pmcmc(model, config, settings):
    n_steps, J = settings.get("steps", 2000), settings.get("np", 100)
    proposal = mvn_diag_rw(settings["proposal_sd"])
    _chain_start(model, model.params, proposal, n_steps, "pmcmc")
    smc._require_swarm(model, 1, J)  # each proposal's filter
    yield
    chain = run_pmcmc(model, model.params, n_steps=n_steps, num_particles=J, proposal=proposal,
                      seed=config["seed"], **_given(settings, "max_fail"))
    yield _chain_summary(chain), {"chain": lambda path: dataio.write_chain_csv(path, chain)}


def _run_abc(model, config, settings):
    probe_list, n_steps = settings["probes"], settings.get("steps", 5000)
    scale, scale_nsim = settings.get("scale", "auto"), settings.get("scale_nsim", 500)
    proposal = mvn_diag_rw(settings["proposal_sd"])
    _require_steps(probe_list, n_steps)
    _chain_start(model, model.params, proposal, n_steps, "abc")
    if scale == "auto":  # simulated by the run, whose spread check precedes abc's own
        probes.apply_probes(probe_list, model)  # refuses a probe the data cannot give
        core._require_datasets(model, scale_nsim, model.data.n_obs)
    else:  # also refuses observed values that are not finite
        _observed_probes(probe_list, model)
        _checked_scale(probe_list, scale)
    yield
    if scale == "auto":
        scale = compute_probe_scales(model, model.params, probe_list, nsim=scale_nsim,
                                     seed=child_seeds(config["seed"], "abc-scale", 1)[0])
    aset = AbcSettings(probe_list, scale, proposal, n_steps, **_given(settings, "epsilon"))
    chain = run_abc(model, model.params, aset, seed=config["seed"])
    out = _chain_summary(chain)
    out["scale"] = aset.scale.tolist()
    out["epsilon"] = aset.epsilon
    yield out, {"chain": lambda path: dataio.write_chain_csv(path, chain)}


def _run_probe(model, config, settings):
    nsim = settings.get("nsim", 1000)
    probes.apply_probes(settings["probes"], model)  # refuses a probe the data cannot give
    core._require_datasets(model, nsim, model.data.n_obs)
    yield
    result = probes.probe(model, model.params, settings["probes"], seed=config["seed"],
                          nsim=nsim)
    # the datasets the probe values derive from, for plotting or re-ingesting
    obs = result.simulated_obs
    records = core._records(model, model.params, np.empty((len(obs), obs.shape[1] + 1, 0)),
                            obs, ())
    out = {
        "synth_loglik": result.synth_loglik,
        "labels": list(result.labels),
        "observed": result.observed.tolist(),
        "p_values": result.p_values.tolist(),
    }
    yield out, {"probes": lambda path: dataio.write_probes_csv(path, result),
                "simulations": lambda path: dataio.write_simulations_csv(
                    path, records, include_states=False)}


def _run_nlf(model, config, settings):
    nset = nlf.NlfSettings(lags=settings["lags"], **_given(
        settings, "sim_length", "transient", "est", "transform", n_rbf="nrbf"))
    oracle._estimation_start(model, model.params, nset.est, nset.transform)
    nlf._fitted_series(model, nset)
    yield
    result = nlf.nlf_fit(model, model.params, nset, seed=config["seed"],
                         **_given(settings, "maxit"))
    yield {
        "theta": result.theta.as_dict(),
        "quasi_loglik": result.value,
        "status": result.status,
    }, {}


# a runner is a generator over (model, config, settings): it builds its library
# settings and calls the library's checks that precede the first draw, yields
# once (where ``validate`` stops), then computes and yields (results, files),
# ``files`` mapping a stem to a writer of ``<stem>.csv`` that looks
# ``dataio.write_*`` up when called (perfbench traces those attributes)
_RUNNERS = {
    "simulate": _run_simulate,
    "pfilter": _run_pfilter,
    "kalman": _run_kalman,
    "mif": _run_mif,
    "pmcmc": _run_pmcmc,
    "abc": _run_abc,
    "probe": _run_probe,
    "nlf": _run_nlf,
}


def _refused(err: Exception) -> int:
    """Print ``err`` as one line; returns its exit status, 2 for a ConfigError, else 3."""
    if isinstance(err, ConfigError):
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"algorithm failure: {str(err) or type(err).__name__}", file=sys.stderr)
    return 3


def write_outputs(config: dict, results: dict, files: dict) -> str:
    """Make the config's output directory and write each of ``files`` and then
    ``result.json`` into it; returns the path of ``result.json``.  An
    :class:`OSError` becomes a :class:`ConfigError` naming the path."""
    payload = {
        "schema": 1,
        "algorithm": config["algorithm"],
        "model": config["model"],
        "seed": config["seed"],
        "threads": config.get("threads", 1),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "results": results,
        "files": {stem: f"{stem}.csv" for stem in files},
    }
    outdir = config.get("output", ".")
    result_path = os.path.join(outdir, "result.json")
    try:
        os.makedirs(outdir, exist_ok=True)
        for stem, write in files.items():
            write(os.path.join(outdir, f"{stem}.csv"))
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        raise ConfigError(f"{err.filename or outdir}: {err.strerror or err}") from None
    return result_path


# ---------------------------------------------------------------------------
# Argument parsing


# the flags that set one settings key of their subcommand: subcommand -> key -> help
_SETTINGS_FLAGS = {
    "simulate": {"nsim": "number of realizations"},
    "pfilter": {"np": "number of particles", "replicates": "replicate filter runs"},
    "probe": {"nsim": "number of simulations"},
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--model", help="built-in model name")
    sub.add_argument("--data", help="dataset CSV path, or 'simulate'")
    sub.add_argument("--seed", type=int, help="master seed (required)")
    sub.add_argument("--threads", type=int,
                     help="accepted for compatibility; runs are serial")
    sub.add_argument("--t0", type=float, help="initial time for loaded data")
    sub.add_argument("-o", "--output", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pomp-kit`` argument parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="pomp-kit",
        description="Simulation-based inference for partially observed Markov processes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ALGORITHMS:
        sub = subs.add_parser(name, help=f"run {name}")
        _add_common(sub)
        for key, help_text in _SETTINGS_FLAGS.get(name, {}).items():
            sub.add_argument(f"--{key}", type=int, help=help_text)
    val = subs.add_parser("validate", help="check a config file")
    val.add_argument("--config", required=True)
    return parser


def _merge_flags(args) -> dict:
    config = load_config(args.config) if args.config else {}
    config.setdefault("schema", 1)
    config.setdefault("algorithm", args.command)
    if config["algorithm"] != args.command:
        raise ConfigError(
            f"config.algorithm {config['algorithm']!r} does not match "
            f"subcommand {args.command!r}"
        )
    for key in ("model", "data", "seed", "threads", "output", "t0"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    settings = config.setdefault("settings", {})
    if not isinstance(settings, dict):
        raise ConfigError(f"config.settings: {settings!r} is not of type 'object'")
    for key in _SETTINGS_FLAGS.get(args.command, ()):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return config


@core.one_run
def main(argv=None) -> int:
    """Run ``pomp-kit`` on ``argv``; returns the process exit status.  The output
    directory and its files are made only once the runner has succeeded.

    numpy's floating-point warnings are ignored for the whole run, so that a
    refusal is one line: the divergence scan and the filter's NaN rule name
    what those warnings come before (a state gone non-finite, a NaN log
    weight)."""
    logging.basicConfig(level=os.environ.get("PK_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            if args.command == "validate":
                _prepare(load_config(args.config))
                line = "valid"
            else:
                config = _merge_flags(args)
                line = write_outputs(config, *next(_prepare(config)))
    except (PompKitError, MemoryError) as err:  # a count can outgrow the memory
        return _refused(err)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
