"""Fingerprint fixed-seed outputs of the library and the CLI.

Prints one ``name sha256-prefix`` line per output.  Run it against two
checkouts and diff the listings to show that a refactor left the numbers
bit-identical:

    PYTHONPATH=<checkout>/src python3 tools/hash_outputs.py > hashes.txt

Covered: ``pfilter`` on Gompertz, SIR and seasonal SIR (each also with a
tolerated filtering failure) and on Ricker; three Gompertz filters run as the
blocks of one swarm (one block with a tolerated failure), five more (two
failing at one step and a third later), eight of 600 particles with
differing ``r`` (one failing once), a swarm resampled by counting, and three SIR
filters likewise, whose differing ``gamma`` and ``mu`` become per-particle
arrays; ``simulate_paths`` on SIR, seasonal SIR (also one 2-year
realization), Ricker, Gompertz (also without measurements, and one
realization on a 500-step grid of its own from an explicit ``t0``, the call
``nlf_quasi_loglik`` makes) and a toy model whose ``rprocess`` returns its
input; ``simulate`` on a 12-year seasonal SIR,
whose default birth covariate must cover all twelve years; ``mif`` on
Gompertz (with and without IVPs and ``transform``, and with a tolerated
failure) and on seasonal SIR (small and realistic walks, and with ``sigma``
fixed at 0 under the log transform); ``pmcmc`` on Gompertz (plain, and with
prior-zero proposals and an auto-rejected filtering failure, and with
filters that tolerate one failure); ``abc`` on
Gompertz and on the toy model; ``probe_match``, ``nlf_quasi_loglik`` and
``nlf_fit``; and the CLI's ``result.json`` (minus ``generated_at``) and CSV
files for ``simulate`` (three realizations with states, and one without),
``pfilter`` (with three replicates and with one), ``mif``, ``pmcmc``,
``probe``, ``abc`` and ``kalman`` (with the exact MLE), and for ``simulate``
on seasonal SIR (two realizations, whose integer-valued compartments sit next
to the continuous ``Phi`` and ``noise``), each of whose output
directories must hold exactly ``result.json`` and the files it names.  All
runs are small; the whole script takes well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

import pompkit as pk
from pompkit import cli, smc


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        elif isinstance(part, (bytes, bytearray)):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def filter_parts(res):
    parts = [res.loglik, res.cond_logliks, res.ess, res.filter_means, res.n_failures]
    if res.final_particles is not None:
        parts.append(res.final_particles)
    return parts


def chain_parts(chain):
    return [chain.samples, chain.logliks, chain.log_priors, chain.accepted,
            *(chain.extras[k] for k in sorted(chain.extras))]


def fails_at(model, t_fail, when=lambda params: True):
    """The model with every particle weight zero at observation time ``t_fail``,
    for the parameters where ``when(params)`` holds (per particle, when the
    parameters are per-particle arrays)."""
    dmeasure = model.dmeasure

    def broken(y, x, params, t, log, covars):
        out = dmeasure(y, x, params, t, log, covars)
        return np.where(when(params), -np.inf, out) if t == t_fail else out

    return dataclasses.replace(model, dmeasure=broken)


def with_box_prior(model, bounds):
    rprior, dprior = pk.uniform_box_prior(bounds)
    return dataclasses.replace(model, rprior=rprior, dprior=dprior)


def normal_mean_model(n=20):
    """Latent constant, observations iid N(mu, 1); ``rprocess`` returns its input."""
    rprior, dprior = pk.uniform_box_prior({"mu": (-2.0, 2.0)})
    data = np.random.default_rng(100).normal(0.3, 1.0, size=n)
    return pk.ModelSpec(
        data=pk.TimeSeriesData(t0=0.0, times=np.arange(1.0, n + 1), observations=data[:, None],
                               obs_names=("y",)),
        state_names=("x",),
        rprocess=lambda x, p, t0, t1, rng, cv: x,
        rmeasure=lambda x, p, t, rng, cv: {"y": rng.normal(p["mu"] * np.ones_like(x["x"]), 1.0)},
        dprior=dprior,
        rprior=rprior,
        params=pk.ParamVector({"mu": 0.3, "x.0": 0.0}),
    )


def library_hashes():
    out = {}
    gomp = pk.gompertz_model()
    gomp = pk.attach_data(gomp, pk.simulate(gomp, seed=1914)[0])
    sir = pk.sir_model(years=0.5)
    sir = pk.attach_data(sir, pk.simulate(sir, seed=7)[0])
    seasonal = pk.sir_seasonal_model(years=0.5)
    seasonal = pk.attach_data(seasonal, pk.simulate(seasonal, seed=8)[0])

    ricker = pk.ricker_model()
    ricker = pk.attach_data(ricker, pk.simulate(ricker, seed=9)[0])

    for name, model, J in (("gompertz", gomp, 300), ("sir", sir, 60),
                           ("sir-seasonal", seasonal, 60)):
        res = pk.pfilter(model, num_particles=J, seed=11, save_final_particles=True)
        out[f"pfilter/{name}"] = digest(*filter_parts(res))
        t_fail = float(model.data.times[3])
        res = pk.pfilter(fails_at(model, t_fail), num_particles=J, seed=11, max_fail=1,
                         save_final_particles=True)
        out[f"pfilter/{name}/max_fail"] = digest(*filter_parts(res))

    res = pk.pfilter(ricker, num_particles=300, seed=11, save_final_particles=True)
    out["pfilter/ricker"] = digest(*filter_parts(res))

    # three filters as the blocks of one swarm; the middle one fails once
    blocks = [gomp.params, gomp.params.replace(tau=0.15), gomp.params.replace(r=0.2)]
    broken = fails_at(gomp, float(gomp.data.times[3]), lambda params: params["tau"] > 0.11)
    results = smc._pfilter_blocks(broken, blocks, 100, 11, 1)
    out["pfilter-blocks/gompertz/max_fail"] = digest(*(part for res in results
                                                       for part in filter_parts(res)))
    # five blocks with differing r: blocks 1 and 3 fail at step 4, block 4 at step 7
    blocks = [gomp.params.replace(r=r) for r in (0.1, 0.15, 0.2, 0.25, 0.3)]
    broken = fails_at(fails_at(gomp, float(gomp.data.times[3]),
                               lambda params: np.isin(params["r"], (0.15, 0.25))),
                      float(gomp.data.times[6]), lambda params: params["r"] == 0.3)
    results = smc._pfilter_blocks(broken, blocks, 50, 11, 1)
    out["pfilter-blocks/gompertz/failures"] = digest(*(part for res in results
                                                       for part in filter_parts(res)))
    # eight blocks of 600, a swarm large enough to be resampled by counting
    # (smc._COUNTING_MIN_SWARM); block 5 fails at step 4
    blocks = [gomp.params.replace(r=r) for r in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)]
    broken = fails_at(gomp, float(gomp.data.times[3]), lambda params: params["r"] == 0.3)
    results = smc._pfilter_blocks(broken, blocks, 600, 11, 1)
    out["pfilter-blocks/gompertz/large"] = digest(*(part for res in results
                                                    for part in filter_parts(res)))
    # SIR blocks with different gamma (and mu): per-particle rate arrays
    blocks = [sir.params, sir.params.replace(gamma=30.0), sir.params.replace(mu=0.03)]
    results = smc._pfilter_blocks(sir, blocks, 40, 11, 0)
    out["pfilter/sir/per-particle"] = digest(*(part for res in results
                                               for part in filter_parts(res)))

    states, obs = pk.simulate_paths(pk.sir_seasonal_model(years=2.0), None, 13, 4)
    out["simulate_paths/sir-seasonal"] = digest(states, obs)
    states, obs = pk.simulate_paths(pk.sir_seasonal_model(years=2.0), None, 13, 1)
    out["simulate_paths/sir-seasonal/nsim1"] = digest(states, obs)
    states, obs = pk.simulate_paths(pk.sir_model(years=1.0), None, 13, 4)
    out["simulate_paths/sir"] = digest(states, obs)
    for name, model in (("ricker", ricker), ("gompertz", gomp)):
        states, obs = pk.simulate_paths(model, None, 13, 50)
        out[f"simulate_paths/{name}"] = digest(states, obs)
    states, obs = pk.simulate_paths(gomp, None, 13, 50, with_obs=False)
    out["simulate_paths/gompertz/no-obs"] = digest(states, obs)
    states, obs = pk.simulate_paths(gomp, None, 13, 1, times=2.0 + np.arange(1.0, 501.0),
                                    t0=2.0)
    out["simulate_paths/gompertz/nsim1-grid"] = digest(states, obs)
    toy = normal_mean_model()
    states, obs = pk.simulate_paths(toy, None, 13, 5)
    out["simulate_paths/toy"] = digest(states, obs)
    records = pk.simulate(pk.sir_seasonal_model(years=12.0), seed=13, nsim=2)
    out["simulate/sir-seasonal/12y"] = digest(*(part for rec in records
                                                for part in (rec.states, rec.observations)))

    rw = {"r": 0.02, "sigma": 0.02, "tau": 0.02}
    rw_nat = {"r": 0.002, "sigma": 0.002, "tau": 0.002}  # keeps sigma, tau positive
    cases = {
        "plain": dict(rw_sd=rw),
        "ivp": dict(rw_sd={**rw, "X.0": 0.1}, ivp_names=("X.0",), ic_lag=10),
        "no-transform": dict(rw_sd=rw_nat, transform=False),
        "no-transform-ivp": dict(rw_sd={**rw_nat, "X.0": 0.01}, ivp_names=("X.0",),
                                 transform=False),
    }
    for name, kw in cases.items():
        settings = pk.MifSettings(start=gomp.params, n_iterations=3, num_particles=150,
                                  cooling_fraction=0.5, **kw)
        res = pk.mif(gomp, settings, seed=5)
        out[f"mif/{name}"] = digest(res.trace, res.theta_hat.values, res.n_failures,
                                    *filter_parts(res.final_filter))
    settings = pk.MifSettings(start=gomp.params, n_iterations=2, num_particles=100,
                              rw_sd=rw, max_fail=2)
    res = pk.mif(fails_at(gomp, float(gomp.data.times[4])), settings, seed=5)
    out["mif/max_fail"] = digest(res.trace, res.theta_hat.values, res.n_failures,
                                 *filter_parts(res.final_filter))

    settings = pk.MifSettings(start=seasonal.params, n_iterations=2, num_particles=40,
                              rw_sd={"b1": 0.02, "rho": 0.002, "sigma": 0.005})
    res = pk.mif(seasonal, settings, seed=5)
    out["mif/sir-seasonal"] = digest(res.trace, res.theta_hat.values, res.n_failures,
                                     *filter_parts(res.final_filter))
    settings = pk.MifSettings(start=seasonal.params, n_iterations=2, num_particles=40,
                              rw_sd={"b1": 0.02, "rho": 0.02, "sigma": 0.02})
    res = pk.mif(seasonal, settings, seed=5)
    out["mif/sir-seasonal/realistic"] = digest(res.trace, res.theta_hat.values,
                                               res.n_failures,
                                               *filter_parts(res.final_filter))
    # sigma = 0 has no log: held fixed, it never crosses the transforms
    sigma0 = seasonal.with_params(seasonal.params.replace(sigma=0.0))
    settings = pk.MifSettings(start=sigma0.params, n_iterations=2, num_particles=40,
                              rw_sd={"b1": 0.02, "rho": 0.002})
    res = pk.mif(sigma0, settings, seed=5)
    out["mif/sir-seasonal/sigma0"] = digest(res.trace, res.theta_hat.values, res.logliks,
                                            res.n_failures, *filter_parts(res.final_filter))

    wide = with_box_prior(gomp, {n: (0.01, 1.0) for n in ("r", "sigma", "tau")})
    chain = pk.pmcmc(wide, gomp.params, n_steps=30, num_particles=40,
                     proposal=pk.mvn_diag_rw({"r": 0.02, "sigma": 0.02, "tau": 0.02}), seed=6)
    out["pmcmc/plain"] = digest(*chain_parts(chain))
    # a narrow box that wide proposals leave, and a filter that fails for large tau
    narrow = with_box_prior(fails_at(gomp, float(gomp.data.times[5]),
                                     lambda params: params["tau"] > 0.11),
                            {"r": (0.05, 0.2), "sigma": (0.05, 0.2), "tau": (0.05, 0.2)})
    chain = pk.pmcmc(narrow, gomp.params, n_steps=40, num_particles=40,
                     proposal=pk.mvn_diag_rw({"r": 0.05, "sigma": 0.03, "tau": 0.03}), seed=6)
    out["pmcmc/prior-zero-and-failure"] = digest(*chain_parts(chain))
    # every filter tolerates one failed step, which scores a large-tau proposal -inf
    tolerant = with_box_prior(fails_at(gomp, float(gomp.data.times[5]),
                                       lambda params: params["tau"] > 0.11),
                              {n: (0.01, 1.0) for n in ("r", "sigma", "tau")})
    chain = pk.pmcmc(tolerant, gomp.params, n_steps=30, num_particles=40,
                     proposal=pk.mvn_diag_rw({"r": 0.02, "sigma": 0.02, "tau": 0.02}), seed=6,
                     max_fail=1)
    out["pmcmc/gompertz/max_fail"] = digest(*chain_parts(chain))

    probes = [pk.probe_mean("Y", transform=np.sqrt), pk.probe_acf("Y", [1, 2])]
    scale = pk.compute_probe_scales(gomp, None, probes, nsim=50, seed=4)
    aset = pk.AbcSettings(probes=probes, scale=scale, n_steps=60, epsilon=2.0,
                          proposal=pk.mvn_diag_rw({"r": 0.05, "sigma": 0.03, "tau": 0.03}))
    chain = pk.abc(with_box_prior(gomp, {"r": (0.05, 0.2), "sigma": (0.05, 0.2),
                                        "tau": (0.05, 0.2)}), gomp.params, aset, seed=7)
    out["abc/plain"] = digest(*chain_parts(chain))
    tset = pk.AbcSettings(probes=(pk.probe_mean("y"),), scale=np.array([1.0 / np.sqrt(20)]),
                          proposal=pk.mvn_diag_rw({"mu": 0.4}), n_steps=200, epsilon=1.0)
    chain = pk.abc(toy, toy.params, tset, seed=7)
    out["abc/toy"] = digest(*chain_parts(chain))

    res = pk.probe_match(gomp, gomp.params, ("r", "sigma"), probes, nsim=60, seed=3,
                         maxit=30)
    out["probe_match"] = digest(res.theta.values, res.value, res.status, res.n_evals)
    nset = pk.NlfSettings(lags=(1, 2), sim_length=150, transient=100, est=("r", "tau"))
    out["nlf_quasi_loglik"] = digest(pk.nlf_quasi_loglik(gomp, gomp.params, nset, seed=3))
    res = pk.nlf_fit(gomp, gomp.params, nset, seed=3, maxit=30)
    out["nlf_fit"] = digest(res.theta.values, res.value, res.status, res.n_evals)
    return out


PRIOR = {"r": [0.01, 1.0], "sigma": [0.01, 1.0], "tau": [0.01, 1.0]}
# name: (subcommand, settings); a run named "<name>/<model>" is on that model, the
# others on gompertz
CLI_RUNS = {
    "simulate": ("simulate", {"nsim": 3}),
    "simulate-no-states": ("simulate", {"nsim": 1, "include_states": False}),
    "pfilter": ("pfilter", {"np": 200, "replicates": 3, "max_fail": 1}),
    "pfilter-replicates-1": ("pfilter", {"np": 200, "replicates": 1, "max_fail": 1}),
    "mif": ("mif", {"iterations": 3, "np": 100, "starts": 2, "eval_replicates": 2,
                    "rw_sd": {"r": 0.02, "sigma": 0.02, "tau": 0.02, "X.0": 0.1},
                    "ivp_names": ["X.0"]}),
    "pmcmc": ("pmcmc", {"steps": 30, "np": 40, "prior": PRIOR,
                        "proposal_sd": {"r": 0.01, "sigma": 0.01, "tau": 0.01}}),
    "probe": ("probe", {"nsim": 50,
                        "probes": [{"type": "mean", "var": "Y", "transform": "sqrt"},
                                   {"type": "acf", "var": "Y", "lags": [1, 2]},
                                   {"type": "marginal", "var": "Y"}]}),
    "abc": ("abc", {"steps": 40, "scale_nsim": 50, "epsilon": 2.0, "prior": PRIOR,
                    "proposal_sd": {"r": 0.02, "sigma": 0.02, "tau": 0.02},
                    "probes": [{"type": "mean", "var": "Y", "transform": "sqrt"},
                               {"type": "acf", "var": "Y", "lags": [1, 2]}]}),
    "kalman": ("kalman", {"mle": True}),
    # integer-valued compartments next to the continuous Phi and noise
    "simulate/sir-seasonal": ("simulate", {"nsim": 2}),
}


def cli_hashes(workdir):
    out = {}
    for name, (algorithm, settings) in CLI_RUNS.items():
        model = name.split("/")[1] if "/" in name else "gompertz"
        outdir = os.path.join(workdir, name.replace("/", "-"))
        config = f"{outdir}.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": algorithm, "model": model,
                       "seed": 2024, "output": outdir, "settings": settings}, fh)
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main([algorithm, "--config", config])
        if status != 0:
            raise SystemExit(f"pomp-kit {algorithm} exited {status}")
        with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        written = sorted(os.listdir(outdir))
        if written != sorted(["result.json", *payload["files"].values()]):
            raise SystemExit(f"pomp-kit {algorithm} wrote {written}, but its result.json "
                             f"names {payload['files']}")
        payload.pop("generated_at")
        out[f"cli/{name}/result.json"] = digest(json.dumps(payload, sort_keys=True))
        for file in sorted(os.listdir(outdir)):
            if file.endswith(".csv"):
                with open(os.path.join(outdir, file), "rb") as fh:
                    out[f"cli/{name}/{file}"] = digest(fh.read())
    return out


def main() -> int:
    hashes = library_hashes()
    with tempfile.TemporaryDirectory() as workdir:
        hashes.update(cli_hashes(workdir))
    for name, value in hashes.items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
