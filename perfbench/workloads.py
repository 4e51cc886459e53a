"""The benchmark's workloads: their inputs and the round of operations a run repeats.

Every workload runs one round of the same operation kinds, one per end-to-end
metric, so each metric is measured on each workload.  A workload sets the
model and size of each kind: the operations it is built to stress run at the
sizes of the ROADMAP baseline table, and the rest run at the small sizes of
``LIGHT``, where they serve as controls that an optimisation aimed elsewhere
should leave unchanged.  Every call waits for the previous one (closed loop,
one client).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import pompkit as pk

from checks import (
    CheckFailed,
    agrees_with_exact,
    check_chain_in_box,
    check_filter,
    check_probe_files,
    check_sir_paths,
    check_synth_loglik,
    column,
    gompertz_exact_loglik,
    require,
)

cli = importlib.import_module("pompkit.cli")
NPROC = len(os.sched_getaffinity(0))
RUNS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs")

GOMPERTZ_EST = ("r", "sigma", "tau")
SIR_WRONG_RHO = 0.3           # three times the data-generating reporting rate
RW_SD = {name: 0.02 for name in GOMPERTZ_EST}

# (operation kind) -> size; see README.md for what each field means.
LIGHT = {
    "sir": False,
    "pfilter": (100, 2),             # J, standalone passes per round
    "replicates": (4, 1000),         # R passes at J
    "mif": (3, 100),                 # iterations, J
    "pmcmc": (10, 100),              # steps, J
    "simulate": 1000,                # nsim of one simulate_paths batch
    "probe": (1, 200),               # evaluations per round, nsim
    "abc": 20,                       # steps
    "nlf": (2, 500, 500),            # evaluations on one seed, transient, sim_length
    "cli_pfilter": (1000, 4),        # np, replicates
    "cli_mif": (2, 3, 100, 2),       # starts, iterations, np, eval_replicates
    "cli_probe": 100,                # nsim
    "malformed_csv": False,
    "repeats": 1,                    # times a round runs the operations after simulate
}

WORKLOADS = {
    "gompertz-filter": {
        **LIGHT,
        "pfilter": (100, 6),
        "replicates": (16, 1000),
        "mif": (10, 1000),
        "pmcmc": (30, 100),
    },
    "sir-seasonal-filter": {
        **LIGHT,
        "sir": True,
        "pfilter": (200, 6),             # five at the truth, one at SIR_WRONG_RHO
        "simulate": 100,
        "repeats": 3,
    },
    "features-cli": {
        **LIGHT,
        "probe": (3, 1000),
        "abc": 100,
        "nlf": (2, 1000, 1000),
        "cli_pfilter": (1000, 8),
        "cli_mif": (4, 5, 500, 4),
        "cli_probe": 1000,
        "malformed_csv": True,
    },
}

# the CLI form of the probe list built in build_inputs
RICKER_PROBES = [
    {"type": "mean", "var": "y"},
    {"type": "acf", "var": "y", "lags": [0, 1, 2], "transform": "sqrt"},
    {"type": "nlar", "var": "y", "lags": [1, 1], "powers": [1, 2], "transform": "sqrt"},
]


def seeds(*key, n=1):
    """``n`` non-negative integer seeds derived from the integer ``key``."""
    return [int(s) for s in np.random.default_rng(list(key)).integers(0, 2**62, size=n)]


@dataclass(frozen=True)
class Inputs:
    """Models and datasets made from the workload seed, plus reference values."""

    gompertz: object            # Gompertz with data and a uniform box prior
    bounds: dict
    gompertz_exact: float
    gompertz_data_seed: int
    ricker: object
    ricker_probes: tuple
    abc_probes: tuple
    abc_scales: np.ndarray
    sir: object = None          # seasonal SIR, 2 years of weekly data
    sir_long: object = None     # seasonal SIR over 10 years, for simulate_paths

    def instrumented(self, tracer):
        swap = {name: tracer.instrument_model(getattr(self, name))
                for name in ("gompertz", "ricker", "sir", "sir_long")
                if getattr(self, name) is not None}
        return dataclasses.replace(self, **swap)


def build_inputs(sizes, seed) -> Inputs:
    data_seed, ricker_seed, scale_seed, sir_seed = seeds(seed, 0, n=4)
    gompertz = pk.gompertz_model()
    gompertz = pk.attach_data(gompertz, pk.simulate(gompertz, seed=data_seed)[0])
    truth = gompertz.params.as_dict()
    bounds = {n: (truth[n] / 10.0, truth[n] * 10.0) for n in GOMPERTZ_EST}
    rprior, dprior = pk.uniform_box_prior(bounds)
    gompertz = dataclasses.replace(gompertz, rprior=rprior, dprior=dprior)
    ricker = pk.ricker_model()
    ricker = pk.attach_data(ricker, pk.simulate(ricker, seed=ricker_seed)[0])
    ricker_probes = (pk.probe_mean("y"),
                     pk.probe_acf("y", lags=[0, 1, 2], transform=np.sqrt),
                     pk.probe_nlar("y", lags=[1, 1], powers=[1, 2], transform=np.sqrt))
    abc_probes = (pk.probe_mean("Y", transform=np.log),
                  pk.probe_acf("Y", lags=[0, 1], transform=np.log))
    extra = {}
    if sizes["sir"]:
        sir = pk.sir_seasonal_model(years=2.0)
        extra["sir"] = pk.attach_data(sir, pk.simulate(sir, seed=sir_seed)[0])
        extra["sir_long"] = pk.sir_seasonal_model(years=10.0)
    return Inputs(
        gompertz=gompertz, bounds=bounds,
        gompertz_exact=gompertz_exact_loglik(truth, gompertz.data.column("Y")),
        gompertz_data_seed=data_seed,
        ricker=ricker, ricker_probes=ricker_probes, abc_probes=abc_probes,
        abc_scales=pk.compute_probe_scales(gompertz, None, abc_probes, nsim=200,
                                           seed=scale_seed),
        **extra,
    )


def calibration_pass(inp):
    """One fixed pass of the Gompertz particle filter written as a bare numpy
    loop, which shares no code with pompkit: J=100 on the workload's data.

    Its time measures the machine's speed during a run, not the program's.
    """
    return bare_gompertz_filter(inp.gompertz.data.column("Y"), inp.gompertz.params.as_dict(),
                                100, np.random.default_rng(0))


def bare_gompertz_filter(y, p, J, rng):
    """The Gompertz particle filter as a plain numpy loop: the same arithmetic
    as pfilter without the library's per-step bookkeeping."""
    s = math.exp(-p["r"])
    scale = p["K"] ** (1.0 - s)
    x = np.full(J, p["X.0"])
    loglik = 0.0
    for yn in y:
        x = scale * x**s * np.exp(rng.normal(0.0, p["sigma"], J))
        z = (math.log(yn) - np.log(x)) / p["tau"]
        logw = -0.5 * z * z - math.log(p["tau"] * yn * math.sqrt(2.0 * math.pi))
        top = logw.max()
        w = np.exp(logw - top)
        loglik += top + math.log(w.mean())
        cum = np.cumsum(w)
        x = x[np.searchsorted(cum / cum[-1], (rng.random() + np.arange(J)) / J)]
    return loglik


class OpFailed(Exception):
    """An operation ended without its expected result."""


class Recorder:
    """Operation counts, metric samples, and the pooled replicate estimates.

    Before each operation it times ``calibrate()``, so the run's calibration
    samples are spread over the same moments as its operations.
    """

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.calibration_s = []
        self.attempted = 0
        self.failed = 0
        self.check_errors = []
        self.op_errors = []
        self.samples = {}
        self.replicates = []        # library pfilter logliks at the Gompertz truth, J=1000
        self.cli_replicates = []    # pomp-kit pfilter logliks on the CLI dataset
        self.cli_exact = None

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def attempt(self, label, fn):
        """Run one operation and its checks; a raised error counts it as failed."""
        self.calibration_s.append(timed(self.calibrate)[1])
        self.attempted += 1
        try:
            fn()
        except CheckFailed as err:
            self.check_errors.append(f"{label}: {err}")
        except Exception as err:   # a failed operation is counted, not fatal
            self.failed += 1
            self.op_errors.append(f"{label}: {type(err).__name__}: {err}")

    def verify(self, label, fn):
        """Run a check that spans several operations."""
        try:
            fn()
        except CheckFailed as err:
            self.check_errors.append(f"{label}: {err}")


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def pfilter_passes(rec, inp, sizes, op_seeds):
    """Standalone pfilter passes, one pfilter_pass_ms sample each.

    On seasonal SIR the last pass runs at a wrong reporting rate, which the
    replicated estimate at the data-generating parameters must beat.
    """
    smc = importlib.import_module("pompkit.smc")
    J, passes = sizes["pfilter"]
    model = inp.sir if sizes["sir"] else inp.gompertz
    plan = [model.params] * passes
    if sizes["sir"]:
        plan[-1] = model.params.replace(rho=SIR_WRONG_RHO)
    results = []

    def one(params, s):
        result, dt = timed(smc.pfilter, model, params, num_particles=J, seed=s)
        rec.sample("pfilter_pass_ms", 1e3 * dt)
        check_filter(result, J, f"pfilter J={J}")
        results.append(result)

    for params, s in zip(plan, op_seeds):
        rec.attempt(f"pfilter J={J}", lambda: one(params, s))
    if sizes["sir"] and len(results) == passes:
        truth = smc.logmeanexp(np.array([r.loglik for r in results[:-1]]))
        rec.verify("SIR reporting rate", lambda: require(
            truth > results[-1].loglik,
            f"estimate at the truth {truth:.2f} does not beat "
            f"rho={SIR_WRONG_RHO}: {results[-1].loglik:.2f}"))


def replicate_estimate(rec, inp, sizes, seed):
    smc = importlib.import_module("pompkit.smc")
    R, J = sizes["replicates"]

    def op():
        def estimate():
            results = [smc.pfilter(inp.gompertz, num_particles=J, seed=s)
                       for s in pk.child_seeds(seed, "replicates", R)]
            return results, smc.logmeanexp(np.array([r.loglik for r in results]), with_se=True)

        (results, (est, se)), dt = timed(estimate)
        rec.sample("replicate_loglik_s", dt)
        for r in results:
            check_filter(r, J, "replicate pfilter")
        require(np.isfinite(est) and np.isfinite(se), "replicate estimate not finite")
        rec.replicates.extend(r.loglik for r in results)

    rec.attempt("replicated pfilter", op)


def mif_search(rec, inp, sizes, seed):
    mif = importlib.import_module("pompkit.mif")
    M, J = sizes["mif"]
    model = inp.gompertz
    start = model.params.as_dict()
    # every parameter starts too high by a factor in (e^0.4, e^0.8): far enough
    # from the maximum that mif improved the exact likelihood on all 300 seeds tried
    ups = np.random.default_rng(seed).uniform(0.4, 0.8, size=len(GOMPERTZ_EST))
    for name, up in zip(GOMPERTZ_EST, ups):
        start[name] *= math.exp(up)
    settings = pk.MifSettings(start=pk.ParamVector(start), n_iterations=M, num_particles=J,
                              rw_sd={n: 0.05 for n in GOMPERTZ_EST}, cooling_fraction=0.5)

    def op():
        result, dt = timed(mif.mif, model, settings, seed=seed, run_final_filter=False)
        rec.sample("mif_iteration_ms", 1e3 * dt / M)
        y = model.data.column("Y")
        before = gompertz_exact_loglik(start, y)
        after = gompertz_exact_loglik(result.theta_hat.as_dict(), y)
        require(after > before, f"mif moved the exact loglik from {before:.3f} to {after:.3f}")

    rec.attempt("mif", op)


def pmcmc_chain(rec, inp, sizes, seed):
    pmcmc = importlib.import_module("pompkit.pmcmc")
    steps, J = sizes["pmcmc"]
    model = inp.gompertz

    def op():
        chain, dt = timed(pmcmc.pmcmc, model, model.params, n_steps=steps, num_particles=J,
                          proposal=pk.mvn_diag_rw({n: 0.01 for n in GOMPERTZ_EST}), seed=seed)
        rec.sample("pmcmc_step_ms", 1e3 * dt / steps)
        check_chain_in_box(chain, model.params.values, inp.bounds, "pmcmc")

    rec.attempt("pmcmc", op)


def simulate_batch(rec, inp, sizes, seed):
    core = importlib.import_module("pompkit.core")
    nsim = sizes["simulate"]
    model = inp.sir_long if sizes["sir"] else inp.gompertz

    def op():
        (states, obs), dt = timed(core.simulate_paths, model, None, seed, nsim)
        rec.sample("simulate_s", dt)
        require(states.shape[0] == nsim and np.all(np.isfinite(states)),
                "simulate_paths returned a wrong or non-finite batch")
        if sizes["sir"]:
            check_sir_paths(states, obs, model.state_names)

    rec.attempt("simulate_paths", op)


def probe_evals(rec, inp, sizes, op_seeds):
    probes = importlib.import_module("pompkit.probes")
    evals, nsim = sizes["probe"]

    def op(s):
        result, dt = timed(probes.probe, inp.ricker, None, inp.ricker_probes, nsim=nsim, seed=s)
        rec.sample("probe_eval_ms", 1e3 * dt)
        check_synth_loglik(result)

    for s in op_seeds[:evals]:
        rec.attempt("probe", lambda: op(s))


def abc_chain(rec, inp, sizes, seed):
    abc = importlib.import_module("pompkit.abc")
    steps = sizes["abc"]
    model = inp.gompertz
    settings = pk.AbcSettings(probes=inp.abc_probes, scale=inp.abc_scales,
                              proposal=pk.mvn_diag_rw({n: 0.01 for n in GOMPERTZ_EST}),
                              n_steps=steps, epsilon=2.0)

    def op():
        chain, dt = timed(abc.abc, model, model.params, settings, seed=seed)
        rec.sample("abc_step_ms", 1e3 * dt / steps)
        check_chain_in_box(chain, model.params.values, inp.bounds, "abc")
        distance = chain.extras["distance"][chain.accepted]
        require(np.all(distance < settings.epsilon**2),
                "an accepted ABC step lies outside the tolerance ball")

    rec.attempt("abc", op)


def nlf_evals(rec, inp, sizes, seed):
    nlf = importlib.import_module("pompkit.nlf")
    evals, transient, sim_length = sizes["nlf"]
    settings = pk.NlfSettings(lags=(1, 2), transient=transient, sim_length=sim_length)
    values = []

    def op():
        value, dt = timed(nlf.nlf_quasi_loglik, inp.gompertz, None, settings, seed=seed)
        rec.sample("nlf_eval_ms", 1e3 * dt)
        require(np.isfinite(value), f"nlf quasi-loglik {value}")
        values.append(value)

    for _ in range(evals):
        rec.attempt("nlf", op)
    rec.verify("nlf repeat", lambda: require(
        len(set(values)) <= 1, f"quasi-loglik differs for one seed: {values}"))


def run_cli(argv):
    """Run ``pomp-kit`` in-process: (exit status, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main([str(a) for a in argv])
    return status, err.getvalue()


def read_result(outdir):
    with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)["results"]


def write_dataset(path, model):
    times, y = model.data.times, model.data.observations[:, 0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time," + model.obs_names[0] + "\n")
        fh.writelines(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(times, y))


def cli_runs(rec, inp, sizes, op_seeds, workdir):
    """In-process pomp-kit runs: simulate, pfilter, kalman, mif, probe."""
    s_sim, s_pf, s_mif, s_probe = op_seeds[:4]
    sim_dir = os.path.join(workdir, "sim")
    data_csv = os.path.join(sim_dir, "simulations.csv")
    truth = inp.gompertz.params.as_dict()

    def cli_simulate():
        status, err = run_cli(["simulate", "--model", "gompertz", "--seed",
                               inp.gompertz_data_seed, "-o", sim_dir])
        if status != 0:
            raise OpFailed(f"exit {status}: {err.strip()}")
        if rec.cli_exact is None:
            rec.cli_exact = gompertz_exact_loglik(truth, column(data_csv, "Y"))

    def cli_pfilter():
        J, R = sizes["cli_pfilter"]
        outdir = os.path.join(workdir, "pfilter")
        (status, err), dt = timed(run_cli, [
            "pfilter", "--model", "gompertz", "--data", data_csv, "--np", J,
            "--replicates", R, "--threads", NPROC, "--seed", s_pf, "-o", outdir])
        if status != 0:
            raise OpFailed(f"exit {status}: {err.strip()}")
        rec.sample("cli_pfilter_s", dt)
        reps = read_result(outdir)["replicates"]
        require(len(reps["logliks"]) == R and np.all(np.isfinite(reps["logliks"])),
                "pomp-kit pfilter replicate log likelihoods")
        rec.cli_replicates.extend(reps["logliks"])

    def cli_kalman():
        outdir = os.path.join(workdir, "kalman")
        config = os.path.join(workdir, "kalman.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": "kalman", "model": "gompertz",
                       "seed": s_pf, "data": data_csv, "output": outdir,
                       "settings": {"mle": True}}, fh)
        status, err = run_cli(["kalman", "--config", config])
        if status != 0:
            raise OpFailed(f"exit {status}: {err.strip()}")
        result = read_result(outdir)
        y = column(data_csv, "Y")
        exact = gompertz_exact_loglik(truth, y)
        require(math.isclose(result["loglik"], exact, rel_tol=1e-9, abs_tol=1e-9),
                f"pomp-kit kalman {result['loglik']} != exact {exact}")
        at_mle = gompertz_exact_loglik(result["mle"]["params"], y)
        require(at_mle >= exact - 1e-9,
                f"exact loglik at the Kalman MLE {at_mle} is below the truth's {exact}")

    def cli_mif():
        starts, iterations, J, evals = sizes["cli_mif"]
        outdir = os.path.join(workdir, "mif")
        config = os.path.join(workdir, "mif.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": "mif", "model": "gompertz", "seed": s_mif,
                       "data": data_csv, "output": outdir, "threads": NPROC,
                       "settings": {"iterations": iterations, "np": J, "starts": starts,
                                    "rw_sd": RW_SD, "cooling_fraction": 0.5,
                                    "eval_replicates": evals}}, fh)
        (status, err), dt = timed(run_cli, ["mif", "--config", config, "--threads", NPROC])
        if status != 0:
            raise OpFailed(f"exit {status}: {err.strip()}")
        rec.sample("cli_mif_s", dt)
        result = read_result(outdir)
        require(len(result["starts"]) == starts and np.isfinite(result["loglik"]),
                "pomp-kit mif result")
        require(len(column(os.path.join(outdir, "trace.csv"), "iteration")) == iterations,
                "pomp-kit mif trace.csv rows")

    def cli_probe():
        nsim = sizes["cli_probe"]
        outdir = os.path.join(workdir, "probe")
        ricker_csv = os.path.join(workdir, "ricker.csv")
        write_dataset(ricker_csv, inp.ricker)
        config = os.path.join(workdir, "probe.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "algorithm": "probe", "model": "ricker",
                       "seed": s_probe, "data": ricker_csv, "output": outdir,
                       "settings": {"probes": RICKER_PROBES}}, fh)
        (status, err), dt = timed(run_cli, ["probe", "--config", config, "--nsim", nsim])
        if status != 0:
            raise OpFailed(f"exit {status}: {err.strip()}")
        rec.sample("cli_probe_s", dt)
        require(np.isfinite(read_result(outdir)["synth_loglik"]), "pomp-kit probe synth_loglik")
        check_probe_files(os.path.join(outdir, "probes.csv"),
                          os.path.join(outdir, "simulations.csv"), nsim)

    def cli_malformed():
        # expected: exit status 2 and a one-line error for a non-numeric cell
        bad_csv = os.path.join(workdir, "malformed.csv")
        with open(data_csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        cells = lines[10].split(",")
        cells[header.index("Y")] = "abc"
        lines[10] = ",".join(cells)
        with open(bad_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        status, err = run_cli(["pfilter", "--model", "gompertz", "--data", bad_csv,
                               "--np", 100, "--seed", s_pf,
                               "-o", os.path.join(workdir, "malformed")])
        if status != 2 or len(err.strip().splitlines()) != 1:
            raise OpFailed(f"exit {status} with {len(err.splitlines())} stderr lines")

    rec.attempt("pomp-kit simulate", cli_simulate)
    rec.attempt("pomp-kit pfilter", cli_pfilter)
    rec.attempt("pomp-kit kalman", cli_kalman)
    rec.attempt("pomp-kit mif", cli_mif)
    rec.attempt("pomp-kit probe", cli_probe)
    if sizes["malformed_csv"]:
        rec.attempt("pomp-kit pfilter on a malformed CSV", cli_malformed)


def run_round(rec, inp, sizes, seed, index):
    """One round, on seeds derived from (seed, index): the pfilter passes and the
    simulate batch once, then every other operation kind ``repeats`` times."""
    op_seeds = iter(seeds(seed, 1, index, n=64))
    take = lambda k: [next(op_seeds) for _ in range(k)]
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=RUNS_DIR)
    try:
        pfilter_passes(rec, inp, sizes, take(8))
        simulate_batch(rec, inp, sizes, *take(1))
        for _ in range(sizes["repeats"]):
            replicate_estimate(rec, inp, sizes, *take(1))
            mif_search(rec, inp, sizes, *take(1))
            pmcmc_chain(rec, inp, sizes, *take(1))
            probe_evals(rec, inp, sizes, take(3))
            abc_chain(rec, inp, sizes, *take(1))
            nlf_evals(rec, inp, sizes, *take(1))
            cli_runs(rec, inp, sizes, take(4), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def final_checks(rec, inp, sizes, seed):
    """Checks over the whole run: pooled replicates against the exact likelihood."""
    smc = importlib.import_module("pompkit.smc")
    J = sizes["replicates"][1]
    fresh_seed, cli_seed = seeds(seed, 2, n=2)

    def fresh_library():
        return [smc.pfilter(inp.gompertz, num_particles=J, seed=s).loglik
                for s in pk.child_seeds(fresh_seed, "recheck", len(rec.replicates))]

    def library():
        ok, est, se = agrees_with_exact(rec.replicates, inp.gompertz_exact, fresh_library)
        require(ok, f"{est:.3f} (SE {se:.3f}) vs exact {inp.gompertz_exact:.3f}")

    def fresh_cli():
        J_cli = sizes["cli_pfilter"][0]
        workdir = tempfile.mkdtemp(prefix="recheck-", dir=RUNS_DIR)
        try:
            sim_dir, pf_dir = os.path.join(workdir, "sim"), os.path.join(workdir, "pfilter")
            for argv in (["simulate", "--model", "gompertz", "--seed", inp.gompertz_data_seed,
                          "-o", sim_dir],
                         ["pfilter", "--model", "gompertz", "--np", J_cli,
                          "--data", os.path.join(sim_dir, "simulations.csv"),
                          "--replicates", len(rec.cli_replicates), "--seed", cli_seed,
                          "-o", pf_dir]):
                status, err = run_cli(argv)
                require(status == 0, f"pomp-kit {argv[0]} exit {status}: {err.strip()}")
            return read_result(pf_dir)["replicates"]["logliks"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def with_cli():
        ok, est, se = agrees_with_exact(rec.cli_replicates, rec.cli_exact, fresh_cli)
        require(ok, f"{est:.3f} (SE {se:.3f}) vs exact {rec.cli_exact:.3f}")

    rec.verify("replicated pfilter vs exact likelihood", library)
    rec.verify("pomp-kit pfilter vs exact likelihood", with_cli)
